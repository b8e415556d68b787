"""Exact feasibility solving and Farkas certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contextuality import feasibility
from contextuality.feasibility import solve_nonnegative


def frac(n, d=1):
    return Fraction(n, d)


class TestFeasibleSystems:
    def test_simple_simplex_membership(self):
        rows = [[1, 1, 1]]
        rhs = [1]
        out = solve_nonnegative(rows, rhs)
        assert out.feasible
        assert sum(out.solution) == 1
        assert all(v >= 0 for v in out.solution)

    def test_exact_solution_recovery(self):
        # x0 + x1 = 3/4, x1 + x2 = 1/2, x0 + x2 = 3/4
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        rhs = [frac(3, 4), frac(1, 2), frac(3, 4)]
        out = solve_nonnegative(rows, rhs)
        assert out.feasible
        x = out.solution
        assert (x[0] + x[1], x[1] + x[2], x[0] + x[2]) == (frac(3, 4), frac(1, 2), frac(3, 4))

    def test_redundant_rows_are_harmless(self):
        rows = [[1, 1], [2, 2], [1, 1]]
        rhs = [1, 2, 1]
        out = solve_nonnegative(rows, rhs)
        assert out.feasible

    def test_zero_system(self):
        out = solve_nonnegative([[0, 0]], [0])
        assert out.feasible
        assert out.solution == (0, 0)

    def test_determinism(self):
        rows = [[1, 1, 1, 1], [1, 0, 1, 0]]
        rhs = [1, frac(1, 3)]
        a = solve_nonnegative(rows, rhs)
        b = solve_nonnegative(rows, rhs)
        assert a.solution == b.solution


class TestInfeasibleSystems:
    def test_rank_deficient_inconsistency(self):
        rows = [[1, 1], [1, 1]]
        rhs = [1, 2]
        out = solve_nonnegative(rows, rhs)
        assert not out.feasible
        assert out.certificate.verify(rows, rhs)

    def test_sign_infeasibility(self):
        # x0 + x1 = -1 has no non-negative solution.
        rows = [[1, 1]]
        rhs = [-1]
        out = solve_nonnegative(rows, rhs)
        assert not out.feasible
        assert out.certificate.verify(rows, rhs)

    def test_simplex_detected_infeasibility(self):
        # x0 + x1 = 1, x0 - x1 = 2, x1 = 1: inconsistent only with x >= 0
        # after elimination; certificate must still verify.
        rows = [[1, 1], [1, -1], [0, 1]]
        rhs = [1, 2, 1]
        out = solve_nonnegative(rows, rhs)
        assert not out.feasible
        assert out.certificate.verify(rows, rhs)

    def test_randomized_cross_check(self):
        # Either a solution that satisfies the system or a certificate that
        # verifies; both checked exactly.
        rng = random.Random(7)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[frac(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            rhs = [frac(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
            out = solve_nonnegative(rows, rhs)
            if out.feasible:
                for row, b in zip(rows, rhs):
                    assert sum(c * x for c, x in zip(row, out.solution)) == b
                assert all(x >= 0 for x in out.solution)
            else:
                assert out.certificate.verify(rows, rhs)


# ---------------------------------------------------------------------------
# Properties on generated systems
# ---------------------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4))


@st.composite
def systems(draw):
    """(rows, rhs, derived): fresh and derived rows, m <= 8 and n <= 12.

    A derived row repeats, scales or sums earlier rows, right-hand side
    included; ``derived`` holds their indices.  Half the systems plant a
    non-negative solution, so both outcomes are drawn often.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    planted = draw(st.booleans())
    point = draw(st.lists(st.builds(Fraction, st.integers(0, 3), st.integers(1, 3)), min_size=n, max_size=n))
    rows, rhs, derived = [], [], []
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["fresh", "repeat", "scale", "sum"])) if rows else "fresh"
        if kind == "fresh":
            row = draw(st.lists(rationals, min_size=n, max_size=n))
            value = sum(a * x for a, x in zip(row, point)) if planted else draw(rationals)
        else:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            factor = draw(rationals.filter(bool)) if kind == "scale" else 1
            row = [factor * a + (b if kind == "sum" else 0) for a, b in zip(rows[j], rows[k])]
            value = factor * rhs[j] + (rhs[k] if kind == "sum" else 0)
            derived.append(i)
        rows.append(row)
        rhs.append(value)
    return rows, rhs, derived


@pytest.mark.parametrize("stall", [feasibility._STALL, 0], ids=["largest-coefficient", "bland"])
@settings(max_examples=150, deadline=None)
@given(system=systems())
def test_generated_systems_are_decided_exactly(stall, system):
    rows, rhs, derived = system
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "_STALL", stall)
        out = solve_nonnegative(rows, rhs)
    if out.feasible:
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, out.solution)) == b
        assert all(x >= 0 for x in out.solution)
    else:
        assert out.certificate.verify(rows, rhs)
        assert all(out.certificate.coefficients[i] == 0 for i in derived)
