"""Exact feasibility solving and Farkas certificates."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from contextuality import catalog, classifier, dutchbook, feasibility
from contextuality.classifier import global_distribution
from contextuality.distribution import Distribution
from contextuality.errors import InternalConsistencyError
from contextuality.feasibility import FarkasCertificate, FeasibilityOutcome, solve_source
from contextuality.scenario import GlobalSectionColumns, global_section_columns

from conftest import dense_outcome, global_section_system, noisy_cycle, solve_columns, solve_nonnegative
from test_global_sections import MODELS, expand, independent_rows


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
def systems(draw, entries=rationals, coordinates=st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))):
    """(rows, rhs, derived): fresh and derived rows, m <= 8 and n <= 12.

    A derived row repeats, scales or sums earlier rows, right-hand side
    included; ``derived`` holds their indices.  Half the systems plant a
    non-negative solution, its coordinates drawn from ``coordinates``, so
    both outcomes are drawn often.  Fresh rows, and unplanted right-hand
    sides, are drawn from ``entries``.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    planted = draw(st.booleans())
    point = draw(st.lists(coordinates, min_size=n, max_size=n))
    rows, rhs, derived = [], [], []
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["fresh", "repeat", "scale", "sum"])) if rows else "fresh"
        if kind == "fresh":
            row = draw(st.lists(entries, min_size=n, max_size=n))
            value = sum(a * x for a, x in zip(row, point)) if planted else draw(entries)
        else:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            factor = draw(rationals.filter(bool)) if kind == "scale" else 1
            row = [factor * a + (b if kind == "sum" else 0) for a, b in zip(rows[j], rows[k])]
            value = factor * rhs[j] + (rhs[k] if kind == "sum" else 0)
            derived.append(i)
        rows.append(row)
        rhs.append(value)
    return rows, rhs, derived


# Both kinds of generated system.  The degenerate ones have small integer
# rows and right-hand sides and plant a sparse 0/1 point, so the planted
# basic solutions are degenerate and the ratio test ties often: those ties
# are what the lexicographic rule decides.
SYSTEMS = {"rational": systems(),
           "degenerate": systems(entries=st.integers(-1, 2), coordinates=st.sampled_from([0, 0, 0, 1]))}
by_kind = pytest.mark.parametrize("kind", SYSTEMS)


@by_kind
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_systems_are_decided_exactly(kind, data):
    rows, rhs, derived = data.draw(SYSTEMS[kind], label="system")
    out = solve_nonnegative(rows, rhs)
    if out.feasible:
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, out.solution)) == b
        assert all(x >= 0 for x in out.solution)
    else:
        assert out.certificate.verify(rows, rhs)
        assert all(out.certificate.coefficients[i] == 0 for i in derived)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_explicit_pricing_hands_back_the_entering_column(data):
    # Random sparse integer columns and row weights; the entering column
    # against the enumerated costs, handed back as ``column(j)`` gives it.
    m = data.draw(st.integers(1, 6), label="m")
    columns = data.draw(st.lists(st.lists(st.integers(0, m - 1), unique=True, max_size=m).map(sorted), max_size=10),
                        label="columns")
    values = [data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)), label="values")
              for rows in columns]
    weights = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m), label="weights")
    source = feasibility.ExplicitColumns(columns, values)
    costs = [sum(weights[r] * v for r, v in zip(rows, entries)) for rows, entries in zip(columns, values)]
    found = source.entering(weights)
    if max(costs, default=0) <= 0:
        assert found is None
        return
    j = costs.index(max(costs))
    assert found == (j, costs[j], *source.column(j)) == (j, costs[j], columns[j], values[j])


def sparse_columns(rows):
    """Each column's non-zero rows and entries, listed from the last row up."""
    columns = [tuple(i for i in reversed(range(len(rows))) if rows[i][j]) for j in range(len(rows[0]))]
    return columns, [tuple(rows[i][j] for i in column) for j, column in enumerate(columns)]


@by_kind
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_core_matches_the_dense_entry_point(kind, data):
    rows, rhs, _ = data.draw(SYSTEMS[kind], label="system")
    columns, values = sparse_columns(rows)
    assert solve_columns(columns, rhs, values) == solve_nonnegative(rows, rhs)


# ---------------------------------------------------------------------------
# The revised simplex against the dense tableau it replaced
# ---------------------------------------------------------------------------


def dense_phase1(source, sign, cost, target, independent):
    """The dense phase-1 tableau: every pivot rewrites every structural column.

    It reads the source's columns once, into dense rows signed by ``sign``,
    prices artificial i at ``cost[i]``, and never prices through the source.
    Returns what ``feasibility._phase1`` returns: the final basis, the common
    denominator and the tableau's artificial and right-hand-side columns.
    """
    k = len(independent)
    n = len(source)
    matrix = expand(source, len(sign))
    tableau = []
    for r, i in enumerate(independent):
        row = [v * sign[i] for v in matrix[i]] + [0] * (k + 1)
        row[n + r] = 1
        row[-1] = target[i]
        tableau.append(row)
    # The phase-1 objective, z minus the artificial costs: each row weighted by its cost.
    objective = [sum(cost[i] * v for i, v in zip(independent, column)) for column in zip(*tableau)]
    objective[n:n + k] = [0] * k
    tableau.append(objective)
    basis = list(range(n, n + k))
    d = 1
    while tableau[k][-1]:
        costs = tableau[k]
        best = max(costs[:n])
        if best <= 0:
            break
        col = costs.index(best)
        leave = lexicographic_ratio_test(tableau, col, n, k)
        d = dense_pivot(tableau, leave, col, d)
        basis[leave] = col
    return basis, d, [row[n:] for row in tableau]


def row_scaled_phase1(source, scale, target, independent):
    """The row-scaled dense phase-1 tableau: row i is ``scale[i]`` times the source's row i.

    Every artificial costs one.  This is the tableau the solver followed
    before its rows were kept unscaled, kept as an oracle of that path; every
    pivot rewrites every structural column.

    It reads the source's columns once, into dense rows scaled by ``scale``,
    and never prices through the source.  Returns what
    ``feasibility._phase1`` returns: the final basis, the common denominator
    and the tableau's artificial and right-hand-side columns.
    """
    k = len(independent)
    n = len(source)
    matrix = expand(source, len(scale))
    tableau = []
    for r, i in enumerate(independent):
        row = [v * scale[i] for v in matrix[i]] + [0] * (k + 1)
        row[n + r] = 1
        row[-1] = target[i]
        tableau.append(row)
    objective = [sum(column) for column in zip(*tableau)]
    objective[n:n + k] = [0] * k
    tableau.append(objective)
    basis = list(range(n, n + k))
    d = 1
    while tableau[k][-1]:
        costs = tableau[k]
        best = max(costs[:n])
        if best <= 0:
            break
        col = costs.index(best)
        leave = lexicographic_ratio_test(tableau, col, n, k)
        d = dense_pivot(tableau, leave, col, d)
        basis[leave] = col
    return basis, d, [row[n:] for row in tableau]


def lexicographic_ratio_test(tableau, col, n, k):
    """The leaving row: the least of the full rows' (right-hand side, artificial columns) over the pivot entry."""
    keys = {i: [Fraction(v, row[col]) for v in (row[-1], *row[n:n + k])]
            for i, row in enumerate(tableau[:k]) if row[col] > 0}
    assert keys, "phase-1 objective is bounded"
    least = min(keys.values())
    (leave,) = (i for i, key in keys.items() if key == least)
    return leave


def dense_pivot(tableau, row, col, d):
    """Edmonds' integer pivot on (row, col) over the whole tableau."""
    prow = tableau[row]
    p = prow[col]
    for i, other in enumerate(tableau):
        f = other[col]
        if i == row or (not f and p == d):
            continue
        if f:
            tableau[i] = [(x * p - f * y) // d if y else x * p // d for x, y in zip(other, prow)]
        else:
            tableau[i] = [x * p // d for x in other]
    return p


def dense_solve(rows, rhs):
    """``solve_nonnegative`` with the dense tableau in place of the revised simplex."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "_phase1", dense_phase1)
        return solve_nonnegative(rows, rhs)


def assert_follows_dense_tableau(rows, rhs):
    revised = solve_nonnegative(rows, rhs)
    assert revised == dense_solve(rows, rhs)
    return revised


@by_kind
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_systems_follow_the_dense_tableau(kind, data):
    rows, rhs, _ = data.draw(SYSTEMS[kind], label="system")
    assert_follows_dense_tableau(rows, rhs)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("noise", [Fraction(0), Fraction(1, 8), None, Fraction(1, 2)],
                         ids=["box", "noise-1/8", "facet", "noise-1/2"])
def test_global_section_systems_follow_the_dense_tableau(n, noise):
    # The facet share 2/n is the maximally degenerate case (see TestCycleFacet).
    model = noisy_cycle(n, Fraction(2, n) if noise is None else noise)
    system = global_section_system(model.scenario)
    matrix = [[0] * len(system.columns) for _ in system.rows]
    for j, rows in enumerate(system.incidence):
        for r in rows:
            matrix[r][j] = 1
    rhs = [model.table(c).weight(s) for c, s in system.rows]
    assert solve_columns(system.incidence, rhs) == assert_follows_dense_tableau(matrix, rhs)


def test_membership_systems_follow_the_dense_tableau(catalog_reps, padded_catalog_reps, monkeypatch):
    seen = []

    def checked(source, rhs):
        rows = expand(source, len(rhs))
        seen.append(len(rows))
        outcome = solve_source(source, rhs)
        with pytest.MonkeyPatch.context() as inner:
            # The dense check's solve_nonnegative solves through this namespace too.
            inner.setattr(feasibility, "solve_source", solve_source)
            assert dense_outcome(outcome, len(source)) == assert_follows_dense_tableau(rows, rhs)
        return outcome
    monkeypatch.setattr(feasibility, "solve_source", checked)
    # find_dutch_book solves nothing when the null events cover the space, so
    # the whole-family and maximal-context systems are also posed directly.
    for rep in catalog_reps.values():
        dutchbook.find_dutch_book(rep)
        dutchbook.convexity_membership(rep)
        dutchbook.convexity_membership(rep, rep.maximal_context_events())
    for rep in padded_catalog_reps.values():
        dutchbook.find_dutch_book(rep)
        dutchbook.convexity_membership(rep)
        dutchbook.convexity_membership(rep, rep.maximal_context_events())
    assert len(seen) >= 2 * len(catalog_reps) + 2 * len(padded_catalog_reps)


# ---------------------------------------------------------------------------
# Oracle pricing against the explicit columns and the dense tableau
# ---------------------------------------------------------------------------


def count_calls(patch, owner, name) -> list:
    """Wrap ``owner.name`` so that each call appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return original(*args)
    patch.setattr(owner, name, counting)
    return calls


def with_pivots(calls, solve):
    """The outcome of ``solve()`` and the number of pivots counted while it ran."""
    before = len(calls)
    outcome = solve()
    return outcome, len(calls) - before


@pytest.mark.parametrize("name, model", MODELS, ids=[name for name, _ in MODELS])
def test_oracle_priced_solves_follow_the_explicit_columns_and_the_dense_tableau(name, model):
    # The table right-hand side and 20 signed ones, which also reach the
    # presolve's dependent-row certificates.
    system = global_section_system(model.scenario)
    source = global_section_columns(model.scenario)
    matrix = [[0] * len(system.columns) for _ in system.rows]
    for j, rows in enumerate(system.incidence):
        for r in rows:
            matrix[r][j] = 1
    rng = random.Random(name)
    sides = [[model.table(c).weight(s) for c, s in system.rows]]
    sides += [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in system.rows] for _ in range(20)]
    with pytest.MonkeyPatch.context() as patch:
        revised = count_calls(patch, feasibility, "_pivot")
        dense = count_calls(patch, sys.modules[__name__], "dense_pivot")
        for rhs in sides:
            oracle = with_pivots(revised, lambda: dense_outcome(solve_source(source, rhs), len(source)))
            assert oracle == with_pivots(revised, lambda: solve_columns(system.incidence, rhs))
            assert oracle == with_pivots(dense, lambda: dense_solve(matrix, rhs))


@pytest.mark.parametrize("name, model", MODELS, ids=[name for name, _ in MODELS])
def test_vertex_sides_follow_the_explicit_columns_and_both_tableaux(name, model):
    # Right-hand sides at and between vertices of the global-section polytope:
    # single sections, even mixtures of two and of three, and a section with
    # one row raised, which no mixture meets.  Most right-hand-side entries
    # are zero, so phase 1 is degenerate and its ratio tests tie.
    system = global_section_system(model.scenario)
    source = global_section_columns(model.scenario)
    matrix = expand(source, len(system.rows))
    rng = random.Random(f"vertices:{name}")

    def mixture(size):
        picks = [rng.randrange(len(system.columns)) for _ in range(size)]
        return [Fraction(sum(r in system.incidence[j] for j in picks), size) for r in range(len(system.rows))]
    sides = [mixture(size) for size in (1, 1, 2, 2, 3, 3)]
    raised = mixture(1)
    raised[rng.randrange(len(raised))] += Fraction(1, 2)
    sides.append(raised)
    verdicts = []
    for rhs in sides:
        with pytest.MonkeyPatch.context() as patch:
            revised = count_calls(patch, feasibility, "_pivot")
            dense = count_calls(patch, sys.modules[__name__], "dense_pivot")
            oracle = with_pivots(revised, lambda: dense_outcome(solve_source(source, rhs), len(source)))
            assert oracle == with_pivots(revised, lambda: solve_columns(system.incidence, rhs))
            assert oracle == with_pivots(dense, lambda: dense_solve(matrix, rhs))
        assert solver_path(source, rhs) == row_scaled_solve(source, rhs)
        verdicts.append(oracle[0].feasible)
    assert verdicts == [True] * 6 + [False]


# ---------------------------------------------------------------------------
# The primal as its support
# ---------------------------------------------------------------------------


def test_primal_is_the_positive_basic_columns():
    # The restriction-oracle models and the dense-tableau cycle pool, each
    # with its table right-hand side: both verdicts occur.
    pool = [model for _, model in MODELS] + [noisy_cycle(n, Fraction(2, n) if noise is None else noise)
                                             for n in range(3, 9)
                                             for noise in (Fraction(0), Fraction(1, 8), None, Fraction(1, 2))]
    verdicts = set()
    for model in pool:
        source = global_section_columns(model.scenario)
        rhs = [model.table(c).weight(s) for c, s in source.rows]
        matrix = expand(source, len(rhs))
        outcome = solve_source(source, rhs)
        if outcome.feasible:
            keys = list(outcome.solution)
            assert all(a < b for a, b in zip(keys, keys[1:])) and all(0 <= j < len(source) for j in keys)
            assert all(x > 0 for x in outcome.solution.values())
            assert len(keys) <= len(independent_rows(matrix))
        assert dense_outcome(outcome, len(source)) == dense_solve(matrix, rhs)
        verdicts.add(outcome.feasible)
    assert verdicts == {False, True}


def test_primal_of_a_large_cycle_lists_at_most_one_column_per_row(monkeypatch):
    # 2^18 global sections against 72 rows.
    outcomes = []
    solve = feasibility.solve_source

    def recording(source, rhs):
        outcomes.append(solve(source, rhs))
        return outcomes[-1]
    monkeypatch.setattr(feasibility, "solve_source", recording)
    model = noisy_cycle(18, Fraction(1, 8))
    assert isinstance(global_distribution(model, cap=math.inf), Distribution)
    (outcome,) = outcomes
    assert 0 < len(outcome.solution) <= len(global_section_columns(model.scenario).rows)


# ---------------------------------------------------------------------------
# The unscaled block against the row-scaled tableau
# ---------------------------------------------------------------------------


def row_scaled_solve(source, rhs):
    """The outcome, final basis and pivot count of the row-scaled dense tableau.

    Row i is scaled by the denominator of b_i, signed so that its right-hand
    side is the non-negative numerator, and every artificial costs one.  The
    solution and the certificate are read from that tableau: x_j is the
    right-hand side of j's row over d, and the Farkas ray is (π_r + d)·scale_r
    on the independent rows, made primitive.  The basis is None, and the count
    0, when a dependent row decides the system before any phase 1.
    """
    b = [Fraction(v) for v in rhs]
    n = len(source)
    scale = [-v.denominator if v < 0 else v.denominator for v in b]
    target = [abs(v.numerator) for v in b]
    independent, dependent = feasibility._presolve(feasibility._spanned_rows(source, len(b)))
    common = lcm(*(v.denominator for v in b))
    whole = [v.numerator * (common // v.denominator) for v in b]
    for combination in dependent:
        if value := sum(a * v for a, v in zip(combination, whole)):
            return primitive_certificate(combination, value), None, 0
    k = len(independent)
    if not k:
        return FeasibilityOutcome(True, tuple(Fraction(0) for _ in range(n)), None), None, 0
    with pytest.MonkeyPatch.context() as patch:
        pivots = count_calls(patch, sys.modules[__name__], "dense_pivot")
        basis, d, block = row_scaled_phase1(source, scale, target, independent)
    if block[k][k] > 0:
        y = [0] * len(b)
        for r, i in enumerate(independent):
            y[i] = (block[k][r] + d) * scale[i]
        return primitive_certificate(y, block[k][k]), basis, len(pivots)
    solution = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            solution[j] = Fraction(block[r][k], d)
    return FeasibilityOutcome(True, tuple(solution), None), basis, len(pivots)


def primitive_certificate(y, value):
    """The outcome with the primitive integer ray along y, signed so that yᵀb has the sign of value."""
    g = gcd(*y) if value > 0 else -gcd(*y)
    return FeasibilityOutcome(False, None, FarkasCertificate(tuple(Fraction(v // g) for v in y)))


def solver_path(source, rhs):
    """``solve_source``'s outcome, final basis and pivot count, as ``row_scaled_solve`` returns them."""
    bases = []
    phase1 = feasibility._phase1

    def recording(*args):
        result = phase1(*args)
        bases.append(result[0])
        return result
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "_phase1", recording)
        pivots = count_calls(patch, feasibility, "_pivot")
        outcome = solve_source(source, rhs)
    return dense_outcome(outcome, len(source)), (bases[0] if bases else None), len(pivots)


def integer_source(rows, rhs):
    """The integer column source and right-hand side that ``solve_nonnegative`` hands to ``solve_source``."""
    seen = []
    core = feasibility.solve_source
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "solve_source", lambda source, b: seen.append((source, b)) or core(source, b))
        solve_nonnegative(rows, rhs)
    return seen[0]


@by_kind
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_systems_take_the_row_scaled_path(kind, data):
    source, rhs = integer_source(*data.draw(SYSTEMS[kind], label="system")[:2])
    assert solver_path(source, rhs) == row_scaled_solve(source, rhs)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("noise", [Fraction(0), Fraction(1, 8), None, Fraction(1, 2)],
                         ids=["box", "noise-1/8", "facet", "noise-1/2"])
def test_global_section_systems_take_the_row_scaled_path(n, noise):
    model = noisy_cycle(n, Fraction(2, n) if noise is None else noise)
    source = global_section_columns(model.scenario)
    rhs = [model.table(c).weight(s) for c, s in source.rows]
    path = solver_path(source, rhs)
    assert path[2] > 0
    assert path == row_scaled_solve(source, rhs)


# The noise shares of the noisy cycles in the cycle-classify benchmark pool.
NOISE = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))


@pytest.mark.parametrize("n", range(3, 12))
def test_phase1_block_stays_within_one_digit(n, monkeypatch):
    # d and every block entry fit one 30-bit CPython digit on the cycle
    # families: the box, the box with every noise share, and one perturbed
    # and one mixture draw.  The block of the row-scaled tableau carried the
    # product of the right-hand-side denominators (47 bits at n = 3).
    box = noisy_cycle(n, Fraction(0))
    models = [box] + [noisy_cycle(n, share) for share in NOISE] + [
        catalog.perturbed_model(box, random.Random(f"perturbed:{n}")),
        catalog.random_deterministic_mixture(box.scenario, random.Random(f"mixture:{n}"))]
    widest = []
    pivot = feasibility._pivot

    def measured(block, column, row, d):
        d = pivot(block, column, row, d)
        widest.append(max(abs(d), *(abs(v) for line in block for v in line)))
        return d
    monkeypatch.setattr(feasibility, "_pivot", measured)
    source = global_section_columns(box.scenario)
    for model in models:
        solve_source(source, [model.table(c).weight(s) for c, s in source.rows])
    assert widest
    assert max(widest) < 2 ** 30


# The pivots of ``classify`` on the noisy (1/8) n-cycles, with the tier they
# end in.  A change to the pricing or the ratio test shows here.
CLASSIFY_PIVOTS = {4: (10, "Noncontextual"), 5: (14, "Probabilistic"), 6: (21, "Noncontextual"),
                   7: (21, "Probabilistic"), 8: (46, "Noncontextual"), 9: (54, "Probabilistic"),
                   10: (76, "Noncontextual"), 11: (43, "Probabilistic"), 12: (75, "Noncontextual")}


@pytest.mark.parametrize("n", sorted(CLASSIFY_PIVOTS))
def test_classify_pivot_counts_are_pinned(n):
    with pytest.MonkeyPatch.context() as patch:
        pivots = count_calls(patch, feasibility, "_pivot")
        tier = classifier.classify(noisy_cycle(n, Fraction(1, 8))).tier
    assert (len(pivots), str(tier)) == CLASSIFY_PIVOTS[n]


# The pivot count and final basis of ``classify`` on the noisy n-cycles at
# two noise shares, recorded with the full-row update on every pivot and
# each entering column re-derived by ``column(j)``, and for n <= 9 through
# the dense tableau too.  A change to the pivot update, the pricing or the
# ratio test shows here.
CLASSIFY_PATHS = {
    (Fraction(1, 8), 4): (10, [12, 7, 18, 19, 3, 10, 9, 5, 6]),
    (Fraction(1, 8), 5): (14, [5, 13, 22, 26, 10, 37, 18, 11, 9, 21, 20]),
    (Fraction(1, 8), 6): (21, [52, 12, 27, 61, 11, 15, 38, 21, 34, 42, 25, 41, 22]),
    (Fraction(1, 8), 7): (21, [21, 53, 90, 106, 42, 133, 84, 45, 37, 86, 74, 43, 41, 85, 82]),
    (Fraction(1, 8), 8): (46, [234, 182, 170, 75, 89, 0, 172, 85, 173, 147, 43, 105, 154, 187, 162, 90, 166]),
    (Fraction(1, 8), 9): (54, [169, 213, 346, 426, 338, 517, 330, 171, 149, 170, 85, 342, 173, 341, 165, 362, 298,
                               181, 340]),
    (Fraction(1, 8), 16): (88, [22826, 27754, 17236, 60073, 38572, 6137, 23773, 21845, 18789, 52923, 38229, 23238,
                                21653, 43690, 43573, 45226, 42314, 25113, 43602, 58864, 53930, 13688, 43814, 27317,
                                39592, 11924, 10923, 59802, 41359, 65507, 65134, 17834, 35466]),
    (Fraction(1, 8), 18): (186, [174757, 131584, 215402, 166602, 240426, 61409, 174770, 178026, 187049, 49204, 169306,
                                 87381, 76461, 13378, 258692, 110656, 117421, 228256, 93485, 174420, 29840, 124679,
                                 174474, 175274, 173418, 40582, 112661, 174778, 88938, 219150, 43691, 174762, 174677,
                                 5238, 175574, 87723, 156330]),
    (Fraction(1, 2), 4): (10, [12, 7, 18, 19, 3, 10, 9, 5, 6]),
    (Fraction(1, 2), 5): (17, [21, 7, 34, 26, 10, 14, 17, 18, 9, 13, 20]),
    (Fraction(1, 2), 6): (17, [52, 26, 66, 67, 11, 46, 37, 21, 34, 41, 25, 12, 22]),
    (Fraction(1, 2), 7): (23, [21, 27, 95, 106, 42, 121, 115, 14, 37, 55, 74, 84, 41, 61, 82]),
    (Fraction(1, 2), 8): (30, [86, 257, 114, 81, 73, 45, 69, 170, 149, 172, 43, 244, 210, 59, 217, 91, 7]),
    (Fraction(1, 2), 9): (31, [185, 246, 514, 426, 338, 46, 164, 171, 149, 280, 53, 84, 70, 213, 101, 346, 297, 415,
                               332]),
}


@pytest.mark.parametrize("share, n", sorted(CLASSIFY_PATHS), ids=[f"{s}-n{n}" for s, n in sorted(CLASSIFY_PATHS)])
def test_classify_pivot_paths_are_pinned(share, n):
    bases = []
    phase1 = feasibility._phase1

    def recording(*args):
        result = phase1(*args)
        bases.append(result[0])
        return result
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "_phase1", recording)
        pivots = count_calls(patch, feasibility, "_pivot")
        classifier.classify(noisy_cycle(n, share))
    (basis,) = bases
    assert (len(pivots), basis) == CLASSIFY_PATHS[share, n]


def test_degenerate_cycle_takes_few_pivots():
    # Phase 1 on the noisy (1/8) 22-cycle is highly degenerate; the
    # lexicographic ratio test takes it through 363 pivots.
    with pytest.MonkeyPatch.context() as patch:
        pivots = count_calls(patch, feasibility, "_pivot")
        tier = classifier.classify(noisy_cycle(22, Fraction(1, 8)), cap=math.inf).tier
    assert str(tier) == "Noncontextual"
    assert len(pivots) <= 1000


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pivot_updates_the_block_as_the_full_row_formula(data):
    # The oracle is ``dense_pivot``, the full-row update, on a whole tableau
    # [A | I | b] with an objective row; ``_pivot`` gets its artificial and
    # right-hand-side columns as the block and the entering column read from
    # the oracle's tableau, as ``_phase1`` hands them over.  Pivots may be any
    # non-zero entry of A, and are drawn on an entry equal to d whenever a
    # drawn flag asks for one and there is one, so both updates are taken.
    k, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    tableau = [data.draw(entries) + [int(r == i) for i in range(k)] + [data.draw(st.integers(0, 5))]
               for r in range(k)]
    tableau.append(data.draw(entries) + [0] * k + [data.draw(st.integers(-5, 5))])
    block = [row[n:] for row in tableau]
    d = 1
    for _ in range(data.draw(st.integers(1, 6))):
        candidates = [(i, j) for i in range(k) for j in range(n) if tableau[i][j]]
        if not candidates:
            break
        equal = [(i, j) for i, j in candidates if tableau[i][j] == d]
        row, col = data.draw(st.sampled_from(equal if equal and data.draw(st.booleans()) else candidates))
        column = [line[col] for line in tableau]
        pivoted = feasibility._pivot(block, column, row, d)
        d = dense_pivot(tableau, row, col, d)
        assert pivoted == d
        assert block == [line[n:] for line in tableau]


# ---------------------------------------------------------------------------
# The presolve: one echelon per source, checked against each right-hand side
# ---------------------------------------------------------------------------


def test_the_echelon_runs_once_per_source(monkeypatch):
    # Two solves on one fresh source, then two classifier solves on two
    # models of one scenario, each read the spanning columns once.
    source = GlobalSectionColumns(noisy_cycle(5, Fraction(1, 8)).scenario)
    calls = count_calls(monkeypatch, source, "spanning")
    for rhs in ([Fraction(1, 4)] * len(source.rows), [Fraction(1, 2), 0] * (len(source.rows) // 2)):
        solve_source(source, rhs)
    assert len(calls) == 1

    global_section_columns.cache_clear()
    calls = count_calls(monkeypatch, GlobalSectionColumns, "spanning")
    for share in (Fraction(1, 8), Fraction(1, 2)):
        global_distribution(noisy_cycle(5, share))
    assert len(calls) == 1


def signalling_sides(model, rng) -> list:
    """Tables that disagree on shared measurements: point masses on outcome 1
    in the first context that meets another and on outcome 0 elsewhere, and
    random tables."""
    source = global_section_columns(model.scenario)
    contexts = model.scenario.maximal_contexts
    odd = next(c for c in contexts if any(set(c) & set(d) for d in contexts if d != c))
    sides = [[Fraction(set(s.values) == {model.scenario.outcomes[c == odd]}) for c, s in source.rows]]
    for _ in range(5):
        weights = {c: [rng.randint(0, 3) for d, _ in source.rows if d == c] for c in model.scenario.maximal_contexts}
        weights = {c: w if any(w) else [1] + w[1:] for c, w in weights.items()}
        sides.append([Fraction(w, sum(weights[c])) for c in model.scenario.maximal_contexts for w in weights[c]])
    return sides


@pytest.mark.parametrize("name, model", [(name, model) for name, model in MODELS if len(model.scenario.outcomes) > 1],
                         ids=[name for name, model in MODELS if len(model.scenario.outcomes) > 1])
def test_signalling_tables_get_the_dense_certificate_from_the_presolve(name, model):
    source = global_section_columns(model.scenario)
    matrix = expand(source, len(source.rows))
    sides = signalling_sides(model, random.Random(name))
    with pytest.MonkeyPatch.context() as patch:
        phase1 = count_calls(patch, feasibility, "_phase1")
        for rhs in sides:
            outcome = solve_source(source, rhs)
            assert not outcome.feasible
            assert outcome.certificate.verify(matrix, rhs)
            assert outcome == solve_nonnegative(matrix, rhs)
        assert not phase1


# ---------------------------------------------------------------------------
# A faulty column source or pivot raises instead of looping
# ---------------------------------------------------------------------------


def faulty(patch, owner, name, fault, budget=100):
    """Replace ``owner.name`` by ``fault(original, *args)``; the call after ``budget`` fails the run.

    The budget turns a loop that never ends into a failure other than
    ``InternalConsistencyError``.
    """
    original = getattr(owner, name)
    calls = []

    def replaced(*args):
        calls.append(None)
        if len(calls) > budget:
            raise RuntimeError(f"{name} called {budget} times: the loop does not end")
        return fault(original, *args)
    patch.setattr(owner, name, replaced)


def next_columns_rows(entering, source, weights):
    """The entering column and its value, with the rows and entries of the next column."""
    found = entering(source, weights)
    if found is None:
        return None
    j, value, _, _ = found
    return (j, value, *source.column((j + 1) % len(source)))


def best_column_even_if_not_positive(entering, source, weights):
    """The entering column, or the best column when no value is positive."""
    found = entering(source, weights)
    if found is not None:
        return found
    costs = source._costs(weights)
    j = costs.index(max(costs))
    return (j, costs[j], *source.column(j))


def objective_raised(pivot, block, column, row, d):
    """The pivot, then the phase-1 objective raised by one."""
    d = pivot(block, column, row, d)
    block[-1][-1] += d
    return d


# x0 + x1 = 3/4, x1 + x2 = 1/2, x0 + x2 = 3/4: every pair of columns is worth
# something different on the first pivot.
FEASIBLE = ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [frac(3, 4), frac(1, 2), frac(3, 4)])


@pytest.mark.parametrize("fault, system", [
    (next_columns_rows, FEASIBLE),
    (best_column_even_if_not_positive, ([[1, 1], [1, -1]], [1, 2])),
], ids=["rows-of-another-column", "value-not-positive"])
def test_a_faulty_explicit_entering_column_raises(fault, system, monkeypatch):
    faulty(monkeypatch, feasibility.ExplicitColumns, "entering", fault)
    with pytest.raises(InternalConsistencyError, match="handed back at"):
        solve_nonnegative(*system)


def test_a_faulty_global_section_entering_column_raises(monkeypatch):
    faulty(monkeypatch, GlobalSectionColumns, "entering", next_columns_rows)
    with pytest.raises(InternalConsistencyError, match="handed back at"):
        global_distribution(noisy_cycle(5, Fraction(1, 8)))


def test_a_pivot_that_raises_the_phase1_objective_raises(monkeypatch):
    faulty(monkeypatch, feasibility, "_pivot", objective_raised)
    with pytest.raises(InternalConsistencyError, match="raised the phase-1 objective"):
        solve_nonnegative(*FEASIBLE)


def test_a_support_cover_column_reaching_no_new_row_raises(monkeypatch):
    first = []

    def repeat_first(entering, source, weights):
        first[:] = first or [entering(source, weights)]
        return first[0]
    faulty(monkeypatch, GlobalSectionColumns, "entering", repeat_first)
    with pytest.raises(InternalConsistencyError, match="reaches no new row"):
        classifier.is_logically_contextual(catalog.hardy_model())


def test_a_certificate_that_a_column_beats_raises(monkeypatch):
    # Pricing that enters nothing once stops phase 1 at the artificial basis,
    # under whose ray a column is still worth more than 0: only the pricing
    # check of the certificate sees it.
    calls = []

    def none_first(entering, source, weights):
        calls.append(None)
        return None if len(calls) == 1 else entering(source, weights)
    faulty(monkeypatch, feasibility.ExplicitColumns, "entering", none_first)
    with pytest.raises(InternalConsistencyError, match="constructed certificate failed self-verification"):
        solve_nonnegative(*FEASIBLE)


def test_a_solution_that_misses_a_constraint_raises(monkeypatch):
    # Once the presolve is kept on the source, a column(j) handing back the
    # next column's rows reaches only the check of the primal vector.
    rows, rhs = FEASIBLE
    source = feasibility.ExplicitColumns(*sparse_columns(rows))
    assert solve_source(source, rhs).feasible

    def next_column(column, source, j):
        return column(source, (j + 1) % len(source))
    faulty(monkeypatch, feasibility.ExplicitColumns, "column", next_column)
    with pytest.raises(InternalConsistencyError, match="misses a constraint"):
        solve_source(source, rhs)
