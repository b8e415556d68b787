"""The global-section system: one incidence shared by every global-section solve."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from contextuality import classifier, scenario as scenario_module
from contextuality.catalog import bell_model, catalog, random_deterministic_mixture
from contextuality.classifier import GlobalDistributionCertificate, classify, global_distribution
from contextuality.distribution import Distribution, marginalize, point_mass, random_rational_weights
from contextuality.errors import EnumerationCapError
from contextuality.model import EmpiricalModel
from contextuality.scenario import Scenario, all_contexts, global_section_system, restrict, sections_over
from contextuality.violations import additivity_violation
from contextuality.wps import build_combinatorial_rep

from conftest import noisy_cycle


def cycle_scenario(n: int) -> Scenario:
    names = [f"x{i}" for i in range(n)]
    return Scenario(names, [(names[i], names[(i + 1) % n]) for i in range(n)], ("0", "1"))


def mixture_model(scenario: Scenario, seed: int) -> EmpiricalModel:
    return random_deterministic_mixture(scenario, random.Random(seed))


THREE_OUTCOMES = Scenario(("a", "b", "c"), (("a", "b"), ("b", "c")), ("0", "1", "2"))
# Contexts of sizes 3, 2 and 1, each listed out of measurement order and the
# family out of canonical order; outcome labels out of sorted order.
MIXED_SIZES = Scenario(("e", "b", "d", "a", "c"), (("c", "a", "d"), ("d", "b"), ("e",)), ("1", "2", "0"))

MODELS = (
    [(entry.name, entry.model) for entry in catalog()]
    + [(f"cycle-{n}", mixture_model(cycle_scenario(n), n)) for n in range(3, 7)]
    + [("three-outcome", mixture_model(THREE_OUTCOMES, 0))]
    + [("mixed-sizes", mixture_model(MIXED_SIZES, 1))]
    + [("noisy-cycle-5", noisy_cycle(5, Fraction(1, 2)))]
)


def oracle_system(model: EmpiricalModel, rhs_of):
    """The dense system built directly by restricting every global section to every row."""
    scenario = model.scenario
    columns = scenario.global_sections()
    labels, matrix, rhs = [], [], []
    for context in scenario.maximal_contexts:
        for s in sections_over(scenario, context):
            labels.append((context, s))
            matrix.append([Fraction(1) if restrict(g, context) == s else Fraction(0) for g in columns])
            rhs.append(rhs_of(context, s))
    return columns, tuple(labels), matrix, rhs


def expand(columns, values, m: int) -> list:
    """The dense rows of sparse columns; a row listed twice in one column shows as a sum."""
    matrix = [[0] * len(columns) for _ in range(m)]
    for j, rows in enumerate(columns):
        for r, v in zip(rows, [1] * len(rows) if values is None else values[j]):
            matrix[r][j] += v
    return matrix


def recorded_solves(monkeypatch) -> list:
    """Record each sparse global-section solve as its expanded dense rows and right-hand side."""
    seen = []
    solve = classifier.solve_columns

    def recording(columns, rhs, values=None):
        seen.append((expand(columns, values, len(rhs)), list(rhs)))
        return solve(columns, rhs, values)
    monkeypatch.setattr(classifier, "solve_columns", recording)
    return seen


@pytest.mark.parametrize("name, model", MODELS, ids=[name for name, _ in MODELS])
class TestAgainstRestrictionOracle:
    def test_columns_and_rows_follow_enumeration_order(self, name, model):
        columns, labels, _, _ = oracle_system(model, lambda c, s: 0)
        system = global_section_system(model.scenario)
        assert system.columns == columns
        assert system.rows == labels

    def test_solver_receives_the_oracle_matrix(self, name, model, monkeypatch):
        seen = recorded_solves(monkeypatch)
        global_distribution(model)
        _, _, matrix, rhs = oracle_system(model, lambda c, s: model.table(c).weight(s))
        assert seen == [(matrix, rhs)]

    def test_marginalize_matches_restriction_sums(self, name, model):
        scenario = model.scenario
        columns = scenario.global_sections()
        weights = random_rational_weights(random.Random(len(columns)), len(columns))
        sources = [Distribution(scenario, scenario.measurements, dict(zip(columns, weights)))]
        sources += [model.table(c) for c in scenario.maximal_contexts]
        # Sparse inputs: a point mass, and a basic solution of the global-section system.
        sources.append(point_mass(scenario, columns[len(columns) // 2]))
        solved = global_distribution(model)
        if isinstance(solved, Distribution):
            sources.append(solved)
        for dist in sources:
            for target in all_contexts(scenario):
                if not set(target) <= set(dist.context):
                    continue
                sums = {s: Fraction(0) for s in sections_over(scenario, target)}
                for section, w in dist.weights.items():
                    sums[restrict(section, target)] += w
                got = marginalize(dist, tuple(reversed(target)))
                assert got.context == target
                assert list(got.weights.items()) == list(sums.items())

    def test_every_column_meets_one_row_per_context(self, name, model):
        scenario = model.scenario
        system = global_section_system(scenario)
        assert len(system.incidence) == len(system.columns)
        for rows in system.incidence:
            assert [system.rows[r][0] for r in rows] == list(scenario.maximal_contexts)


@pytest.mark.parametrize("name", [entry.name for entry in catalog()])
def test_additivity_solve_receives_the_oracle_matrix(name, catalog_reps, monkeypatch):
    rep = catalog_reps[name]
    seen = recorded_solves(monkeypatch)
    additivity_violation(rep)
    _, _, matrix, rhs = oracle_system(rep.model, lambda c, s: rep.mu_of(rep.event(s)))
    assert seen == [(matrix, rhs)]


def test_system_is_immutable_and_cached():
    scenario = cycle_scenario(4)
    system = global_section_system(scenario)
    assert all(isinstance(part, tuple) for part in system)
    assert all(isinstance(rows, tuple) for rows in system.incidence)
    assert global_section_system(cycle_scenario(4)) is system


def test_cap_is_checked_on_every_call():
    scenario = cycle_scenario(4)
    global_section_system(scenario)
    with pytest.raises(EnumerationCapError):
        global_section_system(scenario, cap=15)


def test_classify_never_restricts(monkeypatch):
    models = [entry.model for entry in catalog()] + [noisy_cycle(n, Fraction(1, 8)) for n in range(3, 9)]
    tiers = [classify(model).tier for model in models]

    def refuse(*args, **kwargs):
        raise AssertionError("restrict called on the classify path")
    for module in list(sys.modules.values()):
        if module.__name__.startswith("contextuality") and getattr(module, "restrict", None) is restrict:
            monkeypatch.setattr(module, "restrict", refuse)
    scenario_module._global_section_system.cache_clear()
    assert [classify(model).tier for model in models] == tiers


class TestCertificateTampering:
    @pytest.fixture
    def certificate(self) -> GlobalDistributionCertificate:
        certificate = global_distribution(bell_model())
        assert isinstance(certificate, GlobalDistributionCertificate)
        assert certificate.verify(bell_model())
        return certificate

    def test_dropped_row_fails(self, certificate):
        tampered = GlobalDistributionCertificate(certificate.rows[1:], certificate.coefficients[1:])
        assert tampered.verify(bell_model()) is False

    def test_duplicated_row_fails(self, certificate):
        tampered = GlobalDistributionCertificate(
            certificate.rows + certificate.rows[:1], certificate.coefficients + certificate.coefficients[:1])
        assert tampered.verify(bell_model()) is False

    def test_each_flipped_coefficient_fails(self, certificate):
        flippable = [i for i, coef in enumerate(certificate.coefficients) if coef != 0]
        assert flippable
        for i in flippable:
            coefficients = list(certificate.coefficients)
            coefficients[i] = -coefficients[i]
            tampered = GlobalDistributionCertificate(certificate.rows, tuple(coefficients))
            assert tampered.verify(bell_model()) is False

    def test_non_integer_coefficients_keep_the_verdict(self, certificate):
        # +t on one context's rows and -t on another's moves no column sum and
        # not the total, since each column and each table meets both once.
        first, second = certificate.rows[0][0], certificate.rows[-1][0]
        shift = {first: Fraction(1, 5), second: Fraction(-1, 5)}
        scaled = tuple(coef * Fraction(2, 3) + shift.get(context, 0)
                       for (context, _), coef in zip(certificate.rows, certificate.coefficients))
        assert len({coef.denominator for coef in scaled}) > 2
        assert GlobalDistributionCertificate(certificate.rows, scaled).verify(bell_model())
        for i in [i for i, coef in enumerate(scaled) if coef != 0]:
            coefficients = list(scaled)
            coefficients[i] = -coefficients[i]
            tampered = GlobalDistributionCertificate(certificate.rows, tuple(coefficients))
            assert tampered.verify(bell_model()) is False
