"""The global-section system: one incidence shared by every global-section solve."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contextuality import classifier, feasibility, scenario as scenario_module
from contextuality.catalog import bell_model, catalog, random_deterministic_mixture
from contextuality.classifier import (
    GlobalDistributionCertificate,
    Tier,
    classify,
    consistent_global_sections,
    global_distribution,
    is_logically_contextual,
    is_strongly_contextual,
)
from contextuality.distribution import Distribution, marginalize, point_mass, random_rational_weights, uniform
from contextuality.errors import DEFAULT_ENUMERATION_CAP, EnumerationCapError
from contextuality.model import EmpiricalModel
from contextuality.scenario import (
    Scenario,
    all_contexts,
    global_section_columns,
    restrict,
    sections_over,
)
from contextuality.violations import additivity_violation
from contextuality.wps import build_combinatorial_rep, build_padded_rep

from conftest import global_section_system, noisy_cycle, patch_every_layer


def cycle_scenario(n: int) -> Scenario:
    names = [f"x{i}" for i in range(n)]
    return Scenario(names, [(names[i], names[(i + 1) % n]) for i in range(n)], ("0", "1"))


def mixture_model(scenario: Scenario, seed: int) -> EmpiricalModel:
    return random_deterministic_mixture(scenario, random.Random(seed))


THREE_OUTCOMES = Scenario(("a", "b", "c"), (("a", "b"), ("b", "c")), ("0", "1", "2"))
# Contexts of sizes 3, 2 and 1, each listed out of measurement order and the
# family out of canonical order; outcome labels out of sorted order.
MIXED_SIZES = Scenario(("e", "b", "d", "a", "c"), (("c", "a", "d"), ("d", "b"), ("e",)), ("1", "2", "0"))
ONE_OUTCOME = Scenario(("a", "b", "c"), (("a", "b"), ("b", "c")), ("only",))

MODELS = (
    [(entry.name, entry.model) for entry in catalog()]
    + [(f"cycle-{n}", mixture_model(cycle_scenario(n), n)) for n in range(3, 7)]
    + [("three-outcome", mixture_model(THREE_OUTCOMES, 0))]
    + [("mixed-sizes", mixture_model(MIXED_SIZES, 1))]
    + [("one-outcome", mixture_model(ONE_OUTCOME, 2))]
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


def expand(source, m: int) -> list:
    """The dense rows of a column source, read column by column; a row listed twice in one column shows as a sum."""
    matrix = [[0] * len(source) for _ in range(m)]
    for j in range(len(source)):
        for r, v in zip(*source.column(j)):
            matrix[r][j] += v
    return matrix


def independent_rows(rows) -> list[int]:
    """The rows, in order, that are not combinations of the rows before them."""
    echelon, kept = [], []
    for i, row in enumerate(rows):
        cur = [Fraction(v) for v in row]
        for lead, prow in echelon:
            if cur[lead]:
                f = cur[lead] / prow[lead]
                cur = [x - f * y for x, y in zip(cur, prow)]
        lead = next((j for j, v in enumerate(cur) if v), None)
        if lead is not None:
            echelon.append((lead, cur))
            kept.append(i)
    return kept


def recorded_solves(monkeypatch) -> list:
    """Record each global-section solve as its source's expanded dense rows and right-hand side.

    Each recorded source's pricing and presolve rows are checked against
    those dense rows too: its maximum under seeded random integer row
    weights is the largest column sum, and its rows read at its spanning
    columns keep the same independent rows.
    """
    seen = []
    solve = feasibility.solve_source

    def recording(source, rhs):
        matrix = expand(source, len(rhs))
        rng = random.Random(len(rhs))
        for _ in range(5):
            weights = [rng.randint(-6, 3) for _ in rhs]
            assert source._eliminate(weights)[1] == max(sum(w * v for w, v in zip(weights, column))
                                                        for column in zip(*matrix))
        assert independent_rows(feasibility._spanned_rows(source, len(rhs))) == independent_rows(matrix)
        seen.append((matrix, list(rhs)))
        return solve(source, rhs)
    monkeypatch.setattr(feasibility, "solve_source", recording)
    return seen


@pytest.mark.parametrize("name, model", MODELS, ids=[name for name, _ in MODELS])
class TestAgainstRestrictionOracle:
    def test_columns_and_rows_follow_enumeration_order(self, name, model):
        columns, labels, _, _ = oracle_system(model, lambda c, s: 0)
        source = global_section_columns(model.scenario)
        assert tuple(source.section(j) for j in range(len(source))) == columns
        assert source.rows == labels

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
        source = global_section_columns(scenario)
        for j in range(len(source)):
            assert [source.rows[r][0] for r in source.column(j)[0]] == list(scenario.maximal_contexts)


@pytest.mark.parametrize("name", [entry.name for entry in catalog()])
def test_additivity_solve_receives_the_oracle_matrix(name, catalog_reps, monkeypatch):
    rep = catalog_reps[name]
    seen = recorded_solves(monkeypatch)
    additivity_violation(rep)
    _, _, matrix, rhs = oracle_system(rep.model, lambda c, s: rep.mu_of(rep.event(s)))
    assert seen == [(matrix, rhs)]


def test_cap_message_names_the_global_sections():
    model = noisy_cycle(4, Fraction(1, 8))
    message = "enumerating 16 global sections exceeds the cap of 15"
    with pytest.raises(EnumerationCapError, match=f"^{message}$"):
        consistent_global_sections(model, cap=15)
    # The certificate check refuses before reading its labels.
    with pytest.raises(EnumerationCapError, match=f"^{message}$"):
        GlobalDistributionCertificate((), ()).verify(model, cap=15)
    # Every path to the global-section solve checks it, the source built or not.
    global_section_columns(model.scenario)
    for solve in (global_distribution, classify):
        with pytest.raises(EnumerationCapError, match=f"^{message}$"):
            solve(model, cap=15)
    # The representation's points are the global sections, padded or not.
    for build in (build_combinatorial_rep, lambda model, cap: build_padded_rep(model, (), cap=cap)):
        with pytest.raises(EnumerationCapError, match=f"^{message}$"):
            build(model, cap=15)


# ---------------------------------------------------------------------------
# The global-section column source against enumeration
# ---------------------------------------------------------------------------

PRICED = [cycle_scenario(n) for n in range(3, 9)] + [
    next(entry.model.scenario for entry in catalog() if entry.name == "ghz"), THREE_OUTCOMES, MIXED_SIZES,
    ONE_OUTCOME]
PRICED_IDS = [f"cycle-{n}" for n in range(3, 9)] + ["ghz", "three-outcome", "mixed-sizes", "one-outcome"]


@pytest.mark.parametrize("scenario", PRICED, ids=PRICED_IDS)
def test_source_columns_are_the_incidence(scenario):
    system = global_section_system(scenario)
    source = global_section_columns(scenario)
    assert len(source) == len(system.columns)
    assert [tuple(source.column(j)[0]) for j in range(len(source))] == list(system.incidence)
    assert all(set(source.column(j)[1]) == {1} for j in range(len(source)))
    assert [source.section(j) for j in range(len(source))] == list(system.columns)
    assert global_section_columns(scenario) is source


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_oracle_pricing_matches_enumeration(data):
    scenario = data.draw(st.sampled_from(PRICED), label="scenario")
    system = global_section_system(scenario)
    low = data.draw(st.integers(-8, 0), label="low")
    weights = data.draw(st.lists(st.integers(low, 3), min_size=len(system.rows), max_size=len(system.rows)),
                        label="weights")
    costs = [sum(weights[r] for r in rows) for rows in system.incidence]
    best = max(costs)
    source = global_section_columns(scenario)
    assert source._eliminate(weights)[1] == best
    if best <= 0:
        assert source.entering(weights) is None
        return
    # The entering column, its value and, handed back with them, its rows and entries.
    j = costs.index(best)
    found = source.entering(weights)
    assert found == (j, costs[j], *source.column(j))
    assert tuple(found[2]) == system.incidence[j]
    assert set(found[3]) == {1}


THREE_OUTCOME_CYCLE = Scenario(("w", "x", "y", "z"), (("w", "x"), ("x", "y"), ("y", "z"), ("w", "z")), ("0", "1", "2"))
BEYOND_BINARY = [THREE_OUTCOMES, ONE_OUTCOME, MIXED_SIZES, THREE_OUTCOME_CYCLE]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_oracle_maximum_and_columns_match_enumeration_beyond_binary_cycles(data):
    # The flat plan's three-outcome and one-outcome maxima, its uneven scopes
    # and, on the three-outcome 4-cycle, its two-factor three-outcome buckets.
    scenario = data.draw(st.sampled_from(BEYOND_BINARY), label="scenario")
    system = global_section_system(scenario)
    source = global_section_columns(scenario)
    weights = data.draw(st.lists(st.integers(-8, 3), min_size=len(system.rows), max_size=len(system.rows)),
                        label="weights")
    costs = [sum(weights[r] for r in rows) for rows in system.incidence]
    assert source._eliminate(weights)[1] == max(costs)
    j = data.draw(st.integers(0, len(source) - 1), label="column")
    assert tuple(source.column(j)[0]) == system.incidence[j]
    found = source.entering(weights)
    if found is not None:
        assert tuple(found[2]) == tuple(source.column(found[0])[0]) == system.incidence[found[0]]
        assert found[1] == costs[found[0]] > 0


ONE_MEASUREMENT = Scenario(("m",), (("m",),), ("0", "1", "2"))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_certificate_max_sum_matches_enumeration(data):
    # The certificate check's own elimination, first measurement first, against every column sum.
    scenario = data.draw(st.sampled_from(PRICED + [ONE_MEASUREMENT]), label="scenario")
    system = global_section_system(scenario)
    weights = data.draw(st.lists(st.integers(-9, 9), min_size=len(system.rows), max_size=len(system.rows)),
                        label="weights")
    tables = {}
    for (c, s), w in zip(system.rows, weights):
        tables.setdefault(c, {})[s.values] = w
    best = max(sum(weights[r] for r in rows) for rows in system.incidence)
    assert classifier._largest_column_sum(scenario, tables) == best


@st.composite
def scenarios(draw) -> Scenario:
    """1-4 measurements, 1-3 outcomes and a random antichain of contexts covering the measurements."""
    n = draw(st.integers(1, 4), label="measurements")
    subsets = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=5),
                   label="subsets")
    subsets += [frozenset({i}) for i in range(n) if not any(i in s for s in subsets)]
    names = [f"m{i}" for i in range(n)]
    contexts = {s for s in subsets if not any(s < t for t in subsets)}
    outcomes = tuple(map(str, range(draw(st.integers(1, 3), label="outcomes"))))
    return Scenario(names, [[names[i] for i in sorted(c)] for c in contexts], outcomes)


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_spanning_columns_keep_the_presolve_of_the_dense_rows(scenario):
    # The same independent rows and, up to sign, the same vanishing
    # combinations as the presolve over all |O|^n columns.
    source = scenario_module.GlobalSectionColumns(scenario)
    m = len(source.rows)
    independent, dependent = feasibility._presolve(feasibility._spanned_rows(source, m))
    dense_independent, dense_dependent = feasibility._presolve(expand(source, m))

    def unsigned(combination):
        return max(combination, [-v for v in combination])
    assert independent == dense_independent
    assert list(map(unsigned, dependent)) == list(map(unsigned, dense_dependent))


# ---------------------------------------------------------------------------
# The strong and logical tiers against enumeration
# ---------------------------------------------------------------------------


def support_model(scenario: Scenario, rng: random.Random, share: float) -> EmpiricalModel:
    """Uniform weight on a seeded random non-empty subset of each context's sections."""
    tables = {}
    for context in scenario.maximal_contexts:
        sections = sections_over(scenario, context)
        chosen = [s for s in sections if rng.random() < share] or [rng.choice(sections)]
        tables[context] = Distribution(scenario, context,
                                       {s: Fraction(s in chosen, len(chosen)) for s in sections})
    return EmpiricalModel(scenario, tables)


def enumerated_support_tiers(model: EmpiricalModel) -> tuple[bool, tuple[bool, object]]:
    """The strong flag and the logical verdict, read off every global section."""
    system = global_section_system(model.scenario)
    positive = [model.table(c).weight(s) > 0 for c, s in system.rows]
    reached = {r for rows in system.incidence if all(positive[r] for r in rows) for r in rows}
    witness = next((s for r, (_, s) in enumerate(system.rows) if positive[r] and r not in reached), None)
    return not consistent_global_sections(model), (witness is not None, witness)


@pytest.mark.parametrize("scenario", PRICED, ids=PRICED_IDS)
def test_support_cover_matches_enumeration_on_random_supports(scenario):
    rng = random.Random(len(scenario.measurements) * 31 + len(scenario.outcomes))
    seen = set()
    for share in (0.3, 0.5, 0.7, 0.9) * 6:
        model = support_model(scenario, rng, share)
        expected = enumerated_support_tiers(model)
        assert (is_strongly_contextual(model), is_logically_contextual(model)) == expected
        seen.add((expected[0], expected[1][0]))
    if len(scenario.outcomes) > 1:
        assert {(False, True), (False, False)} <= seen


@pytest.mark.parametrize("model", [model for _, model in MODELS] + [noisy_cycle(n, Fraction(1, 8))
                                                                   for n in range(3, 9)],
                         ids=[name for name, _ in MODELS] + [f"noisy-cycle-{n}" for n in range(3, 9)])
def test_support_cover_matches_enumeration_on_the_pools(model):
    assert (is_strongly_contextual(model), is_logically_contextual(model)) == enumerated_support_tiers(model)


def uniform_model(scenario: Scenario) -> EmpiricalModel:
    return EmpiricalModel(scenario, {c: uniform(scenario, c) for c in scenario.maximal_contexts})


FULL_SUPPORT = [(f"noisy-cycle-{n}", noisy_cycle(n, Fraction(1, 8))) for n in range(3, 9)] + [
    ("one-outcome", mixture_model(ONE_OUTCOME, 2)), ("uniform-ghz", uniform_model(PRICED[PRICED_IDS.index("ghz")]))]


@pytest.mark.parametrize("name, model", FULL_SUPPORT, ids=[name for name, _ in FULL_SUPPORT])
def test_full_support_is_read_without_the_oracle(name, model, monkeypatch):
    source = global_section_columns(model.scenario)
    assert all(model.table(c).weight(s) for c, s in source.rows)
    expected = enumerated_support_tiers(model)
    assert expected == (False, (False, None))

    def refuse(*args, **kwargs):
        raise AssertionError("the support cover asked the oracle under full support")
    monkeypatch.setattr(scenario_module.GlobalSectionColumns, "entering", refuse)
    assert classifier._support_cover(model, DEFAULT_ENUMERATION_CAP) == (False, None)
    assert (is_strongly_contextual(model), is_logically_contextual(model)) == expected


@pytest.mark.parametrize("scenario", [ONE_OUTCOME, Scenario(("m",), (("m",),), ("only",))],
                         ids=["two-contexts", "one-measurement"])
def test_one_outcome_model_is_noncontextual(scenario):
    model = mixture_model(scenario, 0)
    assert classify(model).tier is Tier.NONCONTEXTUAL
    solved = global_distribution(model)
    assert isinstance(solved, Distribution)
    assert list(solved.weights.values()) == [1]


def test_classify_never_prices_explicit_columns(monkeypatch):
    models = [entry.model for entry in catalog()] + [noisy_cycle(n, Fraction(1, 8)) for n in range(3, 9)]
    tiers = [classify(model).tier for model in models]

    def refuse(*args, **kwargs):
        raise AssertionError("explicit-column pricing reached on the classify path")
    monkeypatch.setattr(feasibility.ExplicitColumns, "entering", refuse)
    scenario_module.global_section_columns.cache_clear()
    assert [classify(model).tier for model in models] == tiers
    assert {Tier.PROBABILISTIC, Tier.NONCONTEXTUAL} <= set(tiers)


def test_classify_never_restricts(monkeypatch):
    models = [entry.model for entry in catalog()] + [noisy_cycle(n, Fraction(1, 8)) for n in range(3, 9)]
    tiers = [classify(model).tier for model in models]

    def refuse(*args, **kwargs):
        raise AssertionError("restrict called on the classify path")
    patch_every_layer(monkeypatch, "restrict", restrict, refuse)
    scenario_module.global_section_columns.cache_clear()
    assert [classify(model).tier for model in models] == tiers


def test_classify_materialises_no_global_section(monkeypatch):
    # The noisy 19-cycle at 1/16 is Probabilistic: its certificate is checked without enumeration too.
    models = [entry.model for entry in catalog()] + [noisy_cycle(n, Fraction(1, 8)) for n in (*range(3, 9), 12)]
    models.append(noisy_cycle(19, Fraction(1, 16)))
    verdicts = [classify(model) for model in models]
    assert verdicts[-1].tier is Tier.PROBABILISTIC
    sections = sections_over

    def guarded_sections(scenario, measurements, *args, **kwargs):
        measurements = tuple(measurements)
        if set(measurements) == set(scenario.measurements):
            raise AssertionError("global sections enumerated on the classify path")
        return sections(scenario, measurements, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("global sections listed on the classify path")

    scenario_module.global_section_columns.cache_clear()
    monkeypatch.setattr(classifier, "consistent_global_sections", refuse)
    patch_every_layer(monkeypatch, "sections_over", sections, guarded_sections)
    again = [classify(model) for model in models]
    assert [v.tier for v in again] == [v.tier for v in verdicts]
    assert [v.logical_witness for v in again] == [v.logical_witness for v in verdicts]
    assert [v.certificate for v in again] == [v.certificate for v in verdicts]
    assert [v.global_distribution for v in again] == [v.global_distribution for v in verdicts]
    assert {v.tier for v in verdicts} == set(Tier)


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

    def test_extra_coefficient_fails(self, certificate):
        for extra in (Fraction(0), Fraction(-1)):
            tampered = GlobalDistributionCertificate(certificate.rows, certificate.coefficients + (extra,))
            assert tampered.verify(bell_model()) is False

    def test_missing_coefficient_fails(self, certificate):
        tampered = GlobalDistributionCertificate(certificate.rows, certificate.coefficients[:-1])
        assert tampered.verify(bell_model()) is False

    def test_coefficient_raised_past_a_column_fails(self, certificate):
        # Raising row r's coefficient by the least slack -Σ y of a column through r
        # keeps yᵀA <= 0; any more turns that column's sum positive.
        system = global_section_system(bell_model().scenario)
        weight_of = dict(zip(certificate.rows, certificate.coefficients))
        y = [weight_of[label] for label in system.rows]
        sums = [sum(y[r] for r in rows) for rows in system.incidence]
        for r, label in enumerate(system.rows):
            slack = min(-total for total, rows in zip(sums, system.incidence) if r in rows)
            for raise_by, holds in ((slack, True), (slack + Fraction(1, 1000), False)):
                raised = {**weight_of, label: weight_of[label] + raise_by}
                tampered = GlobalDistributionCertificate(tuple(raised), tuple(raised.values()))
                column_sums = [sum(raised[system.rows[k]] for k in rows) for rows in system.incidence]
                assert (max(column_sums) <= 0) is holds
                assert tampered.verify(bell_model()) is holds

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
