"""Tier classification with verified witnesses."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from contextuality import classifier, feasibility
from contextuality.catalog import (
    bell_model,
    ghz_model,
    hardy_model,
    pr_box_model,
    random_deterministic_mixture,
    specker_triangle_model,
    two_party_scenario,
)
from contextuality.classifier import (
    GlobalDistributionCertificate,
    Tier,
    classify,
    consistent_global_sections,
    global_distribution,
    is_logically_contextual,
    is_strongly_contextual,
    verify_global_distribution,
)
from contextuality.distribution import Distribution, marginalize
from contextuality.errors import DomainError, InternalConsistencyError
from contextuality.feasibility import FeasibilityOutcome
from contextuality.model import EmpiricalModel, check_model, deterministic_model, mixture
from contextuality.scenario import Section, restrict

from conftest import noisy_cycle


class TestConsistentGlobalSections:
    def test_pr_box_has_none(self):
        assert consistent_global_sections(pr_box_model()) == ()

    def test_bell_support_sections_all_extend(self):
        model = bell_model()
        consistent = consistent_global_sections(model)
        assert consistent
        for context in model.scenario.maximal_contexts:
            reached = {g for g in consistent}
            from contextuality.scenario import restrict
            projected = {restrict(g, context) for g in consistent}
            assert model.support(context) <= projected

    def test_deterministic_model_has_exactly_its_point(self):
        scenario = two_party_scenario()
        g = scenario.section({"a": "0", "b": "1", "a'": "1", "b'": "0"})
        assert consistent_global_sections(deterministic_model(scenario, g)) == (g,)


class TestTierChecks:
    def test_strong_flags(self):
        assert is_strongly_contextual(pr_box_model())
        assert is_strongly_contextual(specker_triangle_model())
        assert is_strongly_contextual(ghz_model())
        assert not is_strongly_contextual(hardy_model())
        assert not is_strongly_contextual(bell_model())

    def test_hardy_logical_witness_is_the_correlated_edge(self):
        logical, witness = is_logically_contextual(hardy_model())
        assert logical
        scenario = hardy_model().scenario
        assert witness == scenario.section({"a": "0", "b": "0"})
        # the witness has positive table weight
        assert hardy_model().table(("a", "b")).weight(witness) > 0

    def test_bell_not_logical(self):
        logical, witness = is_logically_contextual(bell_model())
        assert not logical and witness is None

    def test_pr_box_logical_because_strong(self):
        logical, _ = is_logically_contextual(pr_box_model())
        assert logical


class TestGlobalDistribution:
    def test_bell_is_infeasible_with_verifying_certificate(self):
        result = global_distribution(bell_model())
        assert isinstance(result, GlobalDistributionCertificate)
        assert result.verify(bell_model())

    def test_deterministic_model_recovers_point_mass(self):
        scenario = two_party_scenario()
        g = scenario.section({"a": "0", "b": "1", "a'": "1", "b'": "0"})
        result = global_distribution(deterministic_model(scenario, g))
        assert isinstance(result, Distribution)
        assert result.weight(g) == 1

    def test_mixture_admits_the_mixing_distribution(self):
        scenario = two_party_scenario()
        g1 = scenario.section({"a": "0", "b": "0", "a'": "0", "b'": "0"})
        g2 = scenario.section({"a": "1", "b": "1", "a'": "1", "b'": "1"})
        model = mixture(
            [deterministic_model(scenario, g1), deterministic_model(scenario, g2)],
            [Fraction(1, 3), Fraction(2, 3)],
        )
        result = global_distribution(model)
        assert isinstance(result, Distribution)
        verify_global_distribution(model, result)
        # The mixing weights themselves solve the marginal system.
        mixing = {s: Fraction(0) for s in scenario.global_sections()}
        mixing[g1], mixing[g2] = Fraction(1, 3), Fraction(2, 3)
        candidate = Distribution(scenario, scenario.measurements, mixing)
        verify_global_distribution(model, candidate)


def moved(dist: Distribution, source: Section, target: Section, share: Fraction = Fraction(1)) -> Distribution:
    """``dist`` with ``share`` of the weight of ``source`` moved onto ``target``."""
    weights = dict(dist.weights)
    amount = share * weights[source]
    weights[source] -= amount
    weights[target] += amount
    return Distribution(dist.scenario, dist.context, weights)


class TestVerifyGlobalDistribution:
    def test_weight_moved_within_one_marginal_is_caught_in_another(self):
        # g1 and h agree on a, b and b', so the tables over (a, b) and (a, b')
        # keep their marginals; (b, a') is the first context that sees the move.
        scenario = two_party_scenario()
        g1 = scenario.section({"a": "0", "b": "0", "a'": "0", "b'": "0"})
        g2 = scenario.section({"a": "1", "b": "1", "a'": "1", "b'": "1"})
        h = scenario.section({"a": "0", "b": "0", "a'": "1", "b'": "0"})
        model = mixture([deterministic_model(scenario, g1), deterministic_model(scenario, g2)],
                        [Fraction(1, 3), Fraction(2, 3)])
        dist = global_distribution(model)
        tampered = moved(dist, g1, h)
        for context in (("a", "b"), ("a", "b'")):
            assert marginalize(tampered, context) == model.table(context)
        with pytest.raises(InternalConsistencyError, match=re.escape(repr(("b", "a'")))):
            verify_global_distribution(model, tampered)

    @pytest.mark.parametrize("n", [4, 6])
    def test_weight_moved_off_a_solved_distribution_is_caught(self, n):
        # h flips g's last measurement: the marginal over (x0, x1) holds and
        # the one over (x_{n-2}, x_{n-1}) moves.  Every table has full
        # support and g keeps half its weight, so every context's marginal
        # keeps its support and only the weights tell.
        model = noisy_cycle(n, Fraction(1, 8))
        dist = classify(model).global_distribution
        verify_global_distribution(model, dist)
        g = min(dist.support, key=lambda s: s.values)
        h = Section(g.domain, g.values[:-1] + ("1" if g.values[-1] == "0" else "0",), g.scenario)
        tampered = moved(dist, g, h, Fraction(1, 2))
        assert all(marginalize(tampered, c).support == model.table(c).support for c in model.scenario.maximal_contexts)
        assert marginalize(tampered, ("x0", "x1")) == model.table(("x0", "x1"))
        with pytest.raises(InternalConsistencyError, match="does not marginalize"):
            verify_global_distribution(model, tampered)

    def test_mixed_denominators_pass(self):
        # Weights 1/6, 1/6, 2/3; g1 and g2 share (a, b), which carries 1/3 there.
        scenario = two_party_scenario()
        sections = [scenario.section(dict(zip(scenario.measurements, values)))
                    for values in (("0", "0", "0", "0"), ("0", "0", "1", "1"), ("1", "1", "1", "1"))]
        shares = [Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)]
        model = mixture([deterministic_model(scenario, g) for g in sections], shares)
        assert model.table(("a", "b")).weight(restrict(sections[0], ("a", "b"))) == Fraction(1, 3)
        weights = {s: Fraction(0) for s in scenario.global_sections()}
        weights.update(zip(sections, shares))
        verify_global_distribution(model, Distribution(scenario, scenario.measurements, weights))
        verify_global_distribution(model, classify(model).global_distribution)

    @pytest.mark.parametrize("context", [("a'", "b'"), ("a", "b")])
    def test_a_distribution_over_a_maximal_context_is_a_domain_error(self, context):
        model = bell_model()
        with pytest.raises(DomainError):
            verify_global_distribution(model, model.table(context))

    def test_global_distribution_rechecks_the_solved_support(self, monkeypatch):
        # The solver's support swapped for column 0 alone at weight 1: a
        # feasible outcome that misses the noisy cycle's tables.
        model = noisy_cycle(4, Fraction(1, 8))
        monkeypatch.setattr(feasibility, "solve_source",
                            lambda source, rhs: FeasibilityOutcome(True, {0: Fraction(1)}, None))
        with pytest.raises(InternalConsistencyError, match="does not marginalize"):
            global_distribution(model)

    def test_classify_rechecks_each_distribution_once(self, monkeypatch):
        calls = []
        check = classifier.verify_global_distribution
        monkeypatch.setattr(classifier, "verify_global_distribution", lambda *args: calls.append(check(*args)))
        assert classify(noisy_cycle(6, Fraction(1, 8))).tier is Tier.NONCONTEXTUAL
        assert len(calls) == 1


class TestClassify:
    @pytest.mark.parametrize(
        "model,expected",
        [
            (pr_box_model, Tier.STRONG),
            (specker_triangle_model, Tier.STRONG),
            (ghz_model, Tier.STRONG),
            (hardy_model, Tier.LOGICAL),
            (bell_model, Tier.PROBABILISTIC),
        ],
        ids=["pr-box", "specker", "ghz", "hardy", "bell"],
    )
    def test_catalog_tiers(self, model, expected):
        assert classify(model()).tier is expected

    def test_hierarchy_is_monotone_on_catalog(self):
        for model in (pr_box_model(), specker_triangle_model(), ghz_model(), hardy_model(), bell_model()):
            strong = is_strongly_contextual(model)
            logical, _ = is_logically_contextual(model)
            probabilistic = not isinstance(global_distribution(model), Distribution)
            assert (not strong) or logical
            assert (not logical) or probabilistic

    def test_random_mixtures_are_noncontextual(self):
        rng = random.Random(11)
        for _ in range(10):
            model = random_deterministic_mixture(two_party_scenario(), rng)
            assert check_model(model).ok
            verdict = classify(model)
            assert verdict.tier is Tier.NONCONTEXTUAL
            verify_global_distribution(model, verdict.global_distribution)

    @pytest.mark.parametrize("make, reads", [
        (lambda: EmpiricalModel(bell_model().scenario, bell_model().tables), 22),
        (lambda: noisy_cycle(9, Fraction(1, 8)), 48),
    ], ids=["bell", "cycle-9"])
    def test_each_row_weight_is_read_once(self, make, reads, monkeypatch):
        # The support cover and the solve share one read of the rows' table
        # weights; only the certificate's own re-check reads its non-zero rows again.
        model, calls = make(), []
        weight = Distribution.weight

        def counting(self, section):
            calls.append(section)
            return weight(self, section)

        monkeypatch.setattr(Distribution, "weight", counting)
        verdict = classify(model)
        rows = len(verdict.certificate.rows)
        assert len(calls) == reads == rows + sum(1 for y in verdict.certificate.coefficients if y)
        classify(model)
        assert len(calls) == reads + reads - rows

    def test_classify_is_deterministic(self):
        a = classify(bell_model())
        b = classify(bell_model())
        assert a.certificate.coefficients == b.certificate.coefficients


class TestCycleFacet:
    """An odd n-cycle's noisy box is contextual exactly below the noise share 2/n.

    At p = 2/n the tables lie on the noncontextual facet, where the phase-1
    program is maximally degenerate.
    """

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("offset, expected", [
        (Fraction(-1, 64), Tier.PROBABILISTIC),
        (Fraction(0), Tier.NONCONTEXTUAL),
        (Fraction(1, 64), Tier.NONCONTEXTUAL),
    ], ids=["inside", "facet", "outside"])
    def test_tier_at_the_facet(self, n, offset, expected):
        model = noisy_cycle(n, Fraction(2, n) + offset)
        verdict = classify(model)
        assert verdict.tier is expected
        if expected is Tier.PROBABILISTIC:
            assert verdict.certificate.verify(model)
        else:
            verify_global_distribution(model, verdict.global_distribution)
