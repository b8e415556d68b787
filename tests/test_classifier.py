"""Tier classification with verified witnesses."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

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
from contextuality.distribution import Distribution
from contextuality.model import check_model, deterministic_model, mixture

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
