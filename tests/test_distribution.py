"""Distributions and exact marginalization."""

from __future__ import annotations

from fractions import Fraction

import random

import pytest

from contextuality.catalog import random_deterministic_mixture, two_party_scenario
from contextuality.classifier import global_distribution
from contextuality.distribution import (
    Distribution,
    marginalize,
    point_mass,
    uniform,
)
from contextuality.errors import DomainError, WeightError
from contextuality.scenario import Scenario, Section, all_contexts, restrict, sections_over


@pytest.fixture
def pair_scenario() -> Scenario:
    return Scenario(("a", "b"), (("a", "b"),), ("0", "1"))


class TestDistributionInvariants:
    def test_weights_must_sum_to_one(self, pair_scenario):
        sections = sections_over(pair_scenario, ("a", "b"))
        weights = {s: Fraction(1, 5) for s in sections}
        with pytest.raises(WeightError, match="sum"):
            Distribution(pair_scenario, ("a", "b"), weights)

    def test_weights_must_be_total(self, pair_scenario):
        sections = sections_over(pair_scenario, ("a", "b"))
        weights = {sections[0]: Fraction(1)}
        with pytest.raises(WeightError, match="missing"):
            Distribution(pair_scenario, ("a", "b"), weights)

    def test_negative_weight_rejected(self, pair_scenario):
        sections = sections_over(pair_scenario, ("a", "b"))
        weights = {s: Fraction(1, 2) for s in sections}
        weights[sections[0]] = Fraction(-1, 2)
        weights[sections[1]] = Fraction(1, 2)
        with pytest.raises(WeightError, match="negative"):
            Distribution(pair_scenario, ("a", "b"), weights)

    def test_floats_rejected_at_the_boundary(self, pair_scenario):
        sections = sections_over(pair_scenario, ("a", "b"))
        weights = {s: 0.25 for s in sections}
        with pytest.raises(WeightError, match="float"):
            Distribution(pair_scenario, ("a", "b"), weights)

    def test_string_rationals_accepted(self, pair_scenario):
        sections = sections_over(pair_scenario, ("a", "b"))
        d = Distribution(pair_scenario, ("a", "b"), {s: "1/4" for s in sections})
        assert all(w == Fraction(1, 4) for w in d.weights.values())


class TestMarginalize:
    def test_identity_case(self, pair_scenario):
        d = uniform(pair_scenario, ("a", "b"))
        assert marginalize(d, ("a", "b")) is d

    def test_point_mass_marginalizes_to_restriction(self, pair_scenario):
        s = pair_scenario.section({"a": "1", "b": "0"})
        d = point_mass(pair_scenario, s)
        got = marginalize(d, ("a",))
        assert got == point_mass(pair_scenario, restrict(s, ("a",)))

    def test_uniform_pair_to_uniform_singleton(self, pair_scenario):
        # Hand sum over the two extensions of each singleton section:
        # each singleton section gathers 1/4 + 1/4 = 1/2.
        d = uniform(pair_scenario, ("a", "b"))
        got = marginalize(d, ("a",))
        for s in sections_over(pair_scenario, ("a",)):
            assert got.weight(s) == Fraction(1, 2)

    def test_functoriality(self):
        scenario = Scenario(("a", "b", "c"), (("a", "b", "c"),), ("0", "1"))
        d = uniform(scenario, ("a", "b", "c"))
        one_step = marginalize(d, ("a",))
        two_step = marginalize(marginalize(d, ("a", "b")), ("a",))
        assert one_step == two_step

    def test_non_subset_rejected(self, pair_scenario):
        d = uniform(pair_scenario, ("a",))
        with pytest.raises(DomainError):
            marginalize(d, ("b",))

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_denominators_match_the_restriction_sums(self, seed):
        # Weights over 2, 3, 6 and 7, and the remainder to one: the integer
        # sums over one lcm agree with adding each restriction's weight.
        scenario = Scenario(("a", "b", "c"), (("a", "b", "c"),), ("0", "1", "2"))
        full = sections_over(scenario, scenario.measurements)
        rng = random.Random(seed)
        shares, left = [], Fraction(1)
        while (share := rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1, 7)))) < left:
            shares.append(share)
            left -= share
        shares.append(left)
        support = dict(zip(rng.sample(full, len(shares)), shares))
        dist = Distribution(scenario, scenario.measurements, {s: support.get(s, 0) for s in full})
        for target in all_contexts(scenario):
            expected: dict = {}
            for section, w in support.items():
                key = restrict(section, target)
                expected[key] = expected.get(key, 0) + w
            got = marginalize(dist, target)
            assert got.context == target
            assert got.support == set(expected)
            assert all(got.weight(s) == expected.get(s, 0) for s in sections_over(scenario, target))

    @pytest.mark.parametrize("weights, total", [
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)), "41/42"),
        ((Fraction(1, 2), Fraction(2, 3)), "7/6"),
        ((Fraction(3, 7), Fraction(3, 7)), "6/7"),
    ])
    def test_a_support_names_its_exact_wrong_sum(self, pair_scenario, weights, total):
        support = dict(zip(sections_over(pair_scenario, ("a", "b")), weights))
        with pytest.raises(WeightError, match=f"^weights sum to {total}, expected exactly 1$"):
            Distribution._from_support(pair_scenario, ("a", "b"), support)


class TestSupportStorage:
    def test_solved_global_distribution_equals_the_dense_one(self):
        scenario = two_party_scenario()
        solved = global_distribution(random_deterministic_mixture(scenario, random.Random(5)))
        assert isinstance(solved, Distribution)
        dense = Distribution(scenario, scenario.measurements, dict(solved.weights))
        assert len(solved.support) < len(solved.weights) == len(scenario.global_sections())
        assert solved == dense
        assert list(solved.weights.items()) == list(dense.weights.items())
        assert repr(solved) == repr(dense)

    def test_weight_is_zero_off_the_support(self, pair_scenario):
        s = pair_scenario.section({"a": "1", "b": "0"})
        d = point_mass(pair_scenario, s)
        assert d.support == {s}
        assert [d.weight(t) for t in sections_over(pair_scenario, ("a", "b"))] == [0, 0, 1, 0]

    def test_weight_rejects_sections_not_over_the_context(self, pair_scenario):
        d = uniform(pair_scenario, ("a", "b"))
        with pytest.raises(DomainError):
            d.weight(pair_scenario.section({"a": "0"}))
        with pytest.raises(DomainError):
            d.weight(Section(("a", "b"), ("0", "2"), pair_scenario))

    def test_marginal_weights_stay_total_and_canonical(self, pair_scenario):
        d = point_mass(pair_scenario, pair_scenario.section({"a": "1", "b": "0"}))
        for target in (("a",), ("b",), ()):
            got = marginalize(d, target)
            assert list(got.weights) == list(sections_over(pair_scenario, target))
            assert sum(got.weights.values()) == 1
