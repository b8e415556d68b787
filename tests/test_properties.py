"""Standalone property suites.

Sheaf laws for sections, functoriality of marginalization, the
intersection/duality/compatibility conditions on every constructed
representation, the excision facts on padded representations, and
monotonicity of the hierarchy on all inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contextuality.catalog import (
    catalog,
    random_deterministic_mixture,
    perturbed_model,
    triangle_scenario,
    two_party_scenario,
)
from contextuality.classifier import (
    classify,
    global_distribution,
    is_logically_contextual,
    is_strongly_contextual,
)
from contextuality.distribution import Distribution, marginalize, random_rational_weights
from contextuality.model import check_model, deterministic_model, mixture
from contextuality.scenario import Scenario, glue, restrict, sections_over
from contextuality.wps import excise, verify_rep


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


@st.composite
def scenarios(draw) -> Scenario:
    n = draw(st.integers(min_value=1, max_value=4))
    measurements = tuple(f"m{i}" for i in range(n))
    outcomes = tuple(str(o) for o in range(draw(st.integers(min_value=1, max_value=3))))
    count = draw(st.integers(min_value=1, max_value=3))
    subsets = []
    for _ in range(count):
        size = draw(st.integers(min_value=1, max_value=n))
        subsets.append(tuple(sorted(draw(st.permutations(measurements))[:size])))
    covered = {m for c in subsets for m in c}
    subsets += [(m,) for m in measurements if m not in covered]
    maximal = [c for c in subsets if not any(set(c) < set(d) for d in subsets)]
    return Scenario(measurements, maximal, outcomes)


@st.composite
def sections_in(draw, scenario: Scenario):
    size = draw(st.integers(min_value=0, max_value=len(scenario.measurements)))
    domain = draw(st.permutations(scenario.measurements))[:size]
    return scenario.section({m: draw(st.sampled_from(scenario.outcomes)) for m in domain})


@st.composite
def scenario_and_distribution(draw):
    scenario = draw(scenarios())
    domain = tuple(draw(st.permutations(scenario.measurements))[
        : draw(st.integers(min_value=0, max_value=len(scenario.measurements)))
    ])
    full = sections_over(scenario, domain)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    weights = dict(zip(full, random_rational_weights(rng, len(full))))
    return scenario, Distribution(scenario, domain, weights)


# ---------------------------------------------------------------------------
# Sheaf laws
# ---------------------------------------------------------------------------


class TestSheafLaws:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_restrict_to_singletons_then_glue_is_identity(self, data):
        scenario = data.draw(scenarios())
        section = data.draw(sections_in(scenario))
        if not section.domain:
            return
        pieces = [restrict(section, (m,)) for m in section.domain]
        assert glue(pieces) == section

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_glue_then_restrict_recovers_each_member(self, data):
        scenario = data.draw(scenarios())
        base = data.draw(sections_in(scenario))
        if not base.domain:
            return
        # A compatible family: restrictions of one section always agree.
        count = data.draw(st.integers(min_value=1, max_value=3))
        family = []
        for _ in range(count):
            size = data.draw(st.integers(min_value=1, max_value=len(base.domain)))
            sub = data.draw(st.permutations(base.domain))[:size]
            family.append(restrict(base, sub))
        glued = glue(family)
        for member in family:
            assert restrict(glued, member.domain) == member

    def test_gluing_a_cover_of_the_whole_domain_recovers_the_section(self):
        scenario = two_party_scenario()
        g = scenario.section({"a": "0", "b": "1", "a'": "1", "b'": "0"})
        family = [restrict(g, c) for c in scenario.maximal_contexts]
        assert glue(family) == g


class TestMarginalizationFunctoriality:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_two_steps_equal_one(self, data):
        scenario, dist = data.draw(scenario_and_distribution())
        domain = dist.context
        if len(domain) < 2:
            return
        mid_size = data.draw(st.integers(min_value=1, max_value=len(domain)))
        mid = tuple(data.draw(st.permutations(domain))[:mid_size])
        small_size = data.draw(st.integers(min_value=0, max_value=len(mid)))
        small = tuple(data.draw(st.permutations(mid))[:small_size])
        assert marginalize(marginalize(dist, mid), small) == marginalize(dist, small)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_weights_stay_normalized(self, data):
        scenario, dist = data.draw(scenario_and_distribution())
        sub_size = data.draw(st.integers(min_value=0, max_value=len(dist.context)))
        sub = tuple(data.draw(st.permutations(dist.context))[:sub_size])
        reduced = marginalize(dist, sub)
        assert sum(reduced.weights.values()) == 1


class TestGeneratorsAlwaysCompatible:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_deterministic_and_mixture_models_pass_check(self, data):
        scenario = data.draw(scenarios())
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
        sections = scenario.global_sections()
        components = [
            deterministic_model(scenario, rng.choice(sections))
            for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
        ]
        weights = random_rational_weights(rng, len(components))
        model = mixture(components, weights)
        assert check_model(model).ok


# ---------------------------------------------------------------------------
# Representation conditions on everything we construct
# ---------------------------------------------------------------------------


class TestRepresentationConditions:
    def test_all_catalog_reps_verify(self, catalog_reps):
        for name, rep in catalog_reps.items():
            verdict = verify_rep(rep)
            assert verdict.ok, f"{name}: {verdict}"

    def test_all_padded_reps_verify(self, padded_catalog_reps):
        for name, rep in padded_catalog_reps.items():
            verdict = verify_rep(rep)
            assert verdict.ok, f"{name}: {verdict}"
            assert not rep.combinatorial

    def test_excision_core_points_glue_to_a_global_image(self, catalog_reps, padded_catalog_reps):
        # Each core point lies in exactly one outcome event per measurement,
        # and the glued global section's image holds it.
        for name, rep in [*catalog_reps.items(), *padded_catalog_reps.items()]:
            scenario = rep.model.scenario
            core = excise(rep).z
            for i, label in enumerate(rep.points):
                point = 1 << i
                if not core & point:
                    continue
                locals_ = []
                for x in scenario.measurements:
                    holding = [s for s in sections_over(scenario, (x,)) if rep.event(s) & point]
                    assert len(holding) == 1, (name, label, x)
                    locals_.extend(holding)
                assert rep.event(glue(locals_)) & point, (name, label)

    def test_excision_core_facts_on_padded_reps(self, padded_catalog_reps):
        # The pointwise core facts are checked above; here we check the
        # padding bookkeeping and the measure-zero guarantee.
        for name, rep in padded_catalog_reps.items():
            report = excise(rep)
            assert report.d1 and report.d2, name
            assert "pad-overlap" not in rep.points_of(report.z)
            assert "pad-outcomeless" not in rep.points_of(report.z)
            for event in report.d1 | report.d2:
                assert rep.mu_of(event) == 0

    def test_excision_is_trivial_on_combinatorial_reps(self, catalog_reps):
        for name, rep in catalog_reps.items():
            report = excise(rep)
            assert report.z == rep.sample_space, name
            assert not report.d1 and not report.d2


class TestHierarchyMonotonicity:
    def test_on_catalog_models(self):
        for entry in catalog():
            self._assert_monotone(entry.model)

    def test_on_randomized_models(self):
        rng = random.Random(71)
        for i in range(15):
            scenario = two_party_scenario() if i % 2 else triangle_scenario()
            model = random_deterministic_mixture(scenario, rng)
            if i % 3 == 0:
                model = perturbed_model(model, rng)
            self._assert_monotone(model)

    @staticmethod
    def _assert_monotone(model):
        strong = is_strongly_contextual(model)
        logical, _ = is_logically_contextual(model)
        probabilistic = not isinstance(global_distribution(model), Distribution)
        assert (not strong) or logical
        assert (not logical) or probabilistic
        tier = classify(model).tier
        assert (tier.value == "Strong") == strong
        assert (tier.value == "Logical") == (logical and not strong)
        assert (tier.value == "Probabilistic") == (probabilistic and not logical)
