"""Construction and verification of sample-space representations."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contextuality import scenario as scenario_module
from contextuality.catalog import (
    bell_model,
    catalog,
    ghz_model,
    pr_box_model,
    specker_triangle_model,
)
from contextuality.distribution import Distribution
from contextuality.errors import DomainError, NotAnEventError, PaddingError
from contextuality.model import EmpiricalModel, deterministic_model
from contextuality.record import Failure
from contextuality.scenario import Scenario, Section, all_contexts, global_section_columns, restrict, sections_over
from conftest import noisy_cycle, patch_every_layer, standard_paddings
from test_global_sections import ONE_MEASUREMENT, ONE_OUTCOME, THREE_OUTCOME_CYCLE, THREE_OUTCOMES, mixture_model
from contextuality.wps import (
    PadPoint,
    WpsRepresentation,
    build_combinatorial_rep,
    build_padded_rep,
    excise,
    extend_event,
    verify_rep,
)


@pytest.fixture(scope="module")
def specker_rep():
    return build_combinatorial_rep(specker_triangle_model())


@pytest.fixture(scope="module")
def bell_rep():
    return build_combinatorial_rep(bell_model())


def d1_padding():
    # Lies in both outcome events of measurement a, one event elsewhere.
    return PadPoint("pad-contradictory", {
        "a": ("0", "1"), "b": ("0",), "a'": ("0",), "b'": ("0",),
    })


def d2_padding():
    # Outside every outcome event of measurement b, one event elsewhere.
    return PadPoint("pad-outcomeless", {
        "a": ("0",), "b": (), "a'": ("0",), "b'": ("0",),
    })


class TestCombinatorialConstruction:
    def test_specker_sample_space_has_eight_points(self, specker_rep):
        assert len(specker_rep.points) == 8

    def test_specker_outcome_event_is_a_face(self, specker_rep):
        scenario = specker_rep.model.scenario
        event = specker_rep.event(scenario.section({"c": "0"}))
        assert event.bit_count() == 4

    def test_bell_sample_space_has_sixteen_points(self, bell_rep):
        assert len(bell_rep.points) == 16

    def test_construction_verifies(self, specker_rep, bell_rep):
        assert verify_rep(specker_rep).ok
        assert verify_rep(bell_rep).ok

    def test_combinatorial_flag_set(self, specker_rep):
        assert specker_rep.combinatorial

    def test_deterministic_construction(self):
        a = build_combinatorial_rep(specker_triangle_model())
        b = build_combinatorial_rep(specker_triangle_model())
        assert a == b

    def test_alternative_point_order_still_verifies(self):
        rep = build_combinatorial_rep(bell_model(), point_order="reversed")
        assert verify_rep(rep).ok
        assert rep.points == tuple(reversed(build_combinatorial_rep(bell_model()).points))

    @pytest.mark.parametrize("order", ["random", bell_model().scenario.global_sections()], ids=["name", "sequence"])
    def test_point_order_is_canonical_or_reversed(self, order):
        with pytest.raises(DomainError, match="point_order must be 'canonical' or 'reversed'"):
            build_combinatorial_rep(bell_model(), point_order=order)

    def test_event_values_match_tables(self, bell_rep):
        scenario = bell_rep.model.scenario
        s = scenario.section({"a": "0", "b": "0"})
        assert bell_rep.mu_of(bell_rep.event(s)) == Fraction(1, 2)

    def test_catalog_transfer_holds_the_context_sections(self, bell_rep):
        assert len(bell_rep.transfer) == 25
        assert len(build_combinatorial_rep(ghz_model()).transfer) == 125

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_cycle_transfer_holds_the_context_sections(self, n):
        # The empty section, two per measurement and four per edge.
        assert len(build_combinatorial_rep(noisy_cycle(n, Fraction(1, 8))).transfer) == 6 * n + 1


def test_representations_enumerate_sections_over_contexts_only(monkeypatch):
    models = [entry.model for entry in catalog()] + [noisy_cycle(n, Fraction(1, 8)) for n in range(3, 9)] + [
        mixture_model(ONE_OUTCOME, 2)]

    def guarded_sections(scenario, measurements, *args, **kwargs):
        measurements = tuple(measurements)
        # The points are numbered, not listed: every domain must be a context.
        if not scenario.is_context(measurements):
            raise AssertionError(f"sections enumerated over the non-context domain {measurements!r}")
        return sections_over(scenario, measurements, *args, **kwargs)

    patch_every_layer(monkeypatch, "sections_over", sections_over, guarded_sections)
    assert scenario_module.sections_over is guarded_sections
    for model in models:
        assert verify_rep(build_combinatorial_rep(model)).ok
        assert verify_rep(build_padded_rep(model, standard_paddings(model.scenario))).ok


NUMBERED = (
    [(entry.name, entry.model) for entry in catalog()]
    + [(f"noisy-cycle-{n}", noisy_cycle(n, Fraction(1, 8))) for n in range(3, 10)]
    + [(name, mixture_model(scenario, 0)) for name, scenario in (
        ("three-outcome", THREE_OUTCOMES), ("three-outcome-cycle", THREE_OUTCOME_CYCLE),
        ("one-measurement", ONE_MEASUREMENT))]
)


def _check_numbering(rep, order):
    """Point i is column i's global section, or column |Y|-1-i's in reversed order; its label is its outcomes."""
    scenario = rep.model.scenario
    columns = global_section_columns(scenario)
    single = {(x, o): rep.event(scenario.section({x: o})) for x in scenario.measurements for o in scenario.outcomes}
    for i in range(len(columns)):
        g = columns.section(i if order == "canonical" else len(columns) - 1 - i)
        held = [[o for o in scenario.outcomes if single[(x, o)] >> i & 1] for x in scenario.measurements]
        assert held == [[o] for o in g.values], (order, i)
        assert rep.points[i] == ",".join(map(str, g.values))


@pytest.mark.parametrize("order", ["canonical", "reversed"])
@pytest.mark.parametrize("model", [model for _, model in NUMBERED], ids=[name for name, _ in NUMBERED])
def test_points_are_the_numbered_global_sections(model, order):
    _check_numbering(build_combinatorial_rep(model, point_order=order), order)


@pytest.mark.parametrize("order", ["canonical", "reversed"])
def test_padded_points_follow_the_numbered_global_sections(catalog_entries, order):
    for entry in catalog_entries.values():
        pads = standard_paddings(entry.model.scenario)
        rep = build_padded_rep(entry.model, pads, point_order=order)
        _check_numbering(rep, order)
        assert rep.points[-len(pads):] == tuple(pad.label for pad in pads)


def test_build_constructs_no_section_per_point(monkeypatch):
    # The points are numbered, not listed: the build makes the sections over
    # the contexts, and none of the 2^13 global sections.
    model = noisy_cycle(13, Fraction(1, 8))
    made = []
    init = Section.__init__

    def counting_init(self, *args):
        made.append(None)
        init(self, *args)

    monkeypatch.setattr(Section, "__init__", counting_init)
    build_combinatorial_rep(model)
    assert len(made) < 2 ** 13


class TestPaddedConstruction:
    def test_d1_padding_verifies_and_is_not_combinatorial(self):
        rep = build_padded_rep(bell_model(), [d1_padding()])
        assert not rep.combinatorial
        assert verify_rep(rep).ok
        scenario = rep.model.scenario
        e0 = rep.event(scenario.section({"a": "0"}))
        e1 = rep.event(scenario.section({"a": "1"}))
        assert "pad-contradictory" in rep.points_of(e0 & e1)

    def test_d2_padding_verifies(self):
        rep = build_padded_rep(bell_model(), [d2_padding()])
        assert verify_rep(rep).ok
        scenario = rep.model.scenario
        for s in sections_over(scenario, ("b",)):
            assert "pad-outcomeless" not in rep.points_of(rep.event(s))

    def test_empty_padding_equals_combinatorial_output(self, bell_rep):
        assert build_padded_rep(bell_model(), []) == bell_rep

    def test_global_section_mimic_rejected(self):
        pad = PadPoint("mimic", {"a": ("0",), "b": ("0",), "a'": ("0",), "b'": ("0",)})
        with pytest.raises(PaddingError, match="mimic"):
            build_padded_rep(bell_model(), [pad])

    def test_unknown_measurement_rejected(self):
        with pytest.raises(PaddingError, match="unknown measurement"):
            build_padded_rep(bell_model(), [PadPoint("p", {"zz": ("0",)})])

    def test_label_collision_rejected(self):
        taken = build_combinatorial_rep(bell_model()).points[0]
        with pytest.raises(PaddingError, match="collides"):
            build_padded_rep(bell_model(), [PadPoint(taken, {"a": ("0", "1")})])


def _with(rep, **changes):
    """A copy of a representation with some of its parts replaced."""
    parts = dict(model=rep.model, points=rep.points, transfer=rep.transfer,
                 sigma_algebras=rep.sigma_algebras, mu=rep.mu, combinatorial=rep.combinatorial)
    parts.update(changes)
    return WpsRepresentation(**parts)


A0B0 = {"a": "0", "b": "0"}
A0B1 = {"a": "0", "b": "1"}


def _section(rep, assignment):
    return rep.model.scenario.section(assignment)


def _set_image(rep, assignment, image):
    transfer = dict(rep.transfer)
    transfer[_section(rep, assignment)] = image
    return _with(rep, transfer=transfer)


def _drop_image(rep):
    transfer = dict(rep.transfer)
    del transfer[_section(rep, A0B0)]
    return _with(rep, transfer=transfer)


def _store_global_image(rep):
    g = rep.model.scenario.global_sections()[0]
    return _set_image(rep, dict(zip(g.domain, g.values)), rep.event(g))


def _shrink_empty_image(rep):
    return _set_image(rep, {}, rep.sample_space & ~rep.event_of([rep.points[0]]))


def _alias_images(rep):
    return _set_image(rep, A0B0, rep.event(_section(rep, A0B1)))


def _empty_image(rep):
    return _set_image(rep, A0B0, 0)


def _widen_image(rep):
    stray = rep.points_of(rep.event(_section(rep, A0B1)))[0]
    return _set_image(rep, A0B0, rep.event(_section(rep, A0B0)) | rep.event_of([stray]))


def _image_as_its_restriction(rep):
    # T(s) outside T(s|U): restriction duality fails, and the sheaf check catches it.
    return _set_image(rep, A0B0, rep.event(_section(rep, {"a": "0"})))


def _member_outside_sample_space(rep):
    context = ("a", "b")
    target = rep.event(_section(rep, A0B0))
    grown = target | 1 << len(rep.points)  # a point beyond the sample space
    algebras = dict(rep.sigma_algebras)
    algebras[context] = tuple(grown if e == target else e for e in algebras[context])
    return _with(rep, sigma_algebras=algebras, mu={**rep.mu, grown: rep.mu[target]})


def _whole_space_valued_two(rep):
    return _with(rep, mu={**rep.mu, rep.sample_space: Fraction(2)})


def _drop_algebra(rep):
    algebras = dict(rep.sigma_algebras)
    del algebras[("a", "b")]
    return _with(rep, sigma_algebras=algebras)


def _a_equals_b(rep):
    """The union of two section images over (a, b): a member of that algebra alone, and no image."""
    return rep.event(_section(rep, A0B0)) | rep.event(_section(rep, {"a": "1", "b": "1"}))


def _drop_member_value(rep):
    mu = dict(rep.mu)
    del mu[_a_equals_b(rep)]
    return _with(rep, mu=mu)


def _negative_member(rep):
    return _with(rep, mu={**rep.mu, _a_equals_b(rep): Fraction(-1, 8)})


def _empty_set_valued_eighth(rep):
    return _with(rep, mu={**rep.mu, 0: Fraction(1, 8)})


def _value_pad_overlap(rep):
    overlap = rep.event(_section(rep, {"a": "0"})) & rep.event(_section(rep, {"a": "1"}))
    assert rep.points_of(overlap) == ("pad-overlap",)
    return _with(rep, mu={**rep.mu, overlap: Fraction(1, 8)})


def _union_valued_off(rep):
    # Not the image of any section, so only additivity over the atoms sees it.
    union = rep.event(_section(rep, A0B0)) | rep.event(_section(rep, {"a": "1", "b": "1"}))
    return _with(rep, mu={**rep.mu, union: rep.mu[union] + Fraction(1, 8)})


def _padded_flagged_combinatorial(rep):
    return _with(rep, combinatorial=True)


def _signalling_model(rep):
    # Moving 1/8 from (0, 0) to (0, 1) keeps the a-marginal and shifts the b-marginal.
    scenario = rep.model.scenario
    context = ("a", "b")
    weights = dict(rep.model.table(context).weights)
    weights[_section(rep, A0B0)] -= Fraction(1, 8)
    weights[_section(rep, A0B1)] += Fraction(1, 8)
    tables = rep.model.tables
    tables[context] = Distribution(scenario, context, weights)
    return _with(rep, model=EmpiricalModel(scenario, tables))


class TestVerifyRepFailures:
    @pytest.mark.parametrize("condition, padded, tamper", [
        ("transfer-totality", False, _drop_image),
        ("transfer-totality", False, _store_global_image),
        ("empty-section-image", False, _shrink_empty_image),
        ("transfer-injectivity", False, _alias_images),
        ("nonempty-image", False, _empty_image),
        ("sheaf-intersection", False, _widen_image),
        ("sheaf-intersection", False, _image_as_its_restriction),
        ("wc-closure", False, _member_outside_sample_space),
        ("wc-measure", False, _whole_space_valued_two),
        ("wc-measure", False, _union_valued_off),
        ("me", True, _value_pad_overlap),
        ("model-compatibility", False, _signalling_model),
        ("flag-accuracy", True, _padded_flagged_combinatorial),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_tamper_trips_condition(self, condition, padded, tamper, bell_rep, padded_catalog_reps):
        rep = padded_catalog_reps["bell"] if padded else bell_rep
        assert verify_rep(rep).ok
        verdict = verify_rep(tamper(rep))
        assert not verdict.ok
        assert condition in {f.condition for f in verdict.failures}

    @pytest.mark.parametrize("condition, detail, tamper", [
        ("wc-closure", "no algebra stored for context ('a', 'b')", _drop_algebra),
        ("wc-measure", "no value stored for a member of the algebra over ('a', 'b')", _drop_member_value),
        ("wc-measure", "whole space valued 2", _whole_space_valued_two),
        ("wc-measure", "empty set has non-zero value", _empty_set_valued_eighth),
        ("wc-measure", "negative value -1/8", _negative_member),
    ], ids=lambda v: v.__name__ if callable(v) else None)
    def test_tamper_reports_its_detail(self, condition, detail, tamper, bell_rep):
        # Several branches share a condition name, so each row names its counterexample.
        assert Failure(condition, detail) in verify_rep(tamper(bell_rep)).failures

    @pytest.mark.parametrize("tamper", [_whole_space_valued_two, _empty_set_valued_eighth],
                             ids=lambda v: v.__name__)
    def test_whole_space_and_empty_set_reported_once(self, tamper, bell_rep):
        # Y and the empty set belong to all nine context algebras of bell.
        verdict = verify_rep(tamper(bell_rep))
        details = [f.detail for f in verdict.failures if f.detail.startswith(("whole space", "empty set"))]
        assert len(details) == 1

    def test_negative_value_reported_once(self, bell_rep):
        # The tampered member, the image of {a: 0}, lies in three context algebras of bell.
        rep = _with(bell_rep, mu={**bell_rep.mu, bell_rep.event(_section(bell_rep, {"a": "0"})): Fraction(-1, 8)})
        details = [f.detail for f in verify_rep(rep).failures if f.detail.startswith("negative value")]
        assert details == ["negative value -1/8"]

    def test_single_outcome_scenario_waives_injectivity(self):
        scenario = Scenario(("a", "b"), (("a", "b"),), ("0",))
        rep = build_combinatorial_rep(deterministic_model(scenario, scenario.global_sections()[0]))
        verdict = verify_rep(rep)
        assert verdict.ok and verdict.warnings == (Failure(
            "transfer-injectivity", "single-outcome scenario: every image is the whole space, injectivity is waived"),)

    def test_event_family_is_the_valued_events(self, bell_rep):
        member = _a_equals_b(bell_rep)
        assert member in bell_rep.sigma and bell_rep.in_sigma(member)
        tampered = _drop_member_value(bell_rep)
        assert member in tampered.sigma_algebras[("a", "b")]
        assert member not in tampered.sigma and not tampered.in_sigma(member)
        assert tampered.sigma == tampered.mu.keys() and len(tampered.sigma) == len(bell_rep.sigma) - 1

    def test_whole_space_valued_two_warns_out_of_range(self, bell_rep):
        verdict = verify_rep(_whole_space_valued_two(bell_rep))
        assert any(w.condition == "mu-range" for w in verdict.warnings)

    def test_perturbed_value_reports_empirical_consistency(self, bell_rep):
        scenario = bell_rep.model.scenario
        target = bell_rep.event(scenario.section({"a": "0", "b": "0"}))
        tampered_mu = dict(bell_rep.mu)
        tampered_mu[target] = tampered_mu[target] + Fraction(1, 100)
        tampered = WpsRepresentation(
            bell_rep.model, bell_rep.points, bell_rep.transfer,
            bell_rep.sigma_algebras, tampered_mu, bell_rep.combinatorial,
        )
        verdict = verify_rep(tampered)
        assert not verdict.ok
        assert any(f.condition == "ec" for f in verdict.failures)

    def test_missing_intersection_reports_closure(self, specker_rep):
        scenario = specker_rep.model.scenario
        context = ("a", "b")
        removed = specker_rep.event(scenario.section({"a": "0", "b": "0"}))
        algebras = dict(specker_rep.sigma_algebras)
        algebras[context] = tuple(e for e in algebras[context] if e != removed)
        tampered = WpsRepresentation(
            specker_rep.model, specker_rep.points, specker_rep.transfer,
            algebras, specker_rep.mu, specker_rep.combinatorial,
        )
        verdict = verify_rep(tampered)
        assert not verdict.ok
        assert any(f.condition == "wc-closure" for f in verdict.failures)

    def test_valued_event_outside_every_algebra_reports_closure(self, bell_rep):
        # Points 0 and 1 make up no member of any context algebra of bell, so a
        # value stored for them extends the event family past the algebras.
        stray = bell_rep.event_of(bell_rep.points[:2])
        assert stray == 0b11 and not any(stray in members for members in bell_rep.sigma_algebras.values())
        verdict = verify_rep(_with(bell_rep, mu={**bell_rep.mu, stray: Fraction(1, 16)}))
        assert [str(f) for f in verdict.failures] == ["[wc-closure] an event valued 1/16 lies in no context algebra"]

    def test_wrong_flag_reported(self, bell_rep):
        tampered = WpsRepresentation(
            bell_rep.model, bell_rep.points, bell_rep.transfer,
            bell_rep.sigma_algebras, bell_rep.mu, combinatorial=False,
        )
        verdict = verify_rep(tampered)
        assert any(f.condition == "flag-accuracy" for f in verdict.failures)


def _images_by_definition(rep, pads=()):
    """Each section's image as labels: the global sections restricting to it, then the pads joining it."""
    scenario = rep.model.scenario
    globals_ = scenario.global_sections()
    images = {}
    for size in range(len(scenario.measurements) + 1):
        for domain in itertools.combinations(scenario.measurements, size):
            for s in sections_over(scenario, domain):
                labels = [",".join(g.values) for g in globals_ if restrict(g, domain) == s]
                labels += [pad.label for pad in pads
                           if all(o in pad.memberships.get(x, ()) for x, o in zip(domain, s.values))]
                images[s] = tuple(labels)
    return images


class TestMasksAgainstTheDefinition:
    def _check(self, rep, pads=()):
        # Images are stored over the contexts only; every other one is read
        # through rep.event, and every one decodes back to its section.
        scenario = rep.model.scenario
        images = _images_by_definition(rep, pads)
        assert set(rep.transfer) == {s for c in all_contexts(scenario) for s in sections_over(scenario, c)}
        for s, labels in images.items():
            event = rep.event(s)
            assert rep.points_of(event) == labels, s
            assert rep.event_of(labels) == event
            assert rep.event_key(event) == tuple(rep.point_index(p) for p in labels)
            assert rep.section_of(event) == s

    def test_catalog_reps(self, catalog_reps):
        for rep in catalog_reps.values():
            self._check(rep)

    def test_padded_catalog_reps(self, padded_catalog_reps):
        for rep in padded_catalog_reps.values():
            self._check(rep, standard_paddings(rep.model.scenario))

    def test_padded_bell_reps(self):
        for pads in ([d1_padding()], [d2_padding()], [d1_padding(), d2_padding()]):
            self._check(build_padded_rep(bell_model(), pads), pads)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_noisy_cycles(self, n):
        self._check(build_combinatorial_rep(noisy_cycle(n, Fraction(1, 8))))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_canonical_order_is_the_event_key_order(self, catalog_reps, data):
        rep = catalog_reps[data.draw(st.sampled_from(sorted(catalog_reps)), label="model")]
        events = data.draw(st.lists(st.integers(0, rep.sample_space), max_size=40), label="events")
        events += [0, rep.sample_space]
        assert list(rep.sorted_events(events)) == sorted(set(events), key=rep.event_key)

    def test_canonical_order_of_every_event_of_a_small_space(self, specker_rep):
        every = range(specker_rep.sample_space + 1)
        assert list(specker_rep.sorted_events(every)) == sorted(every, key=specker_rep.event_key)

    def test_label_boundary_rejects_foreign_points(self, bell_rep):
        with pytest.raises(DomainError):
            bell_rep.event_of(["not-a-point"])
        with pytest.raises(DomainError):
            bell_rep.points_of(1 << len(bell_rep.points))
        with pytest.raises(DomainError):
            bell_rep.event_key(-1)


class TestExcision:
    def test_combinatorial_excision_is_trivial(self, bell_rep):
        report = excise(bell_rep)
        assert report.d1 == frozenset() and report.d2 == frozenset()
        assert report.z == bell_rep.sample_space

    def test_d1_pad_point_excluded_from_core(self):
        rep = build_padded_rep(bell_model(), [d1_padding()])
        report = excise(rep)
        assert report.d1 and "pad-contradictory" not in rep.points_of(report.z)

    def test_d2_pad_point_excluded_from_core(self):
        rep = build_padded_rep(bell_model(), [d2_padding()])
        report = excise(rep)
        assert report.d2 and "pad-outcomeless" not in rep.points_of(report.z)

    def test_excised_events_are_measure_zero(self):
        rep = build_padded_rep(bell_model(), [d1_padding(), d2_padding()])
        report = excise(rep)
        for event in report.d1 | report.d2:
            assert rep.mu_of(event) == 0


class TestExtendEvent:
    def test_identity(self, specker_rep):
        scenario = specker_rep.model.scenario
        s = scenario.section({"a": "0", "b": "0"})
        event = specker_rep.event(s)
        assert extend_event(specker_rep, event, ("a", "b")) == event

    def test_strict_superset_on_smaller_domain(self, specker_rep):
        scenario = specker_rep.model.scenario
        small = extend_event(specker_rep, specker_rep.event(scenario.section({"a": "0", "b": "0"})), ("a",))
        assert small == specker_rep.event(scenario.section({"a": "0"}))
        edge = specker_rep.event(scenario.section({"a": "0", "b": "0"}))
        assert small != edge and not edge & ~small

    def test_empty_target_gives_whole_space(self, specker_rep):
        scenario = specker_rep.model.scenario
        event = specker_rep.event(scenario.section({"a": "0", "b": "0"}))
        assert extend_event(specker_rep, event, ()) == specker_rep.sample_space

    def test_non_image_rejected(self, specker_rep):
        # No section image contains two points that differ on every measurement.
        bad = specker_rep.event_of([specker_rep.points[0], specker_rep.points[-1]])
        with pytest.raises(NotAnEventError):
            extend_event(specker_rep, bad, ())

    def test_non_subset_rejected(self, specker_rep):
        scenario = specker_rep.model.scenario
        event = specker_rep.event(scenario.section({"a": "0"}))
        with pytest.raises(DomainError):
            extend_event(specker_rep, event, ("b",))
