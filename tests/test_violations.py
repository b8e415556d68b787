"""Defects, violation witnesses, and classical extensions."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from contextuality import extensions
from contextuality.catalog import (
    bell_model,
    catalog,
    hardy_model,
    perturbed_model,
    pr_box_model,
    random_deterministic_mixture,
    specker_triangle_model,
    two_party_scenario,
)
from contextuality.classifier import Tier, TierVerdict, classify
from contextuality.cli import main
from contextuality.errors import (
    NonCombinatorialError,
    NotAnEventError,
    NotAnExtensionError,
    TierMismatchError,
    UnionNotEvaluableError,
)
from contextuality.extensions import (
    CoverExtension,
    EnvelopeExtension,
    ExplicitExtension,
    PointMeasureExtension,
    _MinCoverSolver,
    _cover_pool,
    canonical_monotone_extension,
    cheapest_cover_of_space,
    sample_monotone_extensions,
)
from contextuality.quantum import experiment_from_dict, experiment_to_dict, quantum_to_empirical, singlet_experiment
from contextuality.record import Failure
from contextuality.scenario import GlobalSectionColumns, global_section_columns, restrict, sections_over
from contextuality.serialize import dumps, model_to_dict
from contextuality.violations import (
    AdditiveCover,
    ExtensionVerdict,
    MarginalizationFailure,
    ViolationKind,
    ViolationWitness,
    additivity_violation,
    core_parts,
    defect,
    has_classical_extension,
    logical_subadditivity_violation,
    marginalization_failure,
    strong_subadditivity_violation,
    subadditivity_violation_by_cover,
    tier_violation_witness,
    verify_extension,
    verify_witness,
    witness_from_verdict,
)
from contextuality.wps import (
    PadPoint,
    WpsRepresentation,
    _indices,
    build_combinatorial_rep,
    build_padded_rep,
    excise,
    verify_rep,
)
from conftest import noisy_cycle, standard_paddings, with_twin_of_point_0


@pytest.fixture(scope="module")
def pr_rep():
    return build_combinatorial_rep(pr_box_model())


@pytest.fixture(scope="module")
def bell_rep():
    return build_combinatorial_rep(bell_model())


@pytest.fixture(scope="module")
def hardy_rep():
    return build_combinatorial_rep(hardy_model())


@pytest.fixture(scope="module")
def noncontextual_rep():
    rng = random.Random(3)
    return build_combinatorial_rep(random_deterministic_mixture(two_party_scenario(), rng))


def cheapest_superset(pool, event):
    """The least weight among the pool sets holding the event, walked set by set; None if none does."""
    return min((weight for candidate, weight in pool if not event & ~candidate), default=None)


@pytest.fixture(scope="module")
def envelope_reps(catalog_reps, padded_catalog_reps):
    """Each catalog representation canonical, reversed and padded, and the noisy 5- to 9-cycles,
    with each family member's cheapest superset in the family."""
    reps = {}
    for name, rep in catalog_reps.items():
        reps[name] = rep
        reps[f"reversed:{name}"] = build_combinatorial_rep(rep.model, point_order="reversed")
        reps[f"padded:{name}"] = padded_catalog_reps[name]
    for n in range(5, 10):
        reps[f"cycle{n}"] = build_combinatorial_rep(noisy_cycle(n, Fraction(1, 8)))
    return {name: (rep, {event: cheapest_superset(rep.mu.items(), event) for event in rep.sigma})
            for name, rep in reps.items()}


def null_context_events(rep):
    return [e for e in rep.maximal_context_events() if rep.mu_of(e) == 0]


class StoredValues:
    """A functional candidate: the stored value on family members, a default elsewhere."""

    def __init__(self, rep, default):
        self.rep = rep
        self.default = Fraction(default)

    def domain(self):
        return None

    def value(self, event):
        return self.rep.mu.get(event, self.default)


class TestDefect:
    def test_empty_collection(self, bell_rep):
        assert defect(bell_rep, []) == 0

    def test_pr_box_null_cover_defect_is_one(self, pr_rep):
        nulls = null_context_events(pr_rep)
        assert len(nulls) == 8
        assert defect(pr_rep, nulls) == 1

    def test_additive_cover_defect_is_zero(self, bell_rep):
        scenario = bell_rep.model.scenario
        cover = AdditiveCover(bell_rep, [bell_rep.event(s) for s in sections_over(scenario, ("a", "b"))])
        assert defect(bell_rep, cover.events) == 0

    def test_member_outside_family_rejected(self, bell_rep):
        odd = bell_rep.event_of([bell_rep.points[0], bell_rep.points[-1]])
        with pytest.raises(NotAnEventError):
            defect(bell_rep, [odd])

    def test_unevaluable_union_rejected(self, bell_rep):
        scenario = bell_rep.model.scenario
        pieces = [
            bell_rep.event(scenario.section({"a": "0", "b": "0"})),
            bell_rep.event(scenario.section({"a'": "0", "b'": "1"})),
        ]
        with pytest.raises(UnionNotEvaluableError):
            defect(bell_rep, pieces)


class TestTierWitnesses:
    def test_strong_witness_on_pr_box(self, pr_rep):
        w = tier_violation_witness(pr_rep, Tier.STRONG)
        assert w.kind is ViolationKind.MAXIMAL_SUBADDITIVITY
        assert w.defect == 1
        assert verify_witness(pr_rep, w)

    def test_strong_witness_on_padded_pr_box(self):
        pads = [
            PadPoint("pad-d1", {"a": ("0", "1"), "b": ("0",), "a'": ("0",), "b'": ("0",)}),
            PadPoint("pad-d2", {"a": ("0",), "b": (), "a'": ("0",), "b'": ("0",)}),
        ]
        rep = build_padded_rep(pr_box_model(), pads)
        w = tier_violation_witness(rep, Tier.STRONG)
        assert w.defect == 1
        assert verify_witness(rep, w)

    def test_logical_witness_on_hardy(self, hardy_rep):
        w = tier_violation_witness(hardy_rep, Tier.LOGICAL)
        assert w.kind is ViolationKind.SUBADDITIVITY
        assert w.defect == Fraction(1, 8)  # weight of the non-extendable edge
        assert verify_witness(hardy_rep, w)

    def test_probabilistic_witness_on_bell(self, bell_rep):
        w = tier_violation_witness(bell_rep, Tier.PROBABILISTIC)
        assert w.kind is ViolationKind.MONOTONIC_ADDITIVITY
        assert w.defect != 0
        assert w.support_data.certificate is not None
        assert verify_witness(bell_rep, w)

    def test_tier_mismatch_rejected(self, bell_rep):
        with pytest.raises(TierMismatchError):
            tier_violation_witness(bell_rep, Tier.STRONG)

    def test_strong_model_supports_lower_tier_witnesses(self, pr_rep):
        w = tier_violation_witness(pr_rep, Tier.LOGICAL)
        assert w.defect > 0
        assert verify_witness(pr_rep, w)

    def test_tier_witnesses_equal_the_maximal_context_witnesses(self, catalog_entries):
        # The tier side decides on the model, the violation side on the
        # representation; both build the same witness.
        rng = random.Random(17)
        models = [entry.model for entry in catalog_entries.values()]
        models += [perturbed_model(model, rng, magnitude=Fraction(1, 8)) for model in models]
        graded = set()
        for model in models:
            rep = build_combinatorial_rep(model)
            tier = classify(model).tier
            strong, strong_witness = strong_subadditivity_violation(rep)
            logical, logical_witness = logical_subadditivity_violation(rep)
            assert strong == (tier is Tier.STRONG)
            assert logical == (tier in (Tier.STRONG, Tier.LOGICAL))
            if strong:
                assert tier_violation_witness(rep, Tier.STRONG) == strong_witness
            if logical:
                assert tier_violation_witness(rep, Tier.LOGICAL) == logical_witness
            graded.add(tier)
        assert {Tier.STRONG, Tier.LOGICAL, Tier.PROBABILISTIC} <= graded

    def test_the_verdict_witness_is_the_tier_witness(self, catalog_reps, padded_catalog_reps):
        # classify's verdict carries the evidence that the tier's own question
        # would find again, so both entry points build one witness.
        pool = [*catalog_reps.values(), *padded_catalog_reps.values()]
        for rep in pool:
            verdict = classify(rep.model)
            witness = witness_from_verdict(rep, verdict)
            assert witness == tier_violation_witness(rep, verdict.tier), rep
            assert verify_witness(rep, witness), rep
        with pytest.raises(TierMismatchError):
            witness_from_verdict(pool[0], TierVerdict(Tier.NONCONTEXTUAL))

    @pytest.mark.parametrize("tier", [Tier.STRONG, Tier.LOGICAL])
    def test_padded_tier_witnesses_hold_the_excised_events(self, padded_catalog_reps, tier):
        built = 0
        for rep in padded_catalog_reps.values():
            try:
                witness = tier_violation_witness(rep, tier)
            except TierMismatchError:
                continue
            report = excise(rep)
            assert report.d1 | report.d2
            assert report.d1 | report.d2 <= set(witness.collection)
            assert verify_witness(rep, witness)
            built += 1
        assert built >= 2


class TestEnvelopeWitnesses:
    """Every monotonic additivity witness names the envelope's failure; no cover search runs."""

    @pytest.mark.parametrize("name", ["bell", "singlet", "cycle5", "cycle7", "cycle9"])
    def test_no_cover_search_behind_an_additivity_witness(self, name, monkeypatch, tmp_path, capsys):
        def refuse(self, *args, **kwargs):
            raise RuntimeError("the cheapest-cover search ran")

        monkeypatch.setattr(CoverExtension, "__init__", refuse)
        path = tmp_path / f"{name}.json"
        if name == "singlet":
            document = experiment_to_dict(singlet_experiment())
            model = quantum_to_empirical(experiment_from_dict(document))
        else:
            model = bell_model() if name == "bell" else noisy_cycle(int(name[5:]), Fraction(1, 8))
            document = model_to_dict(model)
        path.write_text(dumps(document))
        rep = build_combinatorial_rep(model)
        witness = tier_violation_witness(rep, Tier.PROBABILISTIC)
        assert witness.support_data.extension_kind == EnvelopeExtension.kind
        assert additivity_violation(rep) == (True, witness)
        assert verify_witness(rep, witness)
        out = tmp_path / "witness.json"
        assert main(["witness", str(path), "--format", "structured", "--out", str(out)]) == 0
        assert main(["verify", str(path), "--file", str(out)]) == 0
        assert "witness verified" in capsys.readouterr().out

    @staticmethod
    def four_reps(model):
        """The canonical, reversed, padded and twin-point representations of a model."""
        reps = [build_combinatorial_rep(model), build_combinatorial_rep(model, point_order="reversed"),
                build_padded_rep(model, standard_paddings(model.scenario))]
        reps.append(with_twin_of_point_0(reps[0]))
        assert verify_rep(reps[-1]).ok
        return reps

    @pytest.mark.parametrize("model", [bell_model(), noisy_cycle(5, Fraction(1, 8))], ids=["bell", "cycle5"])
    def test_core_parts_come_in_canonical_order(self, model):
        # Builders excise every pad, so their core parts are single points; the
        # twin makes one part of two points, first by its lowest point only.
        reps = self.four_reps(model)
        rows = global_section_columns(model.scenario).rows
        for rep in reps:
            for _, section in rows:
                parts = core_parts(rep, section)
                assert len(parts) > 1
                assert parts == rep.sorted_events(parts)
        assert (1 | 1 << len(reps[0].points)) in core_parts(reps[-1], rows[0][1])

    @pytest.mark.parametrize("model", [bell_model(), noisy_cycle(5, Fraction(1, 8)), noisy_cycle(7, Fraction(1, 8))],
                             ids=["bell", "cycle5", "cycle7"])
    def test_core_parts_match_the_global_sections_bucketed_by_row(self, model):
        # The oracle walks every global section and buckets the core of its
        # image under the row of each maximal context it restricts to.
        rows = global_section_columns(model.scenario).rows
        for rep in self.four_reps(model):
            core = excise(rep).z
            buckets = {row: [] for row in rows}
            for g in model.scenario.global_sections():
                part = rep.event(g) & core
                if part:
                    for context in model.scenario.maximal_contexts:
                        buckets[context, restrict(g, context)].append(part)
            for (_, section), parts in buckets.items():
                assert core_parts(rep, section) == tuple(sorted(parts, key=lambda e: e & -e))
                assert core_parts(rep, section, core) == core_parts(rep, section)

    def test_each_command_builds_the_envelope_once_and_walks_no_global_section(self, monkeypatch, tmp_path):
        # Counted where each is defined, so every caller is seen.
        counts = {"envelope": 0, "section": 0, "column": 0}

        def counting(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(EnvelopeExtension, "__init__", counting("envelope", EnvelopeExtension.__init__))
        monkeypatch.setattr(GlobalSectionColumns, "section", counting("section", GlobalSectionColumns.section))
        monkeypatch.setattr(GlobalSectionColumns, "column", counting("column", GlobalSectionColumns.column))
        for name, model in [("bell", bell_model()), ("cycle5", noisy_cycle(5, Fraction(1, 8)))]:
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}-witness.json"
            path.write_text(dumps(model_to_dict(model)))
            for argv in (["witness", str(path), "--format", "structured", "--out", str(out)],
                         ["verify", str(path), "--file", str(out)]):
                counts.update(dict.fromkeys(counts, 0))
                assert main(argv) == 0
                assert counts == {"envelope": 1, "section": 0, "column": 0}, (name, argv[0])

    def test_envelope_walks_no_point_of_a_pool_set(self, monkeypatch):
        # Counted where the extensions module reads it, from outside the library.
        rep = build_combinatorial_rep(noisy_cycle(9, Fraction(1, 8)))
        witness = tier_violation_witness(rep, Tier.PROBABILISTIC)
        calls = 0

        def counting(event):
            nonlocal calls
            calls += 1
            return _indices(event)

        monkeypatch.setattr(extensions, "_indices", counting)
        envelope = EnvelopeExtension(rep)
        assert defect(rep, witness.collection, extension=envelope) == witness.defect != 0
        assert calls == 0


class TestWitnessTampering:
    """Each rejection of ``verify_witness``, tripped by one edit of a genuine witness."""

    def test_maximal_witness_with_a_positive_member_fails(self, pr_rep):
        witness = tier_violation_witness(pr_rep, Tier.STRONG)
        positive = next(e for e in pr_rep.maximal_context_events() if pr_rep.mu_of(e) > 0)
        assert not verify_witness(pr_rep, ViolationWitness(witness.kind, witness.collection + (positive,), Fraction(1)))

    def test_maximal_witness_short_of_the_sample_space_fails(self, pr_rep):
        witness = tier_violation_witness(pr_rep, Tier.STRONG)
        short = witness.collection[1:]
        assert reduce(or_, short) != pr_rep.sample_space and not pr_rep.in_sigma(reduce(or_, short))
        # The union carries no value, so only the cover check can answer.
        assert verify_witness(pr_rep, ViolationWitness(witness.kind, short, Fraction(1))) is False

    def test_additivity_witness_with_overlapping_parts_fails(self, bell_rep):
        witness = tier_violation_witness(bell_rep, Tier.PROBABILISTIC)
        first, second, *rest = witness.collection
        overlapping = (first | second, second, *rest)
        assert not verify_witness(bell_rep, ViolationWitness(witness.kind, overlapping, witness.defect,
                                                             witness.support_data))

    @pytest.mark.parametrize("field, value", [
        ("extension_kind", CoverExtension.kind),
        ("certificate", None),
    ])
    def test_additivity_witness_with_another_record_fails(self, field, value, bell_rep):
        witness = tier_violation_witness(bell_rep, Tier.PROBABILISTIC)
        record = witness.support_data
        fields = dict(zip(record.__slots__, record._values()), **{field: value})
        tampered = ViolationWitness(witness.kind, witness.collection, witness.defect, MarginalizationFailure(**fields))
        assert not verify_witness(bell_rep, tampered)

    @pytest.mark.parametrize("context, assignment", [
        (("a",), {"a": "0"}),
        (("a", "a'"), {"a": "0", "a'": "0"}),
        (("a", "b"), {"a": "0", "b": "0", "a'": "0"}),
    ], ids=["sub-context", "not-a-context", "wider-than-its-context"])
    def test_additivity_witness_off_every_row_fails(self, context, assignment, bell_rep):
        # The collection is the section's own core parts with their envelope
        # defect. That defect is 0 on the sub-context section, but 1/4 and 1/8
        # on the other two, so there only the check that the record names a
        # maximal context and a section over it can trip.
        witness = tier_violation_witness(bell_rep, Tier.PROBABILISTIC)
        section = bell_rep.model.scenario.section(assignment)
        parts = core_parts(bell_rep, section)
        value = defect(bell_rep, parts, extension=EnvelopeExtension(bell_rep))
        assert value == {1: 0, 2: Fraction(1, 4), 3: Fraction(1, 8)}[len(assignment)]
        record = MarginalizationFailure(context, section, bell_rep.event(section), EnvelopeExtension.kind,
                                        witness.support_data.certificate)
        assert not verify_witness(bell_rep, ViolationWitness(witness.kind, parts, value, record))

    def test_additivity_witness_without_its_record_fails(self, bell_rep):
        witness = tier_violation_witness(bell_rep, Tier.PROBABILISTIC)
        assert not verify_witness(bell_rep, ViolationWitness(witness.kind, witness.collection, witness.defect))


class TestMaximalContextViolations:
    def test_pr_box_strong_violation(self, pr_rep):
        flagged, witness = strong_subadditivity_violation(pr_rep)
        assert flagged and witness.defect == 1

    def test_hardy_logical_but_not_strong(self, hardy_rep):
        strong, _ = strong_subadditivity_violation(hardy_rep)
        logical, witness = logical_subadditivity_violation(hardy_rep)
        assert not strong and logical
        assert witness.defect == Fraction(1, 8)
        assert witness.support_data.section == hardy_rep.model.scenario.section({"a": "0", "b": "0"})

    def test_bell_only_additivity(self, bell_rep):
        strong, _ = strong_subadditivity_violation(bell_rep)
        logical, _ = logical_subadditivity_violation(bell_rep)
        additive, witness = additivity_violation(bell_rep)
        assert (strong, logical, additive) == (False, False, True)
        assert witness.support_data.certificate.verify(bell_rep.model)

    def test_noncontextual_rep_passes_everything(self, noncontextual_rep):
        assert not strong_subadditivity_violation(noncontextual_rep)[0]
        assert not logical_subadditivity_violation(noncontextual_rep)[0]
        assert not additivity_violation(noncontextual_rep)[0]

    def test_padded_rep_rejected(self):
        rep = build_padded_rep(
            bell_model(),
            [PadPoint("pad", {"a": ("0", "1"), "b": ("0",), "a'": ("0",), "b'": ("0",)})],
        )
        with pytest.raises(NonCombinatorialError):
            strong_subadditivity_violation(rep)


class TestClassicalExtensions:
    def test_noncontextual_rep_has_classical_extension(self, noncontextual_rep):
        weights = has_classical_extension(noncontextual_rep)
        assert weights is not None
        assert sum(weights.values()) == 1

    def test_bell_rep_has_none(self, bell_rep):
        assert has_classical_extension(bell_rep) is None

    def test_pr_box_rep_has_none(self, pr_rep):
        assert has_classical_extension(pr_rep) is None

    def test_point_measure_verifies_both_kinds(self, noncontextual_rep):
        weights = has_classical_extension(noncontextual_rep)
        candidate = PointMeasureExtension(noncontextual_rep, weights)
        assert verify_extension(noncontextual_rep, candidate, "monotonic").ok
        assert verify_extension(noncontextual_rep, candidate, "classical").ok


class TestExtensions:
    def test_bell_rep_already_violates_subadditivity_by_cover(self, bell_rep):
        # Eight events, two of them null, cover the space with total weight
        # three quarters; no subadditive extension can exist.
        witness = subadditivity_violation_by_cover(bell_rep)
        assert witness is not None
        assert witness.defect == Fraction(1, 4)
        union = 0
        for event in witness.collection:
            union |= event
        assert union == bell_rep.sample_space

    def test_noncontextual_rep_has_no_cover_violation(self, noncontextual_rep):
        assert subadditivity_violation_by_cover(noncontextual_rep) is None

    def test_canonical_extension_of_bell_is_the_envelope(self, bell_rep):
        ext = canonical_monotone_extension(bell_rep)
        assert isinstance(ext, EnvelopeExtension)
        assert verify_extension(bell_rep, ext, "monotonic").ok

    def test_canonical_extension_of_noncontextual_rep_is_cover_based(self, noncontextual_rep):
        ext = canonical_monotone_extension(noncontextual_rep)
        assert isinstance(ext, CoverExtension)
        assert verify_extension(noncontextual_rep, ext, "monotonic").ok

    def test_cover_extension_rejects_subadditivity_violating_reps(self, pr_rep, bell_rep):
        with pytest.raises(NotAnExtensionError):
            CoverExtension(pr_rep)
        with pytest.raises(NotAnExtensionError):
            CoverExtension(bell_rep)

    @settings(max_examples=80, deadline=None)
    @given(pool=st.lists(st.tuples(st.integers(1, 63), st.builds(Fraction, st.integers(0, 6), st.integers(1, 6))),
                         min_size=1, max_size=7),
           event=st.integers(0, 63))
    def test_cheapest_cover_solver_matches_brute_force(self, pool, event):
        # Integer weights over the pool's common denominator give the exact
        # rational optimum of every sub-pool search, and a cover attaining it.
        universe = reduce(or_, (mask for mask, _ in pool))
        solver = _MinCoverSolver(universe, pool)
        event &= universe
        best = min(sum(w for _, w in chosen) for size in range(len(pool) + 1)
                   for chosen in combinations(pool, size)
                   if event & ~reduce(or_, (m for m, _ in chosen), 0) == 0)
        assert solver.cover_value(event) == best
        members = solver.cover_members(event)
        assert event & ~reduce(or_, members, 0) == 0
        cheapest = {}
        for mask, weight in pool:
            cheapest[mask] = min(cheapest.get(mask, weight), weight)
        assert sum(cheapest[m] for m in set(members)) == best

    def test_sampled_extensions_are_extensions_and_fail_somewhere(self, bell_rep):
        samples = sample_monotone_extensions(bell_rep, count=5, seed=1)
        assert len(samples) == 5
        for ext in samples:
            assert verify_extension(bell_rep, ext, "monotonic").ok
            found = marginalization_failure(bell_rep, ext)
            assert found is not None
            record, parts, value = found
            assert value != 0
            assert defect(bell_rep, parts, extension=ext) == value

    def test_sampling_is_seeded(self, bell_rep):
        a = sample_monotone_extensions(bell_rep, count=3, seed=9)
        b = sample_monotone_extensions(bell_rep, count=3, seed=9)
        probe = bell_rep.event_of([bell_rep.points[0], bell_rep.points[5]])
        assert [e.value(probe) for e in a] == [e.value(probe) for e in b]

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_cover_variants_are_monotonic_extensions(self, seed):
        # Bell's family covers its space too cheaply for a cover extension, so
        # bell draws envelope variants; this mixture admits all six cover bases.
        rep = build_combinatorial_rep(random_deterministic_mixture(two_party_scenario(), random.Random(1)))
        samples = sample_monotone_extensions(rep, count=3, seed=seed)
        for ext in samples:
            assert len(ext.components) == 6
            assert all(isinstance(base, CoverExtension) for _, base in ext.components)
            assert verify_extension(rep, ext, "monotonic").ok
        again = sample_monotone_extensions(rep, count=3, seed=seed)
        probes = rep.sorted_events(rep.event_of(pair) for pair in combinations(rep.points, 2))
        assert [[e.value(p) for p in probes] for e in samples] == [[e.value(p) for p in probes] for e in again]

    def test_noncontextual_rep_has_no_marginalization_failure(self, noncontextual_rep):
        ext = canonical_monotone_extension(noncontextual_rep)
        assert marginalization_failure(noncontextual_rep, ext) is None

    def test_marginalization_failure_needs_the_extension_kind(self, bell_rep):
        # Without a kind the failure would name an extension no witness check accepts.
        unnamed = SimpleNamespace(value=EnvelopeExtension(bell_rep).value)
        with pytest.raises(AttributeError, match="kind"):
            marginalization_failure(bell_rep, unnamed)

    def test_explicit_non_monotone_extension_caught(self):
        rep = build_combinatorial_rep(specker_triangle_model())
        from contextuality.violations import _generated_algebra
        algebra = _generated_algebra(rep, cap=2**20)
        base = has_classical_extension(rep)
        assert base is None  # strongly contextual: no point measure exists
        # Build an explicit candidate from the envelope, then break monotonicity
        # on one non-family chain.
        envelope = EnvelopeExtension(rep)
        values = {e: envelope.value(e) for e in algebra}
        small = min((e for e in algebra if e.bit_count() == 1), key=rep.event_key)
        big = next(e for e in algebra if not small & ~e and e.bit_count() == 2)
        values[small], values[big] = Fraction(1), Fraction(0)
        candidate = ExplicitExtension(rep, values)
        verdict = verify_extension(rep, candidate, "monotonic")
        assert not verdict.ok
        assert verdict.failures[0].condition == "monotonicity"

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_envelope_value_is_the_cheapest_pool_superset(self, envelope_reps, data):
        rep, family_cheapest = envelope_reps[data.draw(st.sampled_from(sorted(envelope_reps)), label="rep")]
        subsets = st.integers(0, rep.sample_space)
        extra = data.draw(st.lists(st.tuples(subsets, st.fractions(0, 2, max_denominator=8)), max_size=4),
                          label="extra pool")
        pool = list(rep.mu.items()) + extra
        # On a family member the fixture's walk over the family stands in for
        # the family's part of the pool.
        if any(cheapest_superset(extra + [(event, family_cheapest[event])], event) != rep.mu[event]
               for event in rep.sigma):
            with pytest.raises(NotAnExtensionError):
                EnvelopeExtension(rep, extra)
            return
        envelope = EnvelopeExtension(rep, extra)
        for event in data.draw(st.lists(subsets, min_size=1, max_size=6), label="events"):
            assert envelope.value(event) == cheapest_superset(pool, event)
            outside = event | 1 << len(rep.points)  # a point beyond the sample space
            assert cheapest_superset(pool, outside) is None
            with pytest.raises(ValueError, match="no pool superset"):
                envelope.value(outside)

    def test_negative_atom_rejected(self, bell_rep):
        # One atom of (a, b) valued below zero and every family member valued
        # at its cheapest hull: each member then matches its envelope value,
        # so only the atom's sign is left to reject.
        scenario = bell_rep.model.scenario
        hulls = [[bell_rep.event(s) for s in sections_over(scenario, c)] for c in scenario.maximal_contexts]
        atom_value = {atom: bell_rep.mu[atom] for atoms in hulls for atom in atoms}
        atom_value[bell_rep.event(scenario.section({"a": "0", "b": "1"}))] = Fraction(-1, 8)
        mu = {event: min(sum(atom_value[a] for a in atoms if a & event) for atoms in hulls) for event in bell_rep.mu}
        assert all(mu[atom] == value for atom, value in atom_value.items())
        tampered = WpsRepresentation(bell_rep.model, bell_rep.points, bell_rep.transfer, mu)
        with pytest.raises(NotAnExtensionError, match="negative value"):
            EnvelopeExtension(tampered)

    def test_explicit_non_additive_extension_caught(self):
        rep = build_combinatorial_rep(specker_triangle_model())
        from contextuality.violations import _generated_algebra
        envelope = EnvelopeExtension(rep)
        candidate = ExplicitExtension(rep, {e: envelope.value(e) for e in _generated_algebra(rep, cap=2**20)})
        assert verify_extension(rep, candidate, "monotonic").ok
        verdict = verify_extension(rep, candidate, "classical")
        assert not verdict.ok
        assert verdict.failures[0].condition == "additivity"

    def test_functional_non_monotone_family_caught(self, bell_rep):
        # Value a section image above the single-measurement event holding it.
        scenario = bell_rep.model.scenario
        inner = bell_rep.event(scenario.section({"a": "0", "b": "0"}))
        outer = bell_rep.event(scenario.section({"a": "0"}))
        assert not inner & ~outer
        mu = dict(bell_rep.mu)
        mu[inner] = mu[outer] + Fraction(1, 100)
        tampered = WpsRepresentation(bell_rep.model, bell_rep.points, bell_rep.transfer, mu)
        verdict = verify_extension(tampered, StoredValues(tampered, 1), "monotonic")
        assert not verdict.ok
        assert verdict.failures[0].condition == "monotonicity"
        assert "sits inside" in verdict.failures[0].detail

    @staticmethod
    def pair_scan(universe, value):
        """The failure the ordered scan over all pairs (a, b) reports first: a inside b, valued above it."""
        for a in universe:
            for b in universe:
                if a != b and not a & ~b and value(a) > value(b):
                    return Failure("monotonicity", f"a set of value {value(a)} sits inside one of value {value(b)}")
        return None

    @pytest.mark.parametrize("name", ["bell", "hardy", "pr-box", "specker-triangle"])
    def test_monotonicity_matches_the_pair_scan(self, name, catalog_reps):
        rep = catalog_reps[name]
        rng = random.Random(name)
        events = rep.sorted_events(rep.sigma)

        def tampered(mu):
            return WpsRepresentation(rep.model, rep.points, rep.transfer, mu)
        # Functional candidates: the envelope, the tampered nesting pair of
        # test_functional_non_monotone_family_caught, and random tampering.
        candidates = [(rep, EnvelopeExtension(rep))]
        scenario = rep.model.scenario
        context = scenario.maximal_contexts[0]
        inner = rep.event(scenario.section({m: scenario.outcomes[0] for m in context}))
        outer = rep.event(scenario.section({context[0]: scenario.outcomes[0]}))
        mu = dict(rep.mu)
        mu[inner] = mu[outer] + Fraction(1, 100)
        candidates.append((tampered(mu), None))
        for _ in range(15):
            mu = dict(rep.mu)
            for event in rng.sample(events, 2):
                mu[event] = Fraction(rng.randint(0, 4), 4)
            candidates.append((tampered(mu), None))
        candidates = [(target, candidate or StoredValues(target, 1)) for target, candidate in candidates]
        # Explicit candidates on the specker triangle, whose generated algebra
        # is small enough to scan in pairs: the envelope's values, the
        # swapped chain of test_explicit_non_monotone_extension_caught, and
        # random tampering.
        if name == "specker-triangle":
            from contextuality.violations import _generated_algebra
            algebra = _generated_algebra(rep, cap=2**20)
            envelope = {e: EnvelopeExtension(rep).value(e) for e in algebra}
            candidates.append((rep, ExplicitExtension(rep, envelope)))
            small = min((e for e in algebra if e.bit_count() == 1), key=rep.event_key)
            big = next(e for e in algebra if not small & ~e and e.bit_count() == 2)
            candidates.append((rep, ExplicitExtension(rep, {**envelope, small: Fraction(1), big: Fraction(0)})))
            outside = [e for e in algebra if e not in rep.sigma]
            for _ in range(8):
                values = dict(envelope)
                for event in rng.sample(outside, 3):
                    values[event] = Fraction(rng.randint(0, 4), 4)
                candidates.append((rep, ExplicitExtension(rep, values)))
        caught = 0
        for target, candidate in candidates:
            domain = candidate.domain()
            universe = (target.sorted_events(target.sigma) if domain is None
                        else sorted(domain, key=lambda e: (e.bit_count(), target.event_key(e))))
            expected = self.pair_scan(universe, candidate.value)
            verdict = verify_extension(target, candidate, "monotonic")
            if expected is None:
                assert verdict.ok or verdict.failures == (
                    Failure("monotonicity", "adding a point decreased the value"),)
            else:
                caught += 1
                assert verdict == ExtensionVerdict(False, (expected,))
        assert caught >= 2

    def test_functional_one_point_enlargement_caught(self, bell_rep):
        # Zero off the family: some positive member loses value when a point is added.
        verdict = verify_extension(bell_rep, StoredValues(bell_rep, 0), "monotonic")
        assert not verdict.ok
        assert verdict.failures[0].condition == "monotonicity"
        assert verdict.failures[0].detail == "adding a point decreased the value"

    def test_functional_non_additive_extension_caught(self, bell_rep):
        verdict = verify_extension(bell_rep, EnvelopeExtension(bell_rep), "classical")
        assert not verdict.ok
        assert verdict.failures[0].condition == "additivity"

    def test_mismatched_candidate_raises(self, bell_rep):
        weights = {p: Fraction(1, len(bell_rep.points)) for p in bell_rep.points}
        candidate = PointMeasureExtension(bell_rep, weights)
        with pytest.raises(NotAnExtensionError):
            verify_extension(bell_rep, candidate, "monotonic")


def _family_solver(rep, extra_pool=()):
    """The cover solver over the whole event family in canonical order, each event at its value.

    The oracle for the cover pool: every family event is one maximal
    context's atoms valued at their sum, so the atoms must give the same
    totals, and the solver's first optimal choice the same members."""
    family = [(event, rep.mu[event]) for event in rep.sorted_events(rep.sigma)]
    return _MinCoverSolver(rep.sample_space, family + list(extra_pool))


def _cover_oracle_reps():
    reps = []
    for entry in catalog():
        for order in ("canonical", "reversed"):
            reps.append((f"{entry.name}-{order}", build_combinatorial_rep(entry.model, point_order=order)))
            reps.append((f"{entry.name}-{order}-padded",
                         build_padded_rep(entry.model, standard_paddings(entry.model.scenario), point_order=order)))
    return reps + [(f"noisy-cycle-{n}", build_combinatorial_rep(noisy_cycle(n, Fraction(1, 8)))) for n in range(3, 10)]


COVER_ORACLE_REPS = _cover_oracle_reps()
# Exact covers of random events grow fast with the points, and the family
# oracle's faster still: past 32 points only the cycles' whole space is compared.
EVENT_ORACLE_REPS = [(name, rep) for name, rep in COVER_ORACLE_REPS
                     if not name.startswith("noisy-cycle-") or len(rep.points) <= 32]


class TestCoverOverAtoms:
    @pytest.mark.parametrize("rep", [rep for _, rep in COVER_ORACLE_REPS], ids=[name for name, _ in COVER_ORACLE_REPS])
    def test_cheapest_cover_of_space_matches_the_family_oracle(self, rep):
        oracle = _family_solver(rep)
        full = rep.sample_space
        assert cheapest_cover_of_space(rep) == (rep.sorted_events(oracle.cover_members(full)), oracle.cover_value(full))

    @pytest.mark.parametrize("extra", [False, True], ids=["family", "extra-pool-set"])
    @pytest.mark.parametrize("rep", [rep for _, rep in EVENT_ORACLE_REPS], ids=[name for name, _ in EVENT_ORACLE_REPS])
    def test_cover_values_and_members_match_the_family_oracle(self, rep, extra):
        # Every family event and 200 random events, priced and covered alike,
        # free events included; with one extra priced pool set as well.
        rng = random.Random(len(rep.points))
        pool = [(rep.event_of(rng.sample(rep.points, 2)), Fraction(rng.randint(1, 8), 16))] if extra else []
        oracle = _family_solver(rep, pool)
        solver = _MinCoverSolver(rep.sample_space, _cover_pool(rep) + pool)
        events = list(rep.sorted_events(rep.sigma)) + [rng.getrandbits(len(rep.points)) for _ in range(200)]
        for event in events:
            assert solver.cover_value(event) == oracle.cover_value(event)
            assert solver.cover_members(event) == oracle.cover_members(event)

    def test_the_pool_is_the_null_events_and_the_valued_atoms(self, bell_rep):
        pool = _cover_pool(bell_rep)
        nulls = [event for event, weight in pool if weight == 0]
        assert nulls == list(bell_rep.sorted_events(e for e, v in bell_rep.mu.items() if v == 0))
        # On a combinatorial representation a maximal context's atoms are its sections' images.
        scenario = bell_rep.model.scenario
        images = [bell_rep.event(s) for c in scenario.maximal_contexts for s in sections_over(scenario, c)]
        assert [(event, weight) for event, weight in pool if weight] == [
            (image, bell_rep.mu[image]) for image in images if bell_rep.mu[image]]

    def test_noisy_11_cycle_cover_under_a_second(self):
        rep = build_combinatorial_rep(noisy_cycle(11, Fraction(1, 8)))
        start = time.perf_counter()
        members, total = cheapest_cover_of_space(rep)
        assert time.perf_counter() - start < 1
        assert total == Fraction(11, 16) and reduce(or_, members) == rep.sample_space


class TestAdditiveCover:
    def test_context_cover_is_valid(self, bell_rep):
        scenario = bell_rep.model.scenario
        cover = AdditiveCover(bell_rep, [bell_rep.event(s) for s in sections_over(scenario, ("a'", "b'"))])
        assert len(cover.events) == 4

    def test_overlapping_cover_rejected(self, bell_rep):
        scenario = bell_rep.model.scenario
        events = [bell_rep.event(s) for s in sections_over(scenario, ("a",))]
        events.append(bell_rep.event(scenario.section({"a": "0", "b": "0"})))
        from contextuality.errors import InternalConsistencyError
        with pytest.raises(InternalConsistencyError):
            AdditiveCover(bell_rep, events)
