"""Acceptance suite: every exit criterion at its stated tolerance.

All comparisons are exact rational equalities (no tolerance) except the
pre-snap closeness in quantum ingestion, whose tolerance is 1e-9 by
construction of the snapping step.  Each test prints one pass/fail line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from contextuality.catalog import (
    catalog,
    entry,
    perturbed_model,
    random_deterministic_mixture,
    triangle_scenario,
    two_party_scenario,
)
from contextuality.classifier import (
    Tier,
    classify,
    global_distribution,
    is_logically_contextual,
    is_strongly_contextual,
)
from contextuality.distribution import Distribution
from contextuality.model import EmpiricalModel
from contextuality.scenario import Scenario, sections_over
from contextuality.dutchbook import (
    convexity_hierarchy,
    convexity_membership,
    find_dutch_book,
    verify_certificate,
)
from contextuality.model import check_model
from contextuality.quantum import (
    ghz_experiment,
    is_weak_hv_representation,
    quantum_to_empirical,
    singlet_experiment,
)
from contextuality.violations import (
    ViolationKind,
    additivity_violation,
    defect,
    has_classical_extension,
    logical_subadditivity_violation,
    marginalization_failure,
    strong_subadditivity_violation,
    subadditivity_violation_by_cover,
    tier_violation_witness,
    verify_witness,
)
from contextuality.cli import main
from contextuality.extensions import (
    EnvelopeExtension,
    ExplicitExtension,
    PointMeasureExtension,
    canonical_monotone_extension,
    sample_monotone_extensions,
)
from contextuality.serialize import dumps, extension_to_dict, model_to_dict
from contextuality.wps import build_combinatorial_rep, excise, verify_rep
from conftest import noisy_cycle, standard_paddings
from contextuality.wps import build_padded_rep
from test_global_sections import THREE_OUTCOME_CYCLE


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# Shared randomized model pool (criteria 3, 4, 5 quantify over the same set)
# ---------------------------------------------------------------------------

_POOL: dict = {}


def _randomized_pool():
    """Fifty randomized models: mixtures plus rational perturbations of catalog models,
    with their combinatorial representations."""
    if _POOL:
        return _POOL["models"], _POOL["reps"], _POOL["build_seconds"]
    start = time.monotonic()
    rng = random.Random(2026)
    models = []
    for i in range(30):
        scenario = two_party_scenario() if i % 2 else triangle_scenario()
        models.append(random_deterministic_mixture(scenario, rng, components=rng.randint(1, 5)))
    bases = [entry(name).model for name in ("bell", "hardy", "pr-box", "specker-triangle")]
    for i in range(20):
        base = bases[i % len(bases)]
        magnitude = Fraction(rng.randint(1, 16), 32)
        models.append(perturbed_model(base, rng, magnitude=magnitude))
    reps = [build_combinatorial_rep(m) for m in models]
    _POOL["models"] = models
    _POOL["reps"] = reps
    _POOL["build_seconds"] = time.monotonic() - start
    return models, reps, _POOL["build_seconds"]


def _tier_booleans(model):
    strong = is_strongly_contextual(model)
    logical, _ = is_logically_contextual(model)
    probabilistic = not isinstance(global_distribution(model), Distribution)
    return strong, logical, probabilistic


# ---------------------------------------------------------------------------
# Criterion 1: the tier table
# ---------------------------------------------------------------------------


def test_01_tier_table():
    start = time.monotonic()
    expected = {
        "pr-box": Tier.STRONG,
        "specker-triangle": Tier.STRONG,
        "ghz": Tier.STRONG,
        "hardy": Tier.LOGICAL,
        "bell": Tier.PROBABILISTIC,
    }
    ok = True
    for name, tier in expected.items():
        verdict = classify(entry(name).model)
        ok = ok and verdict.tier is tier
    rng = random.Random(7)
    for i in range(100):
        scenario = two_party_scenario() if i % 2 else triangle_scenario()
        model = random_deterministic_mixture(scenario, rng, components=rng.randint(1, 6))
        ok = ok and classify(model).tier is Tier.NONCONTEXTUAL
    elapsed = time.monotonic() - start
    _report("1 tier table (catalog exact + 100 random mixtures noncontextual)",
            ok and elapsed < 10.0, f"{elapsed:.2f}s < 10s")


# ---------------------------------------------------------------------------
# Criterion 2: witness reproduction on combinatorial and padded representations
# ---------------------------------------------------------------------------


def test_02_witness_reproduction(catalog_reps, padded_catalog_reps):
    ok = True
    details = []
    for name in ("pr-box", "specker-triangle", "ghz"):
        for rep in (catalog_reps[name], padded_catalog_reps[name]):
            witness = tier_violation_witness(rep, Tier.STRONG)
            ok = ok and witness.defect == 1 and verify_witness(rep, witness)
    details.append("strong defects exactly 1")

    for rep in (catalog_reps["hardy"], padded_catalog_reps["hardy"]):
        witness = tier_violation_witness(rep, Tier.LOGICAL)
        ok = ok and witness.defect > 0 and verify_witness(rep, witness)
    details.append(f"hardy defect {tier_violation_witness(catalog_reps['hardy'], Tier.LOGICAL).defect} > 0")

    for rep in (catalog_reps["bell"], padded_catalog_reps["bell"]):
        witness = tier_violation_witness(rep, Tier.PROBABILISTIC)
        ok = ok and witness.kind is ViolationKind.MONOTONIC_ADDITIVITY
        events = list(witness.collection)
        disjoint = all(not (a & b) for i, a in enumerate(events) for b in events[i + 1:])
        ok = ok and disjoint and witness.defect != 0
        ok = ok and witness.support_data.certificate is not None
        ok = ok and witness.support_data.certificate.verify(rep.model)
        # The subadditive monotonic extensions of these representations form
        # an empty family: an exact cover of the sample space by family
        # events of total weight below one rules them all out.  The
        # quantification is therefore checked over the larger family of
        # monotonic extensions, twenty sampled ones here, each of which must
        # break additivity on a disjoint collection.
        cover_witness = subadditivity_violation_by_cover(rep)
        ok = ok and cover_witness is not None and cover_witness.defect > 0
        for extension in sample_monotone_extensions(rep, count=20, seed=11):
            found = marginalization_failure(rep, extension)
            ok = ok and found is not None
            if found is not None:
                record, parts, value = found
                ok = ok and value != 0 and defect(rep, parts, extension=extension) == value
    details.append("bell: certificate + 20 monotone extensions + subadditive family provably empty")
    _report("2 witness reproduction on combinatorial and padded reps", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 3: tier/violation biconditionals over maximal-context events
# ---------------------------------------------------------------------------


def test_03_additivity_biconditionals(catalog_reps):
    start = time.monotonic()
    models, reps, build_seconds = _randomized_pool()
    pairs = list(zip(models, reps))
    pairs += [(entry(name).model, rep) for name, rep in catalog_reps.items()]
    ok = True
    for model, rep in pairs:
        strong, logical, probabilistic = _tier_booleans(model)
        ok = ok and strong_subadditivity_violation(rep)[0] == strong
        ok = ok and logical_subadditivity_violation(rep)[0] == logical
        ok = ok and additivity_violation(rep)[0] == probabilistic
    elapsed = time.monotonic() - start
    _report("3 subadditivity/additivity biconditionals (catalog + 50 randomized)",
            ok and elapsed < 60.0, f"{elapsed:.2f}s < 60s incl. {build_seconds:.2f}s model building")


# ---------------------------------------------------------------------------
# Criterion 4: convexity biconditionals on the same model set
# ---------------------------------------------------------------------------


def test_04_convexity_biconditionals(catalog_reps):
    models, reps, _ = _randomized_pool()
    pairs = list(zip(models, reps))
    pairs += [(entry(name).model, rep) for name, rep in catalog_reps.items()]
    ok = True
    for model, rep in pairs:
        strong, logical, probabilistic = _tier_booleans(model)
        verdict = convexity_hierarchy(rep)
        ok = ok and verdict.strong_violation == strong
        ok = ok and verdict.logical_violation == logical
        ok = ok and verdict.probabilistic_violation == probabilistic
    _report("4 convexity biconditionals (same model set)", ok)


# ---------------------------------------------------------------------------
# Criterion 5: the de Finetti triangle
# ---------------------------------------------------------------------------


def test_05_de_finetti_triangle(catalog_reps):
    _, reps, _ = _randomized_pool()
    ok = True
    for rep in list(catalog_reps.values()) + list(reps):
        no_book = find_dutch_book(rep) is None
        classical = has_classical_extension(rep) is not None
        convex = convexity_membership(rep) is not None
        ok = ok and (no_book == classical == convex)
        ok = ok and no_book == (classify(rep.model).tier is Tier.NONCONTEXTUAL)
    _report("5 de Finetti triangle (no book = classical extension = convex)", ok,
            f"{len(catalog_reps) + len(reps)} representations")


# ---------------------------------------------------------------------------
# Criterion 6: certificate soundness
# ---------------------------------------------------------------------------


def test_06_certificate_soundness(catalog_reps):
    _, reps, _ = _randomized_pool()
    ok = True
    checked = 0
    for rep in list(catalog_reps.values()) + list(reps):
        certificate = find_dutch_book(rep)
        if certificate is not None:
            checked += 1
            ok = ok and verify_certificate(rep, certificate)
    pr = catalog_reps["pr-box"]
    certificate = find_dutch_book(pr)
    nulls = {e for e in pr.maximal_context_events() if pr.mu_of(e) == 0}
    ok = ok and certificate.loss_bound >= 1
    ok = ok and {event for event, _ in certificate.stakes} == nulls
    ok = ok and all(stake == Fraction(-1) for _, stake in certificate.stakes)
    ok = ok and len(certificate.stakes) == 8
    _report("6 certificate soundness (exhaustive payoff checks)", ok,
            f"{checked} certificates; pr-box null-cover bound {certificate.loss_bound} >= 1")


# ---------------------------------------------------------------------------
# Criterion 7: invariance under the representation's point ordering
# ---------------------------------------------------------------------------


def test_07_point_order_invariance():
    ok = True
    for e in catalog():
        first = build_combinatorial_rep(e.model)
        second = build_combinatorial_rep(e.model, point_order="reversed")
        ok = ok and first.points != second.points  # structurally distinct
        for rep_pair in ((first, second),):
            a, b = rep_pair
            triple_a = (
                strong_subadditivity_violation(a)[0],
                logical_subadditivity_violation(a)[0],
                additivity_violation(a)[0],
            )
            triple_b = (
                strong_subadditivity_violation(b)[0],
                logical_subadditivity_violation(b)[0],
                additivity_violation(b)[0],
            )
            ok = ok and triple_a == triple_b
    _report("7 invariance across point orderings", ok)


# ---------------------------------------------------------------------------
# Criterion 8: quantum ingestion
# ---------------------------------------------------------------------------


def test_08_quantum_ingestion():
    start = time.monotonic()
    singlet_model = quantum_to_empirical(singlet_experiment(), snap_tolerance=1e-9)
    ok = singlet_model == entry("bell").model
    ok = ok and classify(singlet_model).tier is Tier.PROBABILISTIC
    ghz_model = quantum_to_empirical(ghz_experiment(), snap_tolerance=1e-9)
    ok = ok and classify(ghz_model).tier is Tier.STRONG
    singlet_rep = build_combinatorial_rep(singlet_model)
    ghz_rep = build_combinatorial_rep(ghz_model)
    ok = ok and is_weak_hv_representation(singlet_rep, singlet_experiment())
    ok = ok and is_weak_hv_representation(ghz_rep, ghz_experiment())
    elapsed = time.monotonic() - start
    _report("8 quantum ingestion (snap 1e-9, exact post-snap)",
            ok and elapsed < 10.0, f"{elapsed:.2f}s < 10s")


# ---------------------------------------------------------------------------
# Criterion 9: the property suites themselves
# ---------------------------------------------------------------------------


def test_09_property_suites(catalog_reps, padded_catalog_reps):
    ok = True
    for rep in list(catalog_reps.values()) + list(padded_catalog_reps.values()):
        ok = ok and verify_rep(rep).ok  # sheaf intersection, algebras, EC, ME, compatibility
    for name, rep in padded_catalog_reps.items():
        report = excise(rep)  # the pointwise core facts are checked in test_properties.py
        ok = ok and not report.z & rep.event_of(["pad-overlap", "pad-outcomeless"])
    models, _, _ = _randomized_pool()
    for model in models[:10] + [e.model for e in catalog()]:
        strong, logical, probabilistic = _tier_booleans(model)
        ok = ok and ((not strong) or logical) and ((not logical) or probabilistic)
    _report("9 property suites (representation conditions, excision core, hierarchy)",
            ok, "full suites in test_properties.py run standalone")


# ---------------------------------------------------------------------------
# Criterion 10: a seeded adversarial pool, in both point orders
# ---------------------------------------------------------------------------


def _twisted_cycle(n: int) -> EmpiricalModel:
    """The binary n-cycle whose contexts allow an odd number of disagreements in all: strongly contextual.

    Every context but the last is perfectly anticorrelated; the last is too
    when n is odd, and perfectly correlated when n is even."""
    names = [f"x{i}" for i in range(n)]
    scenario = Scenario(names, [(names[i], names[(i + 1) % n]) for i in range(n)], ("0", "1"))
    tables = {}
    for i, context in enumerate(scenario.maximal_contexts):
        differ = i < n - 1 or n % 2 == 1
        tables[context] = Distribution(scenario, context, {
            s: Fraction((s.values[0] != s.values[1]) == differ, 2) for s in sections_over(scenario, context)})
    return EmpiricalModel(scenario, tables)


def _shift_box(scenario: Scenario) -> EmpiricalModel:
    """Each context's second outcome is its first plus one modulo |O|, uniformly: strongly
    contextual on the three-outcome 4-cycle, where four shifts cannot return to the start."""
    k = len(scenario.outcomes)
    tables = {
        context: Distribution(scenario, context, {
            s: Fraction(scenario.outcome_index(s.values[1]) == (scenario.outcome_index(s.values[0]) + 1) % k, k)
            for s in sections_over(scenario, context)})
        for context in scenario.maximal_contexts
    }
    return EmpiricalModel(scenario, tables)


def _adversarial_pool() -> list[EmpiricalModel]:
    """Strongly contextual models pushed toward the tier boundaries by seeded deterministic noise:
    twisted n-cycles for n = 3..8, the three-outcome 4-cycle's shift box and GHZ, each mixed
    with a share of noise in [0, 1/2], plus deterministic mixtures on the three-outcome 4-cycle."""
    rng = random.Random(33)

    def share() -> Fraction:
        return Fraction(rng.randint(0, 16), 32)

    models = [perturbed_model(_twisted_cycle(n), rng, share()) for n in range(3, 9) for _ in range(4)]
    for _ in range(4):
        models.append(random_deterministic_mixture(THREE_OUTCOME_CYCLE, rng, components=rng.randint(1, 5)))
        models.append(perturbed_model(_shift_box(THREE_OUTCOME_CYCLE), rng, share()))
    models += [perturbed_model(entry("ghz").model, rng, share()) for _ in range(4)]
    return models


def test_10_adversarial_pool():
    start = time.monotonic()
    models = _adversarial_pool()
    ok = True
    tiers = set()
    for model in models:
        tier = classify(model).tier
        tiers.add(tier)
        strong, logical, probabilistic = _tier_booleans(model)
        answers = []
        for order in ("canonical", "reversed"):
            rep = build_combinatorial_rep(model, point_order=order)
            violations = tuple(violation(rep)[0] for violation in (
                strong_subadditivity_violation, logical_subadditivity_violation, additivity_violation))
            triangle = (find_dutch_book(rep) is None, has_classical_extension(rep) is not None,
                        convexity_membership(rep) is not None)
            ok = ok and violations == (strong, logical, probabilistic)
            ok = ok and set(triangle) == {tier is Tier.NONCONTEXTUAL}
            answers.append(violations + triangle)
        ok = ok and answers[0] == answers[1]
    # The pool reaches every tier, so each biconditional is checked both ways.
    ok = ok and tiers == set(Tier)
    elapsed = time.monotonic() - start
    _report("10 adversarial pool: biconditionals and de Finetti triangle in both point orders",
            ok and elapsed < 30.0, f"{len(models)} models, {sorted(t.name for t in tiers)}, {elapsed:.2f}s < 30s")


# ---------------------------------------------------------------------------
# Criterion 11: a seeded pool of extension documents through ``verify``
# ---------------------------------------------------------------------------


def _extension_pool() -> list[tuple[str, EmpiricalModel]]:
    """Models whose representations have 8 points, so an explicit extension has 256 events: the
    Specker triangle, the noisy 3-cycles at 1/8 and 1/2, and seeded deterministic mixtures on the
    triangle scenario."""
    rng = random.Random(36)
    models = [("specker-triangle", entry("specker-triangle").model),
              ("cycle-3-1/8", noisy_cycle(3, Fraction(1, 8))), ("cycle-3-1/2", noisy_cycle(3, Fraction(1, 2)))]
    models += [(f"mixture-{i}", random_deterministic_mixture(triangle_scenario(), rng, components=rng.randint(1, 5)))
               for i in range(4)]
    return models


def _tampers(document: dict, rep, rng: random.Random) -> dict:
    """Edits of a monotonic extension document that ``verify`` must refuse, by name."""
    family = [i for i, item in enumerate(document["values"]) if rep.event_of(item["event"]) in rep.sigma]
    others = [i for i in range(len(document["values"])) if i not in family]
    f, o = rng.choice(family), rng.choice(others)
    return {
        "family value changed": lambda d: d["values"][f].update(value=str(Fraction(d["values"][f]["value"]) + 1)),
        "algebra member dropped": lambda d: d["values"].pop(o),
        "non-family set made non-monotone": lambda d: d["values"][o].update(value="2"),
        "value not a rational": lambda d: d["values"][f].update(value="one half"),
        "value over zero": lambda d: d["values"][f].update(value="1/0"),
        "value a JSON number": lambda d: d["values"][o].update(value=0.5),
        "event not a list": lambda d: d["values"][o].update(event=d["values"][o]["event"][0]),
        "event names no point": lambda d: d["values"][o]["event"].append("no-such-point"),
        "entry without a value": lambda d: d["values"][o].pop("value"),
        "entry not an object": lambda d: d["values"].__setitem__(o, 7),
        "values not a list": lambda d: d.update(values={}),
        "unknown extension kind": lambda d: d.update(extension_kind="convex"),
    }


def test_11_extension_document_pool(tmp_path, capsys):
    start = time.monotonic()
    rng = random.Random(3611)
    failures, documents = [], 0
    serial = itertools.count()

    def verify(model_path, document, expected, label):
        # A fresh file per document: rewriting one file truncates it, and ext4 then flushes it
        # to disk on close, so the bound would time the disk rather than ``verify``.
        path = tmp_path / f"extension-{next(serial)}.json"
        path.write_text(dumps(document))
        code = main(["verify", str(model_path), "--file", str(path)])
        err = capsys.readouterr().err
        # A refusal carries a message; main returning at all means no traceback.
        if code != expected or (code and not err.strip()):
            failures.append(f"{label}: exit {code}, expected {expected}")
        return err

    for name, model in _extension_pool():
        rep = build_combinatorial_rep(model)
        model_path = tmp_path / f"model-{next(serial)}.json"
        model_path.write_text(dumps(model_to_dict(model)))
        extensions = [("canonical", canonical_monotone_extension(rep)), ("envelope", EnvelopeExtension(rep))]
        extensions += [(f"sample-{i}", e) for i, e in enumerate(
            sample_monotone_extensions(rep, count=3, seed=rng.randrange(1000)))]
        weights = has_classical_extension(rep)
        if weights is not None:
            extensions.append(("point-measure", PointMeasureExtension(rep, weights)))
        for kind, extension in extensions:
            table = {e: extension.value(e) for e in range(1 << len(rep.points))}
            additive = all(v == sum(table[1 << i] for i in range(len(rep.points)) if e >> i & 1)
                           for e, v in table.items())
            document = extension_to_dict(rep, ExplicitExtension(rep, table), "monotonic")
            label = f"{name} {kind}"
            documents += 1
            verify(model_path, document, 0, label)
            verify(model_path, dict(document, extension_kind="classical"), 0 if additive else 2,
                   f"{label} claimed classical")
            for tamper, edit in _tampers(document, rep, rng).items():
                tampered = json.loads(json.dumps(document))
                edit(tampered)
                verify(model_path, tampered, 2, f"{label} {tamper}")
            if label == "specker-triangle envelope":
                # A family event listed first at 7, then at its stored value: each listing is read.
                i = next(i for i, item in enumerate(document["values"]) if rep.event_of(item["event"]) in rep.sigma)
                twice = json.loads(json.dumps(document))
                twice["values"].insert(i, dict(twice["values"][i], value="7"))
                if f"listed twice (at values[{i + 1}].event)" not in verify(model_path, twice, 2, f"{label} listed twice"):
                    failures.append(f"{label} listed twice: the message names no second listing")
    elapsed = time.monotonic() - start
    _report("11 extension documents through verify, untampered and tampered",
            not failures and elapsed < 30.0,
            f"{documents} documents, {'; '.join(failures[:3]) or 'all exits as expected'}, {elapsed:.2f}s < 30s")
