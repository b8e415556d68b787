"""Weak-probability-space representations of empirical models.

A representation carries a finite sample space, an injective event-transfer
map sending each section over a context to a subset of the sample space,
the event family (one finite algebra per context, glued into a single set
family), and an exact set function on that family.  The image of a section
is the intersection of its single-measurement images, since a section is
determined by its restrictions; ``event`` computes it on any other domain.

Two constructions are provided.  The combinatorial one uses one sample
point per global section and satisfies the two extra combinatorial
conditions (strong mutual exclusivity and exhaustiveness).  With k outcomes
and n measurements, point i is the global section whose outcome indices, the
first measurement's most significant, are the base-k digits of i (of
k^n - 1 - i in reversed order).  So the image of outcome i of the p-th
measurement is a run of k^(n-1-p) ones at bit i*k^(n-1-p), repeated every
k^(n-p) bits.  The padded one adds measure-irrelevant points lying in
contradictory same-measurement overlaps or outside every outcome of some
measurement, which breaks the combinatorial conditions while preserving the
per-context probability spaces, empirical consistency, and mutual exclusivity.

An event is an ``int`` mask over point indices: bit i stands for
``points[i]``.  Its canonical order is the ascending tuple of point indices
(``event_key``); labels appear only through ``points_of`` and ``event_of``.
On ints, ``<=``, ``<``, ``-`` and ``len`` do not mean subset, proper subset,
difference and size: write ``not a & ~b``, ``a & ~b`` and ``a.bit_count()``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce
from operator import and_, or_
from typing import Iterable, Mapping, Sequence

from .errors import (
    DEFAULT_ENUMERATION_CAP,
    CompatibilityError,
    DomainError,
    EnumerationCapError,
    InternalConsistencyError,
    NotAnEventError,
    PaddingError,
)
from .model import CompatibilityReport, EmpiricalModel, check_model
from .distribution import marginalize
from .record import Failure, Record
from .scenario import Section, all_contexts, check_global_section_cap, restrict, sections_over

Event = int


# ---------------------------------------------------------------------------
# The representation object
# ---------------------------------------------------------------------------


class WpsRepresentation:
    """Sample space, event transfer, event family, and exact set function."""

    __slots__ = (
        "model", "points", "transfer", "sigma_algebras", "mu",
        "combinatorial", "sample_space", "_point_index", "_single",
    )

    def __init__(self, model: EmpiricalModel, points: Sequence[str],
                 transfer: Mapping[Section, Event],
                 sigma_algebras: Mapping[tuple, tuple[Event, ...]],
                 mu: Mapping[Event, Fraction],
                 combinatorial: bool):
        self.model = model
        self.points = tuple(points)
        self.sample_space = (1 << len(self.points)) - 1
        self.transfer = dict(transfer)
        self.sigma_algebras = {c: tuple(members) for c, members in sigma_algebras.items()}
        self.mu = dict(mu)
        self.combinatorial = combinatorial
        self._point_index = {p: i for i, p in enumerate(self.points)}
        if len(self._point_index) != len(self.points):
            raise InternalConsistencyError("duplicate sample-space point labels")
        self._single = {(s.domain[0], s.values[0]): event
                        for s, event in self.transfer.items() if len(s.domain) == 1}

    # -- canonical orderings and the label boundary ----------------------------

    def point_index(self, label: str) -> int:
        try:
            return self._point_index[label]
        except KeyError:
            raise DomainError(f"unknown sample point {label!r}") from None

    def event_key(self, event: Event) -> tuple[int, ...]:
        """The ascending point indices of an event: the canonical event order."""
        return tuple(_indices(event))

    def sorted_events(self, events: Iterable[Event]) -> tuple[Event, ...]:
        """The distinct events in canonical order, ascending by :meth:`event_key`."""
        return tuple(sorted(set(events), key=self._rank))

    def _rank(self, event: Event) -> int:
        """The event's place among all subsets of the points in canonical order.

        Before it come its proper prefixes, one per point it holds, and for each
        point t it lacks below its last, the 2^(n-1-t) subsets holding t that
        agree with it below t."""
        n = len(self.points)
        if event >> n or event < 0:
            raise DomainError("the event has points outside the sample space")
        if not event:
            return 0
        gaps = ~event & ((1 << (event.bit_length() - 1)) - 1)
        return event.bit_count() + int(format(gaps, f"0{n}b")[::-1], 2)

    def points_of(self, event: Event) -> tuple[str, ...]:
        """The labels of an event's points, in point order."""
        if event >> len(self.points):
            raise DomainError("the event has points outside the sample space")
        return tuple(self.points[i] for i in _indices(event))

    def event_of(self, labels: Iterable[str]) -> Event:
        """The event holding exactly the labelled points."""
        event = 0
        for label in labels:
            event |= 1 << self.point_index(label)
        return event

    # -- lookups ---------------------------------------------------------------

    def event(self, section: Section) -> Event:
        """The stored image over a context; elsewhere its single-measurement images' intersection."""
        image = self.transfer.get(section)
        if image is None and not self.model.scenario.is_context(section.domain):
            image = self._intersection(zip(section.domain, section.values))
        if image is None:
            raise NotAnEventError(f"no event image stored for {section}")
        return image

    def section_of(self, event: Event) -> Section:
        """The section assigning each measurement the one outcome whose image holds the event, if its image."""
        scenario = self.model.scenario
        single = self._single
        assignment = {}
        for x in scenario.measurements:
            held = [o for o in scenario.outcomes if (x, o) in single and not event & ~single[(x, o)]]
            if len(held) == 1:
                assignment[x] = held[0]
        if self._intersection(assignment.items()) != event:
            raise NotAnEventError("the set is not the image of any section")
        return Section(tuple(assignment), tuple(assignment.values()), scenario)

    def _intersection(self, pairs: Iterable[tuple]) -> Event | None:
        """Y intersected with the images of (measurement, outcome) pairs; None if one is not stored."""
        images = [self._single.get(pair) for pair in pairs]
        return None if None in images else reduce(and_, images, self.sample_space)

    def mu_of(self, event: Event) -> Fraction:
        try:
            return self.mu[event]
        except KeyError:
            raise NotAnEventError("the set is not a member of the event family") from None

    @property
    def sigma(self):
        """The event family: the events that carry a value, as a view of ``mu``'s keys."""
        return self.mu.keys()

    def in_sigma(self, event: Event) -> bool:
        return event in self.mu

    def maximal_context_events(self) -> tuple[Event, ...]:
        """Images of the sections over maximal contexts, deduplicated, in order."""
        seen: dict[Event, None] = {}
        for context in self.model.scenario.maximal_contexts:
            for s in sections_over(self.model.scenario, context):
                seen.setdefault(self.transfer[s], None)
        return tuple(seen)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WpsRepresentation):
            return NotImplemented
        return (
            self.model == other.model
            and self.points == other.points
            and self.transfer == other.transfer
            and self.sigma_algebras == other.sigma_algebras
            and self.mu == other.mu
            and self.combinatorial == other.combinatorial
        )

    def __repr__(self) -> str:
        kind = "combinatorial" if self.combinatorial else "padded"
        return f"WpsRepresentation({kind}, |Y|={len(self.points)}, |Sigma|={len(self.sigma)})"


def _indices(event: Event):
    """The indices of an event's points, ascending."""
    if event < 0:
        raise DomainError("an event mask cannot be negative")
    while event:
        low = event & -event
        yield low.bit_length() - 1
        event ^= low


def _atoms(full: Event, generators: Iterable[Event]) -> list[Event]:
    """The atoms the generators generate on ``full``: its cells split by membership in each."""
    cells = [full] if full else []
    for generator in generators:
        cells = [part for cell in cells for part in (cell & generator, cell & ~generator) if part]
    return cells


def _subset_sums(parts: Sequence[int]) -> list[int]:
    """Entry j sums the parts at the set bits of j (an earlier entry plus one part).

    On disjoint masks, such as an algebra's atoms, the sums are the unions."""
    sums = [0]
    for part in parts:
        sums += [total + part for total in sums]
    return sums


def _null_cover(rep: WpsRepresentation) -> tuple[tuple[Event, ...], Event]:
    """The null maximal-context events and the excised ones in canonical order, and the points in none of them.

    The excised events hold the padding; a combinatorial representation has none."""
    report = excise(rep)
    nulls = rep.sorted_events(report.d1 | report.d2 | {e for e in rep.maximal_context_events() if rep.mu_of(e) == 0})
    return nulls, rep.sample_space & ~reduce(or_, nulls, 0)


# ---------------------------------------------------------------------------
# Padding specifications
# ---------------------------------------------------------------------------


class PadPoint:
    """One extra sample point and its single-measurement event memberships.

    ``memberships`` maps a measurement to the set of outcome events the pad
    point joins.  Measurements not mentioned get the empty set, which puts
    the point outside every outcome of that measurement.  A pad point must
    have at least one measurement with zero or at least two memberships,
    otherwise it would mimic an ordinary global section and pad nothing.
    """

    __slots__ = ("label", "memberships")

    def __init__(self, label: str, memberships: Mapping[object, Iterable]):
        self.label = str(label)
        self.memberships = {m: frozenset(os) for m, os in memberships.items()}


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_combinatorial_rep(model: EmpiricalModel, point_order: str = "canonical",
                            cap: int = DEFAULT_ENUMERATION_CAP) -> WpsRepresentation:
    """One sample point per global section; events are restriction classes."""
    rep, report = _build(model, pads=(), point_order=point_order, cap=cap)
    if not rep.combinatorial:
        raise InternalConsistencyError("unpadded construction must be combinatorial")
    verdict = _verify_rep(rep, report)
    if not verdict.ok:
        raise InternalConsistencyError(f"combinatorial construction failed verification: {verdict}")
    return rep


def build_padded_rep(model: EmpiricalModel, pads: Sequence[PadPoint],
                     point_order: str = "canonical",
                     cap: int = DEFAULT_ENUMERATION_CAP) -> WpsRepresentation:
    """Combinatorial construction plus measure-irrelevant padding points."""
    rep, report = _build(model, pads=tuple(pads), point_order=point_order, cap=cap)
    verdict = _verify_rep(rep, report)
    if not verdict.ok:
        conditions = ", ".join(sorted({f.condition for f in verdict.failures}))
        raise PaddingError(f"padding breaks required conditions: {conditions}")
    return rep


def _build(model: EmpiricalModel, pads: tuple[PadPoint, ...],
           point_order: str, cap: int) -> tuple[WpsRepresentation, CompatibilityReport]:
    """The representation, and the model's compatibility report for its self-verify."""
    scenario = model.scenario
    report = check_model(model)
    if not report.ok:
        raise CompatibilityError(report)

    if point_order not in ("canonical", "reversed"):
        raise DomainError(f"point_order must be 'canonical' or 'reversed', not {point_order!r}")
    check_global_section_cap(scenario, cap)
    alphabet = scenario.outcomes[::-1] if point_order == "reversed" else scenario.outcomes
    k, n = len(alphabet), len(scenario.measurements)
    # Point i is the i-th global section over ``alphabet``: the image of outcome
    # i of the p-th measurement is a run of k^(n-1-p) ones at bit i*k^(n-1-p),
    # repeated every k^(n-p) bits.  Pad points join the images their memberships name.
    points = [",".join(values) for values in itertools.product(map(str, alphabet), repeat=n)]
    runs = {x: k ** (n - 1 - p) for p, x in enumerate(scenario.measurements)}
    singleton = {(x, o): ((1 << k ** n) - 1) // ((1 << k * run) - 1) * ((1 << run) - 1) << i * run
                 for x, run in runs.items() for i, o in enumerate(alphabet)}
    for pad in pads:
        if pad.label in points:
            raise PaddingError(f"padding label {pad.label!r} collides with an existing point")
        for m, outcomes in pad.memberships.items():
            if m not in scenario.measurements:
                raise PaddingError(f"padding references unknown measurement {m!r}")
            for o in outcomes:
                if o not in scenario.outcomes:
                    raise PaddingError(f"padding references unknown outcome {o!r}")
        if all(len(pad.memberships.get(m, ())) == 1 for m in scenario.measurements):
            raise PaddingError(
                f"padding point {pad.label!r} mimics a global section and pads nothing"
            )
        for m, outcomes in pad.memberships.items():
            for o in outcomes:
                singleton[(m, o)] |= 1 << len(points)
        points.append(pad.label)

    # A context's images intersect those over the context less its last
    # measurement with a single-measurement image, in enumeration order; its
    # algebra sums exact values as integer numerators over one denominator.
    sample_space = (1 << len(points)) - 1
    transfer: dict[Section, Event] = {}
    images: dict[tuple, list[Event]] = {(): [sample_space]}
    algebras = []
    for context in all_contexts(scenario):
        if context:
            last = [singleton[(context[-1], o)] for o in scenario.outcomes]
            images[context] = [a & b for a in images[context[:-1]] for b in last]
        transfer.update(zip(sections_over(scenario, context), images[context]))
        atoms = _atoms(sample_space, (singleton[(x, o)] for x in context for o in scenario.outcomes))
        if 2 ** len(atoms) > cap:
            raise EnumerationCapError(2 ** len(atoms), cap, what="algebra members")
        algebras.append((context, atoms, _atom_values(model, context, atoms, singleton)))
    scale = math.lcm(*(v.denominator for _, _, values in algebras for v in values))
    sigma_algebras: dict[tuple, tuple[Event, ...]] = {}
    numerators: dict[Event, int] = {}
    for context, atoms, values in algebras:
        members = _subset_sums(atoms)
        sums = _subset_sums([v.numerator * (scale // v.denominator) for v in values])
        for event, total in zip(members, sums):
            previous = numerators.setdefault(event, total)
            if previous != total:
                raise InternalConsistencyError(
                    f"event valued {Fraction(previous, scale)} and {Fraction(total, scale)} "
                    "in different context algebras"
                )
        sigma_algebras[context] = tuple(members)
    value_of = {n: Fraction(n, scale) for n in set(numerators.values())}
    mu = {event: value_of[n] for event, n in numerators.items()}

    combinatorial = _is_combinatorial((images[(x,)] for x in scenario.measurements), sample_space)
    return WpsRepresentation(model, points, transfer, sigma_algebras, mu, combinatorial), report


def _atom_values(model, context, atoms, singleton) -> list[Fraction]:
    """Exact values for the atoms: context marginals on sectional cells, zero elsewhere.

    An atom is sectional when its points lie in exactly one outcome image of
    each measurement of the context; that section carries the atom's value.
    """
    scenario = model.scenario
    if not context:
        return [Fraction(1)]
    holder = next(c for c in scenario.maximal_contexts if set(context) <= set(c))
    marginal = marginalize(model.table(holder), context)
    values = []
    for atom in atoms:
        point = atom & -atom
        signature = [[o for o in scenario.outcomes if singleton[(x, o)] & point] for x in context]
        if all(len(held) == 1 for held in signature):
            values.append(marginal.weight(Section(context, tuple(h[0] for h in signature), scenario)))
        else:
            values.append(Fraction(0))
    return values


def _is_combinatorial(outcome_images: Iterable[list[Event]], sample_space: Event) -> bool:
    """Do each measurement's outcome images cover the sample space with sizes summing to its size?

    That puts every point in exactly one image of each measurement, and so of each context."""
    size = sample_space.bit_count()
    return all(reduce(or_, images, 0) == sample_space and sum(i.bit_count() for i in images) == size
               for images in outcome_images)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class RepVerdict(Record):
    __slots__ = ("ok", "failures", "warnings")

    def __init__(self, ok: bool, failures: tuple[Failure, ...], warnings: tuple[Failure, ...]):
        self._fill(ok, failures, warnings)

    def __str__(self) -> str:
        parts = [str(f) for f in self.failures] + [f"warning {w}" for w in self.warnings]
        return "; ".join(parts) if parts else "representation verified"


def verify_rep(rep: WpsRepresentation) -> RepVerdict:
    """Check each defining condition of a representation once, exactly.

    The conditions range over the sections over contexts, the only images
    stored, and are named as a failure names them: ``transfer-totality``
    (exactly those sections have images), ``empty-section-image`` (the empty
    section maps to the sample space Y), ``transfer-injectivity``,
    ``nonempty-image``, ``sheaf-intersection`` (an image is Y intersected
    with its single-measurement images, as ``rep.event`` is elsewhere),
    ``wc-closure`` (each context family is a Boolean algebra on Y, and
    every valued event lies in one),
    ``wc-measure`` (an exact probability measure on it), ``ec`` (each image
    carries its table value), ``me`` (distinct sections of one context
    overlap in a null event), ``model-compatibility`` (the tables agree on
    overlaps) and ``flag-accuracy``.

    Implied conditions are not checked again.  The sheaf condition and
    T(empty) = Y give T(s) <= T(s|U) for every restriction.  Under ``ec`` the
    dual marginalization and compatibility sums are marginals of the model's
    own tables, so they hold exactly when the tables agree on overlaps.

    The verdict lists each failed condition with a concrete counterexample.
    Out-of-range set-function values are reported as warnings, not failures.
    """
    return _verify_rep(rep, check_model(rep.model))


def _verify_rep(rep: WpsRepresentation, report: CompatibilityReport) -> RepVerdict:
    """:func:`verify_rep` given ``check_model(rep.model)``, which a builder has already run."""
    failures: list[Failure] = []
    warnings: list[Failure] = []
    scenario = rep.model.scenario
    full = rep.sample_space
    # Each value as an integer numerator over the values' common denominator.
    scale = math.lcm(*(v.denominator for v in rep.mu.values()))
    numerator = {event: v.numerator * (scale // v.denominator) for event, v in rep.mu.items()}

    def fail(condition: str, detail: str) -> None:
        failures.append(Failure(condition, detail))

    # transfer totality, with the stored images grouped by context, whose
    # sections the model's tables already hold
    stored: dict[tuple, list[tuple[Section, Event]]] = {}
    missing = 0
    for context in all_contexts(scenario):
        pairs = stored[context] = []
        for s in sections_over(scenario, context, cap=math.inf):
            if s in rep.transfer:
                pairs.append((s, rep.transfer[s]))
            else:
                missing += 1
                fail("transfer-totality", f"no image stored for {s}")
    known = {s for pairs in stored.values() for s, _ in pairs}
    for s in rep.transfer:
        if s not in known:
            fail("transfer-totality", f"image stored for {s}, which is not a section over a context")

    if stored[()] and stored[()][0][1] != full:
        fail("empty-section-image", "the empty section must map to the whole sample space")

    if len(scenario.outcomes) >= 2:
        images: dict[Event, Section] = {}
        for pairs in stored.values():
            for s, image in pairs:
                other = images.setdefault(image, s)
                if other is not s:
                    fail("transfer-injectivity", f"{other} and {s} share one image")
    else:
        warnings.append(Failure(
            "transfer-injectivity",
            "single-outcome scenario: every image is the whole space, injectivity is waived",
        ))

    # non-empty images and the intersection form of the sheaf condition
    for domain, pairs in stored.items():
        if not domain:
            continue
        for s, image in pairs:
            if not image:
                fail("nonempty-image", f"{s} has an empty image")
            intersection = rep._intersection(zip(domain, s.values))
            if intersection is not None and image != intersection:
                fail("sheaf-intersection",
                     f"{s}: image differs from the intersection of its single-measurement images")

    # per-context algebras: closure, exact probability measure, EC, ME; Y and
    # the empty set belong to every one, so their values are checked once
    if rep.mu.get(full) != 1:
        fail("wc-measure", f"whole space valued {rep.mu.get(full)}")
    if rep.mu.get(0) != 0:
        fail("wc-measure", "empty set has non-zero value")
    for context in all_contexts(scenario):
        if context not in rep.sigma_algebras:
            fail("wc-closure", f"no algebra stored for context {context!r}")
            continue
        members = set(rep.sigma_algebras[context])
        # A family of subsets of Y is a Boolean algebra exactly when it holds
        # every union of its membership classes, i.e. 2^(class count) members.
        atoms = _atoms(full, members)
        closure_ok = False
        if any(member & ~full for member in members):
            fail("wc-closure", f"a member of the algebra over {context!r} leaves the sample space")
        elif len(members) != 2 ** len(atoms):
            fail("wc-closure", f"algebra over {context!r} has {len(members)} members, "
                               f"not 2^{len(atoms)} for its {len(atoms)} atoms")
        else:
            closure_ok = True

        if any(a not in rep.mu for a in members):
            fail("wc-measure", f"no value stored for a member of the algebra over {context!r}")
            continue
        if closure_ok:
            # Under closure every non-empty member is the atom of its lowest
            # point plus a member with one atom fewer, so additivity over the
            # atoms holds exactly when each such split adds up.
            for member in members:
                low = member & -member
                atom = next((a for a in atoms if a & low), 0)
                if numerator[member] != numerator[member & ~atom] + numerator[atom]:
                    fail("wc-measure", f"additivity fails over {context!r}: member valued {rep.mu[member]}, "
                                       f"its lowest atom {rep.mu[atom]} and the rest {rep.mu[member & ~atom]}")
                    break

        holder = next(c for c in scenario.maximal_contexts if set(context) <= set(c))
        marginal = marginalize(rep.model.table(holder), context) if context else None
        pairs = stored[context]
        for s, image in pairs:
            expected = marginal.weight(s) if context else Fraction(1)
            if image not in rep.mu:
                fail("ec", f"image of {s} carries no value")
            elif rep.mu[image] != expected:
                fail("ec", f"value of {s} image is {rep.mu[image]}, tables give {expected}")

        for i, (s, a) in enumerate(pairs):
            for t, b in pairs[i + 1:]:
                inter = a & b
                if inter not in rep.mu:
                    fail("me", f"overlap of {s} and {t} is outside the event family")
                elif rep.mu[inter] != 0:
                    fail("me", f"overlap of {s} and {t} has value {rep.mu[inter]}")

    if stray := rep.mu.keys() - set().union(*rep.sigma_algebras.values()):
        fail("wc-closure", f"an event valued {rep.mu[min(stray)]} lies in no context algebra")
    if any(n < 0 for n in numerator.values()):
        fail("wc-measure", f"negative value {min(rep.mu.values())}")

    if not report.ok:
        fail("model-compatibility", str(report.failures[0]))

    # the combinatorial flag, decidable only once every image is stored
    if not missing:
        actual = _is_combinatorial(([image for _, image in stored[(x,)]] for x in scenario.measurements), full)
        if rep.combinatorial != actual:
            fail("flag-accuracy", f"combinatorial flag is {rep.combinatorial}, computed {actual}")

    for event, n in numerator.items():
        if n < 0 or n > scale:
            warnings.append(Failure("mu-range", f"value {rep.mu[event]} outside [0, 1]"))
            break

    return RepVerdict(not failures, tuple(failures), tuple(warnings))


# ---------------------------------------------------------------------------
# Excision
# ---------------------------------------------------------------------------


class ExcisionReport(Record):
    """Contradictory overlaps, outcome-free residues, and the surviving core."""

    __slots__ = ("d1", "d2", "z")

    def __init__(self, d1: frozenset[Event], d2: frozenset[Event], z: Event):
        self._fill(d1, d2, z)


def excise(rep: WpsRepresentation) -> ExcisionReport:
    """Remove contradictory and outcome-free events from the sample space.

    A core point lies in no overlap of two outcome events of one measurement
    and in no measurement's outcome-free residue, so it lies in exactly one
    outcome event per measurement and therefore in the image of the glued
    global section.
    """
    scenario = rep.model.scenario
    full = rep.sample_space
    d1: set[Event] = set()
    d2: set[Event] = set()
    for x in scenario.measurements:
        outcome_events = [rep.event(s) for s in sections_over(scenario, (x,))]
        for i, a in enumerate(outcome_events):
            for b in outcome_events[i + 1:]:
                inter = a & b
                if inter:
                    d1.add(inter)
        residue = full & ~reduce(or_, outcome_events, 0)
        if residue:
            d2.add(residue)
    z = full & ~reduce(or_, d1 | d2, 0)

    for event in d1 | d2:
        if rep.mu.get(event) != 0:
            raise InternalConsistencyError("an excised event is not measure zero")
    return ExcisionReport(frozenset(d1), frozenset(d2), z)


# ---------------------------------------------------------------------------
# Dual extension of events
# ---------------------------------------------------------------------------


def extend_event(rep: WpsRepresentation, event: Event, measurements: Iterable) -> Event:
    """Map the image of a section to the image of its restriction.

    The output contains the input: shrinking the domain of a section grows
    its event.
    """
    target = rep.model.scenario.canonical_context(measurements)
    return rep.event(restrict(rep.section_of(event), target))
