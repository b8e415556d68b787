"""Weak-probability-space representations of empirical models.

A representation carries a finite sample space, an injective event-transfer
map sending each section to a subset of the sample space, the event family
(one finite algebra per context, glued into a single set family), and an
exact set function on that family.  The transfer map on a multi-measurement
section is always the intersection of its single-measurement images, which
is the set-theoretic image of the fact that a section is determined by its
restrictions.

Two constructions are provided.  The combinatorial one uses one sample
point per global section; it satisfies the two extra combinatorial
conditions (strong mutual exclusivity and exhaustiveness).  The padded one
adds measure-irrelevant points lying in contradictory same-measurement
overlaps or outside every outcome of some measurement, which breaks the
combinatorial conditions while preserving the per-context probability
spaces, empirical consistency, and mutual exclusivity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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
from .scenario import Section, all_contexts, glue, restrict, sections_over

Event = frozenset


# ---------------------------------------------------------------------------
# The representation object
# ---------------------------------------------------------------------------


class WpsRepresentation:
    """Sample space, event transfer, event family, and exact set function."""

    __slots__ = (
        "model", "points", "transfer", "sigma", "sigma_algebras", "mu",
        "combinatorial", "_point_index", "_section_of",
    )

    def __init__(self, model: EmpiricalModel, points: Sequence[str],
                 transfer: Mapping[Section, Event],
                 sigma_algebras: Mapping[tuple, tuple[Event, ...]],
                 mu: Mapping[Event, Fraction],
                 combinatorial: bool):
        self.model = model
        self.points = tuple(points)
        self.transfer = dict(transfer)
        self.sigma_algebras = {c: tuple(members) for c, members in sigma_algebras.items()}
        self.sigma = frozenset(e for members in self.sigma_algebras.values() for e in members)
        self.mu = dict(mu)
        self.combinatorial = combinatorial
        self._point_index = {p: i for i, p in enumerate(self.points)}
        if len(self._point_index) != len(self.points):
            raise InternalConsistencyError("duplicate sample-space point labels")
        reverse: dict[Event, Section] = {}
        for section, event in self.transfer.items():
            reverse.setdefault(event, section)
        self._section_of = reverse

    # -- canonical orderings -------------------------------------------------

    def point_index(self, label: str) -> int:
        try:
            return self._point_index[label]
        except KeyError:
            raise DomainError(f"unknown sample point {label!r}") from None

    def event_key(self, event: Event) -> tuple[int, ...]:
        return tuple(sorted(self.point_index(p) for p in event))

    def sorted_events(self, events: Iterable[Event]) -> tuple[Event, ...]:
        return tuple(sorted(set(events), key=self.event_key))

    def sorted_points(self, event: Event) -> tuple[str, ...]:
        return tuple(sorted(event, key=self.point_index))

    # -- lookups ---------------------------------------------------------------

    @property
    def sample_space(self) -> Event:
        return frozenset(self.points)

    def event(self, section: Section) -> Event:
        try:
            return self.transfer[section]
        except KeyError:
            raise NotAnEventError(f"no event image stored for {section}") from None

    def section_of(self, event: Event) -> Section:
        try:
            return self._section_of[frozenset(event)]
        except KeyError:
            raise NotAnEventError("the set is not the image of any section") from None

    def mu_of(self, event: Event) -> Fraction:
        try:
            return self.mu[frozenset(event)]
        except KeyError:
            raise NotAnEventError("the set is not a member of the event family") from None

    def in_sigma(self, event: Event) -> bool:
        return frozenset(event) in self.mu

    def maximal_context_events(self) -> tuple[Event, ...]:
        """Images of the sections over maximal contexts, deduplicated, in order."""
        seen: dict[Event, None] = {}
        for context in self.model.scenario.maximal_contexts:
            for s in sections_over(self.model.scenario, context):
                seen.setdefault(self.transfer[s], None)
        return tuple(seen)

    def context_atoms(self, context: tuple) -> tuple[Event, ...]:
        """Minimal non-empty members of one context algebra, in canonical order."""
        members = self.sigma_algebras[context]
        return self.sorted_events(_atoms_of_family(self.points, members))

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


def build_combinatorial_rep(model: EmpiricalModel, point_order: str | Sequence[Section] = "canonical",
                            cap: int = DEFAULT_ENUMERATION_CAP) -> WpsRepresentation:
    """One sample point per global section; events are restriction classes."""
    rep, report = _build(model, pads=(), point_order=point_order, cap=cap)
    if not rep.combinatorial:
        raise InternalConsistencyError("unpadded construction must be combinatorial")
    verdict = _verify_rep(rep, DEFAULT_ENUMERATION_CAP, report)
    if not verdict.ok:
        raise InternalConsistencyError(f"combinatorial construction failed verification: {verdict}")
    return rep


def build_padded_rep(model: EmpiricalModel, pads: Sequence[PadPoint],
                     point_order: str | Sequence[Section] = "canonical",
                     cap: int = DEFAULT_ENUMERATION_CAP) -> WpsRepresentation:
    """Combinatorial construction plus measure-irrelevant padding points."""
    rep, report = _build(model, pads=tuple(pads), point_order=point_order, cap=cap)
    verdict = _verify_rep(rep, DEFAULT_ENUMERATION_CAP, report)
    if not verdict.ok:
        conditions = ", ".join(sorted({f.condition for f in verdict.failures}))
        raise PaddingError(f"padding breaks required conditions: {conditions}")
    return rep


def _global_point_label(section: Section) -> str:
    return ",".join(str(o) for o in section.values)


def _build(model: EmpiricalModel, pads: tuple[PadPoint, ...],
           point_order: str | Sequence[Section], cap: int) -> tuple[WpsRepresentation, CompatibilityReport]:
    """The representation, and the model's compatibility report for its self-verify."""
    scenario = model.scenario
    report = check_model(model)
    if not report.ok:
        raise CompatibilityError(report)

    section_count = (len(scenario.outcomes) + 1) ** len(scenario.measurements)
    if section_count > cap:
        raise EnumerationCapError(section_count, cap, what="sections across all domains")

    if point_order == "canonical":
        base_sections = scenario.global_sections(cap=cap)
    elif point_order == "reversed":
        base_sections = tuple(reversed(scenario.global_sections(cap=cap)))
    else:
        base_sections = tuple(point_order)
        if sorted(base_sections, key=lambda s: s.sort_key()) != sorted(
            scenario.global_sections(cap=cap), key=lambda s: s.sort_key()
        ):
            raise DomainError("point_order must enumerate exactly the global sections")

    base_labels = {s: _global_point_label(s) for s in base_sections}
    points = [base_labels[s] for s in base_sections]

    pad_memberships: dict[str, dict] = {}
    for pad in pads:
        if pad.label in points or pad.label in pad_memberships:
            raise PaddingError(f"padding label {pad.label!r} collides with an existing point")
        memberships = {}
        for m, outcomes in pad.memberships.items():
            if m not in scenario.measurements:
                raise PaddingError(f"padding references unknown measurement {m!r}")
            for o in outcomes:
                if o not in scenario.outcomes:
                    raise PaddingError(f"padding references unknown outcome {o!r}")
            memberships[m] = frozenset(outcomes)
        full = {m: memberships.get(m, frozenset()) for m in scenario.measurements}
        if all(len(v) == 1 for v in full.values()):
            raise PaddingError(
                f"padding point {pad.label!r} mimics a global section and pads nothing"
            )
        pad_memberships[pad.label] = full
        points.append(pad.label)

    # Transfer map: single-measurement images first, intersections above.
    transfer: dict[Section, Event] = {scenario.empty_section(): frozenset(points)}
    singleton: dict[tuple, Event] = {}
    for x in scenario.measurements:
        for s in sections_over(scenario, (x,)):
            o = s.values[0]
            members = {base_labels[g] for g in base_sections if g.value(x) == o}
            members.update(
                label for label, ms in pad_memberships.items() if o in ms[x]
            )
            event = frozenset(members)
            transfer[s] = event
            singleton[(x, o)] = event
    for size in range(2, len(scenario.measurements) + 1):
        for domain in itertools.combinations(scenario.measurements, size):
            for s in sections_over(scenario, domain, cap=cap):
                event = singleton[(domain[0], s.values[0])]
                for m, o in zip(domain[1:], s.values[1:]):
                    event = event & singleton[(m, o)]
                transfer[s] = event

    # Event family: one finite algebra per context, with exact values.
    sigma_algebras: dict[tuple, tuple[Event, ...]] = {}
    mu: dict[Event, Fraction] = {}
    for context in all_contexts(scenario):
        atoms = _signature_atoms(points, scenario, context, singleton, pad_memberships, base_labels)
        if 2 ** len(atoms) > cap:
            raise EnumerationCapError(2 ** len(atoms), cap, what="algebra members")
        values = _atom_values(model, scenario, context, atoms)
        members = []
        for r in range(len(atoms) + 1):
            for chosen in itertools.combinations(range(len(atoms)), r):
                event = frozenset().union(*(atoms[i][0] for i in chosen)) if chosen else frozenset()
                value = sum((values[i] for i in chosen), Fraction(0))
                members.append(event)
                previous = mu.setdefault(event, value)
                if previous != value:
                    raise InternalConsistencyError(
                        f"event valued {previous} and {value} in different context algebras"
                    )
        order = {p: i for i, p in enumerate(points)}
        members = sorted(set(members), key=lambda e: tuple(sorted(order[p] for p in e)))
        sigma_algebras[context] = tuple(members)

    combinatorial = _is_combinatorial(points, scenario, transfer, cap)
    return WpsRepresentation(model, points, transfer, sigma_algebras, mu, combinatorial), report


def _signature_atoms(points, scenario, context, singleton, pad_memberships, base_labels):
    """Partition the sample space by membership in the context's outcome events.

    Returns a list of ``(cell, section_or_None)`` pairs where the section is
    set when the cell's signature picks exactly one outcome per measurement.
    """
    if not context:
        return [(frozenset(points), None)]
    cells: dict[tuple, set] = {}
    for p in points:
        signature = tuple(
            frozenset(o for o in scenario.outcomes if p in singleton[(x, o)])
            for x in context
        )
        cells.setdefault(signature, set()).add(p)
    atoms = []
    for signature in sorted(cells, key=lambda sig: tuple(tuple(sorted(map(scenario.outcomes.index, s))) for s in sig)):
        if all(len(s) == 1 for s in signature):
            section = scenario.section({x: next(iter(s)) for x, s in zip(context, signature)})
        else:
            section = None
        atoms.append((frozenset(cells[signature]), section))
    return atoms


def _atom_values(model, scenario, context, atoms):
    """Exact values for the atoms: context marginals on sectional cells, zero elsewhere."""
    if not context:
        return [Fraction(1)]
    holder = next(c for c in scenario.maximal_contexts if set(context) <= set(c))
    marginal = marginalize(model.table(holder), context)
    return [marginal.weight(section) if section is not None else Fraction(0)
            for _, section in atoms]


def _is_combinatorial(points, scenario, transfer, cap) -> bool:
    full = frozenset(points)
    for size in range(1, len(scenario.measurements) + 1):
        for domain in itertools.combinations(scenario.measurements, size):
            sections = sections_over(scenario, domain, cap=cap)
            union: set = set()
            for i, s in enumerate(sections):
                image = transfer[s]
                union.update(image)
                for t in sections[i + 1:]:
                    if image & transfer[t]:
                        return False
            if frozenset(union) != full:
                return False
    return True


def _atoms_of_family(points, members) -> list[Event]:
    """Equivalence classes of points under membership in a set family."""
    cells: dict[tuple, set] = {}
    member_list = list(members)
    for p in points:
        signature = tuple(p in m for m in member_list)
        cells.setdefault(signature, set()).add(p)
    return [frozenset(cell) for cell in cells.values()]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepFailure:
    condition: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.condition}] {self.detail}"


@dataclass(frozen=True)
class RepVerdict:
    ok: bool
    failures: tuple[RepFailure, ...]
    warnings: tuple[RepFailure, ...]

    def __str__(self) -> str:
        if self.ok and not self.warnings:
            return "representation verified"
        parts = [str(f) for f in self.failures] + [f"warning {w}" for w in self.warnings]
        return "; ".join(parts) if parts else "representation verified"


def verify_rep(rep: WpsRepresentation, cap: int = DEFAULT_ENUMERATION_CAP) -> RepVerdict:
    """Check each defining condition of a representation once, exactly.

    The conditions, named as a failure names them: ``transfer-totality``
    (every section has an image), ``empty-section-image`` (the empty section
    maps to the sample space Y), ``transfer-injectivity``, ``nonempty-image``,
    ``sheaf-intersection`` (an image is Y intersected with its
    single-measurement images), ``wc-closure`` (each context family is a
    Boolean algebra on Y), ``wc-measure`` (an exact probability measure on
    it), ``ec`` (each image carries its table value), ``me`` (distinct
    sections of one context overlap in a null event), ``model-compatibility``
    (the tables agree on overlaps) and ``flag-accuracy``.

    Implied conditions are not checked again.  The sheaf condition and
    T(empty) = Y give T(s) <= T(s|U) for every restriction.  Under ``ec`` the
    dual marginalization and compatibility sums are marginals of the model's
    own tables, so they hold exactly when the tables agree on overlaps.

    The verdict lists each failed condition with a concrete counterexample.
    Out-of-range set-function values are reported as warnings, not failures.
    """
    return _verify_rep(rep, cap, check_model(rep.model))


def _verify_rep(rep: WpsRepresentation, cap: int, report: CompatibilityReport) -> RepVerdict:
    """:func:`verify_rep` given ``check_model(rep.model)``, which a builder has already run."""
    failures: list[RepFailure] = []
    warnings: list[RepFailure] = []
    scenario = rep.model.scenario
    full = rep.sample_space

    def fail(condition: str, detail: str) -> None:
        failures.append(RepFailure(condition, detail))

    # transfer totality and the intersection form of the sheaf condition
    all_sections: list[Section] = []
    for size in range(0, len(scenario.measurements) + 1):
        for domain in itertools.combinations(scenario.measurements, size):
            for s in sections_over(scenario, domain, cap=cap):
                all_sections.append(s)
                if s not in rep.transfer:
                    fail("transfer-totality", f"no image stored for {s}")

    stored = [s for s in all_sections if s in rep.transfer]

    empty = scenario.empty_section()
    if empty in rep.transfer and rep.transfer[empty] != full:
        fail("empty-section-image", "the empty section must map to the whole sample space")

    if len(scenario.outcomes) >= 2:
        images: dict[Event, Section] = {}
        for s in stored:
            other = images.setdefault(rep.transfer[s], s)
            if other != s:
                fail("transfer-injectivity", f"{other} and {s} share one image")
    else:
        warnings.append(RepFailure(
            "transfer-injectivity",
            "single-outcome scenario: every image is the whole space, injectivity is waived",
        ))

    for s in stored:
        if not s.domain:
            continue
        image = rep.transfer[s]
        if not image:
            fail("nonempty-image", f"{s} has an empty image")
        pieces = [rep.transfer.get(Section((x,), (o,), scenario)) for x, o in zip(s.domain, s.values)]
        if None not in pieces and image != full.intersection(*pieces):
            fail("sheaf-intersection", f"{s}: image differs from the intersection of its single-measurement images")

    # per-context algebras: closure, exact probability measure, EC, ME
    for context in all_contexts(scenario):
        if context not in rep.sigma_algebras:
            fail("wc-closure", f"no algebra stored for context {context!r}")
            continue
        members = set(rep.sigma_algebras[context])
        # A family of subsets of Y is a Boolean algebra exactly when it holds
        # every union of its membership classes, i.e. 2^(class count) members.
        atoms = _atoms_of_family(rep.points, members)
        closure_ok = False
        if not all(a <= full for a in members):
            fail("wc-closure", f"a member of the algebra over {context!r} leaves the sample space")
        elif len(members) != 2 ** len(atoms):
            fail("wc-closure", f"algebra over {context!r} has {len(members)} members, "
                               f"not 2^{len(atoms)} for its {len(atoms)} atoms")
        else:
            closure_ok = True

        if any(a not in rep.mu for a in members):
            fail("wc-measure", f"no value stored for a member of the algebra over {context!r}")
            continue
        if rep.mu.get(full) != 1:
            fail("wc-measure", f"whole space valued {rep.mu.get(full)} in context {context!r}")
        if rep.mu.get(frozenset()) != 0:
            fail("wc-measure", "empty set has non-zero value")
        if closure_ok:
            for member in members:
                total = sum((rep.mu[a] for a in atoms if a <= member), Fraction(0))
                if total != rep.mu[member]:
                    fail("wc-measure",
                         f"additivity fails over {context!r}: member valued {rep.mu[member]}, atoms sum to {total}")
                    break
        for a in members:
            if rep.mu[a] < 0:
                fail("wc-measure", f"negative value {rep.mu[a]} in context {context!r}")
                break

        holder = next(c for c in scenario.maximal_contexts if set(context) <= set(c))
        marginal = marginalize(rep.model.table(holder), context) if context else None
        for s in sections_over(scenario, context, cap=cap):
            image = rep.transfer.get(s)
            if image is None:
                continue
            expected = marginal.weight(s) if context else Fraction(1)
            if image not in rep.mu:
                fail("ec", f"image of {s} carries no value")
            elif rep.mu[image] != expected:
                fail("ec", f"value of {s} image is {rep.mu[image]}, tables give {expected}")

        context_sections = sections_over(scenario, context, cap=cap)
        for i, s in enumerate(context_sections):
            for t in context_sections[i + 1:]:
                a, b = rep.transfer.get(s), rep.transfer.get(t)
                if a is None or b is None:
                    continue
                inter = a & b
                if inter not in rep.mu:
                    fail("me", f"overlap of {s} and {t} is outside the event family")
                elif rep.mu[inter] != 0:
                    fail("me", f"overlap of {s} and {t} has value {rep.mu[inter]}")

    if not report.ok:
        fail("model-compatibility", str(report.failures[0]))

    # the combinatorial flag, decidable only once every image is stored
    if len(stored) == len(all_sections):
        actual = _is_combinatorial(rep.points, scenario, rep.transfer, cap)
        if rep.combinatorial != actual:
            fail("flag-accuracy", f"combinatorial flag is {rep.combinatorial}, computed {actual}")

    for event, value in rep.mu.items():
        if value < 0 or value > 1:
            warnings.append(RepFailure("mu-range", f"value {value} outside [0, 1]"))
            break

    return RepVerdict(not failures, tuple(failures), tuple(warnings))


# ---------------------------------------------------------------------------
# Excision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExcisionReport:
    """Contradictory overlaps, outcome-free residues, and the surviving core."""

    d1: frozenset[Event]
    d2: frozenset[Event]
    z: Event


def excise(rep: WpsRepresentation, cap: int = DEFAULT_ENUMERATION_CAP) -> ExcisionReport:
    """Remove contradictory and outcome-free events from the sample space.

    Every point of the surviving core lies in exactly one outcome event per
    measurement and therefore in the image of the glued global section;
    this is asserted pointwise.
    """
    scenario = rep.model.scenario
    full = rep.sample_space
    d1: set[Event] = set()
    d2: set[Event] = set()
    for x in scenario.measurements:
        outcome_events = [rep.transfer[s] for s in sections_over(scenario, (x,), cap=cap)]
        for i, a in enumerate(outcome_events):
            for b in outcome_events[i + 1:]:
                inter = a & b
                if inter:
                    d1.add(inter)
        residue = full - frozenset().union(*outcome_events)
        if residue:
            d2.add(residue)
    removed = frozenset().union(*(d1 | d2)) if (d1 | d2) else frozenset()
    z = full - removed

    for event in d1 | d2:
        if rep.mu.get(event) != 0:
            raise InternalConsistencyError("an excised event is not measure zero")

    for p in sorted(z, key=rep.point_index):
        locals_: list[Section] = []
        for x in scenario.measurements:
            holding = [s for s in sections_over(scenario, (x,), cap=cap) if p in rep.transfer[s]]
            if len(holding) != 1:
                raise InternalConsistencyError(
                    f"core point {p!r} lies in {len(holding)} outcome events of {x!r}"
                )
            locals_.append(holding[0])
        if p not in rep.transfer[glue(locals_)]:
            raise InternalConsistencyError(f"core point {p!r} escapes its glued global image")

    return ExcisionReport(frozenset(d1), frozenset(d2), z)


# ---------------------------------------------------------------------------
# Dual extension of events
# ---------------------------------------------------------------------------


def extend_event(rep: WpsRepresentation, event: Event, measurements: Iterable) -> Event:
    """Map the image of a section to the image of its restriction.

    The output contains the input: shrinking the domain of a section grows
    its event.
    """
    section = rep.section_of(event)
    target = rep.model.scenario.canonical_context(measurements)
    extra = set(target) - set(section.domain)
    if extra:
        raise DomainError(f"cannot extend to {sorted(map(repr, extra))}: outside the section's domain")
    return rep.transfer[restrict(section, target)]
