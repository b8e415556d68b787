"""Subadditivity defects, violation witnesses, and classical extensions.

The defect of a finite collection of events is the value of its union minus
the sum of its members' values.  Positive defect on some collection breaks
subadditivity; defect one with a union of full measure is the maximal
break; and a disjoint collection with non-zero defect breaks additivity
outright.  The witness constructions here mirror the excision argument:
contradictory overlaps and outcome-free residues are measure zero, every
surviving core point lives inside the image of a unique global section, and
the tier of the underlying model dictates how cheaply the core can be
covered by null events.

Everything in this module is exact.  Where a claim quantifies over all
monotonic extensions it is decided by the feasibility system over global
sections, whose Farkas certificate is attached to the witness, and one
concrete extension, the monotone envelope, names the failing marginal.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Optional

from . import classifier, dutchbook, extensions
from .errors import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    InternalConsistencyError,
    NonCombinatorialError,
    NotAnExtensionError,
    UnionNotEvaluableError,
)
from .record import Failure, Record
from .scenario import Section, global_section_columns, sections_over
from .wps import Event, WpsRepresentation, _atoms, _indices, _null_cover, _subset_sums, excise

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Defect and additive covers
# ---------------------------------------------------------------------------


def defect(rep: WpsRepresentation, collection: Iterable[Event], extension=None) -> Fraction:
    """Value of the union minus the sum of member values.

    Without an extension, members must belong to the event family and the
    union must itself carry a value there (for combinatorial representations
    every union of one context's cells does; anything else has no canonical
    additive value and is rejected).  With an extension, values are taken
    from it.
    """
    events = list(dict.fromkeys(collection))
    union = reduce(or_, events, 0)
    if extension is None:
        # mu_of raises NotAnEventError for a member outside the event family.
        member_sum = sum((rep.mu_of(e) for e in events), ZERO)
        if not rep.in_sigma(union):
            raise UnionNotEvaluableError("the union of the collection carries no value in the event family")
        union_value = rep.mu_of(union)
    else:
        union_value = extension.value(union)
        member_sum = sum((extension.value(e) for e in events), ZERO)
    return union_value - member_sum


class AdditiveCover:
    """Mutually disjoint events covering the sample space with zero defect."""

    __slots__ = ("events",)

    def __init__(self, rep: WpsRepresentation, events: Iterable[Event]):
        events = rep.sorted_events(events)
        for i, a in enumerate(events):
            for b in events[i + 1:]:
                if a & b:
                    raise InternalConsistencyError("additive cover members overlap")
        if reduce(or_, events, 0) != rep.sample_space:
            raise InternalConsistencyError("additive cover does not cover the sample space")
        if defect(rep, events) != 0:
            raise InternalConsistencyError("additive cover has non-zero defect")
        self.events = events


def subadditivity_violation_by_cover(rep: WpsRepresentation) -> Optional[ViolationWitness]:
    """A family cover of the sample space cheaper than the space itself, if any.

    Such a cover is a subadditivity violation whose union is the whole
    sample space, and its existence rules out every subadditive extension:
    any subadditive value for the space would be bounded by the cover's
    total weight.  Decided exactly by minimum-weight set cover.
    """
    events, total = extensions.cheapest_cover_of_space(rep)
    if total >= rep.mu_of(rep.sample_space):
        return None
    witness = ViolationWitness(ViolationKind.SUBADDITIVITY, events, defect(rep, events))
    if witness.defect != rep.mu_of(rep.sample_space) - total:
        raise InternalConsistencyError("cover witness defect disagrees with the solver total")
    return witness


# ---------------------------------------------------------------------------
# Witness objects
# ---------------------------------------------------------------------------


class ViolationKind(Enum):
    MAXIMAL_SUBADDITIVITY = "MaximalSubadditivity"
    SUBADDITIVITY = "Subadditivity"
    MONOTONIC_ADDITIVITY = "MonotonicAdditivity"

    def __str__(self) -> str:
        return self.value


class MarginalizationFailure(Record):
    """A maximal-context event whose value no extension recovers by summation."""

    __slots__ = ("context", "section", "event", "extension_kind", "certificate")

    def __init__(self, context: tuple, section: Section, event: Event, extension_kind: str,
                 certificate: Optional[classifier.GlobalDistributionCertificate]):
        self._fill(context, section, event, extension_kind, certificate)


class CoveredSupportEvent(Record):
    """A positive-measure event swallowed by the union of null events."""

    __slots__ = ("context", "section", "event")

    def __init__(self, context: tuple, section: Section, event: Event):
        self._fill(context, section, event)


class ViolationWitness(Record):
    __slots__ = ("kind", "collection", "defect", "support_data")

    def __init__(self, kind: ViolationKind, collection: tuple[Event, ...], defect: Fraction, support_data: object = None):
        self._fill(kind, collection, defect, support_data)

    def __str__(self) -> str:
        return f"{self.kind} witness: {len(self.collection)} events, defect {self.defect}"


def verify_witness(rep: WpsRepresentation, witness: ViolationWitness) -> bool:
    """Recompute a witness's defect and kind constraints from scratch; an additivity
    witness must name the envelope's failure and carry a certificate that verifies."""
    if witness.kind is ViolationKind.MAXIMAL_SUBADDITIVITY:
        if any(rep.mu_of(e) != 0 for e in witness.collection):
            return False
        if reduce(or_, witness.collection, 0) != rep.sample_space:
            return False
        return defect(rep, witness.collection) == witness.defect == 1
    if witness.kind is ViolationKind.SUBADDITIVITY:
        return defect(rep, witness.collection) == witness.defect > 0
    data = witness.support_data
    if not isinstance(data, MarginalizationFailure) or data.extension_kind != extensions.EnvelopeExtension.kind:
        return False
    # Only a maximal context and a section over it name a row.  Its core parts
    # are atoms, so a collection equal to them is pairwise disjoint.
    if data.context not in rep.model.scenario.maximal_contexts or data.section.domain != data.context:
        return False
    if witness.collection != core_parts(rep, data.section):
        return False
    value = defect(rep, witness.collection, extension=extensions.EnvelopeExtension(rep))
    return value == witness.defect != 0 and data.certificate is not None and data.certificate.verify(rep.model)


# ---------------------------------------------------------------------------
# Excision-based witness constructions (work on any representation)
# ---------------------------------------------------------------------------


def core_parts(rep: WpsRepresentation, section: Section, core: Optional[Event] = None) -> tuple[Event, ...]:
    """Core parts of the global-section events extending a section, in canonical order.

    A core point lies in one outcome image per measurement, so the atoms that
    the single-measurement images cut from the section's core are the cores
    of the extending global sections' images.  Pass ``excise(rep).z`` as
    ``core`` to share one excision across sections.
    """
    if core is None:
        core = excise(rep).z
    singles = (e for s, e in rep.transfer.items() if len(s.domain) == 1)
    # The parts are pairwise disjoint, so their lowest points give the canonical order.
    return tuple(sorted(_atoms(rep.event(section) & core, singles), key=lambda e: e & -e))


def marginalization_failure(rep: WpsRepresentation, extension,
                            certificate: Optional[classifier.GlobalDistributionCertificate] = None
                            ) -> Optional[tuple[MarginalizationFailure, tuple[Event, ...], Fraction]]:
    """First maximal-context event whose extension values fail to sum to it.

    Scans contexts and sections in canonical order; returns the failure
    record, the disjoint collection of core parts of the extending global
    sections, and its (non-zero) defect under the extension.
    """
    core = excise(rep).z
    for context, section in global_section_columns(rep.model.scenario).rows:
        parts = core_parts(rep, section, core)
        value = defect(rep, parts, extension=extension)
        if value != 0:
            record = MarginalizationFailure(context, section, rep.event(section), extension.kind, certificate)
            return record, parts, value
    return None


def _additivity_witness(rep: WpsRepresentation,
                        certificate: classifier.GlobalDistributionCertificate) -> ViolationWitness:
    """The monotone envelope's first marginalization failure, with the certificate
    that every monotonic extension fails somewhere; the envelope is one of them."""
    found = marginalization_failure(rep, extensions.EnvelopeExtension(rep), certificate=certificate)
    if found is None:
        raise InternalConsistencyError("infeasible system but every envelope marginal matched")
    record, parts, value = found
    return ViolationWitness(ViolationKind.MONOTONIC_ADDITIVITY, parts, value, record)


def _maximal_witness(rep: WpsRepresentation, nulls: tuple[Event, ...]) -> ViolationWitness:
    """Null events covering the sample space: defect exactly one."""
    if reduce(or_, nulls, 0) != rep.sample_space:
        raise InternalConsistencyError("null collection fails to cover the sample space")
    value = defect(rep, nulls)
    if value != 1:
        raise InternalConsistencyError(f"maximal witness has defect {value}")
    return ViolationWitness(ViolationKind.MAXIMAL_SUBADDITIVITY, nulls, value)


def _covered_support_witness(rep: WpsRepresentation, nulls: tuple[Event, ...],
                             section: Section) -> ViolationWitness:
    """The null events and the other section images of one context: positive defect."""
    others = [rep.event(s) for s in sections_over(rep.model.scenario, section.domain) if s != section]
    collection = rep.sorted_events([*nulls, *others])
    value = defect(rep, collection)
    if value <= 0:
        raise InternalConsistencyError(f"subadditivity witness has defect {value}")
    data = CoveredSupportEvent(section.domain, section, rep.event(section))
    return ViolationWitness(ViolationKind.SUBADDITIVITY, collection, value, data)


def witness_from_verdict(rep: WpsRepresentation, verdict: classifier.TierVerdict) -> ViolationWitness:
    """The violation witness of a verdict on the representation's model, which is asked nothing again.

    Strong: null events covering the sample space, defect one.  Logical:
    those null events and the other images of the witness section's context,
    defect its weight.  Probabilistic: core parts that the monotone envelope
    fails to add up, with the certificate that every monotonic extension
    fails somewhere.  Each builder checks its collection.
    """
    classifier._refuse_noncontextual(verdict.tier)
    if verdict.tier is classifier.Tier.PROBABILISTIC:
        return _additivity_witness(rep, verdict.certificate)
    nulls, _ = _null_cover(rep)
    if verdict.tier is classifier.Tier.STRONG:
        return _maximal_witness(rep, nulls)
    return _covered_support_witness(rep, nulls, verdict.logical_witness)


def tier_violation_witness(rep: WpsRepresentation, tier: classifier.Tier,
                           cap: int = DEFAULT_ENUMERATION_CAP) -> ViolationWitness:
    """Build the violation witness certifying a contextuality tier.

    The representation's model must have the named property (a strongly
    contextual model has all three).  Only that tier's question is asked;
    :func:`witness_from_verdict` builds the witness from its answer.
    """
    return witness_from_verdict(rep, classifier._tier_verdict(rep.model, tier, cap))


# ---------------------------------------------------------------------------
# Maximal-context-event violations on combinatorial representations
# ---------------------------------------------------------------------------


def _require_combinatorial(rep: WpsRepresentation) -> None:
    if not rep.combinatorial:
        raise NonCombinatorialError("this check applies to combinatorial representations only")


def strong_subadditivity_violation(rep: WpsRepresentation) -> tuple[bool, Optional[ViolationWitness]]:
    """Do the measure-zero maximal-context events cover the sample space?"""
    _require_combinatorial(rep)
    nulls, clean = _null_cover(rep)
    if clean:
        return False, None
    return True, _maximal_witness(rep, nulls)


def logical_subadditivity_violation(rep: WpsRepresentation) -> tuple[bool, Optional[ViolationWitness]]:
    """Do the null maximal-context events swallow some positive-measure one?

    The cover completing the witness is always one maximal context's own
    family of section images, taking the canonically least context and
    section exhibiting the violation.
    """
    _require_combinatorial(rep)
    nulls, clean = _null_cover(rep)
    for _, section in global_section_columns(rep.model.scenario).rows:
        event = rep.event(section)
        if rep.mu_of(event) > 0 and not event & clean:
            return True, _covered_support_witness(rep, nulls, section)
    return False, None


def additivity_violation(rep: WpsRepresentation) -> tuple[bool, Optional[ViolationWitness]]:
    """Must every monotonic extension break additivity on maximal-context events?

    Decided exactly by the model's global-section solve, whose Farkas
    certificate must also separate the representation's own maximal-context
    values; it is attached to the witness, together with the
    marginalization failure of the monotone envelope.
    """
    _require_combinatorial(rep)
    _, certificate = dutchbook._maximal_context_membership(rep)
    if certificate is None:
        return False, None
    return True, _additivity_witness(rep, certificate)


# ---------------------------------------------------------------------------
# Classical extensions
# ---------------------------------------------------------------------------


def has_classical_extension(rep: WpsRepresentation) -> Optional[dict[str, Fraction]]:
    """Point weights reproducing every family value, or None.

    A probability-space extension of the representation exists exactly when
    the set function is a convex combination of the point functionals on
    the whole event family, so this is :func:`convexity_membership` with
    its default restriction (algebra atoms decide, every family member is
    re-checked).
    """
    return dutchbook.convexity_membership(rep)


# ---------------------------------------------------------------------------
# Extension verification
# ---------------------------------------------------------------------------


class ExtensionVerdict(Record):
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple[Failure, ...]):
        self._fill(ok, failures)

    def __str__(self) -> str:
        return "extension verified" if self.ok else "; ".join(map(str, self.failures))


def verify_extension(rep: WpsRepresentation, candidate, kind: str = "monotonic",
                     cap: int = DEFAULT_ENUMERATION_CAP) -> ExtensionVerdict:
    """Check that a candidate extends the representation and behaves as claimed.

    ``kind`` is "monotonic" or "classical".  A candidate that disagrees
    with the stored values, or whose explicit domain misses part of the
    generated algebra, raises :class:`NotAnExtensionError`.  Explicit
    candidates are checked exhaustively over their domain; functional
    candidates (whose domain is the whole power set) are checked on every
    family member, every one-point enlargement of a family member, and all
    disjoint family pairs.
    """
    if kind not in ("monotonic", "classical"):
        raise ValueError("kind must be 'monotonic' or 'classical'")
    events = rep.sorted_events(rep.sigma)
    for event in events:
        if candidate.value(event) != rep.mu_of(event):
            raise NotAnExtensionError(
                f"candidate values an event at {candidate.value(event)}, stored {rep.mu_of(event)}"
            )

    def failed(condition: str, detail: str) -> ExtensionVerdict:
        return ExtensionVerdict(False, (Failure(condition, detail),))

    # Functional candidates are total on the power set; their universe is the
    # family, widened for monotonicity by one-point enlargements.
    domain = candidate.domain()
    universe = events
    if domain is not None:
        if any(e not in domain for e in _generated_algebra(rep, cap=cap)):
            raise NotAnExtensionError(
                "candidate domain misses the algebra generated by the event family"
            )
        universe = sorted(domain, key=lambda e: (e.bit_count(), rep.event_key(e)))
    if kind == "monotonic":
        # Bit j of holders[i] marks member j as holding point i, so a member's
        # supersets AND its points' holders; below[v] marks the members of
        # value under v, so never a itself.  The lowest bit of their meet is
        # the first b that the ordered scan over pairs (a, b) would report.
        values = [candidate.value(a) for a in universe]
        holders = [0] * max((a.bit_length() for a in universe), default=0)
        for j, a in enumerate(universe):
            for i in _indices(a):
                holders[i] |= 1 << j
        level: dict[Fraction, int] = {}
        for j, value in enumerate(values):
            level[value] = level.get(value, 0) | 1 << j
        below, seen = {}, 0
        for value in sorted(level):
            below[value] = seen
            seen |= level[value]
        for j, a in enumerate(universe):
            inside = below[values[j]]
            for i in _indices(a):
                inside &= holders[i]
            if inside:
                b = (inside & -inside).bit_length() - 1
                return failed(
                    "monotonicity",
                    f"a set of value {values[j]} sits inside one of value {values[b]}",
                )
        if domain is None:
            for event in events:
                base = candidate.value(event)
                for i in range(len(rep.points)):
                    if not event >> i & 1 and candidate.value(event | 1 << i) < base:
                        return failed("monotonicity", "adding a point decreased the value")
    else:
        for i, a in enumerate(universe):
            for b in universe[i:]:
                if a & b or domain is not None and (a | b) not in domain:
                    continue
                total = candidate.value(a | b)
                if total != candidate.value(a) + candidate.value(b):
                    return failed(
                        "additivity",
                        f"disjoint sets valued {candidate.value(a)} and {candidate.value(b)} join to {total}",
                    )
    return ExtensionVerdict(True, ())


def _generated_algebra(rep: WpsRepresentation, cap: int) -> tuple[Event, ...]:
    """The algebra generated by the whole event family, as unions of its atoms."""
    atoms = _atoms(rep.sample_space, rep.sorted_events(rep.sigma))
    if 2 ** len(atoms) > cap:
        raise EnumerationCapError(2 ** len(atoms), cap, what="generated-algebra members")
    return tuple(_subset_sums(atoms))
