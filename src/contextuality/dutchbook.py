"""Formal Dutch Books: atomic functionals, convexity membership, certificates.

A set function on events avoids Dutch Books exactly when it is a convex
combination of the atomic functionals given by sample-space points.  The
membership question is an exact feasibility problem; its failure yields a
separating rational functional that normalizes into a stake function whose
payoff is strictly negative against every point, verifiable by exhaustive
enumeration.  On combinatorial representations the points are in bijection
with global sections, so the convexity hierarchy reads its question from the
global-section solve, and the same bijection grades convexity-violation into
the three familiar strengths.  Every representation's Dutch book reads its
stakes off the model's verdict: padding lives in the excised events, which
are null, so a padded book is its core's plus stakes on those events.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from . import classifier, feasibility
from .distribution import Distribution, marginalize
from .errors import (
    InternalConsistencyError,
    NonCombinatorialError,
    NotAnEventError,
    ScenarioMismatchError,
)
from .record import Record
from .scenario import Section, global_section_columns
from .wps import Event, WpsRepresentation, _atoms, _indices, _null_cover

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Atomic functionals and the two bijections
# ---------------------------------------------------------------------------


class AtomicFunctional:
    """Membership evaluation of events at one sample point."""

    __slots__ = ("point", "values")

    def __init__(self, point: str, values: Mapping[Event, int]):
        self.point = point
        self.values = {e: int(v) for e, v in values.items()}

    def value(self, event: Event) -> int:
        try:
            return self.values[event]
        except KeyError:
            raise NotAnEventError("functional not evaluated on that event") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomicFunctional):
            return NotImplemented
        return self.point == other.point and self.values == other.values

    def __repr__(self) -> str:
        return f"AtomicFunctional({self.point!r}, on {len(self.values)} events)"


def atomic_functional(rep: WpsRepresentation, point: str, events: Optional[Iterable[Event]] = None) -> AtomicFunctional:
    """The functional of one point, tabulated over the given events (default: the family)."""
    i = rep.point_index(point)
    pool = rep.sorted_events(rep.sigma) if events is None else rep.sorted_events(events)
    return AtomicFunctional(point, {e: e >> i & 1 for e in pool})


def section_to_functional(rep: WpsRepresentation, global_section: Section) -> AtomicFunctional:
    """The atomic functional of a global section, restricted to maximal-context events.

    On a combinatorial representation this is one direction of the bijection
    between global sections and restricted atomic functionals: the value at
    a maximal-context event is one exactly when the section restricts to
    that event's section.
    """
    if not rep.combinatorial:
        raise NonCombinatorialError("the section-functional bijection needs a combinatorial representation")
    image = rep.event(global_section)
    if image.bit_count() != 1:
        raise InternalConsistencyError("a combinatorial global-section image must be one point")
    (point,) = rep.points_of(image)
    return atomic_functional(rep, point, rep.maximal_context_events())


def distribution_to_convex_point(rep: WpsRepresentation, global_distribution: Distribution) -> dict[Event, Fraction]:
    """Push a global distribution to a convex combination of restricted functionals.

    The value at a maximal-context event equals the distribution's marginal
    weight of the corresponding section.
    """
    if not rep.combinatorial:
        raise NonCombinatorialError("the distribution bijection needs a combinatorial representation")
    scenario = rep.model.scenario
    if global_distribution.context != scenario.measurements:
        raise ScenarioMismatchError("a distribution over the global sections is required")
    marginals = {c: marginalize(global_distribution, c) for c in scenario.maximal_contexts}
    # Rows sharing an image share their extending global sections, so their weights agree.
    return {rep.event(s): marginals[c].weight(s) for c, s in global_section_columns(scenario).rows}


# ---------------------------------------------------------------------------
# Convexity membership
# ---------------------------------------------------------------------------


def _checked_weights(rep: WpsRepresentation, support: dict[int, Fraction], events: Iterable[Event],
                     origin: str) -> dict[str, Fraction]:
    """Every point's weight from a support {point index: weight}, which must reproduce each event's value."""
    for event in events:
        if sum((x for i, x in support.items() if event >> i & 1), ZERO) != rep.mu_of(event):
            raise InternalConsistencyError(f"{origin} weights fail to reproduce an event value")
    return {point: support.get(i, ZERO) for i, point in enumerate(rep.points)}


def convexity_membership(rep: WpsRepresentation,
                         restriction: Optional[Iterable[Event]] = None) -> Optional[dict[str, Fraction]]:
    """Convex weights over points reproducing the set function on a restriction.

    ``restriction`` defaults to the full event family (per-context algebra
    atoms decide the system; the returned weights are re-verified against
    every family member).  Returns the weights, or None when the function
    lies outside the convex hull of the atomic functionals there.  Its 0/1
    point columns are the point-side reference for the global-section solve.
    """
    if restriction is None:
        events = rep.sorted_events(atom for members in rep.sigma_algebras.values()
                                   for atom in _atoms(rep.sample_space, members))
        verify_against: Iterable[Event] = rep.sorted_events(rep.sigma)
    else:
        # mu_of raises NotAnEventError for a set outside the event family.
        verify_against = events = rep.sorted_events(restriction)
    columns = [[0] for _ in rep.points]  # row 0 normalizes; row k + 1 is the k-th event
    for r, event in enumerate(events, 1):
        for i in _indices(event):
            columns[i].append(r)
    ones = [(1,) * len(column) for column in columns]
    outcome = feasibility.solve_source(feasibility.ExplicitColumns(columns, ones), [ONE, *map(rep.mu_of, events)])
    if not outcome.feasible:
        return None
    return _checked_weights(rep, outcome.solution, verify_against, "membership")


# ---------------------------------------------------------------------------
# Dutch-book certificates
# ---------------------------------------------------------------------------


class DutchBookCertificate(Record):
    """Stakes over events guaranteeing a loss of at least the bound at every point."""

    __slots__ = ("stakes", "loss_bound")

    def __init__(self, stakes: tuple[tuple[Event, Fraction], ...], loss_bound: Fraction):
        if loss_bound <= 0:
            raise ValueError("the guaranteed loss bound must be positive")
        self._fill(stakes, loss_bound)

    def payoffs(self, rep: WpsRepresentation) -> list[Fraction]:
        """Every point's payoff, in point order: the stakes on events holding it, less the book's price."""
        return _payoffs(rep, self.stakes)


def _payoffs(rep: WpsRepresentation, stakes: Iterable[tuple[Event, Fraction]]) -> list[Fraction]:
    # Integer numerators over one denominator: a point's total is k / scale, the price p / q.
    stakes = list(stakes)
    scale = math.lcm(*(stake.denominator for _, stake in stakes))
    totals = [0] * len(rep.points)
    price = ZERO
    for event, stake in stakes:
        price += stake * rep.mu_of(event)
        k = stake.numerator * (scale // stake.denominator)
        for i in _indices(event):
            totals[i] += k
    q = price.denominator
    offset = price.numerator * scale
    return [Fraction(total * q - offset, scale * q) for total in totals]


def verify_certificate(rep: WpsRepresentation, certificate: DutchBookCertificate) -> bool:
    """Exhaustively check the payoff at every sample point.

    True exactly when every point loses at least the bound, which the
    certificate's constructor keeps positive.  A stake over a set outside
    the event family has no price, and raises :class:`NotAnEventError`.
    """
    return all(payoff <= -certificate.loss_bound for payoff in certificate.payoffs(rep))


def find_dutch_book(rep: WpsRepresentation) -> Optional[DutchBookCertificate]:
    """The stake certificate of :func:`dutch_book_table` under the model's verdict, or None."""
    # The representation already holds a point per global section, so its size caps the classification.
    found = dutch_book_table(rep, classifier.classify(rep.model, cap=len(rep.points)))
    return None if found is None else found[0]


def dutch_book_table(rep: WpsRepresentation,
                     verdict: classifier.TierVerdict) -> Optional[tuple[DutchBookCertificate, list[Fraction]]]:
    """A stake certificate and its payoff table in point order, checked at every point, or None.

    ``verdict`` is the classifier's verdict on the representation's model: a
    Noncontextual model has no book, and nothing is solved.  When the null
    events, those among the maximal-context events and the excised ones,
    cover the sample space the certificate is the canonical uniform stake of
    minus one on them: every point loses, so no convex combination of
    points, whose expected payoff is zero, matches the set function.  A
    Strong verdict always lands there.  Otherwise the book stakes y(c, s) on
    event(s) for the verdict's separating functional y, asked for here on a
    Logical verdict, so core point g, one global section, pays
    sum_c y(c, g|c) - y.mu < 0.  Each excised event, null and holding no
    core point, takes a stake of -sum|y|: it adds nothing to the price, and
    a pad point, which lies in one, pays at most sum y+ - y.mu - sum|y| < 0.
    Every stake event is a maximal-context image or an excised event, so
    each is in the family.

    The table is computed once, and its largest entry, minus the loss
    bound, checks every point; that check certifies the book.  Solved stakes
    are scaled to a worst payoff of -1: dividing each stake by b > 0 divides
    each payoff, price included.
    """
    if verdict.tier is classifier.Tier.NONCONTEXTUAL:
        return None
    nulls, clean = _null_cover(rep)
    if not clean:
        stakes = tuple((e, Fraction(-1)) for e in nulls)
        payoffs = _payoffs(rep, stakes)
        return DutchBookCertificate(stakes, -max(payoffs)), payoffs
    # A Logical verdict carries no functional; the points, one per global section or more, cap the question.
    farkas = verdict.certificate or classifier._tier_verdict(
        rep.model, classifier.Tier.PROBABILISTIC, len(rep.points)).certificate
    stakes = [(rep.event(s), y) for (_, s), y in zip(farkas.rows, farkas.coefficients) if y != 0]
    images = set(rep.maximal_context_events())
    penalty = -sum((abs(y) for _, y in stakes), ZERO)
    stakes += [(e, penalty) for e in nulls if e not in images]
    payoffs = _payoffs(rep, stakes)
    loss = -max(payoffs)
    if loss <= 0:
        raise InternalConsistencyError("the stakes guarantee no loss at some point")
    return DutchBookCertificate(tuple((e, stake / loss) for e, stake in stakes), ONE), [p / loss for p in payoffs]


# ---------------------------------------------------------------------------
# The convexity-violation hierarchy
# ---------------------------------------------------------------------------


class ConvexityVerdict(Record):
    __slots__ = ("strong_violation", "logical_violation", "probabilistic_violation", "convex_weights")

    def __init__(self, strong_violation: bool, logical_violation: bool, probabilistic_violation: bool,
                 convex_weights: Optional[dict[str, Fraction]] = None):
        if strong_violation and not logical_violation:
            raise InternalConsistencyError("strong convexity-violation without logical")
        if logical_violation and not probabilistic_violation:
            raise InternalConsistencyError("logical convexity-violation without probabilistic")
        self._fill(strong_violation, logical_violation, probabilistic_violation, convex_weights)


def _maximal_context_membership(rep: WpsRepresentation):
    """(point weights reproducing every maximal-context value, None), or (None, a verified certificate).

    Point g lies in the image of row (c, s) exactly when g|c = s, so this is the global-section system
    with right-hand side mu(event(s)) on row (c, s), which ``verify_rep``'s ``ec`` condition makes the
    table weight of s.  The model's solve is transported through g -> event(g) and checked
    against the representation's own values: the weights reproduce each of them, or the certificate
    separates them.
    """
    result = classifier.global_distribution(rep.model)
    if isinstance(result, classifier.GlobalDistributionCertificate):
        if sum((y * rep.mu_of(rep.event(s)) for (_, s), y in zip(result.rows, result.coefficients) if y), ZERO) <= 0:
            raise InternalConsistencyError("transported certificate fails to separate the event values")
        return None, result
    support = {rep.event(g).bit_length() - 1: result.weight(g) for g in result.support}
    events = {rep.event(section) for _, section in global_section_columns(rep.model.scenario).rows}
    return _checked_weights(rep, support, events, "transported"), None


def convexity_hierarchy(rep: WpsRepresentation) -> ConvexityVerdict:
    """Grade the failure of convexity over the maximal-context events.

    Probabilistic: the restricted set function is outside the convex hull
    of the restricted atomic functionals, decided on the global-section
    system.  Logical: its support indicator is not the pointwise Boolean sum
    of any set of restricted functionals, equivalently some positive-measure
    event contains no point lying only in positive-measure events.  Strong:
    no functional is dominated by the support indicator, equivalently no
    point lies only in positive-measure events.  Requires a combinatorial
    representation.
    """
    if not rep.combinatorial:
        raise NonCombinatorialError("the convexity hierarchy needs a combinatorial representation")
    events = rep.maximal_context_events()
    weights, _ = _maximal_context_membership(rep)
    _, clean = _null_cover(rep)
    logical = any(rep.mu_of(e) > 0 and not e & clean for e in events)
    return ConvexityVerdict(not clean, logical, weights is None, weights)
