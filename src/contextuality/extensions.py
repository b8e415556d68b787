"""Extensions of a representation's set function to the generated algebra.

An extension assigns values to every set in the algebra generated by the
event family while agreeing with the stored values on the family itself.
Concrete forms:

* :class:`CoverExtension`: value of a set is the cheapest finite cover of
  it drawn from a weighted pool: the null family events, each maximal
  context's atoms (every family event is a union of one maximal context's
  atoms, valued at their sum), and any extra priced sets.  Always monotone
  and subadditive; it is an extension exactly when no family member can be
  covered more cheaply than its own value, which is verified at
  construction.  A family that covers its sample space by events of total
  weight below one admits no subadditive extension at all, and
  construction fails accordingly.
* :class:`EnvelopeExtension`: the cheapest superset among the family and
  extra priced sets, mu*(E) = min{mu(F) : F in Sigma, F >= E}.  Each family
  event lies in a context algebra (``verify_rep``'s ``wc-closure``), which
  its images generate inside a maximal context's, where mu is a non-negative
  measure (``wc-measure``); so mu*(E) is the least over maximal M of mu
  summed over M's atoms meeting E.  Always monotone, not subadditive in
  general; an extension exactly when the stored values are monotone on
  the family, verified at construction.
* :class:`PointMeasureExtension` / :class:`ExplicitExtension`: a measure
  given by point weights, and an arbitrary explicit table.

Convex combinations of monotone extensions are monotone (and subadditive
when every component is); :func:`sample_monotone_extensions` uses this to
produce a seeded, reproducible family of distinct extensions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence

from .distribution import random_rational_weights
from .errors import InternalConsistencyError, NotAnExtensionError
from .wps import WpsRepresentation, _indices

ZERO = Fraction(0)
# sample_monotone_extensions mixes up to _BASES bases, drawn from at most
# _CANDIDATES random variants of the cheapest-cover or envelope extension.
_BASES = 6
_CANDIDATES = 60


class _MinCoverSolver:
    """Exact minimum-weight set cover of masks inside ``full``, with memoization.

    Weights are compared and memoised as integer numerators over one common
    denominator of the pool; only ``cover_value`` returns a Fraction.
    """

    def __init__(self, full: int, pool: Sequence[tuple[int, Fraction]]):
        pool = [(mask, Fraction(weight)) for mask, weight in pool]
        if any(weight < 0 for _, weight in pool):
            raise ValueError("cover pool weights must be non-negative")
        self.denominator = lcm(*(weight.denominator for _, weight in pool))
        free = 0
        free_events: list[int] = []
        weighted: dict[int, int] = {}
        for mask, weight in pool:
            if weight == 0:
                free |= mask
                free_events.append(mask)
            else:
                weight = weight.numerator * (self.denominator // weight.denominator)
                held = weighted.get(mask)
                if held is None or weight < held:
                    weighted[mask] = weight
        self.free = free
        self.free_events = free_events
        self.pool = sorted(weighted.items(), key=lambda mw: (mw[1], mw[0]))
        covered = free
        for mask, _ in self.pool:
            covered |= mask
        if covered & full != full:
            raise ValueError("cover pool does not cover the universe")
        self._memo: dict[int, int] = {0: 0}

    def cover_value(self, event: int) -> Fraction:
        return Fraction(self._solve(event & ~self.free), self.denominator)

    def cover_members(self, event: int) -> list[int]:
        """One optimal cover, deterministically chosen; free sets included."""
        target = event & ~self.free
        chosen: list[int] = list(self.free_events)
        while target:
            total = self._solve(target)
            lowest = target & -target
            for mask, weight in self.pool:
                if mask & lowest and weight + self._solve(target & ~mask) == total:
                    chosen.append(mask)
                    target &= ~mask
                    break
            else:
                raise InternalConsistencyError("cover reconstruction lost its optimum")
        return chosen

    def _solve(self, target: int) -> int:
        memo = self._memo
        hit = memo.get(target)
        if hit is not None:
            return hit
        lowest = target & -target
        best: Optional[int] = None
        for mask, weight in self.pool:
            if mask & lowest:
                if best is not None and weight >= best:
                    continue
                cost = weight + self._solve(target & ~mask)
                if best is None or cost < best:
                    best = cost
        if best is None:
            raise ValueError("uncoverable point in cover query")
        memo[target] = best
        return best


def _cover_pool(rep: WpsRepresentation) -> list[tuple[int, Fraction]]:
    """The null family events in canonical order, then each maximal context's valued atoms.

    Every family event lies in a context algebra (``verify_rep``'s
    ``wc-closure``), so it is a union of one maximal context's atoms, valued
    at their sum (``wc-measure``): the atoms cover whatever the family
    covers, at the same cheapest weight.
    """
    nulls = rep.sorted_events(event for event, value in rep.mu.items() if value == 0)
    atoms = [atom for context in rep.model.scenario.maximal_contexts for atom in rep.atoms(context)]
    return [(event, ZERO) for event in nulls] + [(atom, value) for atom in atoms if (value := rep.mu_of(atom))]


def cheapest_cover_of_space(rep: WpsRepresentation) -> tuple[tuple[int, ...], Fraction]:
    """A minimum-weight family cover of the whole sample space, with its weight.

    Total weight below one exhibits a subadditivity violation whose union is
    the sample space, and with it the impossibility of any subadditive
    extension.
    """
    solver = _MinCoverSolver(rep.sample_space, _cover_pool(rep))
    members = solver.cover_members(rep.sample_space)
    total = solver.cover_value(rep.sample_space)
    return rep.sorted_events(members), total


class CoverExtension:
    """Cheapest-cover extension from a weighted pool of events."""

    kind = "cheapest-cover"

    def __init__(self, rep: WpsRepresentation, extra_pool: Sequence[tuple[int, Fraction]] = ()):
        self._solver = _MinCoverSolver(rep.sample_space, _cover_pool(rep) + list(extra_pool))
        # The whole space first, then the family in canonical order: on
        # representations with a cheap global cover this fails fast (and such
        # representations admit no subadditive extension whatsoever).
        full = rep.sample_space
        for event in [full] + [e for e in rep.sorted_events(rep.sigma) if e != full]:
            value = rep.mu[event]
            got = self._solver.cover_value(event)
            if got != value:
                raise NotAnExtensionError(
                    f"event valued {value} admits a cheaper cover of weight {got}; "
                    "the cheapest-cover function does not extend this representation"
                )

    def domain(self):
        return None  # total on the power set

    def value(self, event: int) -> Fraction:
        return self._solver.cover_value(event)


class EnvelopeExtension:
    """Cheapest-superset extension, monotone but not subadditive in general: E is valued at
    its cheapest hull, mu summed over one maximal context's atoms meeting E, or extra pool
    set holding E; under ``wc-closure`` and ``wc-measure`` the cheapest family superset."""

    kind = "monotone-envelope"

    def __init__(self, rep: WpsRepresentation, extra_pool: Sequence[tuple[int, Fraction]] = ()):
        extra = [(mask, Fraction(weight)) for mask, weight in extra_pool]
        scale = lcm(*(value.denominator for value in rep.mu.values()), *(w.denominator for _, w in extra))

        def numerator(value: Fraction) -> int:
            return value.numerator * (scale // value.denominator)

        self._scale, self._sample_space = scale, rep.sample_space
        self._extra = [(mask, numerator(weight)) for mask, weight in extra]
        self._hulls = []
        for context in rep.model.scenario.maximal_contexts:
            atoms = [(atom, numerator(rep.mu_of(atom))) for atom in rep.atoms(context)]
            if any(n < 0 for _, n in atoms):
                raise NotAnExtensionError(f"an atom over {context!r} carries a negative value")
            self._hulls.append([(atom, n) for atom, n in atoms if n])  # a null atom adds nothing
        for event, value in rep.mu.items():
            if self.value(event) != value:
                raise NotAnExtensionError(f"a family event valued {value} differs from its cheapest hull or pool superset")

    def domain(self):
        return None

    def value(self, event: int) -> Fraction:
        costs = [weight for mask, weight in self._extra if not event & ~mask]
        if not event & ~self._sample_space:
            costs += [sum(n for atom, n in atoms if atom & event) for atoms in self._hulls]
        if not costs:
            raise ValueError("no pool superset; the event has points outside the sample space")
        return Fraction(min(costs), self._scale)


class PointMeasureExtension:
    """The additive extension induced by exact point weights."""

    kind = "point-measure"

    def __init__(self, rep: WpsRepresentation, weights: Mapping[str, Fraction]):
        self.weights = {p: Fraction(weights.get(p, 0)) for p in rep.points}
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("point weights must be non-negative")
        self._by_index = [self.weights[p] for p in rep.points]

    def domain(self):
        return None

    def value(self, event: int) -> Fraction:
        by_index = self._by_index
        return sum((by_index[i] for i in _indices(event)), ZERO)


class MixedExtension:
    """Convex combination of extensions; inherits monotonicity and subadditivity."""

    kind = "convex-mixture"

    def __init__(self, components: Sequence[tuple[Fraction, object]]):
        if not components:
            raise ValueError("a mixture needs at least one component")
        total = sum((Fraction(w) for w, _ in components), ZERO)
        if total != 1:
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        self.components = tuple((Fraction(w), ext) for w, ext in components)

    def domain(self):
        return None

    def value(self, event: int) -> Fraction:
        return sum((w * ext.value(event) for w, ext in self.components), ZERO)


class ExplicitExtension:
    """An extension given by an explicit value table over an explicit domain."""

    kind = "explicit"

    def __init__(self, rep: WpsRepresentation, values: Mapping[int, Fraction]):
        self.rep = rep
        self.values = {e: Fraction(v) for e, v in values.items()}

    def domain(self):
        return frozenset(self.values)

    def value(self, event: int) -> Fraction:
        try:
            return self.values[event]
        except KeyError:
            raise NotAnExtensionError("candidate extension has no value for a required set") from None


def canonical_monotone_extension(rep: WpsRepresentation):
    """One deterministic monotone extension, subadditive where one can be.

    The cheapest-cover extension when the representation admits a
    subadditive one, otherwise the monotone envelope (available whenever
    the stored values are monotone on the family).  Violation witnesses do
    not use it: they take the envelope alone, with no cover search.
    """
    try:
        return CoverExtension(rep)
    except NotAnExtensionError:
        return EnvelopeExtension(rep)


def _envelope_base_candidates(rep: WpsRepresentation, rng: random.Random) -> list[EnvelopeExtension]:
    """Envelope variants pricing one extra random superset each."""
    plain = EnvelopeExtension(rep)
    bases: list[EnvelopeExtension] = [plain]
    n = len(rep.points)
    for _ in range(_CANDIDATES):
        if len(bases) >= _BASES:
            break
        size = rng.randint(max(1, n - 4), n - 1)
        extra = rep.event_of(rng.sample(rep.points, size))
        floor = max((value for event, value in rep.mu.items() if not event & ~extra), default=ZERO)
        current = plain.value(extra)
        if floor >= current:
            continue
        priced = floor + (current - floor) * Fraction(rng.randint(1, 3), 4)
        try:
            bases.append(EnvelopeExtension(rep, extra_pool=[(extra, priced)]))
        except NotAnExtensionError:
            continue
    return bases


def _cover_base_candidates(rep: WpsRepresentation, rng: random.Random) -> list[CoverExtension]:
    """Cheapest-cover variants adding one cheap extra pool set each."""
    try:
        base = CoverExtension(rep)
    except NotAnExtensionError:
        return []
    bases: list[CoverExtension] = [base]
    for _ in range(_CANDIDATES):
        if len(bases) >= _BASES:
            break
        extra = rep.event_of(rng.sample(rep.points, rng.choice((1, 1, 2))))
        current = base.value(extra)
        if current == 0:
            continue
        floor = ZERO
        for event, value in rep.mu.items():
            shortfall = value - base.value(event & ~extra)
            if shortfall > floor:
                floor = shortfall
        if floor >= current:
            continue
        priced = floor + (current - floor) * Fraction(rng.randint(1, 3), 4)
        try:
            bases.append(CoverExtension(rep, extra_pool=[(extra, priced)]))
        except NotAnExtensionError:
            continue
    return bases


def sample_monotone_extensions(rep: WpsRepresentation, count: int = 20,
                               seed: int = 0) -> tuple[MixedExtension, ...]:
    """A seeded family of monotone extensions of the representation.

    Bases are cheapest-cover variants when the representation admits
    subadditive extensions (then every sample is subadditive too) and
    monotone-envelope variants otherwise; the samples are random rational
    convex mixtures of the bases.  Reproducible for a fixed seed.
    """
    rng = random.Random(seed)
    bases: list[object] = _cover_base_candidates(rep, rng) or _envelope_base_candidates(rep, rng)
    samples = []
    for _ in range(count):
        weights = random_rational_weights(rng, len(bases))
        samples.append(MixedExtension(list(zip(weights, bases))))
    return tuple(samples)
