"""Extensions of a representation's set function to the generated algebra.

An extension assigns values to every set in the algebra generated by the
event family while agreeing with the stored values on the family itself.
Concrete forms:

* :class:`CoverExtension`: value of a set is the cheapest finite cover of
  it drawn from a weighted pool.  Always monotone and subadditive; it is an
  extension exactly when no family member can be covered more cheaply than
  its own value, which is verified at construction.  A family that covers
  its sample space by events of total weight below one admits no
  subadditive extension at all, and construction fails accordingly.
* :class:`EnvelopeExtension`: value is the cheapest superset in a pool of
  priced sets containing the family.  Always monotone, not subadditive in
  general; an extension exactly when the stored values are monotone on the
  family, verified at construction.
* :class:`PointMeasureExtension` / :class:`ExplicitExtension`: a measure
  given by point weights, and an arbitrary explicit table.

Convex combinations of monotone extensions are monotone (and subadditive
when every component is); :func:`sample_monotone_extensions` uses this to
produce a seeded, reproducible family of distinct extensions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .distribution import random_rational_weights
from .errors import InternalConsistencyError, NotAnExtensionError
from .wps import WpsRepresentation

ZERO = Fraction(0)


class _MinCoverSolver:
    """Exact minimum-weight set cover over a small universe, with memoization."""

    def __init__(self, universe: Sequence[str], pool: Sequence[tuple[frozenset, Fraction]]):
        self.index = {p: i for i, p in enumerate(universe)}
        self.full = (1 << len(universe)) - 1
        free = 0
        free_events: list[frozenset] = []
        weighted: dict[int, tuple[Fraction, frozenset]] = {}
        for event, weight in pool:
            mask = self.mask_of(event)
            if weight < 0:
                raise ValueError("cover pool weights must be non-negative")
            if weight == 0:
                free |= mask
                free_events.append(frozenset(event))
            else:
                held = weighted.get(mask)
                if held is None or weight < held[0]:
                    weighted[mask] = (Fraction(weight), frozenset(event))
        self.free = free
        self.free_events = free_events
        self.pool = sorted(
            ((mask, weight, event) for mask, (weight, event) in weighted.items()),
            key=lambda mwe: (mwe[1], mwe[0]),
        )
        covered = free
        for mask, _, _ in self.pool:
            covered |= mask
        if covered != self.full:
            raise ValueError("cover pool does not cover the universe")
        self._memo: dict[int, Fraction] = {0: ZERO}

    def mask_of(self, event: Iterable[str]) -> int:
        mask = 0
        for p in event:
            mask |= 1 << self.index[p]
        return mask

    def cover_value(self, event: Iterable[str]) -> Fraction:
        return self._solve(self.mask_of(event) & ~self.free)

    def cover_members(self, event: Iterable[str]) -> list[frozenset]:
        """One optimal cover, deterministically chosen; free sets included."""
        target = self.mask_of(event) & ~self.free
        chosen: list[frozenset] = list(self.free_events)
        while target:
            total = self._solve(target)
            lowest = target & -target
            for mask, weight, ev in self.pool:
                if mask & lowest and weight + self._solve(target & ~mask) == total:
                    chosen.append(ev)
                    target &= ~mask
                    break
            else:
                raise InternalConsistencyError("cover reconstruction lost its optimum")
        return chosen

    def _solve(self, target: int) -> Fraction:
        memo = self._memo
        hit = memo.get(target)
        if hit is not None:
            return hit
        lowest = target & -target
        best: Optional[Fraction] = None
        for mask, weight, _ in self.pool:
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


def cheapest_cover_of_space(rep: WpsRepresentation) -> tuple[tuple[frozenset, ...], Fraction]:
    """A minimum-weight family cover of the whole sample space, with its weight.

    Total weight below one exhibits a subadditivity violation whose union is
    the sample space, and with it the impossibility of any subadditive
    extension.
    """
    solver = _MinCoverSolver(rep.points, [(e, rep.mu[e]) for e in rep.sorted_events(rep.sigma)])
    members = solver.cover_members(rep.sample_space)
    total = solver.cover_value(rep.sample_space)
    return rep.sorted_events(members), total


class CoverExtension:
    """Cheapest-cover extension from a weighted pool of events."""

    kind = "cheapest-cover"
    monotone = True
    subadditive = True

    def __init__(self, rep: WpsRepresentation, extra_pool: Sequence[tuple[frozenset, Fraction]] = ()):
        self.rep = rep
        base_pool = [(event, rep.mu[event]) for event in rep.sorted_events(rep.sigma)]
        self.extra_pool = tuple((frozenset(e), Fraction(w)) for e, w in extra_pool)
        self._solver = _MinCoverSolver(rep.points, base_pool + list(self.extra_pool))
        # The whole space first: on representations with a cheap global cover
        # this fails fast (and such representations admit no subadditive
        # extension whatsoever).
        ordering = [rep.sample_space] + [e for e in rep.sorted_events(rep.sigma) if e != rep.sample_space]
        for event in ordering:
            got = self._solver.cover_value(event)
            if got != rep.mu[event]:
                raise NotAnExtensionError(
                    f"event valued {rep.mu[event]} admits a cheaper cover of weight {got}; "
                    "the cheapest-cover function does not extend this representation"
                )

    def domain(self):
        return None  # total on the power set

    def value(self, event: Iterable[str]) -> Fraction:
        return self._solver.cover_value(event)

    def describe(self) -> str:
        if self.extra_pool:
            return f"cheapest-cover extension with {len(self.extra_pool)} extra pool sets"
        return "cheapest-cover extension from the event family"


class EnvelopeExtension:
    """Cheapest-superset extension; monotone but not subadditive in general."""

    kind = "monotone-envelope"
    monotone = True
    subadditive = False

    def __init__(self, rep: WpsRepresentation, extra_pool: Sequence[tuple[frozenset, Fraction]] = ()):
        self.rep = rep
        self.extra_pool = tuple((frozenset(e), Fraction(w)) for e, w in extra_pool)
        pool = [(event, rep.mu[event]) for event in rep.sorted_events(rep.sigma)] + list(self.extra_pool)
        # Cheapest first, so the first superset found carries the minimum.
        self._pool = sorted(pool, key=lambda item: item[1])
        for event in rep.sorted_events(rep.sigma):
            if self.value(event) != rep.mu[event]:
                raise NotAnExtensionError(
                    "a pool superset undercuts a stored value; "
                    "the envelope function does not extend this representation"
                )

    def domain(self):
        return None

    def value(self, event: Iterable[str]) -> Fraction:
        target = frozenset(event)
        for candidate, weight in self._pool:
            if target <= candidate:
                return weight
        raise ValueError("no pool superset; the family must contain the sample space")

    def describe(self) -> str:
        if self.extra_pool:
            return f"monotone envelope extension with {len(self.extra_pool)} extra pool sets"
        return "monotone envelope extension (cheapest family superset)"


class PointMeasureExtension:
    """The additive extension induced by exact point weights."""

    kind = "point-measure"
    monotone = True
    subadditive = True

    def __init__(self, rep: WpsRepresentation, weights: Mapping[str, Fraction]):
        self.rep = rep
        self.weights = {p: Fraction(weights.get(p, 0)) for p in rep.points}
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("point weights must be non-negative")

    def domain(self):
        return None

    def value(self, event: Iterable[str]) -> Fraction:
        return sum((self.weights[p] for p in event), ZERO)

    def describe(self) -> str:
        return "additive extension from point weights"


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
        self.monotone = all(getattr(ext, "monotone", False) for _, ext in components)
        self.subadditive = all(getattr(ext, "subadditive", False) for _, ext in components)

    def domain(self):
        return None

    def value(self, event: Iterable[str]) -> Fraction:
        event = frozenset(event)
        return sum((w * ext.value(event) for w, ext in self.components), ZERO)

    def describe(self) -> str:
        return f"convex mixture of {len(self.components)} extensions"


class ExplicitExtension:
    """An extension given by an explicit value table over an explicit domain."""

    kind = "explicit"
    monotone = None
    subadditive = None

    def __init__(self, rep: WpsRepresentation, values: Mapping[frozenset, Fraction]):
        self.rep = rep
        self.values = {frozenset(e): Fraction(v) for e, v in values.items()}

    def domain(self):
        return frozenset(self.values)

    def value(self, event: Iterable[str]) -> Fraction:
        key = frozenset(event)
        try:
            return self.values[key]
        except KeyError:
            raise NotAnExtensionError("candidate extension has no value for a required set") from None

    def describe(self) -> str:
        return f"explicit extension over {len(self.values)} sets"


def canonical_monotone_extension(rep: WpsRepresentation):
    """The deterministic extension used for witness construction.

    The cheapest-cover extension when the representation admits a
    subadditive one, otherwise the monotone envelope (available whenever
    the stored values are monotone on the family).
    """
    try:
        return CoverExtension(rep)
    except NotAnExtensionError:
        return EnvelopeExtension(rep)


def _envelope_base_candidates(rep: WpsRepresentation, rng: random.Random, wanted: int,
                              max_candidates: int) -> list[EnvelopeExtension]:
    """Envelope variants pricing one extra random superset each."""
    plain = EnvelopeExtension(rep)
    bases: list[EnvelopeExtension] = [plain]
    points = list(rep.points)
    sigma_sorted = rep.sorted_events(rep.sigma)
    for _ in range(max_candidates):
        if len(bases) >= wanted:
            break
        size = rng.randint(max(1, len(points) - 4), len(points) - 1)
        extra = frozenset(rng.sample(points, size))
        floor = ZERO
        for event in sigma_sorted:
            if event <= extra and rep.mu[event] > floor:
                floor = rep.mu[event]
        current = plain.value(extra)
        if floor >= current:
            continue
        priced = floor + (current - floor) * Fraction(rng.randint(1, 3), 4)
        try:
            bases.append(EnvelopeExtension(rep, extra_pool=[(extra, priced)]))
        except NotAnExtensionError:
            continue
    return bases


def _cover_base_candidates(rep: WpsRepresentation, rng: random.Random, wanted: int,
                           max_candidates: int) -> list[CoverExtension]:
    """Cheapest-cover variants adding one cheap extra pool set each."""
    try:
        base = CoverExtension(rep)
    except NotAnExtensionError:
        return []
    bases: list[CoverExtension] = [base]
    points = list(rep.points)
    sigma_sorted = rep.sorted_events(rep.sigma)
    for _ in range(max_candidates):
        if len(bases) >= wanted:
            break
        extra = frozenset(rng.sample(points, rng.choice((1, 1, 2))))
        current = base.value(extra)
        if current == 0:
            continue
        floor = ZERO
        for event in sigma_sorted:
            shortfall = rep.mu[event] - base.value(frozenset(event) - extra)
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


def sample_monotone_extensions(rep: WpsRepresentation, count: int = 20, seed: int = 0,
                               max_candidates: int = 60) -> tuple[MixedExtension, ...]:
    """A seeded family of monotone extensions of the representation.

    Bases are cheapest-cover variants when the representation admits
    subadditive extensions (then every sample is subadditive too) and
    monotone-envelope variants otherwise; the samples are random rational
    convex mixtures of the bases.  Reproducible for a fixed seed.
    """
    rng = random.Random(seed)
    bases: list[object] = _cover_base_candidates(rep, rng, wanted=6, max_candidates=max_candidates)
    if not bases:
        bases = _envelope_base_candidates(rep, rng, wanted=6, max_candidates=max_candidates)
    samples = []
    for _ in range(count):
        weights = random_rational_weights(rng, len(bases))
        samples.append(MixedExtension(list(zip(weights, bases))))
    return tuple(samples)
