"""Exact rational probability distributions over sections.

Weights are :class:`fractions.Fraction` end to end.  Floats are rejected at
the boundary: a float that "looks like" 1/3 is not 1/3, and feasibility
verdicts downstream must not depend on rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DEFAULT_ENUMERATION_CAP, DomainError, WeightError
from .scenario import Scenario, Section, sections_over

ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    """Convert an exact value (int, Fraction, or 'p/q' string) to a Fraction."""
    if isinstance(value, float):
        raise WeightError(
            f"float weight {value!r} rejected: supply an exact rational (int, Fraction, or 'p/q' string)"
        )
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise WeightError(f"cannot interpret {value!r} as an exact rational") from exc


class Distribution:
    """A probability distribution on the sections over one context.

    Weights are non-negative and sum to exactly one.  Only the support is
    stored, in canonical section order; ``weights`` is the total mapping,
    zeros included, built when it is read, and ``weight`` gives 0 on any
    other section over the context.
    """

    __slots__ = ("scenario", "context", "_support")

    def __init__(self, scenario: Scenario, context: Iterable, weights: Mapping[Section, object],
                 cap: int = DEFAULT_ENUMERATION_CAP):
        context = scenario.canonical_context(context)
        full = sections_over(scenario, context, cap=cap)
        table: dict[Section, Fraction] = {}
        for section, raw in weights.items():
            if tuple(section.domain) != context:
                raise DomainError(
                    f"section {section} has domain {section.domain!r}, expected {context!r}"
                )
            value = as_fraction(raw)
            if value < 0:
                raise WeightError(f"negative weight {value} on {section}")
            table[section] = value
        missing = [s for s in full if s not in table]
        if missing:
            raise WeightError(f"weights missing for {len(missing)} sections, e.g. {missing[0]}")
        if len(table) != len(full):
            raise WeightError("weights given for sections outside the context")
        total = sum(table.values())
        if total != 1:
            raise WeightError(f"weights sum to {total}, expected exactly 1")
        self.scenario = scenario
        self.context = context
        self._support = {s: table[s] for s in full if table[s]}

    @classmethod
    def _from_support(cls, scenario: Scenario, context: tuple, support: dict[Section, Fraction]) -> "Distribution":
        """The distribution whose positive weights are ``support``, given in canonical order.

        ``context`` is canonical and every other section over it weighs 0.
        Domains, positivity and the sum of one are checked; totality is not.
        """
        for section, value in support.items():
            if section.domain != context:
                raise DomainError(f"section {section} has domain {section.domain!r}, expected {context!r}")
            if value <= 0:
                raise WeightError(f"non-positive weight {value} on {section}")
        total = sum(support.values())
        if total != 1:
            raise WeightError(f"weights sum to {total}, expected exactly 1")
        dist = cls.__new__(cls)
        dist.scenario, dist.context, dist._support = scenario, context, support
        return dist

    @property
    def weights(self) -> Mapping[Section, Fraction]:
        return MappingProxyType({s: self._support.get(s, ZERO) for s in self.sections()})

    def weight(self, section: Section) -> Fraction:
        value = self._support.get(section)
        if value is not None:
            return value
        if section.domain != self.context or not set(section.values).issubset(self.scenario.outcomes):
            raise DomainError(f"{section} is not a section over {self.context!r}")
        return ZERO

    @property
    def support(self) -> frozenset[Section]:
        return frozenset(self._support)

    def sections(self) -> tuple[Section, ...]:
        return sections_over(self.scenario, self.context, cap=math.inf)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.context == other.context and self._support == other._support

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}: {w}" for s, w in self.weights.items())
        return f"Distribution({self.context!r}, {{{inner}}})"


def point_mass(scenario: Scenario, section: Section) -> Distribution:
    """The distribution putting all weight on one section."""
    weights = {s: Fraction(1 if s == section else 0) for s in sections_over(scenario, section.domain)}
    return Distribution(scenario, section.domain, weights)


def uniform(scenario: Scenario, context: Iterable, cap: int = DEFAULT_ENUMERATION_CAP) -> Distribution:
    """The uniform distribution on the sections over a context."""
    full = sections_over(scenario, context, cap=cap)
    share = Fraction(1, len(full))
    return Distribution(scenario, context, {s: share for s in full}, cap=cap)


def random_rational_weights(rng, count: int, denominator: int = 64) -> list[Fraction]:
    """Exact random convex weights with a common bounded denominator."""
    cuts = sorted(rng.randint(0, denominator) for _ in range(count - 1))
    bounds = [0] + cuts + [denominator]
    return [Fraction(bounds[i + 1] - bounds[i], denominator) for i in range(count)]


def marginalize(dist: Distribution, measurements: Iterable) -> Distribution:
    """Push a distribution down to a sub-context by summing over extensions.

    The weight of a target section is the total weight of the sections that
    restrict to it.  Marginalizing to the full context returns the input.
    Only the support is read, so a sparse distribution (a basic solution of
    the global-section system) costs one addition per supported section.
    """
    target = dist.scenario.canonical_context(measurements)
    extra = set(target) - set(dist.context)
    if extra:
        raise DomainError(f"cannot marginalize to {sorted(map(repr, extra))}: outside {dist.context!r}")
    if target == dist.context:
        return dist
    positions = [dist.context.index(m) for m in target]
    sums: dict[tuple, Fraction] = {}
    for section, w in dist._support.items():
        values = tuple(section.values[i] for i in positions)
        sums[values] = sums.get(values, ZERO) + w
    index = {o: i for i, o in enumerate(dist.scenario.outcomes)}
    order = sorted(sums, key=lambda values: [index[o] for o in values])
    return Distribution._from_support(dist.scenario, target,
                                      {Section(target, values, dist.scenario): sums[values] for values in order})
