"""Measurement scenarios and event sections.

A scenario fixes a finite ordered set of measurements, a family of maximal
contexts (an antichain covering the measurements), and a finite ordered set
of outcomes.  A section assigns an outcome to every measurement in its
domain.  All orderings are frozen at scenario construction so that every
enumeration in the package is deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DEFAULT_ENUMERATION_CAP,
    DomainError,
    EnumerationCapError,
    IncompatibleSectionsError,
)


@dataclass(frozen=True)
class Scenario:
    """A triple of measurements, maximal contexts, and outcomes.

    Invariants checked at construction:

    * measurements and outcomes are non-empty and duplicate-free;
    * every maximal context is a non-empty subset of the measurements;
    * every measurement occurs in at least one maximal context;
    * no maximal context is contained in another.
    """

    measurements: tuple
    maximal_contexts: tuple[tuple, ...]
    outcomes: tuple

    def __init__(self, measurements: Sequence, maximal_contexts: Iterable[Iterable], outcomes: Sequence):
        measurements = tuple(measurements)
        outcomes = tuple(outcomes)
        if not measurements:
            raise ValueError("a scenario needs at least one measurement")
        if not outcomes:
            raise ValueError("a scenario needs at least one outcome")
        if len(set(measurements)) != len(measurements):
            raise ValueError("duplicate measurement labels")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("duplicate outcome labels")
        index = {m: i for i, m in enumerate(measurements)}

        canon = []
        for context in maximal_contexts:
            context = tuple(context)
            if not context:
                raise ValueError("maximal contexts must be non-empty")
            if len(set(context)) != len(context):
                raise ValueError(f"duplicate measurement in context {context!r}")
            for m in context:
                if m not in index:
                    raise ValueError(f"context measurement {m!r} is not in the scenario")
            canon.append(tuple(sorted(context, key=index.__getitem__)))
        canon = sorted(set(canon), key=lambda c: tuple(index[m] for m in c))
        if not canon:
            raise ValueError("a scenario needs at least one maximal context")

        covered = {m for c in canon for m in c}
        missing = [m for m in measurements if m not in covered]
        if missing:
            raise ValueError(f"measurements {missing!r} appear in no maximal context")
        for a, b in itertools.permutations(canon, 2):
            if set(a) <= set(b):
                raise ValueError(f"maximal context {a!r} is contained in {b!r}")

        object.__setattr__(self, "measurements", measurements)
        object.__setattr__(self, "maximal_contexts", tuple(canon))
        object.__setattr__(self, "outcomes", outcomes)

    # -- orderings ---------------------------------------------------------

    def measurement_index(self, m) -> int:
        try:
            return self.measurements.index(m)
        except ValueError:
            raise DomainError(f"unknown measurement {m!r}") from None

    def outcome_index(self, o) -> int:
        try:
            return self.outcomes.index(o)
        except ValueError:
            raise DomainError(f"unknown outcome {o!r}") from None

    def canonical_context(self, measurements: Iterable) -> tuple:
        """Sort a set of measurements into canonical order, validating membership."""
        ms = tuple(measurements)
        if len(set(ms)) != len(ms):
            raise DomainError(f"duplicate measurements in context {ms!r}")
        return tuple(sorted(ms, key=self.measurement_index))

    def is_context(self, measurements: Iterable) -> bool:
        """True when the set of measurements lies inside some maximal context."""
        ms = set(measurements)
        return any(ms <= set(c) for c in self.maximal_contexts)

    # -- section construction ----------------------------------------------

    def section(self, assignment: Mapping) -> "Section":
        """Build the section with the given measurement-to-outcome assignment."""
        domain = self.canonical_context(assignment.keys())
        values = []
        for m in domain:
            o = assignment[m]
            self.outcome_index(o)
            values.append(o)
        return Section(domain, tuple(values), self)

    def empty_section(self) -> "Section":
        return Section((), (), self)

    def global_sections(self, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple["Section", ...]:
        return sections_over(self, self.measurements, cap=cap)


@dataclass(frozen=True)
class Section:
    """A total assignment of outcomes to a context.

    Equality and hashing ignore the scenario reference; two sections are
    equal when they make the same assignment.
    """

    domain: tuple
    values: tuple
    scenario: Scenario = field(compare=False, repr=False)

    def __post_init__(self):
        if len(self.domain) != len(self.values):
            raise ValueError("domain and values must align")

    def value(self, m):
        try:
            return self.values[self.domain.index(m)]
        except ValueError:
            raise DomainError(f"measurement {m!r} is outside this section's domain") from None

    def sort_key(self) -> tuple:
        sc = self.scenario
        return tuple(sc.outcome_index(o) for o in self.values)

    def __str__(self) -> str:
        inner = ", ".join(f"{m}->{o}" for m, o in zip(self.domain, self.values))
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Operations on sections
# ---------------------------------------------------------------------------


def sections_over(scenario: Scenario, measurements: Iterable, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Section, ...]:
    """All sections over a set of measurements, in canonical order.

    The order is lexicographic: outcomes of the first measurement vary
    slowest, and outcomes follow the scenario's outcome order.
    """
    domain = scenario.canonical_context(measurements)
    count = len(scenario.outcomes) ** len(domain)
    if count > cap:
        raise EnumerationCapError(count, cap)
    return tuple(
        Section(domain, values, scenario)
        for values in itertools.product(scenario.outcomes, repeat=len(domain))
    )


def restrict(section: Section, measurements: Iterable) -> Section:
    """Restrict a section to a subset of its domain."""
    wanted = set(measurements)
    extra = wanted - set(section.domain)
    if extra:
        raise DomainError(f"cannot restrict to {sorted(map(repr, extra))}: outside the domain")
    pairs = [(m, o) for m, o in zip(section.domain, section.values) if m in wanted]
    return Section(tuple(m for m, _ in pairs), tuple(o for _, o in pairs), section.scenario)


def glue(family: Sequence[Section]) -> Section:
    """Glue a compatible family of sections into the unique section on the union.

    Raises :class:`IncompatibleSectionsError` naming the first clashing pair
    and measurement when two members disagree on a shared measurement.
    """
    family = list(family)
    if not family:
        raise ValueError("glue requires a non-empty family of sections")
    merged: dict = {}
    origin: dict = {}
    for i, s in enumerate(family):
        for m, o in zip(s.domain, s.values):
            if m in merged:
                if merged[m] != o:
                    raise IncompatibleSectionsError(origin[m], i, m, merged[m], o)
            else:
                merged[m] = o
                origin[m] = i
    return family[0].scenario.section(merged)


@lru_cache(maxsize=None)
def all_contexts(scenario: Scenario) -> tuple[tuple, ...]:
    """Every context (subset of a maximal context), smallest first.

    The empty context is included.  The family is materialized per scenario
    and cached; it is the union of the powersets of the maximal contexts,
    never the powerset of the full measurement set.
    """
    index = {m: i for i, m in enumerate(scenario.measurements)}
    seen: set[tuple] = set()
    for c in scenario.maximal_contexts:
        for r in range(len(c) + 1):
            for sub in itertools.combinations(c, r):
                seen.add(sub)
    return tuple(sorted(seen, key=lambda u: (len(u), tuple(index[m] for m in u))))


class GlobalSectionSystem(NamedTuple):
    """Global sections (the columns) against ``(maximal context, section)`` rows.

    Rows take contexts in scenario order and sections in enumeration order;
    ``incidence[j][k]`` is the row of column ``j`` in the ``k``-th context.
    """

    columns: tuple[Section, ...]
    rows: tuple[tuple[tuple, Section], ...]
    incidence: tuple[tuple[int, ...], ...]


def global_section_system(scenario: Scenario, cap: int = DEFAULT_ENUMERATION_CAP) -> GlobalSectionSystem:
    """The scenario's global-section system, enumerating at most ``cap`` columns."""
    count = len(scenario.outcomes) ** len(scenario.measurements)
    if count > cap:
        raise EnumerationCapError(count, cap)
    return _global_section_system(scenario)


@lru_cache(maxsize=1)
def _global_section_system(scenario: Scenario) -> GlobalSectionSystem:
    # One entry only: at the cap, a system holds 2**20 columns.
    rows = tuple((c, s) for c in scenario.maximal_contexts for s in sections_over(scenario, c, cap=math.inf))
    columns = sections_over(scenario, scenario.measurements, cap=math.inf)
    # Sections enumerate as base-|O| numerals over outcome indices, the first
    # measurement the most significant digit.  So column j gives the i-th
    # measurement the outcome index (j // |O|**(n-1-i)) % |O|, and its row in
    # context c is c's offset plus the numeral those indices form on c.
    base, n = len(scenario.outcomes), len(scenario.measurements)
    position = {m: i for i, m in enumerate(scenario.measurements)}
    per_context = []
    offset = 0
    for c in scenario.maximal_contexts:
        row = [offset] * len(columns)
        for k, m in enumerate(c):
            i, weight = position[m], base ** (len(c) - 1 - k)
            digit = [o * weight for o in range(base) for _ in range(base ** (n - 1 - i))] * base ** i
            row = list(map(add, row, digit))
        per_context.append(row)
        offset += base ** len(c)
    return GlobalSectionSystem(columns, rows, tuple(zip(*per_context)))
