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
from functools import lru_cache
from operator import add, itemgetter, mul
from typing import Iterable, Mapping, Sequence

from .errors import (
    DEFAULT_ENUMERATION_CAP,
    DomainError,
    EnumerationCapError,
    IncompatibleSectionsError,
)
from .record import Record


class Scenario(Record):
    """A triple of measurements, maximal contexts, and outcomes.

    Invariants checked at construction:

    * measurements and outcomes are non-empty and duplicate-free;
    * every maximal context is a non-empty subset of the measurements;
    * every measurement occurs in at least one maximal context;
    * no maximal context is contained in another.
    """

    __slots__ = ("measurements", "maximal_contexts", "outcomes")

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

        self._fill(measurements, tuple(canon), outcomes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.measurements == other.measurements and self.maximal_contexts == other.maximal_contexts
                    and self.outcomes == other.outcomes)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.measurements, self.maximal_contexts, self.outcomes))

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

    def global_sections(self, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple["Section", ...]:
        return sections_over(self, self.measurements, cap=cap)


class Section(Record):
    """A total assignment of outcomes to a context.

    Equality, hashing and ``repr`` ignore the scenario reference; two
    sections are equal when they make the same assignment.
    """

    __slots__ = ("domain", "values", "scenario")

    def __init__(self, domain: tuple, values: tuple, scenario: Scenario):
        if len(domain) != len(values):
            raise ValueError("domain and values must align")
        _set_domain(self, domain)
        _set_values(self, values)
        _set_scenario(self, scenario)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.domain == other.domain and self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.domain, self.values))

    def __repr__(self) -> str:
        return f"Section(domain={self.domain!r}, values={self.values!r})"

    def value(self, m):
        try:
            return self.values[self.domain.index(m)]
        except ValueError:
            raise DomainError(f"measurement {m!r} is outside this section's domain") from None

    def __str__(self) -> str:
        inner = ", ".join(f"{m}->{o}" for m, o in zip(self.domain, self.values))
        return "{" + inner + "}"


# The slots' own setters: a section is built on every hot path, and these
# are cheaper than ``object.__setattr__``.
_set_domain, _set_values, _set_scenario = (slot.__set__ for slot in (Section.domain, Section.values, Section.scenario))


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


def check_global_section_cap(scenario: Scenario, cap: int) -> None:
    """Raise :class:`EnumerationCapError` when the scenario has more than ``cap`` global sections."""
    count = len(scenario.outcomes) ** len(scenario.measurements)
    if count > cap:
        raise EnumerationCapError(count, cap, what="global sections")


def _numeral(digits: Iterable[int], base: int) -> int:
    """The number whose base-``base`` digits, most significant first, are ``digits``."""
    value = 0
    for digit in digits:
        value = value * base + digit
    return value


class GlobalSectionColumns:
    """The columns of a scenario's global-section system, priced without listing them.

    Column j is the j-th global section g in enumeration order
    (:meth:`section`), and it has a 1 in the row ``(c, g|c)`` of each
    maximal context c, the row labels being this source's ``rows``; so
    under row weights w column j is worth Σ_c w(c, g|c): a sum of one
    factor per maximal context.  The factors are eliminated bucket by
    bucket, last measurement first: the factors whose scope holds the last
    measurement left are summed into one bucket table and maximised over
    that measurement, which leaves a factor on the rest of the bucket's
    scope (Abramsky, Gottlob and Kolaitis, IJCAI 2013).  The plan is built
    once, in flat coordinates: the row weights come first, then each step's
    max-table as the step appends it, and each step reads its factors'
    entries at positions fixed in advance.  A forward pass then fixes
    measurement 0, 1, ... to the least outcome that still reaches the
    maximum; as j is the numeral of the outcomes with measurement 0 most
    significant, that is the least index of a best column, handed back with
    its rows.

    The spanning columns are one per context T, the empty one included, and
    digits d in {1, ..., |O|-1}^T: the global section that is d on T and 0
    elsewhere.  As [g_m = 0] is 1 − Σ_{k>0} [g_m = k], row (c, s), the
    product of [g_m = s_m] over m in c, is a combination of the products
    P_{T,d} of [g_m = d_m] over m in T, for T ⊆ c.  P_{T,d} is 1 at the
    spanning column (T', d') exactly when T ⊆ T' and d' agrees with d on T,
    so, ordered by |T|, these values form a unitriangular matrix.  A
    combination of rows that vanishes at every spanning column thus has
    every P_{T,d} coefficient zero and vanishes at every column: the rows
    read there keep all their linear relations.
    """

    def __init__(self, scenario: Scenario):
        base, n = len(scenario.outcomes), len(scenario.measurements)
        index = {m: i for i, m in enumerate(scenario.measurements)}
        contexts = scenario.maximal_contexts
        self.rows = tuple((c, s) for c in contexts for s in sections_over(scenario, c, cap=math.inf))
        self._scenario, self._base, self._size = scenario, base, base ** n
        self._powers = [base ** (n - 1 - i) for i in range(n)]
        self._ones = (1,) * len(contexts)

        # -- the elimination plan, in flat coordinates: a factor is its scope and its entry 0's
        # position; the rows are the contexts' factors, and each step appends its max-table.
        starts = itertools.accumulate((base ** len(c) for c in contexts), initial=0)
        factors, end = [(tuple(index[m] for m in c), start) for c, start in zip(contexts, starts)], len(self.rows)
        # Each context's rows by its outcome indices (bare for one measurement), read off digits by one itemgetter.
        self._lookups = [(itemgetter(*scope), {a if len(a) > 1 else a[0]: start + r for r, a in enumerate(
            itertools.product(range(base), repeat=len(scope)))}) for scope, start in factors]
        self._plan = []
        for i in reversed(range(n)):
            bucket = [f for f in factors if i in f[0]]
            scope = sorted({v for f in bucket for v in f[0]} | {i})
            factors = [f for f in factors if i not in f[0]] + [(tuple(scope[:-1]), end)]
            end += base ** (len(scope) - 1)
            at = {v: p for p, v in enumerate(scope)}
            assignments = list(itertools.product(range(base), repeat=len(scope)))
            # Each factor's flat positions at the assignments, i last, read by one itemgetter (over a
            # one-entry slice when one outcome leaves one position); the other measurements and their strides.
            places = [[start + _numeral((a[at[v]] for v in sub), base) for a in assignments] for sub, start in bucket]
            readers = [itemgetter(*p) if len(p) > 1 else itemgetter(slice(p[0], p[0] + 1)) for p in places]
            self._plan.append((readers, scope[:-1], [base ** k for k in range(len(scope) - 1, 0, -1)]))
        self._constants = [start for _, start in factors]  # every factor left has an empty scope
        self._split = itemgetter(*(slice(o, None, base) for o in range(base)))

    def __len__(self) -> int:
        return self._size

    def spanning(self) -> list[int]:
        powers = dict(zip(self._scenario.measurements, self._powers))
        return [sum(map(mul, digits, map(powers.__getitem__, context)))
                for context in all_contexts(self._scenario)
                for digits in itertools.product(range(1, self._base), repeat=len(context))]

    def digits(self, j: int) -> list[int]:
        """The outcome indices of column j's global section, measurement 0 first."""
        return [j // p % self._base for p in self._powers]

    def section(self, j: int) -> Section:
        """Column j's global section."""
        scenario = self._scenario
        return Section(scenario.measurements, tuple(scenario.outcomes[d] for d in self.digits(j)), scenario)

    def column(self, j: int) -> tuple[list[int], tuple[int, ...]]:
        return self._rows_of(self.digits(j)), self._ones

    def _rows_of(self, digits: list[int]) -> list[int]:
        return [rows[read(digits)] for read, rows in self._lookups]

    def _eliminate(self, weights: list[int]) -> tuple[list[list[int]], int]:
        """The bucket tables, last measurement first, and the maximum over all columns."""
        base, split, flat = self._base, self._split, list(weights)
        buckets = []
        for readers, _, _ in self._plan:
            h = readers[0](flat)
            for more in readers[1:]:
                h = map(add, h, more(flat))
            h = list(h)
            # h[a·|O| + o] is the bucket at outcome o of its last measurement;
            # with one outcome, h is already its own maximum.
            flat.extend(h if base == 1 else map(max, *split(h)))
            buckets.append(h)
        return buckets, sum(map(flat.__getitem__, self._constants))

    def entering(self, weights: list[int]) -> tuple[int, int, list[int], tuple[int, ...]] | None:
        buckets, value = self._eliminate(weights)
        if value <= 0:
            return None
        base, outcome = self._base, []
        chosen = outcome.__getitem__
        for (_, prefix, strides), h in zip(reversed(self._plan), reversed(buckets)):
            a = sum(map(mul, map(chosen, prefix), strides))
            row = h[a:a + base]
            outcome.append(row.index(max(row)))
        return sum(map(mul, outcome, self._powers)), value, self._rows_of(outcome), self._ones


@lru_cache(maxsize=None)
def global_section_columns(scenario: Scenario) -> GlobalSectionColumns:
    """The column source of the scenario's global-section system, cached per scenario."""
    return GlobalSectionColumns(scenario)
