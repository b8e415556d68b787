"""Empirical models: one exact distribution per maximal context.

Construction checks structure only (one table per maximal context, each over
the right sections).  The exact pairwise compatibility condition, the
generalized no-signaling check, lives in :func:`check_model` so that models
loaded from untrusted files can be inspected and reported on rather than
rejected opaquely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .distribution import Distribution, as_fraction, marginalize, point_mass
from .errors import ScenarioMismatchError, WeightError
from .record import Record
from .scenario import Scenario, Section, global_section_columns, restrict, sections_over


class EmpiricalModel:
    """A family of context distributions over a common scenario."""

    __slots__ = ("scenario", "_tables", "_row_weights")

    def __init__(self, scenario: Scenario, tables: Mapping[tuple, Distribution]):
        canon: dict[tuple, Distribution] = {}
        for context, dist in tables.items():
            key = scenario.canonical_context(context)
            if dist.scenario != scenario:
                raise ScenarioMismatchError(f"table for {key!r} was built over a different scenario")
            if dist.context != key:
                raise ScenarioMismatchError(f"table for {key!r} is a distribution over {dist.context!r}")
            canon[key] = dist
        missing = [c for c in scenario.maximal_contexts if c not in canon]
        if missing:
            raise WeightError(f"no table for maximal contexts {missing!r}")
        extra = [c for c in canon if c not in scenario.maximal_contexts]
        if extra:
            raise WeightError(f"tables given for non-maximal contexts {extra!r}")
        self.scenario = scenario
        self._tables = {c: canon[c] for c in scenario.maximal_contexts}

    def table(self, context: Iterable) -> Distribution:
        return self._tables[self.scenario.canonical_context(context)]

    @property
    def tables(self) -> dict[tuple, Distribution]:
        return dict(self._tables)

    def row_weights(self) -> tuple[Fraction, ...]:
        """Each global-section row's table weight, in row order; read once, as the tables never change."""
        if not hasattr(self, "_row_weights"):
            self._row_weights = tuple(self._tables[c].weight(s) for c, s in global_section_columns(self.scenario).rows)
        return self._row_weights

    def support(self, context: Iterable) -> frozenset[Section]:
        return self.table(context).support

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalModel):
            return NotImplemented
        return self.scenario == other.scenario and self._tables == other._tables

    def __repr__(self) -> str:
        return f"EmpiricalModel(contexts={list(self._tables)!r})"


def model_from_tables(scenario: Scenario, tables: Mapping[tuple, Mapping[Section, object]]) -> EmpiricalModel:
    """Convenience builder turning raw weight mappings into distributions."""
    built = {
        context: Distribution(scenario, context, weights)
        for context, weights in tables.items()
    }
    return EmpiricalModel(scenario, built)


# ---------------------------------------------------------------------------
# Compatibility (generalized no-signaling)
# ---------------------------------------------------------------------------


class CompatibilityFailure(Record):
    """One overlap on which two context tables disagree."""

    __slots__ = ("first_context", "second_context", "overlap", "section", "first_value", "second_value")

    def __init__(self, first_context: tuple, second_context: tuple, overlap: tuple, section: Section,
                 first_value: Fraction, second_value: Fraction):
        self._fill(first_context, second_context, overlap, section, first_value, second_value)

    def __str__(self) -> str:
        return (
            f"tables for {self.first_context!r} and {self.second_context!r} disagree on "
            f"{self.overlap!r} at {self.section}: {self.first_value} vs {self.second_value}"
        )


class CompatibilityReport(Record):
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple[CompatibilityFailure, ...]):
        self._fill(ok, failures)

    def __str__(self) -> str:
        if self.ok:
            return "compatible: all context tables agree on overlaps"
        return "; ".join(str(f) for f in self.failures)


def check_model(model: EmpiricalModel) -> CompatibilityReport:
    """Exact pairwise marginal agreement across all maximal-context pairs.

    On failure the report carries, per offending pair, the overlap, the
    section, and both marginal values.
    """
    contexts = model.scenario.maximal_contexts
    failures: list[CompatibilityFailure] = []
    for i, c1 in enumerate(contexts):
        for c2 in contexts[i + 1:]:
            overlap = tuple(m for m in c1 if m in c2)
            left = marginalize(model.table(c1), overlap)
            right = marginalize(model.table(c2), overlap)
            for section in left.sections():
                a, b = left.weight(section), right.weight(section)
                if a != b:
                    failures.append(CompatibilityFailure(c1, c2, overlap, section, a, b))
    return CompatibilityReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Generators for noncontextual controls
# ---------------------------------------------------------------------------


def deterministic_model(scenario: Scenario, global_section: Section) -> EmpiricalModel:
    """The model whose every table is a point mass on the global section's restriction."""
    if tuple(global_section.domain) != scenario.measurements:
        raise ScenarioMismatchError("deterministic_model needs a global section")
    tables = {
        c: point_mass(scenario, restrict(global_section, c))
        for c in scenario.maximal_contexts
    }
    return EmpiricalModel(scenario, tables)


def mixture(models: Sequence[EmpiricalModel], weights: Sequence) -> EmpiricalModel:
    """Pointwise convex combination of models over a common scenario."""
    if len(models) != len(weights):
        raise WeightError("one weight per model required")
    if not models:
        raise WeightError("mixture of zero models")
    ws = [as_fraction(w) for w in weights]
    if any(w < 0 for w in ws):
        raise WeightError("mixture weights must be non-negative")
    if sum(ws) != 1:
        raise WeightError(f"mixture weights sum to {sum(ws)}, expected exactly 1")
    scenario = models[0].scenario
    for m in models[1:]:
        if m.scenario != scenario:
            raise ScenarioMismatchError("mixture components were built over different scenarios")
    tables = {}
    for context in scenario.maximal_contexts:
        mixed = {
            s: sum((w * m.table(context).weight(s) for m, w in zip(models, ws)), Fraction(0))
            for s in sections_over(scenario, context)
        }
        tables[context] = Distribution(scenario, context, mixed)
    return EmpiricalModel(scenario, tables)
