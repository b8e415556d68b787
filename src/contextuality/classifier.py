"""The contextuality hierarchy: strong, logical, probabilistic, or neither.

Strong and logical contextuality are possibilistic: they depend only on
which sections carry non-zero weight.  The probabilistic tier asks whether
any global distribution marginalizes exactly to every context table; that
question is decided by the exact feasibility solver, and a negative answer
comes with a rational separating functional that can be re-evaluated
against the tables independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .distribution import Distribution, marginalize
from .errors import DEFAULT_ENUMERATION_CAP, InternalConsistencyError
from .feasibility import solve_source
from .model import EmpiricalModel
from .scenario import GlobalSectionSystem, Section, global_section_columns, global_section_system


class Tier(Enum):
    STRONG = "Strong"
    LOGICAL = "Logical"
    PROBABILISTIC = "Probabilistic"
    NONCONTEXTUAL = "Noncontextual"

    def __str__(self) -> str:
        return self.value


def _positive_rows(model: EmpiricalModel, system: GlobalSectionSystem) -> list[bool]:
    return [model.table(c).weight(s) > 0 for c, s in system.rows]


def consistent_global_sections(model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Section, ...]:
    """Global sections whose restriction to every maximal context is in the support."""
    system = global_section_system(model.scenario, cap)
    positive = _positive_rows(model, system)
    return tuple(g for g, rows in zip(system.columns, system.incidence) if all(positive[r] for r in rows))


def is_strongly_contextual(model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """True when no global section is consistent with the support."""
    return not consistent_global_sections(model, cap=cap)


def is_logically_contextual(model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[bool, Optional[Section]]:
    """Find a support section over a maximal context with no consistent global extension.

    Returns the canonically least such witness section (contexts in scenario
    order, sections in enumeration order), or ``(False, None)``.
    """
    system = global_section_system(model.scenario, cap)
    positive = _positive_rows(model, system)
    reached = {r for rows in system.incidence if all(positive[r] for r in rows) for r in rows}
    for r, (_, s) in enumerate(system.rows):
        if positive[r] and r not in reached:
            return True, s
    return False, None


@dataclass(frozen=True)
class GlobalDistributionCertificate:
    """Rational functional separating the global-marginal system from feasibility.

    ``coefficients`` pairs one rational with each (maximal context, section)
    constraint.  Infeasibility of a global distribution is witnessed by:
    for every global section the coefficients of the constraints it feeds
    sum to at most zero, while the weighted sum of the table values is
    strictly positive.
    """

    rows: tuple[tuple[tuple, Section], ...]
    coefficients: tuple[Fraction, ...]

    def verify(self, model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
        system = global_section_system(model.scenario, cap)
        weight_of = dict(zip(self.rows, self.coefficients))
        if len(weight_of) != len(self.rows) or weight_of.keys() != set(system.rows):
            return False
        # The coefficients scaled by the positive lcm of their denominators: the same signs, in integers.
        coefficients = [Fraction(weight_of[label]) for label in system.rows]
        scale = lcm(*(v.denominator for v in coefficients))
        y = [v.numerator * (scale // v.denominator) for v in coefficients]
        if any(sum(map(y.__getitem__, rows)) > 0 for rows in system.incidence):
            return False
        return sum(v * model.table(c).weight(s) for (c, s), v in zip(system.rows, y) if v) > 0


def _solve_global_system(model: EmpiricalModel, rhs_of: Callable[[tuple, Section], Fraction],
                         cap: int = DEFAULT_ENUMERATION_CAP):
    """Solve the global-section system with right-hand side ``rhs_of(c, s)`` on row ``(c, s)``.

    Returns the solution over the columns, or a verified certificate of infeasibility.
    """
    system = global_section_system(model.scenario, cap)
    outcome = solve_source(global_section_columns(model.scenario), [rhs_of(c, s) for c, s in system.rows])
    if outcome.feasible:
        return outcome.solution
    certificate = GlobalDistributionCertificate(system.rows, outcome.certificate.coefficients)
    if not certificate.verify(model, cap=cap):
        raise InternalConsistencyError("infeasibility certificate failed independent verification")
    return certificate


def global_distribution(model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP):
    """Solve for a global distribution marginalizing to every table.

    Returns a :class:`Distribution` over the global sections, or a
    :class:`GlobalDistributionCertificate` when none exists.
    """
    result = _solve_global_system(model, lambda c, s: model.table(c).weight(s), cap)
    if isinstance(result, GlobalDistributionCertificate):
        return result
    scenario = model.scenario
    weights = dict(zip(global_section_system(scenario, cap).columns, result))
    return Distribution(scenario, scenario.measurements, weights, cap=cap)


@dataclass(frozen=True)
class TierVerdict:
    """Classification outcome plus the witness appropriate to the tier."""

    tier: Tier
    logical_witness: Optional[Section] = None
    certificate: Optional[GlobalDistributionCertificate] = None
    global_distribution: Optional[Distribution] = None

    def __str__(self) -> str:
        return str(self.tier)


def classify(model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP) -> TierVerdict:
    """Place a model in the hierarchy, strongest applicable tier first."""
    if is_strongly_contextual(model, cap=cap):
        return TierVerdict(Tier.STRONG)
    logical, witness = is_logically_contextual(model, cap=cap)
    if logical:
        return TierVerdict(Tier.LOGICAL, logical_witness=witness)
    result = global_distribution(model, cap=cap)
    if isinstance(result, Distribution):
        verify_global_distribution(model, result)
        return TierVerdict(Tier.NONCONTEXTUAL, global_distribution=result)
    return TierVerdict(Tier.PROBABILISTIC, certificate=result)


def verify_global_distribution(model: EmpiricalModel, dist: Distribution) -> None:
    """Assert that a candidate global distribution reproduces every table exactly."""
    for context in model.scenario.maximal_contexts:
        if marginalize(dist, context) != model.table(context):
            raise InternalConsistencyError(f"global distribution does not marginalize to {context!r}")
