"""The contextuality hierarchy: strong, logical, probabilistic, or neither.

Strong and logical contextuality are possibilistic: they depend only on
which sections carry non-zero weight.  Both are read from one greedy cover
of the support by consistent global sections, each entered by the
elimination oracle of the global-section source
(:func:`scenario.global_section_columns`).  The probabilistic tier asks
whether any global distribution marginalizes exactly to every context
table; the exact feasibility solver decides it on the same source.  A
positive answer is a distribution stored as its support, re-marginalized
in integers; a negative one is a rational separating functional that
:meth:`GlobalDistributionCertificate.verify` re-evaluates against the tables
by its own bucket elimination, written apart from the source's.  So
``classify`` lists no global section; :func:`consistent_global_sections`
is the package's one enumeration of them.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import Optional

from . import feasibility
from .distribution import Distribution
from .errors import DEFAULT_ENUMERATION_CAP, DomainError, InternalConsistencyError, TierMismatchError
from .model import EmpiricalModel
from .record import Record
from .scenario import Scenario, Section, check_global_section_cap, global_section_columns


class Tier(Enum):
    STRONG = "Strong"
    LOGICAL = "Logical"
    PROBABILISTIC = "Probabilistic"
    NONCONTEXTUAL = "Noncontextual"

    def __str__(self) -> str:
        return self.value


def consistent_global_sections(model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Section, ...]:
    """Global sections whose restriction to every maximal context is in the support.

    Lists every column of the global-section source, in enumeration order,
    so it refuses scenarios with more than ``cap`` global sections.
    """
    check_global_section_cap(model.scenario, cap)
    source = global_section_columns(model.scenario)
    positive = [model.table(c).weight(s) > 0 for c, s in source.rows]
    return tuple(source.section(j) for j in range(len(source)) if all(map(positive.__getitem__, source.column(j)[0])))


def _support_cover(model: EmpiricalModel, cap: int) -> tuple[bool, Optional[Section]]:
    """Whether no global section is consistent with the support, and the least
    support section that no consistent global section reaches, or None.

    Row (c, s) weighs -(|C| + 1), |C| the number of maximal contexts, where
    the table gives s weight 0; 1 where it is in the support and no
    consistent global section found so far reaches it; 0 once one does.  A
    column meeting a weight-0 section is worth at most -2, so each column the
    oracle enters is a consistent global section reaching a new row, and when
    it enters none the reached rows are those of every consistent global
    section.  Under full support every global section is consistent and
    every support section extends to one, so the oracle is not asked.
    """
    scenario = model.scenario
    check_global_section_cap(scenario, cap)
    source = global_section_columns(scenario)
    excluded = -(len(scenario.maximal_contexts) + 1)
    weights = [1 if w else excluded for w in model.row_weights()]
    if excluded not in weights:
        return False, None
    while (found := source.entering(weights)) is not None:
        if 1 not in map(weights.__getitem__, found[2]):
            raise InternalConsistencyError("the support cover entered a column that reaches no new row")
        for r in found[2]:
            weights[r] = 0
    return 0 not in weights, next((s for (_, s), w in zip(source.rows, weights) if w == 1), None)


def is_strongly_contextual(model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """True when no global section is consistent with the support."""
    return _support_cover(model, cap)[0]


def is_logically_contextual(model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[bool, Optional[Section]]:
    """Find a support section over a maximal context with no consistent global extension.

    Returns the canonically least such witness section (contexts in scenario
    order, sections in enumeration order), or ``(False, None)``.
    """
    witness = _support_cover(model, cap)[1]
    return witness is not None, witness


class GlobalDistributionCertificate(Record):
    """Rational functional separating the global-marginal system from feasibility.

    ``coefficients`` pairs one rational with each (maximal context, section)
    constraint.  Infeasibility of a global distribution is witnessed by:
    for every global section the coefficients of the constraints it feeds
    sum to at most zero, while the weighted sum of the table values is
    strictly positive.
    """

    __slots__ = ("rows", "coefficients")

    def __init__(self, rows: tuple[tuple[tuple, Section], ...], coefficients: tuple[Fraction, ...]):
        self._fill(rows, coefficients)

    def verify(self, model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
        # The cap bounds every elimination table: each holds at most |O|^n entries.
        scenario = model.scenario
        check_global_section_cap(scenario, cap)
        labels = global_section_columns(scenario).rows
        weight_of = dict(zip(self.rows, self.coefficients))
        if not len(self.coefficients) == len(weight_of) == len(self.rows) or weight_of.keys() != set(labels):
            return False
        # The coefficients scaled by the positive lcm of their denominators: the same signs, in integers.
        coefficients = [Fraction(weight_of[label]) for label in labels]
        scale = math.lcm(*(v.denominator for v in coefficients))
        y = [v.numerator * (scale // v.denominator) for v in coefficients]
        tables: dict[tuple, dict[tuple, int]] = {}
        for (c, s), v in zip(labels, y):
            tables.setdefault(c, {})[s.values] = v
        return (_largest_column_sum(scenario, tables) <= 0
                and sum(v * model.table(c).weight(s) for (c, s), v in zip(labels, y) if v) > 0)


def _largest_column_sum(scenario: Scenario, tables: dict[tuple, dict[tuple, int]]) -> int:
    """max over global sections g of Σ_c tables[c][g|c], g|c given as its outcome tuple.

    Bucket elimination, first measurement first: the factors whose scope holds
    it are summed and maximised over its outcomes into one factor on the rest
    of their scope; once every measurement is gone, the factors are constants.
    """
    factors = list(tables.items())
    for m in scenario.measurements:
        bucket = [(scope, table) for scope, table in factors if m in scope]
        factors = [(scope, table) for scope, table in factors if m not in scope]
        rest = tuple(v for v in scenario.measurements if v != m and any(v in scope for scope, _ in bucket))
        table = {}
        for values in itertools.product(scenario.outcomes, repeat=len(rest)):
            point = dict(zip(rest, values))
            sums = []
            for o in scenario.outcomes:
                point[m] = o
                sums.append(sum(t[tuple(point[v] for v in scope)] for scope, t in bucket))
            table[values] = max(sums)
        factors.append((rest, table))
    return sum(table[()] for _, table in factors)


def global_distribution(model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP):
    """Solve for a global distribution marginalizing to every table.

    Returns a :class:`Distribution` over the global sections, stored as the
    solution's support and re-marginalized by :func:`verify_global_distribution`,
    or a :class:`GlobalDistributionCertificate` verified independently when none exists.
    """
    scenario = model.scenario
    check_global_section_cap(scenario, cap)
    source = global_section_columns(scenario)
    outcome = feasibility.solve_source(source, model.row_weights())
    if outcome.feasible:
        support = {source.section(j): x for j, x in outcome.solution.items()}
        distribution = Distribution._from_support(scenario, scenario.measurements, support)
        verify_global_distribution(model, distribution)
        return distribution
    certificate = GlobalDistributionCertificate(source.rows, outcome.certificate.coefficients)
    if not certificate.verify(model, cap=cap):
        raise InternalConsistencyError("infeasibility certificate failed independent verification")
    return certificate


class TierVerdict(Record):
    """Classification outcome plus the witness appropriate to the tier."""

    __slots__ = ("tier", "logical_witness", "certificate", "global_distribution")

    def __init__(self, tier: Tier, logical_witness: Optional[Section] = None,
                 certificate: Optional[GlobalDistributionCertificate] = None,
                 global_distribution: Optional[Distribution] = None):
        self._fill(tier, logical_witness, certificate, global_distribution)

    def __str__(self) -> str:
        return str(self.tier)


def classify(model: EmpiricalModel, cap: int = DEFAULT_ENUMERATION_CAP) -> TierVerdict:
    """Place a model in the hierarchy, strongest applicable tier first."""
    strong, witness = _support_cover(model, cap)
    if strong:
        return TierVerdict(Tier.STRONG)
    if witness is not None:
        return TierVerdict(Tier.LOGICAL, logical_witness=witness)
    result = global_distribution(model, cap=cap)
    if isinstance(result, Distribution):
        return TierVerdict(Tier.NONCONTEXTUAL, global_distribution=result)
    return TierVerdict(Tier.PROBABILISTIC, certificate=result)


def _refuse_noncontextual(tier: Tier) -> None:
    if tier is Tier.NONCONTEXTUAL:
        raise TierMismatchError(f"no violation witness exists for tier {tier}")


def _tier_verdict(model: EmpiricalModel, tier: Tier, cap: int) -> TierVerdict:
    """The verdict that the model has the named tier's property, asking only that tier's question."""
    if tier is Tier.PROBABILISTIC:
        result = global_distribution(model, cap=cap)
        if isinstance(result, Distribution):
            raise TierMismatchError("the model admits a global distribution")
        return TierVerdict(tier, certificate=result)
    if tier in (Tier.STRONG, Tier.LOGICAL):
        strong, section = _support_cover(model, cap)
        if section is None or tier is Tier.STRONG and not strong:
            raise TierMismatchError(f"the model is not {str(tier).lower()}ly contextual")
        return TierVerdict(tier, logical_witness=section)
    return TierVerdict(tier)


def verify_global_distribution(model: EmpiricalModel, dist: Distribution) -> None:
    """Assert that a candidate global distribution reproduces every table exactly, in integers."""
    if dist.context != model.scenario.measurements:
        raise DomainError(f"a global distribution is over {model.scenario.measurements!r}, not {dist.context!r}")
    # The support scaled by the lcm of its denominators; per context, its numerators summed per outcome tuple.
    support = [(s.values, dist.weight(s)) for s in dist.support]
    scale = math.lcm(*(w.denominator for _, w in support))
    support = [(values, w.numerator * (scale // w.denominator)) for values, w in support]
    for context in model.scenario.maximal_contexts:
        positions, sums = [model.scenario.measurement_index(m) for m in context], {}
        for values, v in support:
            key = tuple(map(values.__getitem__, positions))
            sums[key] = sums.get(key, 0) + v
        table = model.table(context)
        want = {s.values: table.weight(s) for s in table.support}
        if sums.keys() != want.keys() or any(sums[k] * w.denominator != w.numerator * scale for k, w in want.items()):
            raise InternalConsistencyError(f"global distribution does not marginalize to {context!r}")
