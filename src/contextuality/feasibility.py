"""Exact rational feasibility for systems  A x = b,  x >= 0.

Everything here is exact integer or :class:`fractions.Fraction` arithmetic;
there is no tolerance anywhere.  The solver either returns a non-negative
rational solution or a Farkas certificate of infeasibility:

    a vector y with  yᵀA <= 0  componentwise and  yᵀb > 0.

Evaluating the certificate against the system is a finite exact computation,
so every infeasibility verdict can be re-checked independently of the
pivoting path that produced it.

Method: one core, :func:`solve_source`, reads an integer matrix A through a
*column source*, which need not list its columns.  A source has ``len``,
the number of columns; ``spanning()``, the indices of columns at which a
combination of the rows vanishes only if it vanishes at every column;
``column(j)``, column j's rows and entries; and ``entering(w)``, the column
the simplex enters under integer row weights w: the least index with the
largest positive value Σ_r w_r·A_rj, with that value and the column's rows
and entries, or None when no value is positive.  :class:`ExplicitColumns`
lists its columns, prices every one of them, and spans with all of them;
the point-membership reference (``dutchbook.convexity_membership``), which
the global-section solve is tested against, poses its 0/1 point columns
through it.
The global-section system has one source
(:func:`scenario.global_section_columns`); it prices by variable
elimination over the contexts along one flat plan built once per scenario
(the row weights, then each step's max-table, in one list read at fixed
positions) and spans with one column per context and non-zero digits on
it, so neither the presolve nor a pivot of a global-section solve, nor the
classifier's re-check of its certificate, reads all |O|^n columns.

A fraction-free forward elimination over the rows read at the spanning
columns, computed once per source and kept on it, finds a maximal
independent subset of the rows and each other row's vanishing primitive
combination with the earlier ones; those columns keep every linear relation
of the rows, so these are the full rows'.  Each solve checks the
combinations against its right-hand side in row order, and the first that
misses it, signed so that yᵀb > 0, is a certificate.  Otherwise each row
keeps its entries and only has its sign flipped so that its right-hand side
is non-negative; the right-hand side is multiplied once by L, the lcm of
its denominators, and the artificial of row i costs den(b_i) in the
phase-1 objective.  That is the LP of rows
scaled by den(b_i) and unit costs, with artificial a_i rescaled by
1/den(b_i): every ratio-test quotient, reduced cost and tie-break is that
LP's, so is the pivot path, and the integers stay those of the matrix's own
basis (near 20 bits on the 0/1 global-section matrix, not 100).  A revised
phase-1 simplex then runs on the k independent rows and keeps only a
(k+1) × (k+1) integer block: d·B⁻¹ (the artificial columns, B the basis and
d its common denominator), the right-hand side, and the phase-1 objective
as its last row.  A pivot asks the source for its entering column, with
its rows and entries, under the row weights (π_r + d·den(b_r))·sign_r on
the independent rows and 0 on the others, π the objective row's artificial
entries; gathers d·B⁻¹A_j from each block row at those rows, a plain sum
when the signed entries are all 1; and updates the block alone by Edmonds'
common-denominator pivot  (x·p − f·r) / d, which keeps every entry an
integer (Bareiss, Math. Comp. 22, 1968).  When p = d that is x − f·r/d,
with f·r divisible by d: only the rows with f ≠ 0 change, in place, and
only where r ≠ 0.  Every row of the full tableau [A | I | b] is the
combination of original rows that its artificial entries record, so the
weighted sums are exactly the reduced costs that tableau would hold, and
d·B⁻¹A_j its entering column: the pivot path, the solutions and the
certificates are the dense tableau's.  The entering column has the
largest reduced cost, and ratio-test ties go to the block row, right-hand
side then d·B⁻¹, lexicographically least over its entering coefficient
(Dantzig, Orden and Wolfe, Pacific J. Math. 5, 1955): the rows [b | I]
stay lexicographically positive, so the objective row over d, a function
of the basis, falls lexicographically at every pivot and no basis recurs.
An entering value that is not positive or not the handed-back column's
worth, or a pivot that raises the objective, raises InternalConsistencyError
instead of looping.  The Farkas ray is read exactly from the final basis and
checked by the source's pricing, which must enter no column under it; the
primal vector, x_j = block[r][k] / (d·L), is checked against every row in
integers scaled by d·L and returned as its support, ``{j: x_j}`` over the
basic columns with x_j > 0 in ascending j, so no solve lists all the
columns.  All orderings are fixed, so the output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Sequence

from .errors import InternalConsistencyError
from .record import Record


class FarkasCertificate(Record):
    """A separating functional for an infeasible system  A x = b, x >= 0."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[Fraction, ...]):
        self._fill(coefficients)

    def verify(self, rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> bool:
        """Exactly evaluate  yᵀA <= 0  and  yᵀb > 0  against a system."""
        if len(self.coefficients) != len(rows):
            return False
        # y scaled by the positive lcm of its denominators: the same signs, in integers.
        y = [Fraction(v) for v in self.coefficients]
        scale = lcm(*(v.denominator for v in y))
        y = [v.numerator * (scale // v.denominator) for v in y]
        totals = [0] * (len(rows[0]) if rows else 0)
        for yi, row in zip(y, rows):
            if yi:
                for j, v in enumerate(row):
                    if v:
                        totals[j] += yi * v
        return not any(t > 0 for t in totals) and sum(yi * v for yi, v in zip(y, rhs) if yi) > 0


class FeasibilityOutcome(Record):
    __slots__ = ("feasible", "solution", "certificate")

    def __init__(self, feasible: bool, solution: dict[int, Fraction] | None, certificate: FarkasCertificate | None):
        self._fill(feasible, solution, certificate)


class ExplicitColumns:
    """A column source that lists its integer columns and prices every one."""

    def __init__(self, columns: Sequence[Sequence[int]], values: Sequence[Sequence[int]]):
        self.columns = columns
        self.values = values

    def __len__(self) -> int:
        return len(self.columns)

    def spanning(self) -> range:
        return range(len(self.columns))

    def column(self, j: int) -> tuple[Sequence[int], Sequence[int]]:
        return self.columns[j], self.values[j]

    def _costs(self, weights: list[int]) -> list[int]:
        weight = weights.__getitem__
        return [sum(map(mul, map(weight, rows), values)) for rows, values in zip(self.columns, self.values)]

    def entering(self, weights: list[int]) -> tuple[int, int, Sequence[int], Sequence[int]] | None:
        costs = self._costs(weights)
        best = max(costs, default=0)
        col = costs.index(best) if best > 0 else None
        return None if col is None else (col, best, self.columns[col], self.values[col])


def solve_source(source, rhs: Sequence) -> FeasibilityOutcome:
    """Find x >= 0 with A x = b, or a Farkas certificate, for the integer A of a column source."""
    b = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in rhs]
    n = len(source)

    if not hasattr(source, "_presolved"):
        source._presolved = _presolve(_spanned_rows(source, len(b)))
    independent, dependent = source._presolved
    common = lcm(*(v.denominator for v in b))
    whole = [v.numerator * (common // v.denominator) for v in b]
    for combination in dependent:
        if value := sum(map(mul, combination, whole)):
            return FeasibilityOutcome(False, None, _certificate(combination, value, source, b))

    k = len(independent)
    if not k:
        return FeasibilityOutcome(True, {}, None)

    sign = [-1 if v < 0 else 1 for v in whole]
    cost = [v.denominator for v in b]
    target = list(map(abs, whole))
    basis, d, block = _phase1(source, sign, cost, target, independent)

    if block[k][k] > 0:
        # Row k holds d(yᵣ - costᵣ) in artificial column r: the reduced cost of e_r.
        y = [0] * len(b)
        for r, i in enumerate(independent):
            y[i] = (block[k][r] + d * cost[i]) * sign[i]
        return FeasibilityOutcome(False, None, _certificate(y, block[k][k], source, b))

    # A x = b checked in integers: d·L·x_j is block[r][k] for column j basic
    # in row r, so row i of A sums to d·L·b_i, which is d·sign_i·target_i.
    solution = {}
    totals = [0] * len(b)
    for r, j in enumerate(basis):
        if j < n and (x := block[r][k]):
            if x < 0:
                raise InternalConsistencyError("simplex returned a negative component")
            for i, v in zip(*source.column(j)):
                totals[i] += v * x
            solution[j] = Fraction(x, d * common)
    if any(t * s != d * goal for t, s, goal in zip(totals, sign, target)):
        raise InternalConsistencyError("simplex returned a vector that misses a constraint")
    return FeasibilityOutcome(True, dict(sorted(solution.items())), None)


def _phase1(source, sign: list[int], cost: list[int], target: list[int],
            independent: list[int]) -> tuple[list[int], int, list[list[int]]]:
    """The revised phase-1 simplex on the independent rows, artificial i costing ``cost[i]``.

    Row i of the system is ``sign[i]`` times row i of the source's matrix,
    with right-hand side ``target[i]``.  Returns the final basis, the common
    denominator d and the integer block: in row r < k, d·B⁻¹ (the artificial
    columns) and the right-hand side; in row k, the phase-1 objective over
    the same columns.
    """
    k = len(independent)
    position = {i: r for r, i in enumerate(independent)}
    block = [[int(c == r) for c in range(k)] + [target[i]] for r, i in enumerate(independent)]
    block.append([0] * k + [sum(cost[i] * target[i] for i in independent)])
    basis = list(range(len(source), len(source) + k))
    weights, d = [0] * len(sign), 1
    while block[k][k]:
        # Row k is (π - d·cost) on the artificials with π = d·yᵀ, so the
        # reduced cost of column j, the integer the dense tableau would hold,
        # is π times column j of the signed rows: its value under the row
        # weights π_i·sign_i.
        for v, i in zip(block[k], independent):
            weights[i] = (v + d * cost[i]) * sign[i]
        found = source.entering(weights)
        if found is None:
            break
        col, value, rows, entries = found
        if value <= 0 or value != sum(map(mul, map(weights.__getitem__, rows), entries)):
            raise InternalConsistencyError(f"entering column {col} handed back at {value}, not its positive worth")
        # d·B⁻¹A_j from one gather per block row at the column's independent rows; its reduced cost in row k.
        places, signed = zip(*[(position[i], v * sign[i]) for i, v in zip(rows, entries) if v and i in position])
        gather = itemgetter(*places) if len(places) > 1 else itemgetter(slice(places[0], places[0] + 1))
        unit = signed.count(1) == len(signed)
        entering = [sum(gather(row) if unit else map(mul, gather(row), signed)) for row in block[:k]] + [value]
        leave = None
        for i, coef in enumerate(entering[:k]):
            if coef > 0:
                num = block[i][k]
                if leave is None or num * lcoef < lnum * coef or (
                        num * lcoef == lnum * coef and _precedes(block[i], coef, block[leave], lcoef)):
                    leave, lnum, lcoef = i, num, coef
        if leave is None:
            raise InternalConsistencyError("phase-1 objective is bounded; no leaving row found")
        # The objective is block[k][k] / d before the pivot and over the new d after it.
        objective, prior, d = block[k][k], d, _pivot(block, entering, leave, d)
        if block[k][k] * prior > objective * d:
            raise InternalConsistencyError("a pivot raised the phase-1 objective")
        basis[leave] = col
    return basis, d, block


def _precedes(row: list[int], coef: int, other: list[int], ocoef: int) -> bool:
    """Whether block row ``row / coef`` is lexicographically less than ``other / ocoef``, right-hand sides tied."""
    for x, y in zip(row, other):
        if x * ocoef != y * coef:
            return x * ocoef < y * coef
    raise InternalConsistencyError("two rows of the basis inverse tie in the ratio test")


def _pivot(block: list[list[int]], column: list[int], row: int, d: int) -> int:
    """Edmonds' integer pivot on ``column[row]``; returns the new common denominator."""
    prow, p = block[row], column[row]
    pairs = [(j, y) for j, y in enumerate(prow) if y]
    for i, other in enumerate(block):
        f = column[i]
        if i == row or (not f and p == d):
            continue
        if p == d:
            for j, y in pairs:
                other[j] -= f * y // d
        elif f:
            block[i] = [(x * p - f * y) // d if y else x * p // d for x, y in zip(other, prow)]
        else:
            block[i] = [x * p // d for x in other]
    return p


def _spanned_rows(source, m: int) -> list[list[int]]:
    """The source's m rows, each read at its spanning columns."""
    spanning = source.spanning()
    rows = [[0] * len(spanning) for _ in range(m)]
    for p, j in enumerate(spanning):
        for r, v in zip(*source.column(j)):
            rows[r][p] += v
    return rows


def _presolve(rows: list) -> tuple[list[int], list[list[int]]]:
    """The independent rows, in order, and each other row's vanishing primitive combination."""
    width = len(rows[0]) if rows else 0
    echelon, independent, dependent = [], [], []
    for i, row in enumerate(rows):
        cur = list(row) + [0] * len(rows)
        cur[width + i] = 1
        for lead, prow in echelon:
            f = cur[lead]
            if f:
                p = prow[lead]
                cur = [x * p - f * y for x, y in zip(cur, prow)]
                g = gcd(*cur)
                cur = [x // g for x in cur]
        lead = next((j for j in range(width) if cur[j]), None)
        if lead is None:
            dependent.append(cur[width:])
        else:
            echelon.append((lead, cur))
            independent.append(i)
    return independent, dependent


def _certificate(y: list[int], value: int, source, b) -> FarkasCertificate:
    """The primitive integer certificate for the source's rows from row weights y, yᵀb of value's sign.

    It is checked against every column by the source's pricing, which
    enters none exactly when yᵀA <= 0, and against  yᵀb > 0.
    """
    if value == 0:
        raise InternalConsistencyError("degenerate certificate")
    g = gcd(*y) if value > 0 else -gcd(*y)
    y = [v // g for v in y]
    if source.entering(y) is not None or sum(map(mul, y, b)) <= 0:
        raise InternalConsistencyError("constructed certificate failed self-verification")
    return FarkasCertificate(tuple(map(Fraction, y)))
