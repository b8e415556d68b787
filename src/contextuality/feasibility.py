"""Exact rational feasibility for systems  A x = b,  x >= 0.

Everything here is exact integer or :class:`fractions.Fraction` arithmetic;
there is no tolerance anywhere.  The solver either returns a non-negative
rational solution or a Farkas certificate of infeasibility:

    a vector y with  yᵀA <= 0  componentwise and  yᵀb > 0.

Evaluating the certificate against the system is a finite exact computation,
so every infeasibility verdict can be re-checked independently of the
pivoting path that produced it.

Method: one core, :func:`solve_columns`, takes A as its sparse columns:
each column's rows and, unless every entry is one, its entries.  The
columns of a global-section system are all 0/1 and go in as they are.
:func:`solve_nonnegative` is the dense adapter: it transposes its rows into
sparse columns once and calls the core.  Each row is scaled once by the lcm
of its denominators, with its sign flipped so that its right-hand side is
non-negative; from there on every number is an integer.  A fraction-free
forward elimination over the scaled rows keeps a maximal independent subset
of the original rows, and a dependent row whose residual right-hand side is
non-zero yields a certificate directly.  A revised phase-1 simplex then
runs on the k independent rows.  It reads each structural column once, as
its sparse (row, coefficient) list over those rows, and keeps only a
(k+1) × (k+1) integer block: d·B⁻¹ (the artificial columns, B the basis
and d its common denominator), the right-hand side, and the phase-1
objective as its last row.  A pivot prices every column as π·A_j, with π
the objective row's artificial entries plus d, forms only the entering
column d·B⁻¹A_j, and updates the block alone by Edmonds' common-denominator
pivot  (x·p − f·r) / d, which keeps every entry an integer (Bareiss, Math.
Comp. 22, 1968).  Every row of the full tableau [A | I | b] is the
combination of original rows that its artificial entries record, so π·A_j
and d·B⁻¹A_j are exactly the integers that tableau would hold: the reduced
costs, the ratio test and its tie-break, and so the pivot path, the
solutions and the certificates, are the dense tableau's, at the cost of one
pass over the non-zeros of A per pivot instead of a rewrite of every
column.  The entering column has the largest reduced cost; after a run of
degenerate pivots the solver prices by Bland's least-index rule until a
pivot makes progress.  A pivot that makes progress lowers the phase-1
objective, and Bland's rule cannot cycle, so every degenerate run ends and
the simplex terminates.  The Farkas ray or the primal vector is read
exactly from the final basis and checked against the original sparse
columns; all orderings are fixed, so the output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul, ne
from typing import Sequence

from .errors import InternalConsistencyError

ZERO = Fraction(0)

# Consecutive degenerate pivots priced by the largest reduced cost before
# pricing falls back to Bland's least-index rule.
_STALL = 10


@dataclass(frozen=True)
class FarkasCertificate:
    """A separating functional for an infeasible system  A x = b, x >= 0."""

    coefficients: tuple[Fraction, ...]

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
        if any(t > 0 for t in totals):
            return False
        return sum(yi * v for yi, v in zip(y, rhs) if yi) > 0


@dataclass(frozen=True)
class FeasibilityOutcome:
    feasible: bool
    solution: tuple[Fraction, ...] | None
    certificate: FarkasCertificate | None


def solve_nonnegative(rows: Sequence[Sequence], rhs: Sequence) -> FeasibilityOutcome:
    """Find x >= 0 with A x = b, or a Farkas certificate that none exists."""
    rhs = list(rhs)
    if len(rows) != len(rhs):
        raise ValueError("one right-hand side per row required")
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged coefficient matrix")
    columns, values = [], []
    for column in zip(*rows):
        support = tuple(i for i, v in enumerate(column) if v)
        columns.append(support)
        values.append(tuple(column[i] for i in support))
    return solve_columns(columns, rhs, values)


def solve_columns(columns: Sequence[Sequence[int]], rhs: Sequence,
                  values: Sequence[Sequence] | None = None) -> FeasibilityOutcome:
    """Find x >= 0 with A x = b, or a Farkas certificate, for A given by its sparse columns.

    ``columns[j]`` lists the rows, each once and in ``range(len(rhs))``, at
    which column j is non-zero; ``values[j]`` holds those entries in the same
    order, or ``values`` is None when every listed entry is one, as in a
    global-section system.
    """
    b = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in rhs]
    m, n = len(b), len(columns)
    if any(rows and (min(rows) < 0 or max(rows) >= m) for rows in columns):
        raise ValueError("column lists a row outside the system")
    unit = values is None
    if unit:
        values = [(1,) * len(rows) for rows in columns]
    elif len(values) != n or any(map(ne, map(len, columns), map(len, values))):
        raise ValueError("one value per listed row required")
    else:
        values = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in column] for column in values]

    # -- integer rows [A_i | b_i] scaled so that b_i >= 0 --------------------
    denominator = [v.denominator for v in b]
    if not unit:
        for rows, column in zip(columns, values):
            for r, v in zip(rows, column):
                denominator[r] = lcm(denominator[r], v.denominator)
    scale = [-s if v < 0 else s for s, v in zip(denominator, b)]
    if unit:
        scaled = [tuple(map(scale.__getitem__, rows)) for rows in columns]
    else:
        scaled = [tuple(v.numerator * (scale[r] // v.denominator) for r, v in zip(rows, column))
                  for rows, column in zip(columns, values)]
    system = [[0] * n + [v.numerator * (s // v.denominator)] for v, s in zip(b, scale)]
    for j, (rows, coefficients) in enumerate(zip(columns, scaled)):
        for r, v in zip(rows, coefficients):
            system[r][j] = v

    # -- presolve: a maximal independent subset of the original rows ---------
    # Each reduced row carries its combination of original rows after its
    # right-hand side, so a dependent row's residual is a certificate.
    echelon: list[tuple[int, list[int]]] = []
    independent: list[int] = []
    for i, row in enumerate(system):
        cur = row + [0] * m
        cur[n + 1 + i] = 1
        for lead, prow in echelon:
            f = cur[lead]
            if f:
                p = prow[lead]
                cur = [x * p - f * y for x, y in zip(cur, prow)]
                g = gcd(*cur)
                cur = [x // g for x in cur]
        lead = next((j for j in range(n) if cur[j]), None)
        if lead is None:
            if cur[n]:
                return FeasibilityOutcome(False, None, _certificate(cur[n + 1:], cur[n], scale, columns, values, b))
            continue
        echelon.append((lead, cur))
        independent.append(i)

    k = len(independent)
    if not k:
        return FeasibilityOutcome(True, tuple(ZERO for _ in range(n)), None)

    basis, d, block = _phase1(columns, scaled, system, independent)

    if block[k][k] > 0:
        # Row k holds d(yᵣ - 1) in artificial column r: the reduced cost of e_r.
        y = [0] * m
        for r, i in enumerate(independent):
            y[i] = block[k][r] + d
        return FeasibilityOutcome(False, None, _certificate(y, block[k][k], scale, columns, values, b))

    solution = [ZERO] * n
    for r in range(k):
        if basis[r] < n:
            solution[basis[r]] = Fraction(block[r][k], d)
    residual = list(b)
    for j, x in enumerate(solution):
        if x:
            for r, v in zip(columns[j], values[j]):
                residual[r] -= v * x
    if any(residual):
        raise InternalConsistencyError("simplex returned a vector that misses a constraint")
    if any(v < 0 for v in solution):
        raise InternalConsistencyError("simplex returned a negative component")
    return FeasibilityOutcome(True, tuple(solution), None)


def _phase1(columns: list[Sequence[int]], scaled: list[tuple[int, ...]], system: list[list[int]],
            independent: list[int]) -> tuple[list[int], int, list[list[int]]]:
    """The revised phase-1 simplex on the independent rows of the scaled system.

    ``scaled[j]`` holds the scaled coefficients of column j at the rows
    ``columns[j]`` lists.  Returns the final basis, the common denominator d
    and the integer block: in row r < k, d·B⁻¹ (the artificial columns) and
    the right-hand side; in row k, the phase-1 objective over the same
    columns.
    """
    k = len(independent)
    n = len(columns)
    content = [gcd(*system[i][:n]) for i in independent]
    position = [None] * len(system)
    for r, i in enumerate(independent):
        position[i] = r
    # Each structural column once, sparse over the independent rows: their
    # positions, the coefficients, and for pricing those coefficients over
    # the rows' contents g_r, or None when they are all one, as in every
    # column of a global-section system.
    sparse = []
    for rows, coefficients in zip(columns, scaled):
        kept = [(position[i], v) for i, v in zip(rows, coefficients) if v and position[i] is not None]
        rows = tuple(r for r, _ in kept)
        coefficients = tuple(v for _, v in kept)
        reduced = tuple(v // content[r] for r, v in kept)
        sparse.append((rows, coefficients, None if all(v == 1 for v in reduced) else reduced))
    block = []
    for r, i in enumerate(independent):
        row = [0] * (k + 1)
        row[r] = 1
        row[k] = system[i][n]
        block.append(row)
    block.append([0] * k + [sum(row[k] for row in block)])
    basis = list(range(n, n + k))
    d = 1
    degenerate = 0
    while block[k][k]:
        # Row k is (π - d·1) on the artificials with π = d·yᵀ, so the reduced
        # cost of column j is π·A_j: the integer the dense tableau would hold.
        weight = [(v + d) * g for v, g in zip(block[k][:k], content)].__getitem__
        costs = [sum(map(weight, rows)) if reduced is None else sum(map(mul, map(weight, rows), reduced))
                 for rows, _, reduced in sparse]
        if degenerate < _STALL:
            best = max(costs)
            col = costs.index(best) if best > 0 else None
        else:
            col = next((j for j in range(n) if costs[j] > 0), None)
        if col is None:
            break
        # The entering column d·B⁻¹A_j, with its reduced cost in row k.
        rows, coefficients, _ = sparse[col]
        entering = [sum(map(mul, map(row.__getitem__, rows), coefficients)) for row in block[:k]] + [costs[col]]
        leave = None
        for i in range(k):
            coef = entering[i]
            if coef > 0:
                num = block[i][k]
                if leave is None or num * lcoef < lnum * coef or (
                        num * lcoef == lnum * coef and basis[i] < basis[leave]):
                    leave, lnum, lcoef = i, num, coef
        if leave is None:
            raise InternalConsistencyError("phase-1 objective is bounded; no leaving row found")
        degenerate = 0 if lnum else degenerate + 1
        d = _pivot(block, entering, leave, d)
        basis[leave] = col
    return basis, d, block


def _pivot(block: list[list[int]], column: list[int], row: int, d: int) -> int:
    """Edmonds' integer pivot on ``column[row]``; returns the new common denominator."""
    prow = block[row]
    p = column[row]
    for i, other in enumerate(block):
        f = column[i]
        if i == row or (not f and p == d):
            continue
        if f:
            block[i] = [(x * p - f * y) // d if y else x * p // d for x, y in zip(other, prow)]
        else:
            block[i] = [x * p // d for x in other]
    return p


def _certificate(y: list[int], value: int, scale: list[int], columns, values, b) -> FarkasCertificate:
    """The primitive integer certificate for the original rows, from weights on the scaled ones.

    It is checked against the original sparse columns:  yᵀA <= 0  and  yᵀb > 0.
    """
    if value == 0:
        raise InternalConsistencyError("degenerate certificate")
    y = [v * s for v, s in zip(y, scale)]
    g = gcd(*y) if value > 0 else -gcd(*y)
    y = [v // g for v in y]
    if (any(sum(map(mul, map(y.__getitem__, rows), column)) > 0 for rows, column in zip(columns, values))
            or sum(map(mul, y, b)) <= 0):
        raise InternalConsistencyError("constructed certificate failed self-verification")
    return FarkasCertificate(tuple(map(Fraction, y)))
