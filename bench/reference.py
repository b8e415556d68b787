"""A fixed unit of exact work that calls nothing of the library.

The benchmark times it during every timed run to follow the machine's
speed, and scales the run's times to the speed at which ``kernel`` takes
``SECONDS`` in this process (``CHILD_SECONDS`` when timed as a fresh
interpreter that runs it, start-up included).  The matrix, the kernel and
both constants may not change: they are the unit of every timed
end-to-end metric.  Both constants are about the kernel's time on a 2-vCPU
virtual machine with Python 3.11.

    python3 bench/reference.py      runs the kernel once
"""

from __future__ import annotations

import random
from fractions import Fraction

SECONDS = 0.12
CHILD_SECONDS = 0.24
MATRIX = [[random.Random(f"{i}:{j}").randint(0, 3) for j in range(160)] for i in range(12)]


def kernel() -> None:
    """Gauss-Jordan elimination over ``Fraction`` on the fixed 12 x 160
    integer matrix: the kind of arithmetic the library's exact solver
    spends its time on."""
    rows = [[Fraction(v) for v in row] for row in MATRIX]
    used: set[int] = set()
    for r, row in enumerate(rows):
        col = next(j for j, v in enumerate(row) if v and j not in used)
        used.add(col)
        pivot = row[col]
        rows[r] = row = [v / pivot for v in row]
        for other in range(len(rows)):
            factor = rows[other][col]
            if other != r and factor:
                rows[other] = [a - factor * b for a, b in zip(rows[other], row)]


if __name__ == "__main__":
    kernel()
