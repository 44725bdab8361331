"""Reference kernel that tracks the speed of a shared machine.

On a machine shared with other tenants the same op's wall time drifts by
a quarter or more over minutes, which no run short enough for the
benchmark can average away.  The benchmark therefore times this fixed
kernel (exact Fraction Gauss-Jordan on a seeded 22 x 23 matrix, no acforms
code) before and after every op and reports each op's time scaled to a
machine on which the kernel takes REFERENCE_S seconds.  On a quiet 2 GHz
Xeon vCPU the kernel takes about that long, so scaled and wall seconds
are close there.  Code changes in acforms move op times and leave the
kernel alone.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.06
_SIZE = 22


def _kernel() -> None:
    state = 12345
    rows = []
    for _ in range(_SIZE):
        row = []
        for _ in range(_SIZE + 1):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            row.append(Fraction((state >> 33) % 2001 - 1000))
        rows.append(row)
    for c in range(_SIZE):
        pivot = next(r for r in range(c, _SIZE) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for r in range(_SIZE):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


def reference_seconds() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    """`seconds` measured while the kernel took `reference` seconds,
    expressed at the speed where it takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference
