"""Box-counting surrogate: exact cylinder counts for schedule sets.

Counts are held as base-b exponents (raw counts overflow around depth 10^3).
For the uniform mass the count of depth-n cylinders meeting the set is the
reciprocal of the cylinder mass, so the count exponent must equal the mass
exponent at every depth; the two are computed by independent routes and
cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import CantorSchedule


@dataclass(frozen=True)
class CountSeries:
    points: tuple[tuple[int, int], ...]  # (depth n, log_b of cylinder count)

    def __post_init__(self):
        prev_n, prev_c = 0, 0
        for n, c in self.points:
            if n <= prev_n:
                raise ValueError("depths must strictly increase")
            if c < prev_c or c > n:
                raise ValueError(f"count exponent {c} invalid at depth {n}")
            prev_n, prev_c = n, c


def constraint_mask(sched: CantorSchedule, base: int, upto: int) -> np.ndarray:
    """Boolean array (1-based, index 0 unused): True where the digit is forced.

    Built by enumerating the pattern positions directly, independently of the
    mass-exponent arithmetic.
    """
    if not 0 <= upto <= sched.covered_to:
        raise ValueError(f"upto {upto} outside covered range")
    mask = np.zeros(upto + 1, dtype=bool)
    for e in sched.entries:
        if e.a > upto:
            break
        hi = min(e.m, upto)
        mask[e.a: hi + 1] = True  # marker, zero run, closing marker
        for t in range(1, e.t + 1):
            pos = e.m + t * e.gap
            if pos <= upto:
                mask[pos] = True
            if base == 2 and pos - 1 <= upto:
                mask[pos - 1] = True
    return mask


def count_exponents_upto(sched: CantorSchedule, base: int, max_n: int) -> np.ndarray:
    """Count exponents for every depth 1..max_n (index 0 unused)."""
    mask = constraint_mask(sched, base, max_n)
    out = np.arange(max_n + 1, dtype=np.int64)
    out[1:] -= np.cumsum(mask[1:])
    return out


def count_series(sched: CantorSchedule, base: int, depths: list[int]) -> CountSeries:
    depths = sorted(set(depths))
    if not depths:
        raise ValueError("no depths requested")
    table = count_exponents_upto(sched, base, depths[-1])
    return CountSeries(points=tuple((n, int(table[n])) for n in depths))


ALL_DEPTHS = "all-depths"
AT_BLOCK_ENDS = "block-ends"


def dimension_slope(series: CountSeries, mode: str) -> float:
    """Dimension estimate from a count series.

    all-depths: least-squares slope of count exponent against depth.
    block-ends: min of exponent/depth over the supplied depths past a 20%
    burn-in (a liminf surrogate; callers supply block-end depths).  The
    burn-in drops depths below 20% of the horizon: block ends are sparse,
    so dropping a fraction of the points would still keep the small-depth
    transients that dominate the min.
    """
    pts = series.points
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    if mode == ALL_DEPTHS:
        ns = np.array([p[0] for p in pts], dtype=float)
        cs = np.array([p[1] for p in pts], dtype=float)
        ns -= ns.mean()
        return float(np.dot(ns, cs - cs.mean()) / np.dot(ns, ns))
    if mode == AT_BLOCK_ENDS:
        cutoff = 0.2 * pts[-1][0]
        tail = [(n, c) for n, c in pts if n >= cutoff]
        return min(c / n for n, c in tail)
    raise ValueError(f"unknown mode {mode!r}")
