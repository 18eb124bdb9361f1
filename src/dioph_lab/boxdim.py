"""Box-counting surrogate: exact cylinder counts for schedule sets.

Counts are held as base-b exponents (raw counts overflow around depth 10^3).
A depth-n cylinder meets the set once its forced positions hold their
digits, so the count exponent is n minus the number of forced positions up
to n.  Those are read off `construct.forced_digits`, the one statement of
the schedule's pattern, which emission reads as well.  For the uniform mass
the count is the reciprocal of the cylinder mass, so the count exponent must
equal the mass exponent of `construct.mu_exponents_upto` at every depth: the
mass formula checks the emitted layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .construct import FREE, CantorSchedule, forced_digits

MIN_POINTS = 3  # fewest points a dimension estimate is made from


@dataclass(frozen=True, eq=False)
class CountSeries:
    points: np.ndarray  # int64 (N, 2) rows: depth n, log_b of cylinder count

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "points", pts)
        n, c = pts[:, 0], pts[:, 1]
        bad_n = np.diff(n, prepend=0) <= 0
        bad = bad_n | (np.diff(c, prepend=0) < 0) | (c > n)
        if bad.any():
            i = int(bad.argmax())
            if bad_n[i]:
                raise ValueError("depths must strictly increase")
            raise ValueError(f"count exponent {c[i]} invalid at depth {n[i]}")


def constraint_mask(sched: CantorSchedule, base: int, upto: int) -> np.ndarray:
    """Boolean array (1-based, index 0 unused): True where the digit is forced."""
    return forced_digits(sched, base, upto) != FREE


def count_exponents_upto(sched: CantorSchedule, base: int, max_n: int) -> np.ndarray:
    """Count exponents for every depth 1..max_n (index 0 unused)."""
    mask = constraint_mask(sched, base, max_n)
    out = np.arange(max_n + 1, dtype=np.int64)
    out[1:] -= np.cumsum(mask[1:])
    return out


def count_series(sched: CantorSchedule, base: int, depths: Iterable[int]) -> CountSeries:
    """Count exponents at the given depths, sorted and without repeats."""
    ns = np.sort(np.fromiter(depths, dtype=np.int64))
    if not ns.size:
        raise ValueError("no depths requested")
    ns = ns[np.diff(ns, prepend=ns[0] - 1) > 0]
    table = count_exponents_upto(sched, base, int(ns[-1]))
    return CountSeries(points=np.column_stack((ns, table[ns])))


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
    if len(pts) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points, got {len(pts)}")
    ns, cs = pts[:, 0].astype(float), pts[:, 1].astype(float)
    if mode == ALL_DEPTHS:
        ns -= ns.mean()
        return float(np.dot(ns, cs - cs.mean()) / np.dot(ns, ns))
    if mode == AT_BLOCK_ENDS:
        tail = ns >= 0.2 * ns[-1]
        return float((cs[tail] / ns[tail]).min())
    raise ValueError(f"unknown mode {mode!r}")
