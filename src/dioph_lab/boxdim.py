"""Box-counting surrogate: exact cylinder counts for schedule sets.

Counts are held as base-b exponents (raw counts overflow around depth 10^3).
A depth-n cylinder meets the set once its forced positions hold their
digits, so the count exponent is the number of free positions up to n.
Those are read off `construct.forced_digits`, the one statement of
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
from .dimfx import ALL_DEPTHS, AT_BLOCK_ENDS

MIN_POINTS = 3  # fewest points a dimension estimate is made from


@dataclass(frozen=True, eq=False)
class CountSeries:
    depths: np.ndarray     # int64, strictly increasing depths n >= 1
    exponents: np.ndarray  # int64, log_b of the cylinder count at each depth

    def __post_init__(self):
        n = np.asarray(self.depths, dtype=np.int64)
        c = np.asarray(self.exponents, dtype=np.int64)
        if n.ndim != 1 or n.shape != c.shape:
            raise ValueError(f"depths and exponents must be 1-D and of one length, "
                             f"got shapes {n.shape} and {c.shape}")
        object.__setattr__(self, "depths", n)
        object.__setattr__(self, "exponents", c)
        # neighbour comparisons, each starting from depth 0 with exponent 0
        bad_n = np.r_[n[:1] <= 0, n[1:] <= n[:-1]]
        bad = bad_n | np.r_[c[:1] < 0, c[1:] < c[:-1]] | (c > n)
        if bad.any():
            i = int(bad.argmax())
            if bad_n[i]:
                raise ValueError("depths must strictly increase")
            raise ValueError(f"count exponent {c[i]} invalid at depth {n[i]}")

    @property
    def points(self) -> np.ndarray:
        """(N, 2) rows of depth and exponent: a copy, built on each access."""
        return np.column_stack((self.depths, self.exponents))


def constraint_mask(sched: CantorSchedule, base: int, upto: int) -> np.ndarray:
    """Boolean array (1-based, index 0 unused): True where the digit is forced.
    It is read off a copy-free uint8 view of the `forced_digits` layout."""
    return np.frombuffer(forced_digits(sched, base, upto), dtype=np.uint8) != FREE


def count_exponents_upto(sched: CantorSchedule, base: int, max_n: int) -> np.ndarray:
    """Count exponents for every depth 1..max_n (index 0 holds 0): the number
    of free positions up to each depth."""
    free = constraint_mask(sched, base, max_n)
    np.logical_not(free, out=free)
    free[0] = False  # index 0 is not a position
    counts = free.astype(np.int64)
    return np.cumsum(counts, out=counts)  # in place: a cast inside cumsum copies


def count_series(sched: CantorSchedule, base: int, depths: Iterable[int]) -> CountSeries:
    """Count exponents at the given depths, sorted and without repeats.

    A range is laid out by `np.arange`; a series over every depth 1..N is a
    view of the count table.
    """
    if isinstance(depths, range):
        r = depths if depths.step > 0 else depths[::-1]
        ns = np.arange(r.start, r.stop, r.step, dtype=np.int64)
    else:
        ns = np.unique(np.fromiter(depths, dtype=np.int64))
    if not ns.size:
        raise ValueError("no depths requested")
    if ns[0] < 1:
        raise ValueError(f"depths must be >= 1, got {int(ns[0])}")
    table = count_exponents_upto(sched, base, int(ns[-1]))
    exps = table[1:] if ns.size == ns[-1] else table[ns]
    return CountSeries(depths=ns, exponents=exps)


def dimension_slope(series: CountSeries, mode: str) -> float:
    """Dimension estimate from a count series.

    all-depths: least-squares slope of count exponent against depth.
    block-ends: min of exponent/depth over the supplied depths past a 20%
    burn-in (a liminf surrogate; callers supply block-end depths).  The
    burn-in drops depths below 20% of the horizon: block ends are sparse,
    so dropping a fraction of the points would still keep the small-depth
    transients that dominate the min.
    """
    if len(series.depths) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points, got {len(series.depths)}")
    ns, cs = series.depths.astype(float), series.exponents.astype(float)
    if mode == ALL_DEPTHS:
        ns -= ns.mean()
        cs -= cs.mean()
        return float(np.dot(ns, cs) / np.dot(ns, ns))
    if mode == AT_BLOCK_ENDS:
        tail = ns >= 0.2 * ns[-1]
        return float((cs[tail] / ns[tail]).min())
    raise ValueError(f"unknown mode {mode!r}")
