"""Box-counting surrogate: exact cylinder counts for schedule sets.

Counts are held as base-b exponents (raw counts overflow around depth 10^3).
A depth-n cylinder meets the set once its forced positions hold their
digits, so the count exponent c(n) is the number of free positions up to n.
Those are the gaps between `construct.forced_runs`, the one statement of
the schedule's pattern, which emission reads as well.  A schedule leaves
few of them (6 for the eta = 2 reference up to depth 2e5), so no count is
held per depth: c(n) is a sum over the stretches, a run of consecutive
counts is filled stretch by stretch, and the least-squares slope over
every depth comes from closed-form sums over the stretches, in exact
arithmetic.  For the uniform mass the count is the reciprocal of the
cylinder mass, so the count exponent must equal the mass exponent of
`construct.mu_exponents_upto` at every depth: the mass formula checks the
forced runs.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import comb
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .construct import CantorSchedule, forced_runs
from .dimfx import ALL_DEPTHS, AT_BLOCK_ENDS

if TYPE_CHECKING:
    from array import array

MIN_POINTS = 3  # fewest points a dimension estimate is made from

_STOP = attrgetter("stop")


class CountSeries(NamedTuple):
    """Count exponents at `depths`, held as the free stretches they count.

    depths: strictly increasing depths >= 1; `range(1, N + 1)` for every
        depth up to N.
    free: the maximal stretches of free positions in 1..depths[-1], in order.
    """
    depths: range | list[int]
    free: list[range]

    def count(self, n: int) -> int:
        """The count exponent c(n): free positions in 1..n, summed over the
        few stretches that start at or before n."""
        return sum(min(r.stop, n + 1) - r.start for r in self.free if r.start <= n)

    def exponents(self, lo: int = 0, hi: int | None = None) -> array:
        """array('q') of the count exponents at depths[lo:hi].  A run of
        consecutive depths is filled a stretch at a time, other depths are
        looked up one by one."""
        from array import array
        ns = self.depths[lo:hi]
        if not (isinstance(ns, range) and ns.step == 1):
            return array("q", map(self.count, ns))
        out, n, c = array("q"), ns.start, self.count(ns.start - 1)
        i = bisect_right(self.free, n, key=_STOP)  # the first stretch ending past n
        while n < ns.stop:
            if i < len(self.free) and self.free[i].start <= n:  # free from n on
                end = min(self.free[i].stop, ns.stop)
                out.extend(range(c + 1, c + 1 + end - n))
                c += end - n
                i += 1
            else:  # forced up to the next stretch
                end = min(self.free[i].start, ns.stop) if i < len(self.free) else ns.stop
                out.extend(array("q", (c,)) * (end - n))
            n = end
        return out

    @property
    def points(self) -> list[tuple[int, int]]:
        """(depth, exponent) rows: a list built on each access."""
        return list(zip(self.depths, self.exponents()))

    def count_sums(self) -> tuple[int, int]:
        """(sum of c(n), sum of n * c(n)) over n = 1..N, for a series over
        every depth 1..N; a position j <= N is counted at depths j..N."""
        N = len(self.depths)
        if self.depths != range(1, N + 1):
            raise ValueError(f"mode {ALL_DEPTHS} needs every depth 1..N")
        sum_c = sum_nc = 0
        for r in self.free:
            k = len(r)
            sum_c += k * (N + 1) - k * (r.start + r.stop - 1) // 2
            # sum over j in r of N(N+1)/2 - j(j-1)/2, by the hockey-stick identity
            sum_nc += k * (N * (N + 1) // 2) - (comb(r.stop, 3) - comb(r.start, 3))
        return sum_c, sum_nc


def constraint_mask(sched: CantorSchedule, base: int, upto: int) -> list[range]:
    """The maximal stretches of free positions in 1..upto, in order: the
    gaps between the `forced_runs`.  Every other position is forced."""
    free, pos = [], 1
    for lo, hi, _digit in forced_runs(sched, base, upto):
        if pos < lo:
            free.append(range(pos, lo))
        pos = hi + 1
    if pos <= upto:
        free.append(range(pos, upto + 1))
    return free


def count_exponents_upto(sched: CantorSchedule, base: int, max_n: int) -> CountSeries:
    """The count exponents at every depth 1..max_n: a `CountSeries` over
    `range(1, max_n + 1)`, held as the free stretches."""
    return CountSeries(depths=range(1, max_n + 1), free=constraint_mask(sched, base, max_n))


def count_series(sched: CantorSchedule, base: int, depths: Iterable[int]) -> CountSeries:
    """The count exponents at the given depths, sorted and without repeats:
    a `CountSeries` over them, held as the free stretches up to the last.
    A range stays a range."""
    if isinstance(depths, range):
        ns = depths if depths.step > 0 else depths[::-1]
    else:
        ns = sorted(set(depths))
    if not ns:
        raise ValueError("no depths requested")
    if ns[0] < 1:
        raise ValueError(f"depths must be >= 1, got {ns[0]}")
    return count_exponents_upto(sched, base, ns[-1])._replace(depths=ns)


def dimension_slope(series: CountSeries, mode: str) -> float:
    """Dimension estimate from a count series, as a float.

    all-depths: least-squares slope of count exponent against depth over
    every depth 1..N (any other series is a ValueError), computed exactly
    from `CountSeries.count_sums` and rounded once.
    block-ends: min of exponent/depth over the supplied depths past a 20%
    burn-in (a liminf surrogate; callers supply block-end depths).  The
    burn-in drops depths below 20% of the horizon: block ends are sparse,
    so dropping a fraction of the points would still keep the small-depth
    transients that dominate the min.
    """
    if len(series.depths) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points, got {len(series.depths)}")
    if mode == ALL_DEPTHS:
        N = len(series.depths)
        sum_c, sum_nc = series.count_sums()
        sum_n, sum_nn = N * (N + 1) // 2, N * (N + 1) * (2 * N + 1) // 6
        return float(Fraction(N * sum_nc - sum_n * sum_c, N * sum_nn - sum_n * sum_n))
    if mode == AT_BLOCK_ENDS:
        floor = 0.2 * series.depths[-1]
        return min(c / n for n, c in zip(series.depths, series.exponents()) if n >= floor)
    raise ValueError(f"unknown mode {mode!r}")
