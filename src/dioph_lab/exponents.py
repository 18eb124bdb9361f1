"""Approximation exponent estimators driven by 0/(b-1) run lengths.

For a digit stream x and a sequence A = (a_n), the distance from b^{a_n} * xi
to the nearest integer is controlled by the length of the 0- or (b-1)-run
starting right after position a_n: if the run breaks at position m (the
matching time), then ||b^{a_n} xi|| is within a factor b of b^{-(m - a_n)}.
The asymptotic exponent is a limsup of (m - a_n)/a_n and the uniform exponent
a liminf of (m_k - a_{i_k})/a_{i_{k+1}-1} along the dominant subsequence of
strictly increasing run lengths.  All estimators below are window statistics
over a finite prefix, not limits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .digits import DigitStream, run_end_table
from .dimfx import InvariantError
from .sequences import DenominatorSequence, eta_estimate

BURN_FRACTION = 0.2        # share of dominant pairs discarded as transients
GRID_START_FRACTION = 0.2  # definition_grid starts at this share of its cap


class MatchingPair(NamedTuple):
    index: int  # position in the sequence A (the n of a_n)
    a: int      # a_n
    m: int      # matching time: first position where the run after a_n breaks

    @property
    def gap(self) -> int:
        return self.m - self.a


class PairView(Sequence):
    """Read-only list of MatchingPair over the selected rows of a gap table.

    Its length is a count over the mask; the tuples are built on first read.
    It compares equal to a list (or view) holding the same pairs.
    """

    def __init__(self, mt: MatchingTimes, mask: np.ndarray):
        # the columns, not the table: a view cached on its table makes no cycle
        self._columns, self._mask = (mt.a, mt.gap), mask

    @cached_property
    def _pairs(self) -> list[MatchingPair]:
        avals, gaps = (col[self._mask].tolist() for col in self._columns)
        ns = (np.flatnonzero(self._mask) + 1).tolist()  # row r holds index n = r + 1
        return [MatchingPair(n, a, a + g) for n, a, g in zip(ns, avals, gaps)]

    def __len__(self) -> int:
        return int(np.count_nonzero(self._mask))

    def __getitem__(self, i):
        return self._pairs[i]

    def __iter__(self):
        return iter(self._pairs)

    def __eq__(self, other):
        if isinstance(other, PairView):
            other = other._pairs
        return self._pairs == other

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self._pairs)


@dataclass(frozen=True, eq=False)
class MatchingTimes:
    """Gap table of one (stream, sequence): one row per index n = 1..K.

    Row n - 1 (0-based) covers a_n, whose run start a_n + 1 lies inside the
    prefix; the index itself is the row number plus one and is not stored.
    Its gap is the run length m - a_n when the digit after a_n opens a
    0/(b-1) run whose break digit m is observed, and 0 otherwise: runs still
    open at the prefix end are discarded, never extrapolated.  A complete
    gap is at least 2, so the complete rows are exactly those with gap > 0.
    The dominant rows are greedy-maximal: the first complete row, then each
    later one whose gap strictly exceeds every gap before it.  `pairs` and
    `dominant` view the complete and dominant rows as MatchingPair tuples.
    """

    depth: int
    seq: DenominatorSequence
    a: np.ndarray              # int64 a_n, n = 1..K
    gap: np.ndarray            # int64 m - a_n on complete rows, 0 elsewhere
    dominant_mask: np.ndarray  # bool: strict record of gap
    first_truncated_index: int | None  # smallest n whose run is cut off
    longest_complete_run: int

    @property
    def empty(self) -> bool:
        return not self.gap.any()

    @cached_property
    def pairs(self) -> PairView:
        return PairView(self, self.gap > 0)

    @cached_property
    def dominant(self) -> PairView:
        return PairView(self, self.dominant_mask)


def matching_times(stream: DigitStream, seq: DenominatorSequence) -> MatchingTimes:
    """Build the gap table of a prefix: run ends are looked up once, at a_n + 1."""
    P = stream.prefix_len
    if seq.a(1) + 2 > P:
        raise ValueError(f"prefix of {P} digits too short: a(1)+2 = {seq.a(1) + 2}")
    avals = seq.values_upto(P - 1)
    run_end = run_end_table(stream, avals + 1)
    complete = (run_end > 0) & (run_end < P)  # run end == P: the break digit is unseen
    truncated = run_end >= P
    gap = np.where(complete, run_end + 1 - avals, 0)
    first_trunc = int(np.argmax(truncated)) + 1 if truncated.any() else None
    # complete gaps are >= 2 and the others 0, so the strict records of `gap`
    # are exactly the dominant rows
    dominant = gap > 0
    dominant[1:] &= gap[1:] > np.maximum.accumulate(gap)[:-1]
    return MatchingTimes(
        depth=P, seq=seq, a=avals, gap=gap, dominant_mask=dominant,
        first_truncated_index=first_trunc,
        longest_complete_run=int(gap.max()) if gap.size else 0)


def greedy_dominant(pairs: list[MatchingPair]) -> list[MatchingPair]:
    """Reference greedy rule on an explicit pair list (used by property checks)."""
    out: list[MatchingPair] = []
    best = None
    for p in pairs:
        if best is None or p.gap > best:
            out.append(p)
            best = p.gap
    return out


def estimate_v(mt: MatchingTimes, burn_in: int) -> float:
    """Asymptotic exponent surrogate: max of gap/a over dominant pairs past burn-in."""
    dom = mt.dominant_mask
    tail = (mt.gap[dom] / mt.a[dom])[burn_in:]
    if not tail.size:
        raise ValueError(f"too few dominant pairs ({len(mt.dominant)}) for burn_in {burn_in}")
    return float(tail.max())


def estimate_vhat_blocks(mt: MatchingTimes, burn_in: int) -> float:
    """Uniform exponent surrogate along the dominant subsequence.

    Each term divides the run length of pair k by a(i_{k+1} - 1), the sequence
    value one index before the next dominant index.  The last pair has no
    successor and is skipped.
    """
    rows = np.flatnonzero(mt.dominant_mask)
    if rows.size < burn_in + 2:
        raise ValueError(f"need more than burn_in+1 = {burn_in + 1} dominant pairs, "
                         f"have {rows.size}")
    # rows are 0-based, so row i_{k+1} - 2 holds a(i_{k+1} - 1)
    return float((mt.gap[rows[burn_in:-1]] / mt.a[rows[burn_in + 1:] - 1]).min())


def estimate_vhat_definition(mt: MatchingTimes, N_grid) -> float:
    """Uniform exponent surrogate straight from the definition.

    For each N in the grid, form max over n <= N of the run length after a_n
    divided by a_N, then take the min over the grid.  The grid is rejected if
    it does not fit the prefix or if any needed run is cut off by the prefix
    end (a truncated run has an unknown length; treating it as 0 would poison
    the min).
    """
    grid = np.asarray(N_grid, dtype=np.int64)  # order and repeats leave the min alone
    if not grid.size:
        raise ValueError("empty N grid")
    if grid.min() < 1:
        raise ValueError("grid indices must be >= 1")
    top = int(grid.max())
    if top > mt.a.size:
        raise ValueError(f"grid exceeds prefix: max N {top} not materialized")
    if mt.first_truncated_index is not None and top >= mt.first_truncated_index:
        raise ValueError(
            f"grid reaches index {top} but the run after a_{mt.first_truncated_index} "
            f"is cut off by the prefix end")
    runmax = np.maximum.accumulate(mt.gap[:top])
    return float((runmax[grid - 1] / mt.a[grid - 1]).min())


def definition_grid(mt: MatchingTimes) -> np.ndarray:
    """Default grid: every index from a burn-in point to the safe cap.

    The cap keeps all needed runs fully observed and stays inside the
    conservative bound a(N) + longest complete run <= prefix length.
    """
    if not mt.a.size:
        raise ValueError("no usable indices in prefix")
    cap = mt.a.size
    if mt.first_truncated_index is not None:
        cap = min(cap, mt.first_truncated_index - 1)
    # a is strictly increasing: count the a(N) that satisfy the bound
    cap = min(cap, int(np.searchsorted(mt.a, mt.depth - mt.longest_complete_run,
                                       side="right")))
    if cap < 2:
        raise ValueError("prefix too short for a definition-based estimate")
    return np.arange(max(2, int(cap * GRID_START_FRACTION)), cap + 1)


def check_exponent_inequality(v_est: float, vhat_est: float, eta: float,
                              tol: float) -> bool:
    """Check v >= vhat/(eta - vhat) up to tol (requires vhat < eta)."""
    eta = float(eta)
    if vhat_est >= eta:
        raise ValueError(f"vhat {vhat_est} must be below eta {eta}")
    return v_est + tol >= vhat_est / (eta - vhat_est)


@dataclass(frozen=True)
class ExponentEstimate:
    """Summary of one estimation run over a digit prefix."""

    v_est: float
    vhat_est: float
    depth: int
    k_count: int
    burn_in: int
    eta: float  # eta_for_table of the gap table, used by the sanity bound


def estimate_exponents(mt: MatchingTimes,
                       burn_fraction: float = BURN_FRACTION) -> ExponentEstimate:
    """Run the block estimators over a gap table.

    The first `burn_fraction` of the dominant pairs is discarded, but never
    one of the last two.  A finite-prefix sanity bound vhat <= eta * (v + 2/a(i_last))
    is checked with the table's eta; a violation (InvariantError) indicates
    corrupted inputs rather than a tight mathematical failure.
    """
    if not 0 <= burn_fraction <= 1:  # also catches nan and inf
        raise ValueError(f"burn-in fraction must be in [0, 1], got {burn_fraction:g}")
    if mt.empty:
        raise ValueError("no observable matching times in prefix")
    k = len(mt.dominant)
    burn_in = min(int(k * burn_fraction), max(0, k - 2))
    v = estimate_v(mt, burn_in)
    vhat = estimate_vhat_blocks(mt, burn_in)
    eta = eta_for_table(mt)
    bound = eta * (v + 2.0 / float(mt.a[mt.dominant_mask][-1]))
    if not vhat <= bound + 1e-12:
        raise InvariantError(f"vhat {vhat} exceeds finite-prefix bound {bound}")
    return ExponentEstimate(v_est=v, vhat_est=vhat, depth=mt.depth,
                            k_count=k, burn_in=burn_in, eta=eta)


def eta_for_table(mt: MatchingTimes) -> float:
    """Declared eta of the table's sequence, else a tail estimate up to its depth."""
    seq = mt.seq
    if seq.eta_declared is not None:
        return float(seq.eta_declared)
    n_max = seq.index_count_upto(mt.depth)
    if n_max < 2:
        raise ValueError("sequence too short to estimate eta")
    return float(eta_estimate(seq, n_max))
