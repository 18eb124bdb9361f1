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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .digits import DigitStream, run_end_table
from .sequences import DenominatorSequence, eta_estimate


class MatchingPair(NamedTuple):
    index: int  # position in the sequence A (the n of a_n)
    a: int      # a_n
    m: int      # matching time: first position where the run after a_n breaks

    @property
    def gap(self) -> int:
        return self.m - self.a


@dataclass
class MatchingTimes:
    """All observable (index, a, m) pairs plus the dominant subsequence.

    A pair is observable when the break digit at m lies inside the prefix;
    runs still open at the prefix end are discarded, never extrapolated.
    `dominant` is greedy-maximal: the first pair, then each later pair whose
    gap strictly exceeds every gap seen before it.
    """

    base: int
    depth: int
    pairs: list[MatchingPair] = field(default_factory=list)
    dominant: list[MatchingPair] = field(default_factory=list)
    first_truncated_index: int | None = None  # smallest n whose run is cut off
    longest_complete_run: int = 0

    @property
    def empty(self) -> bool:
        return not self.pairs


def _index_arrays(stream: DigitStream, seq: DenominatorSequence):
    """Arrays (n, a_n) over all indices with a_n + 1 inside the prefix."""
    limit = stream.prefix_len - 1
    if seq.kind == "linear":
        ns = np.arange(1, limit + 1, dtype=np.int64)
        return ns, ns
    ns, avals = [], []
    for n, a in seq.iter_upto(limit):
        ns.append(n)
        avals.append(a)
    return np.asarray(ns, dtype=np.int64), np.asarray(avals, dtype=np.int64)


def matching_times(stream: DigitStream, seq: DenominatorSequence) -> MatchingTimes:
    """Extract matching times and the dominant subsequence from a prefix."""
    P = stream.prefix_len
    if seq.a(1) + 2 > P:
        raise ValueError(f"prefix of {P} digits too short: a(1)+2 = {seq.a(1) + 2}")
    ns, avals = _index_arrays(stream, seq)
    mt = MatchingTimes(base=stream.base, depth=P)
    if ns.size == 0:
        return mt

    table = run_end_table(stream)
    pos = avals + 1
    digit_arr = stream.as_array()
    d = digit_arr[pos - 1]
    in_j = (d == 0) | (d == stream.base - 1)
    run_end = np.where(in_j, table[pos], 0)
    complete = in_j & (run_end < P)  # run end == P means the break digit is unseen
    truncated = in_j & (run_end >= P)
    if truncated.any():
        mt.first_truncated_index = int(ns[truncated][0])

    sel_n = ns[complete]
    sel_a = avals[complete]
    sel_m = run_end[complete] + 1
    if sel_n.size == 0:
        return mt
    mt.longest_complete_run = int((sel_m - sel_a).max())

    gaps = sel_m - sel_a
    keep = np.ones(gaps.shape[0], dtype=bool)
    if gaps.shape[0] > 1:
        keep[1:] = gaps[1:] > np.maximum.accumulate(gaps)[:-1]
    mt.pairs = [MatchingPair(int(n), int(a), int(m))
                for n, a, m in zip(sel_n, sel_a, sel_m)]
    mt.dominant = [MatchingPair(int(n), int(a), int(m))
                   for n, a, m in zip(sel_n[keep], sel_a[keep], sel_m[keep])]
    return mt


def greedy_dominant(pairs: list[MatchingPair]) -> list[MatchingPair]:
    """Reference greedy rule on an explicit pair list (used by property checks)."""
    out: list[MatchingPair] = []
    best = None
    for p in pairs:
        if best is None or p.gap > best:
            out.append(p)
            best = p.gap
    return out


def default_burn_in(k_count: int, fraction: float = 0.2) -> int:
    """Discard the first `fraction` of dominant pairs (finite-prefix transients)."""
    return int(k_count * fraction)


def estimate_v(mt: MatchingTimes, burn_in: int) -> float:
    """Asymptotic exponent surrogate: max of gap/a over dominant pairs past burn-in."""
    tail = mt.dominant[burn_in:]
    if not tail:
        raise ValueError(f"too few dominant pairs ({len(mt.dominant)}) for burn_in {burn_in}")
    return max(p.gap / p.a for p in tail)


def estimate_vhat_blocks(mt: MatchingTimes, seq: DenominatorSequence, burn_in: int) -> float:
    """Uniform exponent surrogate along the dominant subsequence.

    Each term divides the run length of pair k by a(i_{k+1} - 1), the sequence
    value one index before the next dominant index.  The last pair has no
    successor and is skipped.
    """
    dom = mt.dominant
    if len(dom) < burn_in + 2:
        raise ValueError(f"need more than burn_in+1 = {burn_in + 1} dominant pairs, have {len(dom)}")
    vals = []
    for k in range(burn_in, len(dom) - 1):
        succ_index = dom[k + 1].index
        vals.append(dom[k].gap / seq.a(succ_index - 1))
    return min(vals)


def _gap_by_index(stream: DigitStream, seq: DenominatorSequence):
    """Per-index run lengths (0 when not applicable) plus truncation bookkeeping."""
    ns, avals = _index_arrays(stream, seq)
    P = stream.prefix_len
    table = run_end_table(stream)
    pos = avals + 1
    d = stream.as_array()[pos - 1]
    in_j = (d == 0) | (d == stream.base - 1)
    run_end = np.where(in_j, table[pos], 0)
    complete = in_j & (run_end < P)
    truncated = in_j & (run_end >= P)
    gaps = np.where(complete, run_end + 1 - avals, 0)
    first_trunc = int(ns[truncated][0]) if truncated.any() else None
    longest = int(gaps.max()) if gaps.size else 0
    return ns, avals, gaps, first_trunc, longest


def estimate_vhat_definition(stream: DigitStream, seq: DenominatorSequence,
                             N_grid: list[int]) -> float:
    """Uniform exponent surrogate straight from the definition.

    For each N in the grid, form max over n <= N of the run length after a_n
    divided by a_N, then take the min over the grid.  The grid is rejected if
    it does not fit the prefix or if any needed run is cut off by the prefix
    end (a truncated run has an unknown length; treating it as 0 would poison
    the min).
    """
    if not N_grid:
        raise ValueError("empty N grid")
    grid = sorted(set(int(N) for N in N_grid))
    if grid[0] < 1:
        raise ValueError("grid indices must be >= 1")
    ns, avals, gaps, first_trunc, _ = _gap_by_index(stream, seq)
    if ns.size == 0 or grid[-1] > int(ns[-1]):
        raise ValueError(f"grid exceeds prefix: max N {grid[-1]} not materialized")
    if first_trunc is not None and grid[-1] >= first_trunc:
        raise ValueError(
            f"grid reaches index {grid[-1]} but the run after a_{first_trunc} "
            f"is cut off by the prefix end")
    runmax = np.maximum.accumulate(gaps)
    # ns is 1..K contiguous for every kind (iter_upto yields consecutive n)
    ratios = [runmax[N - 1] / avals[N - 1] for N in grid]
    return float(min(ratios))


def definition_grid(stream: DigitStream, seq: DenominatorSequence,
                    start_fraction: float = 0.2) -> list[int]:
    """Default grid: every index from a burn-in point to the safe cap.

    The cap keeps all needed runs fully observed and stays inside the
    conservative bound a(N) + longest complete run <= prefix length.
    """
    ns, avals, gaps, first_trunc, longest = _gap_by_index(stream, seq)
    if ns.size == 0:
        raise ValueError("no usable indices in prefix")
    cap = int(ns[-1])
    if first_trunc is not None:
        cap = min(cap, first_trunc - 1)
    P = stream.prefix_len
    while cap >= 1 and avals[cap - 1] + longest > P:
        cap -= 1
    if cap < 2:
        raise ValueError("prefix too short for a definition-based estimate")
    lo = max(2, int(cap * start_fraction))
    return list(range(lo, cap + 1))


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


def estimate_exponents(stream: DigitStream, seq: DenominatorSequence,
                       burn_in: int | None = None,
                       eta: Fraction | None = None) -> ExponentEstimate:
    """Run the block estimators with the default burn-in policy.

    A finite-prefix sanity bound vhat <= eta_est * (v + 2/a(i_last)) is
    asserted; a violation indicates corrupted inputs rather than a tight
    mathematical failure.
    """
    mt = matching_times(stream, seq)
    if mt.empty:
        raise ValueError("no observable matching times in prefix")
    k = len(mt.dominant)
    if burn_in is None:
        burn_in = default_burn_in(k)
    burn_in = min(burn_in, max(0, k - 2))
    v = estimate_v(mt, burn_in)
    vhat = estimate_vhat_blocks(mt, seq, burn_in)
    if eta is None:
        eta_val = eta_for_stream(stream, seq)
    else:
        eta_val = float(eta)
    slack = 2.0 / mt.dominant[-1].a
    assert vhat <= eta_val * (v + slack) + 1e-12, \
        f"vhat {vhat} exceeds finite-prefix bound {eta_val * (v + slack)}"
    return ExponentEstimate(v_est=v, vhat_est=vhat, depth=mt.depth,
                            k_count=k, burn_in=burn_in)


def eta_for_stream(stream: DigitStream, seq: DenominatorSequence) -> float:
    if seq.eta_declared is not None:
        return float(seq.eta_declared)
    n_max = seq.index_count_upto(stream.prefix_len)
    if n_max < 2:
        raise ValueError("sequence too short to estimate eta")
    return float(eta_estimate(seq, n_max))
