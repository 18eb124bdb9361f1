"""Approximation exponent estimators driven by 0/(b-1) run lengths.

For a digit stream x and a sequence A = (a_n), the distance from b^{a_n} * xi
to the nearest integer is controlled by the length of the 0- or (b-1)-run
starting right after position a_n: if the run breaks at position m (the
matching time), then ||b^{a_n} xi|| is within a factor b of b^{-(m - a_n)}.
The asymptotic exponent is a limsup of (m - a_n)/a_n and the uniform exponent
a liminf of (m_k - a_{i_k})/a_{i_{k+1}-1} along the dominant subsequence of
strictly increasing run lengths.  All estimators below are window statistics
over a finite prefix, not limits, and each is a function of the gap table
alone: the burn-in (`MatchingTimes.burn_in`) and the definition estimator's
grid (`definition_grid`) are derived from the table, never passed in.  The
table is found by a byte search over the digits.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from . import InvariantError
from .digits import CODE, DigitStream, _run_stop, run_end_table
from .sequences import DenominatorSequence, eta_estimate

BURN_FRACTION = 0.2  # MatchingTimes.burn_in: this share of the dominant pairs
GRID_START_FRACTION = 0.2  # definition_grid starts at this share of its cap
INEQUALITY_TOL = 0.05  # slack of check_exponent_inequality on window estimates
NEEDLE_CAP = 64  # longest run needle; the end search confirms longer runs


class MatchingPair(NamedTuple):
    index: int  # position in the sequence A (the n of a_n)
    a: int      # a_n
    m: int      # matching time: first position where the run after a_n breaks

    @property
    def gap(self) -> int:
        return self.m - self.a


class MatchingTimes(NamedTuple):
    """Gap table of one (stream, sequence): its dominant records and counts.

    The prefix is the stream's first `depth` digits, and `depth` may be
    below `stream.prefix_len`: no record or count depends on the digits past
    it.  The indices of the table are n = 1..index_count, those whose run
    start a_n + 1 lies inside the prefix.  Index n's gap is the run length
    m - a_n when the digit after a_n opens a 0/(b-1) run whose break digit m
    is observed; runs still open at the prefix end are discarded, never
    extrapolated.  All indices whose run start falls in one run share its m,
    and their gaps shrink as n grows, so only a run's first index can be
    dominant (greedy-maximal: the first complete index, then each later one
    whose gap strictly exceeds every gap before it).  `dominant` lists those
    records as MatchingPair tuples, found by `matching_times`; the
    estimators read only it and the scalars.  `pairs` lists every complete
    index, built from the stream on each read.
    """

    depth: int
    seq: DenominatorSequence
    stream: DigitStream
    dominant: list[MatchingPair]  # the complete indices whose gap is a strict record
    index_count: int           # number of indices n with a_n + 1 in the prefix
    first_truncated_index: int | None  # smallest n whose run is cut off

    @property
    def longest_complete_run(self) -> int:
        """The largest gap: the last record's, 0 without complete runs."""
        return self.dominant[-1].gap if self.dominant else 0

    @property
    def burn_in(self) -> int:
        """Dominant pairs the block estimators skip: the first BURN_FRACTION
        of them, but never one of the last two."""
        k = len(self.dominant)
        return min(int(k * BURN_FRACTION), max(0, k - 2))

    @property
    def pairs(self) -> list[MatchingPair]:
        """Every complete index's pair, in index order: one `run_end_table`
        call reads the run end after each a_n, and index n is kept when a
        run starts there (its end is not 0) and ends inside the prefix."""
        avals = [self.seq.a(n) for n in range(1, self.index_count + 1)]
        ends = run_end_table(self.stream, [a + 1 for a in avals])
        return [MatchingPair(n, a, e + 1) for n, (a, e) in enumerate(zip(avals, ends), 1)
                if 0 < e < self.depth]


def _final_run_start(data: bytes, base: int, end: int) -> int:
    """0-based start of the run that ends `data[:end]`: one past the last
    other digit, found by `rfind` in windows that double back from `end`, so
    the search reads about twice the run per digit value."""
    others = CODE[:base].replace(data[end - 1:end], b"")
    width = NEEDLE_CAP
    while True:
        lo = max(0, end - width)
        last = max(data.rfind(v, lo, end) for v in others)
        if last >= 0 or not lo:
            return last + 1
        width *= 2


def matching_times(stream: DigitStream, seq: DenominatorSequence,
                   depth: int | None = None) -> MatchingTimes:
    """Find the gap table of the first `depth` digits (all of them when
    `depth` is None or past the stream) by searching them in place.

    An index's gap is at most its run's length plus one, since a_n + 1 lies
    in the run, so a record above the best gap B so far lies in a run of at
    least B digits (any run while B is 0).  `bytes.find` of a needle of
    min(max(B, 1), NEEDLE_CAP) zeros, and one of b - 1s, finds the next such
    run; an anchored match of the run digit finds its end, which settles
    the run's length.  A needle resumes at its last hit and is dropped at
    its first miss, since B only grows, so the search reads each digit
    about once.  The first n with a_n at or after the hit is the run's first
    index; when a_n lies past the run, no index starts in between, and the
    search resumes at a_n.  The final run, the only one the prefix can cut
    off, is checked on its own: it may be shorter than B.  Every search
    ends at the depth, and only `_run_stop` reads past it, to the end of
    the one run that crosses it.
    """
    data = stream.data
    P = len(data) if depth is None else min(depth, len(data))
    if seq.a(1) + 2 > P:
        raise ValueError(f"prefix of {P} digits too short: a(1)+2 = {seq.a(1) + 2}")
    K = seq.index_count_upto(P - 1)  # the indices with a_n + 1 in the prefix
    run_digits = stream.run_bytes
    needles = {d: bytes([d]) for d in run_digits}
    hits = dict.fromkeys(run_digits, 0)
    dominant: list[MatchingPair] = []
    best = pos = 0  # offsets are 0-based: data[a_n] is the digit at a_n + 1
    while True:
        for d in list(hits):
            hits[d] = data.find(needles[d], max(pos, hits[d]), P)
            if hits[d] < 0:
                del hits[d]
        if not hits:
            break
        h = min(hits.values())
        e = _run_stop(data, h)  # the break digit's offset
        if e >= P:  # the final run, checked below
            break
        n = seq.index_count_upto(h - 1) + 1  # the first n with a_n >= h
        if n > K:
            break
        a = seq.a(n)
        if a >= e:
            pos = a
            continue
        if e + 1 - a > best:
            best = e + 1 - a
            dominant.append(MatchingPair(n, a, e + 1))
            needles = {d: bytes([d]) * min(best, NEEDLE_CAP) for d in hits}
        pos = e
    first_trunc = None
    if data[P - 1] in run_digits:
        n = seq.index_count_upto(_final_run_start(data, stream.base, P) - 1) + 1
        first_trunc = n if n <= K else None
    return MatchingTimes(depth=P, seq=seq, stream=stream, dominant=dominant,
                         index_count=K, first_truncated_index=first_trunc)


def estimate_v(mt: MatchingTimes) -> float:
    """Asymptotic exponent surrogate: max of gap/a over dominant pairs past burn-in."""
    tail = mt.dominant[mt.burn_in:]
    if not tail:
        raise ValueError("no observable matching times in prefix")
    return max(p.gap / p.a for p in tail)


def _uniform_min(mt: MatchingTimes, ns: list[int]) -> float:
    """The uniform exponent's reduction at the indices `ns`: min over N of
    max over n <= N of the run length after a_n, divided by a_N.  The last
    record at or before N holds the running max, 0 before the first."""
    records = [p.index for p in mt.dominant]
    runmax = [0] + [p.gap for p in mt.dominant]
    return min(runmax[bisect_right(records, N)] / mt.seq.a(N) for N in ns)


def estimate_vhat_blocks(mt: MatchingTimes) -> float:
    """Uniform exponent surrogate along the dominant subsequence: the
    reduction one index before each dominant index past the burn-in, where
    the previous record holds the running max, so pair k's term is its run
    length over a(i_{k+1} - 1).  The last pair has no successor; the burn-in
    (at most k - 2) leaves at least one term."""
    if len(mt.dominant) < 2:
        raise ValueError(f"need at least 2 dominant pairs, have {len(mt.dominant)}")
    return _uniform_min(mt, [p.index - 1 for p in mt.dominant[mt.burn_in + 1:]])


def definition_grid(mt: MatchingTimes) -> range:
    """The definition estimator's grid: every index from a burn-in point to
    the safe cap.

    The cap stops before the first cut-off run and keeps within the
    conservative bound a(N) + longest complete run <= prefix length, so
    every run the estimator needs is fully observed.
    """
    if not mt.index_count:
        raise ValueError("no usable indices in prefix")
    cap = mt.index_count
    if mt.first_truncated_index is not None:
        cap = min(cap, mt.first_truncated_index - 1)
    cap = min(cap, mt.seq.index_count_upto(mt.depth - mt.longest_complete_run))
    if cap < 2:
        raise ValueError("prefix too short for a definition-based estimate")
    return range(max(2, int(cap * GRID_START_FRACTION)), cap + 1)


def estimate_vhat_definition(mt: MatchingTimes) -> float:
    """Uniform exponent surrogate straight from the definition: the
    reduction's min over every N of `definition_grid(mt)`.

    The running max changes only at records and a_N grows with N, so only
    the index before each record inside the grid, and the grid's last index,
    are evaluated.  The index before the first record has running max 0, so
    the estimate is 0 when that index lies inside the grid.
    """
    grid = definition_grid(mt)
    inner = [p.index - 1 for p in mt.dominant if grid.start < p.index <= grid[-1]]
    return _uniform_min(mt, inner + [grid[-1]])


def check_exponent_inequality(v_est: float, vhat_est: float, eta: float) -> bool | None:
    """Check v >= vhat/(eta - vhat) up to INEQUALITY_TOL; None where it does
    not apply, at vhat >= eta."""
    eta = float(eta)
    if vhat_est >= eta:
        return None
    return v_est + INEQUALITY_TOL >= vhat_est / (eta - vhat_est)


class ExponentEstimate(NamedTuple):
    """Summary of one estimation run over a digit prefix."""

    v_est: float
    vhat_est: float
    depth: int
    k_count: int
    burn_in: int
    eta: float  # eta_for_table of the gap table, used by the sanity bound


def estimate_exponents(mt: MatchingTimes) -> ExponentEstimate:
    """Run the block estimators over a gap table, past its burn-in.

    A finite-prefix sanity bound vhat <= eta * (v + 2/a(i_last))
    is checked with the table's eta; a violation (InvariantError) indicates
    corrupted inputs rather than a tight mathematical failure.
    """
    v = estimate_v(mt)
    vhat = estimate_vhat_blocks(mt)
    eta = eta_for_table(mt)
    bound = eta * (v + 2.0 / mt.dominant[-1].a)
    if not vhat <= bound + 1e-12:
        raise InvariantError(f"vhat {vhat} exceeds finite-prefix bound {bound}")
    return ExponentEstimate(v_est=v, vhat_est=vhat, depth=mt.depth,
                            k_count=len(mt.dominant), burn_in=mt.burn_in, eta=eta)


def eta_for_table(mt: MatchingTimes) -> float:
    """Declared eta of the table's sequence, else a tail estimate up to its depth."""
    seq = mt.seq
    if seq.eta_declared is not None:
        return float(seq.eta_declared)
    n_max = seq.index_count_upto(mt.depth)
    if n_max < 2:
        raise ValueError("sequence too short to estimate eta")
    return float(eta_estimate(seq, n_max))
