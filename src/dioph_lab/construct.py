"""Explicit Cantor-type digit schedules with prescribed exponent pairs.

A schedule is a sparse list of blocks (i_k, a_{i_k}, m_k, t_k): a marker
digit 1 at position a_{i_k}, zeros up to m_k - 1, a closing 1 at m_k, and
t_k further markers spaced m_k - a_{i_k} apart before the next block starts.
One loop lays the blocks for both regimes, from the first admissible start
index until a block reaches past the requested `cover_to` position; the two
regimes differ only in their start rule, their next-block rule and one extra
per-block check:

* eta1 regime (growth exponent 1): i_{k+1} is the first index with
  a_j > theta * a_{i_k}; realizes the pair (vhat, theta*vhat).
* geometric regime (growth exponent eta > 1): fixed stride
  i_{k+1} = i_k + l + 1 with theta in [eta^l, (eta^{l+1}-1)/vhat).

`check_regime` tells whether a sequence's growth fits a regime.
`forced_runs` states a schedule's digit pattern once, as the runs of forced
positions: `emit_digits` joins the stream's bytes from them, and `boxdim`
counts the free positions between them.

All schedule arithmetic is exact: theta and vhat are Fractions and every
floor is an integer floor of a rational product.  Floating point is not used
anywhere in construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from itertools import repeat
from typing import TYPE_CHECKING, Callable, NamedTuple

from .digits import CODE, DigitStream
from .sequences import DenominatorSequence, eta_estimate
from . import dimfx

if TYPE_CHECKING:
    from array import array

START_SCAN_CAP = 10 ** 6  # max indices scanned for a valid first block
MAX_ENTRIES = 10_000


class ScheduleEntry(NamedTuple):
    index: int    # i_k
    a: int        # a_{i_k}
    m: int        # m_k = floor((1 + theta*vhat) * a_{i_k})
    t: int        # number of spaced markers after m_k
    next_index: int
    next_a: int   # a_{i_{k+1}}

    @property
    def gap(self) -> int:
        return self.m - self.a


class CantorSchedule(NamedTuple):
    seq: DenominatorSequence
    theta: Fraction
    vhat: Fraction
    entries: tuple[ScheduleEntry, ...]

    @property
    def covered_to(self) -> int:
        """Last digit position the schedule determines (start of the block
        after the final entry, exclusive)."""
        return self.entries[-1].next_a - 1

    @property
    def target_v(self) -> Fraction:
        return self.theta * self.vhat

    def block_ends(self, max_depth: int) -> list[int]:
        return [e.m for e in self.entries if e.m <= max_depth]


def _floor_times(frac: Fraction, a: int) -> int:
    return (frac.numerator * a) // frac.denominator


def _seq_value(seq: DenominatorSequence, n: int) -> int:
    try:
        return seq.a(n)
    except IndexError as exc:
        raise ValueError(f"sequence too short: index {n} unavailable") from exc


def check_regime(seq: DenominatorSequence, regime: str) -> None:
    """Raise ValueError unless the sequence's growth fits the regime.

    "eta1" needs growth exponent 1 (declared, or estimated from the terms of
    an explicit sequence); "geometric" needs a declared exponent above 1.
    """
    declared = seq.eta_declared
    if regime == "eta1":
        if declared is not None:
            if declared != 1:
                raise ValueError(f"eta1 schedule needs growth exponent 1, sequence has {declared}")
            return
        n_max = seq.max_index()
        if n_max < 2:
            raise ValueError("sequence too short to check its growth exponent")
        est = eta_estimate(seq, n_max)
        if est > Fraction(11, 10):
            raise ValueError(f"sequence growth estimate {est} is not close to 1")
    elif regime == "geometric":
        if declared is None or declared <= 1:
            raise ValueError("geometric schedule needs a sequence with declared growth exponent > 1")
    else:
        raise ValueError(f"unknown regime {regime!r}")


def _lay_blocks(seq: DenominatorSequence, theta: Fraction, vhat: Fraction, cover_to: int,
                start_ok: Callable[[int], bool], next_index: Callable[[int, int], int],
                check_block: Callable[[ScheduleEntry], None]) -> CantorSchedule:
    """The block loop both regimes share.

    Starts at the first index passing `start_ok`, then lays blocks until one
    reaches past `cover_to`; `next_index(i, a_i)` picks each next block.
    Every block must pass the regime's own `check_block`, the sandwich
    a + 3 <= m <= next_a - 2 and strictly growing runs.
    """
    one_plus_tv = 1 + theta * vhat
    i = 1
    while not start_ok(i):
        i += 1
        if i > START_SCAN_CAP:
            raise ValueError(f"no valid start index below the scan cap {START_SCAN_CAP}")

    entries: list[ScheduleEntry] = []
    while True:
        a = _seq_value(seq, i)
        m = _floor_times(one_plus_tv, a)
        j = next_index(i, a)
        next_a = _seq_value(seq, j)
        t = (next_a - m - 1) // (m - a) if m > a else 0
        entry = ScheduleEntry(index=i, a=a, m=m, t=t, next_index=j, next_a=next_a)
        check_block(entry)
        if not a + 3 <= m <= next_a - 2:
            raise ValueError(f"block sandwich violated at index {i}: "
                             f"a={a}, m={m}, next_a={next_a}")
        if entries and entry.gap <= entries[-1].gap:
            raise ValueError(f"run lengths must strictly increase: "
                             f"gap {entry.gap} after {entries[-1].gap}")
        entries.append(entry)
        if next_a - 1 >= cover_to:
            return CantorSchedule(seq=seq, theta=theta, vhat=vhat, entries=tuple(entries))
        if len(entries) >= MAX_ENTRIES:
            raise ValueError(f"schedule exceeded {MAX_ENTRIES} blocks")
        i = j


def schedule_eta1(seq: DenominatorSequence, theta: Fraction, vhat: Fraction,
                  cover_to: int) -> CantorSchedule:
    """Schedule for the growth-exponent-1 regime, determining positions up to
    at least `cover_to`.

    Preconditions: 0 < vhat < 1 and theta > 1/(1 - vhat) (the boundary value
    makes the zero blocks stop growing, so it is excluded).  Blocks start at
    the first a_i above max(3/(theta vhat), 1/((theta-1) theta vhat),
    1/(theta-1-theta vhat)); each next block at the first a_j > theta * a_i.
    Every block's marker count t stays at most ceil(2/vhat) + 1.
    """
    theta, vhat = Fraction(theta), Fraction(vhat)
    check_regime(seq, "eta1")
    if not 0 < vhat < 1:
        raise ValueError(f"vhat must lie in (0, 1), got {vhat}")
    if theta <= 1 / (1 - vhat):
        raise ValueError(f"theta must exceed 1/(1-vhat) = {1 / (1 - vhat)}, got {theta}")

    tv = theta * vhat
    threshold = max(3 / tv, 1 / ((theta - 1) * tv), 1 / (theta - 1 - tv))
    bound = math.ceil(2 / vhat) + 1

    def next_index(_i: int, a: int) -> int:
        # the first index with a_j > theta * a; a_j is an integer, so
        # a_j <= theta * a exactly when a_j <= floor(theta * a)
        return seq.index_count_upto(_floor_times(theta, a)) + 1

    def check_block(entry: ScheduleEntry) -> None:
        if entry.t > bound:
            raise ValueError(f"marker count t={entry.t} exceeds bound {bound}")

    return _lay_blocks(seq, theta, vhat, cover_to,
                       lambda i: _seq_value(seq, i) > threshold, next_index, check_block)


def schedule_geometric(seq: DenominatorSequence, theta: Fraction, vhat: Fraction,
                       l: int, cover_to: int) -> CantorSchedule:
    """Fixed-stride schedule for a sequence with growth exponent eta > 1,
    determining positions up to at least `cover_to`.

    Requires l at least the admissible stride threshold and
    theta in [eta^l, (eta^{l+1} - 1)/vhat).  Blocks sit at indices
    i, i + l + 1, i + 2(l + 1), ..., where i is the smallest n satisfying the
    three start conditions; each later block re-checks them, so a sporadic
    early match cannot produce an invalid schedule.
    """
    theta, vhat = Fraction(theta), Fraction(vhat)
    check_regime(seq, "geometric")
    eta = seq.eta_declared
    if not 0 < vhat < eta:
        raise ValueError(f"vhat must lie in (0, {eta}), got {vhat}")
    lprime = dimfx.thresholds(eta, vhat).lprime
    if l < lprime:
        raise ValueError(f"stride l={l} below the admissible threshold {lprime}")
    dimfx.check_power(eta, l + 1)
    lo, hi = eta ** l, (eta ** (l + 1) - 1) / vhat
    if not lo <= theta < hi:
        end = (f"theta = {theta} lies outside [eta^{l}, (eta^{l + 1} - 1)/vhat), "
               "and an end of that range")
        raise ValueError(f"theta must lie in [{dimfx.exact_text(lo, end)}, "
                         f"{dimfx.exact_text(hi, end)}), got {theta}")

    tv = theta * vhat
    stride = l + 1

    def starts(a: int, a_next: int) -> bool:
        return a > 3 / tv and a_next - a > 1 / tv and (1 + tv) * a <= a_next - 2

    def check_block(entry: ScheduleEntry) -> None:
        if not starts(entry.a, entry.next_a):
            raise ValueError(f"start conditions fail again at index {entry.index}; "
                             "sequence does not settle into its growth regime")

    return _lay_blocks(seq, theta, vhat, cover_to,
                       lambda n: starts(_seq_value(seq, n), _seq_value(seq, n + stride)),
                       lambda i, _a: i + stride, check_block)


FILL_DIGIT = 1  # unconstrained positions; never 0 or b-1, so no spurious runs
_EMIT_CHUNK = 1 << 16  # digits of one cached piece of a run; longer runs join several


@cache
def _digit_chunk(digit: int) -> memoryview:
    """_EMIT_CHUNK copies of the digit's CODE byte, which every emitted run of
    the digit slices: a slice of a memoryview copies nothing."""
    return memoryview(bytes((CODE[digit],)) * _EMIT_CHUNK)


def forced_runs(sched: CantorSchedule, base: int, upto: int) -> list[tuple[int, int, int]]:
    """The schedule's digit pattern: the sorted, disjoint runs (lo, hi, digit)
    of forced positions in 1..upto; every other position is free.

    For base 2 the variant pattern also forces a 0 immediately before each
    spaced marker, which caps the length of the 1-runs the fill would
    otherwise create.  The forces are applied in schedule order, each
    clipped to upto; one that meets an earlier force of another digit is an
    InvariantError naming its smallest such position.  Emission fills the
    free positions; box counting counts them.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if upto < 0 or upto > sched.covered_to:
        raise ValueError(f"upto {upto} outside covered range [0, {sched.covered_to}]")
    runs: list[tuple[int, int, int]] = []

    def force(lo: int, hi: int, digit: int) -> None:  # positions lo..hi, clipped to upto
        hi = min(hi, upto)
        if lo > hi:
            return
        i = j = bisect_left(runs, lo, key=lambda r: r[1])  # the first run ending at or after lo
        start, end = lo, hi
        while j < len(runs) and runs[j][0] <= hi:  # the runs it meets, in order
            if runs[j][2] != digit:
                raise dimfx.InvariantError(
                    f"conflicting digits at position {max(lo, runs[j][0])}")
            start, end = min(start, runs[j][0]), max(end, runs[j][1])
            j += 1
        runs[i:j] = [(start, end, digit)]

    for e in sched.entries:
        if e.a > upto:
            break
        force(e.a, e.a, 1)
        force(e.a + 1, e.m - 1, 0)
        for pos in range(e.m, e.m + e.t * e.gap + 1, e.gap):  # m_k, then t_k spaced markers
            force(pos, pos, 1)
            if base == 2 and pos > e.m:
                force(pos - 1, pos - 1, 0)
    return runs


def emit_digits(sched: CantorSchedule, base: int, upto: int) -> DigitStream:
    """Materialize the first `upto` digits of the schedule's pattern, with
    FILL_DIGIT at the free positions: one join of the runs' bytes."""
    pieces, pos = [], 1

    def run(digit: int, length: int) -> None:
        chunk = _digit_chunk(digit)
        pieces.extend(repeat(chunk, length // _EMIT_CHUNK))
        pieces.append(chunk[:length % _EMIT_CHUNK])

    for lo, hi, digit in forced_runs(sched, base, upto):
        run(FILL_DIGIT, lo - pos)
        run(digit, hi - lo + 1)
        pos = hi + 1
    run(FILL_DIGIT, upto + 1 - pos)
    return DigitStream(base, b"".join(pieces))


def _entry_base_exponents(sched: CantorSchedule, base: int) -> list[int]:
    """Mass exponent on the constant stretch [a_{i_k}, m_k] of each block."""
    bases = []
    e = sched.entries[0].a - 1  # free positions before the first marker
    for ent in sched.entries:
        bases.append(e)
        free_between = (ent.next_a - ent.m - 1) - ent.t
        if base == 2:
            free_between -= ent.t  # the forced zeros are constrained too
        e += free_between
    return bases


def _ramp_exponent(ent: ScheduleEntry, base: int, flat: int, off: int) -> int:
    """Mass exponent `off` positions past m_k (0 <= off < next_a - m_k), where
    `flat` is the exponent on the constant stretch [a_{i_k}, m_k]: it grows
    by one per position except across the spaced markers (and, for base 2,
    across the forced zeros before them as well).  At off = 0 the value is
    `flat`, since every gap is >= 3."""
    e = flat + off - off // ent.gap
    if base == 2:
        e -= min(ent.t, (off + 1) // ent.gap)
    return e


def _check_depth(sched: CantorSchedule, n: int) -> None:
    if not 1 <= n <= sched.covered_to:
        raise ValueError(f"depth {n} outside covered range [1, {sched.covered_to}]")


def mu_cylinder(sched: CantorSchedule, base: int, n: int) -> int:
    """Exponent e with mu(I_n) = b^(-e) for the uniform mass of a depth-n
    cylinder: entry n of `mu_exponents_upto`, from the one block holding n."""
    _check_depth(sched, n)
    kk = bisect_right(sched.entries, n, key=lambda e: e.a) - 1
    if kk < 0:
        return n  # below the first block every position is free
    ent = sched.entries[kk]
    flat = _entry_base_exponents(sched, base)[kk]
    return _ramp_exponent(ent, base, flat, max(n - ent.m, 0))


def mu_exponents_upto(sched: CantorSchedule, base: int, max_n: int) -> array:
    """array('q') of log_b(mu) at every depth 0..max_n, a block at a time.

    On [a_{i_k}, m_k] the mass is constant; past m_k it follows
    `_ramp_exponent`.  Below the first block every position is free, so the
    exponent is the depth itself.
    """
    from array import array
    _check_depth(sched, max_n)
    out = array("q", range(min(sched.entries[0].a - 1, max_n) + 1))
    for ent, flat in zip(sched.entries, _entry_base_exponents(sched, base)):
        if ent.a > max_n:
            break
        hi = min(ent.next_a - 1, max_n)
        out.extend(repeat(flat, min(ent.m, hi) - ent.a + 1))
        out.extend(_ramp_exponent(ent, base, flat, off) for off in range(1, hi - ent.m + 1))
    return out


def local_dimension(sched: CantorSchedule, base: int, n: int) -> float:
    """Cylinder local-dimension ratio log_b(mu)/n at depth n."""
    return mu_cylinder(sched, base, n) / n


def geometric_local_dimension_limit(eta: Fraction, theta: Fraction, vhat: Fraction,
                                    l: int) -> Fraction:
    """Limit of log_b(mu(I_n))/n along block ends in the fixed-stride regime
    with stride parameter l (for the eta1 regime see `dimfx.dim_pair_eta1`)."""
    eta, theta, vhat = Fraction(eta), Fraction(theta), Fraction(vhat)
    tv = theta * vhat
    top = eta ** (l + 1) - 1
    return (top - tv) / (top * (1 + tv))
