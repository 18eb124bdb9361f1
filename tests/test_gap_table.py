"""The gap table against a direct scan of the digits.

The scan below walks each run digit by digit in plain Python, one index at
a time.  It is the oracle for `run_end_table`, `matching_times` (its record
search and its `pairs` listing), the block estimators, `definition_grid` and
`estimate_vhat_definition`, and it lives here only, not in the library.
"""

import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dioph_lab import construct, digits, sequences
from dioph_lab.exponents import (
    NEEDLE_CAP,
    MatchingPair,
    definition_grid,
    estimate_exponents,
    estimate_v,
    estimate_vhat_blocks,
    estimate_vhat_definition,
    matching_times,
)
from dioph_lab.verify import greedy_dominant

SEQS = [sequences.make_sequence(s) for s in ("linear", "poly:d=2", "geometric:eta=2,a1=1")]


def scan_run_end(data: bytes, base: int, j: int) -> int:
    """1-based end of the 0/(b-1) run holding position j, or 0."""
    v = data[j - 1]
    if v not in (ord("0"), digits.CODE[base - 1]):
        return 0
    while j < len(data) and data[j] == v:
        j += 1
    return j


def scan_table(stream, seq):
    """Per index n with a_n + 1 in the prefix: a_n and the gap (0 when the
    run is not 0/(b-1) or still open), plus the complete pairs and the first
    index whose run the prefix cuts off."""
    P = stream.prefix_len
    avals, gaps, pairs, first_trunc = [], [], [], None
    n, top = 1, seq.max_index()  # top: the last term of an explicit sequence
    while (top is None or n <= top) and seq.a(n) <= P - 1:
        a = seq.a(n)
        end = scan_run_end(stream.data, stream.base, a + 1)
        gap = 0
        if end and end < P:
            gap = end + 1 - a
            pairs.append(MatchingPair(n, a, end + 1))
        elif end and first_trunc is None:
            first_trunc = n
        avals.append(a)
        gaps.append(gap)
        n += 1
    return avals, gaps, pairs, first_trunc


def scan_runs(pairs):
    """The first pair of each run, in order: the pairs of one run are
    consecutive and share its matching time m."""
    return [p for i, p in enumerate(pairs) if i == 0 or pairs[i - 1].m != p.m]


def loop_grid(avals, gaps, first_trunc, P, start_fraction=0.2):
    """The default grid with its cap found by stepping down one index at a time."""
    cap = len(avals)
    if first_trunc is not None:
        cap = min(cap, first_trunc - 1)
    longest = max(gaps)
    while cap >= 1 and avals[cap - 1] + longest > P:
        cap -= 1
    if cap < 2:
        return None
    return list(range(max(2, int(cap * start_fraction)), cap + 1))


def scan_vhat(avals, gaps, grid):
    return min(max(gaps[:N]) / avals[N - 1] for N in grid)


@st.composite
def run_streams(draw):
    """Streams built from runs, many ending inside a 0 or b-1 run."""
    base = draw(st.sampled_from([2, 3, 10]))
    runs = draw(st.lists(st.tuples(st.integers(0, base - 1), st.integers(1, 30)),
                         min_size=1, max_size=40))
    tail = draw(st.sampled_from([0, base - 1]))
    data = (b"".join(digits.CODE[v:v + 1] * k for v, k in runs)
            + digits.CODE[tail:tail + 1] * draw(st.integers(0, 25)))
    assume(len(data) >= 3)
    return digits.DigitStream(base, data)


@given(run_streams(), st.data())
@settings(max_examples=150, deadline=None)
def test_run_end_table_matches_scan(stream, data):
    P = stream.prefix_len
    positions = data.draw(st.lists(st.integers(1, P), max_size=60))
    positions += list(range(1, P + 1))
    want = [scan_run_end(stream.data, stream.base, j) for j in positions]
    assert digits.run_end_table(stream, positions).tolist() == want


@pytest.mark.parametrize("base", [2, 3, 10])
def test_run_ends_of_runs_a_chunk_long(base):
    """Runs of 0 and of b - 1 whose lengths are chunk multiples, one less and
    one more, inside the prefix and at its end: `_run_stop` reads them a
    chunk at a time, and must end each where the scan does, from its first
    digit and from points a chunk multiple before its end."""
    chunk = digits._RUN_CHUNK
    lengths = [k * chunk + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    sep = b"" if base == 2 else digits.CODE[1:2]  # base 2 has no other digit
    for tail in (0, base - 1):
        # the run before the final one holds the other digit, even in base 2
        runs = [(digits.CODE[v:v + 1] * n, n) for n in lengths for v in (tail, base - 1 - tail)]
        runs.append((digits.CODE[tail:tail + 1] * lengths[-1], lengths[-1]))  # the final run
        data, starts = b"", []
        for run, _n in runs:
            data += sep
            starts.append(len(data))
            data += run
        for s, (_run, n) in zip(starts, runs):
            for off in {0, 1, n - 1} | {n - k * chunk + d for k in (1, 2) for d in (-1, 0, 1)}:
                if 0 <= off < n:
                    assert digits._run_stop(data, s + off) == scan_run_end(data, base, s + off + 1)


def test_run_end_table_rejects_positions_outside_prefix():
    stream = digits.digits_from_string("1001", 2)
    for bad in ([0], [5], [1, 5]):
        with pytest.raises(IndexError):
            digits.run_end_table(stream, bad)
    assert len(digits.run_end_table(stream, [])) == 0


def check_against_scan(stream, seq):
    """The table of `stream` under `seq` holds what the scan finds; returns it."""
    avals, gaps, pairs, first_trunc = scan_table(stream, seq)
    mt = matching_times(stream, seq)
    assert mt.index_count == len(avals)
    # one listing row per run, at its first complete index
    assert scan_runs(mt.pairs) == scan_runs(pairs)
    assert mt.pairs == pairs
    assert len(mt.pairs) == len(pairs)
    dominant = greedy_dominant(pairs)
    assert mt.dominant == dominant
    assert len(mt.dominant) == len(dominant)
    assert mt.first_truncated_index == first_trunc
    assert mt.longest_complete_run == max(gaps)
    return mt


@pytest.mark.parametrize("seq", SEQS, ids=lambda s: s.spec)
@given(stream=run_streams())
@settings(max_examples=100, deadline=None)
def test_matching_times_matches_scan(seq, stream):
    check_against_scan(stream, seq)


def test_final_run_shorter_than_the_record_is_cut_off():
    stream = digits.digits_from_string("1" + "0" * 12 + "1" + "2" * 5, 3)
    for seq in SEQS:
        check_against_scan(stream, seq)
    mt = matching_times(stream, SEQS[0])
    assert mt.dominant == [MatchingPair(1, 1, 14)]
    assert mt.first_truncated_index == 14  # a_14 + 1 = 15 opens the final 2-run


@pytest.mark.parametrize("base", [2, 3])
def test_zero_run_directly_followed_by_top_run(base):
    top = str(base - 1)
    stream = digits.digits_from_string("1" * 2 + "0" * 3 + top * 6 + "01", base)
    for seq in SEQS:
        check_against_scan(stream, seq)
    # the 0-run breaks at the first top digit, which opens the longer run
    got = matching_times(stream, SEQS[0]).dominant
    assert got[-2:] == [MatchingPair(2, 2, 6), MatchingPair(5, 5, 12)]


def test_run_past_the_needle_cap_but_below_the_record():
    runs = ("1", "0" * (3 * NEEDLE_CAP), "1", "2" * (2 * NEEDLE_CAP), "1",
            "0" * (4 * NEEDLE_CAP), "1" * 3)
    stream = digits.digits_from_string("".join(runs), 3)
    for seq in SEQS:
        check_against_scan(stream, seq)
    gaps = [p.gap for p in matching_times(stream, SEQS[0]).dominant]
    assert gaps == [3 * NEEDLE_CAP + 1, 4 * NEEDLE_CAP + 1]  # the 2-run is no record


def test_index_start_mid_run():
    # a_n = n^2: the 2-run at positions 6..7 holds no a_n + 1, so the search
    # resumes at a_3 + 1 = 10, inside the 0-run at 9..13
    stream = digits.digits_from_string("1" * 5 + "22" + "1" + "0" * 5 + "1" * 7, 3)
    for seq in SEQS:
        check_against_scan(stream, seq)
    assert matching_times(stream, SEQS[1]).dominant == [MatchingPair(3, 9, 14)]


def test_no_zero_or_top_digit():
    # random base-8 digits 0..7 moved up to 1..8 in base 10
    stream = digits.DigitStream(10, digits.random_digits(8, 500, 0).data.translate(
        bytes.maketrans(b"01234567", b"12345678")))
    for seq in SEQS:
        mt = check_against_scan(stream, seq)
        assert mt.dominant == [] and mt.first_truncated_index is None


def test_file_sequence_ending_inside_the_prefix(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("2\n5\n7\n")
    seq = sequences.make_sequence(f"file:{path}")
    # runs after the last term a_3 = 7 hold no index
    stream = digits.digits_from_string("11" + "000" + "1" * 4 + "2" * 20 + "1", 3)
    mt = check_against_scan(stream, seq)
    assert mt.index_count == 3
    assert mt.dominant == [MatchingPair(1, 2, 6)]


@pytest.mark.parametrize("seq", SEQS, ids=lambda s: s.spec)
@given(stream=run_streams())
@settings(max_examples=100, deadline=None)
def test_definition_grid_and_estimate_match_scan(seq, stream):
    avals, gaps, _, first_trunc = scan_table(stream, seq)
    mt = matching_times(stream, seq)
    want = loop_grid(avals, gaps, first_trunc, stream.prefix_len)
    if want is None:
        with pytest.raises(ValueError):
            definition_grid(mt)
        with pytest.raises(ValueError):
            estimate_vhat_definition(mt)
    else:
        assert list(definition_grid(mt)) == want  # the index-count cap equals the loop's
        # evaluated at the stretch ends only, the min over every grid index
        assert estimate_vhat_definition(mt) == scan_vhat(avals, gaps, want)


@pytest.mark.parametrize("seq", SEQS, ids=lambda s: s.spec)
@given(stream=run_streams())
@settings(max_examples=100, deadline=None)
def test_block_estimators_match_scan(seq, stream):
    # the paper's block form over the scanned dominant pairs i_1 < i_2 < ...
    _, _, pairs, _ = scan_table(stream, seq)
    mt = matching_times(stream, seq)
    dom = greedy_dominant(pairs)
    k = len(dom)
    burn = min(int(0.2 * k), max(0, k - 2))
    if not pairs:
        with pytest.raises(ValueError):
            estimate_v(mt)
    else:
        assert estimate_v(mt) == max(p.gap / p.a for p in dom[burn:])
    if k < 2:
        with pytest.raises(ValueError):
            estimate_vhat_blocks(mt)
    else:
        assert estimate_vhat_blocks(mt) == min(
            p.gap / seq.a(q.index - 1) for p, q in zip(dom[burn:], dom[burn + 1:]))


def test_open_final_run_is_truncated_not_paired():
    # base 3, a_n = n: the 0-run opened at position 6 is still open at the end
    stream = digits.digits_from_string("1200100000", 3)
    mt = matching_times(stream, SEQS[0])
    assert mt.first_truncated_index == 5
    assert mt.pairs == [MatchingPair(1, 1, 3), MatchingPair(2, 2, 5), MatchingPair(3, 3, 5)]
    # two complete runs: indices 1 and 2..3; the open run's indices 5..9 are no row
    assert mt.index_count == 9
    assert scan_runs(mt.pairs) == [MatchingPair(1, 1, 3), MatchingPair(2, 2, 5)]


def test_table_rows_grow_with_runs_not_indices():
    # the eta = 1 reference at depth 10^6: 10^6 indices, a handful of runs
    sched = construct.schedule_eta1(SEQS[0], F(3), F(1, 3), cover_to=10 ** 6)
    stream = construct.emit_digits(sched, 3, 10 ** 6)
    tracemalloc.start()
    try:
        mt = matching_times(stream, SEQS[0])
        grid = definition_grid(mt)
        vdef = estimate_vhat_definition(mt)
        estimate_exponents(mt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mt.index_count == 10 ** 6 - 1
    assert isinstance(grid, range) and len(grid) > 10 ** 5
    assert abs(vdef - 1 / 3) < 0.01
    assert peak < 100_000  # one int64 column over the indices would be 8 MB
    # random digits: about 4.4 * 10^5 runs, of which a dozen or so are records
    stream = digits.random_digits(3, 10 ** 6, 0)
    tracemalloc.start()
    try:
        mt = matching_times(stream, SEQS[0])
        estimate_exponents(mt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mt.index_count == 10 ** 6 - 1 and len(mt.dominant) >= 2
    assert peak < 100_000
