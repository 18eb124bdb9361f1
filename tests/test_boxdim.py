import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest

from dioph_lab import boxdim, construct, digits, exponents
from dioph_lab.boxdim import (
    ALL_DEPTHS,
    AT_BLOCK_ENDS,
    CountSeries,
    constraint_mask,
    count_exponents_upto,
    count_series,
    dimension_slope,
)
from dioph_lab.digits import DigitStream
from test_construct import apply_forces


def test_count_worked_values(small_sched):
    counts = count_exponents_upto(small_sched, 3, 13)
    assert counts.free == [range(1, 4), range(9, 12)]  # free: 1-3 and 9-11
    assert counts.count(13) == 6
    assert counts.count(8) == 3
    assert counts.count(1) == 1
    assert list(counts.exponents()) == [1, 2, 3, 3, 3, 3, 3, 3, 4, 5, 6, 6, 6]
    with pytest.raises(ValueError):
        count_exponents_upto(small_sched, 3, small_sched.covered_to + 1)


@pytest.mark.parametrize("depths,bad", [([0, 5], 0), ([-3, 5], -3)],
                         ids=["depth-zero", "depth-negative"])
def test_count_series_rejects_depths_below_one(small_sched, depths, bad, monkeypatch):
    def no_table(*_args):
        raise AssertionError("count table built before the depths were checked")

    monkeypatch.setattr(boxdim, "count_exponents_upto", no_table)
    with pytest.raises(ValueError, match=f"depths must be >= 1, got {bad}$"):
        count_series(small_sched, 3, depths)


def test_series_invariants():
    # too few points, in either mode
    with pytest.raises(ValueError, match="need at least 3 points, got 2"):
        dimension_slope(CountSeries(depths=range(1, 3), free=[range(1, 3)]), ALL_DEPTHS)
    with pytest.raises(ValueError, match="need at least 3 points, got 2"):
        dimension_slope(CountSeries(depths=[1, 2], free=[range(1, 3)]), AT_BLOCK_ENDS)
    # all-depths is a fit over every depth 1..N, and nothing else
    for depths in (range(2, 5), [1, 2, 3], range(1, 7, 2)):
        with pytest.raises(ValueError, match="needs every depth 1..N"):
            dimension_slope(CountSeries(depths=depths, free=[range(1, 5)]), ALL_DEPTHS)
    with pytest.raises(ValueError, match="unknown mode"):
        dimension_slope(CountSeries(depths=range(1, 4), free=[]), "middle")


def test_exact_line_slope():
    # every other position free: c(n) = n // 2, on the line n / 2 at even n
    ns = range(2, 40, 2)
    series = CountSeries(depths=ns, free=[range(j, j + 1) for j in ns])
    assert list(series.exponents()) == [n // 2 for n in ns]
    assert dimension_slope(series, AT_BLOCK_ENDS) == pytest.approx(0.5)
    # every position free (c(n) = n) and none free (c(n) = 0): exact lines
    every = CountSeries(depths=range(1, 40), free=[range(1, 40)])
    assert dimension_slope(every, ALL_DEPTHS) == 1.0
    assert dimension_slope(every, AT_BLOCK_ENDS) == 1.0
    assert dimension_slope(CountSeries(depths=range(1, 40), free=[]), ALL_DEPTHS) == 0.0


def test_block_end_slopes_hit_targets(eta1_sched, geo_sched):
    s = count_series(eta1_sched, 3, eta1_sched.block_ends(10 ** 6))
    assert dimension_slope(s, AT_BLOCK_ENDS) == pytest.approx(0.25, abs=0.02)
    g = count_series(geo_sched, 3, geo_sched.block_ends(10 ** 6))
    assert dimension_slope(g, AT_BLOCK_ENDS) == pytest.approx(1 / 49, abs=0.01)


def test_block_end_slope_stabilizes(eta1_sched):
    prev = None
    for horizon in (10 ** 5, 2 * 10 ** 5, 4 * 10 ** 5, 8 * 10 ** 5):
        s = count_series(eta1_sched, 3, eta1_sched.block_ends(horizon))
        val = dimension_slope(s, AT_BLOCK_ENDS)
        if prev is not None:
            assert val <= prev + 0.01
        prev = val


def test_count_series_sorts_and_drops_repeats(small_sched):
    want = count_series(small_sched, 3, range(1, 40)).points
    assert len(want) == 39 and all(type(c) is int for _, c in want)
    assert [n for n, _ in want] == list(range(1, 40))
    shuffled = list(range(39, 0, -1)) + [7, 1, 39, 20, 20]
    assert count_series(small_sched, 3, shuffled).points == want
    assert count_series(small_sched, 3, sorted(set(shuffled))).points == want
    assert count_series(small_sched, 3, range(39, 0, -1)).points == want
    with pytest.raises(ValueError, match="no depths requested"):
        count_series(small_sched, 3, [])


def test_series_memory_does_not_grow_with_depth(eta1_sched):
    depth = 10 ** 6
    tracemalloc.start()
    try:
        series = count_series(eta1_sched, 3, range(1, depth + 1))
        slope = dimension_slope(series, ALL_DEPTHS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.depths == range(1, depth + 1)
    assert slope == pytest.approx(0.451124613994, abs=1e-12)
    # a few objects per forced run and per free stretch, none per depth:
    # 3-6 kB measured, where a byte per depth would be 1 MB
    assert peak <= 50_000


def _brute_counts(sched, base, upto):
    """c(n) for n = 0..upto, from the forces applied one position at a time."""
    return list(accumulate((not c for c in apply_forces(sched, base, upto)[1:]), initial=0))


@pytest.mark.parametrize("base", [2, 3, 10])
@pytest.mark.parametrize("sched_name", ["eta1_sched", "geo_sched"])
def test_counts_and_slope_match_brute_force(sched_name, base, request):
    """The closed-form sums, the slope, the block-end counts and the chunk
    fills against sums over the free cells of the forces applied one
    position at a time (`apply_forces`), up to depth 6000 and at the block
    ends up to depth 10^6."""
    sched = request.getfixturevalue(sched_name)
    top = 6000
    c = _brute_counts(sched, base, top)
    free = count_exponents_upto(sched, base, top).free
    edges = {r.start for r in free} | {r.stop - 1 for r in free}
    tops = sorted({e + d for e in edges for d in (-1, 0, 1) if 3 <= e + d <= top} | {top})
    assert len(tops) >= 12
    for N in tops:
        series = count_exponents_upto(sched, base, N)
        ns = range(1, N + 1)
        assert series.count_sums() == (sum(c[1:N + 1]), sum(n * c[n] for n in ns))
        mean_n, mean_c = Fraction(N + 1, 2), Fraction(sum(c[1:N + 1]), N)
        exact = (sum((n - mean_n) * (c[n] - mean_c) for n in ns)
                 / sum((n - mean_n) ** 2 for n in ns))
        assert dimension_slope(series, ALL_DEPTHS) == float(exact)
    series = count_exponents_upto(sched, base, top)
    for lo, hi in [(0, top), (0, 1), (5, 6)] + [(max(e - 2, 0), e + 3) for e in sorted(edges)]:
        assert list(series.exponents(lo, hi)) == c[lo + 1:hi + 1], (lo, hi)
    depth = 10 ** 6
    cells = apply_forces(sched, base, depth)
    ends = sched.block_ends(depth)
    assert list(count_series(sched, base, ends).exponents()) == [
        cells.count(0, 1, n + 1) for n in ends]


# (sequence fixture, schedule fixture, v, vhat, v tolerance, vhat tolerance):
# the two references with the tolerances of the exponent-targeting check
UNIFORM_MASS_CASES = {"eta1": ("lin", "eta1_sched", 1.0, 1 / 3, 0.05, 0.02),
                      "geo:l=2": ("geo2", "geo_sched", 6.0, 1.5, 0.1, 0.05)}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("base", [2, 3, 10])
@pytest.mark.parametrize("case", UNIFORM_MASS_CASES)
def test_uniform_mass_points_hit_the_targets(case, base, seed, request):
    """A point drawn from the uniform mass on the set (the emitted digits at
    the forced positions, uniform digits at the free ones) realizes the
    schedule's exponent pair."""
    seq_name, sched_name, v, vhat, v_tol, vhat_tol = UNIFORM_MASS_CASES[case]
    seq, sched = request.getfixturevalue(seq_name), request.getfixturevalue(sched_name)
    depth = 10 ** 6
    free = constraint_mask(sched, base, depth)
    fill = digits.random_digits(base, sum(map(len, free)), seed).data
    point, i = bytearray(construct.emit_digits(sched, base, depth).data), 0
    for r in free:  # the stretches in order, each taking the next draws
        point[r.start - 1: r.stop - 1] = fill[i: i + len(r)]
        i += len(r)
    mt = exponents.matching_times(DigitStream(base, bytes(point)), seq)
    est = exponents.estimate_exponents(mt)
    assert est.v_est == pytest.approx(v, abs=v_tol)
    assert est.vhat_est == pytest.approx(vhat, abs=vhat_tol)
    vdef = exponents.estimate_vhat_definition(mt)
    assert abs(vdef - est.vhat_est) <= 0.01
