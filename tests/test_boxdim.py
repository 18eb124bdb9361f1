import tracemalloc

import numpy as np
import pytest
from fractions import Fraction as F

from dioph_lab import boxdim, construct, exponents, sequences
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

LIN = sequences.make_sequence("linear")


@pytest.fixture(scope="module")
def small_sched():
    return construct.schedule_eta1(LIN, F(3), F(1, 3), cover_to=120)


def test_count_worked_values(small_sched):
    counts = count_exponents_upto(small_sched, 3, 13)
    assert counts[13] == 6  # free: 1-3 and 9-11
    assert counts[8] == 3
    assert counts[1] == 1
    with pytest.raises(ValueError):
        count_exponents_upto(small_sched, 3, small_sched.covered_to + 1)


def test_count_equals_measure_everywhere(eta1_sched, geo_sched):
    for sched in (eta1_sched, geo_sched):
        for base in (3, 2):
            mu = construct.mu_exponents_upto(sched, base, 10 ** 5)
            ct = count_exponents_upto(sched, base, 10 ** 5)
            assert np.array_equal(mu[1:], ct[1:])


@pytest.mark.parametrize("depths,bad", [([0, 5], 0), ([-3, 5], -3)],
                         ids=["depth-zero", "depth-negative"])
def test_count_series_rejects_depths_below_one(small_sched, depths, bad, monkeypatch):
    def no_table(*_args):
        raise AssertionError("count table built before the depths were checked")

    monkeypatch.setattr(boxdim, "count_exponents_upto", no_table)
    with pytest.raises(ValueError, match=f"depths must be >= 1, got {bad}$"):
        count_series(small_sched, 3, depths)


def test_series_invariants():
    with pytest.raises(ValueError):
        CountSeries(depths=(2, 1), exponents=(1, 1))  # depths must increase
    with pytest.raises(ValueError):
        CountSeries(depths=(1, 2), exponents=(1, 0))  # exponent cannot drop
    with pytest.raises(ValueError):
        CountSeries(depths=(1,), exponents=(2,))  # exponent above depth
    with pytest.raises(ValueError):
        CountSeries(depths=(1, 2), exponents=(1,))  # one exponent per depth
    with pytest.raises(ValueError):
        dimension_slope(CountSeries(depths=(1, 2), exponents=(1, 2)), ALL_DEPTHS)


def test_exact_line_slope():
    ns = range(2, 40, 2)
    series = CountSeries(depths=ns, exponents=[n // 2 for n in ns])
    assert dimension_slope(series, ALL_DEPTHS) == pytest.approx(0.5)
    assert dimension_slope(series, AT_BLOCK_ENDS) == pytest.approx(0.5)


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


def test_regression_sits_above_liminf(eta1_sched):
    series = count_series(eta1_sched, 3, list(range(1, 10 ** 5 + 1)))
    slope = dimension_slope(series, ALL_DEPTHS)
    block = dimension_slope(
        count_series(eta1_sched, 3, eta1_sched.block_ends(10 ** 5)), AT_BLOCK_ENDS)
    assert slope >= block - 0.05


def test_count_series_sorts_and_drops_repeats(small_sched):
    want = count_series(small_sched, 3, range(1, 40)).points
    assert want.dtype == np.int64 and want.shape == (39, 2)
    assert np.array_equal(want[:, 0], np.arange(1, 40))
    shuffled = list(range(39, 0, -1)) + [7, 1, 39, 20, 20]
    assert np.array_equal(count_series(small_sched, 3, shuffled).points, want)
    assert np.array_equal(count_series(small_sched, 3, sorted(set(shuffled))).points, want)
    with pytest.raises(ValueError, match="no depths requested"):
        count_series(small_sched, 3, [])


def test_full_range_series_is_a_view_of_the_count_table(eta1_sched):
    depths = range(1, 10 ** 5 + 1)
    tracemalloc.start()
    try:
        series = count_series(eta1_sched, 3, depths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(series.depths, np.arange(1, 10 ** 5 + 1))
    assert np.array_equal(series.exponents, count_exponents_upto(eta1_sched, 3, 10 ** 5)[1:])
    # the depths and the count table, 8 bytes per depth each, and a few
    # bytes per depth of masks
    assert peak <= 2_500_000


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
    free = ~constraint_mask(sched, base, depth)[1:]
    point = construct.emit_digits(sched, base, depth).as_array().copy()
    point[free] = np.random.default_rng(seed).integers(0, base, size=int(free.sum()))
    mt = exponents.matching_times(DigitStream(base, point.tobytes()), seq)
    est = exponents.estimate_exponents(mt)
    assert est.v_est == pytest.approx(v, abs=v_tol)
    assert est.vhat_est == pytest.approx(vhat, abs=vhat_tol)
    vdef = exponents.estimate_vhat_definition(mt, exponents.definition_grid(mt))
    assert abs(vdef - est.vhat_est) <= 0.01
