from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioph_lab import dimfx
from dioph_lab.dimfx import (
    baseline_bound,
    construction_lower_bound,
    dim_eta1,
    dim_pair_eta1,
    exact_dimension_window,
    floor_log,
    forbidden_theta_gaps,
    l0_threshold,
    rational_linspace,
    refined_upper_bound,
    smallest_power_at_least,
    theta_is_forbidden,
    thresholds,
    upper_bound_pair,
    upper_bound_strip,
)

ETAS = (F(3, 2), F(2), F(3))


def test_floor_log_exact_at_powers():
    for eta in ETAS + (F(5, 2),):
        for k in range(-4, 7):
            x = eta ** k
            assert floor_log(eta, x) == k
            assert floor_log(eta, x + F(1, 10 ** 9)) == k
            assert floor_log(eta, x - F(1, 10 ** 9)) == k - 1


def linear_floor_log(eta, x):
    """The one-power-at-a-time search floor_log replaced, kept as an oracle."""
    f = 0
    p = F(1)
    if x >= 1:
        while p * eta <= x:
            p *= eta
            f += 1
    else:
        while p > x:
            p /= eta
            f -= 1
    return f


@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 10 ** 6),
       st.integers(1, 10 ** 6))
@settings(max_examples=300)
def test_floor_log_matches_linear_search(num, den, p, q):
    eta, x = F(num + den, den), F(p, q)  # eta > 1, x on both sides of 1
    assert floor_log(eta, x) == linear_floor_log(eta, x)


@pytest.mark.parametrize("eta", [F(3, 2), F(2), F(10, 9)])
def test_floor_log_matches_linear_search_at_powers(eta):
    for k in range(-20, 40):
        # a step of 1e-30 is below float resolution, so the guess can overshoot
        for d in (0, F(1, 10 ** 12), -F(1, 10 ** 12), F(1, 10 ** 30), -F(1, 10 ** 30)):
            x = eta ** k * (1 + d)
            assert floor_log(eta, x) == linear_floor_log(eta, x)


@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 10 ** 6),
       st.integers(1, 10 ** 6))
@settings(max_examples=300)
def test_smallest_power_at_least_definition(num, den, p, q):
    eta, x = F(num + den, den), F(p, q)
    l = smallest_power_at_least(eta, x)
    assert l >= 1 and eta ** l >= x
    assert l == 1 or eta ** (l - 1) < x
    for k in range(-3, 4):  # exact powers are reached, not passed
        assert smallest_power_at_least(eta, eta ** k) == max(1, k)


def test_floor_log_near_one_is_fast():
    eta = F(10001, 10000)
    f = floor_log(eta, F(2))
    assert eta ** f <= 2 < eta ** (f + 1) and f == 6931
    assert smallest_power_at_least(eta, F(2)) == f + 1


def test_thresholds_examples():
    assert l0_threshold(F(2)) == 2
    th = thresholds(F(2), F(3, 2))
    assert (th.ltilde, th.lprime) == (2, 2)
    assert thresholds(F(2), F(7, 5)).l1 == 2
    with pytest.raises(ValueError):
        thresholds(F(2), F(5, 2))
    with pytest.raises(ValueError):
        thresholds(F(1), F(1, 2))


def test_dim_eta1_endpoints_and_value():
    assert dim_eta1(F(0)).value == 1
    assert dim_eta1(F(1)).value == 0
    assert dim_eta1(F(1, 3)).value == F(1, 4)
    with pytest.raises(ValueError):
        dim_eta1(F(3, 2))


def test_dim_pair_eta1():
    assert dim_pair_eta1(F(1, 3), F(3)).value == F(1, 4)
    boundary = dim_pair_eta1(F(1, 3), F(3, 2))
    assert boundary.kind == dimfx.EXACT and boundary.value == 0
    assert dim_pair_eta1(F(1, 3), F(1)).kind == dimfx.EMPTY


def test_upper_bound_pair():
    assert upper_bound_pair(F(1), F(1, 3), F(3)).value == F(1, 4)
    assert upper_bound_pair(F(2), F(3, 2), F(4)).value == F(1, 49)
    assert upper_bound_pair(F(2), F(3, 2), F(1)).kind == dimfx.EMPTY


def test_upper_bound_strip():
    assert upper_bound_strip(F(1), F(1, 3), F(3), F(1, 10)).value == F(6, 23)
    with pytest.raises(ValueError):
        upper_bound_strip(F(2), F(3, 2), F(1), F(1, 10))
    with pytest.raises(ValueError):
        upper_bound_strip(F(1), F(1, 3), F(3), F(-1))


@given(st.integers(1, 9), st.integers(1, 20), st.integers(0, 30))
@settings(max_examples=80)
def test_strip_reduces_to_pair_at_rho_zero(vn, tk, en):
    vhat = F(vn, 10)
    eta = 1 + F(en, 10)
    if vhat >= eta:
        return
    theta = max(F(1), 1 / (eta - vhat)) + F(tk, 7)
    strip = upper_bound_strip(eta, vhat, theta, F(0))
    pair = upper_bound_pair(eta, vhat, theta)
    assert strip.value == pair.value


def test_strip_large_rho_limit():
    eta, vhat, theta = F(1), F(1, 3), F(3)
    limit = (eta - vhat) / ((1 + theta * vhat) * eta)
    got = upper_bound_strip(eta, vhat, theta, F(10 ** 6)).value
    assert abs(got - limit) < F(1, 10 ** 4)


def test_baseline_bound():
    assert baseline_bound(F(1), F(0)).value == 1
    assert baseline_bound(F(2), F(2)).value == 0
    assert baseline_bound(F(2), F(3, 2)).value == F(1, 49)


def test_refined_upper_bound_window():
    rep = refined_upper_bound(F(2), F(7, 5))
    assert rep.domain_ok and rep.value == F(7, 231) == F(1, 33)
    assert baseline_bound(F(2), F(7, 5)).value == F(9, 289)
    assert rep.value < F(9, 289)
    assert not refined_upper_bound(F(2), F(1)).domain_ok
    # inside the second window for eta = 3: (12/5, 25/9)
    rep3 = refined_upper_bound(F(3), F(5, 2))
    assert rep3.domain_ok and rep3.value == F(1, 129)


def test_construction_lower_bound_values():
    assert construction_lower_bound(F(2), F(3, 2)).value == F(1, 49)
    assert construction_lower_bound(F(2), F(7, 5)).value == F(1, 33)
    assert construction_lower_bound(F(2), F(1, 100)).value == F(149, 153)


def test_exact_dimension_window():
    rep = exact_dimension_window(F(2), F(7, 5))
    assert rep.domain_ok and rep.value == F(1, 33)
    rep = exact_dimension_window(F(2), F(3, 2))  # right-closed endpoint
    assert rep.domain_ok and rep.value == F(1, 49)
    assert not exact_dimension_window(F(2), F(5, 4)).domain_ok  # 5/4 < 21/16
    assert not exact_dimension_window(F(2), F(1, 2)).domain_ok


def test_forbidden_gaps_worked():
    gaps = forbidden_theta_gaps(F(2), F(3, 2), 3)
    assert [str(g) for g in gaps] == ["[0, 2)", "(2, 4)", "(14/3, 8)"]
    gaps = forbidden_theta_gaps(F(2), F(1), 2)
    assert [str(g) for g in gaps] == ["[0, 1)", "(1, 2)", "(3, 4)"]
    with pytest.raises(ValueError):
        forbidden_theta_gaps(F(2), F(1, 2), 3)


@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 20), st.integers(1, 8))
@settings(max_examples=150)
def test_forbidden_gaps_merge_keeps_the_union(en, ed, vn, l_max):
    eta = 1 + F(en, ed)
    vhat = 1 + (eta - 1) * F(vn, 21)  # vhat in [1, eta)
    gaps = forbidden_theta_gaps(eta, vhat, l_max)
    assert all(a.hi < b.lo or (a.hi == b.lo and b.lo_open) for a, b in zip(gaps, gaps[1:]))
    pieces = [(F(0), max(F(1), 1 / (eta - vhat)), False)]
    pieces += [((eta ** l - 1) / vhat, eta ** l, True) for l in range(1, l_max + 1)]
    ends = sorted({e for lo, hi, _ in pieces for e in (lo, hi)})
    probes = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    for theta in probes:
        in_piece = any((lo < theta if lo_open else lo <= theta) and theta < hi
                       for lo, hi, lo_open in pieces)
        assert any(g.contains(theta) for g in gaps) == in_piece


def test_domain_ok_follows_the_value():
    assert refined_upper_bound(F(2), F(7, 5)).domain_ok
    assert not refined_upper_bound(F(2), F(1)).domain_ok
    assert dimfx.DimensionReport(None, dimfx.EXACT, "test").domain_ok is False
    assert dimfx.DimensionReport(F(0), dimfx.EMPTY, "test").domain_ok is True


def test_theta_admissibility():
    assert not theta_is_forbidden(F(2), F(3, 2), F(4))
    assert not theta_is_forbidden(F(2), F(3, 2), F(2))
    assert not theta_is_forbidden(F(2), F(3, 2), F(9, 2))
    assert theta_is_forbidden(F(2), F(3, 2), F(3))
    assert theta_is_forbidden(F(2), F(3, 2), F(1, 2))


@given(st.integers(1, 9), st.integers(0, 400))
@settings(max_examples=200)
def test_eta1_pair_consistency(vn, k):
    vhat = F(vn, 10)
    theta = 1 / (1 - vhat) + F(k, 100)
    assert upper_bound_pair(F(1), vhat, theta).value == dim_pair_eta1(vhat, theta).value


@pytest.mark.parametrize("vhat", [F(1, 3), F(1, 2), F(3, 5)])
def test_optimizer_identity(vhat):
    lo = 1 / (1 - vhat)
    grid = [lo + F(k, 100) for k in range(401)]
    best_val, best_theta = max((dim_pair_eta1(vhat, th).value, th) for th in grid)
    theta0 = 2 / (1 - vhat)
    assert abs(best_theta - theta0) <= F(1, 100)
    assert dim_pair_eta1(vhat, theta0).value == dim_eta1(vhat).value
    assert best_val <= dim_eta1(vhat).value


def _window_samples(eta, per_window=17, windows=4):
    l0 = l0_threshold(eta)
    for l in range(l0, l0 + windows):
        p = eta ** l
        left = max(F(1), eta - 2 * eta / (p + 1))
        right = eta - 2 / p
        yield from rational_linspace(left, right, per_window + 2)[1:-1]


def test_sandwich_on_windows():
    for eta in ETAS:
        for vhat in _window_samples(eta):
            up = refined_upper_bound(eta, vhat)
            low = construction_lower_bound(eta, vhat)
            base = baseline_bound(eta, vhat)
            assert up.domain_ok
            assert low.value <= up.value < base.value
            ex = exact_dimension_window(eta, vhat)
            if ex.domain_ok:
                assert ex.value == low.value


def test_remark_equality_at_window_endpoints():
    for eta in ETAS:
        l0 = l0_threshold(eta)
        for l in range(l0, l0 + 4):
            vhat = eta - 2 / eta ** l
            assert construction_lower_bound(eta, vhat).value == \
                baseline_bound(eta, vhat).value
            ex = exact_dimension_window(eta, vhat)
            assert ex.domain_ok and ex.value == baseline_bound(eta, vhat).value


def test_branch_crossing_quadratic_roots():
    for eta in ETAS:
        for l in range(1, 5):
            p = eta ** l
            c2, c1, c0 = (p ** 3,
                          -p * (p - 1) * (eta * p + p - 1),
                          (p - 1) ** 2 * (eta * p - 1))
            for t in ((p - 1) / p, eta - (p + eta * p - 1) / p ** 2):
                assert c2 * t * t + c1 * t + c0 == 0


def test_rational_linspace():
    pts = rational_linspace(F(1, 2), F(3, 2), 5)
    assert pts == [F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2)]
    with pytest.raises(ValueError):
        rational_linspace(F(0), F(1), 1)
