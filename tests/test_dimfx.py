from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioph_lab import cli, dimfx
from dioph_lab.dimfx import (
    baseline_bound,
    construction_lower_bound,
    dim_eta1,
    dim_pair_eta1,
    exact_dimension_window,
    floor_log,
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
    # below the exponent cap the answer is exact; past it, one ValueError
    eta = F(1001, 1000)
    f = floor_log(eta, F(2))
    assert eta ** f <= 2 < eta ** (f + 1) and f == 693
    assert smallest_power_at_least(eta, F(2)) == f + 1
    with pytest.raises(ValueError, match=f"cap {dimfx.MAX_EXPONENT} "):
        floor_log(F(10001, 10000), F(2))  # f = 6931


def test_floor_log_guess_survives_cancelling_logs():
    # log(10^20 + 1) - log(10^20) rounds to 0; log1p of the exact eta - 1 does not
    eta = F(10 ** 20 + 1, 10 ** 20)
    for k in range(-3, 4):
        assert floor_log(eta, eta ** k) == k
        assert floor_log(eta, eta ** k * (1 - F(1, 10 ** 30))) == k - 1
    assert floor_log(F(2), F(10 ** 300 + 1, 10 ** 300)) == 0
    for big in (F(2), F(1, 2), 1 + F(1, 10 ** 12)):  # f is about 6.9e19, 1e8
        with pytest.raises(ValueError, match="past the cap"):
            floor_log(eta, big)


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


def _at(formula, eta, vhat):
    """`formula` at (eta, vhat), given the point's thresholds."""
    return formula(eta, vhat, thresholds(eta, vhat))


def test_refined_upper_bound_window():
    rep = _at(refined_upper_bound, F(2), F(7, 5))
    assert rep.domain_ok and rep.value == F(7, 231) == F(1, 33)
    assert baseline_bound(F(2), F(7, 5)).value == F(9, 289)
    assert rep.value < F(9, 289)
    assert not _at(refined_upper_bound, F(2), F(1)).domain_ok
    # inside the second window for eta = 3: (12/5, 25/9)
    rep3 = _at(refined_upper_bound, F(3), F(5, 2))
    assert rep3.domain_ok and rep3.value == F(1, 129)


def test_construction_lower_bound_values():
    assert _at(construction_lower_bound, F(2), F(3, 2)).value == F(1, 49)
    assert _at(construction_lower_bound, F(2), F(7, 5)).value == F(1, 33)
    assert _at(construction_lower_bound, F(2), F(1, 100)).value == F(149, 153)


def test_exact_dimension_window():
    rep = _at(exact_dimension_window, F(2), F(7, 5))
    assert rep.domain_ok and rep.value == F(1, 33)
    rep = _at(exact_dimension_window, F(2), F(3, 2))  # right-closed endpoint
    assert rep.domain_ok and rep.value == F(1, 49)
    assert not _at(exact_dimension_window, F(2), F(5, 4)).domain_ok  # 5/4 < 21/16
    assert not _at(exact_dimension_window, F(2), F(1, 2)).domain_ok


def test_forbidden_gaps_worked():
    # vhat = 3/2: empty below 2, then the gaps (2, 4), (14/3, 8), (10, 16)
    for theta in (F(0), F(1), F(3), F(19, 4), F(5), F(7)):
        assert theta_is_forbidden(F(2), F(3, 2), theta)
    for theta in (F(2), F(4), F(9, 2), F(14, 3), F(8), F(9)):
        assert not theta_is_forbidden(F(2), F(3, 2), theta)
    # vhat = 1: empty below 1, then the gaps (1, 2), (3, 4), (7, 8)
    for theta in (F(0), F(1, 2), F(3, 2), F(7, 2)):
        assert theta_is_forbidden(F(2), F(1), theta)
    for theta in (F(1), F(2), F(3), F(4), F(5)):
        assert not theta_is_forbidden(F(2), F(1), theta)
    # vhat < 1: only the first interval applies
    assert theta_is_forbidden(F(2), F(1, 2), F(1, 2))
    for theta in (F(1), F(3, 2), F(3), F(7, 2)):
        assert not theta_is_forbidden(F(2), F(1, 2), theta)
    with pytest.raises(ValueError, match=r"^vhat must lie in \[1, 2\), got 5/2$"):
        theta_is_forbidden(F(2), F(5, 2), F(3))
    # the domain is checked before the empty-below verdict
    with pytest.raises(ValueError, match=r"^eta must exceed 1, got 1/2$"):
        theta_is_forbidden(F(1, 2), F(1), F(0))
    with pytest.raises(ValueError, match=r"^vhat must lie in \[1, 2\), got 5/2$"):
        theta_is_forbidden(F(2), F(5, 2), F(1, 2))
    with pytest.raises(ValueError, match=r"^vhat must lie in \[1, 2\), got 2$"):
        theta_is_forbidden(F(2), F(2), F(3))


@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 20), st.integers(1, 8))
@settings(max_examples=150)
def test_forbidden_gaps_match_the_raw_pieces(en, ed, vn, l_top):
    eta = 1 + F(en, ed)
    vhat = 1 + (eta - 1) * F(vn, 21)  # vhat in [1, eta)

    def pieces(l_max):
        yield F(0), max(F(1), 1 / (eta - vhat)), False
        for l in range(1, l_max + 1):
            yield (eta ** l - 1) / vhat, eta ** l, True

    ends = sorted({e for lo, hi, _ in pieces(l_top) for e in (lo, hi)})
    probes = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    for theta in probes:
        # a gap l > l_top can hold the probe (eta = 5/4, vhat = 1, theta = 4
        # lies in the gap at l = 7), so the pieces reach past the probe
        reach = max(l_top, floor_log(eta, max(theta, F(2))) + 2)
        in_piece = any((lo < theta if lo_open else lo <= theta) and theta < hi
                       for lo, hi, lo_open in pieces(reach))
        assert theta_is_forbidden(eta, vhat, theta) == in_piece


def test_reports_find_one_thresholds_per_point(monkeypatch):
    """`reports` finds each eta > 1 point's thresholds, and l0 with them,
    once: no formula finds them again, and neither does `eval-dim`.  At
    eta = 1 it finds none."""
    calls = dict.fromkeys(("thresholds", "l0_threshold"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(dimfx, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(dimfx, name, counted)
    grid = rational_linspace(F(-1, 2), F(5, 2), 61)  # 0 and 2 on it, a step 1/20
    for vhat in grid:
        dimfx.reports(F(2), vhat, F(4), F(1, 2))
    inside = sum(0 < vhat < 2 for vhat in grid)
    assert inside == 39 and calls == {"thresholds": inside, "l0_threshold": inside}
    for vhat in rational_linspace(F(0), F(1), 21):
        dimfx.reports(F(1), vhat, F(3), F(1, 2))
    assert calls == {"thresholds": inside, "l0_threshold": inside}
    assert cli.main(["eval-dim", "--eta", "2", "--vhat", "7/5"]) == 0
    assert calls == {"thresholds": inside + 1, "l0_threshold": inside + 1}


def test_domain_ok_follows_the_value():
    assert _at(refined_upper_bound, F(2), F(7, 5)).domain_ok
    assert not _at(refined_upper_bound, F(2), F(1)).domain_ok
    assert dimfx.DimensionReport(None, dimfx.EXACT, "test").domain_ok is False
    assert dimfx.DimensionReport(F(0), dimfx.EMPTY, "test").domain_ok is True


@given(st.integers(1, 9), st.integers(0, 400))
@settings(max_examples=200)
def test_eta1_pair_consistency(vn, k):
    vhat = F(vn, 10)
    theta = 1 / (1 - vhat) + F(k, 100)
    assert upper_bound_pair(F(1), vhat, theta).value == dim_pair_eta1(vhat, theta).value


def test_rational_linspace():
    pts = rational_linspace(F(1, 2), F(3, 2), 5)
    assert pts == [F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2)]
    with pytest.raises(ValueError):
        rational_linspace(F(0), F(1), 1)


def test_dimension_report_checks_its_value():
    for value in (F(-1, 2), F(3, 2)):
        with pytest.raises(dimfx.InvariantError, match=r"outside \[0, 1\]"):
            dimfx.DimensionReport(value, dimfx.UPPER, "test")
    for value in (F(1, 2), None):
        with pytest.raises(dimfx.InvariantError, match="empty set reported with dimension"):
            dimfx.DimensionReport(value=value, kind=dimfx.EMPTY, source="test")
    assert dimfx.DimensionReport(F(1), dimfx.EXACT, "test").condition == ""
