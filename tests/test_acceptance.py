"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` (or the whole suite); the
`dioph-lab verify` subcommand covers the same ground as a library-level
invariant sweep.
"""

from fractions import Fraction as F

import numpy as np

from dioph_lab import boxdim, cli, construct, digits, dimfx, exponents, sequences

LIN = sequences.make_sequence("linear")
GEO2 = sequences.make_sequence("geometric:eta=2,a1=1")


def _crit(num: int, desc: str, ok: bool):
    print(f"\nacceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_exact_formula_suite():
    ok = (dimfx.dim_eta1(F(1, 3)).value == F(1, 4)
          and dimfx.upper_bound_pair(F(2), F(3, 2), F(4)).value == F(1, 49)
          and dimfx.construction_lower_bound(F(2), F(3, 2)).value == F(1, 49)
          and dimfx.baseline_bound(F(2), F(3, 2)).value == F(1, 49)
          and dimfx.exact_dimension_window(F(2), F(7, 5)).value == F(1, 33)
          and dimfx.exact_dimension_window(F(2), F(7, 5)).domain_ok)
    _crit(1, "exact rational values 1/4, 1/49, 1/49 = baseline, 1/33", ok)


def test_criterion_02_strictness_sweep():
    checked = 0
    ok = True
    for eta in (F(3, 2), F(2), F(3)):
        l0 = dimfx.l0_threshold(eta)
        for l in range(l0, l0 + 4):
            p = eta ** l
            left = max(F(1), eta - 2 * eta / (p + 1))
            right = eta - 2 / p
            for vhat in dimfx.rational_linspace(left, right, 19)[1:-1]:
                up = dimfx.refined_upper_bound(eta, vhat)
                low = dimfx.construction_lower_bound(eta, vhat)
                base = dimfx.baseline_bound(eta, vhat)
                ok &= up.domain_ok and up.value < base.value and low.value <= up.value
                checked += 1
    ok &= checked >= 200
    _crit(2, f"refined upper < baseline strictly and lower <= upper "
             f"on {checked} window samples", ok)


def test_criterion_03_remark_equality():
    ok = True
    for eta in (F(3, 2), F(2), F(3)):
        l0 = dimfx.l0_threshold(eta)
        for l in range(l0, l0 + 4):
            vhat = eta - 2 / eta ** l
            ok &= dimfx.construction_lower_bound(eta, vhat).value == \
                dimfx.baseline_bound(eta, vhat).value
    _crit(3, "lower bound equals baseline exactly at vhat = eta - 2/eta^l", ok)


def test_criterion_04_roundtrip_eta1(tmp_path):
    ok = True
    for base in (3, 2):
        dig = tmp_path / f"eta1_b{base}.txt"
        csv_path = tmp_path / f"eta1_b{base}.csv"
        assert cli.main(["gen-digits", "--seq", "linear", "--theta", "3",
                         "--vhat", "1/3", "--base", str(base), "--regime", "eta1",
                         "--depth", "1000000", "--out", str(dig)]) == 0
        assert cli.main(["estimate", "--digits", str(dig), "--seq", "linear",
                         "--csv", str(csv_path)]) == 0
        row = csv_path.read_text().splitlines()[1].split(",")
        v_est, vhat_est = float(row[2]), float(row[3])
        ok &= abs(vhat_est - 1 / 3) <= 0.02 and abs(v_est - 1.0) <= 0.05
        mt = exponents.matching_times(digits.load_digit_file(dig), LIN)
        vdef = exponents.estimate_vhat_definition(mt, exponents.definition_grid(mt))
        ok &= abs(vhat_est - vdef) <= 0.01
    _crit(4, "eta=1 construction at depth 1e6 (b=3 and b=2): vhat in 1/3+-0.02, "
             "v in 1+-0.05, estimators agree within 0.01", ok)


def test_criterion_05_roundtrip_geometric(geo_streams):
    ok = True
    for base in (3, 2):
        est = exponents.estimate_exponents(exponents.matching_times(geo_streams[base], GEO2))
        ok &= abs(est.vhat_est - 1.5) <= 0.05 and abs(est.v_est - 6.0) <= 0.1
    _crit(5, "geometric construction (eta=2, l=2, theta=4, vhat=3/2) at depth "
             "1e6: vhat within 0.05 of 3/2, v within 0.1 of 6", ok)


def test_criterion_06_local_dimension_convergence(eta1_sched, geo_sched):
    last = [m for m in eta1_sched.block_ends(10 ** 6) if m >= 10 ** 5][-1]
    d1 = construct.local_dimension(eta1_sched, 3, last)
    glast = [m for m in geo_sched.block_ends(10 ** 6) if m >= 10 ** 5][-1]
    d2 = construct.local_dimension(geo_sched, 3, glast)
    ok = abs(d1 - 0.25) <= 0.02 and abs(d2 - 1 / 49) <= 0.01
    _crit(6, f"local dimension {d1:.4f} within 0.02 of 1/4 and {d2:.6f} "
             f"within 0.01 of 1/49 at last block ends >= 1e5", ok)


def test_criterion_07_box_count_consistency(eta1_sched, geo_sched):
    ok = True
    for sched in (eta1_sched, geo_sched):
        for base in (3, 2):
            mu = construct.mu_exponents_upto(sched, base, 10 ** 5)
            ct = boxdim.count_exponents_upto(sched, base, 10 ** 5)
            ok &= bool(np.array_equal(mu[1:], ct[1:]))
    s1 = boxdim.count_series(eta1_sched, 3, eta1_sched.block_ends(10 ** 6))
    ok &= abs(boxdim.dimension_slope(s1, boxdim.AT_BLOCK_ENDS) - 0.25) <= 0.02
    s2 = boxdim.count_series(geo_sched, 3, geo_sched.block_ends(10 ** 6))
    ok &= abs(boxdim.dimension_slope(s2, boxdim.AT_BLOCK_ENDS) - 1 / 49) <= 0.01
    _crit(7, "cylinder-count exponent equals mass exponent at every depth "
             "<= 1e5 (exact) and block-end slopes hit the local-dimension "
             "targets", ok)


def test_criterion_08_exponent_inequality(eta1_streams, geo_streams):
    ok = True
    est = exponents.estimate_exponents(exponents.matching_times(eta1_streams[3], LIN))
    ok &= exponents.check_exponent_inequality(est.v_est, est.vhat_est, 1.0, 0.05)
    gest = exponents.estimate_exponents(exponents.matching_times(geo_streams[3], GEO2))
    ok &= exponents.check_exponent_inequality(gest.v_est, gest.vhat_est, 2.0, 0.05)
    for seed in range(100):
        stream = digits.random_digits(10, 20000, seed)
        e = exponents.estimate_exponents(exponents.matching_times(stream, LIN))
        ok &= exponents.check_exponent_inequality(e.v_est, e.vhat_est, 1.0, 0.05)
    _crit(8, "v >= vhat/(eta - vhat) within 0.05 on both constructions and "
             "100 seeded random streams", ok)


def test_criterion_09_forbidden_gap_coherence():
    eta, vhat = F(2), F(3, 2)
    ok = True
    for k in range(0, 64):
        theta = F(k, 16)
        should_be_empty = (theta < 2) or (2 < theta < 4)
        pair_empty = (theta < 2 and
                      dimfx.upper_bound_pair(eta, vhat, theta).kind == dimfx.EMPTY)
        gap_empty = dimfx.theta_is_forbidden(eta, vhat, theta)
        ok &= (pair_empty or gap_empty) == should_be_empty
    for theta in (F(2), F(4), F(9, 2)):
        ok &= not dimfx.theta_is_forbidden(eta, vhat, theta)
    _crit(9, "theta grid over [0,2) u (2,4) reported empty; 2, 4, 4.5 admissible",
          ok)


def test_criterion_10_child_mass_additivity(eta1_sched):
    ok = True
    for base in (3, 2):
        for n in range(1, 31):
            parent = construct.mu_cylinder(eta1_sched, base, n).log_b_mu
            child = construct.mu_cylinder(eta1_sched, base, n + 1).log_b_mu
            forced = construct.constrained_digit(eta1_sched, base, n + 1)
            n_children = 1 if forced is not None else base
            ok &= n_children * F(1, base ** child) == F(1, base ** parent)
    _crit(10, "admissible child masses sum exactly to the parent mass at "
              "every depth <= 30", ok)
