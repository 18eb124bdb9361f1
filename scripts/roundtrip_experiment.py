#!/usr/bin/env python3
"""Round-trip experiment: build the two reference constructions, estimate
their exponents back from the emitted digits, and compare the measured
local dimension at block ends against the closed-form value.

Usage:
  python scripts/roundtrip_experiment.py --depth 1000000
"""

import argparse
from fractions import Fraction as F

from dioph_lab import boxdim, construct, exponents, sequences


def run_case(label, seq, sched, depth, eta, limit):
    print(f"\n=== {label}: targets vhat = {sched.target_vhat}, "
          f"v = {sched.target_v}, local dim limit = {limit} ===")
    for base in (3, 2):
        stream = construct.emit_digits(sched, base, depth)
        mt = exponents.matching_times(stream, seq)
        est = exponents.estimate_exponents(mt)
        vdef = exponents.estimate_vhat_definition(mt, exponents.definition_grid(mt))
        ok = exponents.check_exponent_inequality(est.v_est, est.vhat_est, eta, 0.05)
        print(f"b={base}: depth {est.depth}, {est.k_count} dominant pairs "
              f"(burn-in {est.burn_in})")
        print(f"     v_est = {est.v_est:.6f}   vhat_blocks = {est.vhat_est:.6f}   "
              f"vhat_def = {vdef:.6f}   inequality_ok = {ok}")
    ends = sched.block_ends(depth)
    series = boxdim.count_series(sched, 3, ends)
    slope = boxdim.dimension_slope(series, boxdim.AT_BLOCK_ENDS)
    last = ends[-1]
    print(f"local dim at block end {last}: "
          f"{construct.local_dimension(sched, 3, last):.6f}   "
          f"block-end slope: {slope:.6f}   limit: {float(limit):.6f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=10 ** 6)
    args = ap.parse_args()

    lin = sequences.make_sequence("linear")
    sched = construct.schedule_eta1(lin, F(3), F(1, 3), cover_to=args.depth)
    run_case("eta = 1, a_n = n, theta = 3, vhat = 1/3", lin, sched, args.depth,
             1.0, construct.eta1_local_dimension_limit(F(3), F(1, 3)))

    geo = sequences.make_sequence("geometric:eta=2,a1=1")
    gsched = construct.schedule_geometric(geo, F(4), F(3, 2), 2, cover_to=args.depth)
    run_case("eta = 2, doubling a_n, theta = 4, vhat = 3/2, l = 2", geo, gsched,
             args.depth, 2.0,
             construct.geometric_local_dimension_limit(F(2), F(4), F(3, 2), 2))


if __name__ == "__main__":
    main()
