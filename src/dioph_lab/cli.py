"""Command-line front end: eval-dim, gen-digits, estimate, box-dim, sweep, verify.

Rationals on the command line are `p` or `p/q` strings; decimal forms are
rejected because schedule construction requires exact arithmetic.  CSV is
the single output format (plot-ready columns, deterministic bytes).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import boxdim, construct, digits, dimfx, exponents, sequences
from .sequences import parse_rational


def _fmt(x) -> str:
    """Decimal rendering at 12 significant digits."""
    if x is None:
        return ""
    return format(float(x), ".12g")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _base(text: str) -> int:
    try:
        base = int(text)
    except ValueError:
        base = 0
    if base < 2:
        raise argparse.ArgumentTypeError(f"base must be an integer >= 2, got {text!r}")
    return base


def _usage(message: str) -> int:
    """One `error:` line on stderr and the usage exit code."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _grid(text: str) -> list[Fraction]:
    """'lo:hi:count' -> count exact rationals from lo to hi inclusive."""
    try:
        lo, hi, count = text.split(":")
        count = int(count)
    except ValueError:
        raise ValueError(f"grid must be lo:hi:count, got {text!r}") from None
    return dimfx.rational_linspace(parse_rational(lo), parse_rational(hi), count)


def _check_positive(flag: str, value: int) -> None:
    """Depth flags count digit positions, so each must be at least 1."""
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _check_eta(eta: Fraction) -> None:
    """Every formula and schedule needs a growth exponent eta >= 1."""
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")


def _parse_regime(text: str):
    """'eta1' or 'geo:l=<int >= 1>' -> (name, stride or None).

    Every admissible stride threshold is at least 1, so a smaller stride is
    a usage error rather than a point that cannot be built.
    """
    if text == "eta1":
        return "eta1", None
    try:
        stride = int(text[len("geo:l="):]) if text.startswith("geo:l=") else 0
    except ValueError:
        stride = 0
    if stride < 1:
        raise argparse.ArgumentTypeError(
            f"regime must be eta1 or geo:l=<int >= 1>, got {text!r}")
    return "geometric", stride


def _build_schedule(seq_spec: str, theta: Fraction, vhat: Fraction, regime: str,
                    stride: int | None, depth: int):
    seq = sequences.make_sequence(seq_spec)
    if regime == "eta1":
        return construct.schedule_eta1(seq, theta, vhat, cover_to=depth)
    return construct.schedule_geometric(seq, theta, vhat, stride, cover_to=depth)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


# --- eval-dim ----------------------------------------------------------------

def _formula_rows(eta: Fraction, vhat: Fraction, theta: Fraction | None,
                  rho: Fraction | None):
    """Every closed-form report whose domain covers the parameter point."""
    reports = []
    if 0 <= vhat <= eta:
        reports.append(dimfx.baseline_bound(eta, vhat))
    if eta == 1:
        if 0 <= vhat <= 1:
            reports.append(dimfx.dim_eta1(vhat))
        if theta is not None and 0 < vhat < 1:
            reports.append(dimfx.dim_pair_eta1(vhat, theta))
    elif 0 < vhat < eta:
        reports.append(dimfx.refined_upper_bound(eta, vhat))
        reports.append(dimfx.construction_lower_bound(eta, vhat))
        reports.append(dimfx.exact_dimension_window(eta, vhat))
    if theta is not None and 0 < vhat < eta:
        pair = dimfx.upper_bound_pair(eta, vhat, theta)
        reports.append(pair)
        if rho is not None and pair.kind != dimfx.EMPTY:
            reports.append(dimfx.upper_bound_strip(eta, vhat, theta, rho))
    return reports


def cmd_eval_dim(args) -> int:
    eta = args.eta
    _check_eta(eta)
    if args.grid is not None:
        grid = _grid(args.grid)
    elif args.vhat is not None:
        grid = [args.vhat]
    else:
        return _usage("eval-dim needs --vhat or --grid")
    rows = []
    for vhat in grid:
        for rep in _formula_rows(eta, vhat, args.theta, args.rho):
            exact = ("" if rep.value is None else
                     dimfx.exact_text(rep.value, f"the {rep.source} value at vhat = {vhat}"))
            rows.append((str(vhat), rep.source, exact,
                         _fmt(rep.value), rep.kind, str(rep.domain_ok), rep.condition))
    if args.csv:
        _write_csv(args.csv, ["vhat", "formula", "exact", "decimal", "kind",
                              "domain_ok", "condition"], rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
    else:
        print(f"eta = {eta}" + (f", theta = {args.theta}" if args.theta is not None else "")
              + (f", rho = {args.rho}" if args.rho is not None else ""))
        if eta > 1 and len(grid) == 1 and 0 < grid[0] < eta:
            th = dimfx.thresholds(eta, grid[0])
            print(f"thresholds: l0={th.l0} l1={th.l1} ltilde={th.ltilde} lprime={th.lprime}")
        if eta > 1 and args.theta is not None and len(grid) == 1 and 1 <= grid[0] < eta:
            verdict = "forbidden" if dimfx.theta_is_forbidden(eta, grid[0], args.theta) \
                else "admissible"
            print(f"theta = {args.theta}: {verdict}")
        print(f"{'vhat':>10}  {'formula':<20} {'exact':>12} {'decimal':>16} "
              f"{'kind':<6} {'domain_ok':<9} condition")
        for r in rows:
            print(f"{r[0]:>10}  {r[1]:<20} {r[2]:>12} {r[3]:>16} {r[4]:<6} {r[5]:<9} {r[6]}")
    return 0


# --- gen-digits ----------------------------------------------------------------

def cmd_gen_digits(args) -> int:
    if args.base > digits.MAX_BASE:
        raise ValueError(f"--base must be <= {digits.MAX_BASE} to write a digit file, "
                         f"got {args.base}")
    _check_positive("--depth", args.depth)
    regime, stride = args.regime
    sched = _build_schedule(args.seq, args.theta, args.vhat, regime, stride, args.depth)
    stream = construct.emit_digits(sched, args.base, args.depth)
    digits.save_digit_file(stream, args.out)
    print(f"wrote {stream.prefix_len} base-{args.base} digits to {args.out} "
          f"({len(sched.entries)} blocks, covered to {sched.covered_to})")
    print(f"targets: vhat = {sched.vhat}, v = {sched.target_v}")
    if args.schedule_csv:
        rows = [(k + 1, e.index, e.a, e.m, e.t)
                for k, e in enumerate(sched.entries)]
        _write_csv(args.schedule_csv, ["k", "i_k", "a_ik", "m_k", "t_k"], rows)
        print(f"wrote schedule to {args.schedule_csv}")
    return 0


# --- estimate ----------------------------------------------------------------

def cmd_estimate(args) -> int:
    if args.depth is not None:
        _check_positive("--depth", args.depth)
    stream = digits.load_digit_file(args.digits)
    if args.depth is not None:
        stream = stream.truncated(min(args.depth, stream.prefix_len))
    seq = sequences.make_sequence(args.seq)
    mt = exponents.matching_times(stream, seq)
    est = exponents.estimate_exponents(mt, args.burn_in)
    ok = exponents.check_exponent_inequality(est.v_est, est.vhat_est, est.eta, tol=0.05)
    try:
        vdef = exponents.estimate_vhat_definition(mt, exponents.definition_grid(mt))
    except ValueError:
        vdef = None
    print(f"depth {est.depth}: {est.k_count} dominant pairs (burn-in {est.burn_in})")
    print(f"v_est = {_fmt(est.v_est)}   vhat_est = {_fmt(est.vhat_est)}"
          + (f"   vhat_def = {_fmt(vdef)}" if vdef is not None else ""))
    print(f"eta = {_fmt(est.eta)}   inequality v >= vhat/(eta - vhat): "
          f"{'ok' if ok else 'VIOLATED'}")
    if args.csv:
        _write_csv(args.csv, ["depth", "k_count", "v_est", "vhat_est", "lemma21_ok"],
                   [(est.depth, est.k_count, _fmt(est.v_est), _fmt(est.vhat_est),
                     str(ok).lower())])
        print(f"wrote {args.csv}")
    return 0


# --- box-dim ----------------------------------------------------------------

def cmd_box_dim(args) -> int:
    _check_positive("--max-depth", args.max_depth)
    regime, stride = args.regime
    sched = _build_schedule(args.seq, args.theta, args.vhat, regime, stride,
                            args.max_depth)
    if args.mode == boxdim.AT_BLOCK_ENDS:
        depths, what = sched.block_ends(args.max_depth), "block ends"
    else:
        depths, what = range(1, args.max_depth + 1), "depths"
    if len(depths) < boxdim.MIN_POINTS:
        raise ValueError(f"--max-depth {args.max_depth} reaches {len(depths)} {what}, "
                         f"and mode {args.mode} needs at least {boxdim.MIN_POINTS}")
    series = boxdim.count_series(sched, args.base, depths)
    slope = boxdim.dimension_slope(series, args.mode)
    print(f"{len(series.depths)} depths, mode {args.mode}: dimension estimate "
          f"{_fmt(slope)}")
    if args.csv:
        _write_csv(args.csv, ["n", "log_b_count", "ratio"], _series_rows(series))
        print(f"wrote {args.csv}")
    return 0


def _series_rows(series):
    """CSV rows (n, count exponent, ratio), converted 2^16 depths at a time,
    so no list of every row is held."""
    for lo in range(0, len(series.depths), 1 << 16):
        ns = series.depths[lo: lo + (1 << 16)].tolist()
        cs = series.exponents[lo: lo + (1 << 16)].tolist()
        yield from ((n, c, _fmt(c / n)) for n, c in zip(ns, cs))


# --- sweep ----------------------------------------------------------------

SWEEP_FORMULAS = ("baseline", "eta1-exact", "pair-eta1", "refined-upper",
                  "construction-lower", "exact-window", "pair-upper", "strip-upper")


def _sweep_point(eta, vhat, theta, rho, roundtrip):
    row = [str(vhat), _fmt(vhat), str(theta) if theta is not None else ""]
    reports = {r.source: r for r in _formula_rows(eta, vhat, theta, rho)}
    for name in SWEEP_FORMULAS:
        rep = reports.get(name)
        row.append(_fmt(rep.value) if rep is not None and rep.value is not None else "")
        row.append("" if rep is None else str(rep.domain_ok).lower())
    if roundtrip is None:
        row.extend(["", "", ""])
        return row
    seq_spec, base, regime, stride, depth, burn_fraction = roundtrip
    try:
        sched = _build_schedule(seq_spec, theta, vhat, regime, stride, depth)
        stream = construct.emit_digits(sched, base, depth)
        est = exponents.estimate_exponents(exponents.matching_times(stream, sched.seq),
                                           burn_fraction)
        ok = exponents.check_exponent_inequality(est.v_est, est.vhat_est, est.eta, 0.05)
        row.extend([_fmt(est.v_est), _fmt(est.vhat_est), str(ok).lower()])
    except ValueError:
        row.extend(["", "", ""])  # point not constructible; formulas still stand
    return row


def cmd_sweep(args) -> int:
    _check_eta(args.eta)
    # Input errors stop here; only a point that cannot be built blanks its
    # cells.  The spec is parsed only to check it and its fit to the regime:
    # each point builds its own sequence, because a geometric sequence's term
    # cache is not thread-safe.
    if args.seq is not None:
        seq = sequences.make_sequence(args.seq)
        if args.regime is not None:
            construct.check_regime(seq, args.regime[0])
    _check_positive("--depth", args.depth)
    if not 0 <= args.burn_in <= 1:
        raise ValueError(f"burn-in fraction must be in [0, 1], got {args.burn_in:g}")
    roundtrip = None
    if args.seq is not None and args.regime is not None:
        regime, stride = args.regime
        roundtrip = (args.seq, args.base, regime, stride, args.depth, args.burn_in)

    if args.vhat_grid is not None:
        if roundtrip is not None and args.theta is None:
            return _usage("a round-trip sweep over --vhat-grid needs --theta")
        points = [(args.eta, v, args.theta, args.rho, roundtrip)
                  for v in _grid(args.vhat_grid)]
    else:
        if args.vhat is None:
            return _usage("a sweep over --theta-grid needs --vhat")
        points = [(args.eta, args.vhat, t, args.rho, roundtrip)
                  for t in _grid(args.theta_grid)]

    threads = min(8, os.cpu_count() or 1, len(points))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(lambda p: _sweep_point(*p), points))

    header = ["vhat", "vhat_decimal", "theta"]
    for name in SWEEP_FORMULAS:
        col = name.replace("-", "_")
        header.extend([col, col + "_ok"])
    header.extend(["v_est", "vhat_est", "lemma21_ok"])
    _write_csv(args.csv, header, rows)
    print(f"wrote {len(rows)} grid points to {args.csv}")
    return 0


def cmd_verify(_args) -> int:
    from . import verify
    return 0 if verify.run_all() else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dioph-lab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-dim", help="evaluate every applicable dimension formula")
    p.add_argument("--eta", type=_rational, required=True)
    p.add_argument("--vhat", type=_rational)
    p.add_argument("--theta", type=_rational)
    p.add_argument("--rho", type=_rational)
    p.add_argument("--grid", help="vhat grid lo:hi:count (rationals)")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_eval_dim)

    p = sub.add_parser("gen-digits", help="emit a schedule's digit stream to a file")
    p.add_argument("--seq", required=True)
    p.add_argument("--theta", type=_rational, required=True)
    p.add_argument("--vhat", type=_rational, required=True)
    p.add_argument("--base", type=_base, required=True)
    p.add_argument("--regime", type=_parse_regime, default=("eta1", None))
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--schedule-csv")
    p.set_defaults(func=cmd_gen_digits)

    p = sub.add_parser("estimate", help="estimate exponents from a digit file")
    p.add_argument("--digits", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=float,
                   default=exponents.BURN_FRACTION,
                   help="fraction of dominant pairs to discard (default %(default)s)")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("box-dim", help="box-counting estimate for a schedule set")
    p.add_argument("--seq", required=True)
    p.add_argument("--theta", type=_rational, required=True)
    p.add_argument("--vhat", type=_rational, required=True)
    p.add_argument("--base", type=_base, required=True)
    p.add_argument("--regime", type=_parse_regime, default=("eta1", None))
    p.add_argument("--max-depth", dest="max_depth", type=int, required=True)
    p.add_argument("--mode", choices=[boxdim.ALL_DEPTHS, boxdim.AT_BLOCK_ENDS],
                   default=boxdim.AT_BLOCK_ENDS)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_box_dim)

    p = sub.add_parser("sweep", help="grid sweep emitting one CSV row per point",
                       fromfile_prefix_chars="@",
                       epilog="@FILE reads one argument per line, e.g. --eta=2; "
                              "flags after it override the file")
    p.add_argument("--eta", type=_rational, required=True)
    p.add_argument("--vhat", type=_rational)
    p.add_argument("--theta", type=_rational)
    p.add_argument("--rho", type=_rational)
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--vhat-grid", dest="vhat_grid", help="lo:hi:count")
    grid.add_argument("--theta-grid", dest="theta_grid", help="lo:hi:count")
    p.add_argument("--seq", help="with --regime, run the round trip at each point")
    p.add_argument("--base", type=_base, default=3)
    p.add_argument("--regime", type=_parse_regime)
    p.add_argument("--depth", type=int, default=10 ** 5)
    p.add_argument("--burn-in", dest="burn_in", type=float,
                   default=exponents.BURN_FRACTION,
                   help="fraction of dominant pairs to discard (default %(default)s)")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, dimfx.InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
