"""Command-line front end: eval-dim, gen-digits, estimate, box-dim, sweep, verify.

Rationals on the command line are `p` or `p/q` strings; decimal forms are
rejected because schedule construction requires exact arithmetic.  CSV is
the single output format (plot-ready columns, deterministic bytes).
Each command imports the layers it runs, and only those, and this module
imports none at its top: the help, a usage error and `estimate` on a
`linear` or `poly` sequence load neither `dimfx` nor `fractions`.  A
rational flag's converter loads `dimfx` when it converts.  The library is
plain Python and its records are NamedTuples, so no command loads numpy or
`dataclasses`.  COMMANDS states each flag and each rule on a flag's value
(its converter) or on which flags go together, once; `read_args` checks
them before any command runs (a refusal: one `error:` line, exit 2), and
the help prints the second kind.  Exit 1 is left for input that fails once
work has begun: a digit file, a `--seq` spec, a point that cannot be built.
`run`, the program's entry point, ends the process without the teardown.
"""

from __future__ import annotations

import contextlib
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import ALL_DEPTHS, AT_BLOCK_ENDS, InvariantError, write_file

if TYPE_CHECKING:
    from fractions import Fraction


def _fmt(x) -> str:
    """Decimal rendering at 12 significant digits."""
    if x is None:
        return ""
    try:
        return format(float(x), ".12g")
    except OverflowError:
        from . import dimfx
        raise ValueError(f"{dimfx.exact_text(x, 'a value past the float range')} has no "
                         "decimal form: it is past the float range") from None


def _at_least(least: int) -> Callable[[str], int]:
    """The converter of an integer flag whose value is at least `least`."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise ValueError(f"must be an integer >= {least}, got {text!r}")
        return value
    return convert


_base = _at_least(2)
_positive = _at_least(1)  # a depth counts digit positions


def _file_base(text: str) -> int:
    """gen-digits' --base: a digit file holds one character per digit."""
    from .digits import MAX_BASE
    base = _base(text)
    if base > MAX_BASE:
        raise ValueError(f"must be <= {MAX_BASE} to write a digit file, got {text!r}")
    return base


def _rational(text: str) -> Fraction:
    """--vhat, --theta and --rho: `p` or `p/q`."""
    from . import dimfx
    return dimfx.parse_rational(text)


def _eta(text: str) -> Fraction:
    """Every formula and schedule needs a growth exponent eta >= 1."""
    eta = _rational(text)
    if eta < 1:
        raise ValueError(f"must be a rational >= 1, got {text!r}")
    return eta


def _mode(text: str) -> str:
    if text not in (ALL_DEPTHS, AT_BLOCK_ENDS):
        raise ValueError(f"invalid choice: {text!r} "
                         f"(choose from {ALL_DEPTHS!r}, {AT_BLOCK_ENDS!r})")
    return text


def _grid(text: str) -> list[Fraction]:
    """'lo:hi:count' -> count exact rationals from lo to hi inclusive."""
    try:
        lo, hi, count = text.split(":")
        count = int(count)
    except ValueError:
        raise ValueError(f"must be lo:hi:count, got {text!r}") from None
    from . import dimfx
    return dimfx.rational_linspace(dimfx.parse_rational(lo), dimfx.parse_rational(hi),
                                   count)


def _parse_regime(text: str):
    """'eta1' or 'geo:l=<int >= 1>' -> (name, stride or None).

    Every admissible stride threshold is at least 1, so a smaller stride is
    a usage error rather than a point that cannot be built.
    """
    if text == "eta1":
        return "eta1", None
    if text.startswith("geo:l="):
        with contextlib.suppress(ValueError):
            return "geometric", _positive(text[len("geo:l="):])
    raise ValueError(f"regime must be eta1 or geo:l=<int >= 1>, got {text!r}")


def _build_schedule(seq, theta: Fraction, vhat: Fraction, regime, depth: int):
    """`regime` is a parsed --regime: (name, stride or None)."""
    from . import construct
    name, stride = regime
    if name == "eta1":
        return construct.schedule_eta1(seq, theta, vhat, cover_to=depth)
    return construct.schedule_geometric(seq, theta, vhat, stride, cover_to=depth)


def _schedule(args, depth: int):
    """The schedule the shared flags describe, covering `depth` digits."""
    from . import sequences
    return _build_schedule(sequences.make_sequence(args.seq), args.theta, args.vhat,
                           args.regime, depth)


def _flag(ok: bool | None) -> str:
    """A CSV cell for `check_exponent_inequality`: true, false, or empty."""
    return "" if ok is None else str(ok).lower()


def _write_csv(path, header, rows):
    import csv
    write_file(path, lambda fh: csv.writer(fh, lineterminator="\n").writerows([header, *rows]))


# --- eval-dim ----------------------------------------------------------------

def cmd_eval_dim(args) -> int:
    from . import dimfx
    eta = args.eta
    grid = [args.vhat] if args.grid is None else args.grid
    rows = []
    for vhat in grid:
        th, found = dimfx.reports(eta, vhat, args.theta, args.rho)
        for rep in found:
            exact = ("" if rep.value is None else
                     dimfx.exact_text(rep.value, f"the {rep.source} value at vhat = {vhat}"))
            rows.append((str(vhat), rep.source, exact,
                         _fmt(rep.value), rep.kind, str(rep.domain_ok), rep.condition))
    if args.csv:
        _write_csv(args.csv, ["vhat", "formula", "exact", "decimal", "kind",
                              "domain_ok", "condition"], rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
        return 0
    # The header is built whole before it prints, so a verdict that fails
    # leaves stdout empty.  A one-point grid's thresholds are the last found.
    header = [f"eta = {eta}" + (f", theta = {args.theta}" if args.theta is not None else "")
              + (f", rho = {args.rho}" if args.rho is not None else "")]
    if len(grid) == 1 and th is not None:
        header.append(f"thresholds: l0={th.l0} l1={th.l1} ltilde={th.ltilde} "
                      f"lprime={th.lprime}")
        if args.theta is not None and grid[0] >= 1:
            verdict = ("forbidden" if dimfx.theta_is_forbidden(eta, grid[0], args.theta)
                       else "admissible")
            header.append(f"theta = {args.theta}: {verdict}")
    print("\n".join(header))
    print(f"{'vhat':>10}  {'formula':<20} {'exact':>12} {'decimal':>16} "
          f"{'kind':<6} {'domain_ok':<9} condition")
    for r in rows:
        print(f"{r[0]:>10}  {r[1]:<20} {r[2]:>12} {r[3]:>16} {r[4]:<6} {r[5]:<9} {r[6]}")
    return 0


# --- gen-digits ----------------------------------------------------------------

def cmd_gen_digits(args) -> int:
    from . import construct, digits
    sched = _schedule(args, args.depth)
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
    from . import digits, exponents, sequences
    stream = digits.load_digit_file(args.digits)
    if args.depth is not None and args.depth < stream.prefix_len:
        stream = stream.truncated(args.depth)
    seq = sequences.make_sequence(args.seq)
    mt = exponents.matching_times(stream, seq)
    est = exponents.estimate_exponents(mt)
    ok = exponents.check_exponent_inequality(est.v_est, est.vhat_est, est.eta)
    try:
        vdef = exponents.estimate_vhat_definition(mt)
    except ValueError:
        vdef = None
    print(f"depth {est.depth}: {est.k_count} dominant pairs (burn-in {est.burn_in})")
    print(f"v_est = {_fmt(est.v_est)}   vhat_est = {_fmt(est.vhat_est)}"
          + (f"   vhat_def = {_fmt(vdef)}" if vdef is not None else ""))
    verdict = ("not applicable (vhat_est >= eta)" if ok is None
               else "ok" if ok else "VIOLATED")
    print(f"eta = {_fmt(est.eta)}   inequality v >= vhat/(eta - vhat): {verdict}")
    if args.csv:
        _write_csv(args.csv, ["depth", "k_count", "v_est", "vhat_est", "lemma21_ok"],
                   [(est.depth, est.k_count, _fmt(est.v_est), _fmt(est.vhat_est),
                     _flag(ok))])
        print(f"wrote {args.csv}")
    return 0


# --- box-dim ----------------------------------------------------------------

def cmd_box_dim(args) -> int:
    from . import boxdim
    sched = _schedule(args, args.max_depth)
    if args.mode == AT_BLOCK_ENDS:
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
        def write(fh):
            # rows (n, count exponent, ratio), 2^16 depths per write, so no
            # list of every row is held
            fh.write("n,log_b_count,ratio\n")
            for lo in range(0, len(series.depths), 1 << 16):
                ns = series.depths[lo: lo + (1 << 16)]
                cs = series.exponents(lo, lo + (1 << 16))
                fh.write("".join(f"{n},{c},{c / n:.12g}\n" for n, c in zip(ns, cs)))
        write_file(args.csv, write)
        print(f"wrote {args.csv}")
    return 0


# --- sweep ----------------------------------------------------------------

SWEEP_FORMULAS = ("baseline", "eta1-exact", "pair-eta1", "refined-upper",
                  "construction-lower", "exact-window", "pair-upper", "strip-upper")


def _sweep_point(eta, vhat, theta, rho, roundtrip):
    from . import dimfx
    row = [str(vhat), _fmt(vhat), str(theta) if theta is not None else ""]
    reports = {r.source: r for r in dimfx.reports(eta, vhat, theta, rho)[1]}
    for name in SWEEP_FORMULAS:
        rep = reports.get(name)
        row.append(_fmt(rep.value) if rep is not None and rep.value is not None else "")
        row.append("" if rep is None else str(rep.domain_ok).lower())
    if roundtrip is None:
        row.extend(["", "", ""])
        return row
    from . import construct, exponents
    seq, base, regime, depth = roundtrip
    try:
        sched = _build_schedule(seq, theta, vhat, regime, depth)
        stream = construct.emit_digits(sched, base, depth)
        est = exponents.estimate_exponents(exponents.matching_times(stream, sched.seq))
        ok = exponents.check_exponent_inequality(est.v_est, est.vhat_est, est.eta)
        row.extend([_fmt(est.v_est), _fmt(est.vhat_est), _flag(ok)])
    except ValueError as exc:  # point not constructible; formulas still stand
        print(f"vhat = {vhat}, theta = {theta}: round trip left blank, "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        row.extend(["", "", ""])
    return row


def cmd_sweep(args) -> int:
    # Input errors stop here; only a point that cannot be built blanks its
    # cells.  Every round trip reads the one sequence built here, for the
    # formulas' eta (a file: sequence declares none, and passes eta1 only).
    roundtrip = None
    if args.seq is not None:
        from . import construct, sequences
        seq = sequences.make_sequence(args.seq)
        construct.check_regime(seq, args.regime[0])
        eta = 1 if seq.eta_declared is None else seq.eta_declared
        if args.eta != eta:
            raise ValueError(f"--eta {args.eta} is not the eta {eta} of --seq {args.seq}: "
                             "a row's formulas and round trip need one eta")
        roundtrip = (seq, args.base, args.regime, args.depth)
    if args.vhat_grid is not None:
        points = [(args.eta, v, args.theta, args.rho, roundtrip) for v in args.vhat_grid]
    else:
        points = [(args.eta, args.vhat, t, args.rho, roundtrip) for t in args.theta_grid]
    rows = [_sweep_point(*p) for p in points]

    cols = [name.replace("-", "_") for name in SWEEP_FORMULAS]
    header = ["vhat", "vhat_decimal", "theta", *(c + ok for c in cols for ok in ("", "_ok")),
              "v_est", "vhat_est", "lemma21_ok"]
    _write_csv(args.csv, header, rows)
    print(f"wrote {len(rows)} grid points to {args.csv}")
    return 0


def cmd_verify(_args) -> int:
    from . import verify
    return 0 if verify.run_all() else 1


# --- the command line ----------------------------------------------------------

class UsageError(Exception):
    """A command line COMMANDS does not accept: one `error:` line, exit 2."""


class Flag(NamedTuple):
    """`--flag VALUE` or `--flag=VALUE` sets the attribute named after the
    flag (`--max-depth`: `max_depth`) to `convert(VALUE)`, or to VALUE
    itself when `convert` is None; a flag not given sets it to `default`.
    `convert` raises ValueError on a value outside the flag's rule."""
    flag: str
    convert: Callable[[str], object] | None = None
    required: bool = False
    default: object = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    """A subcommand: the function it runs, its help line, its flags in the
    order its help lists them, and its rules on which flags go together."""
    func: Callable[..., int]
    help: str
    flags: tuple[Flag, ...]
    one_of: tuple[str, ...] = ()  # flags of which exactly one must be given
    needs: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (flag, others): it needs one
    apart: tuple[tuple[str, str], ...] = ()  # pairs of flags not both given
    args_file: bool = False  # an `@FILE` argument stands for the file's lines


# the flags two commands share, each declared once
POINT = (Flag("--eta", _eta, required=True),
         Flag("--vhat", _rational),
         Flag("--theta", _rational),
         Flag("--rho", _rational))


def _schedule_flags(base: Callable[[str], int]) -> tuple[Flag, ...]:
    """The flags that describe a schedule, with `base` as --base's converter."""
    return (Flag("--seq", required=True),
            Flag("--theta", _rational, required=True),
            Flag("--vhat", _rational, required=True),
            Flag("--base", base, required=True),
            Flag("--regime", _parse_regime, default=("eta1", None)))


COMMANDS = {
    "eval-dim": Command(cmd_eval_dim, "evaluate every applicable dimension formula", (
        *POINT,
        Flag("--grid", _grid, help="vhat grid lo:hi:count (rationals)"),
        Flag("--csv")),
        one_of=("--vhat", "--grid")),
    "gen-digits": Command(cmd_gen_digits, "emit a schedule's digit stream to a file", (
        *_schedule_flags(_file_base),
        Flag("--depth", _positive, required=True),
        Flag("--out", required=True),
        Flag("--schedule-csv"))),
    "estimate": Command(cmd_estimate, "estimate exponents from a digit file", (
        Flag("--digits", required=True),
        Flag("--seq", required=True),
        Flag("--depth", _positive),
        Flag("--csv"))),
    "box-dim": Command(cmd_box_dim, "box-counting estimate for a schedule set", (
        *_schedule_flags(_base),
        Flag("--max-depth", _positive, required=True),
        Flag("--mode", _mode, default=AT_BLOCK_ENDS,
             help=f"{ALL_DEPTHS} or {AT_BLOCK_ENDS}"),
        Flag("--csv"))),
    "sweep": Command(cmd_sweep, "grid sweep emitting one CSV row per point", (
        *POINT,
        Flag("--vhat-grid", _grid, help="lo:hi:count"),
        Flag("--theta-grid", _grid, help="lo:hi:count"),
        Flag("--seq", help="run the round trip at each point"),
        Flag("--base", _base, default=3),
        Flag("--regime", _parse_regime),
        Flag("--depth", _positive, default=10 ** 5),
        Flag("--csv", required=True)),
        one_of=("--vhat-grid", "--theta-grid"),
        needs=(("--seq", ("--regime",)), ("--regime", ("--seq",)),
               ("--seq", ("--theta", "--theta-grid")), ("--theta-grid", ("--vhat",))),
        apart=(("--vhat", "--vhat-grid"), ("--theta", "--theta-grid")), args_file=True),
    "verify": Command(cmd_verify, "run the full invariant suite", ()),
}


def _rules(command: Command, flag: str) -> list[str]:
    """The help's text for each rule of `command` on which flags go with `flag`."""
    rules = [f"exactly one of {', '.join(command.one_of)}"] if flag in command.one_of else []
    rules += [f"needs {' or '.join(others)}" for f, others in command.needs if f == flag]
    return rules + [f"not with {other}" for pair in command.apart if flag in pair
                    for other in pair if other != flag]


def _print_help(args) -> int:
    """Print the help of the command `args.name`, or of the program when it
    is None: one line per command or flag, never wrapped."""
    command = COMMANDS.get(args.name)
    if command is None:
        usage, about = "COMMAND [--flag VALUE ...]", __doc__.splitlines()[0]
        rows = [(n, c.help) for n, c in COMMANDS.items()]
    else:
        usage = args.name + (" [--flag VALUE ...]" if command.flags else "")
        about = command.help
        rows = [(f"{f.flag} {f.dest.upper()}", "; ".join(filter(None, (
                     "required" if f.required else None, *_rules(command, f.flag), f.help))))
                for f in command.flags]
        if command.args_file:
            rows.append(("@FILE", "one argument per line; flags after it override the file"))
    width = max((len(left) for left, _ in rows), default=0)
    print("\n".join([f"usage: dioph-lab {usage}", about,
                     *(f"  {left:<{width}}  {right}".rstrip() for left, right in rows)]))
    return 0


def _args_file(arg: str) -> list[str]:
    """The lines of the file `@FILE` names, one argument each."""
    try:
        with open(arg[1:], encoding="utf-8") as fh:
            return fh.read().splitlines()
    except (OSError, ValueError) as exc:
        raise UsageError(f"{arg}: {getattr(exc, 'strerror', None) or exc}") from None


def read_args(argv) -> SimpleNamespace:
    """The function an argv runs and its flags' values, read with COMMANDS.

    An argv is a command and its `--flag VALUE` or `--flag=VALUE` pairs; a
    repeated flag's last value wins, and with `args_file` an `@FILE` stands
    for the file's lines.  A VALUE may start with one `-`, not two.  `-h` or
    `--help` reads as a function that prints help.  An argv that breaks a
    rule raises UsageError: first `one_of`, `apart` and `needs`, then each
    flag's `required` and converter.
    """
    name, rest = (argv[0], argv[1:]) if argv else ("", [])
    command = COMMANDS.get(name)
    if command is None and name not in ("-h", "--help"):
        raise UsageError((f"unknown command {name!r}" if name else "no command given")
                         + f"; choose from {', '.join(COMMANDS)}")
    if command is not None and command.args_file:
        rest = [line for arg in rest
                for line in (_args_file(arg) if arg.startswith("@") else [arg])]
    if command is None or "-h" in rest or "--help" in rest:
        return SimpleNamespace(func=_print_help, name=name if command else None)
    flags, given, args = {f.flag for f in command.flags}, {}, iter(rest)
    for arg in args:
        flag, joined, value = arg.partition("=")
        if flag not in flags:
            raise UsageError(f"unrecognized argument {arg!r}")
        if not joined:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{flag} needs a value")
        given[flag] = value
    if command.one_of and sum(flag in given for flag in command.one_of) != 1:
        raise UsageError(f"{name} needs exactly one of {', '.join(command.one_of)}")
    for first, second in command.apart:
        if first in given and second in given:
            raise UsageError(f"{first} and {second} cannot both be given")
    for flag, others in command.needs:
        if flag in given and not any(other in given for other in others):
            raise UsageError(f"{flag} needs {' or '.join(others)}")
    values = {"func": command.func}
    for f in command.flags:
        text = given.get(f.flag)
        if text is None and f.required:
            raise UsageError(f"{name} needs {f.flag}")
        try:
            values[f.dest] = (f.default if text is None else
                              text if f.convert is None else f.convert(text))
        except ValueError as exc:
            raise UsageError(f"{f.flag}: {exc}") from None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = read_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader has gone (`| head -1`): end quietly
        # the idiom of the signal module's "Note on SIGPIPE": what is still
        # buffered is flushed to devnull, not to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a depth too large to allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


def _watched() -> bool:
    """Whether a tracer or profiler watches this process: through
    sys.settrace or sys.setprofile, or (from Python 3.12, where cProfile
    uses it) as a sys.monitoring tool, whose ids are 0-5."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None and any(monitoring.get_tool(i) for i in range(6)))


def run() -> None:
    """The program as a process: `main`'s return value is the exit status.

    Once `main` returns, the exit hooks registered with atexit run (a `.pth`
    file's, coverage's), the output is flushed, and the process ends with
    `os._exit`, in the order the interpreter's own shutdown uses.  That
    skips the teardown that clears every module and collects garbage, which
    takes longer than most commands' work.  It is safe only while no
    command starts a thread that outlives `main` and every file is written
    by `dioph_lab.write_file`: keep both true.  Under a tracer or profiler
    (cProfile, coverage) the process exits the usual way, for their reports.
    """
    code = main()
    if _watched():
        sys.exit(code)
    import atexit
    atexit._run_exitfuncs()
    try:
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except BrokenPipeError:  # as in `main`, a closed stdout ends quietly
            code = 1
        except OSError as exc:  # e.g. a full disk under redirected output
            code = 1
            print(f"error: {exc}", file=sys.stderr)
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:  # no working stderr: let the interpreter report it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
