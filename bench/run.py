"""Benchmark of the dioph-lab CLI: one workload per run.

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the program is taken from the
checkout's `src/`.  The load is a closed loop: this process runs one CLI
command at a time as a child (`python3 -m dioph_lab.cli ...`), waits for it,
and starts no threads of its own.  The only concurrency is the `sweep`
thread pool at its default size; DIOPH_LAB_THREADS is removed from the
children's environment.  The children cache bytecode under .bench_work/ in
the checkout.

Every command runs twice in each pass, back to back: once on the program and
once on `bench/reference/`, a frozen copy of the program as it was when this
benchmark was written.  Which of the two goes first alternates from pass to
pass.  The shared host this was written on changes speed by up to 60% over
tens of seconds, and the two halves of a pair see nearly the same speed, so
the ratio of their wall times holds steady where the times themselves do not.
A command's time is the median of that ratio over the run's passes (see
`ratio`), times the reference's wall time for the command on the host it was
calibrated on (`ref_s`), so it reads in seconds.  Raw medians are printed
beside it.

A run times cold imports of `dioph_lab.cli` in pairs the same way (setup_s),
warms up both trees untimed, then repeats the workload's commands in passes
until --seconds have gone by.  Every output, of the program and of the
reference alike, is checked against what the program produced when this
benchmark was written.  With --trace 1 each pass is followed by the same
commands run on the program in process under bench/tracer.py, which gives
the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json at the checkout's root: the end-to-end ones with --trace 0,
the per-layer ones with --trace 1.  The exit code is 0 when every output was
correct, 1 otherwise, and 2 without a result line when the checkout holds no
program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACER = BENCH / "tracer.py"
TREES = {"program": ROOT / "src", "reference": BENCH / "reference"}
# Bytecode of every module the children import, kept across runs.
PYCACHE = ROOT / ".bench_work" / "pycache"
RUN_LIMIT_S = 170        # every child is killed past this point of the run
SETUP_SAMPLES = 9        # pairs of cold imports timed for setup_s
SETUP_REF_S = 0.23       # the reference's cold import on the calibration host
DEFAULT_SEED = 0         # the random digits' pinned CSV is for this seed

# Outputs of the program at the commit that introduced this benchmark.
EXPECTED = {
    "eta1-digits-sha256": "1b57322ba97d2edab6b7307249e8cc4a4e0c6350cf70ebea36ab4e08e85fb93d",
    "eta1-estimate-csv": "depth,k_count,v_est,vhat_est,lemma21_ok\n"
                         "500000,10,1,0.333333333333,true\n",
    "geo-digits-sha256": "c59fda60f310b1dff0a107cb100d81749370fdfde4a40016acb2a3d3fdcb534e",
    "geo-estimate-csv": "depth,k_count,v_est,vhat_est,lemma21_ok\n"
                        "2000000,7,6,1.5,true\n",
    "geo-box-dim-line": "200000 depths, mode all-depths: "
                        "dimension estimate 0.0534149269162",
    "random-estimate-csv-seed0": "depth,k_count,v_est,vhat_est,lemma21_ok\n"
                                 "200000,8,0.0941176470588,0.00023748033366,true\n",
    "sweep-csv-sha256": "faf2bff3a47b1ef99e2e9b744f95da925c310ec8120dbdb03740cceca76553a1",
    "verify-pass-lines": 18,
}

# Units of the printed metrics, by the last part of the name; only those
# named in BENCHMARK.json are gated.
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "gen_digits_per_s": "digits/s", "estimate_digits_per_s": "digits/s",
    "box_dim_depths_per_s": "depths/s", "sweep_points_per_s": "points/s",
    "verify_s": "s",
}


@dataclass(frozen=True)
class Command:
    """One CLI call of a workload.

    `check` gets the call's stdout and returns a problem or None.  The call
    also yields `metric`: `work` divided by its time, or the time itself when
    `work` is None.  `ref_s` is the reference's wall time for the call on the
    calibration host: a fixed scale, not a measurement of this run.  A call
    that is not `timed` runs once per run, on the program alone, after the
    timed passes; its raw wall time is printed and gated nowhere.
    """

    args: list[str]
    check: Callable[[str], str | None]
    metric: str
    ref_s: float | None
    work: int | None = None
    timed: bool = True


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    rss_mb: float   # peak RSS of this child alone


# --- output checks ------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha_is(path: Path, want: str):
    def check(_stdout):
        got = _sha256(path)
        return None if got == want else f"{path.name}: sha256 {got}, expected {want}"
    return check


def text_is(path: Path, want: str):
    def check(_stdout):
        got = path.read_text()
        return None if got == want else f"{path.name}: {got!r}, expected {want!r}"
    return check


def line_is(want: str):
    def check(stdout):
        return None if want in stdout.splitlines() else f"no line {want!r} in {stdout!r}"
    return check


def random_estimate_ok(path: Path, depth: int, seed: int):
    """lemma21_ok must hold for every seed; the default seed's CSV is pinned."""
    def check(_stdout):
        text = path.read_text()
        if seed == DEFAULT_SEED and text != EXPECTED["random-estimate-csv-seed0"]:
            return f"{path.name}: {text!r} differs from the pinned seed-{seed} CSV"
        header, row = text.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        if fields["depth"] != str(depth) or fields["lemma21_ok"] != "true":
            return f"{path.name}: {fields}"
        return None
    return check


def verify_ok(stdout):
    lines = stdout.splitlines()
    passed = sum(ln.startswith("PASS  ") for ln in lines)
    if passed != EXPECTED["verify-pass-lines"] or len(lines) != passed:
        return f"verify printed {passed} PASS lines of {len(lines)}"
    return None


# --- workloads ------------------------------------------------------------

def eta1_commands(work: Path) -> list[Command]:
    """Every position is an index a_n: few runs, many matching pairs."""
    depth = 500_000
    spec = ["--seq", "linear", "--regime", "eta1", "--theta", "3", "--vhat", "1/3",
            "--base", "3"]
    digits, csv = work / "eta1-digits.txt", work / "eta1-estimate.csv"
    return [
        Command(["gen-digits", *spec, "--depth", str(depth), "--out", str(digits)],
                sha_is(digits, EXPECTED["eta1-digits-sha256"]),
                "eta1.gen_digits_per_s", 0.34, depth),
        Command(["estimate", "--digits", str(digits), "--seq", "linear", "--csv", str(csv)],
                text_is(csv, EXPECTED["eta1-estimate-csv"]),
                "eta1.estimate_digits_per_s", 1.2, depth),
    ]


def geo_commands(work: Path) -> list[Command]:
    """Few indices and pairs: ingest, run ends and base-2 emission dominate."""
    depth, box_depth = 2_000_000, 200_000
    seq = "geometric:eta=2,a1=1"
    spec = ["--seq", seq, "--regime", "geo:l=2", "--theta", "4", "--vhat", "3/2",
            "--base", "2"]
    digits, csv = work / "geo-digits.txt", work / "geo-estimate.csv"
    return [
        Command(["gen-digits", *spec, "--depth", str(depth), "--out", str(digits)],
                sha_is(digits, EXPECTED["geo-digits-sha256"]),
                "geo.gen_digits_per_s", 0.38, depth),
        Command(["estimate", "--digits", str(digits), "--seq", seq, "--csv", str(csv)],
                text_is(csv, EXPECTED["geo-estimate-csv"]),
                "geo.estimate_digits_per_s", 0.55, depth),
        Command(["box-dim", *spec, "--mode", "all-depths", "--max-depth", str(box_depth)],
                line_is(EXPECTED["geo-box-dim-line"]),
                "geo.box_dim_depths_per_s", 0.62, box_depth),
    ]


def random_commands(work: Path, seed: int) -> list[Command]:
    """Uniform base-2 digits from the seed: about as many runs as digits/2."""
    depth = 200_000
    digits, csv = work / "random-digits.txt", work / "random-estimate.csv"
    bits = np.random.default_rng(seed).integers(0, 2, size=depth, dtype=np.uint8)
    digits.write_bytes(b"base=2\n" + (bits + ord("0")).tobytes() + b"\n")
    return [
        Command(["estimate", "--digits", str(digits), "--seq", "linear", "--csv", str(csv)],
                random_estimate_ok(csv, depth, seed),
                "random.estimate_digits_per_s", 1.4, depth),
    ]


def roundtrip(work: Path, seed: int) -> list[Command]:
    """gen-digits and estimate on both reference constructions, box-dim on the
    geometric one, and estimate on seeded random digits."""
    return [*eta1_commands(work), *geo_commands(work), *random_commands(work, seed)]


def batch(work: Path, seed: int) -> list[Command]:
    """Many small problems in one process: the sweep pool, then verify."""
    points, depth = 16, 25_000
    csv = work / "sweep.csv"
    return [
        Command(["sweep", "--eta", "1", "--theta", "3", "--vhat-grid", f"1/20:3/5:{points}",
                 "--seq", "linear", "--regime", "eta1", "--base", "3", "--csv", str(csv),
                 "--depth", str(depth)],
                sha_is(csv, EXPECTED["sweep-csv-sha256"]),
                "sweep_points_per_s", 0.95, points),
        # Not timed: its 7 s of wall time move by up to 60% between runs and
        # between the two halves of a pair on a shared host.  It is checked
        # on every run and traced with --trace 1.
        Command(["verify"], verify_ok, "verify_s", None, timed=False),
    ]


WORKLOADS = {"roundtrip": roundtrip, "batch": batch}


# --- child processes ------------------------------------------------------------

class Runner:
    """Runs children one at a time in a work directory, on the program or on
    the reference, killing any that outlive the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.envs = {}
        for tree, path in TREES.items():
            # Bytecode cached (inside the checkout) and output buffered as in
            # a user's shell, alike on both trees; the sweep pool at its
            # default size.
            env = dict(os.environ, PYTHONPATH=str(path), PYTHONPYCACHEPREFIX=str(PYCACHE))
            for name in ("DIOPH_LAB_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
                env.pop(name, None)
            self.envs[tree] = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str], tree: str) -> tuple[float, float, int | None, str, str]:
        """(wall s, peak RSS MB of this child alone, exit code or None if killed,
        stdout, stderr)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.envs[tree],
                                    stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select(
                    [pidfd], [], [], max(0.0, self.deadline - time.monotonic()))
            except BaseException:   # interrupted: end the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_maxrss / 1024, code if ready else None,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def run(self, argv: list[str], check=None, tree: str = "program") -> Outcome:
        """Run one child and check it: exit 0, no traceback, output as expected."""
        wall, rss, code, stdout, stderr = self.spawn(argv, tree)
        self.attempted += 1
        if code is None:
            problem = "killed at the run's time limit"
        elif code != 0:
            problem = f"exit code {code}: {stderr.strip()[-300:]}"
        elif "Traceback" in stderr:
            problem = f"traceback on stderr: {stderr.strip()[-300:]}"
        else:
            try:
                problem = check(stdout) if check else None
            except (OSError, ValueError, KeyError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            self.failed += 1
            self.problems.append(f"{tree}: {' '.join(argv[1:])[:120]}: {problem}")
        return Outcome(wall, rss)

    def pair(self, argv: list[str], check, reference_first: bool) -> tuple[Outcome, Outcome]:
        """(program, reference): `argv` run back to back on both trees."""
        order = ("reference", "program") if reference_first else ("program", "reference")
        out = {tree: self.run(argv, check, tree) for tree in order}
        return out["program"], out["reference"]


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "dioph_lab.cli", *args]


def traced_argv(args: list[str], record_path: Path) -> list[str]:
    return [sys.executable, str(TRACER), str(record_path), *args]


def import_argv(modules: str) -> list[str]:
    return [sys.executable, "-c", f"import {modules}"]


def ratio(pairs: list[tuple[Outcome, Outcome]]) -> float:
    """Program time over reference time in a run's pairs, which alternate in
    order starting with the program: the geometric mean of the median ratio
    of the pairs run program first and of those run reference first, so that
    an advantage of going first cancels out."""
    ratios = [p.wall_s / r.wall_s for p, r in pairs]
    if len(ratios) < 2:
        return ratios[0]
    return math.sqrt(statistics.median(ratios[0::2]) * statistics.median(ratios[1::2]))


def scaled(ref_s: float, pairs: list[tuple[Outcome, Outcome]]) -> float:
    """A time in seconds at the calibration host's speed: `ref_s` times the
    program's time relative to the reference's."""
    return ref_s * ratio(pairs)


def run_metrics(timed: list[Command], passes: list[list[tuple[Outcome, Outcome]]]
                ) -> dict[str, float]:
    """End-to-end metrics of a run's untraced passes over the timed commands."""
    times = [scaled(c.ref_s, [p[i] for p in passes]) for i, c in enumerate(timed)]
    result = {"wall_s": sum(times),
              "peak_rss_mb": max(statistics.median(p[i][0].rss_mb for p in passes)
                                 for i in range(len(timed)))}
    for c, t in zip(timed, times):
        result[c.metric] = t if c.work is None else c.work / t
    return result


def traced_pass(runner: Runner, commands: list[Command]) -> tuple[float, list[dict]]:
    """Traced wall time summed over the commands, and each command's record."""
    records, wall = [], 0.0
    for c in commands:
        path = runner.work / "trace.json"
        wall += runner.run(traced_argv(c.args, path), c.check).wall_s
        records.append(json.loads(path.read_text()) if path.exists() else None)
        path.unlink(missing_ok=True)
    return wall, records


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer totals over one traced pass of a workload."""
    total: dict[str, float] = {}
    for rec in records:
        if rec is None:
            continue
        for key, value in tracer.command_metrics(rec).items():
            total[key] = total.get(key, 0.0) + value
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still ends its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (TREES["program"] / "dioph_lab" / "cli.py").is_file():
        print(f"error: no dioph-lab source under {TREES['program']}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work, start + RUN_LIMIT_S)
        commands = WORKLOADS[args.workload](work, args.seed)
        for tree in TREES:
            runner.run(import_argv("dioph_lab.cli, dioph_lab.verify"), None, tree)
        imports = [runner.pair(import_argv("dioph_lab.cli"), None, i % 2 == 1)
                   for i in range(SETUP_SAMPLES)]
        timed = [c for c in commands if c.timed]
        for c in timed:
            runner.pair(cli_argv(c.args), c.check, False)
        passes, layers = [], []
        measure_start = time.monotonic()
        while True:
            reference_first = len(passes) % 2 == 1
            passes.append([runner.pair(cli_argv(c.args), c.check, reference_first)
                           for c in timed])
            if args.trace:
                traced_wall, records = traced_pass(runner, commands)
                layer = layer_metrics(records)
                untimed_runs = [runner.run(cli_argv(c.args), c.check)
                                for c in commands if not c.timed]
                untraced_wall = sum(program.wall_s for program, _ in passes[-1])
                untraced_wall += sum(o.wall_s for o in untimed_runs)
                layer["trace.overhead_frac"] = traced_wall / untraced_wall - 1
                layers.append(layer)
            elapsed = time.monotonic() - measure_start
            # Stop at the end of the pass that ends nearest to --seconds, and
            # not before each order of the pairs has run once.
            if (len(passes) >= 2 and elapsed + elapsed / len(passes) / 2 >= args.seconds
                    or time.monotonic() >= runner.deadline or runner.failed):
                break
        untimed = {c.metric: runner.run(cli_argv(c.args), c.check) for c in commands
                   if not c.timed}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}, {len(passes)} passes in "
          f"{args.seconds:g} s, trace {args.trace}; {os.cpu_count()} CPUs, "
          f"Python {platform.python_version()}, numpy {np.__version__}")
    print("# command     time s  = ref_s x median ratio;  raw medians: program, reference;"
          "  program peak RSS")
    for i, c in enumerate(timed):
        pairs = [p[i] for p in passes]
        print(f"# {c.args[0]:<10} {scaled(c.ref_s, pairs):8.4g} = {c.ref_s:<5g} x "
              f"{ratio(pairs):.4f};  "
              f"{statistics.median(p.wall_s for p, _ in pairs):.4g} s, "
              f"{statistics.median(r.wall_s for _, r in pairs):.4g} s;  "
              f"{statistics.median(p.rss_mb for p, _ in pairs):.4g} MB")
    e2e = {"setup_s": scaled(SETUP_REF_S, imports), **run_metrics(timed, passes)}
    # Memory is not noisy like time: the untimed calls count toward the peak.
    e2e["peak_rss_mb"] = max([e2e["peak_rss_mb"], *(o.rss_mb for o in untimed.values())])
    for name, value in e2e.items():
        print(f"{name:<30} {value:>14.6g} {UNITS[name.rsplit('.', 1)[-1]]:<9}"
              f"{len(imports) if name == 'setup_s' else len(passes)} pairs")
    for name, o in untimed.items():
        print(f"{name:<30} {o.wall_s:>14.6g} {UNITS[name]:<9}one untimed run, raw; "
              f"peak RSS {o.rss_mb:.4g} MB")
    print(f"{'failed_frac':<30} {runner.failed / runner.attempted:>14.6g} ratio    "
          f"{runner.failed} of {runner.attempted} commands")
    for problem in runner.problems:
        print(f"# FAILED {problem}")

    if args.trace:
        values = {m["name"]: statistics.median(layer.get(m["name"], 0.0) for layer in layers)
                  for m in gated}
        for m in gated:
            print(f"{m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    else:
        values = {m["name"]: e2e[m["name"]] for m in gated}
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in gated},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
