import atexit
import contextlib
import errno
import hashlib
import importlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_transcript as transcript
import dioph_lab
from dioph_lab import boxdim, cli, dimfx, exponents, sequences, verify
from dioph_lab.cli import main


PINNED = transcript.read_cases(Path(__file__).with_name("cli_pinned.txt"))
PINNED_SLOW = transcript.read_cases(Path(__file__).with_name("cli_pinned_slow.txt"))


@pytest.mark.parametrize("case", PINNED, ids=[case.name for case in PINNED])
def test_pinned_cli_output(case, tmp_path):
    failure = transcript.check(case, tmp_path)
    assert failure is None, failure


def test_runner_names_the_case_and_its_first_differing_line(tmp_path):
    [good] = [case for case in PINNED if case.name == "eval-dim --eta 1 --vhat 1"]
    path = tmp_path / "one.txt"
    path.write_text("# one wrong byte\n" + good.text.replace("eta1-exact", "eta1-exacT"))
    [case] = transcript.read_cases(path)
    (tmp_path / "work").mkdir()
    failure = transcript.check(case, tmp_path / "work")
    assert failure.startswith(f"{path}:6: case 'eval-dim --eta 1 --vhat 1'\n")
    assert "eta1-exacT" in failure.splitlines()[1] and "eta1-exact " in failure.splitlines()[2]
    transcript.rewrite(path)  # rebuilt from what ran: the comment stays, the byte is mended
    assert path.read_text() == "# one wrong byte\n" + good.text


def test_runner_records_an_argparse_exit(tmp_path):
    got = transcript.run_case(["eval-dim --eta 2 --vhat 1.4"], tmp_path)
    assert got == ("$ eval-dim --eta 2 --vhat 1.4\n--- stderr\n"
                   "error: --vhat: '1.4' is not a p or p/q rational\nexit 2\n")


def test_runner_writes_only_the_inputs_a_command_names(tmp_path):
    """An input whose name is only a substring of an argument is not
    written, and no `<` line pins it."""
    got = transcript.run_case(
        ["estimate --digits old-sweep-seq-file-not-utf8.txt --seq linear"], tmp_path)
    assert got.startswith("$ estimate") and "\n< " not in got
    assert [p.name for p in tmp_path.iterdir()] == []


def test_every_pinned_usage_error_is_one_error_line():
    """Each pinned command of either transcript that exits 1 or 2 printed
    nothing on stdout and one `error:` line on stderr."""
    found = [m.groups() for case in [*PINNED, *PINNED_SLOW]
             for m in re.finditer(r"^\$ .*\n((?:(?!\$ ).*\n)*?)exit ([12])\n", case.text, re.M)]
    codes = [code for _, code in found]
    assert codes.count("1") >= 23 and codes.count("2") >= 57
    for out, _ in found:
        assert re.fullmatch(r"--- stderr\nerror: .+\n", out), out


def test_geometric_sweep_shares_one_sequence(tmp_path, capsys, monkeypatch):
    """Seven round trips read one geometric sequence and its term cache, and
    the CSV keeps the bytes written when each point built its own.  The last
    point, vhat = 19/10, needs a stride above 2: its round-trip cells are
    blank, and one stderr line says why without failing the run."""
    built, make = [], sequences.make_sequence

    def make_sequence(spec):
        built.append(spec)
        return make(spec)

    monkeypatch.setattr(sequences, "make_sequence", make_sequence)
    csv_path = tmp_path / "geo.csv"
    code, err = _run(["sweep", "--eta", "2", "--theta", "4", "--vhat-grid", "1/2:19/10:8",
                      "--seq", "geometric:eta=2,a1=1", "--regime", "geo:l=2", "--base", "2",
                      "--depth", "200000", "--csv", str(csv_path)], capsys)
    assert code == 0
    assert built == ["geometric:eta=2,a1=1"]
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "2ba1b2a569649804a89b8d7910f114bced21c6c2dd9481f6bb9c18784cb0a4d9")
    rows = csv_path.read_text().splitlines()
    assert [r.endswith(",,,") for r in rows[1:]] == [False] * 7 + [True]
    assert err.splitlines() == [
        "vhat = 19/10, theta = 4: round trip left blank, "
        "ValueError: stride l=2 below the admissible threshold 4"]


# Runs the command given on its command line (none: only the import) in a
# fresh interpreter under python -O, and prints its exit status and which of
# these modules it loaded: numpy, dataclasses, argparse with gettext and
# locale, which no command needs; csv, array, fractions and decimal, which
# only some do; and the library's layers.  It must run as a child: pytest
# loads fractions.
NUMPY_PROBE = """
import contextlib, io, sys
import dioph_lab.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = dioph_lab.cli.main(sys.argv[1:])
print(code, *[m for m in ("numpy", "dataclasses", "argparse", "gettext", "locale", "csv",
                          "array", "fractions", "decimal") if m in sys.modules],
      *sorted(m[len("dioph_lab."):] for m in sys.modules
              if m.startswith("dioph_lab.") and m != "dioph_lab.cli"))
"""


# the schedule flags of the three reference round trips
SCHED_ETA1 = ["--seq", "linear", "--theta", "3", "--vhat", "1/3", "--base", "3",
              "--regime", "eta1"]
SCHED_GEO = ["--seq", "geometric:eta=2,a1=1", "--theta", "4", "--vhat", "3/2", "--base", "2",
             "--regime", "geo:l=2"]
SCHED_POLY = ["--seq", "poly:d=2", "--theta", "6", "--vhat", "1/6", "--base", "2"]

# what each command loads besides cli: `fractions` stands for the exact
# arithmetic, which brings `decimal` with it
LOADS_ESTIMATE = "digits exponents sequences"
LOADS_SCHEDULE = "fractions construct digits dimfx sequences"
LOADS_BOX_DIM = "fractions boxdim construct digits dimfx sequences"


@pytest.mark.parametrize("argv,loads", [
    ([], ""),
    (["--help"], ""),
    (["eval-dim", "--help"], ""),
    (["estimate", "--help"], ""),
    (["eval-dim", "--eta", "2", "--frobnicate", "1"], ""),
    (["eval-dim", "--eta", "2", "--vhat", "7/5"], "fractions dimfx"),
    (["sweep", "--eta", "2", "--theta", "4", "--vhat-grid", "1/2:19/10:8", "--csv", "o.csv"],
     "csv fractions dimfx"),
    (["sweep", "--eta", "1", "--theta", "3", "--vhat-grid", "1/4:1/2:2", "--seq", "linear",
      "--regime", "eta1", "--depth", "2000", "--csv", "o.csv"],
     "csv fractions construct digits dimfx exponents sequences"),
    (["gen-digits", *SCHED_ETA1, "--depth", "20000", "--out", "o.txt"], LOADS_SCHEDULE),
    (["gen-digits", *SCHED_GEO, "--depth", "20000", "--out", "o.txt"], LOADS_SCHEDULE),
    (["gen-digits", *SCHED_POLY, "--depth", "20000", "--out", "o.txt"], LOADS_SCHEDULE),
    (["estimate", "--digits", "eta1.txt", "--seq", "linear"], LOADS_ESTIMATE),
    (["estimate", "--digits", "poly.txt", "--seq", "poly:d=2"], LOADS_ESTIMATE),
    (["estimate", "--digits", "geo.txt", "--seq", "geometric:eta=2,a1=1"],
     "fractions digits dimfx exponents sequences"),
    (["box-dim", *SCHED_GEO, "--max-depth", "20000"], "array " + LOADS_BOX_DIM),
    (["box-dim", *SCHED_GEO, "--max-depth", "20000", "--mode", "all-depths"], LOADS_BOX_DIM),
    (["box-dim", *SCHED_GEO, "--max-depth", "20000", "--mode", "all-depths", "--csv", "o.csv"],
     "array " + LOADS_BOX_DIM),
    (["verify"], "array fractions boxdim construct digits dimfx exponents sequences verify"),
], ids=["import", "program-help", "help", "estimate-help", "usage-error", "eval-dim",
        "formula-sweep", "roundtrip-sweep", "gen-digits-eta1", "gen-digits-geo",
        "gen-digits-poly", "estimate", "estimate-poly", "estimate-geo", "box-dim",
        "box-dim-all-depths", "box-dim-all-depths-csv", "verify"])
def test_no_command_loads_numpy_or_dataclasses(argv, loads, tmp_path):
    """Each command loads the modules it needs and no more.  Only a command
    that computes with rationals loads `fractions`: not the import, the
    help, a usage error, or `estimate` on a linear or poly sequence.
    box-dim's block-end counts and its CSV rows are arrays, and so are
    verify's mass and run-end tables; box-dim writes its CSV rows by hand."""
    if argv[:1] == ["estimate"] and "--help" not in argv:  # the digits it reads
        sched = {"eta1.txt": SCHED_ETA1, "poly.txt": SCHED_POLY, "geo.txt": SCHED_GEO}[argv[2]]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen-digits", *sched, "--depth", "20000",
                         "--out", str(tmp_path / argv[2])]) == 0
    src = str(Path(dioph_lab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", NUMPY_PROBE, *argv], cwd=tmp_path,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == ("2" if "--frobnicate" in argv else "0")
    if "fractions" in loaded:  # decimal is pinned only where it must be absent
        loaded = [m for m in loaded if m != "decimal"]
    assert loaded == loads.split()


GEN = ["gen-digits", "--seq", "linear", "--theta", "3", "--vhat", "1/3"]
BOX = ["box-dim", "--seq", "linear", "--theta", "3", "--vhat", "1/3", "--base", "3"]


class FullDisk:
    """An `open` for writing whose disk fills up after the first write."""

    def __init__(self, path, mode, **kwargs):
        self.fh = open(path, mode, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.fh.tell():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.fh.write(data)
        self.fh.flush()


def test_failed_digit_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    """A write that fails after the file is opened (here a full disk after
    the header) removes the file: a truncated one would load as a shorter
    stream.  gen-digits then ends in one `error:` line."""
    monkeypatch.setattr(dioph_lab, "open", FullDisk, raising=False)
    out = tmp_path / "d.txt"
    code, err = _run([*GEN, "--base", "3", "--depth", "1000", "--out", str(out)], capsys)
    assert code == 1
    assert err.splitlines() == ["error: [Errno 28] No space left on device"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_digit_write_keeps_a_device(capsys):
    code, err = _run([*GEN, "--base", "3", "--depth", "1000", "--out", "/dev/full"], capsys)
    assert code == 1
    assert err.splitlines() == ["error: [Errno 28] No space left on device"]
    assert os.path.exists("/dev/full")


ETA1_DIGITS = "<eta1 digit file>"  # stands for a digit file the test writes


@pytest.mark.parametrize("argv", [
    ["eval-dim", "--eta", "1", "--grid", "1/10:9/10:9"],
    [*BOX, "--max-depth", "1000"],
    ["sweep", "--eta", "2", "--theta", "4", "--vhat-grid", "1/2:19/10:8"],
    ["estimate", "--digits", ETA1_DIGITS, "--seq", "linear"],
], ids=["eval-dim", "box-dim", "formula-sweep", "estimate"])
def test_failed_csv_write_leaves_no_file(argv, tmp_path, tmp_path_factory, capsys,
                                         monkeypatch):
    """A CSV write that fails after the header removes the file, as a digit
    write does: a partial CSV would still read."""
    if ETA1_DIGITS in argv:  # written before the disk fills, outside tmp_path
        path = str(tmp_path_factory.mktemp("digits") / "eta1.txt")
        assert main([*GEN, "--base", "3", "--depth", "1000", "--out", path]) == 0
        argv = [path if arg == ETA1_DIGITS else arg for arg in argv]
    monkeypatch.setattr(dioph_lab, "open", FullDisk, raising=False)
    code, err = _run([*argv, "--csv", str(tmp_path / "out.csv")], capsys)
    assert code == 1
    assert err.splitlines() == ["error: [Errno 28] No space left on device"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_csv_write_keeps_a_device(capsys):
    code, err = _run([*BOX, "--max-depth", "1000", "--csv", "/dev/full"], capsys)
    assert code == 1
    assert err.splitlines() == ["error: [Errno 28] No space left on device"]
    assert os.path.exists("/dev/full")


# --- cli.run, the entry point that ends the process ---------------------------

class Exited(Exception):
    """Raised by the patched `os._exit` in place of ending the process."""


@pytest.fixture
def exits(monkeypatch):
    """What `run` does after `main`, in order: "hooks" when it runs the exit
    hooks, ("exit", code) when it calls `os._exit`, which raises Exited.
    The stand-in for the exit hooks keeps this process's own hooks for its
    real exit; `test_run_runs_registered_exit_hooks` runs real ones."""
    events = []

    def exit_(code):
        events.append(("exit", code))
        raise Exited

    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: events.append("hooks"))
    monkeypatch.setattr(sys, "gettrace", lambda: None)  # also under coverage
    return events


def _run_as(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["dioph-lab", *argv])
    cli.run()


@pytest.mark.parametrize("argv,code", [
    (["eval-dim", "--eta", "2", "--vhat", "7/5"], 0),
    (["estimate", "--digits", "nope.txt", "--seq", "linear"], 1),
    (["eval-dim", "--help"], 0),
    (["eval-dim", "--eta", "2", "--frobnicate", "1"], 2),
], ids=["exit-0", "exit-1", "help", "unknown-flag"])
def test_run_ends_in_os_exit_after_the_exit_hooks(argv, code, exits, tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(Exited):
        _run_as(argv, monkeypatch)
    assert exits == ["hooks", ("exit", code)]


def _setprofile():
    sys.setprofile(lambda *_: None)
    return lambda: sys.setprofile(None)


def _monitoring_tool():
    """A sys.monitoring profiler, as cProfile registers from Python 3.12."""
    if not hasattr(sys, "monitoring"):
        pytest.skip("no sys.monitoring before Python 3.12")
    sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, "test")
    return lambda: sys.monitoring.free_tool_id(sys.monitoring.PROFILER_ID)


@pytest.mark.parametrize("watch", [_setprofile, _monitoring_tool],
                         ids=["setprofile", "monitoring"])
def test_run_under_a_profiler_exits_the_usual_way(watch, exits, capsys, monkeypatch):
    unwatch = watch()
    try:
        with pytest.raises(SystemExit) as exc:
            _run_as(["eval-dim", "--eta", "2", "--vhat", "7/5"], monkeypatch)
    finally:
        unwatch()
    assert exc.value.code == 0
    assert exits == []


def test_run_reports_a_failed_final_flush(exits, monkeypatch):
    class FullStdout(io.StringIO):
        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullStdout())
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    with pytest.raises(Exited):
        _run_as(["eval-dim", "--eta", "2", "--vhat", "7/5"], monkeypatch)
    assert exits == ["hooks", ("exit", 1)]
    assert sys.stderr.getvalue() == "error: [Errno 28] No space left on device\n"


def _child(argv, cwd, **kwargs):
    """Run `python ARGV` in the transcripts' child environment."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=transcript.child_env(),
                          text=True, **kwargs)


def test_run_runs_registered_exit_hooks(tmp_path):
    proc = _child(["-c", "import atexit, sys; from dioph_lab import cli; "
                   "atexit.register(print, 'hook ran'); cli.run()",
                   "eval-dim", "--eta", "2", "--vhat", "7/5"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("eta = 2\n") and proc.stdout.endswith("\nhook ran\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_child_with_stdout_on_a_full_disk_is_one_error_line(tmp_path):
    """The output is flushed only when `run` ends the process, so the full
    disk shows there: one `error:` line and exit 1, where the interpreter's
    own teardown would print two lines and exit 120."""
    with open("/dev/full", "w") as full:
        proc = _child(["-m", "dioph_lab.cli", *GEN, "--base", "3", "--regime", "eta1",
                       "--depth", "5000", "--out", "x.txt"], tmp_path, stdout=full)
    assert proc.returncode == 1
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("argv", [["--grid", "1/100:199/100:3000"], ["--vhat", "7/5"]],
                         ids=["write-in-main", "final-flush"])
def test_child_with_a_closed_stdout_ends_quietly(argv, tmp_path):
    """A stdout whose reader has gone (`| head -1`) ends the child with exit
    1 and nothing on stderr, whether a write inside `main` fails (12,000
    rows overflow the buffer) or `run`'s final flush does."""
    r, w = os.pipe()
    os.close(r)
    try:
        proc = _child(["-m", "dioph_lab.cli", "eval-dim", "--eta", "2", *argv], tmp_path,
                      stdout=w)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_estimate_reads_a_named_pipe_once(tmp_path):
    """A pipe cannot be read twice, so the loader reads it only as text: a
    child reading the digits through a FIFO prints and writes what it does
    on the regular file."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*GEN, "--base", "3", "--regime", "eta1", "--depth", "20000",
                     "--out", str(tmp_path / "eta1.txt")]) == 0
    os.mkfifo(tmp_path / "pipe")
    feed = threading.Thread(target=lambda: (tmp_path / "pipe").write_bytes(
        (tmp_path / "eta1.txt").read_bytes()), daemon=True)  # blocks until the child opens it
    feed.start()
    runs = [_child(["-m", "dioph_lab.cli", "estimate", "--digits", name, "--seq", "linear",
                    "--csv", f"{name}.csv"], tmp_path, timeout=60)
            for name in ("pipe", "eta1.txt")]
    feed.join(timeout=60)
    assert [(p.returncode, p.stderr) for p in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout.replace("eta1.txt.csv", "pipe.csv")
    assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "eta1.txt.csv").read_bytes()


def test_pinned_round_trip_as_children(tmp_path):
    """The benchmark runs `python -m dioph_lab.cli`, which ends in `run`:
    the children print and write what the in-process pins hold."""
    case = next(c for c in PINNED if c.name == "eta1-roundtrip-2e4")
    failure = transcript.check(case, tmp_path, child=True)
    assert failure is None, failure


def test_cprofile_still_prints_its_table(tmp_path):
    proc = _child(["-m", "cProfile", "-m", "dioph_lab.cli", "eval-dim", "--eta", "2",
                   "--vhat", "7/5"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "function calls" in proc.stdout


def test_verify_exit_code_follows_the_checks(capsys, monkeypatch):
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "CHECKS", [("stub-pass", lambda: (True, "fine"))])
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS  stub-pass: fine"]
    monkeypatch.setattr(verify, "CHECKS", [("stub-pass", lambda: (True, "fine")),
                                           ("stub-fail", lambda: (False, "off"))])
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "FAIL  stub-fail: off"
    monkeypatch.setattr(verify, "CHECKS", [("stub-crash", crash)])
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  stub-crash: raised RuntimeError: boom"]


def _run(argv, capsys):
    """Exit code and stderr of one CLI call."""
    return main(argv), capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--depth", "-3")], ids=["negative-depth"])
def test_estimate_bad_flag_is_an_error(flag, value, tmp_path, capsys):
    dig = tmp_path / "digits.txt"
    main(["gen-digits", "--seq", "linear", "--theta", "3", "--vhat", "1/3",
          "--base", "3", "--depth", "1000", "--out", str(dig)])
    code, err = _run(["estimate", "--digits", str(dig), "--seq", "linear",
                      flag, value], capsys)
    assert code == 2
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and value in errors[0]
    assert "Traceback" not in err


def _out_of_memory(*_args, **_kwargs):
    raise MemoryError("Unable to allocate 93.1 GiB for an array with shape "
                      "(100000000000,) and data type int8")


GEN_DIGITS = ["gen-digits", "--seq", "linear", "--theta", "3", "--vhat", "1/3", "--base", "3",
              "--depth", "1000", "--out", "out.txt", "--schedule-csv", "sched.csv"]
BOX_DIM = ["box-dim", "--seq", "linear", "--theta", "3", "--vhat", "1/3", "--base", "3",
           "--max-depth", "1000", "--csv", "out.txt"]


@pytest.mark.parametrize("argv,module,layer,replacement", [
    (GEN_DIGITS, "construct", "forced_runs", _out_of_memory),
    (GEN_DIGITS, "construct", "emit_digits", _out_of_memory),
    (BOX_DIM, "boxdim", "count_exponents_upto", _out_of_memory),
    (["estimate", "--digits", "in.txt", "--seq", "linear", "--csv", "out.txt"],
     "exponents", "matching_times", _out_of_memory),
    (["sweep", "--eta", "1", "--theta", "3", "--vhat-grid", "1/4:1/2:2", "--seq", "linear",
      "--regime", "eta1", "--csv", "out.txt"], "construct", "forced_runs", _out_of_memory),
    (["eval-dim", "--eta", "2", "--grid", "1/2:3/2:3", "--csv", "out.txt"],
     "dimfx", "baseline_bound", _out_of_memory),
    (["verify"], "verify", "run_all", _out_of_memory),
], ids=["gen-digits", "gen-digits-emit", "box-dim", "estimate", "sweep", "eval-dim",
        "verify"])
def test_out_of_memory_is_one_error_line(argv, module, layer, replacement, capsys,
                                         tmp_path, monkeypatch):
    """A depth too large to allocate ends in one `error:` line, exit 1 and no
    output file.  A layer of each command raises MemoryError by hand, as
    numpy does: a real huge depth could be granted by a host that
    overcommits memory, and then fill it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.txt").write_text("base=3\n" + "1002" * 250 + "\n")
    monkeypatch.setattr(importlib.import_module(f"dioph_lab.{module}"), layer, replacement)
    code, err = _run(argv, capsys)
    assert code == 1
    assert err.splitlines() == ["error: out of memory: Unable to allocate 93.1 GiB for an "
                                "array with shape (100000000000,) and data type int8"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt"]


def test_invariant_error_is_reported_not_blanked(tmp_path, capsys, monkeypatch):
    def broken(*_args, **_kwargs):
        raise dimfx.InvariantError("broken invariant")

    monkeypatch.setattr(exponents, "estimate_exponents", broken)
    code, err = _run(["sweep", "--eta", "1", "--theta", "5", "--vhat-grid", "1/4:1/2:2",
                      "--seq", "linear", "--regime", "eta1", "--depth", "2000",
                      "--csv", str(tmp_path / "rt.csv")], capsys)
    assert code == 1
    assert err.splitlines() == ["error: broken invariant"]


@pytest.mark.parametrize("argv,flag", [
    ([*GEN, "--base", "40", "--depth", "100", "--out", "d.txt"], "--base"),
    ([*GEN, "--base", "3", "--depth", "-5", "--out", "d.txt"], "--depth"),
    ([*BOX, "--max-depth", "-5"], "--max-depth"),
], ids=["gen-digits-base-40", "gen-digits-negative-depth", "box-dim-negative-max-depth"])
def test_flags_are_checked_before_the_schedule(argv, flag, capsys, tmp_path, monkeypatch):
    def no_schedule(*_args):
        raise AssertionError("schedule built before the flags were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_build_schedule", no_schedule)
    code, err = _run(argv, capsys)
    assert code == 2
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and flag in errors[0], errors
    if flag == "--base":
        assert "36" in errors[0]
    assert not (tmp_path / "d.txt").exists()


@pytest.mark.parametrize("argv,message", [
    ([*BOX, "--max-depth", "2"], "--max-depth 2 reaches 0 block ends, and mode block-ends"),
    ([*BOX, "--max-depth", "8"], "--max-depth 8 reaches 1 block ends, and mode block-ends"),
    ([*BOX, "--max-depth", "30"], "--max-depth 30 reaches 2 block ends, and mode block-ends"),
    ([*BOX, "--max-depth", "2", "--mode", "all-depths"],
     "--max-depth 2 reaches 2 depths, and mode all-depths"),
], ids=["box-dim-no-block-end", "box-dim-one-block-end", "box-dim-two-block-ends",
        "box-dim-two-depths"])
def test_box_dim_too_few_points_names_max_depth(argv, message, capsys, monkeypatch):
    def no_series(*_args):
        raise AssertionError("count series built before the depths were checked")

    monkeypatch.setattr(boxdim, "count_series", no_series)
    code, err = _run(argv, capsys)
    assert code == 1
    assert err.splitlines() == [f"error: {message} needs at least 3"]


@pytest.mark.parametrize("setup,argv,code,message", [
    ("1" * 1000, ["--depth", "-5"], 2, "--depth: must be an integer >= 1, got '-5'"),
], ids=["estimate-negative-depth-names-flag"])
def test_estimate_error_is_one_line(setup, argv, code, message, tmp_path, capsys):
    path = tmp_path / "digits.txt"
    path.write_text(f"base=3\n{setup}\n")
    got, err = _run(["estimate", "--digits", str(path), "--seq", "linear", *argv], capsys)
    assert got == code
    assert err.splitlines() == [f"error: {message}"]


def test_sweep_fills_estimates_past_eta(tmp_path, capsys, monkeypatch):
    real = exponents.estimate_exponents

    def past_eta(mt):
        return real(mt)._replace(vhat_est=1.5)

    monkeypatch.setattr(exponents, "estimate_exponents", past_eta)
    csv_path = tmp_path / "rt.csv"
    code, err = _run(["sweep", "--eta", "1", "--theta", "5", "--vhat-grid", "1/4:1/2:2",
                      "--seq", "linear", "--regime", "eta1", "--depth", "2000",
                      "--csv", str(csv_path)], capsys)
    assert (code, err) == (0, "")
    assert [r.split(",")[-2:] for r in csv_path.read_text().splitlines()[1:]] == [
        ["1.5", ""], ["1.5", ""]]


EXPONENT_CAP = f"past the cap {dimfx.MAX_EXPONENT} on exact exponents"
DIGIT_LIMIT = f"past the limit {sys.get_int_max_str_digits()} on printed integers"


@pytest.mark.parametrize("argv,exponent,cap", [
    (["eval-dim", "--eta", "1000001/1000000", "--vhat", "1/2"], "1.45e+07", EXPONENT_CAP),
    (["eval-dim", "--eta", "100000000000000000001/100000000000000000000", "--vhat", "1/2"],
     "4.67e+21", EXPONENT_CAP),
    (["eval-dim", "--eta", "10001/10000", "--vhat", "1/2"], "9.9e+04", EXPONENT_CAP),
    # the theta verdict, found before eval-dim's header prints
    (["eval-dim", "--eta", "2", "--vhat", "3/2", "--theta", str(2 ** 1500)], "1.5e+03",
     EXPONENT_CAP),
    (["gen-digits", "--seq", "geometric:eta=2,a1=1", "--theta", "4", "--vhat", "3/2",
      "--base", "2", "--regime", "geo:l=100000", "--depth", "100", "--out", "unused.txt"],
     "eta^100001", EXPONENT_CAP),
    # long terms: the powers are raised, but some exact values are too long to print
    (["eval-dim", "--eta", "100700001/100000000", "--vhat", "1"], "window l=811",
     DIGIT_LIMIT),
    (["eval-dim", "--eta", "100700001/100000000", "--vhat", "9/10"],
     "construction-lower value at vhat = 9/10", DIGIT_LIMIT),
    (["gen-digits", "--seq", "geometric:eta=1234567/1000,a1=1", "--theta", "4", "--vhat", "1",
      "--base", "2", "--regime", "geo:l=800", "--depth", "100", "--out", "unused.txt"],
     "[eta^800, (eta^801 - 1)/vhat)", DIGIT_LIMIT),
], ids=["eta-1e-6-above-one", "eta-1e-20-above-one", "eta-1e-4-above-one",
        "eval-dim-verdict-theta-2e1500", "gen-digits-stride-1e5", "eta-long-terms",
        "eta-long-terms-value", "gen-digits-long-terms-stride-800"])
def test_exact_power_cap_ends_in_one_error_line(argv, exponent, cap, capsys, tmp_path,
                                                monkeypatch):
    """Exit 1 with one `error:` line, quickly, with nothing on stdout."""
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and exponent in line
    assert cap in line
    assert not (tmp_path / "unused.txt").exists()


# --- CLI fuzz: any argv ends in exit 0, 1 or 2 with at most one error line --

def _fuzz_run(argv, workdir):
    err = io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    assert len([ln for ln in err.getvalue().splitlines() if "error:" in ln]) <= 1, argv


RATIONAL = st.builds(lambda sign, p, q: f"{sign}{p}" if q is None else f"{sign}{p}/{q}",
                     st.sampled_from([""] * 9 + ["-"]), st.integers(0, 1000),
                     st.none() | st.integers(0, 1000))
FUZZ_GRID = st.builds(lambda lo, hi, n: f"{lo}:{hi}:{n}", RATIONAL, RATIONAL,
                      st.integers(2, 4))


def _optional(flag, values):
    return st.just([]) | values.map(lambda v: [flag, v])


@given(RATIONAL, RATIONAL, _optional("--theta", RATIONAL), _optional("--rho", RATIONAL))
@settings(max_examples=60, deadline=None)
def test_fuzz_eval_dim(eta, vhat, theta, rho):
    with tempfile.TemporaryDirectory() as workdir:
        _fuzz_run(["eval-dim", "--eta", eta, "--vhat", vhat, *theta, *rho], workdir)


@given(RATIONAL,
       FUZZ_GRID.map(lambda g: ["--vhat-grid", g])
       | st.tuples(RATIONAL, FUZZ_GRID).map(lambda p: ["--vhat", p[0], "--theta-grid", p[1]]),
       _optional("--theta", RATIONAL), _optional("--rho", RATIONAL))
@settings(max_examples=60, deadline=None)
def test_fuzz_formula_sweep(eta, grid, theta, rho):
    with tempfile.TemporaryDirectory() as workdir:
        _fuzz_run(["sweep", "--eta", eta, *grid, *theta, *rho, "--csv", "out.csv"], workdir)


DIGIT_FILE = st.binary(max_size=2048) | st.integers(2, 10).flatmap(
    lambda b: st.text("0123456789"[:b], max_size=2000).map(
        lambda d: f"base={b}\n{d}\n".encode()))


FUZZ_SEQS = ["linear", "poly:d=2", "geometric:eta=3/2,a1=1", "geometric:eta=2,a1=1",
             "file:terms.txt"]


@given(DIGIT_FILE, st.sampled_from(FUZZ_SEQS))
@settings(max_examples=40, deadline=None)
def test_fuzz_estimate(content, seq):
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, "digits.txt").write_bytes(content)
        Path(workdir, "terms.txt").write_text("".join(f"{n * n + 1}\n" for n in range(1, 31)))
        _fuzz_run(["estimate", "--digits", "digits.txt", "--seq", seq], workdir)
