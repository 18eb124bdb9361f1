"""Pinned CLI output, written as transcripts, and the one runner that checks it.

A transcript file is UTF-8 text that holds cases separated by blank lines.
A case may open with `#` comment lines, the first of them `## NAME` to
name it (else its first `$` line names it); the rest is what running it
prints:

    < NAME sha256 HEX     each input from INPUTS that a command names
    $ ARGV                a command, run in process through `cli.main` (or,
                          with `child`, as a `python -m dioph_lab.cli` child)
    ...                   its stdout
    --- stderr            its stderr, when not empty
    ...
    exit N                its exit status
    --- PATH              each file whose bytes it changed: inline up to
    ...                   INLINE_LIMIT bytes,
    --- PATH sha256 HEX   by SHA-256 above (every pinned digit file)

An output line that is empty or holds only dots is written with one more
dot, so no output line is blank.

The commands of a case run in order in one fresh directory.  `check`
rebuilds the case's transcript from what they did and compares it byte for
byte with the pinned one.  Tier-1 runs every case of `cli_pinned.txt`; CI
runs this file as a script, under `python -O`, over both transcripts:

    PYTHONPATH=src python -O tests/cli_transcript.py tests/cli_pinned.txt tests/cli_pinned_slow.txt

It imports no numpy and no pytest, and checks nothing with `assert`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

from dioph_lab import cli, digits

INLINE_LIMIT = 16 * 1024


def _random_digit_file(base, count):
    return lambda path: digits.save_digit_file(digits.random_digits(base, count, 0), path)


def _text_file(text):
    return lambda path: Path(path).write_text(text)


def _bytes_file(data):
    return lambda path: Path(path).write_bytes(data)


# The input files that no command writes, each made by its writer when a
# command of the case names it.  A file that one case alone reads is named
# after that case.
INPUTS = {
    "random2.txt": _random_digit_file(2, 200_000),
    "random3.txt": _random_digit_file(3, 10 ** 7),
    "squares.txt": _text_file("".join(f"{n * n}\n" for n in range(1, 501))),
    # 10^7 digits in runs of at most three 2s: one dominant pair under poly:d=2
    "short-runs.txt": _text_file("base=3\n" + "21222122" * 1_250_000),
    "sweep.args": _text_file("--eta=1\n--theta=3\n--vhat-grid=1/20:3/5:16\n--seq=linear\n"
                             "--regime=eta1\n--csv=sweep.csv\n"),
    # argument files: a --csv path in one is relative to the case's directory
    "sweep-deterministic.args": _text_file("--eta=2\n--vhat-grid=11/10:19/10:5\n--csv=a.csv\n"),
    "sweep-roundtrip-targets.args": _text_file(
        "--eta=1\n--vhat-grid=1/4:1/2:3\n--theta=5\n--seq=linear\n--regime=eta1\n"
        "--depth=30000\n--base=3\n--csv=rt.csv\n"),
    "sweep-args-unknown-flag.args": _text_file("--eta=2\n--vhat-grid=1:3/2:3\n--bogus=1\n"),
    # digit files that estimate refuses, or reads to an edge of its report
    "digit-file-byte-ff.txt": _bytes_file(b"base=3\n10\xff2\n"),
    "digit-file-base-not-int.txt": _text_file("base=x\n1022\n"),
    "digit-file-base-1.txt": _text_file("base=1\n0120\n"),
    "digit-file-base-0.txt": _text_file("base=0\n0120\n"),
    "digit-file-base-negative.txt": _text_file("base=-3\n0120\n"),
    "estimate-past-eta.txt": _text_file("base=3\n22200000000000222222\n"),
    "estimate-no-matching-times.txt": _text_file("base=3\n" + "1" * 500 + "\n"),
    "estimate-one-dominant-pair.txt": _text_file("base=3\n" + "1001" * 16 + "\n"),
    # term files that a file: sequence refuses
    "sweep-seq-file-line-not-int.txt": _text_file("1\n2\n3.5\n"),
    "sweep-seq-file-not-utf8.txt": _bytes_file(b"1\n2\xff\n"),
}


class Case(NamedTuple):
    name: str
    path: str
    line: int  # the 1-based line of the case's first line after its comments
    comment: str
    text: str  # the pinned transcript, comments excluded
    commands: list[str]


def _blocks(text: str):
    """(first line number, lines) of each run of non-blank lines."""
    block: list[str] = []
    for number, line in enumerate([*text.splitlines(), ""], 1):
        if line:
            block.append(line)
        elif block:
            yield number - len(block), block
            block = []


def _case(path, start: int, lines: list[str]) -> Case | None:
    """The case a block holds, or None for a block of comments only."""
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        k += 1
    if k == len(lines):
        return None
    commands = [line[2:] for line in lines[k:] if line.startswith("$ ")]
    if not commands:
        raise ValueError(f"{path}:{start + k}: a case needs a `$` line")
    name = lines[0][3:] if lines[0].startswith("## ") else commands[0]
    return Case(name, str(path), start + k, "".join(f"{c}\n" for c in lines[:k]),
                "".join(f"{c}\n" for c in lines[k:]), commands)


def read_cases(path) -> list[Case]:
    return [case for start, lines in _blocks(Path(path).read_text("utf-8"))
            if (case := _case(path, start, lines)) is not None]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(workdir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir()) if p.is_file()}


def _dotted(text: str) -> str:
    """`text` with one more dot on each line that is empty or all dots."""
    return re.sub(r"^\.*$(?=\n)", r".\g<0>", text, flags=re.M)


def _shown(name: str, data: bytes) -> str:
    if len(data) > INLINE_LIMIT:
        return f"--- {name} sha256 {_sha256(data)}\n"
    return f"--- {name}\n{_dotted(data.decode())}"


def child_env() -> dict[str, str]:
    """The environment of a child Python: this package on its path, and its
    output buffered as in a user's shell."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_in_process(command: str) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of `cli.main(ARGV)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    return code, out.getvalue(), err.getvalue()


def _run_child(command: str) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of `python -m dioph_lab.cli ARGV`."""
    proc = subprocess.run([sys.executable, "-m", "dioph_lab.cli", *command.split()],
                          env=child_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_case(commands: list[str], workdir, child: bool = False) -> str:
    """Run the commands in `workdir` and return the transcript they make,
    in process or, with `child`, each as a `python -m dioph_lab.cli` child."""
    parts = []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, write in INPUTS.items():
            if any(name in command for command in commands):
                write(name)
                parts.append(f"< {name} sha256 {_sha256(Path(name).read_bytes())}\n")
        for command in commands:
            before = _files(".")
            code, out, err = (_run_child if child else _run_in_process)(command)
            parts.append(f"$ {command}\n{_dotted(out)}")
            if err:
                parts.append(f"--- stderr\n{_dotted(err)}")
            parts.append(f"exit {code}\n")
            parts.extend(_shown(name, data) for name, data in _files(".").items()
                         if before.get(name) != data)
    finally:
        os.chdir(here)
    return "".join(parts)


def check(case: Case, workdir, child: bool = False) -> str | None:
    """None when the case prints its pinned transcript, else a message that
    names the case and the first line that differs."""
    got = run_case(case.commands, workdir, child)
    if got == case.text:
        return None
    pairs = zip_longest(case.text.splitlines(keepends=True), got.splitlines(keepends=True))
    i, (want, have) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    return (f"{case.path}:{case.line + i}: case {case.name!r}\n"
            f"  pinned: {want!r}\n  got:    {have!r}")


def rewrite(path) -> None:
    """Rebuild every case of a transcript file from its comments and `$`
    lines.  Run it only on code whose output is known to be right, and
    read the diff."""
    text = Path(path).read_text("utf-8")
    blocks = []
    for start, lines in _blocks(text):
        case = _case(path, start, lines)
        if case is None:
            blocks.append("".join(f"{line}\n" for line in lines))
            continue
        with tempfile.TemporaryDirectory() as workdir:
            blocks.append(case.comment + run_case(case.commands, workdir))
    Path(path).write_text("\n".join(blocks), "utf-8")


def main(paths: list[str]) -> int:
    cases = [case for path in paths for case in read_cases(path)]
    failed = 0
    for case in cases:
        with tempfile.TemporaryDirectory() as workdir:
            failure = check(case, workdir)
        if failure:
            failed += 1
            print(failure)
    print(f"{len(cases)} cases, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
