"""Acceptance suite: every invariant in `verify.CHECKS` as one test, its
line pinned in verify_pinned.txt, plus the end-to-end CLI round trip.

The invariants are stated once, in `dioph_lab.verify`; `dioph-lab verify`
runs the same checks without pytest.  The round trip stays here because it
goes through files and the CLI at depth 1e6, which `verify` does not.
"""

from pathlib import Path

import pytest

from dioph_lab import cli, construct, digits, exponents, sequences, verify

# the line `dioph-lab verify` prints for each check, keyed by its name
PINNED = {line.split(":", 1)[0].removeprefix("PASS  "): line
          for line in Path(__file__).with_name("verify_pinned.txt").read_text().splitlines()}


@pytest.mark.parametrize("name, fn", verify.CHECKS, ids=[name for name, _ in verify.CHECKS])
def test_invariant(name, fn):
    ok, detail = fn()
    assert ok, f"{name}: {detail}"
    assert f"PASS  {name}: {detail}" == PINNED[name]


def test_measure_additivity_reads_the_forced_runs(monkeypatch):
    """With the zero runs gone from `construct.forced_runs`, the positions
    the mass formula holds forced look free, and the check fails."""
    runs = construct.forced_runs
    monkeypatch.setattr(construct, "forced_runs",
                        lambda *args: [r for r in runs(*args) if r[2] != 0])
    ok, detail = verify.check_measure_additivity()
    assert not ok, detail


def test_criterion_04_roundtrip_eta1(tmp_path, capsys):
    """gen-digits then estimate at depth 1e6 (b=3 and b=2): vhat within 0.02
    of 1/3, v within 0.05 of 1, and the definition estimator within 0.01;
    each command prints its report on stdout and nothing on stderr."""
    lin = sequences.make_sequence("linear")
    for base in (3, 2):
        dig = tmp_path / f"eta1_b{base}.txt"
        csv_path = tmp_path / f"eta1_b{base}.csv"
        assert cli.main(["gen-digits", "--seq", "linear", "--theta", "3",
                         "--vhat", "1/3", "--base", str(base), "--regime", "eta1",
                         "--depth", "1000000", "--out", str(dig)]) == 0
        out, err = capsys.readouterr()
        assert "targets: vhat = 1/3, v = 1" in out.splitlines() and err == "", (out, err)
        assert cli.main(["estimate", "--digits", str(dig), "--seq", "linear",
                         "--csv", str(csv_path)]) == 0
        out, err = capsys.readouterr()
        assert "eta = 1   inequality v >= vhat/(eta - vhat): ok" in out.splitlines(), out
        assert err == ""
        row = csv_path.read_text().splitlines()[1].split(",")
        v_est, vhat_est = float(row[2]), float(row[3])
        assert abs(vhat_est - 1 / 3) <= 0.02 and abs(v_est - 1.0) <= 0.05, (base, row)
        mt = exponents.matching_times(digits.load_digit_file(dig), lin)
        vdef = exponents.estimate_vhat_definition(mt)
        assert abs(vhat_est - vdef) <= 0.01, (base, vhat_est, vdef)
