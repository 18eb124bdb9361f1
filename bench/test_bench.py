"""Self-checks of the benchmark's traced run.

    python3 -m pytest bench/test_bench.py     # about 30 s on 2 CPUs

Every workload is traced twice at its benchmark size.  The spans must nest
and add up, every per-layer metric that baseline.json predicts for a
workload must be measured on it, and the counts must repeat exactly.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import run
import tracer

BENCH = Path(__file__).resolve().parent
PREDICTIONS = json.loads((BENCH / "baseline.json").read_text())["predictions"]
PER_LAYER = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
# Computed by run.py from two passes rather than read off the spans.
DERIVED = {"trace.overhead_frac"}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """{workload: [records of pass 1, records of pass 2]} on a non-default seed."""
    out = {}
    for name, workload in run.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        runner = run.Runner(work, time.monotonic() + 300)
        commands = workload(work, run.DEFAULT_SEED + 1)
        out[name] = [run.traced_pass(runner, commands)[1] for _ in range(2)]
        assert runner.failed == 0, runner.problems
    return out


def test_spans_nest_and_self_times_add_up(traced):
    for name, passes in traced.items():
        for records in passes:
            for rec in records:
                assert tracer.span_problems(rec) == [], (name, rec["argv"])


def test_predicted_layer_metrics_are_measured(traced):
    for pred in PREDICTIONS:
        for name in pred["workloads"]:
            measured = run.layer_metrics(traced[name][0])
            missing = [m for m in pred["layer_metrics"]
                       if m not in DERIVED and m not in measured]
            assert not missing, (name, missing)


def test_every_named_metric_is_predicted_somewhere():
    predicted = {m for pred in PREDICTIONS for m in pred["layer_metrics"]}
    assert {m["name"] for m in PER_LAYER} == predicted


def test_counts_repeat_exactly(traced):
    counts = [m["name"] for m in PER_LAYER if m["unit"] in ("count", "bytes")]
    for name, (first, second) in traced.items():
        a, b = run.layer_metrics(first), run.layer_metrics(second)
        assert {m: a.get(m) for m in counts} == {m: b.get(m) for m in counts}, name


def test_span_problems_catches_a_child_outside_its_parent():
    rec = {"argv": ["estimate"], "counters": {}, "gauges": {}, "spans": [
        {"id": 1, "name": "cli.estimate", "start": 0.0, "end": 1.0, "parent": None,
         "thread": 0, "hwm_kb": 0, "q": {}},
        {"id": 2, "name": "digits.run_end_table", "start": 0.5, "end": 2.0, "parent": 1,
         "thread": 0, "hwm_kb": 0, "q": {}},
    ]}
    assert any("does not nest" in p for p in tracer.span_problems(rec))
    assert any("negative self time" in p for p in tracer.span_problems(rec))



def test_ratio_cancels_an_advantage_of_going_first():
    def pair(program, reference):
        return run.Outcome(program, 1.0), run.Outcome(reference, 1.0)
    # Whichever runs first is 20% faster; the program is as fast as the reference.
    pairs = [pair(0.8, 1.0), pair(1.0, 0.8)] * 3
    assert run.ratio(pairs) == pytest.approx(1.0)
    assert run.scaled(2.0, [pair(1.5, 1.0), pair(1.5, 1.0)]) == pytest.approx(3.0)
