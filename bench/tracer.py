"""In-process span tracer for one dioph-lab CLI command.

Run as a script, it executes one command through `dioph_lab.cli.main` with
every library layer wrapped, and writes what it recorded as JSON once, after
the command has finished:

    PYTHONPATH=src python3 bench/tracer.py OUT.json estimate --digits d.txt --seq linear

The program itself is not changed.  `Tracer.install` replaces each public
function of the library modules with a timing wrapper, in its defining module
and under every name another dioph_lab module bound with `from .x import y`
(for example `exponents.run_end_table`).  Each wrapped call records a span:
name, start, end, parent, thread and peak-RSS growth.  Parents are kept on a
per-thread stack, because `sweep` runs its grid points on pool threads.
Functions that run thousands of times per command get a call counter and a
summed time instead of one span per call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import resource
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("digits", "sequences", "exponents", "construct", "boxdim", "dimfx")

# Hot functions: a counter and the time inside outermost calls, no spans.
# Every dimfx function shares the one counter "dimfx".
COUNTED = {"construct.mu_cylinder"}

# Both schedule builders report as one layer function.
SPAN_NAMES = {"construct.schedule_eta1": "construct.schedule",
              "construct.schedule_geometric": "construct.schedule"}

# Work counts read off a span's return value.
QUANTITIES = {
    "digits.run_end_table": {"bytes": lambda r: r.nbytes},
    "exponents.matching_times": {"pairs": lambda r: len(r.pairs),
                                 "dominant": lambda r: len(r.dominant)},
    "exponents.definition_grid": {"points": len},
    "construct.schedule": {"entries": lambda r: len(r.entries)},
    "construct.emit_digits": {"digits": lambda r: r.prefix_len},
    "boxdim.count_series": {"points": lambda r: len(r.points)},
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and counters of one process, kept in memory until `record`."""

    def __init__(self):
        self.spans: list[dict] = []
        self.gauges: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[dict] = []
        self._main_thread = threading.get_ident()

    def _state(self):
        st = self._local
        try:
            st.stack
        except AttributeError:
            st.stack, st.counts, st.depth = [], {}, {}
            self._thread_counts.append(st.counts)
        return st

    def span(self, name, fn):
        """Wrap `fn` so that each call records one span."""
        quantities = QUANTITIES.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._state().stack
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            rss0 = _maxrss_kb()
            t0 = time.perf_counter()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                rss1 = _maxrss_kb()
                stack.pop()
                self.spans.append({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "thread": threading.get_ident(),
                    "hwm_kb": rss1 - rss0,
                    "q": {q: f(result) for q, f in quantities.items()} if done else {},
                })

        return traced

    def _counter(self, key, **zero):
        """This thread's state and its counter `key`, created as `zero`."""
        st = self._state()
        c = st.counts.get(key)
        if c is None:
            c = st.counts[key] = zero
        return st, c

    def counted(self, key, fn):
        """Wrap `fn` with a call counter and the time of its outermost calls."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st, c = self._counter(key, calls=0, s=0.0)
            c["calls"] += 1
            if st.depth.get(key):
                return fn(*args, **kwargs)
            st.depth[key] = 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                c["s"] += time.perf_counter() - t0
                st.depth[key] = 0

        return counted

    def items(self, key, gen_fn):
        """Wrap a generator function, counting calls and items yielded."""

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            _, c = self._counter(key, calls=0, items=0)
            c["calls"] += 1
            for item in gen_fn(*args, **kwargs):
                c["items"] += 1
                yield item

        return counted

    def _pool_class(self):
        """ThreadPoolExecutor whose wait for results is a span on the caller's
        thread, so the caller's own time excludes the pool's work."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.gauges["cli.sweep.threads"] = self._max_workers

            def map(self, fn, *iterables, **kwargs):
                wait = tracer.span("cli.sweep.pool", lambda: list(
                    ThreadPoolExecutor.map(self, fn, *iterables, **kwargs)))
                return iter(wait())

        return TracedPool

    def install(self):
        """Wrap the library's public functions everywhere they are bound."""
        import dioph_lab.cli as cli
        import dioph_lab.verify as verify
        from dioph_lab.sequences import DenominatorSequence

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules["dioph_lab." + layer]
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{fname}"
                if layer == "dimfx":
                    wrapped[fn] = self.counted("dimfx", fn)
                elif name in COUNTED:
                    wrapped[fn] = self.counted(name, fn)
                else:
                    wrapped[fn] = self.span(SPAN_NAMES.get(name, name), fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "dioph_lab" and not modname.startswith("dioph_lab."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])

        DenominatorSequence.a = self.counted("sequences.a", DenominatorSequence.a)
        DenominatorSequence.iter_upto = self.items("sequences.iter_upto",
                                                   DenominatorSequence.iter_upto)
        cli._sweep_point = self.span("cli.sweep.point", cli._sweep_point)
        cli.ThreadPoolExecutor = self._pool_class()
        verify.CHECKS[:] = [(n, self.span("verify." + n, fn)) for n, fn in verify.CHECKS]

    def record(self, argv, code) -> dict:
        """Everything recorded, with threads numbered 0 (main), 1, 2, ..."""
        threads = {self._main_thread: 0}
        spans = [dict(s, thread=threads.setdefault(s["thread"], len(threads)))
                 for s in self.spans]
        counters: dict[str, dict] = {}
        for counts in self._thread_counts:
            for key, c in counts.items():
                total = counters.setdefault(key, {})
                for q, v in c.items():
                    total[q] = total.get(q, 0) + v
        return {"argv": list(argv), "exit": code, "spans": spans,
                "counters": counters, "gauges": dict(self.gauges)}


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its child spans cover.

    Children run on their parent's thread, one after another, so the time
    they cover is the sum of their durations.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def command_metrics(record) -> dict[str, float]:
    """Flat `<name>.<quantity>` totals for one traced command."""
    spans = record["spans"]
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        n = s["name"]
        out[n + ".calls"] += 1
        out[n + ".s"] += s["end"] - s["start"]
        out[n + ".self_s"] += selfs[s["id"]]
        out[n + ".hwm_mb"] += max(0, s["hwm_kb"]) / 1024
        for q, v in s["q"].items():
            out[f"{n}.{q}"] += v
    for key, c in record["counters"].items():
        for q, v in c.items():
            out[f"{key}.{q}"] += v
    if out.get("cli.sweep.calls"):
        threads = record["gauges"].get("cli.sweep.threads", 1)
        busy = out["cli.sweep.point.s"]
        out["cli.sweep.threads"] = threads
        out["cli.sweep.busy_s"] = busy
        out["cli.sweep.parallel_efficiency"] = busy / (threads * out["cli.sweep.s"])
    return dict(out)


def span_problems(record) -> list[str]:
    """Structural faults of one command's trace; empty when sound.

    Every child lies inside its parent on the parent's thread, no self time
    is negative, and on each thread the self times add up to the durations
    of that thread's root spans.  The main thread has exactly one root, the
    command itself, so its self times add up to the command's traced wall.
    """
    spans = record["spans"]
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    problems = []
    self_sum: dict[int, float] = defaultdict(float)
    root_sum: dict[int, float] = defaultdict(float)
    main_roots = []
    for s in spans:
        self_sum[s["thread"]] += selfs[s["id"]]
        if selfs[s["id"]] < -1e-9:
            problems.append(f"{s['name']} has negative self time {selfs[s['id']]}")
        if s["parent"] is None:
            root_sum[s["thread"]] += s["end"] - s["start"]
            if s["thread"] == 0:
                main_roots.append(s["name"])
            continue
        p = by_id[s["parent"]]
        if p["thread"] != s["thread"] or not p["start"] <= s["start"] <= s["end"] <= p["end"]:
            problems.append(f"{s['name']} does not nest inside {p['name']}")
    if main_roots != ["cli." + record["argv"][0]]:
        problems.append(f"main-thread roots {main_roots}, expected the command alone")
    for thread, total in root_sum.items():
        if abs(self_sum[thread] - total) > 1e-6 * max(1.0, total):
            problems.append(f"thread {thread}: self times sum to {self_sum[thread]}, "
                            f"root spans to {total}")
    return problems


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from dioph_lab import cli
    command = tracer.span("cli." + cli_argv[0], cli.main)
    try:
        code = command(cli_argv)
    except SystemExit as exc:
        code = exc.code
    with open(out_path, "w") as fh:
        json.dump(tracer.record(cli_argv, code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
