"""Span tracing for the traced benchmark run, installed from outside.

The program has no spans of its own yet, so this module wraps the
public entry points of each layer at the names' *import sites* -- the
runner imports ``simulate``, ``get_plane`` and friends by name, so the
wrapper must replace ``repro.experiments.runner.simulate``, not
``repro.systems.simulator.simulate``.  Untraced runs never import this
module, so they run the program exactly as shipped.

A span records its name, start, end, parent span (per thread, from a
thread-local stack), a key (cell label/size, plane key, record key or
job id) and its thread.  Spans stay in memory until :meth:`Tracer.dump`.
A span's self time is its duration minus the time its child spans
cover; children run on the parent's thread, one after another, so that
is a plain sum.

The tracer also times its own bookkeeping around every call (stack
push and pop, key and counter functions, storing the span) into
``overhead_s``: the cost tracing adds, measured directly, because it is
smaller than the run-to-run noise of a traced-versus-untraced
comparison.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import Counter, defaultdict

from common import PAPER_RATES, SIZES, percentile


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.overhead_s = 0.0
        self._ids = itertools.count()
        self._local = threading.local()

    def _open(self) -> tuple[int, int | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, end, parent, key, entered) -> None:
        self._local.stack.pop()
        self.spans.append((sid, name, start, end, parent, key, threading.get_ident()))
        self.overhead_s += (start - entered) + (time.perf_counter() - end)

    @contextlib.contextmanager
    def span(self, name: str, key: str | None = None):
        """A span around one of the benchmark's own calls."""
        entered = time.perf_counter()
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close(sid, name, start, end, parent, key, entered)

    def wrap(self, owner, attr: str, name: str, key=None, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``key(args, kwargs, result)`` names the span's subject;
        ``count(args, kwargs, result)`` returns counter increments.
        Both run after the call and only when it returned.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            sid, parent = tracer._open()
            label = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                tracer.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            else:
                end = time.perf_counter()
                if key is not None:
                    label = key(args, kwargs, result)
                if count is not None:
                    tracer.counters.update(count(args, kwargs, result))
                return result
            finally:
                tracer._close(sid, name, start, end, parent, label, entered)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def dump(self) -> dict:
        return {
            "spans": list(self.spans),
            "counters": dict(self.counters),
            "overhead_s": self.overhead_s,
        }


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def _label_map() -> dict[str, str]:
    """Structural machine description -> grid label (timing-free)."""
    from repro.experiments.runner import GRID_BUILDERS
    from repro.trace.filter import structural_params

    mapping = {}
    for label, builder in GRID_BUILDERS.items():
        for size in SIZES:
            params = builder(PAPER_RATES[0], size)
            mapping[repr(structural_params(params))] = label
    return mapping


def install_engine(tracer: Tracer) -> None:
    """Wrap the experiment-engine layers (runner, trace, systems)."""
    import repro.experiments.parallel as parallel
    import repro.experiments.runner as runner
    from repro.trace.filter import PlaneRecorder, plane_nbytes, structural_params
    from repro.trace.replay_kernel import ReplayKernel

    labels = _label_map()

    def cell(args, kwargs, result):
        params = args[0]
        label = labels.get(repr(structural_params(params)), "other")
        return f"{label}/{params.transfer_unit_bytes}"

    def sim_refs(args, kwargs, result):
        params = args[0]
        label = labels.get(repr(structural_params(params)), "other")
        return {f"systems.refs.{label}": result.stats.workload_refs}

    for module in (runner, parallel):
        tracer.wrap(
            module, "get_workload", "materialize.get_workload",
            count=lambda a, k, r: {"materialize.refs": r.total_refs},
        )
        tracer.wrap(module, "simulate", "systems.simulate", key=cell, count=sim_refs)
        tracer.wrap(
            module, "commit_plane", "filter.commit_plane",
            key=lambda a, k, r: r.key,
        )
        tracer.wrap(
            module, "get_plane", "filter.get_plane", key=lambda a, k, r: a[0]
        )
    tracer.wrap(PlaneRecorder, "capture", "filter.capture")
    tracer.wrap(
        PlaneRecorder, "finalize", "filter.finalize",
        key=lambda a, k, r: r.key,
        count=lambda a, k, r: {"filter.plane_bytes": plane_nbytes(r)},
    )
    tracer.wrap(
        runner, "replay_group", "replay_kernel.replay_group",
        count=lambda a, k, r: {"replay_kernel.cells": len(r)},
    )
    tracer.wrap(
        ReplayKernel, "price_many", "replay_kernel.price_many",
        count=lambda a, k, r: {
            "replay_kernel.ops": a[0].n_ops * len(r),
            "replay_kernel.contended_ops": a[0].contended_ops * len(r),
        },
    )
    tracer.wrap(runner, "encode_cache_entry", "runner.encode")
    tracer.wrap(
        runner, "atomic_write_text", "runner.commit",
        key=lambda a, k, r: r.stem,
        count=lambda a, k, r: {"runner.record_bytes": len(a[1])},
    )
    tracer.wrap(runner, "find_record", "runner.find_record", key=lambda a, k, r: a[1])
    tracer.wrap(runner, "decode_cache_entry", "runner.decode")
    tracer.wrap(runner.Runner, "write_cache_manifest", "runner.manifest")
    tracer.wrap(
        parallel.ParallelRunner, "prefetch", "parallel.prefetch",
        count=lambda a, k, r: {"parallel.cells": r},
    )


def install_service(tracer: Tracer) -> None:
    """Wrap the daemon layers (reports, job journal, scheduler)."""
    import repro.service.server as server
    from repro.service.jobs import JobStore
    from repro.service.scheduler import SweepScheduler

    tracer.wrap(server, "build_report", "reports.build_report")
    tracer.wrap(
        server, "export_report", "reports.export_report",
        key=lambda a, k, r: a[1],
        count=lambda a, k, r: {"reports.bytes": len(r)},
    )
    tracer.wrap(
        JobStore, "submit", "jobs.submit",
        key=lambda a, k, r: f"{r[0].id}:{int(r[1])}",
    )
    tracer.wrap(JobStore, "mark_running", "jobs.mark_running", key=lambda a, k, r: a[1])
    tracer.wrap(
        JobStore, "record_cell", "jobs.record_cell",
        key=lambda a, k, r: a[1],
        count=lambda a, k, r: {f"jobs.mode.{a[3]}": 1},
    )
    tracer.wrap(
        JobStore, "mark_completed", "jobs.mark_completed", key=lambda a, k, r: a[1]
    )
    tracer.wrap(
        SweepScheduler, "submit", "scheduler.submit",
        key=lambda a, k, r: r[0].id,
    )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def _child_time(spans) -> dict[int, float]:
    child_time: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, _key, _thread in spans:
        if parent is not None:
            child_time[parent] += end - start
    return child_time


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls and total seconds."""
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0})
    for _sid, name, start, end, _parent, _key, _thread in spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
    return dict(table)


def self_time_by_key(spans, name: str) -> dict[str, float]:
    """Self seconds of the ``name`` spans, per span key."""
    child_time = _child_time(spans)
    out: dict[str, float] = defaultdict(float)
    for sid, span_name, start, end, _parent, key, _thread in spans:
        if span_name == name:
            out[key] += end - start - child_time.get(sid, 0.0)
    return dict(out)


def queue_waits_ms(spans) -> list[float]:
    """Admission-to-start gap per created job (journal submit -> start)."""
    submitted: dict[str, float] = {}
    started: dict[str, float] = {}
    for _sid, name, start, end, _parent, key, _thread in spans:
        if name == "jobs.submit" and key and key.endswith(":1"):
            submitted[key[:-2]] = end
        elif name == "jobs.mark_running":
            started.setdefault(key, start)
    return [
        (started[job] - t) * 1e3 for job, t in submitted.items() if job in started
    ]


def stray_simulations(spans, allowed_jobs: set[str]) -> int:
    """``simulate`` spans outside the run window of an allowed job.

    The scheduler runs one job at a time on its worker thread, so a
    job's window is [mark_running start, mark_completed end] there.
    """
    windows: dict[str, list] = {}
    for _sid, name, start, end, _parent, key, thread in spans:
        if name == "jobs.mark_running":
            windows.setdefault(key, [start, None, thread])
        elif name == "jobs.mark_completed" and key in windows:
            windows[key][1] = end
    allowed = [
        (start, end, thread)
        for job, (start, end, thread) in windows.items()
        if job in allowed_jobs and end is not None
    ]
    stray = 0
    for _sid, name, start, end, _parent, _key, thread in spans:
        if name != "systems.simulate":
            continue
        if not any(s <= start and end <= e and t == thread for s, e, t in allowed):
            stray += 1
    return stray


def route_percentiles(samples: dict[str, list[float]]) -> dict[str, float]:
    out = {}
    for route, values in samples.items():
        out[f"server.{route}.p50_ms"] = percentile(values, 50)
        out[f"server.{route}.p90_ms"] = percentile(values, 90)
    return out
