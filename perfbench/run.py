"""Repository benchmark: paper regeneration and a service mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 45 --trace 0

Workloads (why each exists: NOTES.md):

* ``paper_cold``  -- serial cold fill of every Table 3-5 / Figure 2-5
  grid, then warm re-render passes from the filled cache;
* ``service_mix`` -- seeded open-loop HTTP traffic against a
  ``rampage-sim serve`` daemon in its own process.

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` wraps each layer's public entry points (``tracing.py``)
and reports per-layer metrics plus the tracing overhead.  Every run
checks the program's outputs; the last stdout line is one JSON object
and the exit code is non-zero when a check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from common import (
    BENCH_DIR,
    PAPER_RATES,
    PLANE_LABELS,
    SIZES,
    SLICE_REFS,
    SRC,
    WORK,
    WORKLOADS,
    checkout_ok,
    child_env,
    clone_template,
    ensure_template,
    environment,
    expected_for,
    median,
    percentile,
    spawn_worker,
)

FORMATS = ("svg", "html", "json", "md", "csv")
ROUTES = ("post_jobs", "get_job", "get_report", "get_record", "get_health")
STATUS_CLASSES = ("2xx", "3xx", "4xx", "5xx")
LOAD_CLASSES = ("job", "read", "record", "status", "health", "cold")

END_TO_END = (
    ("setup_s", "s"),
    ("fill_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("materialize.busy_s", "s"),
    ("materialize.calls", "count"),
    ("materialize.refs", "count"),
    *((f"systems.busy_s.{label}", "s") for label in PLANE_LABELS),
    *((f"systems.refs_per_s.{label}", "1/s") for label in PLANE_LABELS),
    ("filter.capture_s", "s"),
    ("filter.finalize_s", "s"),
    ("filter.commit_s", "s"),
    ("filter.plane_bytes", "bytes"),
    ("filter.cells.recorded", "count"),
    ("filter.cells.replayed", "count"),
    ("filter.cells.full", "count"),
    ("filter.replay_ratio", "ratio"),
    ("filter.get_plane_s", "s"),
    ("filter.get_plane_calls", "count"),
    ("filter.registry_hit_ratio", "ratio"),
    ("filter.quarantined", "count"),
    ("replay_kernel.busy_s", "s"),
    ("replay_kernel.cells", "count"),
    ("replay_kernel.ops_per_s", "1/s"),
    ("replay_kernel.contended_ratio", "ratio"),
    ("runner.encode_s", "s"),
    ("runner.commit_s", "s"),
    ("runner.records_written", "count"),
    ("runner.record_bytes", "bytes"),
    ("runner.lookup_s", "s"),
    ("runner.decode_s", "s"),
    ("runner.manifest_s", "s"),
    ("runner.quarantined", "count"),
    ("experiments.render_s", "s"),
    ("analysis.svg_s", "s"),
    ("reports.build_s", "s"),
    *((f"reports.export_s.{fmt}", "s") for fmt in FORMATS),
    ("reports.bytes", "bytes"),
    *(
        (f"server.{route}.{stat}", "ms")
        for route in ROUTES
        for stat in ("p50_ms", "p90_ms")
    ),
    *((f"server.status.{cls}", "count") for cls in STATUS_CLASSES),
    ("server.not_modified_ratio", "ratio"),
    ("jobs.journal_s", "s"),
    ("jobs.journal_ops", "count"),
    ("jobs.journal_bytes", "bytes"),
    ("scheduler.admit_s", "s"),
    ("scheduler.queue_wait_p50_ms", "ms"),
    ("scheduler.queue_wait_p90_ms", "ms"),
    ("scheduler.dedup_ratio", "ratio"),
    ("scheduler.throttled", "count"),
    ("parallel.prefetch_s", "s"),
    ("parallel.cells", "count"),
    ("loadgen.late_p90_ms", "ms"),
    ("loadgen.sent", "count"),
    *((f"loadgen.samples.{cls}", "count") for cls in LOAD_CLASSES),
    ("tracing.overhead_ratio", "ratio"),
)


class Outcome:
    """Checks, attempted/failed operations and metric samples of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        self.notes: dict[str, object] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return ok

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def metric(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = samples

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# paper_cold output checks
# ----------------------------------------------------------------------


def _check_repetitions(out: Outcome, reps, expected_modes: dict, expected) -> None:
    """Mode mix, record digest and warm-pass outputs of each repetition.

    Without a stored digest for this seed, the repetitions must agree
    with each other (the most common digest is the reference).
    """
    stored = expected or {}
    records = stored.get("records") or Counter(r["digest"] for r in reps).most_common(1)[0][0]
    warm = stored.get("warm") or Counter(
        h for r in reps for h in r["warm_hashes"]
    ).most_common(1)[0][0]
    for index, rep in enumerate(reps):
        bad = []
        if rep["modes"] != expected_modes:
            bad.append(f"modes {rep['modes']} != {expected_modes}")
        if rep["digest"] != records:
            bad.append(f"record digest {rep['digest'][:12]} != {records[:12]}")
        if rep["quarantined"] != {"records": 0, "planes": 0}:
            bad.append(f"quarantined {rep['quarantined']}")
        if rep["warm_hashes"] != [warm]:
            bad.append(f"warm outputs {[h[:12] for h in rep['warm_hashes']]} != {warm[:12]}")
        out.check(f"repetition[{index}]", not bad, "; ".join(bad))
        ops = 1 + len(rep["job_s"]) + len(rep["read_s"])
        out.ops(ops, ops if bad else 0)
    out.digests.update(records=records, warm=warm)
    out.notes["digest_reference"] = "stored" if expected else "run-internal"


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------


def layer_metrics(spans, counters: Counter, registry: Counter) -> dict[str, float]:
    from tracing import self_time_by_key, span_table

    table = span_table(spans)

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    metrics: dict[str, float] = {
        "materialize.busy_s": total("materialize.get_workload"),
        "materialize.calls": calls("materialize.get_workload"),
        "materialize.refs": counters["materialize.refs"],
        "filter.capture_s": total("filter.capture"),
        "filter.finalize_s": total("filter.finalize"),
        "filter.commit_s": total("filter.commit_plane"),
        "filter.plane_bytes": counters["filter.plane_bytes"],
        "filter.get_plane_s": total("filter.get_plane"),
        "filter.get_plane_calls": calls("filter.get_plane"),
        "filter.registry_hit_ratio": _safe_ratio(
            registry["hits"], registry["hits"] + registry["misses"]
        ),
        "replay_kernel.busy_s": total("replay_kernel.replay_group"),
        "replay_kernel.cells": counters["replay_kernel.cells"],
        "replay_kernel.ops_per_s": _safe_ratio(
            counters["replay_kernel.ops"], total("replay_kernel.price_many")
        ),
        "replay_kernel.contended_ratio": _safe_ratio(
            counters["replay_kernel.contended_ops"], counters["replay_kernel.ops"]
        ),
        "runner.encode_s": total("runner.encode"),
        "runner.commit_s": total("runner.commit"),
        "runner.records_written": calls("runner.commit"),
        "runner.record_bytes": counters["runner.record_bytes"],
        "runner.lookup_s": total("runner.find_record"),
        "runner.decode_s": total("runner.decode"),
        "runner.manifest_s": total("runner.manifest"),
        "experiments.render_s": total("experiments.run"),
        "analysis.svg_s": total("analysis.render_figure_svgs"),
        "reports.build_s": total("reports.build_report"),
        "reports.bytes": counters["reports.bytes"],
        "parallel.prefetch_s": total("parallel.prefetch"),
        "parallel.cells": counters["parallel.cells"],
    }
    busy: Counter = Counter()
    for key, seconds in self_time_by_key(spans, "systems.simulate").items():
        busy[key.split("/")[0]] += seconds
    for label in PLANE_LABELS:
        metrics[f"systems.busy_s.{label}"] = busy[label]
        metrics[f"systems.refs_per_s.{label}"] = _safe_ratio(
            counters[f"systems.refs.{label}"], busy[label]
        )
    exports = self_time_by_key(spans, "reports.export_report")
    for fmt in FORMATS:
        metrics[f"reports.export_s.{fmt}"] = exports.get(fmt, 0.0)
    journal = ("jobs.submit", "jobs.mark_running", "jobs.record_cell", "jobs.mark_completed")
    metrics["jobs.journal_s"] = sum(total(name) for name in journal)
    metrics["jobs.journal_ops"] = sum(calls(name) for name in journal)
    metrics["scheduler.admit_s"] = total("scheduler.submit")
    metrics["scheduler.throttled"] = counters["scheduler.submit.raised.BackpressureError"]
    return metrics


def _cells(metrics: dict, modes: Counter) -> None:
    recorded, replayed, full = modes["recorded"], modes["replayed"], modes["full"]
    metrics["filter.cells.recorded"] = recorded
    metrics["filter.cells.replayed"] = replayed
    metrics["filter.cells.full"] = full
    metrics["filter.replay_ratio"] = _safe_ratio(replayed, recorded + replayed + full)


def _front_end_share(spans, fill_s: float) -> float:
    """Share of a cold fill spent in ``simulate`` + plane recording."""
    from tracing import self_time_by_key, span_table

    table = span_table(spans)
    recording = sum(
        table.get(name, {}).get("total_s", 0.0)
        for name in ("filter.capture", "filter.finalize", "filter.commit_plane")
    )
    front = sum(self_time_by_key(spans, "systems.simulate").values())
    return _safe_ratio(front + recording, fill_s)


def _merge_traces(results) -> tuple[list, Counter, Counter]:
    spans, counters, registry = [], Counter(), Counter()
    for result in results:
        trace = result["trace"]
        spans.extend(tuple(span) for span in trace["spans"])
        counters.update(trace["counters"])
        registry.update({k: result.get("registry", {}).get(k, 0) for k in ("hits", "misses")})
    return spans, counters, registry


def _fill_layer_metrics(out: Outcome, traced, plain) -> None:
    """Per-layer totals over the traced repetitions.

    ``tracing.overhead_ratio`` is the tracer's own bookkeeping time over
    the rest of the traced repetitions' measured time.  The wall-clock
    ratio of traced to untraced fills goes to the notes beside the
    untraced fills' own spread: it is below that noise floor.
    """
    spans, counters, registry = _merge_traces(traced)
    metrics = layer_metrics(spans, counters, registry)
    modes: Counter = Counter()
    for fill in traced:
        modes.update(fill["modes"])
    _cells(metrics, modes)
    metrics["filter.quarantined"] = sum(f["quarantined"]["planes"] for f in traced)
    metrics["runner.quarantined"] = sum(f["quarantined"]["records"] for f in traced)
    overhead = sum(f["trace"]["overhead_s"] for f in traced)
    measured = sum(f["fill_s"] + f["warm_s"] for f in traced)
    metrics["tracing.overhead_ratio"] = overhead / (measured - overhead)
    plain_fill = [f["fill_s"] for f in plain]
    out.notes["overhead_wall"] = {
        "traced_fill_s": [round(f["fill_s"], 4) for f in traced],
        "untraced_fill_s": [round(v, 4) for v in plain_fill],
        "ratio": median([f["fill_s"] for f in traced]) / median(plain_fill) - 1.0,
        "untraced_spread": (max(plain_fill) - min(plain_fill)) / median(plain_fill),
    }
    out.notes["layer_metrics"] = metrics


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _repetitions(base: dict, seconds: float, min_reps: int, run_dir: Path):
    """Fresh-process repetitions for ``seconds`` (at least ``min_reps``).

    A repetition starts only if the previous one's length still fits.
    Finished repetitions stay on disk until the run ends: deleting a
    thousand records right before the next fill would put the journal
    work of the deletes inside that fill's commits.
    """
    reps = []
    start = time.monotonic()
    last = 0.0
    while len(reps) < min_reps or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        reps.append(spawn_worker({**base, "cache": str(run_dir / f"rep{len(reps)}")}))
        last = time.monotonic() - began
    return reps


def paper_cold(out: Outcome, seed: int, seconds: int, trace: bool, run_dir: Path) -> None:
    """Repeated cold fills of the paper's grids, each with warm passes."""
    params = WORKLOADS["paper_cold"]
    base = {"task": "cold", "seed": seed, "passes": params["passes"]}
    modes = {"recorded": 24, "replayed": 48}
    expected = expected_for("paper_cold", seed, seconds)
    if not trace:
        reps = _repetitions(base, seconds, params["min_reps"], run_dir)
        _check_repetitions(out, reps, modes, expected)
        jobs = [v * 1e3 for r in reps for v in r["job_s"]]
        reads = [v * 1e3 for r in reps for v in r["read_s"]]
        out.metric("setup_s", median([r["setup_s"] for r in reps]), len(reps))
        out.metric("fill_s", median([r["fill_s"] for r in reps]), len(reps))
        out.metric("job_p50_ms", percentile(jobs, 50), len(jobs))
        out.metric("job_p90_ms", percentile(jobs, 90), len(jobs))
        out.metric("read_p50_ms", percentile(reads, 50), len(reads))
        out.metric("read_p90_ms", percentile(reads, 90), len(reads))
        out.metric("peak_rss_mb", median([r["rss_mb"] for r in reps]), len(reps))
        out.notes["fill_s_each"] = [round(r["fill_s"], 4) for r in reps]
        return
    # Traced: two untraced and two traced repetitions, alternating.
    plain, traced = [], []
    for index in range(2):
        for flag, bucket in ((False, plain), (True, traced)):
            cache = run_dir / f"rep-{index}-{int(flag)}"
            bucket.append(spawn_worker({**base, "cache": str(cache), "trace": flag}))
    _check_repetitions(out, plain + traced, modes, expected)
    _fill_layer_metrics(out, traced, plain)
    spans, _, _ = _merge_traces(traced)
    share = _front_end_share(spans, sum(r["fill_s"] for r in traced))
    out.notes["front_end_share"] = share
    out.check("sanity: systems + plane recording >= 90% of the cold fill",
              share >= 0.90, f"share {share:.3f}")


#: Spins in the lowest scheduling class until killed or orphaned.
_IDLE_SPINNER = (
    "import os\n"
    "parent = os.getppid()\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


@contextlib.contextmanager
def _cpus_kept_awake():
    """Keep every CPU busy with ``SCHED_IDLE`` spinners while measuring.

    On a virtual machine an idle vCPU is handed back to the host, and
    waking it again took 1-3 ms at p90 when the host was busy (the load
    generator's own lateness showed it).  A service request crosses a
    dozen thread and process wake-ups, and every fsync'd commit sleeps
    once, so that host latency, not the program, set the service
    latencies and swung them 1.5x from minute to minute.  A spinner in
    the idle class yields at once to any normal thread that wakes, so
    the program runs as before, on CPUs that never sleep.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _IDLE_SPINNER])
        for _ in range(os.cpu_count() or 1)
    ]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()


def _start_daemon(cache: Path, state: Path, out_file: Path, trace: bool):
    spec = {"cache": str(cache), "state": str(state), "out": str(out_file), "trace": trace}
    with open(out_file.with_suffix(".stderr"), "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py"), json.dumps(spec)],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
        )
    try:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                "daemon failed to start: "
                + out_file.with_suffix(".stderr").read_text("utf-8", "replace")[-2000:]
            )
        port = json.loads(line)["port"]
        # The daemon installs its SIGTERM drain handler only after
        # announcing the port; the first answered request proves it is
        # in place.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status != 200:
                raise RuntimeError("daemon /healthz did not answer 200")
        finally:
            conn.close()
    except BaseException:
        proc.kill()
        proc.wait(30)
        raise
    return proc, port


def _stop_daemon(proc, out_file: Path) -> dict:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(30)
        raise RuntimeError("daemon did not drain within 60 s")
    proc.stdout.close()
    return json.loads(out_file.read_text("utf-8"))


def _service_phase(template: Path, run_dir: Path, tag: str, trace: bool, schedule,
                   report_bytes, record_bytes, query, warm: dict, setups: int):
    """Set the daemon up ``setups`` times, then drive the schedule once."""
    from loadgen import LoadGenerator

    setup_times = []
    for index in range(setups):
        base = run_dir / f"{tag}{index}"
        os.sync()
        start = time.monotonic()
        clone_template(template / "cache", base / "cache")
        proc, port = _start_daemon(base / "cache", base / "state", base / "daemon.json",
                                   trace)
        setup_times.append(time.monotonic() - start)
        if index < setups - 1:
            _stop_daemon(proc, base / "daemon.json")
    try:
        load = LoadGenerator(port, schedule, report_bytes, record_bytes, query)
        load.run(warm)
    finally:
        daemon = _stop_daemon(proc, base / "daemon.json")
    return load, daemon, setup_times, base


def _summarize_load(load, schedule) -> dict:
    by_class: dict[str, list] = {cls: [] for cls in LOAD_CLASSES}
    cls_of = {"submit": "job", "resubmit": "job", "report": "read", "record": "record",
              "status": "status", "health": "health", "cold": "cold"}
    errors = [r["error"] for r in load.results if r["error"]]
    for result in load.results:
        if not result["error"]:
            by_class[cls_of[result["kind"]]].append(result["latency_ms"])
    return {
        "latency": by_class,
        "errors": errors,
        "missing": len(schedule) - len(load.results),
        "late": [r["late_ms"] for r in load.results],
        "cold_jobs": {r["job"] for r in load.results if r["kind"] == "cold" and r.get("job")},
    }


def service_mix(out: Outcome, seed: int, seconds: int, trace: bool, run_dir: Path) -> None:
    from loadgen import build_schedule, warm_spec
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import iter_cache_files
    from repro.reports import build_report, export_report, report_names
    from worker import quarantined_counts, records_digest

    params = WORKLOADS["service_mix"]
    template, built = ensure_template(seed)
    out.notes["template_build_s"] = built
    cache = template / "cache"
    config = ExperimentConfig(scale=params["scale"], slice_refs=SLICE_REFS,
                              issue_rates=PAPER_RATES, sizes=SIZES, seed=seed,
                              cache_dir=cache)
    report_bytes = {
        (name, fmt): export_report(build_report(name, config), fmt)
        for name in report_names()
        for fmt in FORMATS
    }
    record_bytes = {}
    for path in iter_cache_files(cache):
        blob = path.read_bytes()
        record_bytes[path.stem] = (blob, f'"{json.loads(blob)["checksum"]}"')
    query = f"scale={params['scale']}&seed={seed}&slice_refs={SLICE_REFS}"
    schedule = build_schedule(seed, seconds, sorted(report_bytes), sorted(record_bytes))
    expected = expected_for("service_mix", seed, seconds)
    template_digest, _ = records_digest(cache)
    out.check("template records digest",
              expected is None or expected.get("template") == template_digest,
              f"template {template_digest[:12]}")
    out.digests["template"] = template_digest

    phases = [("plain", False)] + ([("traced", True)] if trace else [])
    summaries = {}
    for tag, flag in phases:
        load, daemon, setup_times, base = _service_phase(
            template, run_dir, tag, flag, schedule, report_bytes, record_bytes, query,
            warm_spec(seed), params["setups"] if tag == "plain" else 1,
        )
        summary = _summarize_load(load, schedule)
        summaries[tag] = (load, daemon, setup_times, base, summary)
        out.ops(len(schedule), len(summary["errors"]) + summary["missing"])
        for error in summary["errors"][:5]:
            out.check(f"{tag}: operation", False, error)
        digest, records = records_digest(base / "cache")
        out.check(f"{tag}: final records digest",
                  expected is None or expected.get("records") == digest,
                  f"{digest[:12]} over {records} records")
        out.digests["records"] = digest

    load, daemon, setup_times, base, summary = summaries["plain"]
    lat = summary["latency"]
    out.metric("setup_s", median(setup_times), len(setup_times))
    out.metric("fill_s", median(lat["cold"]) / 1e3, len(lat["cold"]))
    out.metric("job_p50_ms", percentile(lat["job"], 50), len(lat["job"]))
    out.metric("job_p90_ms", percentile(lat["job"], 90), len(lat["job"]))
    out.metric("read_p50_ms", percentile(lat["read"], 50), len(lat["read"]))
    out.metric("read_p90_ms", percentile(lat["read"], 90), len(lat["read"]))
    out.metric("peak_rss_mb", daemon["rss_mb"], 1)
    out.notes["daemon_cpu_s"] = daemon["cpu_s"]
    out.notes["record_p50_ms"] = percentile(lat["record"], 50)
    out.notes["late_p90_ms"] = percentile(summary["late"], 90)
    if not trace:
        return

    from tracing import queue_waits_ms, route_percentiles, stray_simulations

    tload, tdaemon, _, tbase, tsummary = summaries["traced"]
    trace_data = tdaemon["trace"]
    spans = [tuple(span) for span in trace_data["spans"]]
    counters = Counter(trace_data["counters"])
    metrics = layer_metrics(spans, counters, Counter(tdaemon.get("registry", {})))
    modes = Counter({k.split(".")[-1]: v for k, v in counters.items()
                     if k.startswith("jobs.mode.")})
    _cells(metrics, modes)
    metrics["scheduler.dedup_ratio"] = _safe_ratio(modes["cached"], sum(modes.values()))
    waits = queue_waits_ms(spans)
    metrics["scheduler.queue_wait_p50_ms"] = percentile(waits, 50)
    metrics["scheduler.queue_wait_p90_ms"] = percentile(waits, 90)
    metrics.update(route_percentiles({r: tload.routes.get(r, []) for r in ROUTES}))
    for cls in STATUS_CLASSES:
        metrics[f"server.status.{cls}"] = tload.status[cls]
    metrics["server.not_modified_ratio"] = _safe_ratio(
        tload.conditional["304"], tload.conditional["sent"]
    )
    journal = tbase / "state" / "journal.jsonl"
    metrics["jobs.journal_bytes"] = journal.stat().st_size if journal.exists() else 0
    metrics["loadgen.late_p90_ms"] = percentile(tsummary["late"], 90)
    metrics["loadgen.sent"] = len(tload.results)
    for cls in LOAD_CLASSES:
        metrics[f"loadgen.samples.{cls}"] = len(tsummary["latency"][cls])
    quarantined = quarantined_counts(tbase / "cache")
    metrics["runner.quarantined"] = quarantined["records"]
    metrics["filter.quarantined"] = quarantined["planes"]
    # The tracer's own bookkeeping over the rest of the daemon's CPU
    # time; the wall-clock comparison is below the runs' noise floor.
    overhead = trace_data["overhead_s"]
    metrics["tracing.overhead_ratio"] = overhead / (tdaemon["cpu_s"] - overhead)
    out.notes["overhead_wall"] = {
        "traced_job_p50_ms": percentile(tsummary["latency"]["job"], 50),
        "untraced_job_p50_ms": percentile(lat["job"], 50),
    }
    out.notes["layer_metrics"] = metrics
    stray = stray_simulations(spans, tsummary["cold_jobs"])
    out.check("sanity: systems time only inside cold jobs", stray == 0,
              f"{stray} simulate spans outside cold jobs")


WORKLOAD_FNS = {"paper_cold": paper_cold, "service_mix": service_mix}


def _print_report(out: Outcome, workload: str, seed: int, seconds: int,
                  trace: bool) -> dict:
    names = PER_LAYER if trace else END_TO_END
    values = out.notes.get("layer_metrics", {}) if trace else out.metrics
    if not trace:
        ok = out.attempted - out.failed
        out.metric("ok_ratio", _safe_ratio(ok, out.attempted), out.attempted)
    metrics = {}
    print(f"{'metric':42s} {'value':>14s} {'unit':>6s} {'samples':>8s}")
    for name, unit in names:
        value = float(values.get(name, 0.0)) if trace else out.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        samples = "" if trace else str(out.samples.get(name, ""))
        print(f"{name:42s} {value:14.6g} {unit:>6s} {samples:>8s}")
    for name, ok, detail in out.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} {detail}")
    print("digests " + json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                   **out.digests}))
    print("notes " + json.dumps({k: v for k, v in out.notes.items()
                                 if k != "layer_metrics"}, default=str))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_FNS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not checkout_ok():
        print("error: no src/repro in this checkout; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment()))
    run_dir = WORK / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out = Outcome()
    try:
        with _cpus_kept_awake():
            WORKLOAD_FNS[args.workload](out, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = _print_report(out, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
