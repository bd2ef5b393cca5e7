"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with ``PYTHONPATH``
pointing at the checkout's ``src``; ``run.py`` drives it.  Each task
prints one JSON object as its last stdout line.

Tasks:

* ``cold``     -- one serial :class:`Runner` fills the Table 3-5 /
  Figure 2-5 grids into an empty cache (the paper's regeneration), then
  runs ``spec["passes"]`` warm passes over the filled cache: a fresh
  Runner per pass loads the paper's grids, then the seven experiment
  modules and ``render_figure_svgs`` re-render from them;
* ``template`` -- build the ``service_mix`` start state for one seed
  (see ``common.ensure_template``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from common import PAPER_LABELS, PAPER_RATES, PLANE_LABELS, SIZES, SLICE_REFS, WORKLOADS


def _config(scale: float, seed: int, cache: Path):
    from repro.experiments import ExperimentConfig

    return ExperimentConfig(
        scale=scale,
        slice_refs=SLICE_REFS,
        issue_rates=PAPER_RATES,
        sizes=SIZES,
        seed=seed,
        cache_dir=cache,
    )


def _clear_registries() -> None:
    from repro.trace import filter as plane_filter
    from repro.trace import materialize

    materialize.clear_registry()
    plane_filter.clear_registry()


def _events(modes: Counter):
    """An in-memory event log that tallies cell modes and quarantines."""
    from repro.core.observe import EventLog

    events = EventLog(None)

    def listen(payload: dict) -> None:
        name = payload.get("event")
        if name == "cell_completed":
            modes[str(payload.get("mode"))] += 1
        elif name in ("plane_quarantined", "cache_quarantined"):
            modes[name] += 1

    events.subscribe(listen)
    return events


def records_digest(cache: Path) -> tuple[str, int]:
    """SHA-256 over every committed record's envelope checksum, by key."""
    from repro.experiments.runner import iter_cache_files

    lines = []
    for path in iter_cache_files(cache):
        envelope = json.loads(path.read_text("utf-8"))
        lines.append(f"{path.stem}:{envelope['checksum']}\n")
    lines.sort()
    return hashlib.sha256("".join(lines).encode()).hexdigest(), len(lines)


def quarantined_counts(cache: Path) -> dict:
    """Quarantined record files and plane directories in ``cache``."""
    from repro.experiments.runner import iter_quarantined_files
    from repro.trace.filter import QUARANTINE_SUFFIX, plane_root

    planes = plane_root(cache)
    bad_planes = (
        sum(1 for p in planes.iterdir() if p.name.endswith(QUARANTINE_SUFFIX))
        if planes.is_dir()
        else 0
    )
    return {
        "records": sum(1 for _ in iter_quarantined_files(cache)),
        "planes": bad_planes,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span(tracer, name: str, key: str | None = None):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, key)


def _warm_passes(config, passes: int, tracer) -> tuple[list, list, set]:
    """``passes`` warm passes over the filled cache in ``config``.

    Each pass is one fresh Runner with empty in-process registries.
    A *job* sample is one ``Runner.grid(label)`` over cached cells
    (record lookups, decode, manifest commit); a *read* sample is the
    pass's rendering: the seven experiment ``run`` calls and
    ``render_figure_svgs`` over the grids that runner loaded.  Returns
    job and read seconds plus the set of per-pass output hashes.
    """
    from repro.analysis.figures_svg import FIGURE_GRID_LABELS, render_figure_svgs
    from repro.core.observe import EventLog
    from repro.experiments import Runner, figure4, figure5, table3, table4, table5
    from repro.experiments.figures23 import run_figure2, run_figure3

    experiments = (
        ("table3", table3.run),
        ("table4", table4.run),
        ("table5", table5.run),
        ("figure2", run_figure2),
        ("figure3", run_figure3),
        ("figure4", figure4.run),
        ("figure5", figure5.run),
    )
    jobs: list[float] = []
    reads: list[float] = []
    hashes: set[str] = set()
    for _ in range(passes):
        _clear_registries()
        runner = Runner(config, events=EventLog(None))
        digest = hashlib.sha256()
        for label in PAPER_LABELS:
            t0 = time.perf_counter()
            with _span(tracer, "experiments.grid", label):
                runner.grid(label)
            jobs.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for name, run in experiments:
            with _span(tracer, "experiments.run", name):
                output = run(runner)
            digest.update(output.text.encode())
        grids = {label: runner.grid(label) for label in FIGURE_GRID_LABELS}
        with _span(tracer, "analysis.render_figure_svgs"):
            svgs = render_figure_svgs(grids, config)
        reads.append(time.perf_counter() - t0)
        for name in sorted(svgs):
            digest.update(name.encode() + svgs[name].encode())
        hashes.add(digest.hexdigest())
    return jobs, reads, hashes


def task_cold(spec: dict, tracer) -> dict:
    """One repetition: a serial cold fill, then warm passes over it.

    The warm passes run in the fill's process so that they, like the
    fills, are spread over the whole run: a run's warm samples then come
    from several processes at different times, and one process landing
    on a faster or slower CPU cannot carry a whole run.
    """
    from repro.experiments import Runner
    from repro.trace.filter import registry_stats

    cache = Path(spec["cache"])
    config = _config(WORKLOADS["paper_cold"]["scale"], spec["seed"], cache)
    _clear_registries()
    modes: Counter = Counter()
    runner = Runner(config, events=_events(modes))
    setup_s = time.monotonic() - spec["spawn_t"]
    start = time.perf_counter()
    for label in PAPER_LABELS:
        with _span(tracer, "experiments.grid", label):
            runner.grid(label)
    fill_s = time.perf_counter() - start
    digest, records = records_digest(cache)
    registry = registry_stats()
    start = time.perf_counter()
    jobs, reads, hashes = _warm_passes(config, spec["passes"], tracer)
    warm_s = time.perf_counter() - start
    return {
        "setup_s": setup_s,
        "fill_s": fill_s,
        "warm_s": warm_s,
        "modes": dict(modes),
        "digest": digest,
        "records": records,
        "registry": registry,
        "quarantined": quarantined_counts(cache),
        "job_s": jobs,
        "read_s": reads,
        "warm_hashes": sorted(hashes),
        "rss_mb": _peak_rss_mb(),
    }


def task_template(spec: dict, tracer) -> dict:
    """The daemon's record cache: every paper grid plus ``rampage_vl1``."""
    from repro.experiments import Runner

    cache = Path(spec["cache"])
    scale = WORKLOADS["service_mix"]["scale"]
    runner = Runner(_config(scale, spec["seed"], cache))
    runner.prefetch(PLANE_LABELS)
    runner.write_cache_manifest()
    return {"ok": True}


TASKS = {"cold": task_cold, "template": task_template}


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer, install_engine

        tracer = Tracer()
        install_engine(tracer)
    result = TASKS[spec["task"]](spec, tracer)
    if tracer is not None:
        result["trace"] = tracer.dump()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
