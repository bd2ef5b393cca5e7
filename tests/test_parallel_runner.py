"""Tests for the parallel sweep engine.

The contract under test: :class:`ParallelRunner` is a drop-in
:class:`Runner` whose worker processes leave *exactly* the same cache
behind as the serial path -- same file names, same bytes -- and which
degrades to in-process execution whenever a pool is pointless or
broken.
"""

import os
from dataclasses import replace

import pytest

import repro.experiments.parallel as parallel_mod
from repro.analysis.runtime import RunRecord
from repro.core.observe import read_events, read_manifest
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    ParallelRunner,
    _simulate_cell,
    _simulate_cell_timed,
)
from repro.experiments.runner import Runner, iter_cache_files
from repro.trace import materialize

LABELS = ("baseline", "rampage")


@pytest.fixture(autouse=True)
def fresh_trace_registry():
    materialize.clear_registry()
    yield
    materialize.clear_registry()


def config(cache_dir):
    return ExperimentConfig(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(10**9,),
        sizes=(128, 1024),
        seed=0,
        cache_dir=cache_dir,
    )


def cache_files(directory):
    return sorted(iter_cache_files(directory))


def test_parallel_matches_serial_byte_for_byte(tmp_path):
    serial = Runner(config(tmp_path / "serial"))
    serial_grids = {label: serial.grid(label) for label in LABELS}

    par = ParallelRunner(config(tmp_path / "par"), workers=4)
    assert par.prefetch(LABELS) == 4
    for label in LABELS:
        grid = par.grid(label)
        for rate in par.config.issue_rates:
            for size in par.config.sizes:
                assert grid.cell(rate, size) == serial_grids[label].cell(
                    rate, size
                )

    a = cache_files(tmp_path / "serial")
    b = cache_files(tmp_path / "par")
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_worker_record_round_trips_to_in_process_json(tmp_path):
    par = ParallelRunner(config(tmp_path), workers=1)
    spec = par.pending_cells(("baseline",))[0]
    worker_dict = _simulate_cell(spec)
    record = par.record(spec.label, spec.params)
    assert record.as_dict() == worker_dict


def test_pending_cells_skip_cached_and_prefetch_drains(tmp_path):
    par = ParallelRunner(config(tmp_path), workers=1)
    pending = par.pending_cells(LABELS)
    assert len(pending) == 4
    assert {spec.label for spec in pending} == set(LABELS)
    par.record(pending[0].label, pending[0].params)
    assert len(par.pending_cells(LABELS)) == 3
    assert par.prefetch(LABELS) == 3
    assert par.pending_cells(LABELS) == []
    assert par.prefetch(LABELS) == 0


def test_pending_cells_survive_runner_restart(tmp_path):
    first = ParallelRunner(config(tmp_path), workers=1)
    first.prefetch(("baseline",))
    # A fresh runner over the same cache dir sees the disk records.
    second = ParallelRunner(config(tmp_path), workers=1)
    assert {spec.label for spec in second.pending_cells(LABELS)} == {"rampage"}


def test_progress_callback_reports_every_cell(tmp_path):
    events = []
    par = ParallelRunner(
        config(tmp_path),
        workers=1,
        progress=lambda done, total, record: events.append(
            (done, total, record.label)
        ),
    )
    par.prefetch(("baseline",))
    assert events == [(1, 2, "baseline"), (2, 2, "baseline")]


def test_pool_failure_degrades_to_in_process(tmp_path, monkeypatch):
    par = ParallelRunner(config(tmp_path), workers=4)
    ran = []

    def boom(pending, total):
        ran.append((len(pending), total))
        raise RuntimeError("pool unavailable")

    monkeypatch.setattr(par, "_prefetch_pool", boom)
    assert par.prefetch(LABELS) == 4
    assert ran == [(4, 4)]
    assert par.pending_cells(LABELS) == []


def test_partial_pool_failure_never_double_fires_progress(tmp_path, monkeypatch):
    """Cells committed (and reported) by the pool before it died must
    not be re-reported by the serial fallback: ``done`` stays monotonic
    and each count fires exactly once over one shared total."""
    events = []
    par = ParallelRunner(
        config(tmp_path),
        workers=4,
        progress=lambda done, total, record: events.append((done, total)),
    )

    committed = []

    def partial_pool(pending, total):
        # Complete one cell the way the real pool does -- store it and
        # fire the progress callback -- then die.
        spec = pending[0]
        record = RunRecord.from_dict(_simulate_cell(spec))
        par._store(spec.key, record)
        par.progress(1, total, record)
        committed.append(spec.key)
        raise RuntimeError("pool died mid-sweep")

    monkeypatch.setattr(par, "_prefetch_pool", partial_pool)
    keys = {spec.key for spec in par.pending_cells(LABELS)}
    assert par.prefetch(LABELS) == 4
    assert len(committed) == 1
    assert events == [(1, 4), (2, 4), (3, 4), (4, 4)]
    # The fallback simulates the other three cells only.
    started = [event["key"] for event in par.events.of("cell_started")]
    assert sorted(started) == sorted(keys - set(committed))
    assert par.pending_cells(LABELS) == []


def test_cell_specs_carry_the_shared_trace_artifact(tmp_path):
    """Workers find the parent's trace artifact through the cache
    directory every spec carries, not through a path of their own."""
    par = ParallelRunner(config(tmp_path), workers=1)
    pending = par.pending_cells(LABELS)
    assert {spec.config.cache_dir for spec in pending} == {tmp_path}
    par._workload()
    (artifact,) = (tmp_path / materialize.TRACE_DIRNAME).iterdir()
    assert artifact.is_dir()


def test_worker_attaches_artifact_without_synthesis(tmp_path, monkeypatch):
    """The warm path: a worker whose cache directory holds the trace
    artifact must never call build_workload -- the whole point of the
    materialized plane."""
    par = ParallelRunner(config(tmp_path), workers=1)
    spec = par.pending_cells(("baseline",))[0]
    par._workload()  # the parent commits the artifact before dispatch
    materialize.clear_registry()  # simulate a fresh worker process

    def no_synthesis(*args, **kwargs):
        raise AssertionError("worker ran trace synthesis on the warm path")

    monkeypatch.setattr(materialize, "build_workload", no_synthesis)
    payload = _simulate_cell(spec)
    assert payload["label"] == "baseline"


def test_worker_falls_back_to_synthesis_on_bad_artifact(tmp_path):
    par = ParallelRunner(config(tmp_path), workers=1)
    spec = par.pending_cells(("baseline",))[0]
    reference = _simulate_cell(spec)
    (artifact,) = (tmp_path / materialize.TRACE_DIRNAME).iterdir()
    (artifact / materialize.KINDS_NAME).write_bytes(b"torn")
    materialize.clear_registry()
    assert _simulate_cell(spec) == reference
    quarantined = [
        path.name
        for path in (tmp_path / materialize.TRACE_DIRNAME).iterdir()
        if materialize.QUARANTINE_SUFFIX in path.name
    ]
    assert quarantined == [artifact.name + materialize.QUARANTINE_SUFFIX]


def test_without_cache_dir_workers_get_no_artifact():
    """Without a cache directory no artifact or plane can cross the
    process boundary: specs carry none and every pending cell -- plane
    siblings included -- ships to the pool."""
    cfg = ExperimentConfig(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(2 * 10**8, 10**9),
        sizes=(128,),
        cache_dir=None,
    )
    par = ParallelRunner(cfg, workers=1)
    pending = par.pending_cells(LABELS)
    assert all(spec.config.cache_dir is None for spec in pending)
    pool_specs, deferred = par._plan_pool(pending)
    assert pool_specs == pending
    assert deferred == []


def test_pool_plan_records_one_representative_per_plane_group(tmp_path):
    cfg = ExperimentConfig(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(2 * 10**8, 10**9),
        sizes=(128,),
        cache_dir=tmp_path,
    )
    par = ParallelRunner(cfg, workers=2)
    pending = par.pending_cells(LABELS)
    pool_specs, deferred = par._plan_pool(pending)
    assert [spec.label for spec in pool_specs] == list(LABELS)
    assert all(spec.plane_key is not None for spec in pool_specs)
    assert [spec.label for spec in deferred] == list(LABELS)
    assert len(pool_specs) + len(deferred) == len(pending)


def test_worker_timed_wraps_untimed(tmp_path):
    par = ParallelRunner(config(tmp_path), workers=1)
    spec = par.pending_cells(("baseline",))[0]
    payload, wall_s = _simulate_cell_timed(spec)
    assert payload == _simulate_cell(spec)
    assert wall_s > 0


def test_pool_workers_log_their_plane_events(tmp_path):
    """A pool worker records its plane group's representative and
    appends the ``plane_recorded`` event to the configured event log
    itself; the serial runner logs the same plane keys."""

    def probe(name):
        return replace(
            config(tmp_path / name),
            scale=0.00002,
            issue_rates=(2 * 10**8, 10**9),
            sizes=(512, 1024),
            event_log=tmp_path / f"{name}.jsonl",
        )

    def plane_events(name):
        return [
            event
            for event in read_events(tmp_path / f"{name}.jsonl")
            if event["event"] == "plane_recorded"
        ]

    Runner(probe("serial")).prefetch(LABELS)
    ParallelRunner(probe("pool"), workers=2).prefetch(LABELS)
    serial, pool = plane_events("serial"), plane_events("pool")
    assert len(pool) == 4
    assert os.getpid() not in {event["pid"] for event in pool}
    assert sorted(event["key"] for event in pool) == sorted(
        event["key"] for event in serial
    )


def test_prefetch_emits_sweep_events_and_manifest(tmp_path):
    par = ParallelRunner(config(tmp_path), workers=1)
    assert par.prefetch(LABELS) == 4
    started = par.events.of("sweep_started")
    completed = par.events.of("sweep_completed")
    assert len(started) == len(completed) == 1
    assert started[0]["pending"] == 4
    assert completed[0]["cells"] == 4
    assert completed[0]["wall_s"] > 0
    assert len(par.events.of("cell_completed")) == 4
    manifest = read_manifest(tmp_path)
    assert manifest["entries"] == 4
    assert manifest["cache"]["stores"] == 4
    assert manifest["cache"]["quarantined"] == 0


def test_single_worker_never_builds_a_pool(tmp_path, monkeypatch):
    # Poison the pool constructor: any attempt to use it would raise.
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", None)
    par = ParallelRunner(config(tmp_path), workers=1)
    assert par.prefetch(LABELS) == 4
    assert par.pending_cells(LABELS) == []


def test_default_worker_count_is_cpu_count(tmp_path):
    par = ParallelRunner(config(tmp_path))
    assert par.workers == (os.cpu_count() or 1)


@pytest.mark.parametrize("workers", [0, -1, -8])
def test_invalid_worker_count_is_rejected_up_front(tmp_path, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        ParallelRunner(config(tmp_path), workers=workers)
