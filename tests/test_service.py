"""Tests for the sweep service's job store and scheduler.

The contracts under test: job keys are idempotent (same cells, same
job), the journal is an append-only source of truth that survives torn
writes and process death, and the scheduler never simulates a cell that
the cache or in-flight work already covers.
"""

import json
import threading

import pytest
from helpers import tree_state

from repro.core.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.service.jobs import (
    COMPLETED,
    FAILED,
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    QUEUED,
    RUNNING,
    JobSpec,
    JobStore,
    job_key,
    plan_cells,
)
from repro.service.scheduler import BackpressureError, SweepScheduler
from repro.trace import materialize


@pytest.fixture(autouse=True)
def fresh_trace_registry():
    materialize.clear_registry()
    yield
    materialize.clear_registry()


def base_config(cache_dir):
    return ExperimentConfig(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(10**9,),
        sizes=(128, 1024),
        seed=0,
        cache_dir=cache_dir,
    )


def spec(labels=("baseline", "rampage"), **overrides):
    fields = dict(
        labels=tuple(labels),
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(10**9,),
        sizes=(128, 1024),
        seed=0,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def journal_entries(store):
    """The journal's parseable lines, skipping torn ones as replay does."""
    entries = []
    for line in store.path.read_text("utf-8").splitlines():
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return entries


def journal_ops(store):
    return [entry["op"] for entry in journal_entries(store)]


# ----------------------------------------------------------------------
# Specs, planning, keys
# ----------------------------------------------------------------------


def test_spec_rejects_unknown_labels_and_empty():
    with pytest.raises(ConfigurationError, match="unknown grid labels"):
        spec(labels=("nope",))
    with pytest.raises(ConfigurationError, match="at least one"):
        spec(labels=())


def test_spec_from_request_defaults_and_round_trip(tmp_path):
    base = base_config(tmp_path)
    parsed = JobSpec.from_request({"labels": "baseline,rampage"}, base)
    assert parsed.labels == ("baseline", "rampage")
    assert parsed.scale == base.scale
    assert parsed.issue_rates == base.issue_rates
    assert JobSpec.from_dict(parsed.as_dict()) == parsed
    with pytest.raises(ConfigurationError, match="malformed"):
        JobSpec.from_request({"scale": "not-a-number"}, base)
    with pytest.raises(ConfigurationError, match="must be an object"):
        JobSpec.from_request([1, 2], base)


def test_plan_cells_dedups_by_cache_key(tmp_path):
    base = base_config(tmp_path)
    cells = plan_cells(spec(), base)
    assert len(cells) == 4  # 2 labels x 1 rate x 2 sizes
    assert len({cell.key for cell in cells}) == 4
    # A duplicated label contributes nothing new.
    doubled = plan_cells(spec(labels=("baseline", "baseline")), base)
    assert len(doubled) == 2


def test_job_key_is_idempotent_and_label_order_insensitive(tmp_path):
    base = base_config(tmp_path)
    a = job_key(spec(), plan_cells(spec(), base))
    b = job_key(
        spec(labels=("rampage", "baseline")),
        plan_cells(spec(labels=("rampage", "baseline")), base),
    )
    assert a == b
    other = spec(seed=1)
    assert job_key(other, plan_cells(other, base)) != a


# ----------------------------------------------------------------------
# JobStore + journal
# ----------------------------------------------------------------------


def test_submit_is_idempotent_and_journals_once(tmp_path):
    base = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state")
    cells = plan_cells(spec(), base)
    job, created = store.submit(spec(), cells)
    again, created_again = store.submit(spec(), cells)
    assert created and not created_again
    assert again is job
    assert journal_ops(store) == ["submit"]
    assert job.total == 4
    assert job.status == QUEUED


def test_failed_jobs_can_be_resubmitted(tmp_path):
    base = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state")
    cells = plan_cells(spec(), base)
    job, _ = store.submit(spec(), cells)
    store.mark_running(job.id)
    store.mark_failed(job.id, "boom")
    assert store.get(job.id).status == FAILED
    retried, created = store.submit(spec(), cells)
    assert created
    assert retried.status == QUEUED
    assert retried.error is None


def test_journal_recovery_round_trips_progress(tmp_path):
    base = base_config(tmp_path / "cache")
    first = JobStore(tmp_path / "state")
    cells = plan_cells(spec(), base)
    job, _ = first.submit(spec(), cells)
    first.mark_running(job.id)
    first.record_cell(job.id, cells[0].key, "full")
    first.record_cell(job.id, cells[0].key, "full")  # dedup by key

    second = JobStore(tmp_path / "state")
    resumed = second.recover()
    assert [item.id for item in resumed] == [job.id]
    recovered = second.get(job.id)
    assert recovered.status == QUEUED  # running at crash -> re-queued
    assert recovered.done == 1
    assert recovered.modes == {"full": 1}
    assert recovered.total == 4


def test_completed_jobs_recover_completed(tmp_path):
    base = base_config(tmp_path / "cache")
    first = JobStore(tmp_path / "state")
    cells = plan_cells(spec(), base)
    job, _ = first.submit(spec(), cells)
    first.mark_running(job.id)
    for cell in cells:
        first.record_cell(job.id, cell.key, "full")
    first.mark_completed(job.id)

    second = JobStore(tmp_path / "state")
    assert second.recover() == []
    recovered = second.get(job.id)
    assert recovered.status == COMPLETED
    assert recovered.done == recovered.total == 4


def test_recovery_skips_torn_trailing_line_and_garbage(tmp_path):
    base = base_config(tmp_path / "cache")
    first = JobStore(tmp_path / "state")
    job, _ = first.submit(spec(), plan_cells(spec(), base))
    with open(first.path, "a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
        handle.write('{"op": "cell", "id": "' + job.id)  # kill -9 mid-append

    second = JobStore(tmp_path / "state")
    resumed = second.recover()
    assert [item.id for item in resumed] == [job.id]
    assert second.get(job.id).done == 0


def test_torn_tail_is_sealed_before_new_appends(tmp_path):
    base = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state")
    baseline = spec(("baseline",))
    job, _ = store.submit(baseline, plan_cells(baseline, base))
    with open(store.path, "a", encoding="utf-8") as handle:
        handle.write('{"op": "cell", "id": "' + job.id)  # kill -9 mid-append

    second = JobStore(tmp_path / "state")
    second.recover()
    second.mark_running(job.id)
    # The torn fragment became one complete bad line; the new op parses.
    assert journal_ops(second) == ["submit", "start"]
    third = JobStore(tmp_path / "state")
    third.recover()
    assert third.get(job.id).status == "queued"  # running at crash
    assert third.get(job.id).done == 0


def test_v1_journal_without_lease_ops_still_replays(tmp_path):
    """A v2 journal holding the ``lease``/``release`` lines (and the
    cells' ``label``/``wall_s`` fields) that the retired worker fabric
    wrote, and the same journal as v1 without them, recover the same
    jobs, statuses and counters."""
    base = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state")
    done_spec, open_spec = spec(("baseline",)), spec(("rampage",))
    done_cells = plan_cells(done_spec, base)
    open_cells = plan_cells(open_spec, base)
    finished, _ = store.submit(done_spec, done_cells)
    interrupted, _ = store.submit(open_spec, open_cells)

    def op(name, job_id, **fields):
        return {"schema": JOURNAL_SCHEMA, "ts": 1.0, "op": name, "id": job_id, **fields}

    def lease(name, job_id, group, worker):
        extra = {"expires_ts": 61.0} if name == "lease" else {}
        return op(name, job_id, group=group, worker=worker, **extra)

    def cell(job_id, planned, mode):
        return op("cell", job_id, key=planned.key, mode=mode, label=planned.label,
                  wall_s=0.5)

    v2 = journal_entries(store)
    for job_id, cells in ((finished.id, done_cells), (interrupted.id, open_cells)):
        v2 += [
            op("start", job_id),
            lease("lease", job_id, "g0", "w0"),
            cell(job_id, cells[0], "recorded"),
            lease("release", job_id, "g0", "w0"),
            lease("lease", job_id, "g1", "w1"),  # never released: killed
        ]
    v2 += [
        cell(finished.id, done_cells[1], "replayed"),
        lease("release", finished.id, "g1", "w1"),
        op("done", finished.id),
    ]
    v1 = [
        {key: value for key, value in entry.items() if key not in ("label", "wall_s")}
        | {"schema": "rampage-job/1"}
        for entry in v2
        if entry["op"] not in ("lease", "release")
    ]

    recovered = []
    for name, entries in (("v1", v1), ("v2", v2)):
        (tmp_path / name).mkdir()
        (tmp_path / name / JOURNAL_NAME).write_text(
            "".join(json.dumps(entry) + "\n" for entry in entries), "utf-8"
        )
        replayed = JobStore(tmp_path / name)
        assert [job.id for job in replayed.recover()] == [interrupted.id]
        recovered.append(
            [(job.id, job.status, job.done, job.modes) for job in replayed.jobs()]
        )
    assert recovered[0] == recovered[1] == [
        (finished.id, COMPLETED, 2, {"recorded": 1, "replayed": 1}),
        (interrupted.id, QUEUED, 1, {"recorded": 1}),
    ]


# ----------------------------------------------------------------------
# Scheduler: dedup, coalescing, recovery, backpressure
# ----------------------------------------------------------------------


def make_scheduler(tmp_path, **kwargs):
    store = JobStore(tmp_path / "state")
    scheduler = SweepScheduler(
        store, base_config(tmp_path / "cache"), workers=1, **kwargs
    )
    return store, scheduler


def test_scheduler_executes_job_and_counts_modes(tmp_path):
    store, scheduler = make_scheduler(tmp_path)
    scheduler.start()
    try:
        job, created = scheduler.submit(spec())
        assert created
        final = scheduler.wait(job.id, timeout=120)
        assert final.status == COMPLETED
        assert final.done == final.total == 4
        # Two-phase coalescing: one recorded representative per plane
        # group, no unplaned full simulations.
        assert final.modes.get("full", 0) == 0
        assert sum(final.modes.values()) == 4
    finally:
        scheduler.stop(timeout=30)


def test_scheduler_reports_replayed_mode_for_sibling_cells(tmp_path):
    """A preempting (switch-on-miss) grid swept across issue rates
    records one plane-group representative and re-prices the sibling as
    ``mode=replayed`` -- and both modes surface in the job's counts."""
    store, scheduler = make_scheduler(tmp_path)
    scheduler.start()
    try:
        job, created = scheduler.submit(
            spec(
                labels=("rampage_som",),
                issue_rates=(2 * 10**8, 10**9),
                sizes=(1024,),
            )
        )
        assert created
        final = scheduler.wait(job.id, timeout=120)
        assert final.status == COMPLETED
        assert final.modes == {"recorded": 1, "replayed": 1}
    finally:
        scheduler.stop(timeout=30)


def test_duplicate_submit_reuses_the_completed_job(tmp_path):
    store, scheduler = make_scheduler(tmp_path)
    scheduler.start()
    try:
        job, _ = scheduler.submit(spec())
        scheduler.wait(job.id, timeout=120)
        ops_before = journal_ops(store)
        again, created = scheduler.submit(spec())
        assert not created
        assert again.id == job.id
        assert again.status == COMPLETED
        # Zero new journal activity => zero new simulations.
        assert journal_ops(store) == ops_before
    finally:
        scheduler.stop(timeout=30)


def test_overlapping_grid_is_served_entirely_from_cache(tmp_path):
    """Scheduler dedup: a second job whose cells are a subset of an
    earlier job's completes with zero ``full``/``recorded`` cells --
    every cell is a cache hit -- and writes nothing under the cache
    directory, not even the manifest."""
    store, scheduler = make_scheduler(tmp_path)
    scheduler.start()
    try:
        first, _ = scheduler.submit(spec())
        scheduler.wait(first.id, timeout=120)
        before = tree_state(tmp_path / "cache")
        subset, created = scheduler.submit(spec(labels=("baseline",)))
        assert created and subset.id != first.id
        final = scheduler.wait(subset.id, timeout=120)
        assert final.status == COMPLETED
        assert final.modes == {"cached": 2}
        assert tree_state(tmp_path / "cache") == before
    finally:
        scheduler.stop(timeout=30)


def test_journal_crash_recovery_resumes_without_resimulating(tmp_path):
    """Acceptance: kill between commit and ack.  The run records hit
    the cache but the journal never saw the cell/done ops (its tail is
    the torn ack).  On restart the job resumes and finishes entirely
    from the cache -- zero ``mode=full`` cells."""
    store, scheduler = make_scheduler(tmp_path)
    scheduler.start()
    job, _ = scheduler.submit(spec())
    assert scheduler.wait(job.id, timeout=120).status == COMPLETED
    scheduler.stop(timeout=30)

    # Rewind the journal to just the submission -- everything after the
    # commit of the records is lost, as after a SIGKILL mid-ack.
    lines = store.path.read_text("utf-8").splitlines()
    submit_line = next(
        line for line in lines if json.loads(line)["op"] == "submit"
    )
    store.path.write_text(submit_line + "\n", "utf-8")

    store2 = JobStore(tmp_path / "state")
    scheduler2 = SweepScheduler(
        store2, base_config(tmp_path / "cache"), workers=1
    )
    resumed = scheduler2.start()
    try:
        assert [item.id for item in resumed] == [job.id]
        final = scheduler2.wait(job.id, timeout=120)
        assert final.status == COMPLETED
        assert final.done == final.total == 4
        # Every cell came back from the record cache; nothing re-ran.
        assert final.modes == {"cached": 4}
    finally:
        scheduler2.stop(timeout=30)


def test_backpressure_bounds_the_admission_queue(tmp_path):
    store, scheduler = make_scheduler(tmp_path, queue_limit=1)
    gate = threading.Event()
    release = threading.Event()

    def blocked_execute(job):
        store.mark_running(job.id)
        gate.set()
        release.wait(30)
        store.mark_completed(job.id)

    scheduler._execute = blocked_execute
    scheduler.start()
    try:
        first, created = scheduler.submit(spec())
        assert created
        assert gate.wait(10)
        assert store.get(first.id).status == RUNNING
        # The queue is full; a *new* job bounces with retry advice...
        with pytest.raises(BackpressureError) as excinfo:
            scheduler.submit(spec(seed=1))
        assert excinfo.value.retry_after > 0
        # ...but resubmitting the in-flight job stays idempotent.
        again, created_again = scheduler.submit(spec())
        assert not created_again and again.id == first.id
        release.set()
        assert scheduler.wait(first.id, timeout=30).status == COMPLETED
        second, created = scheduler.submit(spec(seed=1))
        assert created
        assert scheduler.wait(second.id, timeout=30).status == COMPLETED
    finally:
        release.set()
        scheduler.stop(timeout=30)


def test_failed_jobs_are_journalled_not_fatal(tmp_path):
    store, scheduler = make_scheduler(tmp_path)

    def exploding_execute(job):
        store.mark_running(job.id)
        raise RuntimeError("simulator exploded")

    def execute_with_failure(job):
        try:
            exploding_execute(job)
        except Exception as exc:
            store.mark_failed(job.id, str(exc))

    scheduler._execute = execute_with_failure
    scheduler.start()
    try:
        job, _ = scheduler.submit(spec())
        final = scheduler.wait(job.id, timeout=30)
        assert final.status == FAILED
        assert "exploded" in final.error
        # The worker thread survived; a healthy job still runs.
        del scheduler._execute  # restore the real implementation
        retried, created = scheduler.submit(spec())
        assert created and retried.id == job.id
        assert scheduler.wait(job.id, timeout=120).status == COMPLETED
    finally:
        scheduler.stop(timeout=30)


def test_scheduler_real_failure_path_marks_failed(tmp_path, monkeypatch):
    store, scheduler = make_scheduler(tmp_path)
    monkeypatch.setattr(
        "repro.service.scheduler.ParallelRunner",
        lambda *args, **kwargs: (_ for _ in ()).throw(RuntimeError("no pool")),
    )
    scheduler.start()
    try:
        job, _ = scheduler.submit(spec())
        final = scheduler.wait(job.id, timeout=30)
        assert final.status == FAILED
        assert "no pool" in final.error
    finally:
        scheduler.stop(timeout=30)


def test_dedup_preview_classifies_cells(tmp_path):
    store, scheduler = make_scheduler(tmp_path)
    cells = plan_cells(spec(), scheduler.config)
    preview = scheduler.dedup_preview(cells)
    assert preview == {"total": 4, "cached": 0, "inflight": 0, "fresh": 4}
    scheduler.start()
    try:
        job, _ = scheduler.submit(spec())
        scheduler.wait(job.id, timeout=120)
    finally:
        scheduler.stop(timeout=30)
    preview = scheduler.dedup_preview(cells)
    assert preview == {"total": 4, "cached": 4, "inflight": 0, "fresh": 0}


def test_graceful_stop_leaves_queued_jobs_resumable(tmp_path):
    store, scheduler = make_scheduler(tmp_path)
    # Never start the worker: submissions stay queued, as they would if
    # SIGTERM landed before the worker picked them up.
    job, _ = scheduler.submit(spec())
    scheduler.stop(timeout=5)
    store2 = JobStore(tmp_path / "state")
    resumed = store2.recover()
    assert [item.id for item in resumed] == [job.id]
    assert store2.get(job.id).status == QUEUED


# ----------------------------------------------------------------------
# PR-7 concurrency and input-handling regressions
# ----------------------------------------------------------------------


def test_from_request_strips_label_whitespace(tmp_path):
    base = base_config(tmp_path)
    # "baseline, rampage" is a label list with breathing room, not an
    # unknown grid called " rampage".
    parsed = JobSpec.from_request({"labels": "baseline, rampage"}, base)
    assert parsed.labels == ("baseline", "rampage")
    parsed = JobSpec.from_request(
        {"labels": ["  baseline ", "rampage", " "]}, base
    )
    assert parsed.labels == ("baseline", "rampage")
    with pytest.raises(ConfigurationError, match="at least one"):
        JobSpec.from_request({"labels": " , ,"}, base)


def test_dedup_preview_is_safe_against_concurrent_execution(tmp_path):
    """Hammer submit/preview concurrently: the preview must snapshot
    ``_inflight`` under the scheduler lock, never iterate the live set
    the worker thread is swapping."""
    store, scheduler = make_scheduler(tmp_path)
    cells = plan_cells(spec(), scheduler.config)
    errors = []
    done = threading.Event()

    def hammer():
        while not done.is_set():
            try:
                preview = scheduler.dedup_preview(cells)
            except RuntimeError as exc:  # set changed size during iteration
                errors.append(exc)
                return
            total = (
                preview["cached"] + preview["inflight"] + preview["fresh"]
            )
            if total != preview["total"]:
                errors.append(AssertionError(preview))
                return

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    scheduler.start()
    try:
        job, _ = scheduler.submit(spec())
        scheduler.wait(job.id, timeout=120)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=10)
        scheduler.stop(timeout=30)
    assert errors == []


def test_failed_resubmit_recovers_to_exactly_one_queued_job(tmp_path):
    """A journal holding submit/fail/submit for one id replays to one
    queued job -- no double-queue, no duplicate id in the registry."""
    base = base_config(tmp_path / "cache")
    first = JobStore(tmp_path / "state")
    cells = plan_cells(spec(), base)
    job, _ = first.submit(spec(), cells)
    first.mark_running(job.id)
    first.record_cell(job.id, cells[0].key, "full")
    first.mark_failed(job.id, "boom")
    retried, created = first.submit(spec(), cells)
    assert created and retried.id == job.id
    assert journal_ops(first).count("submit") == 2

    second = JobStore(tmp_path / "state")
    resumed = second.recover()
    assert [item.id for item in resumed] == [job.id]  # exactly once
    assert [item.id for item in second.jobs()] == [job.id]
    recovered = second.get(job.id)
    assert recovered.status == QUEUED
    assert recovered.error is None
    # The failed incarnation's progress was superseded by the resubmit.
    assert recovered.done == 0

    # The scheduler re-queues it exactly once too: no duplicate
    # execution, no duplicate SSE terminal event.
    scheduler = SweepScheduler(
        JobStore(tmp_path / "state"),
        base_config(tmp_path / "cache"),
        workers=1,
    )
    channel = scheduler.subscribe(job.id)
    resumed = scheduler.start()
    try:
        assert [item.id for item in resumed] == [job.id]
        final = scheduler.wait(job.id, timeout=120)
        assert final.status == COMPLETED
    finally:
        scheduler.stop(timeout=30)
    events = []
    while not channel.empty():
        events.append(channel.get_nowait()["event"])
    assert events.count("job_completed") == 1
    assert events.count("job_running") == 1
