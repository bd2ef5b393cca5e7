"""Scale-out sweep fabric: lease-based multi-process sweep workers.

The service's journal (:mod:`repro.service.jobs`) doubles as a work
ledger: ``rampage-job/2`` adds ``lease``/``release`` ops so *worker
processes* can claim work directly from the journal instead of routing
everything through the daemon's single scheduler thread.  A worker:

1. :meth:`~repro.service.jobs.JobStore.tail`-s the shared journal to
   see jobs and other workers' progress,
2. plans the job's cells into deterministic **work groups** -- one per
   miss-plane group (so whole-group vectorized re-pricing stays intact
   across the process boundary), one per ungrouped cell,
3. leases a group (``flock``-arbitrated, expiry-carrying), executes it
   through the ordinary serial :class:`~repro.experiments.runner.Runner`
   (records land in the sharded run-record cache with the same atomic
   commits, so results are byte-identical to a serial run), journals
   each finished cell, releases the lease,
4. marks the job completed once every cell key is journalled done.

Crash safety falls out of the lease expiry: a worker killed mid-group
simply stops renewing, the lease lapses, and any peer reclaims the
group -- finished cells are cache hits, the interrupted cell re-runs
to the identical bytes.

``python -m repro.service.fabric --state-dir ... --cache-dir ...``
runs one worker; the daemon (``rampage-sim serve --fabric N``) spawns
N of them per job and bridges their journal entries to SSE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.observe import EventLog
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Runner
from repro.service.jobs import (
    DEFAULT_LEASE_TTL_S,
    QUEUED,
    Job,
    JobSpec,
    JobStore,
    PlannedCell,
    plan_cells,
)
from repro.trace.filter import plane_eligible, plane_key, registry_stats

#: Default seconds a worker sleeps when it finds nothing claimable.
DEFAULT_POLL_S = 0.05


@dataclass(frozen=True)
class WorkGroup:
    """One leasable unit of work: the cells of a single miss-plane group.

    The group id is content-derived (a hash over the member cache keys),
    so every worker planning the same journalled spec derives the same
    ids -- leases taken by one process are meaningful to all.
    """

    gid: str
    cells: tuple[PlannedCell, ...]

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(cell.key for cell in self.cells)


def group_id(keys) -> str:
    """Deterministic work-group id over member cache keys."""
    blob = ",".join(sorted(keys))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def plan_groups(spec: JobSpec, base: ExperimentConfig) -> list[WorkGroup]:
    """Split a job's cells into leasable work groups, deterministically.

    Plane-eligible cells bucket by miss-plane key -- leasing the whole
    group to one worker preserves the record-one-replay-the-rest
    economics of :meth:`Runner._replay_cells` (splitting a group across
    workers would re-record the plane N times for nothing).  Everything
    else becomes a single-cell group, and so does every cell when there
    is no cache directory to share planes through.  Derived purely from
    the journalled spec, so recovery and every peer replan identically.
    """
    cells = plan_cells(spec, base)
    config = spec.experiment_config(base)
    buckets: dict[str, list[PlannedCell]] = {}
    order: list[str] = []
    for cell in cells:
        if config.cache_dir is not None and plane_eligible(cell.params):
            bucket = "plane:" + plane_key(
                cell.params, config.scale, config.seed, config.slice_refs
            )
        else:
            bucket = "cell:" + cell.key
        if bucket not in buckets:
            order.append(bucket)
        buckets.setdefault(bucket, []).append(cell)
    return [
        WorkGroup(
            gid=group_id(cell.key for cell in buckets[bucket]),
            cells=tuple(buckets[bucket]),
        )
        for bucket in order
    ]


def _execute_group(
    store: JobStore, runner: Runner, job: Job, group: WorkGroup
) -> int:
    """Run one leased group's pending cells; journal each completion.

    Cells already journalled done are skipped; cells already on disk
    (a crashed predecessor got that far) complete as ``cached``.  The
    rest go through :meth:`Runner._replay_cells`, which records one
    representative per plane group and re-prices the siblings -- the
    exact serial path, so the record bytes cannot differ.
    """
    done = set(job.done_keys)
    todo: list[PlannedCell] = []
    recorded = 0
    for cell in group.cells:
        if cell.key in done:
            continue
        if runner._lookup(cell.key) is not None:
            store.record_cell(job.id, cell.key, "cached", label=cell.label)
            recorded += 1
            continue
        todo.append(cell)
    if not todo:
        return recorded
    wanted = {cell.key for cell in todo}

    def on_runner_event(payload: dict) -> None:
        if payload.get("event") != "cell_completed":
            return
        key = str(payload.get("key"))
        if key in wanted:
            store.record_cell(
                job.id,
                key,
                str(payload.get("mode", "full")),
                label=payload.get("label"),
                wall_s=payload.get("wall_s"),
            )

    runner.events.subscribe(on_runner_event)
    try:
        runner._replay_cells([(cell.label, cell.params, cell.key) for cell in todo])
    finally:
        runner.events.unsubscribe(on_runner_event)
    return recorded + len(todo)


def run_worker(
    state_dir: str | Path,
    config: ExperimentConfig,
    worker_id: str,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = DEFAULT_POLL_S,
    hold_after_claim: float = 0.0,
    job_filter: set[str] | None = None,
) -> dict:
    """Drain the journal's active jobs; returns execution counters.

    Loops claiming and executing work groups until every targeted job
    (``job_filter``, or all journalled jobs) is terminal.  Groups whose
    lease another worker holds are skipped and retried after ``poll_s``
    -- their cells arrive through the journal when the peer finishes.
    ``hold_after_claim`` is a test hook: sleep that long after each
    claim so a harness can ``SIGKILL`` the worker mid-lease.

    The returned counters include a ``plane_registry`` snapshot: jobs
    sharing a plane group hit the worker's in-process LRU registry
    instead of re-loading and re-validating the artifact per job, and
    the hit/miss/eviction mix shows whether the byte budget fits the
    job stream.
    """
    store = JobStore(state_dir)
    store.recover()
    events = EventLog(config.event_log)
    runners: dict[str, Runner] = {}
    stats = {"worker": worker_id, "groups": 0, "cells": 0, "denied": 0}
    while True:
        store.tail()
        jobs = [
            job
            for job in store.jobs()
            if job_filter is None or job.id in job_filter
        ]
        active = [job for job in jobs if not job.terminal]
        if not active:
            if jobs or job_filter is None:
                stats["plane_registry"] = registry_stats()
                return stats
            time.sleep(poll_s)  # targeted job not journalled yet
            continue
        progressed = False
        for job in active:
            runner = runners.get(job.id)
            if runner is None:
                runner = Runner(
                    job.spec.experiment_config(config), events=events
                )
                runners[job.id] = runner
            groups = plan_groups(job.spec, config)
            pending = [
                group
                for group in groups
                if any(key not in job.done_keys for key in group.keys)
            ]
            if not pending:
                current = store.get(job.id)
                if current is not None and not current.terminal:
                    store.mark_completed(job.id)
                progressed = True
                continue
            for group in pending:
                if not store.claim_group(
                    job.id, group.gid, worker_id, ttl=lease_ttl
                ):
                    stats["denied"] += 1
                    continue
                current = store.get(job.id)
                if current is None or current.terminal:
                    store.release_group(job.id, group.gid, worker_id)
                    continue
                if current.status == QUEUED:
                    store.mark_running(job.id)
                if hold_after_claim > 0:
                    time.sleep(hold_after_claim)
                try:
                    stats["cells"] += _execute_group(
                        store, runner, store.get(job.id), group
                    )
                except Exception as exc:  # journal, don't kill the fabric
                    store.mark_failed(job.id, f"{type(exc).__name__}: {exc}")
                    store.release_group(job.id, group.gid, worker_id)
                    progressed = True
                    break
                store.release_group(job.id, group.gid, worker_id)
                stats["groups"] += 1
                progressed = True
        if not progressed:
            time.sleep(poll_s)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.fabric",
        description="One lease-based sweep fabric worker.",
    )
    parser.add_argument("--state-dir", required=True, help="service state dir")
    parser.add_argument("--cache-dir", required=True, help="run-record cache")
    parser.add_argument("--worker-id", required=True, help="lease owner id")
    parser.add_argument(
        "--job",
        action="append",
        default=None,
        help="drain only this job id (repeatable; default: all journalled)",
    )
    parser.add_argument(
        "--ttl", type=float, default=DEFAULT_LEASE_TTL_S, help="lease TTL (s)"
    )
    parser.add_argument(
        "--poll", type=float, default=DEFAULT_POLL_S, help="idle poll (s)"
    )
    parser.add_argument(
        "--hold-after-claim",
        type=float,
        default=0.0,
        help="test hook: sleep this long after each claim",
    )
    args = parser.parse_args(argv)
    config = replace(
        ExperimentConfig.from_env(), cache_dir=Path(args.cache_dir)
    )
    stats = run_worker(
        args.state_dir,
        config,
        args.worker_id,
        lease_ttl=args.ttl,
        poll_s=args.poll,
        hold_after_claim=args.hold_after_claim,
        job_filter=set(args.job) if args.job else None,
    )
    print(json.dumps(stats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
