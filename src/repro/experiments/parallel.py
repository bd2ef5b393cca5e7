"""Parallel sweep engine: fill the run-record cache with worker processes.

The paper's tables sweep a grid of (issue rate, block/page size) cells
and every cell is an independent simulation, so the sweep is
embarrassingly parallel -- but the serial :class:`Runner` walks it one
cell at a time.  :class:`ParallelRunner` keeps the exact caching
contract (same keys, same JSON bytes on disk) and adds a prefetch stage
that dispatches the *pending* cells -- cache misses only -- to a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism is preserved because every simulation is seeded: a worker
resolves the workload through the same
:func:`~repro.trace.materialize.get_workload` call as every other
process (attaching the parent's committed trace artifact by mmap) and
rebuilds the machine from its :class:`~repro.core.params.MachineParams`,
so a record computed in a subprocess is bit-identical to one computed
in-process (a test asserts byte equality of the cached JSON).

Pending cells that share a structural geometry are grouped by
miss-plane key (:mod:`repro.trace.filter`): one representative per
group is dispatched to the pool with recording on (the worker commits
the plane artifact alongside its record), and the remaining cells of
the group never reach the pool at all -- the parent replays them as
pure timing arithmetic after the pool drains.

Degradation is graceful by design: ``workers=1`` never builds a pool,
and any pool-level failure (fork limits, pickling regressions, a
sandbox without process spawning) falls back to the in-process serial
path rather than failing the sweep.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.analysis.runtime import RunRecord
from repro.core.observe import EventLog
from repro.core.params import MachineParams
from repro.core.timer import ScopedTimer, refs_per_second
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Runner
from repro.systems.simulator import simulate
from repro.trace.filter import (
    PlaneRecorder,
    commit_plane,
    get_plane,
    plane_eligible,
    plane_key,
)
from repro.trace.materialize import get_workload

#: Progress callback: (cells done, cells total, record just completed).
ProgressFn = Callable[[int, int, RunRecord], None]


def default_workers() -> int:
    """The default pool width: one worker per core."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class CellSpec:
    """One pending grid cell, as shipped to a worker process.

    Carries everything a worker needs to reproduce the cell from
    scratch; nothing else crosses the process boundary.
    """

    label: str
    params: MachineParams
    #: The cell's run-record cache key.
    key: str
    #: The runner's configuration: the workload knobs, the cache
    #: directory holding the trace artifact and receiving a recorded
    #: plane (``None`` when caching is off), and the event log.
    config: ExperimentConfig
    #: Miss-plane key to record while simulating (group representative).
    plane_key: str | None = None


def _simulate_cell(spec: CellSpec) -> dict:
    """Worker entry point: one full simulation, as a JSON-ready dict.

    Returns ``RunRecord.as_dict()`` rather than the record itself so the
    parent commits it through the same ``from_dict``/``as_dict``
    round-trip the disk cache uses -- byte-identical JSON either way.
    The workload is memoized per process, so a worker that simulates
    many cells attaches the trace artifact once.  A spec carrying a
    ``plane_key`` is its plane group's representative: the run records
    the group's miss plane and commits the artifact so the parent (and
    sibling cells) can replay instead of simulate.  The worker appends
    its trace and plane events to the configured event log.
    """
    config = spec.config
    events = EventLog(config.event_log)
    programs = get_workload(
        config.scale,
        config.seed,
        cache_dir=config.cache_dir,
        events=events,
        slice_refs=config.slice_refs,
    ).programs
    recorder = None
    if spec.plane_key is not None:
        recorder = PlaneRecorder(spec.plane_key)
    result = simulate(
        spec.params,
        programs,
        slice_refs=config.slice_refs,
        record_plane=recorder,
    )
    if recorder is not None:
        commit_plane(recorder.finalize(), cache_dir=config.cache_dir, events=events)
    record = RunRecord.from_result(
        spec.label, spec.params.transfer_unit_bytes, result
    )
    return record.as_dict()


def _simulate_cell_timed(spec: CellSpec) -> tuple[dict, float]:
    """As :func:`_simulate_cell`, plus the worker-side wall time.

    The parent cannot time parallel cells itself (completions overlap),
    so the per-cell duration crosses the process boundary alongside the
    record dict and feeds the observability events.
    """
    with ScopedTimer() as timer:
        payload = _simulate_cell(spec)
    return payload, timer.elapsed


class ParallelRunner(Runner):
    """Drop-in :class:`Runner` that prefetches grids with a process pool.

    Parameters
    ----------
    config:
        As for :class:`Runner`.
    workers:
        Pool width; ``None`` means one per core.  ``workers=1`` (or a
        single pending cell) runs in-process with no pool at all.
        Anything below 1 is a configuration error and raises
        :class:`ValueError` immediately, before any work is dispatched.
    progress:
        Optional callback invoked after each completed cell with
        ``(done, total, record)``; completion order, not grid order.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        workers: int | None = None,
        progress: ProgressFn | None = None,
        events=None,
    ) -> None:
        super().__init__(config, events=events)
        if workers is None:
            self.workers = default_workers()
        else:
            workers = int(workers)
            if workers < 1:
                raise ValueError(f"workers must be >= 1, got {workers}")
            self.workers = workers
        self.progress = progress

    # ------------------------------------------------------------------
    # Pending-cell enumeration
    # ------------------------------------------------------------------

    def pending_cells(self, labels: Sequence[str]) -> list[CellSpec]:
        """Grid cells of ``labels`` not yet in either cache layer."""
        return [
            CellSpec(label=label, params=params, key=key, config=self.config)
            for label, params, key in self._pending_grid_cells(list(labels))
        ]

    # ------------------------------------------------------------------
    # Prefetch
    # ------------------------------------------------------------------

    def _plan_pool(
        self, pending: list[CellSpec]
    ) -> tuple[list[CellSpec], list[CellSpec]]:
        """Split pending cells into pool work and parent-side replays.

        Cells sharing a miss-plane key need only one full simulation:
        the group's first cell ships to the pool as its *representative*
        (recording the plane), and the rest are deferred -- the parent
        re-prices whole groups via :meth:`Runner._replay_cells` once the
        plane artifacts exist.  Groups whose plane is already on disk
        defer every cell.  The plane must cross the process boundary as
        an on-disk artifact, so without a cache directory (and for
        machines that are not :func:`~repro.trace.filter.plane_eligible`)
        cells ship to the pool unchanged.
        """
        config = self.config
        pool_specs: list[CellSpec] = []
        deferred: list[CellSpec] = []
        represented: set[str] = set()
        for spec in pending:
            if config.cache_dir is None or not plane_eligible(spec.params):
                pool_specs.append(spec)
                continue
            pkey = plane_key(spec.params, config.scale, config.seed, config.slice_refs)
            if pkey in represented:
                deferred.append(spec)
            elif get_plane(pkey, cache_dir=config.cache_dir, events=self.events) is not None:
                represented.add(pkey)
                deferred.append(spec)
            else:
                represented.add(pkey)
                pool_specs.append(replace(spec, plane_key=pkey))
        return pool_specs, deferred

    def prefetch(self, labels: Sequence[str]) -> int:
        """Fill the cache for ``labels``; returns how many cells ran.

        Uses the pool only when it can pay off (more than one pool-bound
        cell and ``workers > 1``); any pool failure degrades to the
        serial in-process path.  Cells the pool already committed (and
        already reported through the progress callback) are skipped in
        the fallback, so neither the work nor the callback repeats and
        ``done`` counts stay monotonic over one shared ``total``.
        Plane-group planning keeps plane-sharing cells out of the pool
        entirely; the serial tail re-prices them group-by-group from
        the representatives' recorded planes, one vectorized
        :func:`~repro.trace.filter.replay_group` call per geometry
        (batched through the plane's
        :class:`~repro.trace.replay_kernel.ReplayKernel` when the
        group is preempting).
        """
        pending = self.pending_cells(labels)
        if not pending:
            return 0
        total = len(pending)
        done = 0
        pool_specs, deferred = self._plan_pool(pending)
        self.events.emit(
            "sweep_started",
            labels=list(labels),
            pending=total,
            pool_cells=len(pool_specs),
            deferred_replays=len(deferred),
            workers=self.workers,
        )
        with ScopedTimer() as timer:
            serial = pending
            if self.workers > 1 and len(pool_specs) > 1:
                if self.config.cache_dir is not None:
                    # Commit the trace artifact before any worker starts,
                    # so workers attach it instead of each synthesizing.
                    self._workload()
                try:
                    self._prefetch_pool(pool_specs, total)
                    serial = deferred
                    done = total - len(deferred)
                except Exception:
                    # Degrade: drop the cells the pool finished before
                    # dying; their progress callbacks already fired.
                    serial = [spec for spec in pending if self._lookup(spec.key) is None]
                    done = total - len(serial)

            def advance(record: RunRecord) -> None:
                nonlocal done
                done += 1
                if self.progress is not None:
                    self.progress(done, total, record)

            self._replay_cells(
                [(spec.label, spec.params, spec.key) for spec in serial],
                on_record=advance,
            )
        self.events.emit(
            "sweep_completed",
            labels=list(labels),
            cells=total,
            wall_s=round(timer.elapsed, 6),
        )
        return total

    def _prefetch_pool(self, pending: list[CellSpec], total: int) -> None:
        done = 0
        with ProcessPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
            futures = {
                pool.submit(_simulate_cell_timed, spec): spec for spec in pending
            }
            for future in as_completed(futures):
                spec = futures[future]
                payload, wall_s = future.result()
                record = RunRecord.from_dict(payload)
                # A cell the pool computed was by definition a miss;
                # the serial path counts these in _finish_cell().
                self.cache_stats.misses += 1
                self._store(spec.key, record)
                self.events.emit(
                    "cell_completed",
                    key=spec.key,
                    label=record.label,
                    mode="recorded" if spec.plane_key is not None else "full",
                    wall_s=round(wall_s, 6),
                    refs_per_s=round(
                        refs_per_second(record.workload_refs, wall_s), 1
                    ),
                )
                done += 1
                if self.progress is not None:
                    self.progress(done, total, record)
