"""Sweep scheduler: dedup, coalesce, dispatch, broadcast.

One worker thread drains a bounded admission queue of jobs.  For each
job it:

1. **Dedups** the planned cells against the run-record cache (cells
   already on disk complete immediately as ``mode=cached``) and against
   in-flight work -- a cell being simulated by the current job is never
   dispatched twice, and jobs sharing cells serialize through the cache
   (the later job observes the earlier job's records as hits).
2. **Coalesces** the remainder into miss-plane groups by handing them
   to :class:`~repro.experiments.parallel.ParallelRunner`, whose
   two-phase planner ships one representative per plane group to the
   pool and replays the siblings as timing arithmetic.
3. **Broadcasts** progress: the runner's
   :class:`~repro.core.observe.EventLog` is subscribed and every
   ``cell_completed`` payload is journalled to the
   :class:`~repro.service.jobs.JobStore` and fanned out to SSE
   subscribers.

Backpressure is explicit: when ``queued + running`` jobs reach
``queue_limit``, :meth:`SweepScheduler.submit` raises
:class:`BackpressureError`, which the HTTP layer maps to ``429`` with a
``Retry-After`` header.  Submissions of *existing* jobs never count
against the limit -- idempotent resubmission must stay cheap.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from pathlib import Path

from repro.core.errors import ReproError
from repro.core.observe import EventLog
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import find_record
from repro.service.jobs import (
    FAILED,
    Job,
    JobSpec,
    JobStore,
    PlannedCell,
    job_key,
    plan_cells,
)


class BackpressureError(ReproError):
    """The admission queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SweepScheduler:
    """Owns the worker thread, the admission queue and the SSE fan-out.

    Parameters
    ----------
    store:
        The journalled job registry.
    config:
        Base experiment configuration; its ``cache_dir`` is the cache
        every job's records land in, and per-job knobs override the
        rest via :meth:`JobSpec.experiment_config`.
    workers:
        Pool width handed to each job's :class:`ParallelRunner`.
    queue_limit:
        Maximum queued-plus-running jobs before submissions bounce.
    """

    def __init__(
        self,
        store: JobStore,
        config: ExperimentConfig,
        *,
        workers: int | None = None,
        queue_limit: int = 8,
        retry_after: float = 1.0,
    ) -> None:
        self.store = store
        self.config = config
        self.workers = workers
        self.queue_limit = max(0, int(queue_limit))
        self.retry_after = retry_after
        self._queue: deque[str] = deque()
        self._cond = threading.Condition()
        self._stop = False
        self._thread: threading.Thread | None = None
        self._inflight: set[str] = set()
        self._subscribers: dict[str, list[queue.Queue]] = {}
        self._subs_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> list[Job]:
        """Recover journalled jobs, re-queue them, start the worker."""
        resumed = self.store.recover()
        with self._cond:
            for job in resumed:
                self._queue.append(job.id)
            self._cond.notify()
        self._thread = threading.Thread(
            target=self._worker, name="sweep-scheduler", daemon=True
        )
        self._thread.start()
        return resumed

    def stop(self, timeout: float | None = None) -> None:
        """Graceful drain: finish the running job, keep the rest queued.

        Queued-but-unstarted jobs stay journalled as ``queued``; a
        restarted service resumes them.  The currently executing job
        runs to completion because the worker only observes the stop
        flag between jobs.
        """
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def admission_state(self) -> dict:
        with self._cond:
            queued = len(self._queue)
        return {
            "queued": queued,
            "active": self.store.active_count(),
            "limit": self.queue_limit,
        }

    def dedup_preview(self, cells: list[PlannedCell]) -> dict:
        """How a submission's cells split at admission time."""
        cache_dir = self.config.cache_dir
        # Snapshot under the condition lock: the worker thread swaps
        # ``_inflight`` wholesale around each job, and iterating the
        # live set from the HTTP thread races that swap.
        with self._cond:
            inflight_keys = set(self._inflight)
        cached = inflight = 0
        for cell in cells:
            if cell.key in inflight_keys:
                inflight += 1
            elif (
                cache_dir is not None
                and find_record(cache_dir, cell.key) is not None
            ):
                cached += 1
        return {
            "total": len(cells),
            "cached": cached,
            "inflight": inflight,
            "fresh": len(cells) - cached - inflight,
        }

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Admit one job; returns ``(job, created)``.

        Raises :class:`~repro.core.errors.ConfigurationError` for a bad
        spec and :class:`BackpressureError` when the admission queue is
        full.  Existing jobs are returned without touching the queue.
        """
        cells = plan_cells(spec, self.config)
        with self._cond:
            job, created = self._admit(spec, cells)
            if created:
                self._queue.append(job.id)
                self._cond.notify()
            return job, created

    def _admit(self, spec: JobSpec, cells: list[PlannedCell]) -> tuple[Job, bool]:
        """Store-level submit guarded by the admission bound."""
        existing = self.store.get(job_key(spec, cells))
        if existing is not None and existing.status != FAILED:
            return existing, False
        if self.store.active_count() >= self.queue_limit:
            raise BackpressureError(
                f"admission queue full ({self.queue_limit} jobs)",
                retry_after=self.retry_after,
            )
        return self.store.submit(spec, cells)

    def wait(self, job_id: str, timeout: float | None = None) -> Job | None:
        """Block until ``job_id`` reaches a terminal state.

        Returns the job (in whatever state it reached by the deadline),
        or ``None`` for an unknown id.  The worker notifies the shared
        condition after every job, so waiters wake promptly.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self.store.get(job_id)
                if job is None or job.terminal:
                    return job
                remaining = 0.5
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return job
                self._cond.wait(min(remaining, 0.5))

    # ------------------------------------------------------------------
    # SSE fan-out
    # ------------------------------------------------------------------

    def subscribe(self, job_id: str) -> queue.Queue:
        """A thread-safe queue receiving this job's progress payloads."""
        channel: queue.Queue = queue.Queue()
        with self._subs_lock:
            self._subscribers.setdefault(job_id, []).append(channel)
        return channel

    def unsubscribe(self, job_id: str, channel: queue.Queue) -> None:
        with self._subs_lock:
            channels = self._subscribers.get(job_id, [])
            if channel in channels:
                channels.remove(channel)
            if not channels:
                self._subscribers.pop(job_id, None)

    def _broadcast(self, job_id: str, payload: dict) -> None:
        with self._subs_lock:
            channels = list(self._subscribers.get(job_id, []))
        for channel in channels:
            channel.put(payload)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if self._stop:
                    return  # drain: queued jobs stay journalled
                job_id = self._queue.popleft()
            job = self.store.get(job_id)
            if job is not None and not job.terminal:
                self._execute(job)
            with self._cond:
                self._cond.notify_all()  # wake wait()ers

    def _cell_done(self, job: Job, key: str, mode: str, **extra: object) -> None:
        updated = self.store.record_cell(job.id, key, mode)
        self._broadcast(
            job.id,
            {
                "event": "cell_completed",
                "job": job.id,
                "key": key,
                "mode": mode,
                "done": updated.done,
                "total": updated.total,
                **extra,
            },
        )

    def _execute(self, job: Job) -> None:
        self.store.mark_running(job.id)
        self._broadcast(
            job.id, {"event": "job_running", "job": job.id, "total": job.total}
        )
        cells = plan_cells(job.spec, self.config)
        with self._cond:
            self._inflight = {cell.key for cell in cells}
        events = EventLog(self.config.event_log)

        def on_runner_event(payload: dict) -> None:
            if payload.get("event") == "cell_completed":
                self._cell_done(
                    job,
                    str(payload.get("key")),
                    str(payload.get("mode", "full")),
                    label=payload.get("label"),
                    wall_s=payload.get("wall_s"),
                )

        events.subscribe(on_runner_event)
        try:
            runner = ParallelRunner(
                job.spec.experiment_config(self.config),
                workers=self.workers,
                events=events,
            )
            # Cells already on disk complete immediately -- the dedup
            # against the cache the admission contract promises.
            for cell in cells:
                if runner._lookup(cell.key) is not None:
                    self._cell_done(job, cell.key, "cached")
            runner.prefetch(job.spec.labels)
            done = self.store.mark_completed(job.id)
            self._broadcast(
                job.id,
                {
                    "event": "job_completed",
                    "job": job.id,
                    "done": done.done,
                    "total": done.total,
                    "modes": dict(done.modes),
                },
            )
        except Exception as exc:  # journal the failure; never kill the worker
            failed = self.store.mark_failed(
                job.id, f"{type(exc).__name__}: {exc}"
            )
            self._broadcast(
                job.id,
                {"event": "job_failed", "job": job.id, "error": failed.error},
            )
        finally:
            events.unsubscribe(on_runner_event)
            with self._cond:
                self._inflight = set()

    def record_path(self, key: str) -> Path | None:
        """The on-disk cache file serving ``key``, if caching is on.

        Looks in the sharded layout (``shards/<prefix>/``); ``None``
        when caching is off or the record does not exist.
        """
        if self.config.cache_dir is None:
            return None
        return find_record(self.config.cache_dir, key)
