"""Durable sweep jobs: idempotent keys, an append-only journal, recovery.

A *job* is one sweep request -- a set of grid labels plus the workload
knobs (scale, slice, rates, sizes, seed) that pin its cells.  Jobs are
**idempotent by construction**: the job id is a hash over the sorted
cache keys of the cells the job would simulate, so submitting the same
grid twice yields the same job, not a second sweep.

Durability comes from an **append-only JSONL journal** under the
service state directory.  Every state transition is one line::

    {"op": "submit", "id": ..., "spec": {...}, "cells": [...]}
    {"op": "start",  "id": ...}
    {"op": "cell",   "id": ..., "key": ..., "mode": ...}
    {"op": "done",   "id": ...}   /   {"op": "fail", "id": ..., "error": ...}

On restart :meth:`JobStore.recover` replays the journal: jobs without a
terminal op come back ``queued`` and are re-executed.  Cells completed
before a crash live in the run-record cache, so a resumed job finishes
them as cache hits -- the journal only has to remember *that* the job
was accepted, never simulation state.  A torn trailing line (``kill
-9`` mid-append) is skipped, the same policy as
:func:`repro.core.observe.read_events`.

One process writes the journal: the daemon's threads share one
:class:`JobStore`, and its lock orders their appends.  Older
``rampage-job/2`` journals may also hold ``lease``/``release`` lines
from the retired multi-process worker fabric; replay ignores them, as
it ignores any op it does not know.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig, integral, real
from repro.experiments.runner import GRID_BUILDERS, grid_plan
from repro.trace.benchmarks import TABLE2_PROGRAMS

#: Journal schema tag, embedded in every line for forward compatibility.
#: v1 and v2 journals replay alike; v2's ``lease``/``release`` lines are
#: ignored.
JOURNAL_SCHEMA = "rampage-job/2"

JOURNAL_NAME = "journal.jsonl"

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

#: States a job can still make progress from.
ACTIVE_STATES = frozenset({QUEUED, RUNNING})

#: Default grid labels for a submission that names none.
DEFAULT_LABELS = ("baseline", "rampage")

#: Largest job admitted, in estimated references (:func:`job_refs`).
#: The paper's 72-cell grid at scale 0.003 needs 236 M and is admitted;
#: one cell at the paper's full scale (1.0) needs 1.093 G and is
#: refused, because the daemon would hold gigabytes of trace and run
#: tables while simulating it.
MAX_JOB_REFS = 500_000_000


class JobTooLargeError(ConfigurationError):
    """A job's estimated size exceeds :data:`MAX_JOB_REFS` (HTTP 413)."""


def _listed(value, name: str) -> list | tuple:
    """``value`` when it is a list, else a TypeError naming the field."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be a list, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class JobSpec:
    """The sweep a job runs: grid labels plus workload knobs."""

    labels: tuple[str, ...]
    scale: float
    slice_refs: int
    issue_rates: tuple[int, ...]
    sizes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.labels:
            raise ConfigurationError("a job needs at least one grid label")
        unknown = [label for label in self.labels if label not in GRID_BUILDERS]
        if unknown:
            raise ConfigurationError(
                f"unknown grid labels {unknown}; known: {sorted(GRID_BUILDERS)}"
            )

    @classmethod
    def from_request(
        cls, payload: dict, base: ExperimentConfig
    ) -> "JobSpec":
        """Build a spec from an HTTP/CLI payload, defaulting to ``base``.

        Raises :class:`ConfigurationError` on malformed values -- the
        server maps that to a 400, never a crash.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"job spec must be an object, got {type(payload).__name__}"
            )
        try:
            labels = payload.get("labels", DEFAULT_LABELS)
            if isinstance(labels, str):
                labels = labels.split(",")
            # Tolerate surrounding whitespace however the labels arrived
            # ("baseline, rampage" is a label list, not an unknown grid).
            labels = [
                token
                for token in (str(label).strip() for label in _listed(labels, "labels"))
                if token
            ]
            return cls(
                labels=tuple(labels),
                scale=real(payload.get("scale", base.scale), "scale"),
                slice_refs=integral(
                    payload.get("slice_refs", base.slice_refs), "slice_refs"
                ),
                issue_rates=tuple(
                    integral(rate, "rates")
                    for rate in _listed(payload.get("rates", base.issue_rates), "rates")
                ),
                sizes=tuple(
                    integral(size, "sizes")
                    for size in _listed(payload.get("sizes", base.sizes), "sizes")
                ),
                seed=integral(payload.get("seed", base.seed), "seed"),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"malformed job spec: {exc}") from exc

    def experiment_config(self, base: ExperimentConfig) -> ExperimentConfig:
        """The runner configuration for this job over ``base``'s cache."""
        return replace(
            base,
            scale=self.scale,
            slice_refs=self.slice_refs,
            issue_rates=self.issue_rates,
            sizes=self.sizes,
            seed=self.seed,
        )

    def as_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "scale": self.scale,
            "slice_refs": self.slice_refs,
            "rates": list(self.issue_rates),
            "sizes": list(self.sizes),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        return cls(
            labels=tuple(payload["labels"]),
            scale=float(payload["scale"]),
            slice_refs=int(payload["slice_refs"]),
            issue_rates=tuple(int(rate) for rate in payload["rates"]),
            sizes=tuple(int(size) for size in payload["sizes"]),
            seed=int(payload["seed"]),
        )


@dataclass(frozen=True)
class PlannedCell:
    """One grid cell a job will need, with its run-record cache key."""

    key: str
    label: str
    params: object  # MachineParams; opaque here
    issue_rate_hz: int
    size_bytes: int
    kind: str

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "issue_rate_hz": self.issue_rate_hz,
            "size_bytes": self.size_bytes,
            "kind": self.kind,
        }


def plan_cells(spec: JobSpec, base: ExperimentConfig) -> list[PlannedCell]:
    """Enumerate the job's cells, de-duplicated by cache key.

    Reads the runner's cell plan
    (:func:`~repro.experiments.runner.grid_plan`): no workload is
    synthesized and nothing touches the cache.  Deterministic, so
    recovery can re-derive the same plan from the journalled spec.
    """
    config = spec.experiment_config(base)
    cells: list[PlannedCell] = []
    seen: set[str] = set()
    for label in spec.labels:
        for params, key in grid_plan(label, config):
            if key in seen:
                continue
            seen.add(key)
            cells.append(
                PlannedCell(
                    key=key,
                    label=label,
                    params=params,
                    issue_rate_hz=params.issue_rate_hz,
                    size_bytes=params.transfer_unit_bytes,
                    kind=params.kind,
                )
            )
    return cells


def job_refs(spec: JobSpec, cells: list[PlannedCell]) -> int:
    """A job's estimated size: workload references times planned cells."""
    workload = sum(
        program.references_at_scale(spec.scale) for program in TABLE2_PROGRAMS
    )
    return workload * len(cells)


def job_key(spec: JobSpec, cells: list[PlannedCell]) -> str:
    """Idempotent job id, derived from the cells' cache keys.

    Two submissions that would simulate the same cells under the same
    labels are the same job.  Label order is irrelevant; the workload
    knobs are already folded into each cell's cache key.
    """
    blob = ",".join(sorted(spec.labels)) + "|" + ",".join(
        sorted(cell.key for cell in cells)
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


@dataclass
class Job:
    """One journalled sweep job and its progress counters."""

    id: str
    spec: JobSpec
    cells: list[dict] = field(default_factory=list)
    status: str = QUEUED
    done: int = 0
    modes: dict[str, int] = field(default_factory=dict)
    done_keys: set[str] = field(default_factory=set)
    error: str | None = None
    submitted_ts: float = 0.0
    updated_ts: float = 0.0

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def terminal(self) -> bool:
        return self.status not in ACTIVE_STATES

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "spec": self.spec.as_dict(),
            "cells": list(self.cells),
            "total": self.total,
            "done": self.done,
            "modes": dict(self.modes),
            "error": self.error,
            "submitted_ts": self.submitted_ts,
            "updated_ts": self.updated_ts,
        }


class JobStore:
    """Thread-safe job registry backed by the append-only journal."""

    def __init__(self, state_dir: str | Path, *, clock=time.time) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.state_dir / JOURNAL_NAME
        self._clock = clock
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------

    def _journal(self, entry: dict) -> None:
        """Append one journal line and apply it; callers hold the lock.

        The line is flushed before the method returns, so a submission
        is durable before the server acknowledges it (the *commit
        before ack* the crash-recovery contract needs).  The in-memory
        effect goes through :meth:`_apply` -- the same code recovery
        runs -- so live state can never diverge from an in-order replay
        of the journal.
        """
        entry = {"schema": JOURNAL_SCHEMA, "ts": round(self._clock(), 6), **entry}
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
            handle.flush()
        self._apply(entry)

    def _apply(self, entry: dict) -> None:
        """Replay one journal line into the in-memory registry."""
        op = entry.get("op")
        if op == "submit":
            try:
                spec = JobSpec.from_dict(entry["spec"])
            except (KeyError, TypeError, ValueError, ConfigurationError):
                return  # a stale or foreign line must not poison recovery
            job = Job(
                id=entry["id"],
                spec=spec,
                cells=list(entry.get("cells", [])),
                submitted_ts=entry.get("ts", 0.0),
                updated_ts=entry.get("ts", 0.0),
            )
            if job.id not in self._jobs:
                self._order.append(job.id)
            self._jobs[job.id] = job
            return
        job = self._jobs.get(entry.get("id", ""))
        if job is None or op not in ("start", "cell", "done", "fail"):
            return  # unknown job, or an op this store does not write
        job.updated_ts = entry.get("ts", job.updated_ts)
        if op == "start":
            job.status = RUNNING
        elif op == "cell":
            key = entry.get("key")
            if key and key not in job.done_keys:
                job.done_keys.add(key)
                job.done += 1
                mode = entry.get("mode", "full")
                job.modes[mode] = job.modes.get(mode, 0) + 1
        elif op == "done":
            job.status = COMPLETED
            job.error = None
        else:
            job.status = FAILED
            job.error = entry.get("error")

    def recover(self) -> list[Job]:
        """Replay the journal; returns jobs that need to resume.

        Jobs left ``queued`` or ``running`` by a crash come back as
        ``queued`` -- their completed cells are cache hits when the
        scheduler re-executes them, so nothing is simulated twice.
        Resubmitted-after-failure jobs replay to exactly one queued job
        (the later ``submit`` op supersedes the failed incarnation; the
        job id appears in the queue once).
        """
        with self._lock:
            self._repair_torn_tail()
            if self.path.exists():
                text = self.path.read_bytes().decode("utf-8", "replace")
                for line in text.splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn or foreign line must not poison replay
                    if isinstance(entry, dict):
                        self._apply(entry)
            resumable = []
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.status in ACTIVE_STATES:
                    job.status = QUEUED
                    resumable.append(job)
            return resumable

    def _repair_torn_tail(self) -> None:
        """Newline-terminate a torn final line (``kill -9`` mid-append).

        Without the repair the next append would concatenate onto the
        torn fragment and corrupt *two* entries; with it the fragment
        becomes one complete unparseable line that replay skips.
        """
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(size - 1)
            last = handle.read(1)
        if last != b"\n":
            with open(self.path, "ab") as handle:
                handle.write(b"\n")
                handle.flush()

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec, cells: list[PlannedCell]) -> tuple[Job, bool]:
        """Register (or return) the job for ``spec``; journal if new.

        Returns ``(job, created)``.  An existing queued, running or
        completed job is returned untouched -- idempotent submission.
        A previously *failed* job is re-journalled and re-queued.  A
        job larger than :data:`MAX_JOB_REFS` raises
        :class:`JobTooLargeError` and journals nothing.
        """
        refs = job_refs(spec, cells)
        if refs > MAX_JOB_REFS:
            raise JobTooLargeError(
                f"job too large: about {refs:,} references ({len(cells)} "
                f"cells at scale {spec.scale}), limit {MAX_JOB_REFS:,}"
            )
        key = job_key(spec, cells)
        with self._lock:
            existing = self._jobs.get(key)
            if existing is not None and existing.status != FAILED:
                return existing, False
            self._journal(
                {
                    "op": "submit",
                    "id": key,
                    "spec": spec.as_dict(),
                    "cells": [cell.as_dict() for cell in cells],
                }
            )
            return self._jobs[key], True

    def mark_running(self, job_id: str) -> Job:
        with self._lock:
            self._journal({"op": "start", "id": job_id})
            return self._jobs[job_id]

    def record_cell(self, job_id: str, key: str, mode: str) -> Job:
        """Journal one completed cell; de-duplicates by cell key."""
        with self._lock:
            job = self._jobs[job_id]
            if key not in job.done_keys:
                self._journal({"op": "cell", "id": job_id, "key": key, "mode": mode})
            return job

    def mark_completed(self, job_id: str) -> Job:
        with self._lock:
            self._journal({"op": "done", "id": job_id})
            return self._jobs[job_id]

    def mark_failed(self, job_id: str, error: str) -> Job:
        with self._lock:
            self._journal({"op": "fail", "id": job_id, "error": error})
            return self._jobs[job_id]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def active_count(self) -> int:
        """Jobs that still occupy the admission queue (queued/running)."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values() if job.status in ACTIVE_STATES
            )
