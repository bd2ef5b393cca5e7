"""Cached experiment runner.

Tables 3-5 sweep the same axes and Figures 2-5 are different views of
those sweeps, so the runner memoises every simulation as a
:class:`~repro.analysis.runtime.RunRecord`, keyed by the *complete*
machine description plus workload parameters.  Records persist as one
JSON file per cell under the configured cache directory; re-rendering a
figure from table data costs nothing.

The disk cache is crash-safe and integrity-checked, because parallel
sweeps (:mod:`repro.experiments.parallel`) let multiple processes share
one cache directory:

* **Atomic commits** -- records are written to a temp file in the cache
  directory, fsynced, then ``os.replace``d into place, so a reader can
  never observe a torn ``<key>.json``.
* **Envelope format** -- each file carries a schema tag, the workload
  version and a SHA-256 checksum of the record payload
  (:data:`CACHE_SCHEMA`, :func:`encode_cache_entry`).
* **Quarantine, never crash** -- a file that fails decoding or
  validation is a cache *miss*: it is renamed to ``<key>.json.corrupt``
  for post-mortem, a structured event is logged, and the cell is
  recomputed.  ``rampage-sim cache verify`` reports quarantined and
  corrupt files; ``rampage-sim cache purge`` clears them.

Grid labels (the hierarchies the paper compares):

=================  ====================================================
label              machine
=================  ====================================================
``baseline``       direct-mapped L2, no context-switch modelling
``rampage``        RAMpage, no context switches (Table 3 rows)
``rampage_som``    RAMpage with context switches on misses (Table 4)
``rampage_vl1``    RAMpage with virtually-addressed L1s (section 2.3)
``twoway``         2-way L2 with scheduled switch traces (Table 5)
=================  ====================================================
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

from repro.analysis.runtime import RunGrid, RunRecord
from repro.core.errors import CacheIntegrityError, ConfigurationError
from repro.core.observe import (
    CacheStats,
    EventLog,
    atomic_write_text,
    write_manifest,
)
from repro.core.params import MachineParams
from repro.core.timer import ScopedTimer, refs_per_second
from repro.experiments.config import ExperimentConfig
from repro.systems.factory import (
    baseline_machine,
    rampage_machine,
    twoway_machine,
    virtual_l1_machine,
)
from repro.systems.simulator import simulate
from repro.trace.artifacts import (
    QUARANTINE_SUFFIX,
    WORKLOAD_VERSION,
    parse_envelope,
)
from repro.trace.artifacts import json_checksum as record_checksum
from repro.trace.filter import (
    MissPlane,
    PlaneRecorder,
    PlaneReplayError,
    commit_plane,
    discard_plane,
    get_plane,
    plane_eligible,
    plane_key,
    registry_stats,
    replay_group,
)
from repro.trace.materialize import get_workload

#: Cache-file envelope schema, bumped when the envelope layout changes.
CACHE_SCHEMA = "rampage-cache/1"

#: Subdirectory of the cache directory holding the sharded record files.
SHARD_DIRNAME = "shards"

#: How many leading hex digits of the cache key select a shard (2 ->
#: up to 256 shards, so a million-record cache keeps directory scans
#: and rsyncs bounded per shard).
SHARD_PREFIX_LEN = 2

GRID_BUILDERS: dict[str, Callable[[int, int], MachineParams]] = {
    "baseline": lambda rate, size: baseline_machine(rate, size),
    "rampage": lambda rate, size: rampage_machine(rate, size),
    "rampage_som": lambda rate, size: rampage_machine(
        rate, size, switch_on_miss=True
    ),
    "rampage_vl1": lambda rate, size: virtual_l1_machine(rate, size),
    "twoway": lambda rate, size: twoway_machine(rate, size),
}

#: How many grid cells the process-wide plan memo keeps (about 1.6 KiB
#: each).  The paper's five grids at one workload are 90 cells.
PLAN_MEMO_CELLS = 1024


# ----------------------------------------------------------------------
# Cell plan: every grid cell's machine and cache key
# ----------------------------------------------------------------------


def _cache_key(params: MachineParams, scale: float, slice_refs: int, seed: int) -> str:
    """The run-record cache key of ``params`` over one workload.

    The one key derivation: the runner, the service's job planner (job
    ids hash these keys) and the report builder all reach it, the last
    two through :func:`grid_plan`.  The text keeps each knob's spelling,
    so ``scale=1`` and ``scale=1.0`` are different keys.
    """
    blob = "|".join(
        (
            WORKLOAD_VERSION,
            repr(params),
            f"scale={scale}",
            f"slice={slice_refs}",
            f"seed={seed}",
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


@functools.lru_cache(maxsize=PLAN_MEMO_CELLS, typed=True)
def _plan_cell(
    label: str, rate: int, size: int, scale: float, slice_refs: int, seed: int
) -> tuple[MachineParams, str]:
    """One grid cell's machine and cache key, built and hashed once.

    ``typed=True`` keeps ``scale=1`` and ``scale=1.0`` apart, so a key
    never depends on which spelling this process met first.
    """
    params = GRID_BUILDERS[label](rate, size)
    return params, _cache_key(params, scale, slice_refs, seed)


def grid_plan(label: str, config: ExperimentConfig) -> list[tuple[MachineParams, str]]:
    """``label``'s cells under ``config``, in grid order, as ``(params, key)``.

    Served from a process-wide memo, so planning a job, building a
    report and loading a grid cost one builder call and one hash per
    cell per process.
    """
    if label not in GRID_BUILDERS:
        raise ConfigurationError(
            f"unknown grid {label!r}; known: {sorted(GRID_BUILDERS)}"
        )
    return [
        _plan_cell(label, rate, size, config.scale, config.slice_refs, config.seed)
        for rate in config.issue_rates
        for size in config.sizes
    ]


# ----------------------------------------------------------------------
# Cache-file envelope
# ----------------------------------------------------------------------


def encode_cache_entry(record: RunRecord) -> str:
    """Serialise a record into the integrity-checked envelope format."""
    payload = record.as_dict()
    return json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "workload_version": WORKLOAD_VERSION,
            "checksum": record_checksum(payload),
            "record": payload,
        }
    )


def decode_cache_entry(text: str) -> RunRecord:
    """Validate and decode one cache file's contents.

    Raises :class:`CacheIntegrityError` on invalid JSON, a missing or
    mismatched schema/workload version, or a checksum that disagrees
    with the payload -- every way a torn write, a stale simulator or a
    tampering editor can corrupt a record.
    """
    envelope = parse_envelope(text, CACHE_SCHEMA)
    payload = envelope.get("record")
    if not isinstance(payload, dict):
        raise CacheIntegrityError("envelope has no record payload")
    checksum = envelope.get("checksum")
    expected = record_checksum(payload)
    if checksum != expected:
        raise CacheIntegrityError(
            f"checksum mismatch: file has {checksum!r}, payload hashes to "
            f"{expected!r}"
        )
    try:
        return RunRecord.from_dict(payload)
    except (KeyError, TypeError) as exc:
        raise CacheIntegrityError(f"record payload incomplete: {exc}") from exc


def read_cache_entry(path: Path) -> RunRecord:
    """Read and decode one record file.

    The one read path of every record reader.  Raises ``OSError`` when
    the file cannot be read, and :class:`CacheIntegrityError` when its
    bytes are not UTF-8 or fail :func:`decode_cache_entry`.
    """
    try:
        text = path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise CacheIntegrityError(f"record is not UTF-8: {exc}") from exc
    return decode_cache_entry(text)


def shard_prefix(key: str) -> str:
    """The shard a cache key lands in (its leading hex digits)."""
    return key[:SHARD_PREFIX_LEN]


def record_path(cache_dir: str | Path, key: str) -> Path:
    """The on-disk location of ``key``'s record: ``shards/<prefix>/<key>.json``.

    Joined as a string, not with pathlib: every warm cell pays for it.
    """
    return Path(
        os.path.join(cache_dir, SHARD_DIRNAME, shard_prefix(key), key + ".json")
    )


def find_record(cache_dir: str | Path, key: str) -> Path | None:
    """``key``'s committed record file, or ``None`` when there is none.

    Only the sharded layout is read: a flat ``<cache>/<key>.json`` left
    by a pre-shard cache misses, and its cell is recomputed.
    """
    path = record_path(cache_dir, key)
    return path if os.path.exists(path) else None


def iter_cache_files(cache_dir: str | Path) -> Iterator[Path]:
    """Every committed record file in ``cache_dir``, sorted by name."""
    paths = Path(cache_dir).glob(f"{SHARD_DIRNAME}/*/*.json")
    yield from sorted(paths, key=lambda path: path.name)


def iter_quarantined_files(cache_dir: str | Path) -> Iterator[Path]:
    """Every quarantined record file in ``cache_dir``, sorted by name."""
    paths = Path(cache_dir).glob(f"{SHARD_DIRNAME}/*/*.json{QUARANTINE_SUFFIX}")
    yield from sorted(paths, key=lambda path: path.name)


@dataclass(frozen=True)
class ExperimentOutput:
    """What each experiment module returns."""

    name: str
    title: str
    text: str
    data: dict

    def write_to(self, directory: str | Path) -> Path:
        """Persist the rendered report; returns the file path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.txt"
        path.write_text(self.text + "\n", encoding="utf-8")
        return path


class Runner:
    """Runs and caches the simulations behind every experiment."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        events: EventLog | None = None,
    ) -> None:
        self.config = config if config is not None else ExperimentConfig.from_env()
        self.events = events if events is not None else EventLog(self.config.event_log)
        self.cache_stats = CacheStats()
        #: ``(stores, quarantined)`` when the manifest was last written.
        self._manifest_changes = (0, 0)
        self._memory: dict[str, RunRecord] = {}
        self._grids: dict[str, RunGrid] = {}
        self._programs: list | None = None

    def _workload(self) -> list:
        """The workload every cell of this runner simulates.

        The reference stream is synthesized once per ``(scale, seed)``
        per process -- all grid cells, grids and runners share one
        :class:`~repro.trace.materialize.MaterializedWorkload`, backed
        by an on-disk mmap artifact when caching is enabled.
        """
        if self._programs is None:
            self._programs = get_workload(
                self.config.scale,
                self.config.seed,
                cache_dir=self.config.cache_dir,
                events=self.events,
                slice_refs=self.config.slice_refs,
            ).programs
        return self._programs

    # ------------------------------------------------------------------
    # Single cells
    # ------------------------------------------------------------------

    def _quarantine(self, key: str, path: Path, error: CacheIntegrityError) -> None:
        """Move a failed cache file aside and log the event."""
        target = path.with_name(path.name + QUARANTINE_SUFFIX)
        try:
            os.replace(path, target)
            destination = str(target)
        except OSError:
            # Someone else already moved or deleted it; nothing to keep.
            destination = str(path)
        self.cache_stats.quarantined += 1
        self.events.emit(
            "cache_quarantined",
            key=key,
            path=destination,
            reason=str(error),
        )

    def _lookup(self, key: str) -> RunRecord | None:
        """Check the in-memory and on-disk caches for ``key``.

        A disk file that fails integrity validation is treated as a
        miss: it is quarantined to ``<key>.json.corrupt`` and the
        caller recomputes the cell.  Decode errors never propagate.
        """
        cached = self._memory.get(key)
        if cached is not None:
            self.cache_stats.hits_memory += 1
            return cached
        cache_dir = self.config.cache_dir
        path = None if cache_dir is None else find_record(cache_dir, key)
        if path is None:
            return None
        try:
            record = read_cache_entry(path)
        except OSError:
            return None
        except CacheIntegrityError as error:
            self._quarantine(key, path, error)
            return None
        self.cache_stats.hits_disk += 1
        self.events.emit("cache_hit", key=key, layer="disk", label=record.label)
        self._memory[key] = record
        return record

    def _store(self, key: str, record: RunRecord) -> None:
        """Commit a record to both cache layers (disk commit is atomic)."""
        self._memory[key] = record
        cache_dir = self.config.cache_dir
        if cache_dir is not None:
            atomic_write_text(record_path(cache_dir, key), encode_cache_entry(record))
            self.cache_stats.stores += 1

    def record(self, label: str, params: MachineParams) -> RunRecord:
        """Simulate one machine over the standard workload (cached).

        The cache key deliberately excludes ``label`` (two grids that
        share a machine share the cell), so a hit computed under a
        different grid is relabelled on read -- the returned record
        always carries the label the caller asked for.  A miss is a
        one-cell sweep through :meth:`_replay_cells`.
        """
        config = self.config
        key = _cache_key(params, config.scale, config.slice_refs, config.seed)
        return self._record(label, params, key)

    def _record(self, label: str, params: MachineParams, key: str) -> RunRecord:
        """:meth:`record` for a cell whose ``key`` is already known."""
        cached = self._lookup(key)
        if cached is not None:
            if cached.label != label:
                cached = replace(cached, label=label)
            return cached
        computed: list[RunRecord] = []
        self._replay_cells([(label, params, key)], on_record=computed.append)
        return computed[0]

    # ------------------------------------------------------------------
    # Computing missing cells
    # ------------------------------------------------------------------

    def _pending_grid_cells(
        self, labels: list[str] | tuple[str, ...]
    ) -> list[tuple[str, MachineParams, str]]:
        """Grid cells of ``labels`` absent from both cache layers.

        Each is ``(label, params, key)``.  De-duplicated by cache key,
        so a machine shared between two labels' grids is only computed
        once.
        """
        pending: list[tuple[str, MachineParams, str]] = []
        seen: set[str] = set()
        for label in labels:
            for params, key in grid_plan(label, self.config):
                if key in seen or self._lookup(key) is not None:
                    continue
                seen.add(key)
                pending.append((label, params, key))
        return pending

    def _replay_cells(
        self,
        cells: list[tuple[str, MachineParams, str]],
        on_record: Callable[[RunRecord], None] | None = None,
    ) -> None:
        """Compute the cache-missing ``cells``, whole plane groups at a time.

        Each cell is ``(label, params, key)``.  Plane-eligible cells are
        grouped by miss-plane key and each group goes through
        :meth:`_replay_plane_group`; every other cell is one full
        simulation.  ``on_record`` fires once per finished cell, in
        completion order.  Every engine computes cells here, so this is
        where the cache manifest is written.
        """
        config = self.config
        groups: dict[str | None, list[tuple[str, MachineParams, str]]] = {}
        for label, params, key in cells:
            pkey = None
            if plane_eligible(params):
                pkey = plane_key(params, config.scale, config.seed, config.slice_refs)
            groups.setdefault(pkey, []).append((label, params, key))
        for pkey, members in groups.items():
            if pkey is None:
                for member in members:
                    self._simulate(member, None, on_record)
            else:
                self._replay_plane_group(pkey, members, on_record)
        self.write_cache_manifest()

    def _replay_plane_group(
        self,
        pkey: str,
        members: list[tuple[str, MachineParams, str]],
        on_record: Callable[[RunRecord], None] | None,
    ) -> None:
        """Price one plane group: record at most one cell, replay the rest.

        The group's plane comes from the LRU-by-bytes in-process
        registry or the disk cache.  Without one, the first member runs
        the full simulation that records it, and the plane it just
        committed prices the siblings.  They are priced together by one
        :func:`replay_group` call through the plane's batched
        :class:`~repro.trace.replay_kernel.ReplayKernel`.  A plane
        that trips a replay invariant is quarantined and the next member
        records a fresh one -- never a crash.
        """
        cache_dir = self.config.cache_dir
        plane = get_plane(pkey, cache_dir=cache_dir, events=self.events)
        remaining = members
        while remaining:
            if plane is None:
                plane = self._simulate(remaining[0], pkey, on_record)
                remaining = remaining[1:]
                continue
            try:
                with ScopedTimer() as timer:
                    results = replay_group(
                        [params for _label, params, _key in remaining], plane
                    )
            except PlaneReplayError as error:
                discard_plane(
                    plane,
                    cache_dir=cache_dir,
                    events=self.events,
                    reason=str(error),
                )
                plane = None
                continue
            wall = timer.elapsed / len(remaining)
            for member, result in zip(remaining, results):
                self._finish_cell(member, result, "replayed", wall, on_record)
            return

    def _simulate(
        self,
        member: tuple[str, MachineParams, str],
        pkey: str | None,
        on_record: Callable[[RunRecord], None] | None,
    ) -> MissPlane | None:
        """Fully simulate one cell; returns the plane it recorded, if any.

        With a ``pkey`` the run records its group's miss plane and
        commits it; without one it is an ordinary simulation.
        """
        label, params, key = member
        self.events.emit(
            "cell_started",
            key=key,
            label=label,
            kind=params.kind,
            issue_rate_hz=params.issue_rate_hz,
            size_bytes=params.transfer_unit_bytes,
        )
        recorder = PlaneRecorder(pkey) if pkey is not None else None
        plane = None
        with ScopedTimer() as timer:
            result = simulate(
                params,
                self._workload(),
                slice_refs=self.config.slice_refs,
                record_plane=recorder,
            )
            if recorder is not None:
                plane = commit_plane(
                    recorder.finalize(),
                    cache_dir=self.config.cache_dir,
                    events=self.events,
                )
        mode = "full" if recorder is None else "recorded"
        self._finish_cell(member, result, mode, timer.elapsed, on_record)
        return plane

    def _finish_cell(
        self,
        member: tuple[str, MachineParams, str],
        result,
        mode: str,
        wall: float,
        on_record: Callable[[RunRecord], None] | None,
    ) -> None:
        """Store one computed cell's record and report its completion."""
        label, params, key = member
        self.cache_stats.misses += 1
        record = RunRecord.from_result(label, params.transfer_unit_bytes, result)
        self._store(key, record)
        self.events.emit(
            "cell_completed",
            key=key,
            label=label,
            mode=mode,
            wall_s=round(wall, 6),
            refs_per_s=round(refs_per_second(record.workload_refs, wall), 1),
        )
        if on_record is not None:
            on_record(record)

    def prefetch(self, labels: list[str] | tuple[str, ...]) -> int:
        """Fill the cache for ``labels``; returns how many cells ran.

        The serial engine's bulk path: pending cells are computed with
        whole-group vectorized re-pricing, so a sweep over *n* sibling
        timings of one geometry costs one recorded simulation plus one
        matrix op.  :class:`~repro.experiments.parallel.ParallelRunner`
        overrides this with a process pool in front of the same tail.
        """
        pending = self._pending_grid_cells(list(labels))
        if pending:
            self._replay_cells(pending)
        return len(pending)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def write_cache_manifest(self) -> Path | None:
        """Summarise the cache directory into its manifest (atomic).

        :meth:`_replay_cells` calls it at the end of every computation.
        Only a runner that stored or quarantined a record since its last
        write rewrites it, so a grid served from the cache leaves every
        file under the cache directory as it found it.  Returns the
        manifest path, or ``None`` when caching is off or nothing
        changed.
        """
        cache_dir = self.config.cache_dir
        changes = (self.cache_stats.stores, self.cache_stats.quarantined)
        if cache_dir is None or changes == self._manifest_changes:
            return None
        entries = sum(1 for _ in iter_cache_files(cache_dir))
        quarantined = sum(1 for _ in iter_quarantined_files(cache_dir))
        path = write_manifest(
            cache_dir,
            {
                "workload_version": WORKLOAD_VERSION,
                "cache": self.cache_stats.as_dict(),
                "plane_registry": registry_stats(),
                "entries": entries,
                "quarantined_files": quarantined,
            },
        )
        self._manifest_changes = changes
        return path

    # ------------------------------------------------------------------
    # Grids
    # ------------------------------------------------------------------

    def grid_params(self, label: str) -> list[MachineParams]:
        """The machine of every cell in ``label``'s sweep, in grid order."""
        return [params for params, _key in grid_plan(label, self.config)]

    def grid(self, label: str) -> RunGrid:
        """Return (building on demand) the sweep grid for ``label``.

        The prefetch and the assembly read the same memoized
        :func:`grid_plan` pairs, so a warm cell costs one verified
        record read and no key derivation.
        """
        if label in self._grids:
            return self._grids[label]
        plan = grid_plan(label, self.config)
        self.prefetch([label])
        grid = RunGrid(label)
        for params, key in plan:
            grid.add(self._record(label, params, key))
        self._grids[label] = grid
        return grid
