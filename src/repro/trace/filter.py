"""L1/TLB-filtered miss planes: phase 1 of the two-phase sweep.

The paper's sweeps hold the split 16 KB L1s and the TLB fixed while
varying CPU/DRAM speed ratios, so every cell of an issue-rate sweep
re-simulates the identical front-end over the full interleaved
reference stream.  This module records, once per *structural* machine
geometry, that front-end's **miss plane** -- the stream of DRAM
interactions the levels above DRAM let through, plus the run's timing
snapshot -- and re-prices every other cell sharing the geometry from it
by arithmetic alone (:func:`replay_group`).
As in one-pass multi-level filtering, the plane keeps only the stream
its consumer reads: the replay never looks above the DRAM channel.

Recording is a side output of each machine's one production chunk
loop.  ``simulate(record_plane=...)`` attaches a :class:`PlaneRecorder`
whose taps in ``_dram_sync``, ``_page_fault`` and ``_below_l1_fetch``
fill its decision-op tape; the chunk loops do not know a recording is
running, so a recording run is the plain run plus list appends.

Soundness: why the tape alone re-prices a sibling exactly
---------------------------------------------------------

Two cells share a plane only when they differ in *timing-only*
parameters: :func:`structural_params` normalises exactly
``issue_rate_hz`` and the Rambus ``dram`` timing, and :func:`plane_key`
hashes everything else.

* **The event sequence is timing-invariant.**  The simulation reads
  time only to charge stalls: ``RambusChannel.synchronous``,
  ``begin_background`` and ``SimClock.advance_to`` change nothing but
  the clock, the channel's ``free_at`` and the level-time counters, and
  ``_prune_pending`` drops only background entries whose stall would
  be zero.  Everything that steers control flow -- TLB misses, L1 and
  L2 outcomes, inclusion flushes, page faults, victim choice,
  preemption points, chunk rotation, RNG draws -- is the same in every
  cell of a plane group, and so is every counter in
  ``_STRUCTURAL_STATS``, which the plane records verbatim.
* **Non-DRAM time is a cycle count.**  Every other level-time charge
  goes through ``SimClock.tick_cycles``, which is linear, and
  ``cycle_time_ps`` guarantees an integral cycle, so a cell's
  ``l1i``/``l1d``/``l2`` times are the recording's cycle counts
  rescaled to the cell's clock.  DRAM time accumulates separately in
  the clock's ``extra`` picoseconds, so the CPU cycle count at every
  DRAM interaction is structural too.
* **DRAM time is a function of the decision-op tape** (``dops.npy``):
  one row per DRAM interaction -- a blocking transfer (``SYNC``), a
  background writeback or fill (``BG_WB``/``BG_FILL``, queued only by
  switch-on-miss RAMpage and its virtual-L1 variant), or a potential
  stall on an in-flight fill (``WAIT``) -- stamped with the absolute
  CPU cycle count.  ``WAIT`` rows are emitted at every *structural*
  first touch of a filled frame (a shadow pending map that is never
  time-pruned), because whether the touch stalls depends on the
  sibling's timing.  A non-preempting machine records only ``SYNC``
  rows: ``_dram_sync`` advances the clock past each transfer, so the
  channel is idle at the next one at *any* issue rate.  The integer
  max-plus recursion :func:`_replay_timeline` reproduces the live
  channel arithmetic op by op and is the oracle;
  :class:`~repro.trace.replay_kernel.ReplayKernel` is its vectorized
  production form and prices every plane.

**Checks.**  :func:`check_snapshot` holds the invariants a plane's
snapshot must keep: whole-cycle level times, no ``other`` time, one
``SYNC`` row per DRAM access and one ``BG_FILL`` row per switch on a
miss.  :meth:`PlaneRecorder.capture`, :func:`load_plane` and
:func:`replay_group` all call it.  Capture also prices its tape with a
:class:`~repro.trace.replay_kernel.ReplayKernel` at the recording's
own Rambus timing and ``cycle_ps`` and requires exactly the DRAM time,
stall and overlap the run measured; the plane keeps that kernel.  The
timing payload carries a digest of the recording's structural
parameters, and replay raises :class:`PlaneReplayError` for a cell
whose digest differs, so a plane is never priced for a machine it was
not recorded on.  The full simulation stays the oracle: the tests
compare decoupled replay against it across issue rates and Rambus
timings.

Artifact layout (one directory per key under ``<cache_dir>/planes/``)::

    planes/<key>/
    ├── dops.npy        # int64 (N, 3): kind, arg, cycles per DRAM interaction
    └── manifest.json   # schema, versions, counts, checksums, timing payload

Artifacts of the older ``rampage-plane/1``, ``/2`` and ``/3`` layouts
are never found, because :func:`plane_key` hashes the schema;
:func:`read_manifest` reports them as
:class:`~repro.core.errors.StaleArtifactError` so ``cache verify`` can
flag them and ``cache purge --corrupt-only`` can drop them.

Commits, validation and quarantine are the artifact store's
(:mod:`repro.trace.artifacts`, ``docs/cache.md``), shared with the
materialized trace; this module adds only the tape and timing-payload
checks.  A corrupt or mismatched plane is a cache *miss* that falls
back to a recording run.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.clock import cycle_time_ps
from repro.core.errors import CacheIntegrityError, SimulationError
from repro.core.observe import EventLog
from repro.core.params import MachineParams, RambusParams
from repro.core.stats import SimStats
from repro.mem.dram import rambus_pipelined_ps, rambus_transfer_ps
from repro.trace import artifacts
from repro.trace.artifacts import MANIFEST_NAME as MANIFEST_NAME
from repro.trace.artifacts import QUARANTINE_SUFFIX as QUARANTINE_SUFFIX
from repro.trace.artifacts import WORKLOAD_VERSION
from repro.trace.replay_kernel import (
    DOP_BG_FILL,
    DOP_BG_WB,
    DOP_SYNC,
    DOP_WAIT,
    ReplayKernel,
)

#: Artifact manifest schema tag, bumped when the plane layout changes.
PLANE_SCHEMA = "rampage-plane/4"

#: Earlier layouts: unreachable by key, reported stale rather than corrupt.
STALE_PLANE_SCHEMAS = ("rampage-plane/1", "rampage-plane/2", "rampage-plane/3")

#: Subdirectory of the cache directory holding miss-plane artifacts.
PLANE_DIRNAME = "planes"

# Decision-op kinds (``dops.npy`` column 0) live in
# :mod:`repro.trace.replay_kernel` (imported above and re-exported here
# for compatibility).  ``arg`` (column 1) is a byte count for the
# transfer ops and a fill ordinal for ``WAIT``; column 2 is the
# absolute CPU cycle count at the op.

#: Canonical issue rate substituted before hashing structural identity.
_CANONICAL_RATE_HZ = 10**9

#: The arrays of a plane artifact (see :mod:`repro.trace.artifacts`).
_ARRAY_SPECS = (("dops", np.int64, 3),)

#: SimStats counters that are structural (identical across a plane
#: group) and therefore recorded verbatim; the timing-dependent fields
#: -- ``level_times`` and the derived ``total_time_ps`` -- are
#: recomputed per cell by :func:`replay_group`.
_STRUCTURAL_STATS = (
    "ifetches",
    "reads",
    "writes",
    "tlb_handler_refs",
    "fault_handler_refs",
    "switch_refs",
    "l1i_hits",
    "l1i_misses",
    "l1d_hits",
    "l1d_misses",
    "l1_writebacks",
    "l2_hits",
    "l2_misses",
    "l2_writebacks",
    "tlb_hits",
    "tlb_misses",
    "page_faults",
    "page_writebacks",
    "context_switches",
    "switches_on_miss",
    "dram_accesses",
    "dram_stall_ps",
    "dram_overlap_ps",
    "inclusion_invalidations",
)


class PlaneReplayError(CacheIntegrityError):
    """A miss plane cannot re-price the requested cell.

    Raised when the plane's timing snapshot breaks a decoupling
    invariant, its decision-op tape is malformed, or it was recorded
    for a structurally different machine.  Callers treat it exactly
    like artifact corruption: quarantine the plane and recompute the
    cell with a recording run.
    """


# ----------------------------------------------------------------------
# Keying and eligibility
# ----------------------------------------------------------------------


def plane_eligible(params: MachineParams) -> bool:
    """True when cells of ``params``'s geometry may share a miss plane.

    Requires direct-mapped L1s, the shape whose production loops the
    replay-equivalence suites cover; associative-L1 machines run full
    simulations.  Preempting machines (``switch_on_miss``) and
    virtual-L1 RAMpage are eligible: the decision-op tape captures
    their background transfers and waits too.
    """
    return (
        params.kind in ("conventional", "rampage")
        and params.l1.icache.ways == 1
        and params.l1.dcache.ways == 1
    )


def structural_params(params: MachineParams) -> MachineParams:
    """``params`` with its timing-only fields pinned to canonical values.

    Only ``issue_rate_hz`` and the Rambus ``dram`` timing are
    normalised: they are read exclusively by the clock and the channel's
    stall arithmetic, never by anything that steers the event sequence
    (see the module docstring).  Everything else -- geometries, seeds,
    handler costs, scheduling policy, cycle counts -- stays in the key;
    being conservative here costs only plane sharing, never correctness.
    """
    return replace(params, issue_rate_hz=_CANONICAL_RATE_HZ, dram=RambusParams())


def structure_digest(params: MachineParams) -> str:
    """SHA-256 of ``params``'s structural identity.

    Stored in every plane's timing payload; replay refuses a cell whose
    digest differs from the recording's.
    """
    blob = repr(structural_params(params)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def plane_key(
    params: MachineParams, scale: float, seed: int, slice_refs: int
) -> str:
    """Stable identity of one miss plane (24 hex digits of SHA-256).

    Keyed like the run-record cache, over everything that shapes the
    recorded event stream: workload identity (version, scale, seed),
    the interleaver chunking (``slice_refs`` moves chunk and
    context-switch boundaries), and the structural machine parameters.
    """
    blob = "|".join(
        (
            WORKLOAD_VERSION,
            PLANE_SCHEMA,
            repr(structural_params(params)),
            f"scale={scale}",
            f"slice={slice_refs}",
            f"seed={seed}",
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


# ----------------------------------------------------------------------
# In-memory plane
# ----------------------------------------------------------------------


class MissPlane:
    """One recorded miss plane: the decision-op tape plus the timing snapshot.

    ``dops`` holds one ``(kind, arg, cycles)`` row per DRAM interaction
    of the recording run, in order.  ``cycle_ps`` and ``stats``
    snapshot the recording run's clock and final counters, and
    ``structure`` is the recording machine's :func:`structure_digest`,
    all read by :func:`replay_group`.
    """

    def __init__(
        self,
        key: str,
        dops: np.ndarray,
        cycle_ps: int,
        stats: dict,
        structure: str,
        path: Path | None = None,
    ) -> None:
        self.key = key
        self.dops = dops
        self.cycle_ps = cycle_ps
        self.stats = stats
        self.structure = structure
        self.path = path
        self._kernel: ReplayKernel | None = None

    def kernel(self) -> ReplayKernel:
        """The vectorized replay kernel over this plane's decision ops.

        Built once per plane -- the kernel's window segmentation is
        timing-invariant -- and shared by every sibling cell and every
        :func:`replay_group` call.  A tape whose waits reference fills
        not yet queued (impossible for a recording, possible for a
        damaged artifact or a hand-built plane) surfaces as
        :class:`PlaneReplayError`, the same corruption class the scalar
        recursion reports.
        """
        if self._kernel is None:
            try:
                self._kernel = ReplayKernel(self.dops)
            except IndexError as exc:
                raise PlaneReplayError(
                    f"malformed decision-op tape: {exc}"
                ) from exc
        return self._kernel


def check_snapshot(plane: MissPlane) -> None:
    """Raise :class:`PlaneReplayError` unless ``plane`` keeps the invariants.

    The decoupled replay relies on them (see the module docstring):
    the ``l1i``/``l1d``/``l2`` level times are whole recording cycles
    and ``other`` is zero; the tape holds one ``SYNC`` row per DRAM
    access and one ``BG_FILL`` row per switch on a miss.
    """
    stats = plane.stats
    level_times = stats.get("level_times") if isinstance(stats, dict) else None
    if not isinstance(level_times, dict):
        raise PlaneReplayError("plane timing snapshot has no level_times")
    problems = []
    if level_times.get("other", 0) != 0:
        problems.append("nonzero level_times.other")
    cycle_ps = plane.cycle_ps
    if not isinstance(cycle_ps, int) or cycle_ps <= 0:
        problems.append(f"invalid recording cycle_ps {cycle_ps!r}")
    else:
        for level in ("l1i", "l1d", "l2"):
            value = level_times.get(level)
            if not isinstance(value, int) or value % cycle_ps:
                problems.append(f"level_times.{level} is not a whole cycle count")
    kinds = np.asarray(plane.dops)[:, 0]
    for name, kind, counter in (
        ("SYNC", DOP_SYNC, "dram_accesses"),
        ("BG_FILL", DOP_BG_FILL, "switches_on_miss"),
    ):
        rows = int(np.count_nonzero(kinds == kind))
        if rows != stats.get(counter):
            problems.append(f"{rows} {name} rows for {counter}={stats.get(counter)}")
    if problems:
        raise PlaneReplayError(
            "plane timing snapshot broke a decoupling invariant: "
            + "; ".join(problems)
        )


class PlaneRecorder:
    """Accumulates one miss plane during a live recording simulation.

    The machine's DRAM taps append one decision op per DRAM interaction
    through the methods below; recording cost is proportional to DRAM
    interactions, not references.
    """

    def __init__(self, key: str) -> None:
        self.key = key
        #: ``(kind, arg, cycles)`` rows: every synchronous transfer, plus
        #: the background transfers and waits of a preempting machine.
        self.dops: list[tuple[int, int, int]] = []
        self._fills = 0
        self._plane: MissPlane | None = None

    # -- decision-op taps ----------------------------------------------

    def sync_op(self, nbytes: int, cycles: int) -> None:
        """Record a blocking DRAM transfer at CPU cycle ``cycles``."""
        self.dops.append((DOP_SYNC, nbytes, cycles))

    def background_op(self, nbytes: int, cycles: int, fill: bool) -> int:
        """Record a queued background transfer; fills return an ordinal.

        The ordinal names the fill's completion time in the replay
        recursion; the recording system maps the filled frame to it in
        its shadow pending table and emits :meth:`wait_op` at the
        frame's next structural touch.
        """
        if fill:
            ordinal = self._fills
            self._fills += 1
            self.dops.append((DOP_BG_FILL, nbytes, cycles))
            return ordinal
        self.dops.append((DOP_BG_WB, nbytes, cycles))
        return -1

    def wait_op(self, ordinal: int, cycles: int) -> None:
        """Record a potential stall on fill ``ordinal``.

        Emitted at every structural first touch of a filled frame --
        whether or not the recording run actually stalled there -- so a
        sibling cell whose transfer is relatively slower still charges
        the wait.
        """
        self.dops.append((DOP_WAIT, ordinal, cycles))

    def capture(self, cycle_ps: int, stats: dict, params: MachineParams) -> None:
        """Snapshot the recording run's clock, final counters and structure.

        Called by :func:`~repro.systems.simulator.simulate` once the
        recording run finalizes with the run's ``params``.  The snapshot
        must pass :func:`check_snapshot`, and the tape, priced by the
        plane's :class:`~repro.trace.replay_kernel.ReplayKernel` at the
        recording run's own Rambus timing and ``cycle_ps``, must
        reproduce the run's measured DRAM time, stall and overlap
        exactly.  The plane keeps that kernel for its replays.
        """
        plane = MissPlane(
            key=self.key,
            dops=np.array(self.dops, dtype=np.int64).reshape(-1, 3),
            cycle_ps=int(cycle_ps),
            stats=stats,
            structure=structure_digest(params),
        )
        try:
            check_snapshot(plane)
            ((dram_ps, stall, overlap),) = plane.kernel().price_many(
                [(params.dram, plane.cycle_ps)]
            )
        except PlaneReplayError as error:
            raise SimulationError(str(error)) from error
        measured = (
            ("dram", dram_ps, stats["level_times"].get("dram", 0)),
            ("stall", stall, stats.get("dram_stall_ps", 0)),
            ("overlap", overlap, stats.get("dram_overlap_ps", 0)),
        )
        problems = [
            f"tape prices to {name}={priced}, run measured {value}"
            for name, priced, value in measured
            if priced != value
        ]
        if problems:
            raise SimulationError(
                "recording run broke a timing-decoupling invariant: "
                + "; ".join(problems)
            )
        self._plane = plane

    def finalize(self) -> MissPlane:
        if self._plane is None:
            raise SimulationError(
                "PlaneRecorder.finalize() before capture(); the recording "
                "run's timing snapshot is part of the plane"
            )
        return self._plane


# ----------------------------------------------------------------------
# Disk artifacts
# ----------------------------------------------------------------------


def plane_root(cache_dir: str | Path) -> Path:
    """The miss-plane subdirectory of a cache directory."""
    return Path(cache_dir) / PLANE_DIRNAME


def artifact_dir(cache_dir: str | Path, key: str) -> Path:
    return plane_root(cache_dir) / key


def write_plane(directory: str | Path, plane: MissPlane) -> Path:
    """Atomically commit a plane as an artifact directory.

    A lost concurrent race is benign because plane bytes are
    structurally deterministic: the loser keeps the winner's copy.
    """
    timing = {
        "cycle_ps": int(plane.cycle_ps),
        "stats": plane.stats,
        "structure": plane.structure,
    }
    return artifacts.commit(
        directory,
        {"dops": plane.dops},
        {
            "schema": PLANE_SCHEMA,
            "key": plane.key,
            "timing": timing,
            "timing_checksum": artifacts.json_checksum(timing),
        },
    )


def read_manifest(directory: str | Path) -> dict:
    """A plane artifact's validated manifest (see :mod:`repro.trace.artifacts`)."""
    return artifacts.read_manifest(directory, PLANE_SCHEMA, STALE_PLANE_SCHEMAS)


def load_plane(directory: str | Path, key: str | None = None) -> MissPlane:
    """Attach to an on-disk plane; strict validation, mmap arrays.

    The store validates the manifest and the arrays; this checks the
    timing payload, the snapshot invariants (:func:`check_snapshot`)
    and the tape itself by building the plane's replay kernel, raising
    :class:`CacheIntegrityError` so callers can quarantine and
    re-record.
    """
    manifest = read_manifest(directory)
    if key is not None and manifest.get("key") != key:
        raise CacheIntegrityError(
            f"plane key mismatch: artifact has {manifest.get('key')!r}, "
            f"expected {key!r}"
        )
    dops = artifacts.load_arrays(directory, manifest, _ARRAY_SPECS)["dops"]
    if len(dops) and (dops[:, 0].min() < DOP_SYNC or dops[:, 0].max() > DOP_WAIT):
        raise CacheIntegrityError("dops.npy has an unknown op kind")
    timing = manifest.get("timing")
    if not isinstance(timing, dict):
        raise CacheIntegrityError("plane manifest has no timing payload")
    if manifest.get("timing_checksum") != artifacts.json_checksum(timing):
        raise CacheIntegrityError("timing payload checksum mismatch")
    stats = timing.get("stats")
    structure = timing.get("structure")
    if not isinstance(stats, dict):
        raise CacheIntegrityError("plane timing payload has no stats")
    if not isinstance(structure, str):
        raise CacheIntegrityError("plane timing payload has no structure digest")
    bad = [k for k in _STRUCTURAL_STATS if not isinstance(stats.get(k), int)]
    if bad:
        raise CacheIntegrityError(
            f"plane stats missing or non-integer counters: {', '.join(bad)}"
        )
    plane = MissPlane(
        key=str(manifest.get("key")),
        dops=dops,
        cycle_ps=timing.get("cycle_ps"),
        stats=stats,
        structure=structure,
        path=Path(directory),
    )
    check_snapshot(plane)
    plane.kernel()  # refuses a wait on a fill not yet queued; kept for replay
    return plane


# ----------------------------------------------------------------------
# Process-level registry
# ----------------------------------------------------------------------

def plane_nbytes(plane: MissPlane) -> int:
    """Resident bytes of a plane's tape (the registry's cost metric)."""
    return int(np.asarray(plane.dops).nbytes)


class PlaneRegistry:
    """Bounded in-process plane cache, LRU by resident bytes.

    Every hit skips a full artifact re-load -- manifest parse, per-array
    SHA-256, shape validation -- plus the plane's replay kernel (its
    window structure), which is what makes repeated group replays by
    :meth:`~repro.experiments.runner.Runner.prefetch` and the daemon's
    jobs cheap.  Eviction is least-recently-used and budgeted by array
    bytes rather than plane count, so one huge plane cannot silently
    pin seven others' worth of memory and many small planes are not
    evicted needlessly.  ``hits``/``misses``/``evictions`` feed the
    runner manifest.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        # dict order doubles as recency order: oldest first.
        self._planes: dict[tuple, MissPlane] = {}
        self._sizes: dict[tuple, int] = {}
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._planes)

    def __contains__(self, registry_key: tuple) -> bool:
        return registry_key in self._planes

    def get(self, registry_key: tuple) -> MissPlane | None:
        plane = self._planes.get(registry_key)
        if plane is None:
            self.misses += 1
            return None
        self.hits += 1
        # Move to most-recently-used position.
        self._planes[registry_key] = self._planes.pop(registry_key)
        return plane

    def remember(self, registry_key: tuple, plane: MissPlane) -> MissPlane:
        self.forget_key(registry_key)
        size = plane_nbytes(plane)
        self._planes[registry_key] = plane
        self._sizes[registry_key] = size
        self.total_bytes += size
        # Evict from the LRU end; the entry just added is never a
        # candidate, so an over-budget plane still serves its group.
        while self.total_bytes > self.max_bytes and len(self._planes) > 1:
            oldest = next(iter(self._planes))
            self.forget_key(oldest)
            self.evictions += 1
        return plane

    def forget_key(self, registry_key: tuple) -> None:
        if self._planes.pop(registry_key, None) is not None:
            self.total_bytes -= self._sizes.pop(registry_key)

    def forget_plane(self, plane: MissPlane) -> None:
        """Drop every entry holding ``plane`` (quarantine path)."""
        for registry_key in [
            k for k, v in self._planes.items() if v is plane
        ]:
            self.forget_key(registry_key)

    def stats(self) -> dict:
        """Counters for manifests and worker stats payloads."""
        return {
            "planes": len(self._planes),
            "bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._planes.clear()
        self._sizes.clear()
        self.total_bytes = 0


#: Planes already recorded or attached in this process, keyed like the
#: artifact (plane key + cache directory).  LRU bounded by array bytes
#: -- see :class:`PlaneRegistry`.
_REGISTRY = PlaneRegistry()


def registry_stats() -> dict:
    """The in-process plane registry's counters (manifests, workers)."""
    return _REGISTRY.stats()


def clear_registry() -> None:
    """Drop every in-process plane (tests and benchmarks).

    Keeps the hit/miss/eviction counters: they describe the process,
    not the current contents.
    """
    _REGISTRY.clear()


def _registry_key(key: str, cache_dir: str | Path | None) -> tuple:
    return (key, str(cache_dir) if cache_dir is not None else None)


def get_plane(
    key: str, cache_dir: str | Path | None = None, events=None
) -> MissPlane | None:
    """The recorded plane for ``key``, or ``None`` (record one then).

    Resolution order mirrors :func:`repro.trace.materialize.get_workload`:
    the in-process registry, then a valid on-disk artifact (mmap
    attach).  A corrupt artifact is quarantined -- with a
    ``plane_quarantined`` event -- and reported as a miss, never an
    error.
    """
    events = events if events is not None else EventLog(None)
    registry_key = _registry_key(key, cache_dir)
    plane = _REGISTRY.get(registry_key)
    if plane is not None or cache_dir is None:
        return plane
    path = artifact_dir(cache_dir, key)
    plane = artifacts.attach(
        "plane", key, path, lambda directory: load_plane(directory, key=key), events
    )
    if plane is None:
        return None
    events.emit(
        "plane_attached",
        key=key,
        path=str(path),
        dops=len(plane.dops),
    )
    return _REGISTRY.remember(registry_key, plane)


def commit_plane(
    plane: MissPlane, cache_dir: str | Path | None = None, events=None
) -> MissPlane:
    """Register a freshly recorded plane, persisting it when caching.

    A failed commit leaves ``plane.path`` unset (see
    :func:`repro.trace.artifacts.persist`); the plane still prices its
    group from memory.
    """
    events = events if events is not None else EventLog(None)
    if cache_dir is not None:
        plane.path = artifacts.persist(
            "plane",
            plane.key,
            artifact_dir(cache_dir, plane.key),
            lambda directory: write_plane(directory, plane),
            events,
        )
    events.emit(
        "plane_recorded",
        key=plane.key,
        path=str(plane.path) if plane.path is not None else None,
        dops=len(plane.dops),
    )
    return _REGISTRY.remember(_registry_key(plane.key, cache_dir), plane)


def discard_plane(
    plane: MissPlane, cache_dir: str | Path | None = None, events=None, reason: str = ""
) -> None:
    """Quarantine a plane that failed to re-price a cell.

    Drops every registry entry holding the plane and moves its on-disk
    artifact aside, so the next cell re-records instead of re-tripping.
    """
    _REGISTRY.forget_plane(plane)
    artifacts.discard(
        "plane",
        plane.key,
        plane.path,
        reason,
        events if events is not None else EventLog(None),
    )


# ----------------------------------------------------------------------
# Timing-decoupled replay (phase 2's fast path)
# ----------------------------------------------------------------------


def _stats_from_dict(payload: dict) -> SimStats:
    """Rebuild a :class:`SimStats` from a plane's structural snapshot."""
    stats = SimStats()
    for name in _STRUCTURAL_STATS:
        setattr(stats, name, int(payload[name]))
    for field in ("tlb_misses_by_pid", "faults_by_pid"):
        counts = getattr(stats, field)
        for pid, value in payload.get(field, {}).items():
            counts[int(pid)] = int(value)
    return stats


#: Peak size of the pending-fill map in the most recent
#: :func:`_replay_timeline` call.  Regression probe: the map is bounded
#: by the fills outstanding since the last synchronous transfer, never
#: by tape length (it used to grow one entry per fill for the whole
#: tape).
_timeline_pending_peak = 0


def _replay_timeline(
    dram, cycle_ps: int, columns: tuple[list, list, list]
) -> tuple[int, int, int]:
    """Run a decision-op tape under one (dram, cycle) timing.

    Integer max-plus recursion over the tape: the CPU-side cycle count
    of every op is timing-invariant (recorded in the tape), so the op's
    wall-clock instant is ``cycles * cycle_ps + extra`` where ``extra``
    accumulates DRAM-side waits and transfers -- exactly how
    :class:`~repro.core.clock.SimClock` splits time.  Each op then
    reproduces the live channel arithmetic
    (:meth:`~repro.mem.dram.RambusChannel.synchronous` /
    :meth:`~repro.mem.dram.RambusChannel.begin_background` and the
    pricing rule of ``_cost_ps``) verbatim, so the returned
    ``(dram_ps, stall_ps, overlap_ps)`` is byte-identical to what the
    full simulation measures at that timing.

    This is the scalar equivalence oracle for the vectorized
    :class:`~repro.trace.replay_kernel.ReplayKernel`, which prices every
    production cell; the kernel tests compare the pair on random and
    recorded tapes.  On a recording's tape -- cycle stamps
    nondecreasing, always true for a real plane -- the pending-fill map
    stays bounded: a fill's completion time is dropped once consumed by
    its wait (a later wait on the same fill can never stall, because
    the first one left ``now`` at or past the ready time), and a
    synchronous transfer retires every pending fill at once (it drains
    the channel, so ``now`` ends at or past every queued completion).
    Both retirements lean on ``now`` never moving backwards, so a tape
    with *decreasing* stamps keeps every completion time instead --
    the original semantics, which the kernel's whole-tape fallback
    mirrors -- rather than silently changing what a wait can charge.
    """
    global _timeline_pending_peak
    kinds, argvals, op_cycles = columns
    pipelined = dram.pipelined
    bounded = all(a <= b for a, b in zip(op_cycles, op_cycles[1:]))
    free_at = 0
    extra = 0
    stall = 0
    overlap = 0
    dram_ps = 0
    fills = 0
    pending_peak = 0
    ready: dict[int, int] = {}
    for op, arg, cyc in zip(kinds, argvals, op_cycles):
        now = cyc * cycle_ps + extra
        if op == DOP_SYNC:
            wait = free_at - now
            if wait < 0:
                wait = 0
            cost = (
                rambus_pipelined_ps(dram, arg)
                if pipelined and wait
                else rambus_transfer_ps(dram, arg)
            )
            extra += wait + cost
            free_at = now + wait + cost
            stall += wait
            dram_ps += wait + cost
            if bounded and ready:
                ready.clear()
        elif op == DOP_WAIT:
            if arg < 0 or arg >= fills:
                raise IndexError(
                    f"wait on fill {arg}, but only {fills} fills are queued"
                )
            done = ready.pop(arg, None) if bounded else ready.get(arg)
            if done is not None:
                wait = done - now
                if wait > 0:
                    extra += wait
                    stall += wait
                    dram_ps += wait
        else:  # DOP_BG_WB / DOP_BG_FILL
            start = free_at if free_at > now else now
            cost = (
                rambus_pipelined_ps(dram, arg)
                if pipelined and start > now
                else rambus_transfer_ps(dram, arg)
            )
            free_at = start + cost
            if op == DOP_BG_FILL:
                ready[fills] = free_at
                fills += 1
                if len(ready) > pending_peak:
                    pending_peak = len(ready)
                overlap += free_at - now
    _timeline_pending_peak = pending_peak
    return dram_ps, stall, overlap


def _check_cell(params: MachineParams, plane: MissPlane) -> None:
    """Refuse a cell the plane cannot price: ineligible or mismatched."""
    if not plane_eligible(params):
        raise PlaneReplayError(
            f"machine kind={params.kind!r} is not plane-eligible"
        )
    if structure_digest(params) != plane.structure:
        raise PlaneReplayError(
            f"plane {plane.key} was recorded for a structurally different "
            "machine"
        )


def _reprice_cell(
    params: MachineParams,
    plane: MissPlane,
    dram_ps: int,
    stall_ps: int,
    overlap_ps: int,
):
    """Assemble one cell's result from its re-priced DRAM numbers."""
    from repro.systems.base import SimulationResult

    rec_cycle = plane.cycle_ps
    cell_cycle = cycle_time_ps(params.issue_rate_hz)
    level_times = plane.stats["level_times"]
    stats = _stats_from_dict(plane.stats)
    stats.dram_stall_ps = stall_ps
    stats.dram_overlap_ps = overlap_ps
    lt = stats.level_times
    lt.l1i = (level_times["l1i"] // rec_cycle) * cell_cycle
    lt.l1d = (level_times["l1d"] // rec_cycle) * cell_cycle
    lt.l2 = (level_times["l2"] // rec_cycle) * cell_cycle
    lt.dram = dram_ps
    lt.other = 0
    return SimulationResult(params=params, stats=stats)


def replay_group(params_list, plane: MissPlane) -> list:
    """Reprice a plane's recorded run under each cell's timing, in one pass.

    Pure arithmetic -- no workload, no machine state: rescale the
    recorded per-level cycle counts to each cell's clock and re-price
    the recorded DRAM interactions under its Rambus timing (see the
    module docstring for why this is exact).  The snapshot is checked
    once and the plane's memoized
    :class:`~repro.trace.replay_kernel.ReplayKernel` prices every cell
    in one :meth:`~repro.trace.replay_kernel.ReplayKernel.price_many`
    call, sharing per-timing cost tables across the group; a single
    cell is ``replay_group([params], plane)[0]``.  Returns, per cell,
    the byte-identical :class:`~repro.systems.base.SimulationResult`
    the full simulation would produce.  Raises
    :class:`PlaneReplayError` when the snapshot breaks a decoupling
    invariant or any cell is structurally different from the
    recording, so the caller can quarantine and recompute.
    """
    params_list = list(params_list)
    for params in params_list:
        _check_cell(params, plane)
    check_snapshot(plane)
    priced = plane.kernel().price_many(
        [(params.dram, cycle_time_ps(params.issue_rate_hz)) for params in params_list]
    )
    return [
        _reprice_cell(params, plane, *dram)
        for params, dram in zip(params_list, priced)
    ]
