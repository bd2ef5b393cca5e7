"""Materialized workload plane: synthesize the trace once, replay it everywhere.

The paper treats its 1.1 G-reference interleaved workload as a *fixed
input artifact* -- every table and figure sweeps machine parameters over
the same reference stream -- yet live synthesis
(:func:`repro.trace.synthetic.build_workload`) re-derives that stream
for every grid cell and every worker process.  This module materializes
the workload exactly once per ``(scale, seed, WORKLOAD_VERSION)`` key:

* **synthesis** runs one time and lands in flat ``kinds``/``addrs``
  arrays (one contiguous segment per program),
* the arrays persist as memmap-able ``.npy`` artifacts under the cache
  directory, guarded by the artifact store -- schema + workload-version
  tag, SHA-256 checksums, atomic directory commit, and
  quarantine-instead-of-crash on corruption,
* replay wraps the shared arrays in :class:`MaterializedProgram`\\ s
  whose chunks are numpy *views* into the arrays, pre-built once so the
  per-chunk derived caches (scalar list views, per-geometry
  :class:`~repro.trace.record.ChunkRuns`) are shared across every cell
  of a sweep instead of being rebuilt per cell.

Replay carries the same reference content as live synthesis, so
simulated results, run-record cache keys and cached JSON bytes do not
change (``tests/test_materialize.py`` pins the content, and the sweep
tests compare records against full simulation over live synthesis).
Replay chunks are cut at the interleaver's time-slice boundaries
(``slice_refs``), so the scheduler never splits a shared chunk and its
per-geometry run pre-translations survive intact across every grid
cell; chunk boundaries carry no meaning (``tests/test_determinism.py``).

Artifact layout (one directory per key under ``<cache_dir>/traces/``)::

    traces/<key>/
    ├── kinds.npy       # uint8, all programs concatenated
    ├── addrs.npy       # uint64, parallel to kinds
    └── manifest.json   # schema, version, row counts, checksums, program table

Commits, validation and quarantine are the artifact store's
(:mod:`repro.trace.artifacts`); this module adds only the program
table, which it writes and checks against the live catalogue.  Keys
hash the schema tag, so a ``rampage-trace/1`` directory is never
attached: ``cache verify`` reports it stale.

Sharing is process-local and not thread-safe: one in-process registry
(:func:`get_workload`) hands the same :class:`MaterializedWorkload` to
every runner and grid cell.  Every process -- serial runners and pool
workers alike -- resolves its trace through
:func:`get_workload` over the same cache directory, so a worker
attaches the committed artifact by mmap instead of re-running
synthesis.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.errors import CacheIntegrityError
from repro.core.observe import EventLog
from repro.trace import artifacts
from repro.trace.artifacts import MANIFEST_NAME as MANIFEST_NAME
from repro.trace.artifacts import QUARANTINE_SUFFIX as QUARANTINE_SUFFIX
from repro.trace.artifacts import WORKLOAD_VERSION
from repro.trace.benchmarks import TABLE2_PROGRAMS, ProgramSpec
from repro.trace.record import ADDR_DTYPE, KIND_DTYPE, TraceChunk
from repro.trace.synthetic import DEFAULT_CHUNK, build_workload

#: Artifact manifest schema tag, bumped when the artifact layout changes.
TRACE_SCHEMA = "rampage-trace/2"

#: Earlier layouts: unreachable by key, reported stale rather than corrupt.
STALE_TRACE_SCHEMAS = ("rampage-trace/1",)

#: Subdirectory of the cache directory holding trace artifacts.
TRACE_DIRNAME = "traces"

KINDS_NAME = "kinds.npy"
ADDRS_NAME = "addrs.npy"

#: The arrays of a trace artifact (see :mod:`repro.trace.artifacts`).
_ARRAYS = (("kinds", KIND_DTYPE, 0), ("addrs", ADDR_DTYPE, 0))

#: One program table row: spec, pid, seed, start and stop offsets.
ProgramEntry = tuple[ProgramSpec, int, int, int, int]


def workload_key(
    scale: float, seed: int, programs: tuple[ProgramSpec, ...] = TABLE2_PROGRAMS
) -> str:
    """Stable identity of one materialized workload.

    Mirrors the run-record cache's keying style: SHA-256 over the
    complete generation identity (version, layout schema, scale, seed,
    program catalogue), truncated to 24 hex digits.
    """
    blob = "|".join(
        (
            WORKLOAD_VERSION,
            TRACE_SCHEMA,
            f"scale={scale!r}",
            f"seed={seed}",
            "programs=" + ",".join(spec.name for spec in programs),
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _slice_spans(
    total_refs: int, slice_refs: int, cap: int
) -> list[tuple[int, int]]:
    """Chunk boundaries aligned to the interleaver's time slices.

    Per program, the round-robin scheduler consumes exactly
    ``slice_refs`` contiguous references per turn, requesting at most
    ``min(chunk_refs, slice_left)`` at a time
    (:meth:`~repro.trace.interleave.InterleavedWorkload.next_chunk`).
    Cutting each slice window into at-most-``cap`` pieces therefore
    produces chunks the scheduler always hands out *whole*: replay never
    splits a shared chunk, so its per-geometry run pre-translations are
    reused intact by every grid cell.  Chunk boundaries are not
    semantically meaningful (``tests/test_determinism.py`` pins that
    simulated results are chunking-invariant), so this changes no
    simulated output -- only how often derived caches are rebuilt.
    """
    bounds: list[tuple[int, int]] = []
    pos = 0
    while pos < total_refs:
        window = min(total_refs - pos, slice_refs)
        for start in range(0, window, cap):
            bounds.append((pos + start, pos + min(start + cap, window)))
        pos += window
    return bounds


class MaterializedProgram:
    """Replay cursor over one program's pre-synthesized reference arrays.

    Drop-in for :class:`~repro.trace.synthetic.SyntheticProgram` on the
    consumer side (``pid`` attribute plus a restartable :meth:`chunks`),
    but :meth:`chunks` yields the *same* pre-built
    :class:`~repro.trace.record.TraceChunk` objects on every pass: their
    arrays are views into the shared (possibly memmapped) workload
    arrays, and their derived caches -- scalar list views and the
    per-geometry run pre-translations -- accumulate once and are reused
    by every simulation that replays the program.
    """

    def __init__(
        self,
        spec: ProgramSpec,
        pid: int,
        seed: int,
        kinds: np.ndarray,
        addrs: np.ndarray,
        slice_refs: int,
        chunk_refs: int = DEFAULT_CHUNK,
    ) -> None:
        if len(kinds) != len(addrs):
            raise CacheIntegrityError(
                f"program {spec.name}: kinds ({len(kinds)}) and addrs "
                f"({len(addrs)}) disagree in length"
            )
        self.spec = spec
        self.pid = pid
        self.seed = seed
        self.total_refs = len(kinds)
        self.chunk_refs = chunk_refs
        self.slice_refs = slice_refs
        bounds = _slice_spans(self.total_refs, slice_refs, chunk_refs)
        self._chunks = [
            TraceChunk(pid=pid, kinds=kinds[lo:hi], addrs=addrs[lo:hi])
            for lo, hi in bounds
        ]

    def chunks(self):
        """Yield the shared chunk objects (restartable, zero synthesis)."""
        yield from self._chunks


@dataclass
class MaterializedWorkload:
    """One materialized workload: shared programs plus provenance."""

    key: str
    programs: list[MaterializedProgram]
    #: Artifact directory on disk, or ``None`` for in-memory planes.
    path: Path | None = None
    #: True when this materialization ran synthesis (vs attached).
    synthesized: bool = False

    @property
    def total_refs(self) -> int:
        return sum(program.total_refs for program in self.programs)


# ----------------------------------------------------------------------
# Synthesis
# ----------------------------------------------------------------------

#: Incremented every time live synthesis runs; tests assert the plane
#: collapses redundant generation to exactly one pass.
synthesis_count = 0


def _synthesize(
    scale: float, seed: int, programs: tuple[ProgramSpec, ...]
) -> tuple[list[ProgramEntry], np.ndarray, np.ndarray]:
    """Run live synthesis once; returns the program table and flat arrays."""
    global synthesis_count
    synthesis_count += 1
    table: list[ProgramEntry] = []
    kinds_parts: list[np.ndarray] = []
    addrs_parts: list[np.ndarray] = []
    stop = 0
    for program in build_workload(scale, seed=seed, programs=programs):
        start = stop
        for chunk in program.chunks():
            kinds_parts.append(chunk.kinds)
            addrs_parts.append(chunk.addrs)
            stop += len(chunk.kinds)
        table.append((program.spec, program.pid, program.seed, start, stop))
    return table, np.concatenate(kinds_parts), np.concatenate(addrs_parts)


def _programs_from_arrays(
    segments: list[ProgramEntry],
    kinds: np.ndarray,
    addrs: np.ndarray,
    slice_refs: int,
    chunk_refs: int,
) -> list[MaterializedProgram]:
    """Wrap flat workload arrays as per-program replay cursors."""
    return [
        MaterializedProgram(
            spec=spec,
            pid=pid,
            seed=seed,
            kinds=kinds[start:stop],
            addrs=addrs[start:stop],
            slice_refs=slice_refs,
            chunk_refs=chunk_refs,
        )
        for spec, pid, seed, start, stop in segments
    ]


# ----------------------------------------------------------------------
# Disk artifacts
# ----------------------------------------------------------------------


def trace_root(cache_dir: str | Path) -> Path:
    """The trace-artifact subdirectory of a cache directory."""
    return Path(cache_dir) / TRACE_DIRNAME


def artifact_dir(cache_dir: str | Path, key: str) -> Path:
    return trace_root(cache_dir) / key


def write_artifact(
    directory: str | Path,
    key: str,
    scale: float,
    seed: int,
    table: list[ProgramEntry],
    kinds: np.ndarray,
    addrs: np.ndarray,
) -> Path:
    """Commit one workload's arrays and program table (atomically)."""
    return artifacts.commit(
        directory,
        {"kinds": kinds, "addrs": addrs},
        {
            "schema": TRACE_SCHEMA,
            "key": key,
            "scale": scale,
            "seed": seed,
            "total_refs": int(len(kinds)),
            "programs": [
                {"name": spec.name, "pid": pid, "seed": pseed, "start": lo, "stop": hi}
                for spec, pid, pseed, lo, hi in table
            ],
        },
    )


def read_manifest(directory: str | Path) -> dict:
    """A trace artifact's validated manifest (see :mod:`repro.trace.artifacts`)."""
    return artifacts.read_manifest(directory, TRACE_SCHEMA, STALE_TRACE_SCHEMAS)


def load_artifact(
    directory: str | Path,
    slice_refs: int,
    chunk_refs: int = DEFAULT_CHUNK,
    programs: tuple[ProgramSpec, ...] = TABLE2_PROGRAMS,
) -> list[MaterializedProgram]:
    """Attach to an on-disk artifact; returns its replay programs.

    The store validates the manifest and the arrays; this checks the
    program table against the array length and the live catalogue.
    Any failure raises :class:`CacheIntegrityError` so callers can
    quarantine and regenerate.  Arrays are memory-mapped read-only, so
    attaching costs one manifest read plus a checksum pass, never a
    synthesis.
    """
    manifest = read_manifest(directory)
    arrays = artifacts.load_arrays(directory, manifest, _ARRAYS)
    kinds, addrs = arrays["kinds"], arrays["addrs"]
    total = manifest.get("total_refs")
    if not (len(kinds) == len(addrs) == total):
        raise CacheIntegrityError(
            f"array lengths ({len(kinds)}, {len(addrs)}) disagree with "
            f"manifest total_refs ({total})"
        )
    table = manifest.get("programs")
    if not isinstance(table, list) or not table:
        raise CacheIntegrityError("manifest has no program table")
    catalogue = {spec.name: spec for spec in programs}
    segments: list[ProgramEntry] = []
    expected_start = 0
    for entry in table:
        try:
            spec = catalogue[entry["name"]]
            start, stop = int(entry["start"]), int(entry["stop"])
            pid, seed = int(entry["pid"]), int(entry["seed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheIntegrityError(f"bad program table entry: {exc}") from exc
        if start != expected_start or stop < start or stop > total:
            raise CacheIntegrityError(
                f"program table not contiguous at {entry['name']}"
            )
        expected_start = stop
        segments.append((spec, pid, seed, start, stop))
    if expected_start != total:
        raise CacheIntegrityError(
            f"program table covers {expected_start} of {total} references"
        )
    return _programs_from_arrays(segments, kinds, addrs, slice_refs, chunk_refs)


# ----------------------------------------------------------------------
# Process-level registry
# ----------------------------------------------------------------------

#: Materializations already attached in this process.  Bounded FIFO:
#: one workload per (scale, seed) is the common case; sweeps over many
#: cache directories (benchmarks) stay bounded.
_REGISTRY: dict[tuple, MaterializedWorkload] = {}
_REGISTRY_MAX = 8


def _remember(key: tuple, plane: MaterializedWorkload) -> MaterializedWorkload:
    if key not in _REGISTRY and len(_REGISTRY) >= _REGISTRY_MAX:
        _REGISTRY.pop(next(iter(_REGISTRY)))
    _REGISTRY[key] = plane
    return plane


def clear_registry() -> None:
    """Drop every in-process materialization (tests and benchmarks)."""
    _REGISTRY.clear()


def get_workload(
    scale: float,
    seed: int,
    cache_dir: str | Path | None = None,
    *,
    slice_refs: int,
    chunk_refs: int = DEFAULT_CHUNK,
    programs: tuple[ProgramSpec, ...] = TABLE2_PROGRAMS,
    events=None,
) -> MaterializedWorkload:
    """The materialized workload for ``(scale, seed)``, shared in-process.

    Resolution order:

    1. the in-process registry (every runner and grid cell of a sweep
       shares one materialization),
    2. a valid on-disk artifact under ``cache_dir`` (mmap attach),
    3. fresh synthesis -- run once, committed to disk when ``cache_dir``
       is set, and registered for the rest of the process.

    A corrupt artifact is quarantined and regenerated, and a failed
    commit is a ``trace_commit_failed`` event; neither propagates.
    ``slice_refs`` is the interleaver's time slice:
    replay chunks are cut at its boundaries (see :func:`_slice_spans`).
    It shapes only the in-memory chunking, never the on-disk artifact.
    """
    events = events if events is not None else EventLog(None)
    key = workload_key(scale, seed, programs)
    registry_key = (
        key,
        chunk_refs,
        slice_refs,
        str(cache_dir) if cache_dir is not None else None,
    )
    plane = _REGISTRY.get(registry_key)
    if plane is not None:
        return plane

    path: Path | None = None
    if cache_dir is not None:
        path = artifact_dir(cache_dir, key)
        replay = artifacts.attach(
            "trace",
            key,
            path,
            lambda directory: load_artifact(
                directory, slice_refs, chunk_refs=chunk_refs, programs=programs
            ),
            events,
        )
        if replay is not None:
            events.emit(
                "trace_attached",
                key=key,
                path=str(path),
                refs=sum(p.total_refs for p in replay),
            )
            return _remember(
                registry_key,
                MaterializedWorkload(key=key, programs=replay, path=path),
            )

    table, kinds, addrs = _synthesize(scale, seed, programs)
    if path is not None:
        path = artifacts.persist(
            "trace",
            key,
            path,
            lambda directory: write_artifact(
                directory, key, scale, seed, table, kinds, addrs
            ),
            events,
        )
    replay = _programs_from_arrays(table, kinds, addrs, slice_refs, chunk_refs)
    plane = MaterializedWorkload(
        key=key, programs=replay, path=path, synthesized=True
    )
    events.emit(
        "trace_materialized",
        key=key,
        path=str(path) if path is not None else None,
        refs=plane.total_refs,
    )
    return _remember(registry_key, plane)
