"""Reference kinds and record types.

A memory reference is a ``(kind, vaddr)`` pair belonging to a process.
Kinds follow the classic dinero numbering so ``.din`` files round-trip:
``0`` = data read, ``1`` = data write, ``2`` = instruction fetch.

Bulk data moves through :class:`TraceChunk` -- parallel numpy arrays of
kinds and addresses for one process -- because a per-reference Python
object would dominate simulation time.  :class:`Reference` exists for
the scalar API and tests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.core.errors import TraceFormatError

READ = 0
WRITE = 1
IFETCH = 2

KIND_NAMES = {READ: "read", WRITE: "write", IFETCH: "ifetch"}
_VALID_KINDS = frozenset(KIND_NAMES)

KIND_DTYPE = np.uint8
ADDR_DTYPE = np.uint64


class Reference(NamedTuple):
    """A single memory reference by one process."""

    kind: int
    vaddr: int
    pid: int = 0

    def validate(self, vaddr_bits: int = 32) -> "Reference":
        """Return self after checking kind and address range."""
        if self.kind not in _VALID_KINDS:
            raise TraceFormatError(f"unknown reference kind {self.kind}")
        if not 0 <= self.vaddr < (1 << vaddr_bits):
            raise TraceFormatError(
                f"address {self.vaddr:#x} outside {vaddr_bits}-bit space"
            )
        if self.pid < 0:
            raise TraceFormatError(f"negative pid {self.pid}")
        return self


def _window_column(index: int, doc: str) -> property:
    """A read-only :class:`ChunkRuns` attribute: one column over the window."""

    def get(self: "ChunkRuns") -> list:
        return self._columns[index][self.lo : self.hi]

    return property(get, doc=doc)


@dataclass(eq=False)
class ChunkRuns:
    """Vectorized pre-translation of one :class:`TraceChunk`.

    The simulators' hot loops spend most of their time re-deriving the
    same page and L1-block numbers for consecutive references that land
    in the same block.  This stage batch-computes, once per chunk with
    numpy, the maximal *runs* of consecutive references that share one
    L1 block and one reference class (instruction fetch vs data) -- a
    run is the largest unit the hot loop can fast-forward over, because
    every reference after the first is guaranteed the same translation
    and the same L1 hit/miss outcome.

    The runs live in a *table* of eight parallel per-run Python lists
    (iterating plain lists is what the interpreter loop consumes
    fastest), in table order:

    ``starts``       index of the run's first reference
    ``lengths``      number of references in the run
    ``gvpns``        global virtual page number (pid | vpn) of the run
    ``offsets``      first reference's byte offset within its page
    ``bips``         first reference's L1-block index within its page
    ``is_ifetch``    True for instruction-fetch runs
    ``writes``       how many of the run's references are writes
    ``first_kinds``  kind of the run's first reference

    A ``ChunkRuns`` is a *window* over such a table: runs ``lo`` to
    ``hi`` (exclusive), covering the ``n`` references that start at
    table reference ``base``.  The chunk that computed the table sees
    all of it; chunks split off it (:meth:`TraceChunk.tail`,
    :meth:`TraceChunk.head`) narrow the window with a bisect and share
    the table, so a split never copies the runs after it.  The column
    attributes above return the window's slice in window coordinates
    (a copy, for inspection and tests); hot loops iterate
    :meth:`rows` instead.

    ``key`` records the geometry (page bits, L1 block bits, vpn space
    bits) the runs were computed for; a chunk re-computes lazily when a
    machine with different geometry consumes it.
    """

    key: tuple[int, int, int]
    _columns: tuple[list, ...] = field(repr=False)
    lo: int
    hi: int
    base: int
    n: int

    @property
    def starts(self) -> list[int]:
        """Each run's first reference, as an index into the window."""
        base = self.base
        return [start - base for start in self._columns[0][self.lo : self.hi]]

    lengths = _window_column(1, "References per run.")
    gvpns = _window_column(2, "Global virtual page number of each run.")
    offsets = _window_column(3, "First reference's byte offset in its page.")
    bips = _window_column(4, "First reference's L1-block index in its page.")
    is_ifetch = _window_column(5, "True for instruction-fetch runs.")
    writes = _window_column(6, "Writes among each run's references.")
    first_kinds = _window_column(7, "Kind of each run's first reference.")

    def rows(self) -> Iterator[tuple]:
        """Iterate the window's runs as one tuple per run, in table order.

        Each column is read by a list iterator positioned at ``lo``
        (``__setstate__``, O(1)), so the loop starts at the window's
        first run without slicing or stepping over earlier runs.  A
        row's ``start`` is in table coordinates: ``start - base`` is
        its index into the window.
        """
        lo = self.lo
        readers = []
        for column in self._columns:
            reader = iter(column)
            reader.__setstate__(lo)
            readers.append(reader)
        readers[0] = islice(readers[0], self.hi - lo)
        return zip(*readers)

    def suffix(self, consumed: int) -> "ChunkRuns | None":
        """Runs for the window's tail starting at ``consumed``.

        A bisect over the shared table, no copy.  Returns None when
        ``consumed`` is not a run boundary (the tail must then
        recompute).  Preemption always happens on a TLB miss, i.e. at
        the first reference of a run, so preemption tails always hit;
        a slice boundary usually lands mid-run.
        """
        if consumed == 0:
            return self
        at = self.base + consumed
        starts = self._columns[0]
        idx = bisect_left(starts, at, self.lo, self.hi)
        boundary = starts[idx] if idx < self.hi else self.base + self.n
        if boundary != at:
            return None
        return ChunkRuns(self.key, self._columns, idx, self.hi, at, self.n - consumed)

    def prefix(self, count: int, kinds: np.ndarray) -> "ChunkRuns":
        """Runs for the window's first ``count`` references.

        A cut at a run boundary is a bisect over the shared table, like
        :meth:`suffix`.  A cut landing mid-run copies the window's runs
        up to the cut into a table of its own: every field of the
        truncated run is unchanged except its length and write count,
        and the write count is recovered by rescanning only the
        truncated run's own references (``kinds`` is the window's kind
        array) -- O(one run) of rescanning, not a fresh translation
        pass.  The interleaver cuts a chunk this way at most once per
        time slice.
        """
        if count >= self.n:
            return self
        end = self.base + count
        starts, lengths, *_ = self._columns
        lo = self.lo
        idx = bisect_left(starts, end, lo, self.hi)
        if idx == lo or starts[idx - 1] + lengths[idx - 1] == end:
            return ChunkRuns(self.key, self._columns, lo, idx, self.base, count)
        columns = [column[lo:idx] for column in self._columns]
        base = self.base
        if base:
            columns[0] = [start - base for start in columns[0]]
        last_start = columns[0][-1]
        columns[1][-1] = count - last_start
        if columns[6][-1]:
            columns[6][-1] = int(
                np.count_nonzero(kinds[last_start:count] == WRITE)
            )
        return ChunkRuns(self.key, tuple(columns), 0, idx - lo, 0, count)


#: A chunk's cached runs, one window per geometry key.
RunsMap = dict[tuple[int, int, int], ChunkRuns]


def _compute_runs(
    chunk: "TraceChunk", page_bits: int, l1_block_bits: int, vpn_space_bits: int
) -> ChunkRuns:
    key = (page_bits, l1_block_bits, vpn_space_bits)
    kinds = chunk.kinds
    addrs = chunk.addrs
    n = len(addrs)
    if n == 0:
        return ChunkRuns(key, tuple([] for _ in range(8)), 0, 0, 0, 0)
    vblocks = addrs >> np.uint64(l1_block_bits)
    is_ifetch = kinds == IFETCH
    bounds = np.empty(n, dtype=bool)
    bounds[0] = True
    np.not_equal(vblocks[1:], vblocks[:-1], out=bounds[1:])
    np.logical_or(bounds[1:], is_ifetch[1:] != is_ifetch[:-1], out=bounds[1:])
    starts = np.flatnonzero(bounds)
    lengths = np.diff(starts, append=n)
    first_addrs = addrs[starts]
    pid_base = chunk.pid << vpn_space_bits
    gvpns = (first_addrs >> np.uint64(page_bits)) | np.uint64(pid_base)
    offsets = first_addrs & np.uint64((1 << page_bits) - 1)
    bips = offsets >> np.uint64(l1_block_bits)
    cum_writes = np.concatenate(([0], np.cumsum(kinds == WRITE)))
    writes = cum_writes[starts + lengths] - cum_writes[starts]
    columns = (
        starts.tolist(),
        lengths.tolist(),
        gvpns.tolist(),
        offsets.tolist(),
        bips.tolist(),
        is_ifetch[starts].tolist(),
        writes.tolist(),
        kinds[starts].tolist(),
    )
    return ChunkRuns(key, columns, 0, len(starts), 0, n)


@dataclass
class TraceChunk:
    """A run of references from a single process.

    ``kinds`` and ``addrs`` are parallel arrays.  ``new_slice`` marks
    the first chunk after a scheduling boundary; the simulator inserts
    a context-switch trace there when scheduled switches are enabled.

    The per-machine :class:`ChunkRuns` pre-translation is computed
    lazily and cached.  Chunks split off by :meth:`tail` and
    :meth:`head` inherit it as windows over the same run table, so a
    preempted chunk never re-translates references it already paid
    for; a split costs a bisect.
    """

    pid: int
    kinds: np.ndarray
    addrs: np.ndarray
    new_slice: bool = False
    #: Per-geometry map of pre-translated runs (see :meth:`runs_for`).
    _runs: RunsMap | None = field(
        default=None, repr=False, compare=False
    )
    #: Lazy link into the run map of the chunk this one was split
    #: from: ``(runs, start, stop)``, with ``start``/``stop`` in that
    #: chunk's reference coordinates.  A split chunk derives a
    #: geometry's window from the map on first use instead of eagerly
    #: narrowing every cached geometry at split time -- most geometries
    #: in a shared chunk's map belong to other grid cells.  The link
    #: holds the map, not the chunk, and is dropped once this chunk has
    #: runs of its own, so a chain of preemption tails never keeps its
    #: earlier members alive.
    _runs_src: tuple[RunsMap, int, int] | None = field(
        default=None, repr=False, compare=False
    )

    #: Bound on cached geometries per chunk.  Sweeps that alternate
    #: machine geometries over one shared chunk (the RAMpage
    #: 128 B-4 KB page-size sweep crosses 6, plus the fixed
    #: conventional geometry) must all fit or the map thrashes like
    #: the single slot it replaced; FIFO eviction above the bound
    #: keeps worst-case memory proportional to a handful of run
    #: structures per chunk.
    RUNS_CACHE_MAX = 8

    def __post_init__(self) -> None:
        if len(self.kinds) != len(self.addrs):
            raise TraceFormatError(
                f"kinds ({len(self.kinds)}) and addrs ({len(self.addrs)}) "
                "must have equal length"
            )

    def __len__(self) -> int:
        return len(self.kinds)

    def runs_for(
        self, page_bits: int, l1_block_bits: int, vpn_space_bits: int
    ) -> ChunkRuns:
        """Return (computing lazily) the pre-translated run structure.

        Cached per geometry: a chunk shared across grid cells that
        alternate machine geometries (page-size sweeps, mixed grids
        over one materialized workload) keeps every geometry's runs
        instead of recomputing on each alternation.
        """
        cache = self._runs
        if cache is None:
            cache = self._runs = {}
        key = (page_bits, l1_block_bits, vpn_space_bits)
        runs = cache.get(key)
        if runs is None:
            runs = self._derived_runs(key)
            self._runs_src = None
            if runs is None:
                runs = _compute_runs(
                    self, page_bits, l1_block_bits, vpn_space_bits
                )
            if len(cache) >= self.RUNS_CACHE_MAX:
                cache.pop(next(iter(cache)))
            cache[key] = runs
        return runs

    def _derived_runs(self, key: tuple[int, int, int]) -> ChunkRuns | None:
        """Narrow the linked map's ``key`` window to this chunk, if possible.

        Returns None -- recompute from the arrays -- when there is no
        link, the linked map lacks this geometry, or this chunk starts
        mid-run (only the run *ending* the window can be patched up;
        see :meth:`ChunkRuns.prefix`).
        """
        src = self._runs_src
        if src is None:
            return None
        source, start, stop = src
        base = source.get(key)
        if base is None:
            return None
        runs = base.suffix(start)
        if runs is not None and stop - start < runs.n:
            runs = runs.prefix(stop - start, self.kinds)
        return runs

    def _split_link(self, start: int, stop: int) -> tuple[RunsMap, int, int] | None:
        """The run-map link for a chunk split off at ``[start, stop)``."""
        if self._runs:
            return (self._runs, start, stop)
        if self._runs_src is not None:
            source, base, _ = self._runs_src
            return (source, base + start, base + stop)
        return None

    def tail(self, consumed: int) -> "TraceChunk":
        """The unconsumed suffix as a new chunk.

        Arrays are numpy views (no copy), and the run map is linked
        lazily -- the tail derives a geometry's window the first time a
        machine asks for it (:meth:`_derived_runs`).  At a run boundary,
        which is where every preemption lands, that costs one bisect, so
        handing a preemption tail back to the scheduler is O(log runs)
        for the one geometry in use, however many times the chunk has
        already been split.
        """
        chunk = TraceChunk(
            pid=self.pid,
            kinds=self.kinds[consumed:],
            addrs=self.addrs[consumed:],
        )
        chunk._runs_src = self._split_link(consumed, len(self.kinds))
        return chunk

    def head(self, count: int) -> "TraceChunk":
        """The first ``count`` references as a new chunk.

        Like :meth:`tail`, arrays are views and runs derive lazily as a
        window.  A cut landing mid-run copies the head's runs and
        rescans only the cut run's references (:meth:`ChunkRuns.prefix`),
        far cheaper than the full translation pass the head would
        otherwise repeat.
        """
        chunk = TraceChunk(
            pid=self.pid,
            kinds=self.kinds[:count],
            addrs=self.addrs[:count],
        )
        chunk._runs_src = self._split_link(0, count)
        return chunk

    def references(self) -> Iterator[Reference]:
        """Iterate as scalar :class:`Reference` values (slow path)."""
        pid = self.pid
        for kind, addr in zip(self.kinds.tolist(), self.addrs.tolist()):
            yield Reference(kind, addr, pid)

    @classmethod
    def from_references(cls, refs: Iterable[Reference], pid: int | None = None) -> "TraceChunk":
        """Build a chunk from scalar references (all must share a pid)."""
        refs = list(refs)
        if pid is None:
            pid = refs[0].pid if refs else 0
        for ref in refs:
            if ref.pid != pid:
                raise TraceFormatError(
                    f"chunk mixes pids {pid} and {ref.pid}; split it first"
                )
        kinds = np.fromiter((r.kind for r in refs), dtype=KIND_DTYPE, count=len(refs))
        addrs = np.fromiter((r.vaddr for r in refs), dtype=ADDR_DTYPE, count=len(refs))
        return cls(pid=pid, kinds=kinds, addrs=addrs)


def empty_chunk(pid: int = 0) -> TraceChunk:
    """Return a zero-length chunk (useful as a stream sentinel)."""
    return TraceChunk(
        pid=pid,
        kinds=np.empty(0, dtype=KIND_DTYPE),
        addrs=np.empty(0, dtype=ADDR_DTYPE),
    )
