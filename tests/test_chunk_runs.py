"""Tests for TraceChunk's cached views and run pre-translation.

The vectorized hot loops trust :class:`ChunkRuns` to partition a chunk
into maximal same-L1-block, same-class runs; these tests pin that
structure against a scalar re-derivation and exercise the cache-sharing
semantics of :meth:`TraceChunk.tail` and :meth:`TraceChunk.head`: a
split chunk's runs are a window over its source's run table, compared
here in window coordinates against the same oracles.
"""

import gc
import random
import tracemalloc
import weakref

import numpy as np
from helpers import random_chunks

from repro.trace.record import (
    IFETCH,
    WRITE,
    TraceChunk,
    _compute_runs,
    empty_chunk,
)

PAGE_BITS = 12
L1_BLOCK_BITS = 5
VPN_SPACE_BITS = 20
GEOMETRY = (PAGE_BITS, L1_BLOCK_BITS, VPN_SPACE_BITS)


def scalar_runs(chunk):
    """Reference derivation, one reference at a time."""
    runs = []
    page_mask = (1 << PAGE_BITS) - 1
    for i, (kind, addr) in enumerate(
        zip(chunk.kinds.tolist(), chunk.addrs.tolist())
    ):
        vblock = addr >> L1_BLOCK_BITS
        is_ifetch = kind == IFETCH
        if runs and runs[-1]["vblock"] == vblock and runs[-1]["is_ifetch"] == is_ifetch:
            runs[-1]["length"] += 1
            runs[-1]["writes"] += int(kind == WRITE)
        else:
            offset = addr & page_mask
            runs.append(
                {
                    "start": i,
                    "length": 1,
                    "vblock": vblock,
                    "is_ifetch": is_ifetch,
                    "writes": int(kind == WRITE),
                    "first_kind": kind,
                    "gvpn": (chunk.pid << VPN_SPACE_BITS) | (addr >> PAGE_BITS),
                    "offset": offset,
                    "bip": offset >> L1_BLOCK_BITS,
                }
            )
    return runs


def assert_runs_match(runs, expected, n):
    assert runs.n == n
    assert runs.starts == [r["start"] for r in expected]
    assert runs.lengths == [r["length"] for r in expected]
    assert runs.gvpns == [r["gvpn"] for r in expected]
    assert runs.offsets == [r["offset"] for r in expected]
    assert runs.bips == [r["bip"] for r in expected]
    assert runs.is_ifetch == [r["is_ifetch"] for r in expected]
    assert runs.writes == [r["writes"] for r in expected]
    assert runs.first_kinds == [r["first_kind"] for r in expected]


COLUMNS = (
    "starts",
    "lengths",
    "gvpns",
    "offsets",
    "bips",
    "is_ifetch",
    "writes",
    "first_kinds",
)


def assert_same_runs(runs, fresh):
    """Field-by-field identity of a window with a fresh computation."""
    assert runs.key == fresh.key
    assert runs.n == fresh.n
    for name in COLUMNS:
        assert getattr(runs, name) == getattr(fresh, name), name
    # The hot loops read rows(): table starts, window-bounded.
    rows = [(start - runs.base, *rest) for start, *rest in runs.rows()]
    assert rows == list(zip(*(getattr(fresh, name) for name in COLUMNS)))


def fresh_runs(chunk, geometry=GEOMETRY):
    """``_compute_runs`` over a copy of the chunk's arrays."""
    copy = TraceChunk(
        pid=chunk.pid, kinds=chunk.kinds.copy(), addrs=chunk.addrs.copy()
    )
    return _compute_runs(copy, *geometry)


def shares_table(runs, root):
    return all(a is b for a, b in zip(runs._columns, root._columns))


def test_runs_match_scalar_derivation():
    for chunk in random_chunks(7):
        runs = chunk.runs_for(*GEOMETRY)
        assert_runs_match(runs, scalar_runs(chunk), len(chunk))


def test_runs_split_on_class_change_within_a_block():
    # Same L1 block throughout, but ifetch/data alternation must split.
    chunk = TraceChunk(
        pid=0,
        kinds=np.array([IFETCH, IFETCH, 0, WRITE, IFETCH], dtype=np.uint8),
        addrs=np.array([0x100, 0x104, 0x108, 0x10C, 0x110], dtype=np.uint64),
    )
    runs = chunk.runs_for(*GEOMETRY)
    assert runs.starts == [0, 2, 4]
    assert runs.lengths == [2, 2, 1]
    assert runs.is_ifetch == [True, False, True]
    assert runs.writes == [0, 1, 0]


def test_runs_cached_and_keyed_by_geometry():
    chunk = random_chunks(3, n_chunks=1)[0]
    first = chunk.runs_for(*GEOMETRY)
    assert chunk.runs_for(*GEOMETRY) is first
    other = chunk.runs_for(PAGE_BITS, L1_BLOCK_BITS + 1, VPN_SPACE_BITS)
    assert other is not first
    assert other.key != first.key
    # The map keeps both: returning to the first geometry is a hit.
    assert chunk.runs_for(*GEOMETRY) is first
    assert chunk.runs_for(PAGE_BITS, L1_BLOCK_BITS + 1, VPN_SPACE_BITS) is other


def test_alternating_geometries_compute_once_each(monkeypatch):
    """Two geometries alternating over one chunk (the page-size-sweep
    pattern over a shared materialized chunk) must not thrash: one
    ``_compute_runs`` call per geometry, every later probe a hit."""
    import repro.trace.record as record_mod

    chunk = random_chunks(13, n_chunks=1)[0]
    calls = []
    real = record_mod._compute_runs

    def counting(chunk_, *geometry):
        calls.append(geometry)
        return real(chunk_, *geometry)

    monkeypatch.setattr(record_mod, "_compute_runs", counting)
    small = (7, L1_BLOCK_BITS, VPN_SPACE_BITS)
    large = (12, L1_BLOCK_BITS, VPN_SPACE_BITS)
    for _ in range(4):
        chunk.runs_for(*small)
        chunk.runs_for(*large)
    assert calls == [small, large]


def test_runs_map_is_bounded():
    chunk = random_chunks(17, n_chunks=1)[0]
    limit = TraceChunk.RUNS_CACHE_MAX
    for extra in range(limit + 3):
        chunk.runs_for(PAGE_BITS, L1_BLOCK_BITS, VPN_SPACE_BITS + extra)
    assert len(chunk._runs) == limit
    # FIFO: the oldest geometries were evicted, the newest survive.
    assert (PAGE_BITS, L1_BLOCK_BITS, VPN_SPACE_BITS + limit + 2) in chunk._runs
    assert (PAGE_BITS, L1_BLOCK_BITS, VPN_SPACE_BITS) not in chunk._runs


def test_empty_chunk_has_empty_runs():
    runs = empty_chunk().runs_for(*GEOMETRY)
    assert runs.n == 0
    assert runs.starts == []


def forbid_compute(monkeypatch):
    """Make any full run recomputation fail the test."""
    import repro.trace.record as record_mod

    def boom(*args):
        raise AssertionError("_compute_runs called; expected derivation")

    monkeypatch.setattr(record_mod, "_compute_runs", boom)


def test_tail_slices_runs_at_run_boundary(monkeypatch):
    chunk = random_chunks(11, n_chunks=1)[0]
    runs = chunk.runs_for(*GEOMETRY)
    cut = runs.starts[len(runs.starts) // 2]
    fresh = TraceChunk(
        pid=chunk.pid, kinds=chunk.kinds[cut:], addrs=chunk.addrs[cut:]
    ).runs_for(*GEOMETRY)
    tail = chunk.tail(cut)
    assert tail._runs_src is not None  # linked, not recomputed
    forbid_compute(monkeypatch)
    sliced = tail.runs_for(*GEOMETRY)
    assert sliced.starts == fresh.starts
    assert sliced.lengths == fresh.lengths
    assert sliced.gvpns == fresh.gvpns
    assert sliced.writes == fresh.writes
    assert sliced.n == fresh.n
    assert_same_runs(sliced, fresh)
    assert_runs_match(sliced, scalar_runs(tail), len(tail))
    # A window over the parent's table, not a copy of its suffix.
    assert shares_table(sliced, runs)
    assert tail._runs_src is None


def test_tail_mid_run_recomputes():
    # A cut inside a run cannot be patched up; the tail must recompute.
    chunk = TraceChunk(
        pid=0,
        kinds=np.array([0, 0, 0, 0], dtype=np.uint8),
        addrs=np.array([0x100, 0x104, 0x108, 0x10C], dtype=np.uint64),
    )
    chunk.runs_for(*GEOMETRY)
    tail = chunk.tail(2)
    assert tail._runs is None
    runs = tail.runs_for(*GEOMETRY)
    assert runs.starts == [0]
    assert runs.lengths == [2]


def test_chained_splits_derive_through_original_parent(monkeypatch):
    """tail-of-tail and head-of-tail keep one link to the chunk that
    actually holds the runs, so repeated preemption splits stay O(1)
    at split time and derive only the requested geometry on use."""
    chunk = random_chunks(15, n_chunks=1)[0]
    runs = chunk.runs_for(*GEOMETRY)
    other = (PAGE_BITS + 1, L1_BLOCK_BITS, VPN_SPACE_BITS)
    chunk.runs_for(*other)
    cut_a = runs.starts[len(runs.starts) // 3]
    cut_b = runs.starts[2 * len(runs.starts) // 3] - cut_a
    tail = chunk.tail(cut_a)
    deeper = tail.tail(cut_b)
    assert deeper._runs_src is not None
    assert deeper._runs_src[0] is chunk._runs  # not the intermediate tail
    forbid_compute(monkeypatch)
    derived = deeper.runs_for(*GEOMETRY)
    assert derived.n == len(chunk) - cut_a - cut_b
    # Only the geometry actually asked for was materialised.
    assert list(deeper._runs) == [GEOMETRY]
    assert shares_table(derived, runs)
    assert_runs_match(derived, scalar_runs(deeper), len(deeper))

    # The order Simulator.run uses: derive, tail, derive, tail, ...
    # Every window shares the root's table, a chunk that derived its
    # window links nowhere, and no split links to the chunk it was
    # split from, so each intermediate tail dies as soon as the loop
    # lets go of it (reference counting alone, no cycle collector).
    cuts = [runs.starts[i] for i in range(1, len(runs.starts), 7)]
    current = chunk
    gc.disable()
    try:
        for prev_cut, cut in zip([0] + cuts, cuts):
            window = current.runs_for(*GEOMETRY)
            assert shares_table(window, runs)
            assert current._runs_src is None
            assert_runs_match(window, scalar_runs(current), len(current))
            split = current.tail(cut - prev_cut)
            assert not isinstance(split._runs_src[0], TraceChunk)
            gone = weakref.ref(current)
            current = split
            if gone() is not chunk:
                assert gone() is None
    finally:
        gc.enable()
    assert shares_table(current.runs_for(*GEOMETRY), runs)


def test_tail_and_head_share_list_caches():
    """Split chunks are views of the parent's arrays, not copies."""
    chunk = random_chunks(5, n_chunks=1)[0]
    tail = chunk.tail(100)
    head = chunk.head(100)
    # numpy halves are views of the same buffers, not copies
    assert tail.addrs.base is not None
    assert head.addrs.base is not None


def test_head_inherits_truncated_runs(monkeypatch):
    """Heads link run structures forward; a cut mid-run fixes up the
    truncated run's length and write count against scalar derivation."""
    chunks = [random_chunks(9, n_chunks=1)[0] for _ in (1, 2, 97, 100, 255)]
    for chunk in chunks:
        chunk.runs_for(*GEOMETRY)
    forbid_compute(monkeypatch)
    for cut, chunk in zip((1, 2, 97, 100, 255), chunks):
        head = chunk.head(cut)
        assert head._runs_src is not None  # linked, not dropped
        assert_runs_match(head.runs_for(*GEOMETRY), scalar_runs(head), cut)


def test_head_prefix_at_run_boundary_and_full_length():
    chunk = random_chunks(21, n_chunks=1)[0]
    runs = chunk.runs_for(*GEOMETRY)
    boundary = runs.starts[len(runs.starts) // 2]
    head = chunk.head(boundary)
    assert_runs_match(head.runs_for(*GEOMETRY), scalar_runs(head), boundary)
    whole = chunk.head(len(chunk))
    assert whole.runs_for(*GEOMETRY) is runs  # full-length prefix is free


def run_heavy_chunk(seed, n, jump_p):
    """A chunk of sequential 4-byte steps broken by jumps with
    probability ``jump_p``, each stretch all instruction fetches or all
    data (reads and writes mixed), so runs span several references and
    cuts land mid-run as often as on a boundary."""
    rng = np.random.default_rng(seed)
    jumps = rng.random(n) < jump_p
    steps = np.where(jumps, rng.integers(64, 1 << 14, n) // 4 * 4, 4)
    addrs = (0x40_0000 + np.cumsum(steps)).astype(np.uint64)
    stretch = np.cumsum(jumps)
    ifetch = rng.random(stretch[-1] + 1) < 0.6
    data = np.where(rng.random(n) < 0.3, WRITE, 0)
    kinds = np.where(ifetch[stretch], IFETCH, data).astype(np.uint8)
    return TraceChunk(pid=seed % 3, kinds=kinds, addrs=addrs)


def test_random_split_sequences_match_fresh_runs():
    """Seeded random split sequences -- tails at run boundaries, tails
    mid-run, heads at and off run boundaries, in any nesting, with or
    without deriving between splits -- give every chunk the runs a
    fresh translation of its own arrays gives, in two geometries, and
    never modify the source chunk's tables."""
    geometries = (GEOMETRY, (PAGE_BITS - 2, L1_BLOCK_BITS + 1, VPN_SPACE_BITS))
    ops = ("tail_boundary", "tail_mid", "head_boundary", "head_mid")
    for seed in range(40):
        rng = random.Random(seed)
        chunk = run_heavy_chunk(seed, rng.randrange(40, 400), rng.uniform(0.02, 0.5))
        roots = [chunk.runs_for(*geometry) for geometry in geometries]
        snapshot = [[list(column) for column in root._columns] for root in roots]
        chunks = [chunk]
        current = chunk
        for _ in range(rng.randrange(1, 15)):
            n = len(current)
            if n < 2:
                break
            geometry = rng.choice(geometries)
            derived = current.runs_for(*geometry) if rng.random() < 0.6 else None
            boundaries = set(fresh_runs(current, geometry).starts[1:])
            middles = sorted(set(range(1, n)) - boundaries)
            op = rng.choice(ops)
            pool = sorted(boundaries) if op.endswith("boundary") else middles
            if not pool:
                continue
            cut = rng.choice(pool)
            split = current.tail(cut) if op.startswith("tail") else current.head(cut)
            if derived is not None and op.endswith("boundary"):
                # At a run boundary the split's window reuses the table.
                assert shares_table(split.runs_for(*geometry), derived)
            chunks.append(split)
            current = split
        for piece in chunks:
            for geometry in rng.sample(geometries, len(geometries)):
                assert_same_runs(piece.runs_for(*geometry), fresh_runs(piece, geometry))
        for root, columns in zip(roots, snapshot):
            assert [list(column) for column in root._columns] == columns


def test_split_chain_memory_stays_flat():
    """200 derive -> tail splits of a 5 000-run chunk, as a switch-on-miss
    machine preempting every 20 runs would make, allocate no run table:
    each tail's runs are a window over the first chunk's."""
    n_runs, step, splits = 5_000, 20, 200
    # One reference per L1 block: every reference starts a run.
    addrs = np.arange(n_runs, dtype=np.uint64) << np.uint64(L1_BLOCK_BITS)
    chunk = TraceChunk(pid=0, kinds=np.zeros(n_runs, np.uint8), addrs=addrs)
    assert len(chunk.runs_for(*GEOMETRY).starts) == n_runs
    gc.disable()
    tracemalloc.start()
    try:
        current = chunk
        for _ in range(splits):
            current.runs_for(*GEOMETRY)
            current = current.tail(step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(current) == n_runs - splits * step
    assert_same_runs(current.runs_for(*GEOMETRY), fresh_runs(current))
    assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"
