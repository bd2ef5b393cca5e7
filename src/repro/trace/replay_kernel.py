"""Vectorized decision-op replay kernel: batch-price whole plane groups.

The decision-op tape of a recording (:mod:`repro.trace.filter`)
re-prices one sibling cell with the scalar max-plus recursion
``_replay_timeline`` -- a per-op Python loop, which would cost
``O(cells x ops)`` interpreted steps per
:func:`~repro.trace.filter.replay_group` call.  This module, the one
production pricing engine, replaces the interpreter with array
operations, exploiting a structural theorem about the recursion:

**After every synchronous transfer the channel is drained.**  A
``SYNC`` op ends with ``free_at == now`` (the CPU waits the transfer
out), ``now`` is monotone (cycle counts are nondecreasing and ``extra``
only grows), and ``free_at``/fill-ready times never move backwards --
so immediately after a ``SYNC`` the channel backlog is gone *and* every
previously queued background fill has completed relative to the CPU.
Splitting the tape at its ``SYNC`` ops therefore yields **windows**
that are completely independent of each other: each window's starting
channel state is exactly "free since the previous SYNC's cycle stamp",
whatever happened before it, and a ``WAIT`` whose fill sits in an
earlier window can never stall, under *any* (dram, cycle) timing.

That classification is timing-invariant -- it depends only on op kinds
and positions -- so it is computed **once per plane** and shared by
every sibling cell of a group:

* **simple windows** (no background op): the terminal ``SYNC`` sees an
  idle channel at every timing -- zero wait, plain transfer cost.  All
  simple syncs price together as one ``counts @ price_table`` dot
  product over the tape's few distinct transfer sizes.  A
  non-preempting machine's tape is nothing but simple windows.
* **single-background windows** (exactly one ``BG_*``, no live
  ``WAIT``): closed form.  The background starts at its own ``now``
  (idle channel, plain cost); the terminal sync's queueing wait is
  ``max(0, (bg_cyc - sync_cyc) * cycle_ps + bg_cost)``, pipelined cost
  iff it actually queued.  One vectorized pass prices every such
  window.
* **contended windows** (two or more background ops, or a ``WAIT``
  coupled to a same-window fill): the genuine sequential scan, run
  window-locally on precomputed cost columns with a bounded, per-window
  fill table.  Real switch-on-miss tapes leave well under 1% of ops
  here.

Shift-invariance makes the window-local scan exact: inside a window
only *differences* against the window's start matter, so the scan runs
in coordinates shifted by the accumulated ``extra`` at window entry --
the same integers the absolute-time recursion produces, without
threading any cross-window state.

Tapes whose cycle stamps are not nondecreasing (never produced by a
recording, but accepted for oracle parity) fall back to a single
contended window covering the whole tape, which *is* the scalar
recursion, op for op.

``ReplayKernel.price_many`` batches all sibling cells of a plane group:
the structure above is built once, and per-timing cost tables (via the
array-accepting price functions in :mod:`repro.mem.dram`) are cached by
Rambus parameter set, so cells that sweep only the issue rate share
tables too.  Output is byte-identical to the scalar
``_replay_timeline`` for every op tape and timing -- the scalar loop
remains the equivalence oracle (``tests/test_replay_kernel.py``
compares the pair on random and recorded tapes).
``PlaneRecorder.capture`` prices every recording's tape with this
kernel at the recording's own timing and requires the run's measured
DRAM time, stall and overlap.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import RambusParams
from repro.mem.dram import rambus_pipelined_ps_array, rambus_transfer_ps_array

#: Decision-op kinds (column 0 of a ``dops`` tape).  Defined here --
#: :mod:`repro.trace.filter` re-exports them -- so the kernel has no
#: import cycle with the plane module.
DOP_SYNC = 0  # blocking transfer (one per DRAM access, in order)
DOP_BG_WB = 1  # background dirty-victim writeback
DOP_BG_FILL = 2  # background page fill; assigned the next fill ordinal
DOP_WAIT = 3  # potential stall on fill ``arg`` (first structural touch)

#: Scan op codes (contended-window programs).  Backgrounds keep their
#: fill/writeback distinction; dead waits are dropped at build time.
_SCAN_SYNC = 0
_SCAN_BG = 1
_SCAN_FILL = 2
_SCAN_WAIT = 3


class ReplayKernel:
    """Prices one decision-op tape under many timings with array ops.

    Built once per plane (``MissPlane.kernel()`` memoizes it); the
    constructor extracts the timing-invariant window structure, and
    :meth:`price_many` evaluates it per (dram, cycle_ps).  Raises :class:`IndexError` at build time for a tape
    whose ``WAIT`` rows reference fills not yet queued -- the same
    failure class the scalar recursion hits -- so replay callers can
    map it to plane corruption.
    """

    def __init__(self, dops) -> None:
        dops = np.asarray(dops, dtype=np.int64).reshape(-1, 3)
        self.n_ops = len(dops)
        #: Distinct transfer sizes priced per timing (int64, sorted).
        self.sizes = np.zeros(0, dtype=np.int64)
        #: Per-size counts of syncs that provably never queue.
        self._simple_counts = np.zeros(0, dtype=np.int64)
        # Single-background windows, vectorized columns.
        self._single_bg_cyc = np.zeros(0, dtype=np.int64)
        self._single_bg_size = np.zeros(0, dtype=np.int64)
        self._single_bg_fill = np.zeros(0, dtype=bool)
        self._single_sync_cyc = np.zeros(0, dtype=np.int64)
        self._single_sync_size = np.zeros(0, dtype=np.int64)
        #: Contended windows: (start_free_cycles, n_fill_slots, ops)
        #: with ops rows (code, size_index_or_slot, cycles, fill_slot).
        self._contended: list[tuple[int, int, list[tuple]]] = []
        #: How many ops ended up in contended windows (bench metric).
        self.contended_ops = 0
        if self.n_ops:
            self._build(dops[:, 0], dops[:, 1], dops[:, 2])

    # ------------------------------------------------------------------
    # Timing-invariant structure
    # ------------------------------------------------------------------

    def _build(self, kinds, args, cycles) -> None:
        n = self.n_ops
        sync_mask = kinds == DOP_SYNC
        wait_mask = kinds == DOP_WAIT
        # The scalar recursion treats every op that is neither SYNC nor
        # WAIT as a background transfer, filling iff kind == BG_FILL.
        bg_mask = ~(sync_mask | wait_mask)
        fill_mask = kinds == DOP_BG_FILL
        # Fill ordinals: the k-th BG_FILL row owns ordinal k, exactly
        # the recorder's assignment.  A WAIT must reference an ordinal
        # already queued when it runs (the scalar loop raises
        # IndexError there; mirror it here, at build time).
        fills_before = np.concatenate(
            ([0], np.cumsum(fill_mask, dtype=np.int64))
        )[:-1]
        wait_idx = np.flatnonzero(wait_mask)
        if len(wait_idx):
            bad = (args[wait_idx] < 0) | (
                args[wait_idx] >= fills_before[wait_idx]
            )
            if np.any(bad):
                first = int(wait_idx[np.argmax(bad)])
                raise IndexError(
                    f"decision op {first} waits on fill "
                    f"{int(args[first])}, but only "
                    f"{int(fills_before[first])} fills are queued"
                )
        if np.any(cycles < 0) or np.any(np.diff(cycles) < 0):
            # Not a recording's tape: no window independence to
            # exploit.  One contended window over everything IS the
            # scalar recursion (shift zero), kept for oracle parity.
            self._contended = [self._scan_program(-1, kinds, args, cycles, 0)]
            self._simple_counts = np.zeros(len(self.sizes), dtype=np.int64)
            self.contended_ops = n
            return
        sync_pos = np.flatnonzero(sync_mask)
        n_syncs = len(sync_pos)
        # Window of op i: number of syncs strictly before i; a sync
        # terminates its own window.
        wid = np.searchsorted(sync_pos, np.arange(n), side="left")
        n_windows = int(wid[-1]) + 1 if n else 0
        bg_count = np.bincount(wid[bg_mask], minlength=n_windows)
        fill_pos = np.flatnonzero(fill_mask)
        live_count = np.zeros(n_windows, dtype=np.int64)
        if len(wait_idx):
            live = wid[fill_pos[args[wait_idx]]] == wid[wait_idx]
            np.add.at(live_count, wid[wait_idx[live]], 1)
        has_sync = np.arange(n_windows) < n_syncs
        contended = (bg_count >= 2) | (live_count >= 1)
        contended |= (bg_count >= 1) & ~has_sync  # trailing window
        single = (bg_count == 1) & (live_count == 0) & has_sync & ~contended
        simple = (bg_count == 0) & has_sync & ~contended
        # Distinct sizes over every op the price tables must cover.
        priced = sync_mask | bg_mask
        self.sizes = np.unique(args[priced]) if np.any(priced) else np.zeros(
            0, dtype=np.int64
        )
        size_idx = np.zeros(n, dtype=np.int64)
        if np.any(priced):
            size_idx[priced] = np.searchsorted(self.sizes, args[priced])
        self._simple_counts = np.bincount(
            size_idx[sync_pos[simple[wid[sync_pos]]]],
            minlength=len(self.sizes),
        ).astype(np.int64)
        if np.any(single):
            single_wins = np.flatnonzero(single)
            bg_idx = np.flatnonzero(bg_mask)
            bg_of_win = bg_idx[
                np.searchsorted(wid[bg_idx], single_wins, side="left")
            ]
            sync_of_win = sync_pos[single_wins]
            self._single_bg_cyc = cycles[bg_of_win]
            self._single_bg_size = size_idx[bg_of_win]
            self._single_bg_fill = fill_mask[bg_of_win]
            self._single_sync_cyc = cycles[sync_of_win]
            self._single_sync_size = size_idx[sync_of_win]
        for w in np.flatnonzero(contended).tolist():
            lo = int(sync_pos[w - 1]) + 1 if w > 0 else 0
            hi = int(sync_pos[w]) if w < n_syncs else n - 1
            start_cyc = int(cycles[sync_pos[w - 1]]) if w > 0 else -1
            sl = slice(lo, hi + 1)
            self._contended.append(
                self._scan_program(
                    start_cyc,
                    kinds[sl],
                    args[sl],
                    cycles[sl],
                    int(fills_before[lo]),
                    size_idx[sl],
                )
            )
            self.contended_ops += hi + 1 - lo

    def _scan_program(
        self, start_cyc, kinds, args, cycles, first_ordinal, size_idx=None
    ) -> tuple[int, int, list[tuple]]:
        """Compile one contended window into a scan op list.

        ``start_cyc`` is the previous sync's cycle stamp (-1: channel
        free since time zero).  Fills are renumbered into window-local
        slots; a ``WAIT`` on a fill from an earlier window is provably
        a no-op and is dropped (unless the whole tape is one fallback
        window, where ``first_ordinal`` is 0 and every fill is local).
        """
        if size_idx is None:
            sizes = self.sizes = np.unique(
                args[(kinds != DOP_WAIT)]
            ) if np.any(kinds != DOP_WAIT) else np.zeros(0, dtype=np.int64)
            size_idx = np.zeros(len(kinds), dtype=np.int64)
            priced = kinds != DOP_WAIT
            if np.any(priced):
                size_idx[priced] = np.searchsorted(sizes, args[priced])
        ops: list[tuple] = []
        slots = 0
        kind_l = kinds.tolist()
        arg_l = args.tolist()
        cyc_l = cycles.tolist()
        sidx_l = size_idx.tolist()
        for kind, arg, cyc, sidx in zip(kind_l, arg_l, cyc_l, sidx_l):
            if kind == DOP_SYNC:
                ops.append((_SCAN_SYNC, sidx, cyc, -1))
            elif kind == DOP_WAIT:
                slot = arg - first_ordinal
                if 0 <= slot < slots:
                    ops.append((_SCAN_WAIT, slot, cyc, -1))
                # else: fill completed before this window began -- the
                # wait can never stall, at any timing.
            elif kind == DOP_BG_FILL:
                ops.append((_SCAN_FILL, sidx, cyc, slots))
                slots += 1
            else:
                ops.append((_SCAN_BG, sidx, cyc, -1))
        return start_cyc, slots, ops

    # ------------------------------------------------------------------
    # Per-timing evaluation
    # ------------------------------------------------------------------

    def tables(self, dram: RambusParams) -> tuple[np.ndarray, np.ndarray]:
        """The (plain, queued) price tables for ``dram`` over the sizes."""
        plain = rambus_transfer_ps_array(dram, self.sizes)
        if dram.pipelined:
            return plain, rambus_pipelined_ps_array(dram, self.sizes)
        return plain, plain

    def price_many(
        self, timings: list[tuple[RambusParams, int]]
    ) -> list[tuple[int, int, int]]:
        """Price every (dram, cycle_ps) of one plane group's cells.

        Each result is ``(dram_ps, stall_ps, overlap_ps)``,
        byte-identical to running the scalar ``_replay_timeline`` over
        the same tape under that timing.  The whole-group batch path: the window structure is shared by
        construction, and price tables are cached per distinct Rambus
        parameter set, so an issue-rate sweep prices its tables once.
        """
        tables: dict[RambusParams, tuple[np.ndarray, np.ndarray]] = {}
        results = []
        for dram, cycle_ps in timings:
            cached = tables.get(dram)
            if cached is None:
                cached = tables[dram] = self.tables(dram)
            results.append(self._price(dram, int(cycle_ps), cached))
        return results

    def _price(
        self,
        dram: RambusParams,
        cycle_ps: int,
        tables: tuple[np.ndarray, np.ndarray],
    ) -> tuple[int, int, int]:
        if not self.n_ops:
            return 0, 0, 0
        plain, queued = tables
        pipelined = dram.pipelined
        dram_ps = int(self._simple_counts @ plain)
        stall = 0
        overlap = 0
        if len(self._single_bg_cyc):
            bg_cost = plain[self._single_bg_size]
            if np.any(self._single_bg_fill):
                overlap += int(bg_cost[self._single_bg_fill].sum())
            wait = (
                self._single_bg_cyc - self._single_sync_cyc
            ) * cycle_ps + bg_cost
            np.maximum(wait, 0, out=wait)
            if pipelined:
                sync_cost = np.where(
                    wait > 0,
                    queued[self._single_sync_size],
                    plain[self._single_sync_size],
                )
            else:
                sync_cost = plain[self._single_sync_size]
            waited = int(wait.sum())
            stall += waited
            dram_ps += waited + int(sync_cost.sum())
        if self._contended:
            plain_l = plain.tolist()
            queued_l = queued.tolist() if pipelined else plain_l
            for start_cyc, n_slots, ops in self._contended:
                free = start_cyc * cycle_ps if start_cyc >= 0 else 0
                extra = 0
                ready = [0] * n_slots
                for code, a, cyc, slot in ops:
                    now = cyc * cycle_ps + extra
                    if code == _SCAN_SYNC:
                        wait = free - now
                        if wait < 0:
                            wait = 0
                        cost = (
                            queued_l[a]
                            if pipelined and wait
                            else plain_l[a]
                        )
                        extra += wait + cost
                        free = now + wait + cost
                        stall += wait
                        dram_ps += wait + cost
                    elif code == _SCAN_WAIT:
                        wait = ready[a] - now
                        if wait > 0:
                            extra += wait
                            stall += wait
                            dram_ps += wait
                    else:  # _SCAN_BG / _SCAN_FILL
                        start = free if free > now else now
                        cost = (
                            queued_l[a]
                            if pipelined and start > now
                            else plain_l[a]
                        )
                        free = start + cost
                        if code == _SCAN_FILL:
                            ready[slot] = free
                            overlap += free - now
        return dram_ps, stall, overlap
