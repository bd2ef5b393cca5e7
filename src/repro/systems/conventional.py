"""The conventional cache hierarchy (paper sections 4.3-4.4, 4.7).

TLB -> split L1 -> L2 cache -> Direct Rambus DRAM.  The TLB caches
virtual-to-DRAM-frame translations over fixed 4 KB DRAM pages; the L2 is
direct-mapped (baseline) or 2-way set-associative ("realistic"), with
its block size swept 128 B ... 4 KB.  Inclusion between L1 and L2 is
maintained (L1 is always a subset of L2, modulo dirty L1 blocks).

DRAM is infinite: pages are allocated on first touch and never paged to
disk ("infinite DRAM modeled with no misses to disk", section 4.3), so
the only page-table software is the TLB-miss handler, whose code and
table live in a reserved DRAM region and are cached like everything
else -- unlike RAMpage, which pins them in SRAM.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.params import MachineParams
from repro.mem.cache import SetAssociativeCache
from repro.mem.victim import VictimBuffer
from repro.ossim.footprint import CONVENTIONAL_OS_BASE, OsLayout, conventional_layout
from repro.systems.base import MemorySystem


class ConventionalSystem(MemorySystem):
    """Baseline / 2-way associative cache machine."""

    kind = "conventional"

    def __init__(self, params: MachineParams) -> None:
        if params.kind != "conventional":
            raise ConfigurationError(
                f"ConventionalSystem requires kind='conventional', got {params.kind!r}"
            )
        super().__init__(params)
        self.l2 = SetAssociativeCache(params.l2, self.rng.fork())
        self._l2_block_bits = self.l2.block_bits
        self._l2_block_bytes = params.l2.block_bytes
        self.victim_buffer = VictimBuffer(params.victim_cache_blocks)
        self.page_table: dict[int, int] = {}
        self._next_frame = 0
        self._os_base_frame = CONVENTIONAL_OS_BASE >> self._page_bits

    def _os_layout(self) -> OsLayout:
        return conventional_layout()

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------

    def _alloc_frame(self, gvpn: int) -> int:
        frame = self._next_frame
        if frame >= self._os_base_frame:
            raise SimulationError(
                "DRAM frame allocation reached the reserved OS region; "
                "the workload touched implausibly many pages"
            )
        self._next_frame = frame + 1
        self.page_table[gvpn] = frame
        return frame

    def _translate(self, gvpn: int) -> int:
        """TLB miss: walk the DRAM page table in software.

        The conventional machine's inverted table over DRAM stays at a
        low load factor (DRAM is infinite), so the handler probes once;
        Figure 4's baseline overhead is consequently flat across block
        sizes.
        """
        pid = gvpn >> self._vpn_space_bits
        counts = self.stats.tlb_misses_by_pid
        counts[pid] = counts.get(pid, 0) + 1
        frame = self.page_table.get(gvpn)
        if frame is None:
            frame = self._alloc_frame(gvpn)
        parts = self.handlers.tlb_miss_parts(gvpn, probes=1)
        self.stats.tlb_handler_refs += self.handlers.tlb_miss_ref_count(1)
        self._run_handler_parts(parts)
        self.tlb.insert(gvpn, frame)
        return frame

    # ------------------------------------------------------------------
    # L2 and DRAM
    # ------------------------------------------------------------------

    def _below_l1_fetch(self, paddr: int) -> None:
        l2_block = paddr >> self._l2_block_bits
        l2 = self.l2
        if l2.ways == 1:
            # Direct-mapped probe, inlined: one list index on the miss
            # path of every L1 miss.
            if l2.tags[l2_block & l2.set_mask] == l2_block:
                self.stats.l2_hits += 1
                return
        elif l2.slot_of(l2_block) != -1:
            self.stats.l2_hits += 1
            return
        self.stats.l2_misses += 1
        self._l2_miss(l2_block)

    def _l2_miss(self, l2_block: int) -> None:
        incoming_dirty = False
        swapped = self.victim_buffer.lookup_remove(l2_block)
        if swapped is not None:
            # Victim-buffer hit: the block swaps back over the bus at
            # one transfer cost instead of a DRAM access.
            incoming_dirty = swapped
            self.lt.l2 += self.clock.tick_cycles(self._l1_miss_cycles)
        else:
            self._dram_sync(self._l2_block_bytes)
        victim, victim_dirty = self.l2.fill(l2_block, dirty=incoming_dirty)
        if victim == -1:
            return
        # Inclusion: purge the victim's L1 blocks; dirty L1 data rides
        # out with the victim.
        dirty_l1 = self._flush_l1_range(
            victim << self._l2_block_bits, self._l2_block_bytes
        )
        victim_dirty = victim_dirty or dirty_l1
        if self.victim_buffer.enabled:
            displaced = self.victim_buffer.insert(victim, victim_dirty)
            if displaced is not None:
                displaced_block, displaced_dirty = displaced
                if displaced_dirty:
                    self.stats.l2_writebacks += 1
                    self._dram_sync(self._l2_block_bytes)
        elif victim_dirty:
            self.stats.l2_writebacks += 1
            self._dram_sync(self._l2_block_bytes)

    def _l1_writeback_below(self, victim_block: int) -> None:
        l2_block = victim_block >> (self._l2_block_bits - self._l1_block_bits)
        # Inclusion guarantees residency; mark_dirty raises otherwise.
        self.l2.mark_dirty(l2_block)
