"""RAMpage with virtually-indexed, virtually-tagged L1 caches.

Section 2.3 leaves a design point open: "it is possible in principle to
address the L1 cache virtually, in which case the TLB would only be
needed on a miss to the SRAM main memory ... This possibility is not
explored in this paper."  This module explores it.

With virtual L1s, a hit needs no translation at all -- the TLB (and its
miss handler) is consulted only on the L1 miss path, which removes the
dominant software cost of small SRAM pages (Figure 4's 60%-plus
overhead).  The classic virtual-cache hazards are handled the way a
single-address-space RAMpage OS would:

* **homonyms** (same vaddr, different process): L1 blocks are tagged
  with the process id (a pid-extended virtual block number), so no
  flushing on context switch;
* **stale translations**: replacing an SRAM page flushes the page's L1
  blocks *by virtual range* (the fault handler knows the victim's vpn),
  so no L1 line can outlive its page;
* **writebacks**: each L1 line carries its physical frame the way real
  virtual caches carry a physical tag for coherency, modelled by an
  SRAM page-table lookup off the critical path (no handler software is
  charged -- it is a hardware-assisted reverse lookup);
* **synonyms** (shared memory): out of scope, as in the paper (no
  sharing between the workload's processes).

The OS's own physically-addressed handler references are kept disjoint
from every process's virtual space with a reserved pid tag.

Only the RAMpage machine gets this option: a conventional hierarchy
maintains L1/L2 inclusion by *physical* block, which a virtual L1
cannot honour without the reverse maps this design avoids -- the
asymmetry is itself one of the paper's hardware-vs-software points.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.core.params import MachineParams
from repro.mem.inverted_page_table import FREE
from repro.mem.sram_memory import FaultOutcome
from repro.systems.rampage import RampageSystem
from repro.trace.record import IFETCH, WRITE

#: Reserved "process id" tagging the OS's physically-addressed handler
#: references so they can share the virtually-indexed L1s without
#: colliding with any real process's address space.
OS_PID = 1 << 20


class VirtualL1RampageSystem(RampageSystem):
    """RAMpage variant translating only on L1 misses."""

    kind = "rampage"

    def __init__(self, params: MachineParams) -> None:
        if params.kind != "rampage":
            raise ConfigurationError("virtual-L1 machines are RAMpage-only")
        super().__init__(params)
        self._vblock_shift = params.vaddr_bits - self._l1_block_bits
        self._blocks_per_page_bits = self._page_bits - self._l1_block_bits

    # ------------------------------------------------------------------
    # Reference path: L1 first, translate only on a miss
    # ------------------------------------------------------------------

    def access(self, kind: int, vaddr: int, pid: int = 0) -> bool:
        self._current_pid = pid
        stats = self.stats
        vblock = (pid << self._vblock_shift) | (vaddr >> self._l1_block_bits)
        cache = self.l1i if kind == IFETCH else self.l1d
        slot = cache.slot_of(vblock)
        if slot != -1:
            if kind == IFETCH:
                stats.ifetches += 1
                stats.l1i_hits += 1
                self.lt.l1i += self.clock.tick_cycles(self._l1_hit_cycles)
            else:
                if kind == WRITE:
                    stats.writes += 1
                    cache.dirty[slot] = 1
                else:
                    stats.reads += 1
                stats.l1d_hits += 1
            return True
        # Miss: now (and only now) translate.
        gvpn = self.global_vpn(vaddr, pid)
        frame = self.tlb.lookup(gvpn)
        if frame is None:
            frame = self._translate(gvpn)
            if self._preempted:
                self._preempted = False
                return False
        if kind == IFETCH:
            stats.ifetches += 1
        elif kind == WRITE:
            stats.writes += 1
        else:
            stats.reads += 1
        paddr = (frame << self._page_bits) | (vaddr & self._page_mask)
        self._l1_miss(cache, vblock, paddr, kind)
        return True

    # ------------------------------------------------------------------
    # Below-L1 plumbing in virtual-block space
    # ------------------------------------------------------------------

    def _l1_access(self, kind: int, paddr: int) -> None:
        """Handler references: physically addressed, OS-pid tagged."""
        vblock = (OS_PID << self._vblock_shift) | (paddr >> self._l1_block_bits)
        cache = self.l1i if kind == IFETCH else self.l1d
        slot = cache.slot_of(vblock)
        stats = self.stats
        if slot != -1:
            if kind == IFETCH:
                stats.l1i_hits += 1
                self.lt.l1i += self.clock.tick_cycles(self._l1_hit_cycles)
            else:
                stats.l1d_hits += 1
                if kind == WRITE:
                    cache.dirty[slot] = 1
            return
        self._l1_miss(cache, vblock, paddr, kind)

    def _l1_writeback_below(self, victim_vblock: int) -> None:
        pid = victim_vblock >> self._vblock_shift
        if pid == OS_PID:
            # OS blocks map identity within the pinned frames.
            paddr_block = victim_vblock & ((1 << self._vblock_shift) - 1)
            frame = paddr_block >> self._blocks_per_page_bits
            self.sram.mark_dirty(frame)
            return
        # The line's physical tag: resolved via the page table, off the
        # critical path (no handler software charged).  A page parked on
        # the standby list is unmapped but keeps its frame and its lines.
        gvpn = victim_vblock >> self._blocks_per_page_bits
        frame, _ = self.sram.translate(gvpn)
        if frame == FREE:
            frame = self.sram.standby.frame_of(gvpn)
            if frame is None:
                raise ConfigurationError(
                    "virtual L1 line outlived its SRAM page; flush logic broken"
                )
        self.sram.mark_dirty(frame)

    def _fault_flush(self, outcome: FaultOutcome) -> bool:
        """Flush the discarded page's L1 blocks by virtual range.

        Its lines are tagged with its vpn, so they must go even when the
        page was clean, or they would alias a later re-fault.  A page
        parked on the standby list keeps its frame and its lines, which
        stay correct because a soft fault restores its mapping unchanged.
        """
        if outcome.discarded_vpn is None:
            return False
        base_vblock = outcome.discarded_vpn << self._blocks_per_page_bits
        return self._flush_l1_range(
            base_vblock << self._l1_block_bits, self._page_bytes
        )
