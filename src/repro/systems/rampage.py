"""The RAMpage machine (paper sections 2, 4.5-4.6).

TLB -> split L1 -> SRAM main memory -> DRAM paging device.  The lowest
SRAM level is a paged, tagless main memory: the TLB translates straight
to SRAM frames, so a valid translation *guarantees* residency and an L1
miss never needs a tag check below -- full associativity with no hit
penalty, which is the paper's core trade.

The price is software: TLB misses run an inverted-page-table lookup
(pinned in SRAM, so it never touches DRAM -- section 2.3), and a page
fault runs a clock-algorithm replacement plus a DRAM page transfer.
With ``switch_on_miss`` enabled, the fault instead queues the transfer
on the Rambus channel in the background, runs the context-switch trace
and preempts the process (section 5.4); the CPU stalls later only if it
needs the page (or the channel) before the transfer completes.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.core.params import MachineParams
from repro.mem.sram_memory import FaultOutcome, SramMainMemory
from repro.ossim.footprint import OsLayout, rampage_layout
from repro.systems.base import MemorySystem

#: Bytes read from the DRAM-resident page table to locate a page's DRAM
#: copy during a fault (one table entry plus its cache line padding).
DRAM_TABLE_ENTRY_BYTES = 32


class RampageSystem(MemorySystem):
    """SRAM-main-memory machine with software-managed replacement."""

    kind = "rampage"
    #: A page fault can unmap any page, so the vectorized loop drops
    #: its cached (vpn, frame) pair after every TLB miss.
    stable_translation = False

    def __init__(self, params: MachineParams) -> None:
        if params.kind != "rampage":
            raise ConfigurationError(
                f"RampageSystem requires kind='rampage', got {params.kind!r}"
            )
        super().__init__(params)
        self.sram = SramMainMemory(params.rampage)
        self._page_bytes = params.rampage.page_bytes
        self.switch_on_miss = params.switch_on_miss
        #: In-flight background page transfers: frame -> ready time (ps).
        self._pending: dict[int, int] = {}
        #: Recording-only shadow of ``_pending``: frame -> fill ordinal
        #: on the decision-op tape.  Never time-pruned -- a fill that
        #: completed under the recording timing could still stall a
        #: sibling cell, so the WAIT op must be recorded at the frame's
        #: first structural touch regardless.
        self._plane_shadow: dict[int, int] = {}

    def _os_layout(self) -> OsLayout:
        return rampage_layout(self.params.rampage)

    # ------------------------------------------------------------------
    # Translation and faulting
    # ------------------------------------------------------------------

    def _translate(self, gvpn: int) -> int:
        """TLB miss: inverted-table lookup in pinned SRAM, fault if absent."""
        pid = gvpn >> self._vpn_space_bits
        counts = self.stats.tlb_misses_by_pid
        counts[pid] = counts.get(pid, 0) + 1
        frame, probes = self.sram.translate(gvpn)
        parts = self.handlers.tlb_miss_parts(gvpn, probes)
        self.stats.tlb_handler_refs += self.handlers.tlb_miss_ref_count(probes)
        self._run_handler_parts(parts)
        if frame == -1:
            frame = self._page_fault(gvpn)
        self.tlb.insert(gvpn, frame)
        self.sram.touch(frame)
        return frame

    def _page_fault(self, gvpn: int) -> int:
        """Service a page fault from the SRAM main memory.

        Charges: fault-handler software (including the clock scan),
        victim TLB flush, the L1 flush of :meth:`_fault_flush`, a DRAM
        page-table entry read, the dirty-victim writeback and the page
        fetch.  Under switch-on-miss the two page transfers are queued
        in the background and the process is preempted instead of
        stalling.
        """
        stats = self.stats
        stats.page_faults += 1
        pid = gvpn >> self._vpn_space_bits
        stats.faults_by_pid[pid] = stats.faults_by_pid.get(pid, 0) + 1
        outcome = self.sram.fault(gvpn)
        parts = self.handlers.page_fault_parts(gvpn, outcome.scanned)
        stats.fault_handler_refs += self.handlers.page_fault_ref_count(
            outcome.scanned
        )
        self._run_handler_parts(parts)
        if outcome.unmapped_vpn is not None:
            # The victim's translation is gone; flush its TLB entry
            # (section 2.3: "if a page is replaced ... its entry in the
            # TLB is flushed").
            self.tlb.flush_vpn(outcome.unmapped_vpn)
        if outcome.soft:
            # Standby-list reclaim: contents still in the frame.
            return outcome.frame
        frame = outcome.frame
        dirty_l1 = self._fault_flush(outcome)
        if self._plane_shadow:
            ordinal = self._plane_shadow.pop(frame, None)
            if ordinal is not None:
                self._dop_sink.wait_op(ordinal, self.clock.cycles)
        if frame in self._pending:
            # The frame's previous fill is still in flight; the OS must
            # wait before overwriting it.
            stall = self.clock.advance_to(self._pending.pop(frame))
            self.lt.dram += stall
            stats.dram_stall_ps += stall
        needs_writeback = outcome.writeback_vpn is not None or dirty_l1
        # One entry read from the DRAM-resident page table locates the
        # page's DRAM copy (translations to DRAM are off the critical
        # path and not cached by the TLB -- section 2.3).
        self._dram_sync(DRAM_TABLE_ENTRY_BYTES)
        if self.switch_on_miss:
            now = self.clock.now_ps
            sink = self._dop_sink
            if needs_writeback:
                stats.page_writebacks += 1
                self.channel.begin_background(now, self._page_bytes)
                if sink is not None:
                    sink.background_op(
                        self._page_bytes, self.clock.cycles, fill=False
                    )
            ready = self.channel.begin_background(now, self._page_bytes)
            if sink is not None:
                self._plane_shadow[frame] = sink.background_op(
                    self._page_bytes, self.clock.cycles, fill=True
                )
            stats.dram_overlap_ps += ready - now
            self._prune_pending(now)
            self._pending[frame] = ready
            stats.switches_on_miss += 1
            self.context_switch(self._current_pid)
            self._preempted = True
        else:
            if needs_writeback:
                stats.page_writebacks += 1
                self._dram_sync(self._page_bytes)
            self._dram_sync(self._page_bytes)
        return frame

    def _fault_flush(self, outcome: FaultOutcome) -> bool:
        """Flush the L1 blocks of a reused frame by physical range.

        Returns True when a dirty block was found, so the page being
        replaced must be written back.
        """
        if not outcome.reused:
            return False
        return self._flush_l1_range(
            outcome.frame << self._page_bits, self._page_bytes
        )

    def _prune_pending(self, now_ps: int) -> None:
        if not self._pending:
            return
        done = [f for f, ready in self._pending.items() if ready <= now_ps]
        for frame in done:
            del self._pending[frame]

    # ------------------------------------------------------------------
    # Below-L1: the SRAM main memory
    # ------------------------------------------------------------------

    def _below_l1_fetch(self, paddr: int) -> None:
        # A valid translation guarantees residency, so there is nothing
        # to look up -- the 12-cycle transfer is charged by the caller.
        # The only exception is a page still arriving from DRAM.
        if self._plane_shadow:
            ordinal = self._plane_shadow.pop(paddr >> self._page_bits, None)
            if ordinal is not None:
                self._dop_sink.wait_op(ordinal, self.clock.cycles)
        if self._pending:
            frame = paddr >> self._page_bits
            ready = self._pending.get(frame)
            if ready is not None:
                del self._pending[frame]
                stall = self.clock.advance_to(ready)
                self.lt.dram += stall
                self.stats.dram_stall_ps += stall

    def _l1_writeback_below(self, victim_block: int) -> None:
        frame = victim_block >> (self._page_bits - self._l1_block_bits)
        self.sram.mark_dirty(frame)

    # ------------------------------------------------------------------
    # Reference path
    # ------------------------------------------------------------------

    def access(self, kind: int, vaddr: int, pid: int = 0) -> bool:
        self._current_pid = pid
        return super().access(kind, vaddr, pid)
