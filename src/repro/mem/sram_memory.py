"""The RAMpage SRAM main memory.

The defining structure of the paper: the lowest SRAM level managed as a
paged, byte-addressed main memory (section 2.2).  This module owns the
placement state -- which virtual page sits in which SRAM frame -- and
the replacement machinery:

* an :class:`~repro.mem.inverted_page_table.InvertedPageTable` over the
  SRAM frames (translation + probe counts for handler costs),
* a :class:`~repro.mem.replacement.ClockReplacer` over the non-pinned
  frames (section 4.5's "standard clock algorithm"),
* frames ``[0, pinned_frames)`` reserved for the OS: handler code/data
  and the page table itself, pinned so that TLB misses and page faults
  never recurse into DRAM (sections 2.2-2.3, 4.5-4.6),
* an optional :class:`~repro.mem.replacement.StandbyList` implementing
  the section 3.2 victim-cache analogue.

Timing is charged by :class:`repro.systems.rampage.RampageSystem`; this
class reports *what happened* (victims, scan lengths, soft faults).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.errors import SimulationError
from repro.core.params import RampageParams
from repro.mem.inverted_page_table import FREE, InvertedPageTable
from repro.mem.replacement import ClockReplacer, StandbyList


@dataclass(frozen=True)
class FaultOutcome:
    """What a page fault did.

    ``frame`` now holds the faulting page.  ``unmapped_vpn`` is a page
    that lost its SRAM translation this fault (its TLB entry must be
    flushed and its L1 blocks invalidated); ``writeback_vpn`` is a dirty
    page whose contents must go to DRAM (with ``writeback_frame`` naming
    the frame it occupied, for L1 flushing).  ``scanned`` is the clock
    scan length and ``soft`` marks a standby-list reclaim that avoided
    DRAM entirely.
    """

    frame: int
    unmapped_vpn: int | None
    writeback_vpn: int | None
    writeback_frame: int | None
    scanned: int
    soft: bool
    #: True when ``frame`` previously held another page, whose L1 blocks
    #: must be flushed before the frame is reused.
    reused: bool = False
    #: The page whose copy in ``frame`` is destroyed by the reuse (equal
    #: to ``unmapped_vpn`` on the direct path; the long-parked page on
    #: the standby path; None when a free frame was used).  Virtual-L1
    #: machines flush this page's lines even when it was clean.
    discarded_vpn: int | None = None


class SramMainMemory:
    """Paged SRAM main memory with clock replacement and pinned OS frames."""

    def __init__(self, params: RampageParams) -> None:
        self.params = params
        self.page_bytes = params.page_bytes
        self.page_bits = params.page_bytes.bit_length() - 1
        self.num_frames = params.num_frames
        self.pinned_frames = params.pinned_frames
        self.ipt = InvertedPageTable(self.num_frames)
        self.clock = ClockReplacer(
            params.user_frames, first_frame=self.pinned_frames
        )
        self._free = deque(range(self.pinned_frames, self.num_frames))
        self._dirty = bytearray(self.num_frames)
        self.standby = StandbyList(params.standby_pages)
        # With a standby list, its capacity in frames is reserved up
        # front: parked pages keep their frames, so the active set runs
        # `standby_pages` smaller and the list can fill without
        # cannibalising the page it just parked.
        self._reserve: deque[int] = deque()
        if self.standby.enabled:
            if params.standby_pages >= len(self._free):
                raise SimulationError(
                    "standby list cannot reserve more frames than exist"
                )
            for _ in range(params.standby_pages):
                frame = self._free.pop()
                # Reserved and parked frames hold no active page; pin
                # them so the clock hand never selects them.
                self.clock.pin(frame)
                self._reserve.append(frame)
        self.faults = 0
        self.soft_faults = 0

    # ------------------------------------------------------------------
    # Translation and access bookkeeping
    # ------------------------------------------------------------------

    def translate(self, vpn: int) -> tuple[int, int]:
        """Return ``(frame, probes)``; frame is -1 when not resident."""
        return self.ipt.lookup(vpn)

    def touch(self, frame: int) -> None:
        """Record a use of ``frame`` for the clock's referenced bit."""
        if frame >= self.pinned_frames:
            self.clock.touch(frame)

    def mark_dirty(self, frame: int) -> None:
        self._dirty[frame] = 1

    def is_dirty(self, frame: int) -> bool:
        return bool(self._dirty[frame])

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------

    def fault(self, vpn: int) -> FaultOutcome:
        """Bring ``vpn`` in; decide victim/writeback per the policy.

        The caller (the RAMpage system) charges handler software, DRAM
        transfers for the fetch and any writeback, TLB flushes and L1
        invalidations based on the returned outcome.
        """
        self.faults += 1

        if self.standby.enabled:
            parked_frame = self.standby.reclaim(vpn)
            if parked_frame is not None:
                # Soft fault: the page's contents are still in its frame.
                self.ipt.insert(vpn, parked_frame)
                self.clock.unpin(parked_frame)
                self.clock.touch(parked_frame)
                self.soft_faults += 1
                return FaultOutcome(
                    frame=parked_frame,
                    unmapped_vpn=None,
                    writeback_vpn=None,
                    writeback_frame=None,
                    scanned=0,
                    soft=True,
                    reused=False,
                )

        if self._free:
            frame = self._free.popleft()
            self._install(vpn, frame)
            return FaultOutcome(
                frame=frame,
                unmapped_vpn=None,
                writeback_vpn=None,
                writeback_frame=None,
                scanned=0,
                soft=False,
                reused=False,
            )

        if self.standby.enabled:
            return self._fault_with_standby(vpn)
        return self._fault_direct(vpn)

    def _fault_direct(self, vpn: int) -> FaultOutcome:
        frame, scanned = self.clock.choose_victim()
        victim_vpn, _ = self.ipt.remove_frame(frame)
        victim_dirty = bool(self._dirty[frame])
        victim_frame = frame
        self._install(vpn, frame)
        return FaultOutcome(
            frame=frame,
            unmapped_vpn=victim_vpn,
            writeback_vpn=victim_vpn if victim_dirty else None,
            writeback_frame=victim_frame if victim_dirty else None,
            scanned=scanned,
            soft=False,
            reused=True,
            discarded_vpn=victim_vpn,
        )

    def _fault_with_standby(self, vpn: int) -> FaultOutcome:
        # The clock hand demotes an active page to the standby list
        # (keeping its frame); the new page's frame comes from the
        # reserved pool while the list fills, and thereafter from the
        # page that has been parked the longest -- which is the one
        # truly discarded.
        victim_frame, scanned = self.clock.choose_victim()
        victim_vpn, _ = self.ipt.remove_frame(victim_frame)
        self.clock.pin(victim_frame)  # parked: out of the clock's reach
        if self._reserve:
            frame = self._reserve.popleft()
            self.clock.unpin(frame)
            displaced = self.standby.park(victim_vpn, victim_frame)
            if displaced is not None:  # pragma: no cover - sized to fit
                raise SimulationError("standby displaced while reserve held frames")
            self._install(vpn, frame)
            return FaultOutcome(
                frame=frame,
                unmapped_vpn=victim_vpn,
                writeback_vpn=None,
                writeback_frame=None,
                scanned=scanned,
                soft=False,
                reused=False,
            )
        displaced = self.standby.park(victim_vpn, victim_frame)
        if displaced is None:
            # Soft faults shrank the list below capacity: discard the
            # oldest parked page instead.
            displaced = self.standby.pop_oldest()
            if displaced is None:  # pragma: no cover - park() guarantees one
                raise SimulationError("standby list empty after park")
        discard_vpn, frame = displaced
        discard_dirty = bool(self._dirty[frame])
        self.clock.unpin(frame)
        self._install(vpn, frame)
        return FaultOutcome(
            frame=frame,
            unmapped_vpn=victim_vpn,
            writeback_vpn=discard_vpn if discard_dirty else None,
            writeback_frame=frame if discard_dirty else None,
            scanned=scanned,
            soft=False,
            reused=True,
            discarded_vpn=discard_vpn,
        )

    def _install(self, vpn: int, frame: int) -> None:
        self.ipt.insert(vpn, frame)
        self._dirty[frame] = 0
        if frame >= self.pinned_frames:
            self.clock.touch(frame)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def user_frames(self) -> int:
        return self.num_frames - self.pinned_frames

    def resident_pages(self) -> int:
        """Pages currently mapped (excludes parked standby pages)."""
        return self.ipt.entries

    def free_frames(self) -> int:
        return len(self._free)

    def check_invariants(self) -> None:
        """Cross-check table, free list and standby state."""
        self.ipt.check_invariants()
        mapped_frames = {
            frame
            for frame in range(self.num_frames)
            if self.ipt.vpn_of(frame) != FREE
        }
        free_frames = set(self._free)
        if mapped_frames & free_frames:
            raise SimulationError("frame simultaneously mapped and free")
        parked_frames = {
            self.standby._entries[vpn] for vpn in self.standby._entries
        }
        reserve_frames = set(self._reserve)
        groups = [mapped_frames, free_frames, parked_frames, reserve_frames]
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1 :]:
                if group_a & group_b:
                    raise SimulationError("frame double-booked across pools")
        accounted = sum(len(group) for group in groups)
        if accounted != self.user_frames:
            raise SimulationError(
                f"frames unaccounted for: {accounted} of {self.user_frames}"
            )
