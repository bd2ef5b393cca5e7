"""Page replacement policies for the SRAM main memory.

The paper's RAMpage replacement is "a standard clock algorithm" over
the inverted page table (section 4.5): a hand sweeps the frames,
clearing referenced bits, until it finds an unreferenced, unpinned frame
-- that frame is the victim.  The number of frames scanned is reported
so the page-fault handler can charge references for the scan.

:class:`StandbyList` implements the section 3.2 victim-cache analogue
the paper sketches ("when a page is replaced, it is moved to the standby
page list; the page which is on the list longest is the one actually
discarded"), used by the ablation benchmarks.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.errors import ConfigurationError, SimulationError


class ClockReplacer:
    """Clock (second-chance) victim selection over a frame range.

    Frames ``[first_frame, first_frame + num_frames)`` participate;
    pinned frames are permanently skipped.
    """

    __slots__ = ("first_frame", "num_frames", "_referenced", "_pinned", "_hand",
                 "scans")

    def __init__(self, num_frames: int, first_frame: int = 0) -> None:
        if num_frames <= 0:
            raise ConfigurationError(f"num_frames must be positive, got {num_frames}")
        self.first_frame = first_frame
        self.num_frames = num_frames
        self._referenced = bytearray(num_frames)
        self._pinned = bytearray(num_frames)
        self._hand = 0
        self.scans = 0

    def _index(self, frame: int) -> int:
        idx = frame - self.first_frame
        if not 0 <= idx < self.num_frames:
            raise SimulationError(f"frame {frame} outside replacer range")
        return idx

    def pin(self, frame: int) -> None:
        self._pinned[self._index(frame)] = 1

    def unpin(self, frame: int) -> None:
        self._pinned[self._index(frame)] = 0

    def touch(self, frame: int) -> None:
        """Set the referenced bit (page was used)."""
        self._referenced[self._index(frame)] = 1

    def pinned_count(self) -> int:
        return sum(self._pinned)

    def choose_victim(self) -> tuple[int, int]:
        """Advance the hand to a victim; return ``(frame, scanned)``.

        ``scanned`` counts frames examined (referenced bits cleared on
        the way), which the fault handler charges references for.
        Raises when every frame is pinned.
        """
        if self.pinned_count() >= self.num_frames:
            raise SimulationError("all frames pinned; no victim available")
        referenced = self._referenced
        pinned = self._pinned
        hand = self._hand
        scanned = 0
        # At most two sweeps: one clearing bits, one finding a clear bit.
        limit = 2 * self.num_frames + 1
        while True:
            scanned += 1
            if scanned > limit:
                raise SimulationError("clock hand failed to find a victim")
            idx = hand
            hand = (hand + 1) % self.num_frames
            if pinned[idx]:
                continue
            if referenced[idx]:
                referenced[idx] = 0
                continue
            self._hand = hand
            self.scans += scanned
            return self.first_frame + idx, scanned


class StandbyList:
    """FIFO of replaced-but-intact pages (VMS-style standby list).

    Pages evicted by the clock hand park here with their frame contents
    untouched; a fault on a parked page is a *soft fault* -- the page is
    reclaimed without touching DRAM.  The page longest on the list is
    the one truly discarded when a frame must be reused.
    """

    __slots__ = ("capacity", "_entries", "soft_faults", "discards")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[int, int] = OrderedDict()  # vpn -> frame
        self.soft_faults = 0
        self.discards = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def park(self, vpn: int, frame: int) -> tuple[int, int] | None:
        """Add a replaced page; returns a ``(vpn, frame)`` it displaced.

        The displaced entry (oldest) is the page truly discarded; its
        frame becomes reusable.  Returns None while under capacity.
        """
        if not self.enabled:
            raise SimulationError("standby list is disabled (capacity 0)")
        if vpn in self._entries:
            raise SimulationError(f"vpn {vpn:#x} already on standby")
        self._entries[vpn] = frame
        if len(self._entries) > self.capacity:
            old_vpn, old_frame = self._entries.popitem(last=False)
            self.discards += 1
            return old_vpn, old_frame
        return None

    def reclaim(self, vpn: int) -> int | None:
        """Soft-fault ``vpn`` back; returns its frame or None."""
        frame = self._entries.pop(vpn, None)
        if frame is not None:
            self.soft_faults += 1
        return frame

    def pop_oldest(self) -> tuple[int, int] | None:
        """Discard the oldest parked page; returns ``(vpn, frame)``."""
        if not self._entries:
            return None
        self.discards += 1
        return self._entries.popitem(last=False)

    def contains(self, vpn: int) -> bool:
        return vpn in self._entries

    def frame_of(self, vpn: int) -> int | None:
        """The frame a parked ``vpn`` still occupies, or None."""
        return self._entries.get(vpn)
