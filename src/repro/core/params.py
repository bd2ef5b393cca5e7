"""Validated parameter dataclasses for the simulated machines.

Every number in section 4 of the paper ("Simulated Systems") appears
here as an explicit, documented default.  Parameter objects are frozen:
a machine is fully described by one :class:`MachineParams` value, which
can be hashed and used as a cache key by the experiment runner.

Units: sizes in bytes, times in CPU cycles or picoseconds (ps), rates in
Hz.  See :mod:`repro.core.clock` for the ps convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

from repro.core.clock import PS_PER_NS
from repro.core.errors import ConfigurationError

KIB = 1024
MIB = 1024 * KIB


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def _require_pow2(value: int, name: str) -> None:
    if not is_power_of_two(value):
        raise ConfigurationError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class CacheParams:
    """Geometry of a set-associative cache.

    ``associativity == 0`` means fully associative (one set spanning the
    whole cache).
    """

    total_bytes: int
    block_bytes: int
    associativity: int = 1

    def __post_init__(self) -> None:
        _require_pow2(self.total_bytes, "total_bytes")
        _require_pow2(self.block_bytes, "block_bytes")
        if self.block_bytes > self.total_bytes:
            raise ConfigurationError(
                f"block size {self.block_bytes} exceeds cache size {self.total_bytes}"
            )
        if self.associativity < 0:
            raise ConfigurationError(
                f"associativity must be >= 0, got {self.associativity}"
            )
        ways = self.ways
        if self.num_blocks % ways != 0:
            raise ConfigurationError(
                f"{self.num_blocks} blocks not divisible into {ways} ways"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(
                f"cache with {self.num_blocks} blocks / {ways} ways yields "
                f"{self.num_sets} sets, which is not a power of two"
            )

    @property
    def num_blocks(self) -> int:
        return self.total_bytes // self.block_bytes

    @property
    def ways(self) -> int:
        """Effective way count (fully associative -> all blocks)."""
        return self.num_blocks if self.associativity == 0 else self.associativity

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.ways

    @property
    def is_direct_mapped(self) -> bool:
        return self.ways == 1


@dataclass(frozen=True)
class L1Params:
    """Split L1 instruction/data caches (paper section 4.3).

    Defaults: 16 KB each, direct-mapped, 32-byte blocks, 1-cycle read
    hit, 12-cycle miss penalty to the next level (9-cycle writeback in
    the RAMpage machine because there is no L2 tag to update).
    """

    icache: CacheParams = field(
        default_factory=lambda: CacheParams(16 * KIB, 32, associativity=1)
    )
    dcache: CacheParams = field(
        default_factory=lambda: CacheParams(16 * KIB, 32, associativity=1)
    )
    hit_cycles: int = 1
    miss_penalty_cycles: int = 12
    writeback_cycles: int = 12
    rampage_writeback_cycles: int = 9

    def __post_init__(self) -> None:
        if self.icache.block_bytes != self.dcache.block_bytes:
            raise ConfigurationError(
                "L1 I and D caches must share a block size "
                f"({self.icache.block_bytes} != {self.dcache.block_bytes})"
            )
        for name in (
            "hit_cycles",
            "miss_penalty_cycles",
            "writeback_cycles",
            "rampage_writeback_cycles",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    @property
    def block_bytes(self) -> int:
        return self.icache.block_bytes


@dataclass(frozen=True)
class TlbParams:
    """TLB geometry (paper: 64 entries, fully associative, random).

    ``associativity == 0`` means fully associative.
    """

    entries: int = 64
    associativity: int = 0
    hit_cycles: int = 1  # fully pipelined: charged 0 on the fast path

    def __post_init__(self) -> None:
        _require_pow2(self.entries, "entries")
        if self.associativity < 0:
            raise ConfigurationError("associativity must be >= 0")
        ways = self.ways
        if self.entries % ways != 0 or not is_power_of_two(self.entries // ways):
            raise ConfigurationError(
                f"{self.entries}-entry TLB cannot be divided into {ways} ways"
            )

    @property
    def ways(self) -> int:
        return self.entries if self.associativity == 0 else self.associativity

    @property
    def num_sets(self) -> int:
        return self.entries // self.ways


@dataclass(frozen=True)
class BusParams:
    """CPU <-> L2/SRAM bus: 128 bits wide at one third of the CPU clock."""

    width_bits: int = 128
    cpu_clock_divisor: int = 3

    def __post_init__(self) -> None:
        _require_pow2(self.width_bits, "width_bits")
        if self.cpu_clock_divisor <= 0:
            raise ConfigurationError("cpu_clock_divisor must be positive")

    @property
    def width_bytes(self) -> int:
        return self.width_bits // 8


@dataclass(frozen=True)
class RambusParams:
    """Direct Rambus timing (paper sections 3.3 and 4.3).

    50 ns before the first reference is started, thereafter 2 bytes per
    1.25 ns.  ``pipelined`` enables the section-6.3 future-work model in
    which independent transfers overlap the access latency of later ones
    (up to ``pipeline_efficiency`` of peak bandwidth).
    """

    access_ps: int = 50 * PS_PER_NS
    ps_per_beat: int = 1250  # 1.25 ns
    bytes_per_beat: int = 2
    pipelined: bool = False
    pipeline_efficiency: float = 0.95

    def __post_init__(self) -> None:
        if self.access_ps < 0 or self.ps_per_beat <= 0 or self.bytes_per_beat <= 0:
            raise ConfigurationError("Rambus timing values must be positive")
        if not 0.0 < self.pipeline_efficiency <= 1.0:
            raise ConfigurationError("pipeline_efficiency must be in (0, 1]")

    @property
    def peak_bytes_per_second(self) -> float:
        """Peak bandwidth (1.5 GB/s for the default 2 B / 1.25 ns)."""
        return self.bytes_per_beat / (self.ps_per_beat * 1e-12)


@dataclass(frozen=True)
class DiskParams:
    """Disk used only for the Table 1 efficiency comparison."""

    latency_s: float = 10e-3  # 10 ms
    bandwidth_bytes_per_s: float = 40e6  # 40 MB/s

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("disk parameters must be positive")


@dataclass(frozen=True)
class HandlerCosts:
    """Reference counts for the simulated OS software.

    The paper models OS activity by interleaving traces of handler code
    (sections 4.3 and 4.6); it pins the context switch at "approximately
    400 references" and leaves the TLB-miss and page-fault handlers to
    the page-lookup software trace.  The defaults below are sized from
    an inverted-page-table lookup written in a RISC-like ISA:

    * TLB miss: ~12 instructions of hash/dispatch plus 2 data references
      for the anchor probe, and 6 instructions + 2 data references per
      extra chain probe (a tuned assembly inverted-table refill).
    * Page fault: ~100 instructions and ~20 data references covering the
      fault path and table updates, plus the clock-hand scan, whose
      reference bits live in a bitmap (one word covers 32 frames -- see
      :mod:`repro.ossim.handlers`).
    * Context switch: 400 references, 4:1 instruction:data (the paper's
      "standard textbook algorithm" trace).
    """

    tlb_instr: int = 12
    tlb_data: int = 2
    tlb_probe_instr: int = 6
    tlb_probe_data: int = 2
    fault_instr: int = 100
    fault_data: int = 20
    switch_instr: int = 320
    switch_data: int = 80

    def __post_init__(self) -> None:
        for name in (
            "tlb_instr",
            "tlb_data",
            "tlb_probe_instr",
            "tlb_probe_data",
            "fault_instr",
            "fault_data",
            "switch_instr",
            "switch_data",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    @property
    def switch_refs(self) -> int:
        return self.switch_instr + self.switch_data


@dataclass(frozen=True)
class RampageParams:
    """RAMpage SRAM main memory (paper sections 2.2 and 4.5).

    The SRAM level is the conventional L2's 4 MB plus a bonus equal to
    the tag storage the cache would have needed: the paper gives
    128 KB extra at 128-byte pages, "scaled down for larger page sizes",
    i.e. ``tag_bytes_per_block`` (= 4) per page frame.
    """

    page_bytes: int = 1 * KIB
    base_bytes: int = 4 * MIB
    tag_bytes_per_block: int = 4
    pinned_code_data_bytes: int = 4 * KIB
    ipt_entry_bytes: int = 20
    standby_pages: int = 0  # victim-buffer analogue (section 3.2), 0 = off

    def __post_init__(self) -> None:
        _require_pow2(self.page_bytes, "page_bytes")
        _require_pow2(self.base_bytes, "base_bytes")
        if self.tag_bytes_per_block < 0:
            raise ConfigurationError("tag_bytes_per_block must be >= 0")
        if self.pinned_code_data_bytes < 0 or self.ipt_entry_bytes <= 0:
            raise ConfigurationError("pinning parameters must be positive")
        if self.standby_pages < 0:
            raise ConfigurationError("standby_pages must be >= 0")
        if self.num_frames <= self.pinned_frames:
            raise ConfigurationError(
                "OS pinning would consume the whole SRAM main memory "
                f"({self.pinned_frames} of {self.num_frames} frames)"
            )

    @property
    def total_bytes(self) -> int:
        """SRAM size including the tag-equivalent bonus."""
        base_frames = self.base_bytes // self.page_bytes
        return self.base_bytes + self.tag_bytes_per_block * base_frames

    @property
    def num_frames(self) -> int:
        return self.total_bytes // self.page_bytes

    @property
    def pinned_bytes(self) -> int:
        """OS-resident bytes: handler code/data plus the inverted page table.

        Reproduces section 4.5's footprint: ~24 KB (6 pages) at 4 KB
        pages up to ~667 KB (5336 pages) at 128-byte pages, because the
        table has one entry per SRAM frame.
        """
        return self.pinned_code_data_bytes + self.ipt_entry_bytes * self.num_frames

    @property
    def pinned_frames(self) -> int:
        pages, rem = divmod(self.pinned_bytes, self.page_bytes)
        return pages + (1 if rem else 0)

    @property
    def user_frames(self) -> int:
        return self.num_frames - self.pinned_frames


SystemKind = Literal["conventional", "rampage"]


@dataclass(frozen=True)
class MachineParams:
    """Complete description of one simulated machine.

    ``kind`` selects the hierarchy: ``"conventional"`` uses ``l2``
    (ignoring ``rampage``); ``"rampage"`` uses ``rampage`` (ignoring
    ``l2``).  The factory functions in :mod:`repro.systems.factory`
    build the paper's exact configurations.
    """

    kind: SystemKind
    issue_rate_hz: int = 200_000_000
    l1: L1Params = field(default_factory=L1Params)
    tlb: TlbParams = field(default_factory=TlbParams)
    bus: BusParams = field(default_factory=BusParams)
    dram: RambusParams = field(default_factory=RambusParams)
    l2: CacheParams = field(
        default_factory=lambda: CacheParams(4 * MIB, 128, associativity=1)
    )
    rampage: RampageParams = field(default_factory=RampageParams)
    handlers: HandlerCosts = field(default_factory=HandlerCosts)
    dram_page_bytes: int = 4 * KIB
    victim_cache_blocks: int = 0  # conventional-only extension, 0 = off
    switch_on_miss: bool = False
    scheduled_switches: bool = False
    virtual_l1: bool = False  # RAMpage-only: translate on L1 miss (section 2.3)
    vaddr_bits: int = 32
    seed: int = 0x52414D70  # "RAMp" in ASCII; seeds the replacement RNGs

    def __post_init__(self) -> None:
        if self.kind not in ("conventional", "rampage"):
            raise ConfigurationError(f"unknown system kind {self.kind!r}")
        _require_pow2(self.dram_page_bytes, "dram_page_bytes")
        if self.victim_cache_blocks < 0:
            raise ConfigurationError("victim_cache_blocks must be >= 0")
        if self.virtual_l1 and self.kind != "rampage":
            raise ConfigurationError(
                "virtual L1 caches are RAMpage-only (a conventional "
                "hierarchy maintains inclusion by physical block)"
            )
        if self.kind == "conventional":
            if self.switch_on_miss:
                raise ConfigurationError(
                    "context switch on miss is a RAMpage policy; the "
                    "conventional machine cannot take one"
                )
            if self.l2.block_bytes < self.l1.block_bytes:
                raise ConfigurationError(
                    "L2 block smaller than L1 block breaks inclusion"
                )
        else:
            if self.rampage.page_bytes < self.l1.block_bytes:
                raise ConfigurationError(
                    "SRAM page smaller than the L1 block breaks inclusion"
                )
            if self.rampage.page_bytes > self.dram_page_bytes:
                raise ConfigurationError(
                    "SRAM page larger than the DRAM page is not supported: "
                    "a single SRAM page fault must be served by one DRAM page"
                )
        if not 16 <= self.vaddr_bits <= 48:
            raise ConfigurationError("vaddr_bits must be between 16 and 48")

    @property
    def transfer_unit_bytes(self) -> int:
        """The DRAM transfer unit: L2 block or SRAM page."""
        if self.kind == "conventional":
            return self.l2.block_bytes
        return self.rampage.page_bytes

    @property
    def translation_page_bytes(self) -> int:
        """Page size the TLB translates: DRAM pages (conventional) or
        SRAM pages (RAMpage, section 2.3)."""
        if self.kind == "conventional":
            return self.dram_page_bytes
        return self.rampage.page_bytes

    def with_issue_rate(self, issue_rate_hz: int) -> "MachineParams":
        """Return a copy at a different issue rate (for sweeps)."""
        return replace(self, issue_rate_hz=issue_rate_hz)

    def with_transfer_unit(self, size_bytes: int) -> "MachineParams":
        """Return a copy with a different L2 block / SRAM page size."""
        if self.kind == "conventional":
            return replace(self, l2=replace(self.l2, block_bytes=size_bytes))
        return replace(
            self, rampage=replace(self.rampage, page_bytes=size_bytes)
        )
