"""Counters and per-level time breakdown.

The paper reports three kinds of measurement:

* simulated run time (Tables 3-5),
* fraction of run time spent in each level of the hierarchy
  (Figures 2-3) -- buckets ``l1i``, ``l1d``, ``l2`` (or ``sram``),
  ``dram``, plus ``other`` for software that is not attributable to a
  level (handler instruction issue is attributed to the level its
  references hit, exactly like the paper's interleaved handler traces),
* software overhead as a *reference-count* ratio (Figure 4): extra
  TLB-miss/page-fault handler references divided by workload references.

:class:`SimStats` gathers all of it.  Times are integer picoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class LevelTimes:
    """Picoseconds attributed to each hierarchy level.

    ``l2`` doubles as the SRAM-main-memory bucket in RAMpage runs; the
    reporting layer labels it appropriately.
    """

    __slots__ = ("l1i", "l1d", "l2", "dram", "other")

    def __init__(self) -> None:
        self.l1i = 0
        self.l1d = 0
        self.l2 = 0
        self.dram = 0
        self.other = 0

    @property
    def total(self) -> int:
        return self.l1i + self.l1d + self.l2 + self.dram + self.other

    def as_dict(self) -> dict[str, int]:
        return {
            "l1i": self.l1i,
            "l1d": self.l1d,
            "l2": self.l2,
            "dram": self.dram,
            "other": self.other,
        }

    def fractions(self) -> dict[str, float]:
        """Return each bucket as a fraction of the total (0.0 if empty)."""
        total = self.total
        if total == 0:
            return {name: 0.0 for name in self.as_dict()}
        return {name: value / total for name, value in self.as_dict().items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"LevelTimes({inner})"


@dataclass
class SimStats:
    """Everything a single simulation run counts.

    Reference counts split workload references (from the benchmark
    traces) from overhead references (handler software), because
    Figure 4 is the ratio of the latter to the former.
    """

    # Workload references, by kind.
    ifetches: int = 0
    reads: int = 0
    writes: int = 0

    # Overhead references injected by software handlers.
    tlb_handler_refs: int = 0
    fault_handler_refs: int = 0
    switch_refs: int = 0

    # Event counts.
    l1i_hits: int = 0
    l1i_misses: int = 0
    l1d_hits: int = 0
    l1d_misses: int = 0
    l1_writebacks: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l2_writebacks: int = 0
    tlb_hits: int = 0
    tlb_misses: int = 0
    page_faults: int = 0
    page_writebacks: int = 0
    context_switches: int = 0
    switches_on_miss: int = 0
    dram_accesses: int = 0
    dram_stall_ps: int = 0
    dram_overlap_ps: int = 0
    inclusion_invalidations: int = 0

    # Time, split per level.
    level_times: LevelTimes = field(default_factory=LevelTimes)

    # Per-process attribution, filled on the slow paths only: how many
    # TLB misses and page faults each pid suffered (the paper's
    # section 6.3 "individual application behaviour").
    tlb_misses_by_pid: dict[int, int] = field(default_factory=dict)
    faults_by_pid: dict[int, int] = field(default_factory=dict)

    @property
    def workload_refs(self) -> int:
        """References that came from the benchmark traces."""
        return self.ifetches + self.reads + self.writes

    @property
    def overhead_refs(self) -> int:
        """References injected by TLB-miss and page-fault handlers.

        Context-switch references are excluded here to match Figure 4,
        which plots "TLB miss and page fault handling overheads".
        """
        return self.tlb_handler_refs + self.fault_handler_refs

    @property
    def overhead_ratio(self) -> float:
        """Figure 4's y-axis: handler refs / workload refs."""
        if self.workload_refs == 0:
            return 0.0
        return self.overhead_refs / self.workload_refs

    @property
    def total_time_ps(self) -> int:
        return self.level_times.total

    def miss_rate(self, level: str) -> float:
        """Return the miss rate of ``level`` (``l1i``/``l1d``/``l2``/``tlb``)."""
        pairs = {
            "l1i": (self.l1i_misses, self.l1i_hits + self.l1i_misses),
            "l1d": (self.l1d_misses, self.l1d_hits + self.l1d_misses),
            "l2": (self.l2_misses, self.l2_hits + self.l2_misses),
            "tlb": (self.tlb_misses, self.tlb_hits + self.tlb_misses),
        }
        if level not in pairs:
            raise KeyError(f"unknown level {level!r}")
        misses, refs = pairs[level]
        if refs == 0:
            return 0.0
        return misses / refs

    def as_dict(self) -> dict[str, object]:
        """Flatten to plain types, for JSON reports and test assertions."""
        data: dict[str, object] = {
            name: getattr(self, name)
            for name in (
                "ifetches",
                "reads",
                "writes",
                "tlb_handler_refs",
                "fault_handler_refs",
                "switch_refs",
                "l1i_hits",
                "l1i_misses",
                "l1d_hits",
                "l1d_misses",
                "l1_writebacks",
                "l2_hits",
                "l2_misses",
                "l2_writebacks",
                "tlb_hits",
                "tlb_misses",
                "page_faults",
                "page_writebacks",
                "context_switches",
                "switches_on_miss",
                "dram_accesses",
                "dram_stall_ps",
                "dram_overlap_ps",
                "inclusion_invalidations",
            )
        }
        data["level_times"] = self.level_times.as_dict()
        data["total_time_ps"] = self.total_time_ps
        data["tlb_misses_by_pid"] = {
            str(pid): count for pid, count in sorted(self.tlb_misses_by_pid.items())
        }
        data["faults_by_pid"] = {
            str(pid): count for pid, count in sorted(self.faults_by_pid.items())
        }
        return data
