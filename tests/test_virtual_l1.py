"""Tests for the virtually-indexed-L1 RAMpage variant."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.params import KIB, HandlerCosts, MachineParams, RampageParams
from repro.mem.inverted_page_table import FREE
from repro.systems.factory import (
    baseline_machine,
    build_system,
    rampage_machine,
    virtual_l1_machine,
)
from repro.systems.simulator import Simulator
from repro.systems.virtual_l1 import OS_PID, VirtualL1RampageSystem
from repro.trace.interleave import InterleavedWorkload
from repro.trace.materialize import get_workload
from repro.trace.record import IFETCH, READ, WRITE
from repro.trace.synthetic import build_workload

NO_HANDLERS = HandlerCosts(
    tlb_instr=0, tlb_data=0, tlb_probe_instr=0, tlb_probe_data=0,
    fault_instr=0, fault_data=0, switch_instr=0, switch_data=0,
)


def machine(page=256, base_kib=None, standby=0, **kw):
    rampage = RampageParams(
        page_bytes=page,
        standby_pages=standby,
        **({"base_bytes": base_kib * KIB, "pinned_code_data_bytes": 2 * KIB,
            "ipt_entry_bytes": 16} if base_kib else {}),
    )
    return VirtualL1RampageSystem(
        MachineParams(
            kind="rampage",
            issue_rate_hz=10**9,
            rampage=rampage,
            handlers=NO_HANDLERS,
            **kw,
        )
    )


class TestVirtualHits:
    def test_l1_hit_needs_no_translation(self):
        system = machine()
        system.access(READ, 0x1000)  # miss: translation + fault
        misses_before = system.tlb.misses + system.tlb.hits
        system.access(READ, 0x1004)  # same L1 block: pure virtual hit
        assert system.tlb.misses + system.tlb.hits == misses_before

    def test_homonyms_never_false_hit(self):
        """Two processes' identical vaddrs are distinct blocks: the
        second access misses rather than wrongly hitting the first
        process's line (and, being direct-mapped to the same set, it
        evicts it -- correct homonym behaviour, no aliasing)."""
        system = machine()
        system.access(READ, 0x1000, pid=0)
        system.access(READ, 0x1000, pid=1)
        assert system.stats.l1d_misses == 2  # no false sharing/hit
        system.access(READ, 0x1000, pid=0)  # conflicted out: miss again
        assert system.stats.l1d_misses == 3
        assert system.stats.l1d_hits == 0

    def test_os_handler_blocks_disjoint_from_users(self):
        system = machine()
        # Handler refs use the OS pid tag; user pid 0's vaddr 0 must not
        # alias OS physical address 0.
        system._l1_access(IFETCH, 0)  # OS block at paddr 0
        system.access(READ, 0, pid=0)  # user block at vaddr 0
        assert system.stats.l1d_misses == 1
        assert system.stats.l1i_misses == 1


class TestConsistency:
    def test_rejects_conventional(self):
        with pytest.raises(ConfigurationError):
            VirtualL1RampageSystem(baseline_machine())

    def test_no_line_outlives_its_page(self):
        """Heavy faulting: every resident user L1 line's page must still
        be mapped (the virtual-range flush invariant)."""
        system = machine(page=128, base_kib=16)
        rng = np.random.default_rng(5)
        for i in range(4000):
            addr = int(rng.integers(0, 96 * KIB)) & ~3
            system.access(int(rng.integers(0, 3)), addr, pid=int(rng.integers(0, 3)))
        shift = system._blocks_per_page_bits
        for cache in (system.l1i, system.l1d):
            for vblock in cache.resident_blocks():
                if (vblock >> system._vblock_shift) == OS_PID:
                    continue
                gvpn = vblock >> shift
                assert system.sram.ipt.lookup(gvpn)[0] != FREE

    def test_dirty_line_writeback_marks_page(self):
        system = machine(page=4096)
        system.access(WRITE, 0)
        # Conflict the dirty line out (frames 4 pages apart share sets).
        for page in range(1, 5):
            system.access(READ, page * 4096)
        frame, _ = system.sram.translate(system.global_vpn(0, 0))
        assert system.sram.is_dirty(frame)

    def test_workload_run_matches_physical_fault_count(self):
        """Virtual indexing changes translation traffic, not residency:
        the page-fault sequence is identical to the physical-L1 machine."""
        params = rampage_machine(10**9, 512)
        from repro.systems.factory import build_system

        results = {}
        for label, system in (
            ("phys", build_system(params)),
            ("virt", VirtualL1RampageSystem(params)),
        ):
            workload = InterleavedWorkload(
                build_workload(scale=0.0002), slice_refs=5_000
            )
            results[label] = Simulator(system, workload).run()
        drift = abs(
            results["virt"].stats.page_faults - results["phys"].stats.page_faults
        )
        # Near-identical residency; tiny drift is possible because fewer
        # TLB inserts leave fewer referenced-bit hints for the clock.
        assert drift <= max(5, results["phys"].stats.page_faults * 0.02)
        assert results["virt"].stats.tlb_misses <= results["phys"].stats.tlb_misses

    def test_preemption_replays_cleanly(self):
        from dataclasses import replace

        params = replace(
            rampage_machine(10**9, 128, switch_on_miss=True),
        )
        system = VirtualL1RampageSystem(params)
        assert system.access(READ, 0) is False
        assert system.access(READ, 0) is True


class TestStandbyList:
    def test_evicting_a_parked_pages_dirty_line_marks_its_frame(self):
        """A page parked on the standby list keeps its frame and its L1
        lines; evicting one of its dirty lines marks the parked frame
        dirty, so discarding the page later writes it back."""
        system = machine(page=4096, base_kib=32, standby=2)
        system.access(WRITE, 0)  # a dirty line in L1D set 0
        gvpn = system.global_vpn(0, 0)
        # Fault pages 1-5 in, off set 0: the clock hand parks page 0.
        for page in range(1, 6):
            system.access(READ, page * 4096 + 64)
        frame = system.sram.standby.frame_of(gvpn)
        assert frame is not None
        assert not system.sram.is_dirty(frame)
        system.access(READ, 4 * 4096)  # resident page 4 maps to set 0
        assert system.sram.standby.contains(gvpn)
        assert system.sram.is_dirty(frame)

    def test_line_of_a_page_neither_mapped_nor_parked_is_an_error(self):
        system = machine(page=4096)
        vblock = 5 << system._blocks_per_page_bits  # page 5 never faulted in
        with pytest.raises(ConfigurationError, match="outlived its SRAM page"):
            system._l1_writeback_below(vblock)

    def test_small_sram_standby_workload_runs(self):
        """With a 256 KB SRAM the workload evicts dirty lines of parked
        pages; the run must finish with every frame accounted for."""
        params = virtual_l1_machine(standby_pages=8)
        params = replace(
            params, rampage=replace(params.rampage, base_bytes=256 * KIB)
        )
        system = build_system(params)
        programs = get_workload(0.00005, 0, slice_refs=4_000).programs
        workload = InterleavedWorkload(programs, slice_refs=4_000)
        result = Simulator(system, workload).run()
        assert result.stats.workload_refs == sum(p.total_refs for p in programs)
        assert system.sram.standby.discards > 0
        system.sram.check_invariants()
