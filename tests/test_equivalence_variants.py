"""Collapsed-loop vs ``access()`` oracle equivalence for machine variants.

Victim buffers, set-associative TLBs, standby lists and pipelined DRAM
each change what the run-collapsed ``run_chunk`` loop meets below L1;
each variant must stay observationally identical to the oracle.
Associative L1s run the oracle itself, so their statistics are pinned
by ``test_machine_digests.py`` instead.
"""


import pytest

from repro.core.params import (
    KIB,
    MIB,
    CacheParams,
    HandlerCosts,
    MachineParams,
    RambusParams,
    RampageParams,
    TlbParams,
)
from repro.systems.factory import build_system
from helpers import random_chunks


def run_both(params, chunks):
    fast = build_system(params)
    slow = build_system(params)
    for chunk in chunks:
        assert fast.run_chunk(chunk) == slow._run_chunk_oracle(chunk)
    return fast.finalize(), slow.finalize()


def conventional(**overrides):
    defaults = dict(
        kind="conventional",
        issue_rate_hz=1_000_000_000,
        l2=CacheParams(1 * MIB, 512, associativity=1),
        handlers=HandlerCosts(),
    )
    defaults.update(overrides)
    return MachineParams(**defaults)


def rampage(**overrides):
    defaults = dict(
        kind="rampage",
        issue_rate_hz=1_000_000_000,
        rampage=RampageParams(
            page_bytes=256,
            base_bytes=64 * KIB,
            pinned_code_data_bytes=2 * KIB,
            ipt_entry_bytes=16,
        ),
        handlers=HandlerCosts(),
    )
    defaults.update(overrides)
    return MachineParams(**defaults)


@pytest.mark.parametrize(
    "params",
    [
        conventional(victim_cache_blocks=8),
        conventional(tlb=TlbParams(entries=1024, associativity=2)),
        conventional(dram=RambusParams(pipelined=True)),
        rampage(tlb=TlbParams(entries=16, associativity=2)),
        rampage(
            rampage=RampageParams(
                page_bytes=256,
                base_bytes=64 * KIB,
                pinned_code_data_bytes=2 * KIB,
                ipt_entry_bytes=16,
                standby_pages=8,
            )
        ),
    ],
    ids=[
        "conv-victim",
        "conv-big-tlb",
        "conv-pipelined",
        "ramp-small-tlb",
        "ramp-standby",
    ],
)
def test_variant_equivalence(params):
    fast, slow = run_both(params, random_chunks(seed=13, n_chunks=6))
    assert fast.stats.as_dict() == slow.stats.as_dict()
    assert fast.time_ps == slow.time_ps


def test_victim_buffer_actually_used():
    """Guard against the variant silently not exercising its feature."""
    params = conventional(victim_cache_blocks=8)
    system = build_system(params)
    for chunk in random_chunks(seed=13, n_chunks=6):
        system.run_chunk(chunk)
    assert system.victim_buffer.hits + system.victim_buffer.misses > 0


def test_standby_actually_used():
    params = rampage(
        rampage=RampageParams(
            page_bytes=256,
            base_bytes=64 * KIB,
            pinned_code_data_bytes=2 * KIB,
            ipt_entry_bytes=16,
            standby_pages=8,
        )
    )
    system = build_system(params)
    for chunk in random_chunks(seed=13, n_chunks=6):
        system.run_chunk(chunk)
    assert len(system.sram.standby) > 0 or system.sram.standby.discards > 0
