"""Run-collapsed chunk loop vs ``access()`` oracle equivalence.

Both machines send direct-mapped L1s through the run-collapsed
``_run_chunk_vectorized`` loop; these tests assert it is
*observationally identical* to the ``access()`` oracle that
``_run_chunk_oracle`` loops over -- same statistics, same simulated
time, same final cache state -- over interleaved multi-process traces,
including page-fault-heavy RAMpage configurations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_chunks
from repro.core.params import (
    KIB,
    MIB,
    CacheParams,
    HandlerCosts,
    MachineParams,
    RampageParams,
)
from repro.systems.factory import build_system


def conventional_params(block=256, assoc=1):
    return MachineParams(
        kind="conventional",
        issue_rate_hz=1_000_000_000,
        l2=CacheParams(1 * MIB, block, associativity=assoc),
        handlers=HandlerCosts(),
    )


def rampage_params(page=256, base_kib=64):
    return MachineParams(
        kind="rampage",
        issue_rate_hz=1_000_000_000,
        rampage=RampageParams(
            page_bytes=page,
            base_bytes=base_kib * KIB,
            pinned_code_data_bytes=2 * KIB,
            ipt_entry_bytes=16,
        ),
        handlers=HandlerCosts(),
    )


def run_both(params, chunks):
    fast = build_system(params)
    slow = build_system(params)
    for chunk in chunks:
        consumed_fast = fast.run_chunk(chunk)
        consumed_slow = slow._run_chunk_oracle(chunk)
        assert consumed_fast == consumed_slow
    return fast.finalize(), slow.finalize()


@pytest.mark.parametrize(
    "params",
    [
        conventional_params(block=256, assoc=1),
        conventional_params(block=1024, assoc=2),
        rampage_params(page=256),
        rampage_params(page=1024, base_kib=128),
    ],
    ids=["direct-l2", "2way-l2", "rampage-256", "rampage-1k"],
)
def test_fast_path_matches_reference(params):
    fast, slow = run_both(params, random_chunks(seed=7))
    assert fast.stats.as_dict() == slow.stats.as_dict()
    assert fast.time_ps == slow.time_ps


def test_fast_path_matches_reference_with_faulting():
    """A tiny SRAM forces constant page faults and TLB flushes."""
    params = rampage_params(page=128, base_kib=16)
    fast, slow = run_both(params, random_chunks(seed=21, n_chunks=8))
    assert fast.stats.as_dict() == slow.stats.as_dict()


def test_fast_path_matches_with_switch_on_miss():
    from dataclasses import replace

    params = replace(
        rampage_params(page=128, base_kib=16),
        switch_on_miss=True,
        scheduled_switches=True,
    )
    fast, slow = run_both(params, random_chunks(seed=3))
    assert fast.stats.as_dict() == slow.stats.as_dict()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_equivalence_random_traces(seed):
    params = rampage_params(page=256, base_kib=32)
    fast, slow = run_both(params, random_chunks(seed=seed, n_chunks=4, chunk_len=250))
    assert fast.stats.as_dict() == slow.stats.as_dict()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_equivalence_conventional(seed):
    params = conventional_params(block=512)
    fast, slow = run_both(params, random_chunks(seed=seed, n_chunks=4, chunk_len=250))
    assert fast.stats.as_dict() == slow.stats.as_dict()
