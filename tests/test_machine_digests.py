"""Pinned statistics of the machine shapes that run the ``access()`` oracle.

Machines with associative L1s and the virtual-L1 RAMpage variant take no
run-collapsed loop, so no fast-vs-oracle comparison covers them.  These
digests pin every statistic and the simulated time of each shape
instead: the SHA-256 of its sorted-key ``stats.as_dict()`` JSON.  They
were recorded with the inlined associative-L1 loops and the private
virtual-L1 fault path that the oracle and the shared RAMpage fault
protocol replaced, so any drift is a change in simulated behaviour.

At this scale the 4 MB SRAM main memory never fills, so the
``*-paging`` shapes shrink it to 512 KB: the workload's ~1 300 pages
then overflow it, faults reuse frames, and every fault path runs its L1
flush and page writebacks.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.params import KIB
from repro.systems.factory import (
    aggressive_l1,
    baseline_machine,
    rampage_machine,
    virtual_l1_machine,
    with_future_work_upgrades,
)
from repro.systems.simulator import simulate
from repro.trace.materialize import get_workload

SCALE = 0.00005
SLICE_REFS = 4000


def paging(params):
    """Shrink the SRAM main memory so the workload pages."""
    return replace(params, rampage=replace(params.rampage, base_bytes=512 * KIB))


SHAPES = {
    "conv-8way-l1": baseline_machine(l1=aggressive_l1()),
    "ramp-8way-l1": rampage_machine(l1=aggressive_l1()),
    "ramp-som-8way-l1": rampage_machine(switch_on_miss=True, l1=aggressive_l1()),
    "vl1": virtual_l1_machine(),
    "vl1-som": virtual_l1_machine(switch_on_miss=True),
    "vl1-standby": virtual_l1_machine(standby_pages=8),
    "ramp-future-work": with_future_work_upgrades(rampage_machine()),
    "ramp-8way-l1-paging": paging(rampage_machine(l1=aggressive_l1())),
    "ramp-som-8way-l1-paging": paging(
        rampage_machine(switch_on_miss=True, l1=aggressive_l1())
    ),
    "vl1-paging": paging(virtual_l1_machine()),
    "vl1-som-paging": paging(virtual_l1_machine(switch_on_miss=True)),
    "vl1-standby-paging": paging(virtual_l1_machine(standby_pages=8)),
}

#: shape -> (stats digest, simulated time in ps)
EXPECTED = {
    "conv-8way-l1": (
        "95094ec1a04f045066838a883eac5ac341bf6e326537b89f42c6d73116ff6374",
        1118150000,
    ),
    "ramp-8way-l1": (
        "13328f0b2ab4da3bf0178b8696731f6242d71d94bc4449971811fc55cd5ebcfa",
        3079690000,
    ),
    "ramp-som-8way-l1": (
        "b0896b84d482a9a552cc7f160a1f58457db2db1422a54b192f2e3c1b13c2d5c1",
        4780305000,
    ),
    "vl1": (
        "4d3ecba1f3045702b73f424372eeb264613843d346ba496a43abe6c417f4c5aa",
        3678835000,
    ),
    "vl1-som": (
        "c9d0ed3fdce0f615505fa7678ab032a3b7f47fd1debc4718bcbe24cf547ff468",
        5880915000,
    ),
    "vl1-standby": (
        "4d3ecba1f3045702b73f424372eeb264613843d346ba496a43abe6c417f4c5aa",
        3678835000,
    ),
    "ramp-future-work": (
        "da977447502ec6fc1ffa900e5c5d8e219113883e7a1f49e89c7f033e6dc6998e",
        3037810000,
    ),
    "ramp-8way-l1-paging": (
        "bad3d05d7a183b88214e9fa4b76ed82ffeaf016182d7a3613982b60b9ea914a9",
        3137120000,
    ),
    "ramp-som-8way-l1-paging": (
        "716557d15412c0aac81da4bd4c79d53c5d1327c4fe56cad0248fcb35a0cdbad1",
        4883480000,
    ),
    "vl1-paging": (
        "82d047b248af1a2a3a4e95453918e31b022bc983284516b8d6d1565000407b5c",
        3329015000,
    ),
    "vl1-som-paging": (
        "437f278bdfa114494d44c065e68fa13b62d5d1237acc2e52a3a97c0f1333300f",
        5541235000,
    ),
    "vl1-standby-paging": (
        "2f15712b9edfdfc9c8c0b9ee4f4a5ad8e393a53a5d391e21dd621ae38cc2a627",
        3329070000,
    ),
}


def digest(stats) -> str:
    blob = json.dumps(stats.as_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def programs():
    return get_workload(SCALE, 0, slice_refs=SLICE_REFS).programs


@pytest.mark.parametrize("shape", list(SHAPES))
def test_machine_statistics_are_pinned(shape, programs):
    result = simulate(SHAPES[shape], programs, slice_refs=SLICE_REFS)
    assert (digest(result.stats), result.time_ps) == EXPECTED[shape]
