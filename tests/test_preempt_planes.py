"""Preemption-aware miss planes (the decision-op tape).

The contract: switch-on-miss RAMpage and virtual-L1 machines -- whose
background page transfers and preemption points used to force every
sibling cell through a full simulation -- record their background
transfers and waits on the *decision-op tape* beside the blocking
transfers every machine records, and the pure-arithmetic decoupled replay
reproduces the full simulation **byte-for-byte** under any sibling
issue rate and Rambus timing.  Whole groups re-price in one
:func:`replay_group` call, and a plane refuses a cell of a structurally
different machine.  Artifacts round-trip
through disk with the full integrity discipline; artifacts of older
plane layouts are stale, never read.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.core.errors import (
    CacheIntegrityError,
    SimulationError,
    StaleArtifactError,
)
from repro.core.observe import EventLog
from repro.core.params import RambusParams
from repro.systems.factory import (
    baseline_machine,
    rampage_machine,
    virtual_l1_machine,
)
from repro.systems.simulator import simulate
from repro.trace import filter as missplane
from repro.trace import materialize
from repro.trace.filter import (
    MANIFEST_NAME,
    PLANE_SCHEMA,
    STALE_PLANE_SCHEMAS,
    PlaneRecorder,
    PlaneReplayError,
    artifact_dir,
    get_plane,
    load_plane,
    plane_eligible,
    plane_key,
    replay_group,
    write_plane,
)
from repro.trace.materialize import WORKLOAD_VERSION, get_workload
from repro.trace.replay_kernel import DOP_BG_FILL, DOP_SYNC

SCALE = 0.0002
SLICE_REFS = 4_000
SEED = 0
RATES = (2 * 10**8, 10**9, 4 * 10**9)
#: Two genuinely different Rambus timings beyond the recording default:
#: a slow part and a pipelined channel (which re-prices queued
#: background transfers differently from the recording).
DRAM_TIMINGS = (
    RambusParams(),
    RambusParams(access_ps=90_000, ps_per_beat=2_500),
    RambusParams(pipelined=True),
)


@pytest.fixture(autouse=True)
def fresh_registries():
    materialize.clear_registry()
    missplane.clear_registry()
    yield
    materialize.clear_registry()
    missplane.clear_registry()


def programs():
    return get_workload(SCALE, SEED, cache_dir=None, slice_refs=SLICE_REFS).programs


def preempting_machines():
    return [
        (
            "rampage_som",
            lambda rate, dram: rampage_machine(
                rate, 1024, switch_on_miss=True, dram=dram
            ),
        ),
        (
            "vl1",
            lambda rate, dram: virtual_l1_machine(rate, 1024, dram=dram),
        ),
        (
            "vl1_som",
            lambda rate, dram: virtual_l1_machine(
                rate, 1024, switch_on_miss=True, dram=dram
            ),
        ),
    ]


def record_plane(params):
    recorder = PlaneRecorder(plane_key(params, SCALE, SEED, SLICE_REFS))
    result = simulate(
        params, programs(), slice_refs=SLICE_REFS, record_plane=recorder
    )
    return result, recorder.finalize()


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------


def test_preempting_machines_are_plane_eligible():
    assert plane_eligible(rampage_machine(10**9, 1024, switch_on_miss=True))
    assert plane_eligible(virtual_l1_machine(10**9, 1024))
    assert plane_eligible(
        virtual_l1_machine(10**9, 1024, switch_on_miss=True)
    )


# ----------------------------------------------------------------------
# Three-way byte-identity: the acceptance criterion
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "label,build",
    preempting_machines(),
    ids=[m[0] for m in preempting_machines()],
)
def test_three_way_byte_identity_across_rates_and_dram(label, build):
    """Full simulation, the plane-recording run and one group replay
    agree byte-for-byte for preempting machines, across issue rates
    *and* Rambus timings (including a pipelined channel, which prices
    queued background transfers differently than the recording did)."""
    params = build(10**9, RambusParams())
    recorded, plane = record_plane(params)
    # Preempting recordings carry background ops; the non-switching
    # virtual-L1 machine never queues transfers, so its tape holds only
    # blocking transfers like any other non-preempting machine's.
    background = np.any(plane.dops[:, 0] != DOP_SYNC)
    assert background == params.switch_on_miss
    plain = simulate(
        build(10**9, RambusParams()), programs(), slice_refs=SLICE_REFS
    )
    assert recorded.stats.as_dict() == plain.stats.as_dict()
    cells = [build(rate, dram) for rate in RATES for dram in DRAM_TIMINGS]
    for cell, decoupled in zip(cells, replay_group(cells, plane)):
        expected = simulate(cell, programs(), slice_refs=SLICE_REFS)
        assert decoupled.stats.as_dict() == expected.stats.as_dict()


def test_replay_group_matches_per_cell_on_tape_only_planes():
    """The vectorized matrix path (non-preempting planes) is
    byte-identical to each cell's own full simulation, across issue
    rates and Rambus timings."""
    _, plane = record_plane(baseline_machine(10**9, 512))
    assert np.all(plane.dops[:, 0] == DOP_SYNC)
    cells = [
        baseline_machine(rate, 512, dram=dram)
        for rate in RATES
        for dram in DRAM_TIMINGS
    ]
    grouped = replay_group(cells, plane)
    for cell, result in zip(cells, grouped):
        expected = simulate(cell, programs(), slice_refs=SLICE_REFS)
        assert result.stats.as_dict() == expected.stats.as_dict()


def test_filtered_replay_rejects_structurally_mismatched_machine():
    """A plane re-prices only the machine it was recorded on: a
    non-switching cell, another page size or a conventional machine
    must raise instead of inheriting the recording's counters (its
    switches on a miss among them)."""
    _, plane = record_plane(rampage_machine(10**9, 1024, switch_on_miss=True))
    sibling = rampage_machine(4 * 10**9, 1024, switch_on_miss=True)
    mismatched = [
        rampage_machine(10**9, 1024),
        rampage_machine(10**9, 2048, switch_on_miss=True),
        baseline_machine(10**9, 1024),
    ]
    for cell in mismatched:
        with pytest.raises(PlaneReplayError, match="structurally different"):
            replay_group([cell], plane)
        with pytest.raises(PlaneReplayError, match="structurally different"):
            replay_group([sibling, cell], plane)
    assert replay_group([sibling], plane)[0].stats.switches_on_miss > 0


# ----------------------------------------------------------------------
# Disk artifacts: round-trip, corruption, stale layouts
# ----------------------------------------------------------------------


def test_v2_plane_round_trips_through_disk(tmp_path):
    params = rampage_machine(10**9, 1024, switch_on_miss=True)
    _, plane = record_plane(params)
    path = write_plane(artifact_dir(tmp_path, plane.key), plane)
    manifest = json.loads((path / MANIFEST_NAME).read_text("utf-8"))
    assert manifest["schema"] == PLANE_SCHEMA
    assert manifest["dops"] == len(plane.dops)
    attached = load_plane(path)
    assert np.array_equal(attached.dops, plane.dops)
    cells = [rampage_machine(rate, 1024, switch_on_miss=True) for rate in RATES]
    for a, b in zip(replay_group(cells, attached), replay_group(cells, plane)):
        assert a.stats.as_dict() == b.stats.as_dict()


@pytest.mark.parametrize(
    "damage",
    [
        lambda path: (path / "dops.npy").write_bytes(b"torn"),
        lambda path: (path / "dops.npy").unlink(),
        lambda path: np.save(
            path / "dops.npy", np.zeros((1, 3), dtype=np.int64)
        ),
    ],
    ids=["truncated-dops", "missing-dops", "swapped-dops"],
)
def test_corrupt_dops_is_quarantined_miss(tmp_path, damage):
    params = rampage_machine(10**9, 1024, switch_on_miss=True)
    _, plane = record_plane(params)
    path = write_plane(artifact_dir(tmp_path, plane.key), plane)
    damage(path)
    with pytest.raises(CacheIntegrityError):
        load_plane(path)
    events = EventLog()
    assert get_plane(plane.key, cache_dir=tmp_path, events=events) is None
    quarantined = events.of("plane_quarantined")
    assert len(quarantined) == 1
    assert quarantined[0]["reason"]
    assert not path.exists()


def test_cache_verify_validates_v2_checksums(tmp_path, capsys):
    params = rampage_machine(10**9, 1024, switch_on_miss=True)
    _, plane = record_plane(params)
    path = write_plane(artifact_dir(tmp_path, plane.key), plane)
    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
    # In-place bit-rot in the decision-op tape must fail verification.
    raw = bytearray((path / "dops.npy").read_bytes())
    raw[-1] ^= 0xFF
    (path / "dops.npy").write_bytes(bytes(raw))
    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "dops.npy" in out


def _write_stale_plane(cache_dir, key: str, schema: str):
    """Hand-write a plane directory holding an older layout's manifest."""
    path = artifact_dir(cache_dir, key)
    path.mkdir(parents=True)
    manifest = {
        "schema": schema,
        "workload_version": WORKLOAD_VERSION,
        "key": key,
        "checksums": {},
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest), "utf-8")
    return path


def _write_stale_trace(cache_dir, key: str):
    """Hand-write a trace directory holding a ``rampage-trace/1`` manifest."""
    path = materialize.artifact_dir(cache_dir, key)
    path.mkdir(parents=True)
    manifest = {
        "schema": "rampage-trace/1",
        "workload_version": WORKLOAD_VERSION,
        "key": key,
        "total_refs": 1,
        "programs": [{"name": "gcc", "pid": 0, "seed": 0, "start": 0, "stop": 1}],
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest), "utf-8")
    return path


def test_load_plane_rejects_v1_and_v2_manifests(tmp_path):
    """Older layouts are never read, not even a genuine recording's
    arrays relabelled with an old schema tag."""
    _, plane = record_plane(rampage_machine(10**9, 1024, switch_on_miss=True))
    path = write_plane(artifact_dir(tmp_path, plane.key), plane)
    manifest = json.loads((path / MANIFEST_NAME).read_text("utf-8"))
    assert STALE_PLANE_SCHEMAS == (
        "rampage-plane/1",
        "rampage-plane/2",
        "rampage-plane/3",
    )
    for schema in STALE_PLANE_SCHEMAS:
        manifest["schema"] = schema
        (path / MANIFEST_NAME).write_text(json.dumps(manifest), "utf-8")
        with pytest.raises(StaleArtifactError, match="stale schema"):
            load_plane(path)


def test_cache_verify_reports_stale_planes(tmp_path, capsys):
    _, plane = record_plane(rampage_machine(10**9, 1024))
    write_plane(artifact_dir(tmp_path, plane.key), plane)
    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
    _write_stale_plane(tmp_path, "0" * 24, "rampage-plane/2")
    _write_stale_plane(tmp_path, "3" * 24, "rampage-plane/3")
    _write_stale_trace(tmp_path, "1" * 24)
    capsys.readouterr()
    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"STALE plane {'0' * 24}" in out
    assert f"STALE plane {'3' * 24}" in out
    assert f"STALE trace {'1' * 24}" in out
    assert "CORRUPT" not in out


def test_cache_purge_corrupt_only_drops_stale_planes(tmp_path):
    _, plane = record_plane(rampage_machine(10**9, 1024))
    live = write_plane(artifact_dir(tmp_path, plane.key), plane)
    live_trace = get_workload(
        SCALE, SEED, cache_dir=tmp_path, slice_refs=SLICE_REFS
    ).path
    stale = _write_stale_plane(tmp_path, "0" * 24, "rampage-plane/2")
    stale_v3 = _write_stale_plane(tmp_path, "3" * 24, "rampage-plane/3")
    stale_trace = _write_stale_trace(tmp_path, "1" * 24)
    assert main(["cache", "purge", "--corrupt-only", "--dir", str(tmp_path)]) == 0
    assert not stale.exists()
    assert not stale_v3.exists()
    assert not stale_trace.exists()
    assert live.exists()
    assert live_trace.exists()
    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0


# ----------------------------------------------------------------------
# Recorded snapshot sanity
# ----------------------------------------------------------------------


def test_preempting_plane_snapshot_carries_overlap():
    """Switch-on-miss runs overlap DRAM transfers with execution; the
    recorded snapshot must carry those picoseconds (the v1 invariant
    that they are zero is exactly what the decision-op tape relaxes)."""
    _, plane = record_plane(rampage_machine(10**9, 1024, switch_on_miss=True))
    assert plane.stats["dram_overlap_ps"] > 0
    assert plane.stats["switches_on_miss"] > 0
    # Every switch on a miss queues exactly one background page fill.
    fills = int(np.count_nonzero(plane.dops[:, 0] == DOP_BG_FILL))
    assert fills == plane.stats["switches_on_miss"]


def test_capture_refuses_switching_run_without_decision_ops():
    """A run that switched on a miss queued one background fill per
    switch, so a recorder that captured no such ops for it is refused
    at capture."""
    params = rampage_machine(10**9, 1024, switch_on_miss=True)
    stats = {"switches_on_miss": 1, "dram_accesses": 0, "level_times": {}}
    with pytest.raises(SimulationError, match="0 BG_FILL rows for switches_on_miss=1"):
        PlaneRecorder("synthetic").capture(1_000, stats, params)


def test_capture_refuses_plain_run_whose_dram_time_disagrees_with_its_tape():
    """A non-preempting recording is proved like a preempting one: its
    tape, priced at the recording's own timing, must reproduce the
    measured DRAM time to the picosecond."""
    params = baseline_machine(10**9, 512)
    recorder = PlaneRecorder(plane_key(params, SCALE, SEED, SLICE_REFS))
    result = simulate(params, programs(), slice_refs=SLICE_REFS, record_plane=recorder)
    cycle_ps = recorder.finalize().cycle_ps
    stats = result.stats.as_dict()
    level_times = stats["level_times"]
    stats["level_times"] = dict(level_times, dram=level_times["dram"] + 1)
    with pytest.raises(SimulationError, match="tape prices to dram="):
        recorder.capture(cycle_ps, stats, params)


def test_dop_tape_scales_with_rambus_timing():
    """Same structure, different stall arithmetic: a slower Rambus part
    must not change the decision-op tape, only the re-priced times."""
    base = rampage_machine(10**9, 1024, switch_on_miss=True)
    slow = replace(
        base, dram=RambusParams(access_ps=90_000, ps_per_beat=2_500)
    )
    _, plane_a = record_plane(base)
    _, plane_b = record_plane(slow)
    # Full rows, including the absolute cycle counts: DRAM time lives
    # outside the cycle counter, so decision points land on identical
    # cycles whatever the Rambus part costs.
    assert np.array_equal(plane_a.dops, plane_b.dops)
