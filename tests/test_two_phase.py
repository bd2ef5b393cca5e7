"""Tests for the two-phase sweep engine (miss planes + decoupled replay).

The contract: phase 1 runs the shared L1/TLB front-end once per
geometry key and persists a *miss plane*; phase 2 re-prices it with the
timing-decoupled :func:`replay_group` and produces **byte-identical**
run records for every cell in the plane group, as the full simulation
of each cell would.  Plane artifacts carry the
run-record cache's integrity discipline: corrupt or diverging planes
are quarantined with a structured event and the cell re-records,
never a crash.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.runtime import RunRecord
from repro.core.errors import CacheIntegrityError
from repro.core.observe import EventLog
from repro.core.params import RambusParams
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    Runner,
    encode_cache_entry,
    grid_plan,
    iter_cache_files,
)
from repro.systems.factory import (
    aggressive_l1,
    baseline_machine,
    rampage_machine,
    twoway_machine,
    virtual_l1_machine,
)
from repro.systems.simulator import simulate
from repro.trace import filter as missplane
from repro.trace import materialize
from repro.trace.filter import (
    MANIFEST_NAME,
    PLANE_DIRNAME,
    PlaneRecorder,
    PlaneReplayError,
    artifact_dir,
    commit_plane,
    get_plane,
    load_plane,
    plane_eligible,
    plane_key,
    replay_group,
    structural_params,
    write_plane,
)
from repro.trace.materialize import get_workload
from repro.trace.synthetic import build_workload

SCALE = 0.0002
SLICE_REFS = 4_000
SEED = 0
RATES = (2 * 10**8, 10**9, 4 * 10**9)


@pytest.fixture(autouse=True)
def fresh_registries():
    materialize.clear_registry()
    missplane.clear_registry()
    yield
    materialize.clear_registry()
    missplane.clear_registry()


def programs():
    return get_workload(SCALE, SEED, cache_dir=None, slice_refs=SLICE_REFS).programs


def run_plain(params):
    return simulate(params, programs(), slice_refs=SLICE_REFS)


def oracle_record(label, params):
    """The record of a full simulation over live synthesis."""
    result = simulate(params, build_workload(SCALE, seed=SEED), slice_refs=SLICE_REFS)
    return RunRecord.from_result(label, params.transfer_unit_bytes, result)


def record_plane(params):
    """Phase 1: a full run that also records the geometry's miss plane."""
    recorder = PlaneRecorder(plane_key(params, SCALE, SEED, SLICE_REFS))
    result = simulate(
        params, programs(), slice_refs=SLICE_REFS, record_plane=recorder
    )
    return result, recorder.finalize()


def config(cache_dir, rates=(10**9,), sizes=(128, 1024)):
    return ExperimentConfig(
        scale=SCALE,
        slice_refs=SLICE_REFS,
        issue_rates=rates,
        sizes=sizes,
        seed=SEED,
        cache_dir=cache_dir,
    )


# ----------------------------------------------------------------------
# Keying and eligibility
# ----------------------------------------------------------------------


def test_plane_key_ignores_timing_parameters():
    """Cells that differ only in issue rate or Rambus timing share one
    plane -- that sharing is the whole speedup."""
    base = baseline_machine(10**9, 512)
    keys = {plane_key(base, SCALE, SEED, SLICE_REFS)}
    for rate in RATES:
        keys.add(plane_key(replace(base, issue_rate_hz=rate), SCALE, SEED, SLICE_REFS))
    slow_dram = replace(base, dram=RambusParams(access_ps=90_000, ps_per_beat=2_500))
    keys.add(plane_key(slow_dram, SCALE, SEED, SLICE_REFS))
    assert len(keys) == 1


def test_plane_key_tracks_structural_parameters():
    base = baseline_machine(10**9, 512)
    key = plane_key(base, SCALE, SEED, SLICE_REFS)
    assert plane_key(baseline_machine(10**9, 128), SCALE, SEED, SLICE_REFS) != key
    assert plane_key(rampage_machine(10**9, 1024), SCALE, SEED, SLICE_REFS) != key
    assert plane_key(base, SCALE, SEED + 1, SLICE_REFS) != key
    assert plane_key(base, SCALE * 2, SEED, SLICE_REFS) != key
    assert plane_key(base, SCALE, SEED, SLICE_REFS // 2) != key


def test_structural_params_pins_only_timing_fields():
    params = baseline_machine(4 * 10**9, 512, dram=RambusParams(access_ps=1))
    pinned = structural_params(params)
    assert pinned.issue_rate_hz == 10**9
    assert pinned.dram == RambusParams()
    assert replace(pinned, issue_rate_hz=params.issue_rate_hz, dram=params.dram) == params


def test_eligibility():
    assert plane_eligible(baseline_machine(10**9, 512))
    assert plane_eligible(rampage_machine(10**9, 1024))
    assert plane_eligible(twoway_machine(10**9, 512))  # 2-way L2, DM L1s
    # Preempting machines are eligible since rampage-plane/2 (the
    # decision-op tape); only associative L1s, which run the access()
    # oracle, are refused.
    assert plane_eligible(rampage_machine(10**9, 1024, switch_on_miss=True))
    assert not plane_eligible(baseline_machine(10**9, 512, l1=aggressive_l1()))


# ----------------------------------------------------------------------
# Replay equivalence: the acceptance criterion
# ----------------------------------------------------------------------


def machines():
    return [
        ("baseline", lambda rate: baseline_machine(rate, 512)),
        ("twoway", lambda rate: twoway_machine(rate, 512)),
        ("rampage", lambda rate: rampage_machine(rate, 1024)),
    ]


def recording_machines():
    """Every plane-eligible machine shape, preempting ones included."""
    return machines() + [
        (
            "rampage_som",
            lambda rate: rampage_machine(rate, 1024, switch_on_miss=True),
        ),
        ("vl1", lambda rate: virtual_l1_machine(rate, 1024)),
        (
            "vl1_som",
            lambda rate: virtual_l1_machine(rate, 1024, switch_on_miss=True),
        ),
    ]


@pytest.mark.parametrize(
    "label,build",
    recording_machines(),
    ids=[m[0] for m in recording_machines()],
)
def test_recording_run_is_byte_identical_to_plain_run(label, build):
    params = build(10**9)
    plain = run_plain(params)
    recorded, _ = record_plane(params)
    assert recorded.stats.as_dict() == plain.stats.as_dict()
    assert recorded.time_ps == plain.time_ps


@pytest.mark.parametrize("label,build", machines(), ids=[m[0] for m in machines()])
def test_replays_match_full_simulation_across_rates(label, build):
    """One plane recorded at one rate serves every rate in the sweep:
    the timing-decoupled replay reproduces each rate's full simulation
    exactly."""
    _, plane = record_plane(build(10**9))
    cells = [build(rate) for rate in RATES]
    for cell, decoupled in zip(cells, replay_group(cells, plane)):
        assert decoupled.stats.as_dict() == run_plain(cell).stats.as_dict()


def test_decoupled_replay_reprices_dram_timing():
    """The tape is re-priced under the cell's own Rambus parameters,
    not the recording's."""
    _, plane = record_plane(baseline_machine(10**9, 512))
    slow = baseline_machine(
        10**9, 512, dram=RambusParams(access_ps=90_000, ps_per_beat=2_500)
    )
    expected = run_plain(slow).stats.as_dict()
    assert replay_group([slow], plane)[0].stats.as_dict() == expected


def test_decoupled_replay_rejects_ineligible_machines():
    _, plane = record_plane(rampage_machine(10**9, 1024))
    with pytest.raises(PlaneReplayError, match="not plane-eligible"):
        replay_group([rampage_machine(10**9, 1024, l1=aggressive_l1())], plane)


# ----------------------------------------------------------------------
# Disk artifacts: round-trip, integrity, quarantine
# ----------------------------------------------------------------------


def test_plane_round_trips_through_disk(tmp_path):
    params = baseline_machine(10**9, 512)
    _, plane = record_plane(params)
    path = write_plane(artifact_dir(tmp_path, plane.key), plane)
    assert path.parent == tmp_path / PLANE_DIRNAME
    attached = load_plane(path)
    assert attached.key == plane.key
    assert attached.cycle_ps == plane.cycle_ps
    assert attached.stats == plane.stats
    assert attached.dops.tolist() == plane.dops.tolist()
    cells = [baseline_machine(rate, 512) for rate in RATES]
    for a, b in zip(replay_group(cells, attached), replay_group(cells, plane)):
        assert a.stats.as_dict() == b.stats.as_dict()


def test_committed_plane_holds_only_the_decision_op_tape(tmp_path):
    """A plane is its decision-op tape and a manifest -- nothing the
    decoupled replay does not read."""
    _, plane = record_plane(rampage_machine(10**9, 1024, switch_on_miss=True))
    committed = commit_plane(plane, cache_dir=tmp_path)
    names = sorted(path.name for path in Path(committed.path).iterdir())
    assert names == ["dops.npy", MANIFEST_NAME]


@pytest.mark.parametrize(
    "damage",
    [
        lambda path: (path / "dops.npy").write_bytes(b"torn"),
        lambda path: (path / MANIFEST_NAME).write_text("{ torn", "utf-8"),
        lambda path: (path / "dops.npy").unlink(),
    ],
    ids=["truncated-tape", "torn-manifest", "missing-tape"],
)
def test_corrupt_artifact_is_quarantined_miss(tmp_path, damage):
    params = baseline_machine(10**9, 512)
    _, plane = record_plane(params)
    path = write_plane(artifact_dir(tmp_path, plane.key), plane)
    damage(path)
    with pytest.raises(CacheIntegrityError):
        load_plane(path)
    events = EventLog()
    assert get_plane(plane.key, cache_dir=tmp_path, events=events) is None
    quarantined = events.of("plane_quarantined")
    assert len(quarantined) == 1
    assert missplane.QUARANTINE_SUFFIX in quarantined[0]["path"]
    assert quarantined[0]["reason"]
    assert Path(quarantined[0]["path"]).exists()
    assert not path.exists()


def test_tampered_timing_checksum_is_rejected(tmp_path):
    _, plane = record_plane(baseline_machine(10**9, 512))
    path = write_plane(artifact_dir(tmp_path, plane.key), plane)
    manifest = json.loads((path / MANIFEST_NAME).read_text("utf-8"))
    manifest["timing"]["stats"]["l2_misses"] += 1
    (path / MANIFEST_NAME).write_text(json.dumps(manifest), "utf-8")
    with pytest.raises(CacheIntegrityError, match="timing"):
        load_plane(path)


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------


def test_runner_two_phase_cache_bytes_identical_to_single_phase(tmp_path):
    """The acceptance criterion end to end: a two-phase sweep leaves
    cache records byte-identical to single-phase ones -- full simulation
    over live synthesis -- for conventional and non-switching RAMpage
    grids, across every rate."""
    two = Runner(config(tmp_path, rates=RATES))
    files = {}
    for label in ("baseline", "rampage"):
        two.grid(label)
        files.update({path.stem: path for path in iter_cache_files(tmp_path)})
        for params, key in grid_plan(label, two.config):
            blob = files[key].read_text("utf-8")
            assert blob == encode_cache_entry(oracle_record(label, params))
    assert len(files) == 2 * len(RATES) * 2


def test_runner_records_once_then_replays_per_geometry(tmp_path):
    runner = Runner(config(tmp_path, rates=RATES, sizes=(1024,)))
    runner.grid("rampage")
    modes = [e["mode"] for e in runner.events.of("cell_completed")]
    assert modes.count("recorded") == 1
    assert modes.count("replayed") == len(RATES) - 1
    planes = [p for p in (tmp_path / PLANE_DIRNAME).iterdir() if p.is_dir()]
    assert len(planes) == 1


def test_switch_on_miss_cells_record_a_preempting_plane(tmp_path):
    runner = Runner(config(tmp_path, rates=RATES, sizes=(1024,)))
    runner.grid("rampage_som")
    modes = [e["mode"] for e in runner.events.of("cell_completed")]
    assert modes.count("recorded") == 1
    assert modes.count("replayed") == len(RATES) - 1
    planes = [p for p in (tmp_path / PLANE_DIRNAME).iterdir() if p.is_dir()]
    assert len(planes) == 1
    # The preempting plane carries a non-empty decision-op tape.
    plane = load_plane(planes[0])
    assert len(plane.dops) > 0


def test_runner_survives_invariant_tripping_plane(tmp_path):
    """A plane whose snapshot breaks a decoupling invariant is discarded
    (quarantine event) and the cell re-records -- same record, no crash."""
    params = baseline_machine(10**9, 512)
    pkey = plane_key(params, SCALE, SEED, SLICE_REFS)
    _, plane = record_plane(params)
    poisoned = dict(plane.stats)
    poisoned["dram_accesses"] += 1  # one more than the tape's SYNC rows
    plane.stats = poisoned
    commit_plane(plane, cache_dir=tmp_path)

    runner = Runner(config(tmp_path, sizes=(512,)))
    expected = oracle_record("baseline", params)
    record = runner.record("baseline", params)
    assert record == expected
    quarantined = runner.events.of("plane_quarantined")
    assert len(quarantined) == 1
    assert quarantined[0]["key"] == pkey
    assert "invariant" in quarantined[0]["reason"]
    # The cell re-recorded a fresh, valid plane for its siblings.
    assert [e["mode"] for e in runner.events.of("cell_completed")] == ["recorded"]
    fresh = get_plane(pkey, cache_dir=tmp_path)
    assert fresh is not None
    assert replay_group([params], fresh)[0].stats.as_dict() == expected.stats


def test_runner_without_cache_dir_still_two_phases_in_memory():
    runner = Runner(config(None, rates=RATES, sizes=(1024,)))
    runner.grid("rampage")
    modes = [e["mode"] for e in runner.events.of("cell_completed")]
    assert modes.count("recorded") == 1
    assert modes.count("replayed") == len(RATES) - 1


# ----------------------------------------------------------------------
# Registry bounds (filter: LRU by bytes; materialize: FIFO by count)
# ----------------------------------------------------------------------


def test_filter_registry_evicts_least_recently_used_by_bytes():
    _, plane = record_plane(baseline_machine(10**9, 512))
    per_plane = missplane.plane_nbytes(plane)
    assert per_plane > 0
    registry = missplane.PlaneRegistry(max_bytes=3 * per_plane)
    for index in range(3):
        registry.remember((f"key-{index}", None), plane)
    assert registry.total_bytes == 3 * per_plane
    # Touch key-0 so key-1 becomes the LRU entry, then overflow.
    assert registry.get(("key-0", None)) is plane
    registry.remember(("key-3", None), plane)
    assert len(registry) == 3
    assert ("key-1", None) not in registry
    assert ("key-0", None) in registry
    assert registry.evictions == 1
    stats = registry.stats()
    assert stats["planes"] == 3
    assert stats["bytes"] == registry.total_bytes <= registry.max_bytes


def test_filter_registry_rewrite_does_not_evict():
    _, plane = record_plane(baseline_machine(10**9, 512))
    per_plane = missplane.plane_nbytes(plane)
    registry = missplane.PlaneRegistry(max_bytes=3 * per_plane)
    for index in range(3):
        registry.remember((f"key-{index}", None), plane)
    registry.remember(("key-0", None), plane)  # refresh, registry full
    assert len(registry) == 3
    assert registry.total_bytes == 3 * per_plane
    assert registry.evictions == 0
    assert ("key-1", None) in registry


def test_filter_registry_keeps_an_over_budget_plane_usable():
    # A single plane bigger than the whole budget must still be served
    # (its group is being replayed right now); it is evicted only when
    # the next plane arrives.
    _, plane = record_plane(baseline_machine(10**9, 512))
    per_plane = missplane.plane_nbytes(plane)
    registry = missplane.PlaneRegistry(max_bytes=max(1, per_plane // 2))
    registry.remember(("big", None), plane)
    assert registry.get(("big", None)) is plane
    registry.remember(("next", None), plane)
    assert ("big", None) not in registry
    assert registry.get(("next", None)) is plane


def test_materialize_registry_is_bounded_fifo():
    sentinel = object()
    for index in range(materialize._REGISTRY_MAX + 3):
        materialize._remember((f"key-{index}",), sentinel)
    assert len(materialize._REGISTRY) == materialize._REGISTRY_MAX
    assert ("key-0",) not in materialize._REGISTRY


def test_materialize_registry_rewrite_does_not_evict():
    sentinel = object()
    for index in range(materialize._REGISTRY_MAX):
        materialize._remember((f"key-{index}",), sentinel)
    materialize._remember(("key-0",), sentinel)
    assert len(materialize._REGISTRY) == materialize._REGISTRY_MAX
    assert ("key-1",) in materialize._REGISTRY
