"""Tests for the materialized workload plane.

The contract: replaying a materialized workload is *byte-identical* to
live synthesis -- same reference content, same simulated records and
cache bytes -- while synthesis itself runs exactly once per
``(scale, seed)`` per process, artifacts survive on disk with the
run-record cache's integrity discipline, and corrupt artifacts are
quarantined and regenerated rather than crashing or poisoning results.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.runtime import RunRecord
from repro.core.errors import CacheIntegrityError
from repro.core.observe import EventLog
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    Runner,
    encode_cache_entry,
    grid_plan,
    iter_cache_files,
)
from repro.systems.simulator import Simulator, simulate
from repro.trace import materialize
from repro.trace.benchmarks import table2_catalog
from repro.trace.interleave import InterleavedWorkload
from repro.trace.materialize import (
    ADDRS_NAME,
    KINDS_NAME,
    MANIFEST_NAME,
    MaterializedProgram,
    get_workload,
    load_artifact,
    workload_key,
)
from repro.trace.synthetic import SyntheticProgram, build_workload

SCALE = 0.0001
SEED = 0
SLICE_REFS = 4_000


@pytest.fixture(autouse=True)
def fresh_registry():
    materialize.clear_registry()
    yield
    materialize.clear_registry()


def materialized_twin(program: SyntheticProgram, slice_refs: int) -> MaterializedProgram:
    """Materialize one live program in memory (no disk, no registry)."""
    kinds = np.concatenate([c.kinds for c in program.chunks()])
    addrs = np.concatenate([c.addrs for c in program.chunks()])
    return MaterializedProgram(
        spec=program.spec,
        pid=program.pid,
        seed=program.seed,
        kinds=kinds,
        addrs=addrs,
        slice_refs=slice_refs,
        chunk_refs=program.chunk_refs,
    )


# ----------------------------------------------------------------------
# Replay equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("chunk_refs", [65_536, 8_192, 5_000, 256])
def test_replay_matches_live_synthesis_chunk_for_chunk(chunk_refs):
    """With the generator's synthesis block as the slice, replay cuts
    the same chunks as live synthesis -- same content AND the same
    boundaries, including chunk_refs values that do not divide the
    block."""
    spec = table2_catalog()["sed"]
    live = SyntheticProgram(spec, total_refs=20_000, pid=3, seed=7, chunk_refs=chunk_refs)
    replay = materialized_twin(live, slice_refs=SyntheticProgram.GEN_BLOCK)
    live_chunks = list(live.chunks())
    replay_chunks = list(replay.chunks())
    assert [len(c) for c in replay_chunks] == [len(c) for c in live_chunks]
    for a, b in zip(live_chunks, replay_chunks):
        assert b.pid == a.pid
        assert np.array_equal(a.kinds, b.kinds)
        assert np.array_equal(a.addrs, b.addrs)


def test_replay_is_restartable_and_shares_chunk_objects():
    spec = table2_catalog()["sed"]
    live = SyntheticProgram(spec, total_refs=5_000, pid=0, seed=1)
    replay = materialized_twin(live, slice_refs=1_000)
    first = list(replay.chunks())
    second = list(replay.chunks())
    assert [id(c) for c in first] == [id(c) for c in second]
    # Derived caches accumulate on the shared objects across passes.
    first[0].runs_for(12, 5, 20)
    assert second[0]._runs is not None


def test_workload_replay_matches_build_workload():
    live = build_workload(SCALE, seed=SEED)
    plane = get_workload(SCALE, SEED, cache_dir=None, slice_refs=SLICE_REFS)
    assert [p.pid for p in plane.programs] == [p.pid for p in live]
    assert [p.spec.name for p in plane.programs] == [p.spec.name for p in live]
    for a, b in zip(live, plane.programs):
        assert np.array_equal(
            np.concatenate([c.kinds for c in a.chunks()]),
            np.concatenate([c.kinds for c in b.chunks()]),
        )
        assert np.array_equal(
            np.concatenate([c.addrs for c in a.chunks()]),
            np.concatenate([c.addrs for c in b.chunks()]),
        )


@pytest.mark.parametrize("slice_refs", [500, 777, 4_000, 100_000])
def test_slice_aligned_replay_has_identical_content(slice_refs):
    """Slice-aligned chunking reorders boundaries, never content."""
    spec = table2_catalog()["sed"]
    live = SyntheticProgram(spec, total_refs=20_000, pid=3, seed=7)
    replay = materialized_twin(live, slice_refs=slice_refs)
    for field in ("kinds", "addrs"):
        assert np.array_equal(
            np.concatenate([getattr(c, field) for c in live.chunks()]),
            np.concatenate([getattr(c, field) for c in replay.chunks()]),
        )
    cap = live.chunk_refs
    assert all(len(c) <= min(cap, slice_refs) for c in replay.chunks())


def test_slice_aligned_chunks_are_never_split_by_the_interleaver():
    """The point of alignment: the round-robin scheduler hands every
    shared chunk out whole (same object), so per-geometry run caches
    survive intact across the cells of a sweep."""
    specs = list(table2_catalog().values())
    programs = [
        materialized_twin(
            SyntheticProgram(specs[i], total_refs=10_000, pid=i, seed=i),
            slice_refs=3_000,
        )
        for i in range(2)
    ]
    shared = {id(c) for p in programs for c in p.chunks()}
    workload = InterleavedWorkload(programs, slice_refs=3_000)
    handed_out = list(workload.chunks())
    assert all(id(c) in shared for c in handed_out)
    assert sum(len(c) for c in handed_out) == 20_000


# ----------------------------------------------------------------------
# Scheduling equivalence: new_slice boundaries and preemption tails
# ----------------------------------------------------------------------


def scheduling_programs(builder):
    specs = list(table2_catalog().values())
    return [
        builder(
            SyntheticProgram(specs[i], total_refs=2_000, pid=i, seed=i, chunk_refs=256)
        )
        for i in range(2)
    ]


class PreemptingSystem:
    """Consumes references, preempting at scripted global indices."""

    def __init__(self, preempt_at=()):
        self.params = SimpleNamespace(scheduled_switches=True)
        self._preempt_at = sorted(preempt_at)
        self.total = 0
        self.consumed = []
        self.slice_starts = []
        self.switch_pids = []

    def run_chunk(self, chunk):
        if chunk.new_slice:
            self.slice_starts.append(self.total)
        kinds = chunk.kinds.tolist()
        addrs = chunk.addrs.tolist()
        for idx in range(len(kinds)):
            if self._preempt_at and self.total == self._preempt_at[0]:
                self._preempt_at.pop(0)
                return idx
            self.total += 1
            self.consumed.append((chunk.pid, kinds[idx], addrs[idx]))
        return len(kinds)

    def context_switch(self, pid):
        self.switch_pids.append(pid)

    def finalize(self):
        return None


@pytest.mark.parametrize("preempt_at", [(), (100, 300, 777)])
def test_interleaved_replay_identical_through_preemption(preempt_at):
    """The driver-visible stream -- consumption order, the references at
    which new_slice flags open a slice, switch points, push_back/tail
    replays -- is identical whether the programs are live generators or
    materialized replays (whose chunks are cut at other boundaries)."""
    outcomes = []
    for builder in (lambda p: p, lambda p: materialized_twin(p, slice_refs=500)):
        system = PreemptingSystem(preempt_at)
        workload = InterleavedWorkload(scheduling_programs(builder), slice_refs=500)
        sim = Simulator(system, workload)
        sim.run()
        outcomes.append(
            (
                system.consumed,
                system.slice_starts,
                system.switch_pids,
                sim.preemptions,
            )
        )
    assert outcomes[0] == outcomes[1]


def test_preempted_tail_of_shared_chunk_replays_cleanly():
    """Preemption pushes a tail of a *shared* chunk back; replaying the
    workload afterwards must still see every reference (push_back state
    is per-stream, never leaks into the shared chunk list)."""
    programs = scheduling_programs(lambda p: materialized_twin(p, slice_refs=500))
    system = PreemptingSystem((50,))
    Simulator(system, InterleavedWorkload(programs, slice_refs=500)).run()
    expected = {
        p.pid: list(
            zip(
                np.concatenate([c.kinds for c in p.chunks()]).tolist(),
                np.concatenate([c.addrs for c in p.chunks()]).tolist(),
            )
        )
        for p in programs
    }
    for pid, refs in expected.items():
        assert [(k, a) for p, k, a in system.consumed if p == pid] == refs
    # A second simulation over the same shared programs sees it all again.
    second = PreemptingSystem()
    Simulator(second, InterleavedWorkload(programs, slice_refs=500)).run()
    for pid, refs in expected.items():
        assert [(k, a) for p, k, a in second.consumed if p == pid] == refs


# ----------------------------------------------------------------------
# Registry and disk artifacts
# ----------------------------------------------------------------------


def test_registry_shares_one_materialization():
    before = materialize.synthesis_count
    first = get_workload(SCALE, SEED, cache_dir=None, slice_refs=SLICE_REFS)
    second = get_workload(SCALE, SEED, cache_dir=None, slice_refs=SLICE_REFS)
    assert second is first
    assert materialize.synthesis_count == before + 1


def test_artifact_round_trip_through_disk(tmp_path):
    before = materialize.synthesis_count
    plane = get_workload(SCALE, SEED, cache_dir=tmp_path, slice_refs=SLICE_REFS)
    assert plane.synthesized
    assert plane.path is not None and plane.path.exists()
    assert materialize.synthesis_count == before + 1

    materialize.clear_registry()
    attached = get_workload(SCALE, SEED, cache_dir=tmp_path, slice_refs=SLICE_REFS)
    assert not attached.synthesized
    assert materialize.synthesis_count == before + 1  # attach, not resynthesize
    for a, b in zip(plane.programs, attached.programs):
        assert a.pid == b.pid
        assert np.array_equal(
            np.concatenate([c.addrs for c in a.chunks()]),
            np.concatenate([c.addrs for c in b.chunks()]),
        )


def test_attached_arrays_are_memmapped(tmp_path):
    get_workload(SCALE, SEED, cache_dir=tmp_path, slice_refs=SLICE_REFS)
    materialize.clear_registry()
    attached = get_workload(SCALE, SEED, cache_dir=tmp_path, slice_refs=SLICE_REFS)
    chunk = next(iter(attached.programs[0].chunks()))
    base = chunk.addrs
    while isinstance(getattr(base, "base", None), np.ndarray):
        base = base.base
    assert isinstance(base, np.memmap)


def test_manifest_contents(tmp_path):
    plane = get_workload(SCALE, SEED, cache_dir=tmp_path, slice_refs=SLICE_REFS)
    manifest = json.loads((plane.path / MANIFEST_NAME).read_text("utf-8"))
    assert manifest["schema"] == materialize.TRACE_SCHEMA
    assert manifest["workload_version"] == materialize.WORKLOAD_VERSION
    assert manifest["key"] == workload_key(SCALE, SEED)
    assert manifest["total_refs"] == plane.total_refs
    assert manifest["kinds"] == manifest["addrs"] == plane.total_refs
    assert manifest["checksums"].keys() == {KINDS_NAME, ADDRS_NAME}
    table = manifest["programs"]
    assert [entry["pid"] for entry in table] == [p.pid for p in plane.programs]
    assert table[0]["start"] == 0
    assert table[-1]["stop"] == plane.total_refs


# ----------------------------------------------------------------------
# Integrity: corrupt artifacts are quarantined and regenerated
# ----------------------------------------------------------------------


def damage_truncate_addrs(path: Path) -> None:
    target = path / ADDRS_NAME
    target.write_bytes(target.read_bytes()[:-64])


def damage_manifest_json(path: Path) -> None:
    (path / MANIFEST_NAME).write_text("{ torn", encoding="utf-8")


def damage_wrong_version(path: Path) -> None:
    manifest = json.loads((path / MANIFEST_NAME).read_text("utf-8"))
    manifest["workload_version"] = "wv0"
    (path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")


def damage_missing_kinds(path: Path) -> None:
    (path / KINDS_NAME).unlink()


def damage_manifest_not_utf8(path: Path) -> None:
    (path / MANIFEST_NAME).write_bytes(b"\xff\xfe torn")


@pytest.mark.parametrize(
    "damage",
    [
        damage_truncate_addrs,
        damage_manifest_json,
        damage_wrong_version,
        damage_missing_kinds,
        damage_manifest_not_utf8,
    ],
)
def test_corrupt_artifact_quarantined_and_regenerated(tmp_path, damage):
    plane = get_workload(SCALE, SEED, cache_dir=tmp_path, slice_refs=SLICE_REFS)
    artifact = plane.path
    damage(artifact)
    with pytest.raises(CacheIntegrityError):
        load_artifact(artifact, SLICE_REFS)

    materialize.clear_registry()
    events = EventLog()
    before = materialize.synthesis_count
    regenerated = get_workload(
        SCALE, SEED, cache_dir=tmp_path, events=events, slice_refs=SLICE_REFS
    )
    assert regenerated.synthesized
    assert materialize.synthesis_count == before + 1
    quarantined = [e for e in events.events if e["event"] == "trace_quarantined"]
    assert len(quarantined) == 1
    assert Path(quarantined[0]["path"]).name.endswith(materialize.QUARANTINE_SUFFIX)
    assert Path(quarantined[0]["path"]).exists()
    # The regenerated artifact is valid and replay-identical.
    replay = load_artifact(regenerated.path, SLICE_REFS)
    live = build_workload(SCALE, seed=SEED)
    for a, b in zip(live, replay):
        assert np.array_equal(
            np.concatenate([c.addrs for c in a.chunks()]),
            np.concatenate([c.addrs for c in b.chunks()]),
        )


def test_checksum_damage_detected(tmp_path):
    plane = get_workload(SCALE, SEED, cache_dir=tmp_path, slice_refs=SLICE_REFS)
    target = plane.path / KINDS_NAME
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF  # flip one payload bit, size unchanged
    target.write_bytes(bytes(blob))
    with pytest.raises(CacheIntegrityError, match="checksum"):
        load_artifact(plane.path, SLICE_REFS)


def test_load_rejects_foreign_program_table(tmp_path):
    plane = get_workload(SCALE, SEED, cache_dir=tmp_path, slice_refs=SLICE_REFS)
    manifest = json.loads((plane.path / MANIFEST_NAME).read_text("utf-8"))
    manifest["programs"][0]["name"] = "not-a-table2-program"
    (plane.path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CacheIntegrityError):
        load_artifact(plane.path, SLICE_REFS)


# ----------------------------------------------------------------------
# Runner integration: records and cache bytes are unchanged
# ----------------------------------------------------------------------


def runner_config(cache_dir):
    return ExperimentConfig(
        scale=SCALE,
        slice_refs=SLICE_REFS,
        issue_rates=(10**9,),
        sizes=(128, 1024),
        seed=0,
        cache_dir=cache_dir,
    )


def test_materialized_runner_cache_bytes_identical_to_legacy(tmp_path):
    """Every record the runner commits over the materialized trace is
    byte-identical to the legacy path: full simulation over live
    synthesis.  It runs the switch-on-miss grid: the two-phase tests
    compare the other grids' sweep records with live synthesis, and
    this grid's only with the materialized trace."""
    runner = Runner(runner_config(tmp_path))
    runner.grid("rampage_som")
    files = {path.stem: path for path in iter_cache_files(tmp_path)}
    plan = grid_plan("rampage_som", runner.config)
    assert len(files) == len(plan)
    for params, key in plan:
        oracle = RunRecord.from_result(
            "rampage_som",
            params.transfer_unit_bytes,
            simulate(params, build_workload(SCALE, seed=SEED), slice_refs=SLICE_REFS),
        )
        blob = files[key].read_text("utf-8")
        assert blob == encode_cache_entry(oracle)


def test_runner_synthesizes_once_across_grids(tmp_path):
    before = materialize.synthesis_count
    runner = Runner(runner_config(tmp_path))
    runner.grid("baseline")
    runner.grid("rampage")
    assert materialize.synthesis_count == before + 1
    events = [e["event"] for e in runner.events.events]
    assert "trace_materialized" in events
