"""Tests for the lease-based multi-worker sweep fabric.

The contracts: work groups derive deterministically from journalled
specs (so every process plans the same leases), the ``flock``-arbitrated
claim protocol never grants one group to two live workers, leases left
by a killed worker are reclaimable after expiry, and -- the headline --
two worker processes draining one journal produce run records
**byte-identical** to a serial :class:`Runner` over the same grid,
including across a ``SIGKILL`` mid-lease.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.bench import SWEEP_LABELS, SWEEP_RATES, sweep_config
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Runner, iter_cache_files
from repro.service.fabric import plan_groups, run_worker
from repro.service.jobs import (
    COMPLETED,
    JOURNAL_SCHEMA,
    JobSpec,
    JobStore,
    plan_cells,
)
from repro.trace import materialize

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fabric needs a Unix process model"
)


@pytest.fixture(autouse=True)
def fresh_trace_registry():
    materialize.clear_registry()
    yield
    materialize.clear_registry()


def base_config(cache_dir):
    return ExperimentConfig(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(10**9,),
        sizes=(128, 1024),
        seed=0,
        cache_dir=cache_dir,
    )


def spec_for(config, labels):
    return JobSpec(
        labels=tuple(labels),
        scale=config.scale,
        slice_refs=config.slice_refs,
        issue_rates=config.issue_rates,
        sizes=config.sizes,
        seed=config.seed,
    )


def journal_entries(store):
    entries = []
    for line in store.path.read_text("utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # sealed torn fragment: replay skips it too
    return entries


def worker_command(state_dir, cache_dir, worker_id, job_id, **flags):
    command = [
        sys.executable,
        "-c",
        "from repro.service.fabric import main; raise SystemExit(main())",
        "--state-dir",
        str(state_dir),
        "--cache-dir",
        str(cache_dir),
        "--worker-id",
        worker_id,
        "--job",
        job_id,
    ]
    for flag, value in flags.items():
        command += [f"--{flag.replace('_', '-')}", str(value)]
    return command


def worker_env():
    src_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def cache_bytes(cache_dir):
    return {path.name: path.read_bytes() for path in iter_cache_files(cache_dir)}


# ----------------------------------------------------------------------
# Work-group planning
# ----------------------------------------------------------------------


def test_plan_groups_is_deterministic_and_covers_every_cell(tmp_path):
    config = sweep_config(tmp_path / "cache")
    spec = spec_for(config, SWEEP_LABELS)
    groups = plan_groups(spec, config)
    again = plan_groups(spec, config)
    assert [group.gid for group in groups] == [group.gid for group in again]
    assert [group.keys for group in groups] == [group.keys for group in again]
    covered = [key for group in groups for key in group.keys]
    assert sorted(covered) == sorted(cell.key for cell in plan_cells(spec, config))
    assert len(covered) == len(set(covered)) == 9
    # The three sibling rates of each plane-eligible geometry share one
    # group, so whole-group re-pricing survives the process boundary.
    assert len(groups) < 9
    assert max(len(group.cells) for group in groups) == len(SWEEP_RATES)


def test_plan_groups_without_cache_dir_is_per_cell(tmp_path):
    config = base_config(None)
    spec = spec_for(config, ("baseline",))
    groups = plan_groups(spec, config)
    # No cache to ship planes through: every cell is its own group.
    assert all(len(group.cells) == 1 for group in groups)


# ----------------------------------------------------------------------
# Lease protocol
# ----------------------------------------------------------------------


def test_claim_is_exclusive_release_reopens(tmp_path):
    config = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state")
    spec = spec_for(config, ("baseline",))
    job, _ = store.submit(spec, plan_cells(spec, config))
    assert store.claim_group(job.id, "g1", "alice", ttl=60)
    assert store.claim_group(job.id, "g1", "alice", ttl=60)  # renewal
    assert not store.claim_group(job.id, "g1", "bob", ttl=60)
    assert store.claim_group(job.id, "g2", "bob", ttl=60)  # other group
    store.release_group(job.id, "g1", "bob")  # not the holder: no-op
    assert not store.claim_group(job.id, "g1", "bob", ttl=60)
    store.release_group(job.id, "g1", "alice")
    assert store.claim_group(job.id, "g1", "bob", ttl=60)
    ops = [entry["op"] for entry in journal_entries(store)]
    assert ops == ["submit", "lease", "lease", "lease", "release", "lease"]
    assert all(
        entry["schema"] == JOURNAL_SCHEMA for entry in journal_entries(store)
    )


def test_expired_lease_is_reclaimable(tmp_path):
    now = [1000.0]
    config = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state", clock=lambda: now[0])
    spec = spec_for(config, ("baseline",))
    job, _ = store.submit(spec, plan_cells(spec, config))
    assert store.claim_group(job.id, "g1", "alice", ttl=5)
    assert not store.claim_group(job.id, "g1", "bob", ttl=5)
    now[0] += 6  # alice died; her lease lapses
    assert store.claim_group(job.id, "g1", "bob", ttl=5)
    assert store.get(job.id).leases["g1"]["worker"] == "bob"


def test_recovery_drops_expired_leases_keeps_live_ones(tmp_path):
    now = [1000.0]
    config = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state", clock=lambda: now[0])
    spec = spec_for(config, ("baseline",))
    job, _ = store.submit(spec, plan_cells(spec, config))
    store.claim_group(job.id, "g1", "alice", ttl=5)
    store.claim_group(job.id, "g2", "carol", ttl=500)

    now[0] += 6
    second = JobStore(tmp_path / "state", clock=lambda: now[0])
    second.recover()
    recovered = second.get(job.id)
    assert "g1" not in recovered.leases  # expired: reclaimable
    assert recovered.leases["g2"]["worker"] == "carol"  # still live


def test_v1_journal_without_lease_ops_still_replays(tmp_path):
    config = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state")
    spec = spec_for(config, ("baseline",))
    cells = plan_cells(spec, config)
    job, _ = store.submit(spec, cells)
    # Rewrite the journal as a v1 journal (schema tag, no lease ops).
    lines = []
    for entry in journal_entries(store):
        entry["schema"] = "rampage-job/1"
        lines.append(json.dumps(entry))
    store.path.write_text("\n".join(lines) + "\n", "utf-8")
    second = JobStore(tmp_path / "state")
    resumed = second.recover()
    assert [item.id for item in resumed] == [job.id]
    assert second.get(job.id).leases == {}


def test_tail_folds_in_a_sibling_stores_appends(tmp_path):
    config = base_config(tmp_path / "cache")
    a = JobStore(tmp_path / "state")
    b = JobStore(tmp_path / "state")
    b.recover()
    spec = spec_for(config, ("baseline",))
    cells = plan_cells(spec, config)
    job, _ = a.submit(spec, cells)
    assert b.get(job.id) is None
    applied = b.tail()
    assert [entry["op"] for entry in applied] == ["submit"]
    assert b.get(job.id).id == job.id
    # Progress journalled by b is visible to a, and vice versa.
    b.mark_running(job.id)
    b.record_cell(job.id, cells[0].key, "full", label="baseline")
    a.tail()
    assert a.get(job.id).done == 1
    assert a.get(job.id).status == "running"
    # A store's own appends never come back out of its tail().
    assert a.tail() == []
    assert b.tail() == []


def test_torn_tail_is_sealed_before_new_appends(tmp_path):
    config = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state")
    spec = spec_for(config, ("baseline",))
    job, _ = store.submit(spec, plan_cells(spec, config))
    with open(store.path, "a", encoding="utf-8") as handle:
        handle.write('{"op": "cell", "id": "' + job.id)  # kill -9 mid-append

    second = JobStore(tmp_path / "state")
    second.recover()
    second.mark_running(job.id)
    # The torn fragment became one complete bad line; the new op parses.
    ops = [entry["op"] for entry in journal_entries(second)]
    assert ops == ["submit", "start"]
    third = JobStore(tmp_path / "state")
    third.recover()
    assert third.get(job.id).status == "queued"  # running at crash
    assert third.get(job.id).done == 0


# ----------------------------------------------------------------------
# In-process worker execution
# ----------------------------------------------------------------------


def test_run_worker_drains_a_job_to_completion(tmp_path):
    config = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state")
    spec = spec_for(config, ("baseline",))
    job, _ = store.submit(spec, plan_cells(spec, config))
    stats = run_worker(
        tmp_path / "state", config, "solo", job_filter={job.id}
    )
    assert stats["cells"] == 2
    store.tail()
    final = store.get(job.id)
    assert final.status == COMPLETED
    assert final.done == final.total == 2
    assert final.leases == {}

    # Byte-identity against a serial runner on a fresh cache.
    serial = Runner(base_config(tmp_path / "serial"))
    serial.prefetch(["baseline"])
    assert cache_bytes(tmp_path / "cache") == cache_bytes(tmp_path / "serial")


# ----------------------------------------------------------------------
# Multi-process byte-identity (the acceptance bar)
# ----------------------------------------------------------------------


def test_two_workers_drain_bench_grid_byte_identical_to_serial(tmp_path):
    config = sweep_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state")
    spec = spec_for(config, SWEEP_LABELS)
    job, _ = store.submit(spec, plan_cells(spec, config))
    env = worker_env()
    procs = [
        subprocess.Popen(
            worker_command(
                tmp_path / "state", tmp_path / "cache", f"w{index}", job.id
            ),
            env=env,
            stdout=subprocess.PIPE,
        )
        for index in range(2)
    ]
    stats = []
    for proc in procs:
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0
        stats.append(json.loads(out))
    store.tail()
    final = store.get(job.id)
    assert final.status == COMPLETED
    assert final.done == final.total == 9

    serial = Runner(sweep_config(tmp_path / "serial"))
    serial.prefetch(list(SWEEP_LABELS))
    fabric_files = cache_bytes(tmp_path / "cache")
    assert len(fabric_files) == 9
    assert fabric_files == cache_bytes(tmp_path / "serial")

    # No lease was ever granted while another worker held it live: every
    # lease either follows the holder's release or replaces the same
    # holder's earlier claim (renewal).
    held: dict[str, str] = {}
    conflicts = []
    for entry in journal_entries(store):
        if entry["op"] == "lease":
            holder = held.get(entry["group"])
            if holder is not None and holder != entry["worker"]:
                conflicts.append(entry)
            held[entry["group"]] = entry["worker"]
        elif entry["op"] == "release":
            held.pop(entry["group"], None)
    assert conflicts == []


def test_sigkill_mid_lease_is_reclaimed_and_byte_identical(tmp_path):
    """Worker A claims a group and is SIGKILLed mid-lease; worker B
    reclaims after expiry and finishes the job to the same bytes."""
    config = base_config(tmp_path / "cache")
    store = JobStore(tmp_path / "state")
    spec = spec_for(config, ("baseline", "rampage"))
    job, _ = store.submit(spec, plan_cells(spec, config))
    env = worker_env()

    victim = subprocess.Popen(
        worker_command(
            tmp_path / "state",
            tmp_path / "cache",
            "victim",
            job.id,
            ttl=2.0,
            hold_after_claim=120.0,  # park inside the lease
        ),
        env=env,
        stdout=subprocess.PIPE,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        store.tail()
        current = store.get(job.id)
        if current is not None and current.leases:
            break
        time.sleep(0.05)
    assert store.get(job.id).leases, "victim never claimed a group"
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)

    survivor = subprocess.Popen(
        worker_command(
            tmp_path / "state",
            tmp_path / "cache",
            "survivor",
            job.id,
            ttl=2.0,
            poll=0.05,
        ),
        env=env,
        stdout=subprocess.PIPE,
    )
    out, _ = survivor.communicate(timeout=600)
    assert survivor.returncode == 0
    store.tail()
    final = store.get(job.id)
    assert final.status == COMPLETED
    assert final.done == final.total == 4

    serial = Runner(base_config(tmp_path / "serial"))
    serial.prefetch(["baseline", "rampage"])
    assert cache_bytes(tmp_path / "cache") == cache_bytes(tmp_path / "serial")
    # The survivor's reclaim happened strictly after the victim's lease
    # expired -- the journal shows no overlapping live leases.
    leases = [
        entry
        for entry in journal_entries(store)
        if entry["op"] == "lease" and entry["worker"] == "survivor"
    ]
    victim_leases = [
        entry
        for entry in journal_entries(store)
        if entry["op"] == "lease" and entry["worker"] == "victim"
    ]
    for mine in leases:
        for theirs in victim_leases:
            if mine["group"] == theirs["group"]:
                assert mine["ts"] >= theirs["expires_ts"]
