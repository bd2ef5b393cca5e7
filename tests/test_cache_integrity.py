"""Tests for the crash-safe, integrity-checked run-record cache.

The contract: no on-disk state -- torn, truncated, tampered, stale or
plain garbage -- may ever crash a run.  Bad files are cache *misses*
that get quarantined to ``<key>.json.corrupt`` with a structured event,
and the cell is recomputed.  Commits are atomic, so two runners can
share one cache directory.
"""

import json
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from helpers import tree_state

from repro.analysis.runtime import RunRecord
from repro.core import observe
from repro.core.errors import CacheIntegrityError
from repro.experiments import runner as runner_mod
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    CACHE_SCHEMA,
    DECODE_MEMO_RECORDS,
    QUARANTINE_SUFFIX,
    SHARD_DIRNAME,
    Runner,
    decode_cache_entry,
    encode_cache_entry,
    iter_cache_files,
    iter_quarantined_files,
    record_checksum,
)
from repro.service.fabric import run_worker
from repro.service.jobs import JobSpec, JobStore, plan_cells
from repro.systems.factory import baseline_machine
from repro.trace import filter as missplane
from repro.trace import materialize
from repro.trace.filter import PLANE_DIRNAME
from repro.trace.materialize import TRACE_DIRNAME

PARAMS = baseline_machine(10**9, 1024)


def config(cache_dir):
    return ExperimentConfig(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(10**9,),
        sizes=(1024,),
        seed=0,
        cache_dir=cache_dir,
    )


def seeded_cache(tmp_path):
    """A cache dir holding one committed record; returns (dir, path, record)."""
    runner = Runner(config(tmp_path))
    record = runner.record("baseline", PARAMS)
    paths = list(iter_cache_files(tmp_path))
    assert len(paths) == 1
    return tmp_path, paths[0], record


def fresh_runner(cache_dir):
    return Runner(config(cache_dir))


# ----------------------------------------------------------------------
# Envelope encode/decode
# ----------------------------------------------------------------------


def test_envelope_round_trips(tmp_path):
    _, path, record = seeded_cache(tmp_path)
    envelope = json.loads(path.read_text("utf-8"))
    assert envelope["schema"] == CACHE_SCHEMA
    assert envelope["checksum"] == record_checksum(envelope["record"])
    assert decode_cache_entry(path.read_text("utf-8")) == record


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda env: "{ not json", "invalid JSON"),
        (lambda env: json.dumps([1, 2, 3]), "expected an envelope"),
        (
            lambda env: json.dumps({**env, "schema": "rampage-cache/0"}),
            "schema mismatch",
        ),
        (
            lambda env: json.dumps({**env, "workload_version": "wv0"}),
            "workload version mismatch",
        ),
        (
            lambda env: json.dumps({**env, "checksum": "0" * 64}),
            "checksum mismatch",
        ),
        (
            lambda env: json.dumps({k: v for k, v in env.items() if k != "record"}),
            "no record payload",
        ),
    ],
)
def test_decode_rejects_corruption(tmp_path, mutate, reason):
    _, path, _ = seeded_cache(tmp_path)
    envelope = json.loads(path.read_text("utf-8"))
    with pytest.raises(CacheIntegrityError, match=reason):
        decode_cache_entry(mutate(envelope))


def test_checksum_covers_the_payload(tmp_path):
    _, path, _ = seeded_cache(tmp_path)
    envelope = json.loads(path.read_text("utf-8"))
    envelope["record"]["seconds"] = envelope["record"]["seconds"] + 1.0
    with pytest.raises(CacheIntegrityError, match="checksum mismatch"):
        decode_cache_entry(json.dumps(envelope))


# ----------------------------------------------------------------------
# The decode memo: one validation per distinct text
# ----------------------------------------------------------------------

#: A record for decode tests that need no simulation.
SYNTHETIC = RunRecord(
    label="baseline",
    kind="conventional",
    issue_rate_hz=10**9,
    size_bytes=1024,
    switch_on_miss=False,
    seconds=0.5,
    time_ps=5 * 10**11,
    stats={"level_times": {"l1i": 3, "dram": 4}, "ifetches": 7},
)


def test_decoding_one_text_twice_parses_and_hashes_it_once(monkeypatch):
    """A text byte-equal to a validated one skips the JSON parse and the
    checksum; any other text, valid or not, is validated in full, and a
    failure is never memoized."""
    text = encode_cache_entry(SYNTHETIC)
    calls: Counter = Counter()

    def counting(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(
        runner_mod, "parse_envelope", counting("parse", runner_mod.parse_envelope)
    )
    monkeypatch.setattr(
        runner_mod, "record_checksum", counting("checksum", runner_mod.record_checksum)
    )
    decode_cache_entry.cache_clear()
    first = decode_cache_entry(text)
    assert decode_cache_entry(text) is first
    assert first == SYNTHETIC
    assert calls == {"parse": 1, "checksum": 1}

    respaced = json.dumps(json.loads(text), indent=1)
    assert decode_cache_entry(respaced) == SYNTHETIC
    assert calls == {"parse": 2, "checksum": 2}

    tampered = text.replace('"ifetches": 7', '"ifetches": 8')
    assert len(tampered) == len(text)
    for expected in (3, 4):
        with pytest.raises(CacheIntegrityError, match="checksum mismatch"):
            decode_cache_entry(tampered)
        assert calls == {"parse": expected, "checksum": expected}


def test_decode_memo_evicts_its_oldest_text_at_its_bound():
    texts = [
        encode_cache_entry(replace(SYNTHETIC, time_ps=index))
        for index in range(DECODE_MEMO_RECORDS + 1)
    ]
    decode_cache_entry.cache_clear()
    for text in texts:
        decode_cache_entry(text)
    info = decode_cache_entry.cache_info()
    assert info.maxsize == DECODE_MEMO_RECORDS
    assert info.currsize == DECODE_MEMO_RECORDS
    assert info.misses == len(texts)
    decode_cache_entry(texts[-1])
    assert decode_cache_entry.cache_info().hits == info.hits + 1
    decode_cache_entry(texts[0])
    assert decode_cache_entry.cache_info().misses == info.misses + 1


# ----------------------------------------------------------------------
# Corruption recovery: miss + quarantine, never a crash
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda path: path.write_text(path.read_text("utf-8")[: 40], "utf-8"),
        lambda path: path.write_text("not json at all", "utf-8"),
        lambda path: path.write_text("", "utf-8"),
        lambda path: path.write_text(
            json.dumps({"schema": "rampage-cache/999", "record": {}}), "utf-8"
        ),
        lambda path: path.write_bytes(b"\xff\xfe garbage"),
    ],
    ids=["truncated", "garbage", "empty", "wrong-version", "not-utf8"],
)
def test_corrupt_file_is_miss_quarantine_and_recompute(tmp_path, corrupt):
    cache_dir, path, original = seeded_cache(tmp_path)
    corrupt(path)  # simulates a kill -9 mid-write / stale or torn file

    runner = fresh_runner(cache_dir)
    record = runner.record("baseline", PARAMS)

    # The run survived and recomputed the exact same record.
    assert record == original
    # The bad bytes were moved aside, and a fresh commit replaced them.
    corrupt_files = list(iter_quarantined_files(cache_dir))
    assert len(corrupt_files) == 1
    assert corrupt_files[0].name == path.name + QUARANTINE_SUFFIX
    assert decode_cache_entry(path.read_text("utf-8")) == original
    # Bookkeeping saw it all.
    assert runner.cache_stats.quarantined == 1
    assert runner.cache_stats.misses == 1
    assert runner.cache_stats.stores == 1
    events = [event["event"] for event in runner.events.events]
    assert "cache_quarantined" in events
    quarantine_event = runner.events.of("cache_quarantined")[0]
    assert quarantine_event["path"].endswith(QUARANTINE_SUFFIX)
    assert quarantine_event["reason"]


def test_legacy_bare_record_is_quarantined(tmp_path):
    """Pre-envelope cache files (raw record dicts) are stale, not fatal."""
    cache_dir, path, original = seeded_cache(tmp_path)
    path.write_text(json.dumps(original.as_dict()), "utf-8")
    runner = fresh_runner(cache_dir)
    assert runner.record("baseline", PARAMS) == original
    assert runner.cache_stats.quarantined == 1


def test_flat_pre_shard_record_misses_and_is_recomputed(tmp_path):
    """A record directly under the cache root is no longer read."""
    cache_dir, path, original = seeded_cache(tmp_path)
    flat = cache_dir / path.name
    path.replace(flat)
    assert list(iter_cache_files(cache_dir)) == []
    runner = fresh_runner(cache_dir)
    assert runner.record("baseline", PARAMS) == original
    assert runner.cache_stats.misses == 1
    assert runner.cache_stats.stores == 1
    assert path.read_bytes() == flat.read_bytes()


# ----------------------------------------------------------------------
# Atomic commits
# ----------------------------------------------------------------------


def test_store_leaves_no_temp_files(tmp_path):
    cache_dir, path, _ = seeded_cache(tmp_path)
    names = {item.name for item in cache_dir.iterdir()}
    # Records live in the sharded layout; the materialized trace plane,
    # the miss planes and the manifest live alongside by design.
    # Anything else (e.g. an orphaned temp file) is a leak.
    assert names == {SHARD_DIRNAME, TRACE_DIRNAME, PLANE_DIRNAME, observe.META_DIRNAME}
    shard_dir = cache_dir / SHARD_DIRNAME / path.parent.name
    assert {item.name for item in shard_dir.iterdir()} == {path.name}
    meta_dir = cache_dir / observe.META_DIRNAME
    assert {item.name for item in meta_dir.iterdir()} == {observe.MANIFEST_FILENAME}


def test_commit_is_replace_not_append(tmp_path, monkeypatch):
    """The record file never holds a mix of old and new bytes."""
    cache_dir, path, original = seeded_cache(tmp_path)
    seen = []
    real_replace = os.replace

    def spying_replace(src, dst):
        seen.append((Path(src).name, Path(dst).name))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spying_replace)
    path.write_text("torn", "utf-8")
    fresh_runner(cache_dir).record("baseline", PARAMS)
    # First the quarantine rename, then the temp-file commit.
    assert seen[0] == (path.name, path.name + QUARANTINE_SUFFIX)
    assert seen[1][0].startswith(".") and seen[1][1] == path.name


# ----------------------------------------------------------------------
# Two runners, one cache directory
# ----------------------------------------------------------------------


def test_second_runner_reads_first_runners_commit(tmp_path):
    cache_dir, _, original = seeded_cache(tmp_path)
    second = fresh_runner(cache_dir)
    record = second.record("baseline", PARAMS)
    assert record == original
    assert second.cache_stats.hits_disk == 1
    assert second.cache_stats.misses == 0
    assert second.events.of("cache_hit")[0]["layer"] == "disk"


def test_concurrent_style_interleaving_is_safe(tmp_path):
    """Two live runners alternating on one dir never tread on each other."""
    a = fresh_runner(tmp_path)
    b = fresh_runner(tmp_path)
    record_a = a.record("baseline", PARAMS)
    record_b = b.record("baseline", PARAMS)  # disk hit on a's commit
    assert record_a == record_b
    assert b.cache_stats.hits_disk == 1
    # b re-committing (e.g. after a's file was corrupted) is also safe.
    next(iter_cache_files(tmp_path)).write_text("torn", "utf-8")
    assert a.record("baseline", PARAMS) == record_a  # memory hit, unaffected
    fresh = fresh_runner(tmp_path)
    assert fresh.record("baseline", PARAMS) == record_a


# ----------------------------------------------------------------------
# Relabel-on-read (cross-grid cache hits)
# ----------------------------------------------------------------------


def test_cache_hit_is_relabelled_on_read(tmp_path):
    cache_dir, path, _ = seeded_cache(tmp_path)
    second = fresh_runner(cache_dir)
    record = second.record("twoway", PARAMS)
    assert record.label == "twoway"
    # Only the label differs; the simulation payload is shared.
    assert record.stats == second.record("baseline", PARAMS).stats
    # The disk record keeps its original label (the cache is shared).
    assert decode_cache_entry(path.read_text("utf-8")).label == "baseline"


def test_relabel_applies_to_memory_hits_too(tmp_path):
    runner = fresh_runner(tmp_path)
    runner.record("baseline", PARAMS)
    assert runner.record("twoway", PARAMS).label == "twoway"
    assert runner.record("baseline", PARAMS).label == "baseline"


def test_encode_is_deterministic():
    record = RunRecord(
        label="baseline",
        kind="conventional",
        issue_rate_hz=10**9,
        size_bytes=1024,
        switch_on_miss=False,
        seconds=1.5,
        time_ps=1_500_000,
        stats={"level_times": {"l1i": 1}},
    )
    assert encode_cache_entry(record) == encode_cache_entry(record)


# ----------------------------------------------------------------------
# Warm grids and the manifest
# ----------------------------------------------------------------------


def grid_config(cache_dir):
    """Two cells of one plane group: one recorded, one replayed."""
    return replace(config(cache_dir), issue_rates=(10**9, 4 * 10**9))


def fill(cache_dir) -> Runner:
    """One ``baseline`` grid run, as a fresh process would make it."""
    materialize.clear_registry()
    missplane.clear_registry()
    runner = Runner(grid_config(cache_dir))
    runner.grid("baseline")
    return runner


def record_bytes(cache_dir) -> dict[str, bytes]:
    return {path.stem: path.read_bytes() for path in iter_cache_files(cache_dir)}


@pytest.fixture(scope="module")
def clean_grid(tmp_path_factory):
    """The record bytes of a ``baseline`` grid filled without faults."""
    cache_dir = tmp_path_factory.mktemp("clean")
    fill(cache_dir)
    records = record_bytes(cache_dir)
    assert len(records) == 2
    return records


def test_warm_grid_leaves_the_cache_directory_untouched(tmp_path):
    fill(tmp_path)
    before = tree_state(tmp_path)
    warm = fill(tmp_path)
    assert warm.cache_stats.hits_disk == 2
    assert tree_state(tmp_path) == before
    assert warm.write_cache_manifest() is None


def test_grid_that_quarantines_a_record_rewrites_the_manifest(tmp_path):
    fill(tmp_path)
    next(iter_cache_files(tmp_path)).write_text("torn", "utf-8")
    fill(tmp_path)
    manifest = observe.read_manifest(tmp_path)
    assert manifest["quarantined_files"] == 1
    assert manifest["cache"]["quarantined"] == 1
    assert manifest["entries"] == 2


@pytest.mark.parametrize("engine", ["prefetch", "record", "worker"])
def test_every_engine_that_stores_records_writes_the_manifest(tmp_path, engine):
    """Serial prefetch, a single ``record`` miss and a fabric worker each
    compute through ``_replay_cells``, so each leaves a manifest that
    counts every record file it stored."""
    materialize.clear_registry()
    missplane.clear_registry()
    cache_dir = tmp_path / "cache"
    grid = grid_config(cache_dir)
    if engine == "prefetch":
        Runner(grid).prefetch(["baseline"])
    elif engine == "record":
        Runner(grid).record("baseline", PARAMS)
    else:
        spec = JobSpec(
            labels=("baseline",),
            scale=grid.scale,
            slice_refs=grid.slice_refs,
            issue_rates=grid.issue_rates,
            sizes=grid.sizes,
            seed=grid.seed,
        )
        store = JobStore(tmp_path / "state")
        job, _ = store.submit(spec, plan_cells(spec, grid))
        run_worker(tmp_path / "state", grid, "solo", job_filter={job.id})
    records = sum(1 for _ in iter_cache_files(cache_dir))
    assert records == (1 if engine == "record" else 2)
    manifest = observe.read_manifest(cache_dir)
    assert manifest is not None
    assert manifest["entries"] == records
    assert "grids" not in manifest


class FailingCall:
    """``module`` whose function ``name`` raises ``OSError`` on call ``nth``."""

    def __init__(self, module, name: str, nth: int) -> None:
        self._module = module
        self._name = name
        self._nth = nth
        self.calls = 0

    def __getattr__(self, attr: str):
        real = getattr(self._module, attr)
        if attr != self._name:
            return real

        def call(*args, **kwargs):
            self.calls += 1
            if self.calls == self._nth:
                raise OSError(f"injected {attr} failure")
            return real(*args, **kwargs)

        return call


@pytest.mark.parametrize("nth", [1, 2])
@pytest.mark.parametrize("point", ["fsync", "replace"])
def test_failed_record_commit_ends_the_run_and_the_next_run_recovers(
    tmp_path, monkeypatch, clean_grid, point, nth
):
    """A record commit that fails at its fsync or its rename ends the
    run with that ``OSError``.  It leaves no torn ``<key>.json`` and no
    temp file, so a fresh run writes the clean bytes and quarantines
    nothing."""
    with monkeypatch.context() as patch:
        # Only record and manifest commits go through this binding, and
        # the manifest is written after the grid's records.
        patch.setattr(observe, "os", FailingCall(os, point, nth))
        with pytest.raises(OSError, match=f"injected {point} failure"):
            fill(tmp_path)
    shard_files = [p for p in (tmp_path / SHARD_DIRNAME).rglob("*") if p.is_file()]
    assert [p.name for p in shard_files if p.name.startswith(".")] == []
    committed = record_bytes(tmp_path)
    assert len(committed) == nth - 1
    assert all(clean_grid[key] == blob for key, blob in committed.items())

    runner = fill(tmp_path)
    assert record_bytes(tmp_path) == clean_grid
    assert runner.events.of("cache_quarantined") == []
