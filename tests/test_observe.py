"""Tests for the observability layer (events, counters, manifests)."""

import json

import pytest

from repro.core.observe import (
    CacheStats,
    EventLog,
    atomic_write_text,
    manifest_path,
    read_events,
    read_manifest,
    write_manifest,
)


# ----------------------------------------------------------------------
# EventLog
# ----------------------------------------------------------------------


def test_emit_records_in_memory_and_on_disk(tmp_path):
    path = tmp_path / "events.jsonl"
    ticks = iter(range(10))
    log = EventLog(path, clock=lambda: next(ticks))
    log.emit("cell_started", key="abc", label="baseline")
    log.emit("cell_completed", key="abc", wall_s=1.25)

    assert [event["event"] for event in log.events] == [
        "cell_started",
        "cell_completed",
    ]
    lines = path.read_text("utf-8").splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["event"] == "cell_started"
    assert first["key"] == "abc"
    assert first["ts"] == 0
    assert isinstance(first["pid"], int)


def test_memory_only_log_never_touches_disk(tmp_path):
    log = EventLog(None)
    log.emit("anything", n=1)
    assert log.path is None
    assert list(tmp_path.iterdir()) == []
    assert log.of("anything") == [log.events[0]]


def test_in_memory_tail_is_bounded():
    log = EventLog(keep=3)
    for index in range(10):
        log.emit("tick", n=index)
    assert [event["n"] for event in log.events] == [7, 8, 9]


def test_two_logs_append_to_one_file(tmp_path):
    """Concurrent sweeps share one JSONL file by appending lines."""
    path = tmp_path / "events.jsonl"
    EventLog(path).emit("a")
    EventLog(path).emit("b")
    assert [event["event"] for event in read_events(path)] == ["a", "b"]


def test_read_events_skips_torn_trailing_line(tmp_path):
    path = tmp_path / "events.jsonl"
    EventLog(path).emit("good")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "torn", "tr')  # crash mid-append
    events = read_events(path)
    assert [event["event"] for event in events] == ["good"]
    assert read_events(tmp_path / "missing.jsonl") == []


# ----------------------------------------------------------------------
# atomic_write_text
# ----------------------------------------------------------------------


def test_atomic_write_creates_parents_and_replaces(tmp_path):
    target = tmp_path / "deep" / "nested" / "file.json"
    atomic_write_text(target, "one")
    atomic_write_text(target, "two")
    assert target.read_text("utf-8") == "two"
    # No temp residue anywhere in the directory.
    assert [item.name for item in target.parent.iterdir()] == ["file.json"]


def test_atomic_write_failure_leaves_old_contents(tmp_path, monkeypatch):
    import repro.core.observe as observe_mod

    target = tmp_path / "file.json"
    atomic_write_text(target, "committed")

    def exploding_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(observe_mod.os, "fsync", exploding_fsync)
    with pytest.raises(OSError):
        atomic_write_text(target, "half-written")
    # The destination still holds the previous commit, and the torn
    # temp file was cleaned up.
    assert target.read_text("utf-8") == "committed"
    assert [item.name for item in tmp_path.iterdir()] == ["file.json"]


def test_threads_writing_one_path_each_commit_whole_bytes(tmp_path):
    """Two threads of one process write one path at once, 100 times:
    every race ends with one writer's complete bytes, no exception and
    no temp file left behind."""
    import sys
    import threading

    target = tmp_path / "file.json"
    texts = ("a" * 200_000, "b" * 300_000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _trial in range(100):
            barrier = threading.Barrier(len(texts))
            errors: list[BaseException] = []

            def write(text: str) -> None:
                barrier.wait(timeout=10)
                try:
                    atomic_write_text(target, text)
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=write, args=(t,)) for t in texts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert errors == []
            assert target.read_text("utf-8") in texts
            assert [item.name for item in tmp_path.iterdir()] == ["file.json"]
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# CacheStats + manifest
# ----------------------------------------------------------------------


def test_cache_stats_accounting():
    stats = CacheStats(hits_memory=2, hits_disk=3, misses=4)
    assert stats.hits == 5
    assert stats.as_dict()["misses"] == 4
    assert set(stats.as_dict()) == {
        "hits_memory",
        "hits_disk",
        "misses",
        "stores",
        "quarantined",
        "evictions",
    }


def test_manifest_round_trip(tmp_path):
    payload = {"grids": ["baseline"], "cache": CacheStats(misses=6).as_dict()}
    path = write_manifest(tmp_path, payload)
    assert path == manifest_path(tmp_path)
    loaded = read_manifest(tmp_path)
    assert loaded["schema"].startswith("rampage-manifest/")
    assert loaded["grids"] == ["baseline"]
    assert loaded["cache"]["misses"] == 6


def test_read_manifest_tolerates_absence_and_garbage(tmp_path):
    assert read_manifest(tmp_path) is None
    manifest_path(tmp_path).parent.mkdir(parents=True)
    manifest_path(tmp_path).write_text("{ torn", "utf-8")
    assert read_manifest(tmp_path) is None
    manifest_path(tmp_path).write_text("[1, 2]", "utf-8")
    assert read_manifest(tmp_path) is None


def test_emit_is_thread_safe(tmp_path):
    """Concurrent emitters may interleave, but every journal line must be
    intact JSON and every event must land exactly once."""
    import threading

    path = tmp_path / "events.jsonl"
    log = EventLog(path, keep=10_000)

    def worker(worker_id):
        for i in range(100):
            log.emit("tick", worker=worker_id, i=i)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(log.events) == 800
    lines = path.read_text("utf-8").splitlines()
    assert len(lines) == 800
    seen = set()
    for line in lines:
        event = json.loads(line)  # no torn/interleaved writes
        seen.add((event["worker"], event["i"]))
    assert len(seen) == 800


def test_listeners_observe_every_emit(tmp_path):
    log = EventLog(None)
    heard = []
    listener = log.subscribe(lambda event: heard.append(event["event"]))
    log.emit("cell_started", key="abc")
    log.emit("cell_completed", key="abc")
    assert heard == ["cell_started", "cell_completed"]

    log.unsubscribe(listener)
    log.emit("sweep_started")
    assert heard == ["cell_started", "cell_completed"]
    # Unsubscribing twice (or an unknown listener) is harmless.
    log.unsubscribe(listener)


def test_listener_errors_do_not_block_the_log():
    log = EventLog(None)

    def bad_listener(event):
        raise RuntimeError("listener bug")

    log.subscribe(bad_listener)
    with pytest.raises(RuntimeError):
        log.emit("tick")
    # The event itself was still recorded before the listener ran.
    assert [event["event"] for event in log.events] == ["tick"]
