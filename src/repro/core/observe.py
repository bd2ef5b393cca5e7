"""Observability for the experiment layer: events, counters, manifests.

The run-record cache went multi-process in the parallel sweep engine,
which turned silent cache bookkeeping into something worth watching:
which cells hit, which missed, which files were quarantined as corrupt,
and how fast each simulation ran.  This module gives the experiment
runners three small instruments:

* :class:`EventLog` -- a structured JSONL event stream.  Every event is
  one JSON object per line with a wall-clock timestamp, the emitting
  pid and an ``event`` name; extra fields ride along verbatim.  Events
  always accumulate in memory (a bounded tail, so tests and callers can
  inspect them); they are additionally appended to a file when a path
  is configured (``REPRO_EVENT_LOG``).  Appends are line-buffered per
  event and serialized under a lock, so pool callbacks and server
  request threads can share one log without interleaving JSONL lines.
  Listeners registered with :meth:`EventLog.subscribe` observe every
  emitted payload -- the bridge the sweep service uses to stream
  progress to HTTP clients.
* :class:`CacheStats` -- per-runner counters over the cache layers
  (memory hits, disk hits, misses, stores, quarantines, evictions).
* a cache **manifest** -- one JSON summary per cache directory, written
  atomically under ``<cache_dir>/_meta/manifest.json`` by a run that
  stored or quarantined a record, so ``rampage-sim cache stats`` can
  answer "what happened here" without replaying the event log.

:func:`atomic_write_text` is the shared crash-safety primitive: write
to a temp file in the destination directory, fsync, then ``os.replace``
-- a reader never observes a half-written file, and a ``kill -9``
mid-write leaves the old contents (or nothing) behind, never a torn
file under the final name.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Manifest schema tag, bumped when the manifest layout changes.
MANIFEST_SCHEMA = "rampage-manifest/1"

#: Cache-directory subdirectory holding metadata (manifest), kept apart
#: from the ``<key>.json`` record files so directory scans stay trivial.
META_DIRNAME = "_meta"

MANIFEST_FILENAME = "manifest.json"


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Durably replace ``path``'s contents with ``text``.

    The write goes to a temp file in the same directory (same
    filesystem, so ``os.replace`` is atomic), is fsynced, and only then
    renamed over the destination.  Concurrent writers race benignly:
    the last rename wins with either writer's complete bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


class EventLog:
    """Structured JSONL event stream for the experiment layer.

    Parameters
    ----------
    path:
        Optional JSONL file to append events to; ``None`` keeps events
        in memory only.
    clock:
        Timestamp source (seconds); injectable for deterministic tests.
    keep:
        How many events the in-memory tail retains.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        clock=time.time,
        keep: int = 1000,
    ) -> None:
        self.path = Path(path) if path else None
        self._clock = clock
        self._keep = max(1, int(keep))
        self._lock = threading.Lock()
        self._listeners: list[Callable[[dict], None]] = []
        self.events: list[dict] = []

    def subscribe(self, listener: Callable[[dict], None]) -> Callable[[dict], None]:
        """Register ``listener`` to receive every emitted payload."""
        with self._lock:
            self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: Callable[[dict], None]) -> None:
        """Remove a listener; unknown listeners are ignored."""
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def emit(self, event: str, **fields: object) -> dict:
        """Record one event; returns the payload that was logged.

        Thread-safe: the in-memory append, tail rotation and file
        append happen under one lock, so threads sharing a log never
        interleave half-written JSONL lines or race the rotation.
        Listeners run outside the lock (a slow listener must not stall
        other emitters) but see payloads in a consistent order per
        emitting thread.
        """
        payload: dict = {
            "ts": round(float(self._clock()), 6),
            "pid": os.getpid(),
            "event": event,
        }
        payload.update(fields)
        with self._lock:
            self.events.append(payload)
            if len(self.events) > self._keep:
                del self.events[: len(self.events) - self._keep]
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(payload) + "\n")
            listeners = list(self._listeners)
        for listener in listeners:
            listener(payload)
        return payload

    def of(self, event: str) -> list[dict]:
        """The in-memory tail filtered to one event name."""
        with self._lock:
            return [item for item in self.events if item["event"] == event]


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL event file, skipping torn trailing lines.

    A crash can leave a partial final line; that line is dropped rather
    than poisoning the whole log -- the same never-fail-on-torn-data
    policy the cache itself follows.
    """
    events: list[dict] = []
    path = Path(path)
    if not path.exists():
        return events
    for line in path.read_text("utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events


@dataclass
class CacheStats:
    """Counters over the run-record cache's layers."""

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    def as_dict(self) -> dict[str, int]:
        return {
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "evictions": self.evictions,
        }


def manifest_path(cache_dir: str | Path) -> Path:
    return Path(cache_dir) / META_DIRNAME / MANIFEST_FILENAME


def write_manifest(cache_dir: str | Path, payload: dict) -> Path:
    """Atomically write the cache manifest; returns its path."""
    payload = {"schema": MANIFEST_SCHEMA, **payload}
    return atomic_write_text(
        manifest_path(cache_dir), json.dumps(payload, indent=2) + "\n"
    )


def read_manifest(cache_dir: str | Path) -> dict | None:
    """The cache manifest, or ``None`` when absent or unreadable."""
    path = manifest_path(cache_dir)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None
