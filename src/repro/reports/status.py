"""Machine-readable cache summaries.

:func:`cache_status` backs three consumers with one shape:
``rampage-sim cache stats --json``, the daemon's ``GET /v1/bench``
route, and the dashboard's cache card.  Everything here is read-only
and tolerant -- an absent directory or an undecodable record yields a
summary that *says so* instead of raising.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable

from repro.core.errors import CacheIntegrityError, StaleArtifactError
from repro.core.observe import read_manifest
from repro.experiments.runner import (
    iter_cache_files,
    iter_quarantined_files,
    read_cache_entry,
)
from repro.trace import filter as missplane
from repro.trace import materialize
from repro.trace.artifacts import QUARANTINE_SUFFIX

#: Artifact layouts living under the cache directory, beyond the
#: ``<key>.json`` records: (kind, subdirectory resolver, validator,
#: manifest reader).  The reader is the cheap check that tells a stale
#: layout (:class:`StaleArtifactError`) from a live one.  A trace
#: validates the same bytes whatever slice length chunks its replay.
ARTIFACT_LAYOUTS: tuple[tuple[str, Callable, Callable, Callable], ...] = (
    (
        "trace",
        materialize.trace_root,
        partial(materialize.load_artifact, slice_refs=materialize.DEFAULT_CHUNK),
        materialize.read_manifest,
    ),
    ("plane", missplane.plane_root, missplane.load_plane, missplane.read_manifest),
)


def dir_bytes(root: Path) -> int:
    """Total size of every file under an artifact directory."""
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )


def artifact_dirs(root: Path) -> tuple[list[Path], list[Path]]:
    """Committed and quarantined artifact directories under ``root``."""
    if not root.is_dir():
        return [], []
    live: list[Path] = []
    quarantined: list[Path] = []
    for path in sorted(root.iterdir()):
        if not path.is_dir() or path.name.startswith("."):
            continue
        if QUARANTINE_SUFFIX in path.name:
            quarantined.append(path)
        else:
            live.append(path)
    return live, quarantined


def is_stale(read_manifest: Callable, path: Path) -> bool:
    """True when ``path`` holds an artifact of an unreachable old layout."""
    try:
        read_manifest(path)
    except StaleArtifactError:
        return True
    except (OSError, CacheIntegrityError):
        return False
    return False


def cache_status(cache_dir: str | Path | None) -> dict:
    """One JSON-friendly summary of a run-record cache directory."""
    if cache_dir is None:
        return {"present": False, "path": None}
    cache_dir = Path(cache_dir)
    if not cache_dir.exists():
        return {"present": False, "path": str(cache_dir)}
    entries = list(iter_cache_files(cache_dir))
    quarantined = list(iter_quarantined_files(cache_dir))
    total_bytes = sum(path.stat().st_size for path in entries)
    by_label: dict[str, int] = {}
    undecodable = 0
    for path in entries:
        try:
            record = read_cache_entry(path)
        except (OSError, CacheIntegrityError):
            undecodable += 1
            continue
        by_label[record.label] = by_label.get(record.label, 0) + 1
    artifacts = {}
    for kind, root, _, _ in ARTIFACT_LAYOUTS:
        live, held = artifact_dirs(root(cache_dir))
        artifacts[kind] = {
            "live": len(live),
            "live_bytes": sum(dir_bytes(path) for path in live),
            "quarantined": len(held),
            "quarantined_bytes": sum(dir_bytes(path) for path in held),
        }
    return {
        "present": True,
        "path": str(cache_dir),
        "records": len(entries),
        "record_bytes": total_bytes,
        "by_label": dict(sorted(by_label.items())),
        "undecodable": undecodable,
        "quarantined": len(quarantined),
        "artifacts": artifacts,
        "manifest": read_manifest(cache_dir),
    }
