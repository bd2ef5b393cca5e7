"""The artifact store: one commit, validation and quarantine protocol.

Two regenerable artifacts live under the cache directory as directories
of ``.npy`` arrays plus a ``manifest.json``: the materialized workload
(``traces/<key>/``, :mod:`repro.trace.materialize`) and one miss plane
per machine geometry (``planes/<key>/``, :mod:`repro.trace.filter`).
Both layouts go through this module, so their bytes are committed,
validated and quarantined by one implementation (``docs/cache.md``):

* :func:`commit` stages the directory beside its final name, saves each
  array, records each array's row count and SHA-256 in the manifest,
  fsyncs the manifest and ``os.rename``\\ s the directory into place.
  Artifact bytes are deterministic, so losing a concurrent race is
  benign: the loser discards its copy and keeps the winner's, once the
  winner's arrays hash to the loser's checksums.  A directory that
  fails that check is a damaged artifact whose quarantine failed; the
  commit moves it aside (or removes it) and puts the fresh copy in its
  place.
  :func:`persist` is how callers commit: a failed commit (a full disk, a
  read-only cache) is a ``<kind>_commit_failed`` event, never an abort,
  because the caller still holds the fresh artifact in memory.
* :func:`read_manifest` checks the JSON, the schema tag, the workload
  version and the checksum table.  A schema of an older layout raises
  :class:`~repro.core.errors.StaleArtifactError`: keys hash the schema,
  so such a directory is unreachable dead weight, not damage.
* :func:`load_arrays` checks each array file's presence and checksum,
  memory-maps it read-only, then checks its dtype, shape and row count.
* :func:`attach` loads an artifact or, through :func:`discard`,
  renames it to ``<key>.corrupt`` with a ``<kind>_quarantined`` event and
  reports a miss: a bad artifact is recomputed, never a crash.

Run records are single JSON files with their own atomic commit
(:func:`repro.core.observe.atomic_write_text`), but their envelope
carries the same schema and workload-version tags, checked by
:func:`parse_envelope`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from repro.core.errors import CacheIntegrityError, StaleArtifactError
from repro.core.observe import EventLog

#: Bumped whenever trace generation or timing semantics change.  Run
#: records, traces and planes all carry it, so they invalidate together.
WORKLOAD_VERSION = "wv4"

#: Suffix appended to a record file or artifact directory that failed
#: validation.
QUARANTINE_SUFFIX = ".corrupt"

MANIFEST_NAME = "manifest.json"

#: One array of a layout: file stem, dtype, and column count (0 for a
#: one-dimensional array).
ArraySpec = tuple[str, type, int]

T = TypeVar("T")


def file_checksum(path: Path) -> str:
    """SHA-256 over a file's bytes (streamed, keeps memory flat)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def json_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def parse_envelope(text: str, schema: str, stale: tuple[str, ...] = ()) -> dict:
    """Decode a tagged JSON object and check its schema and version.

    Raises :class:`CacheIntegrityError` for invalid JSON, a non-object,
    a foreign schema or another workload version, and
    :class:`StaleArtifactError` for a schema listed in ``stale``.
    """
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheIntegrityError(f"invalid JSON: {exc}") from exc
    if not isinstance(envelope, dict):
        raise CacheIntegrityError(
            f"expected an envelope object, got {type(envelope).__name__}"
        )
    found = envelope.get("schema")
    if found in stale:
        raise StaleArtifactError(f"stale schema {found!r}: now {schema!r}")
    if found != schema:
        raise CacheIntegrityError(
            f"schema mismatch: found {found!r}, expected {schema!r}"
        )
    version = envelope.get("workload_version")
    if version != WORKLOAD_VERSION:
        raise CacheIntegrityError(
            f"workload version mismatch: found {version!r}, "
            f"expected {WORKLOAD_VERSION!r}"
        )
    return envelope


def commit(directory: str | Path, arrays: dict[str, np.ndarray], manifest: dict) -> Path:
    """Atomically commit ``arrays`` plus ``manifest`` as ``directory``.

    ``manifest`` holds the layout's schema tag and fields; the store
    adds the workload version, each array's row count (under its name)
    and the ``checksums`` table (by file name).  A failure leaves
    nothing under the final name and no temp directory behind.

    When ``directory`` already exists, its copy is kept only if its
    arrays match ``checksums``; otherwise it is quarantined, or removed
    when that rename fails too, and replaced.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = directory.parent / f".{directory.name}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        manifest = {**manifest, "workload_version": WORKLOAD_VERSION}
        checksums = {}
        for name, array in arrays.items():
            filename = f"{name}.npy"
            np.save(tmp / filename, array)
            manifest[name] = int(len(array))
            checksums[filename] = file_checksum(tmp / filename)
        manifest["checksums"] = checksums
        with open(tmp / MANIFEST_NAME, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest, indent=2) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.rename(tmp, directory)
        except OSError:
            if not (directory / MANIFEST_NAME).exists():
                raise
            if not _holds(directory, checksums):
                if quarantine(directory) == directory:
                    shutil.rmtree(directory)
                os.rename(tmp, directory)
            # Otherwise we lost the race to an identical artifact; keep theirs.
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return directory


def _holds(directory: Path, checksums: dict[str, str]) -> bool:
    """Whether every array file in ``directory`` hashes to ``checksums``."""
    try:
        return all(
            file_checksum(directory / filename) == digest
            for filename, digest in checksums.items()
        )
    except OSError:
        return False


def persist(
    kind: str,
    key: str,
    directory: Path,
    write: Callable[[Path], Path],
    events: EventLog,
) -> Path | None:
    """``write(directory)``, or ``None`` when the commit raises ``OSError``.

    The failure is reported as a ``<kind>_commit_failed`` event with its
    reason; the caller goes on with the artifact it holds in memory and
    leaves its ``path`` unset, so the next run regenerates it.
    """
    try:
        return write(directory)
    except OSError as error:
        events.emit(
            f"{kind}_commit_failed", key=key, path=str(directory), reason=str(error)
        )
        return None


def read_manifest(
    directory: str | Path, schema: str, stale: tuple[str, ...] = ()
) -> dict:
    """Validate and return an artifact directory's manifest."""
    path = Path(directory) / MANIFEST_NAME
    try:
        text = path.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheIntegrityError(f"unreadable manifest: {exc}") from exc
    manifest = parse_envelope(text, schema, stale)
    if not isinstance(manifest.get("checksums"), dict):
        raise CacheIntegrityError("manifest has no checksum table")
    return manifest


def load_arrays(
    directory: str | Path, manifest: dict, specs: tuple[ArraySpec, ...]
) -> dict[str, np.ndarray]:
    """Checksum, memory-map and shape-check every array of a layout."""
    directory = Path(directory)
    checksums = manifest["checksums"]
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, columns in specs:
        filename = f"{name}.npy"
        path = directory / filename
        if not path.exists():
            raise CacheIntegrityError(f"missing array file {filename}")
        if checksums.get(filename) != file_checksum(path):
            raise CacheIntegrityError(f"checksum mismatch on {filename}")
        try:
            array = np.load(path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise CacheIntegrityError(
                f"unreadable array file {filename}: {exc}"
            ) from exc
        if array.dtype != dtype:
            raise CacheIntegrityError(
                f"{filename}: expected {np.dtype(dtype)}, got {array.dtype}"
            )
        if array.ndim != (2 if columns else 1) or (
            columns and array.shape[1] != columns
        ):
            raise CacheIntegrityError(f"{filename}: unexpected shape {array.shape}")
        if len(array) != manifest.get(name):
            raise CacheIntegrityError(
                f"{filename} has {len(array)} rows; manifest says "
                f"{manifest.get(name)}"
            )
        arrays[name] = array
    return arrays


def quarantine(directory: str | Path) -> Path:
    """Move a failed artifact aside for post-mortem; returns where it is.

    A rename that fails (someone else already moved or deleted the
    directory, or the filesystem refuses) leaves it where it was.
    """
    directory = Path(directory)
    target = directory.with_name(directory.name + QUARANTINE_SUFFIX)
    if target.exists():
        target = directory.with_name(
            f"{directory.name}{QUARANTINE_SUFFIX}-{os.getpid()}"
        )
        shutil.rmtree(target, ignore_errors=True)
    try:
        os.rename(directory, target)
    except OSError:
        return directory
    return target


def discard(
    kind: str, key: str, directory: Path | None, reason: str, events: EventLog
) -> None:
    """Quarantine a failed artifact, if on disk, and emit ``<kind>_quarantined``."""
    path = None
    if directory is not None and Path(directory).exists():
        path = str(quarantine(directory))
    events.emit(f"{kind}_quarantined", key=key, path=path, reason=reason)


def attach(
    kind: str,
    key: str,
    directory: Path,
    load: Callable[[Path], T],
    events: EventLog,
) -> T | None:
    """``load(directory)``, or ``None`` when there is no valid artifact.

    An artifact that fails validation is discarded (:func:`discard`);
    the caller regenerates it.
    """
    if not directory.exists():
        return None
    try:
        return load(directory)
    except CacheIntegrityError as error:
        discard(kind, key, directory, str(error), events)
        return None
