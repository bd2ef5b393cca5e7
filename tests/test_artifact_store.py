"""Crash points of the one artifact store: its commit and its quarantine.

The materialized trace (``traces/``) and every miss plane (``planes/``)
are committed by :func:`repro.trace.artifacts.commit` and moved aside
by :func:`repro.trace.artifacts.quarantine`.  Each test makes one of
the store's calls raise ``OSError`` -- the first array save, the
manifest fsync, the commit rename, or the quarantine rename of a
damaged artifact -- through the store's own ``np``/``os`` bindings, so
nothing outside the store is disturbed.  A failed commit must not stop
the run: it reports a ``<kind>_commit_failed`` event, finishes every
cell from the in-memory artifact, and leaves nothing under the
artifact's final name and no temp directory behind.  Every run must
leave records byte-identical to a clean cache's, and the next run that
needs the artifact commits it.  A damaged artifact whose quarantine
rename failed is replaced by the fresh commit, so it is rebuilt once.
"""

import os
import shutil

import numpy as np
import pytest

from repro.core.observe import EventLog
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Runner, iter_cache_files
from repro.trace import artifacts
from repro.trace import filter as missplane
from repro.trace import materialize

SCALE = 0.0001
SLICE_REFS = 4_000
SEED = 0
LABEL = "rampage"

#: layout -> (artifact root under the cache, event of a fresh commit)
LAYOUTS = {
    "trace": (materialize.trace_root, "trace_materialized"),
    "plane": (missplane.plane_root, "plane_recorded"),
}

#: failure point -> (the store's module binding, the real module, call)
FAULTS = {
    "first-array-save": ("np", np, "save"),
    "manifest-fsync": ("os", os, "fsync"),
    "commit-rename": ("os", os, "rename"),
}


class Failing:
    """``module`` with one function raising ``OSError`` when ``when(*args)``."""

    def __init__(self, module, name: str, when=lambda *args: True) -> None:
        self._module = module
        self._name = name
        self._when = when

    def __getattr__(self, attr: str):
        real = getattr(self._module, attr)
        if attr != self._name:
            return real

        def call(*args, **kwargs):
            if self._when(*args):
                raise OSError(f"injected {attr} failure")
            return real(*args, **kwargs)

        return call


@pytest.fixture(autouse=True)
def fresh_registries():
    materialize.clear_registry()
    missplane.clear_registry()
    yield
    materialize.clear_registry()
    missplane.clear_registry()


def fill(cache_dir) -> tuple[dict[str, bytes], EventLog]:
    """One run of the grid as a fresh process would make it.

    Returns the cache's record bytes by key and the run's events.
    """
    materialize.clear_registry()
    missplane.clear_registry()
    events = EventLog(None)
    config = ExperimentConfig(
        scale=SCALE,
        slice_refs=SLICE_REFS,
        issue_rates=(10**9, 4 * 10**9),
        sizes=(1024,),
        seed=SEED,
        cache_dir=cache_dir,
    )
    Runner(config, events=events).grid(LABEL)
    records = {path.stem: path.read_bytes() for path in iter_cache_files(cache_dir)}
    return records, events


@pytest.fixture(scope="module")
def clean_records(tmp_path_factory):
    records, events = fill(tmp_path_factory.mktemp("clean"))
    assert len(records) == 2
    assert [e["mode"] for e in events.of("cell_completed")] == ["recorded", "replayed"]
    return records


@pytest.mark.parametrize("point", sorted(FAULTS))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_failed_commit_leaves_nothing_and_the_next_run_recovers(
    tmp_path, monkeypatch, clean_records, layout, point
):
    root, committed = LAYOUTS[layout]
    if layout == "plane":
        # The trace commits first; only the plane's commit may fail.
        materialize.get_workload(SCALE, SEED, cache_dir=tmp_path, slice_refs=SLICE_REFS)
    binding, module, name = FAULTS[point]
    with monkeypatch.context() as patch:
        patch.setattr(artifacts, binding, Failing(module, name))
        records, events = fill(tmp_path)
    # The run finished every cell from the in-memory artifact.
    assert records == clean_records
    (failed,) = events.of(f"{layout}_commit_failed")
    assert f"injected {name} failure" in failed["reason"]
    # Neither the artifact under its final name nor a staged temp
    # directory beside it survives the failure.
    assert sorted(path.name for path in root(tmp_path).iterdir()) == []

    # Make the next run need the artifact again.
    for path in iter_cache_files(tmp_path):
        path.unlink()
    if layout == "trace":
        shutil.rmtree(missplane.plane_root(tmp_path), ignore_errors=True)
    records, events = fill(tmp_path)
    assert records == clean_records
    assert len(events.of(committed)) == 1
    assert len(list(root(tmp_path).iterdir())) == 1


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_failed_quarantine_rename_still_treats_the_artifact_as_a_miss(
    tmp_path, monkeypatch, clean_records, layout
):
    root, committed = LAYOUTS[layout]
    fill(tmp_path)
    (artifact,) = root(tmp_path).iterdir()
    (damaged, *_) = sorted(artifact.glob("*.npy"))
    damaged.write_bytes(b"torn")
    for path in iter_cache_files(tmp_path):
        path.unlink()
    if layout == "trace":
        # Without a plane every cell needs the workload again.
        shutil.rmtree(missplane.plane_root(tmp_path))

    def quarantining(src, dst):
        return str(dst).endswith(artifacts.QUARANTINE_SUFFIX)

    with monkeypatch.context() as patch:
        patch.setattr(artifacts, "os", Failing(os, "rename", when=quarantining))
        records, events = fill(tmp_path)
    assert records == clean_records
    (quarantined,) = events.of(f"{layout}_quarantined")
    assert quarantined["path"] == str(artifact)  # the rename failed; it stayed
    assert "checksum mismatch" in quarantined["reason"]
    assert len(events.of(committed)) == 1

    # The fresh commit replaced the damaged directory, so a run that
    # needs the artifact again attaches it: no quarantine, no rebuild.
    for path in iter_cache_files(tmp_path):
        path.unlink()
    if layout == "trace":
        shutil.rmtree(missplane.plane_root(tmp_path))
    records, events = fill(tmp_path)
    assert records == clean_records
    assert events.of(f"{layout}_quarantined") == []
    assert events.of(committed) == []
