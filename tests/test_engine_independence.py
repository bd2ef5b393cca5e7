"""One random grid, three engines, the same record bytes.

The serial :class:`Runner`, the :class:`ParallelRunner` process pool
and the sweep daemon (which runs each job on that pool, here two
workers wide) must leave byte-identical record files behind for any
grid and agree on how many cells were recorded and how many were
replayed.  The grid is drawn with a fixed seed, so a failure always
reproduces.
"""

import os
import random
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import GRID_BUILDERS, Runner, iter_cache_files
from repro.service import ServiceClient, ServiceThread, SweepService
from repro.service.jobs import JobSpec
from repro.trace import filter as missplane
from repro.trace import materialize

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the pool needs a Unix process model"
)


@pytest.fixture(autouse=True)
def fresh_registries():
    materialize.clear_registry()
    missplane.clear_registry()
    yield
    materialize.clear_registry()
    missplane.clear_registry()


def random_grid(seed: int) -> tuple[tuple[str, ...], ExperimentConfig]:
    """Grid labels plus a small workload and sweep, drawn from ``seed``."""
    rng = random.Random(seed)
    labels = tuple(rng.sample(sorted(GRID_BUILDERS), rng.randint(3, len(GRID_BUILDERS))))
    config = ExperimentConfig(
        scale=rng.choice([0.00001, 0.00002]),
        slice_refs=rng.choice([2_000, 4_000]),
        issue_rates=tuple(sorted(rng.sample([2 * 10**8, 5 * 10**8, 10**9, 4 * 10**9], 2))),
        sizes=tuple(sorted(rng.sample([128, 256, 512, 1024, 2048, 4096], 2))),
        seed=rng.randrange(3),
        cache_dir=None,
    )
    return labels, config


def records(cache_dir) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in iter_cache_files(cache_dir)}


def mode_counts(modes) -> tuple[int, int]:
    modes = list(modes)
    return modes.count("recorded"), modes.count("replayed")


def runner_modes(runner) -> list[str]:
    return [event["mode"] for event in runner.events.of("cell_completed")]


def test_serial_pool_and_daemon_leave_identical_records(tmp_path):
    labels, grid = random_grid(1998)

    def config(name):
        return replace(grid, cache_dir=tmp_path / name)

    serial = Runner(config("serial"))
    serial.prefetch(labels)

    pool = ParallelRunner(config("pool"), workers=2)
    pool.prefetch(labels)

    spec = JobSpec(
        labels=labels,
        scale=grid.scale,
        slice_refs=grid.slice_refs,
        issue_rates=grid.issue_rates,
        sizes=grid.sizes,
        seed=grid.seed,
    )
    thread = ServiceThread(SweepService(config("daemon"), port=0, workers=2))
    url = thread.start()
    try:
        client = ServiceClient(url)
        submitted = client.submit(spec.as_dict())
        final = client.wait(submitted["id"], timeout=60)
    finally:
        thread.stop()
    assert final["status"] == "completed"

    expected = records(tmp_path / "serial")
    cells = len(labels) * len(grid.issue_rates) * len(grid.sizes)
    assert len(expected) == cells
    for name in ("pool", "daemon"):
        assert records(tmp_path / name) == expected, name

    counts = mode_counts(runner_modes(serial))
    assert counts == (len(labels) * len(grid.sizes), cells - len(labels) * len(grid.sizes))
    assert mode_counts(runner_modes(pool)) == counts
    modes = final["modes"]
    assert (modes.get("recorded", 0), modes.get("replayed", 0)) == counts
