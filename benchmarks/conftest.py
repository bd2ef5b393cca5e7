"""Shared fixtures for the benchmark harness.

One :class:`~repro.experiments.runner.Runner` serves every benchmark in
the session, with an on-disk record cache, so the figure benchmarks
reuse the table sweeps instead of re-simulating them.

Scaling: the paper runs 1.1 G references; the default benchmark scale is
``REPRO_SCALE=0.003`` (about 3.3 M references per simulation).  Raise it
for closer-to-paper runs::

    REPRO_SCALE=0.01 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, Runner
from repro.experiments.claims import CLAIMS

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def runner() -> Runner:
    return Runner(ExperimentConfig.from_env())


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print an experiment report and persist it under results/."""

    def _emit(output) -> None:
        print()
        print(output.text)
        output.write_to(results_dir)

    return _emit


@pytest.fixture(scope="session")
def assert_claims(runner):
    """Assert a section's registry claims at the benchmark runner's grid.

    Every claim of ``section`` (an experiment name) is printed with its
    measured value and verdict.  A claim with a known-distortion note
    is reported, not asserted.
    """

    def _assert(section: str) -> None:
        failed = []
        for claim in CLAIMS:
            if claim.section != section:
                continue
            measured, holds = claim.check(runner)
            print(f"{claim.id}: {measured} ({'holds' if holds else 'does not hold'})")
            if claim.note:
                print(f"  known distortion: {claim.note}")
            elif not holds:
                failed.append(f"{claim.id} ({claim.paper}): measured {measured}")
        assert not failed, failed

    return _assert
