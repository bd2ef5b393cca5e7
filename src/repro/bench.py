"""Identity gates: ``rampage-sim bench --check`` and ``--replay``.

Neither gate times anything.  The repository benchmark
(``perfbench/``) is the one timing instrument: it runs the parent and
the change in alternating pairs and reports the spread.  Each gate
exits 1 on a divergence, and CI runs both on every push.

``--check`` runs a fast self-test on a tiny workload: the materialized
trace must carry the same references as live synthesis; for
plane-eligible machines a plane-recording run and the group replay
must both match the plain simulation; and a cold sweep must replay
every plane-eligible cell and leave records equal to full simulation
over live synthesis, the oracle.  None of the fast paths can silently
desync from the reference behaviour.

``--replay`` is the identity gate for the decision-op replay kernel.
It records one plane per machine (plain RAMpage, whose tape holds only
``SYNC`` rows, and the preempting switch-on-miss RAMpage and
virtual-L1) and prices its nine-cell sibling grid (three issue rates x
three Rambus timings) with the scalar ``_replay_timeline`` oracle and
with the vectorized :class:`~repro.trace.replay_kernel.ReplayKernel`.
Every cell's two outputs must be equal.

The ``SWEEP_*`` constants define the bench grid, which the service
smoke test also drives (:func:`sweep_config`).

Usage:
    rampage-sim bench --check
    rampage-sim bench --replay
    PYTHONPATH=src python -m repro.cli bench --replay   # from a source checkout
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.runtime import RunRecord
from repro.core.clock import cycle_time_ps
from repro.core.params import RambusParams
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Runner
from repro.systems.factory import (
    baseline_machine,
    rampage_machine,
    twoway_machine,
    virtual_l1_machine,
)
from repro.systems.simulator import simulate
from repro.trace import filter as missplane
from repro.trace import materialize
from repro.trace.replay_kernel import ReplayKernel
from repro.trace.synthetic import build_workload

#: The bench grid: three grids over three issue rates at one size --
#: nine cells in three plane groups, the speed-ratio sweep every paper
#: table runs.  ``rampage_som`` exercises the preempting
#: (decision-op tape) replay path.
SWEEP_LABELS = ("baseline", "rampage", "rampage_som")
SWEEP_SIZES = (512,)
SWEEP_RATES = (2 * 10**8, 10**9, 4 * 10**9)
SWEEP_SCALE = 0.0002
SWEEP_SLICE_REFS = 10_000

#: ``--replay`` grid: every Rambus timing the preempt-plane tests use
#: (default, a slow part, a pipelined channel) crossed with the sweep
#: rates -- nine sibling cells sharing one preempting plane group.
REPLAY_DRAM_TIMINGS = (
    RambusParams(),
    RambusParams(access_ps=90_000, ps_per_beat=2_500),
    RambusParams(pipelined=True),
)


def sweep_config(cache_dir: Path) -> ExperimentConfig:
    """The bench grid's configuration over ``cache_dir`` (seed 0)."""
    return ExperimentConfig(
        scale=SWEEP_SCALE,
        slice_refs=SWEEP_SLICE_REFS,
        issue_rates=SWEEP_RATES,
        sizes=SWEEP_SIZES,
        seed=0,
        cache_dir=cache_dir,
    )


def replay_gate() -> int:
    """``--replay``: the kernel against the scalar oracle, cell by cell.

    Records one plane per machine at the sweep scale -- plain RAMpage
    (``SYNC`` rows only), switch-on-miss RAMpage and switch-on-miss
    virtual-L1 -- then prices the nine-cell sibling grid
    (:data:`SWEEP_RATES` x :data:`REPLAY_DRAM_TIMINGS`) with the
    per-cell ``_replay_timeline`` interpreter and with one batched
    :meth:`~repro.trace.replay_kernel.ReplayKernel.price_many`.  Exit
    code 1 if any (cell, machine) output differs.
    """
    timings = [
        (dram, cycle_time_ps(rate))
        for dram in REPLAY_DRAM_TIMINGS
        for rate in SWEEP_RATES
    ]
    machines = {
        "rampage": rampage_machine(10**9, 1024),
        "rampage_som": rampage_machine(10**9, 1024, switch_on_miss=True),
        "rampage_vl1_som": virtual_l1_machine(
            10**9, 1024, switch_on_miss=True
        ),
    }
    programs = materialize.get_workload(
        SWEEP_SCALE, 0, slice_refs=SWEEP_SLICE_REFS
    ).programs
    mismatches = 0
    for label, params in machines.items():
        recorder = missplane.PlaneRecorder(
            missplane.plane_key(params, SWEEP_SCALE, 0, SWEEP_SLICE_REFS)
        )
        simulate(
            params,
            programs,
            slice_refs=SWEEP_SLICE_REFS,
            record_plane=recorder,
        )
        plane = recorder.finalize()
        columns = tuple(plane.dops[:, column].tolist() for column in range(3))
        scalar = [
            missplane._replay_timeline(dram, cyc, columns)
            for dram, cyc in timings
        ]
        kernel = ReplayKernel(plane.dops).price_many(timings)
        bad = sum(1 for a, b in zip(scalar, kernel) if a != b)
        mismatches += bad
        print(
            f"replay {label}: {len(timings) - bad}/{len(timings)} cells "
            f"equal over {len(plane.dops)} dops"
        )
    if mismatches:
        print(
            f"REPLAY GATE FAILED: {mismatches} cells diverge between the "
            "scalar and vectorized kernels"
        )
        return 1
    print("replay OK: every kernel output equals the scalar oracle")
    return 0


def _check_planes(scale: float, seed: int, slice_refs: int) -> int:
    """Plain vs plane-recording vs group-replayed runs, byte-for-byte.

    Records one miss plane per eligible machine -- including the
    preempting switch-on-miss and virtual-L1 machines, whose planes
    carry a decision-op tape -- then asserts that the recording run
    matches a plain run and that one :func:`~repro.trace.filter.replay_group`
    call reproduces the plain simulation's record exactly at every
    issue rate, so the arithmetic is exercised away from the recording
    cell's clock.
    """
    programs = materialize.get_workload(scale, seed, slice_refs=slice_refs).programs
    rates = (2 * 10**8, 10**9, 4 * 10**9)
    machines = {
        "baseline": lambda rate: baseline_machine(rate, 512),
        "twoway": lambda rate: twoway_machine(rate, 512),
        "rampage": lambda rate: rampage_machine(rate, 1024),
        "rampage_som": lambda rate: rampage_machine(
            rate, 1024, switch_on_miss=True
        ),
        "rampage_vl1": lambda rate: virtual_l1_machine(rate, 1024),
        "rampage_vl1_som": lambda rate: virtual_l1_machine(
            rate, 1024, switch_on_miss=True
        ),
    }
    for label, build in machines.items():
        recorder = missplane.PlaneRecorder(
            missplane.plane_key(build(10**9), scale, seed, slice_refs)
        )
        recorded = simulate(
            build(10**9), programs, slice_refs=slice_refs, record_plane=recorder
        )
        replayed = missplane.replay_group(
            [build(rate) for rate in rates], recorder.finalize()
        )
        for rate, decoupled in zip(rates, replayed):
            reference = simulate(
                build(rate), programs, slice_refs=slice_refs
            ).stats.as_dict()
            if rate == 10**9 and recorded.stats.as_dict() != reference:
                print(
                    f"CHECK FAILED: {label} plane-recording run diverges "
                    "from the plain run"
                )
                return 1
            if decoupled.stats.as_dict() != reference:
                print(
                    f"CHECK FAILED: {label} @{rate} Hz group replay "
                    "diverges from the plain run"
                )
                return 1
    return 0


def _check_sweep(scale: float, seed: int, slice_refs: int) -> int:
    """A cold sweep replays every eligible cell and matches the oracle.

    Drives the bench sweep's own labels (all of them plane-eligible,
    including the preempting ``rampage_som`` grid) through a cold
    serial sweep.  It fails if any cell completed as ``mode=full`` --
    an eligibility or recording bug silently degrading the sweep to
    full simulation everywhere -- or if any record differs from full
    simulation over live synthesis, the oracle for the whole engine
    (materialized trace, recording and group replay).
    """
    with tempfile.TemporaryDirectory(prefix="bench-check-") as tmp:
        config = ExperimentConfig(
            scale=scale,
            slice_refs=slice_refs,
            issue_rates=(2 * 10**8, 10**9),
            sizes=(512,),
            seed=seed,
            cache_dir=Path(tmp),
        )
        runner = Runner(config)
        for label in SWEEP_LABELS:
            runner.grid(label)
        completions = runner.events.of("cell_completed")
        fallbacks = [e for e in completions if e["mode"] == "full"]
        if fallbacks:
            labels = sorted({str(e.get("label")) for e in fallbacks})
            print(
                f"CHECK FAILED: {len(fallbacks)} plane-eligible cells fell "
                f"back to mode=full ({', '.join(labels)})"
            )
            return 1
        for label in SWEEP_LABELS:
            for params in runner.grid_params(label):
                oracle = RunRecord.from_result(
                    label,
                    params.transfer_unit_bytes,
                    simulate(
                        params,
                        build_workload(scale, seed=seed),
                        slice_refs=slice_refs,
                    ),
                )
                if runner.record(label, params).as_dict() != oracle.as_dict():
                    print(
                        f"CHECK FAILED: {label} @{params.issue_rate_hz} Hz "
                        "sweep record diverges from full simulation over "
                        "live synthesis"
                    )
                    return 1
        modes = [e["mode"] for e in completions]
        print(
            "sweep OK: "
            f"{modes.count('recorded')} recorded, "
            f"{modes.count('replayed')} replayed, 0 full, all equal to "
            "the oracle"
        )
    return 0


def check() -> int:
    """Fast self-test: every fast path == the reference, tiny scale.

    Exit code 1 on any divergence.  Cheap enough for CI (a few seconds):
    the goal is catching a desync between the materialized, vectorized,
    plane-recording and group-replay paths and the reference
    behaviour, not measuring speed.
    """
    scale, seed, slice_refs = 0.00005, 0, 4_000
    materialize.clear_registry()
    missplane.clear_registry()
    live = build_workload(scale, seed=seed)
    plane = materialize.get_workload(
        scale, seed, cache_dir=None, slice_refs=slice_refs
    )
    for a, b in zip(live, plane.programs):
        for field in ("kinds", "addrs"):
            flat_live = np.concatenate([getattr(c, field) for c in a.chunks()])
            flat_plane = np.concatenate([getattr(c, field) for c in b.chunks()])
            if not np.array_equal(flat_live, flat_plane):
                print(
                    f"CHECK FAILED: {a.spec.name} {field} diverge between "
                    "live synthesis and materialized replay"
                )
                return 1
    if _check_planes(scale, seed, slice_refs):
        return 1
    if _check_sweep(scale, seed, slice_refs):
        return 1
    print(
        f"check OK: {plane.total_refs} refs replay byte-identical; "
        "recording runs and group replays match the plain runs; sweep "
        "records match full simulation over live synthesis"
    )
    return 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The gate flags, shared by the CLI subcommand and ``main``."""
    gate = parser.add_mutually_exclusive_group(required=True)
    gate.add_argument(
        "--check",
        action="store_true",
        help="fast equivalence self-test of the sweep engine's fast paths",
    )
    gate.add_argument(
        "--replay",
        action="store_true",
        help=(
            "replay-kernel identity gate: fails if any cell's vectorized "
            "output diverges from the scalar oracle"
        ),
    )


def run(args: argparse.Namespace) -> int:
    """Run the gate that ``args`` selects; 1 on any divergence."""
    return check() if args.check else replay_gate()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
