"""Simulator-throughput snapshots: ``rampage-sim bench``.

Two instruments, both appended as one snapshot:

* **hot-loop throughput** -- references simulated per wall-clock second
  per machine, the same drive loop as
  ``benchmarks/bench_simulator_throughput.py``.  Each round drives a
  fresh machine over ~120 k references; the best of ``--rounds``
  (default 4) is recorded, which filters scheduler noise the way
  pytest-benchmark's min-based ranking does.
* **multi-cell sweep wall-clock** -- a serial :class:`Runner` filling a
  cold run-record cache through the sweep engine: the workload is
  materialized once, each plane group records one miss plane and its
  siblings replay as timing arithmetic.  The best-of-rounds wall time
  is recorded as ``wall_s``.  Timing one commit against another is the
  repository benchmark's job (``perfbench/``), which runs the parent
  and the change in alternating pairs.

The sweep shape matches what the paper's tables actually do: hold the
geometry fixed and sweep the CPU/DRAM speed ratio (three issue rates,
one size, three machines including switch-on-miss RAMpage -- nine
cells in three plane groups).  Each snapshot also records the sweep's
replay-mode mix (``full`` / ``recorded`` / ``replayed`` cell counts),
so a regression that silently drops cells back to full simulation
shows up in the history.

Environment fields (host, python, cpu) are **derived, never
hand-edited**: earlier snapshots drifted ("container" vs "vm" for the
same machine) because they were typed in; this tool computes them
itself on every append and warns when the environment changed since the
previous snapshot, since refs/s are only comparable within one host.

``--check`` runs a fast self-test on a tiny workload instead of
benchmarking: the materialized trace must carry the same references as
live synthesis; for plane-eligible machines a plane-recording run and
the group replay must both match the plain simulation; and a cold
sweep must replay every plane-eligible cell and leave records equal to
full simulation over live synthesis, the oracle.  CI uses it as a
smoke gate so none of the fast paths can silently desync from the
reference behaviour.

``--replay`` additionally runs the decision-op **replay-kernel
microbenchmark**: one plane per machine (plain RAMpage, whose tape
holds only ``SYNC`` rows, and the preempting switch-on-miss RAMpage and
virtual-L1), its nine-cell sibling grid (three issue rates x three
Rambus timings) priced by the scalar ``_replay_timeline`` interpreter
versus the vectorized
:class:`~repro.trace.replay_kernel.ReplayKernel` (cold build + batched
``price_many``, and warm on the memoized kernel).  Every cell's
vectorized output is compared to the scalar oracle first and any
mismatch fails the run -- the CI identity gate for the kernel.

Usage:
    rampage-sim bench [--rounds N] [--note TEXT] [--out FILE] [--replay]
    rampage-sim bench --check
    PYTHONPATH=src python -m repro.cli bench [...]   # from a source checkout
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from datetime import date
from pathlib import Path

import numpy as np

from repro.analysis.runtime import RunRecord
from repro.core.clock import cycle_time_ps
from repro.core.params import RambusParams
from repro.core.timer import ScopedTimer, refs_per_second
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Runner
from repro.systems.factory import (
    baseline_machine,
    build_system,
    rampage_machine,
    twoway_machine,
    virtual_l1_machine,
)
from repro.systems.simulator import simulate
from repro.trace import filter as missplane
from repro.trace import materialize
from repro.trace.interleave import InterleavedWorkload
from repro.trace.replay_kernel import ReplayKernel
from repro.trace.synthetic import build_workload

REFS = 120_000
SCALE = 0.0002
SLICE_REFS = 10_000

MACHINES = {
    "conventional": lambda: baseline_machine(10**9, 512),
    "rampage": lambda: rampage_machine(10**9, 1024),
}

#: Multi-cell sweep shape: three grids over three issue rates at one
#: size -- nine cells in three plane groups, the speed-ratio sweep every
#: paper table runs.  ``rampage_som`` exercises the preempting
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


def environment() -> dict:
    """Derived environment fields -- never taken from hand-edited JSON."""
    return {
        "host": platform.node() or "unknown",
        "os": f"{platform.system()} {platform.release()}",
        "arch": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def drive(params) -> int:
    system = build_system(params)
    workload = InterleavedWorkload(
        build_workload(scale=SCALE), slice_refs=SLICE_REFS
    )
    consumed = 0
    while consumed < REFS:
        chunk = workload.next_chunk()
        if chunk is None:
            break
        consumed += system.run_chunk(chunk)
    return consumed


def measure(rounds: int) -> dict[str, int]:
    throughput: dict[str, int] = {}
    for name, build in MACHINES.items():
        best = 0.0
        for _ in range(rounds):
            params = build()
            with ScopedTimer() as timer:
                consumed = drive(params)
            best = max(best, refs_per_second(consumed, timer.elapsed))
        throughput[name] = int(round(best))
        print(f"{name}: {throughput[name]:,} refs/s (best of {rounds})")
    return throughput


def sweep_config(cache_dir: Path) -> ExperimentConfig:
    return ExperimentConfig(
        scale=SWEEP_SCALE,
        slice_refs=SWEEP_SLICE_REFS,
        issue_rates=SWEEP_RATES,
        sizes=SWEEP_SIZES,
        seed=0,
        cache_dir=cache_dir,
    )


def run_sweep() -> tuple[float, dict]:
    """One cold-cache serial sweep; returns (wall seconds, mode mix).

    A fresh temp cache directory per call keeps the run-record cache,
    the trace and the miss planes cold (the in-process registries key
    on the cache directory), so every round pays one synthesis, one
    recording per plane group and the replays of its siblings.  The
    mode mix counts ``cell_completed`` events by their ``mode`` field.
    """
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        runner = Runner(sweep_config(Path(tmp)))
        with ScopedTimer() as timer:
            for label in SWEEP_LABELS:
                runner.grid(label)
        modes = [e["mode"] for e in runner.events.of("cell_completed")]
        mix = {mode: modes.count(mode) for mode in sorted(set(modes))}
        return timer.elapsed, mix


def measure_sweep(rounds: int) -> dict:
    cells = len(SWEEP_LABELS) * len(SWEEP_SIZES) * len(SWEEP_RATES)
    wall = float("inf")
    modes: dict = {}
    for _ in range(rounds):
        elapsed, mix = run_sweep()
        if elapsed < wall:
            wall, modes = elapsed, mix
    print(f"sweep ({cells} cells, cold cache): {wall:.3f}s, modes {modes}")
    return {
        "cells": cells,
        "labels": list(SWEEP_LABELS),
        "sizes": list(SWEEP_SIZES),
        "rates": list(SWEEP_RATES),
        "scale": SWEEP_SCALE,
        "slice_refs": SWEEP_SLICE_REFS,
        "wall_s": round(wall, 4),
        "modes": modes,
    }


def measure_replay(rounds: int) -> dict:
    """``--replay``: scalar vs vectorized group re-pricing, plus a gate.

    Records one plane per machine at the sweep scale -- plain RAMpage
    (``SYNC`` rows only), switch-on-miss RAMpage and switch-on-miss
    virtual-L1 -- then prices the nine-cell sibling grid
    (:data:`SWEEP_RATES` × :data:`REPLAY_DRAM_TIMINGS`) three ways:

    * **scalar** -- the per-cell ``_replay_timeline`` interpreter, the
      pre-kernel ``replay_group`` behaviour;
    * **group** -- a cold :class:`~repro.trace.replay_kernel.ReplayKernel`
      build plus one batched ``price_many`` (what a fresh plane costs);
    * **warm** -- ``price_many`` on the memoized kernel (what every
      further ``replay_group`` call on a registry-served plane costs).

    Every (cell, machine) output is compared against the scalar oracle
    first; any mismatch is counted and fails the run -- this is the CI
    identity gate, not just a speed report.
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
    report: dict = {
        "cells": len(timings),
        "rates": list(SWEEP_RATES),
        "dram_timings": [repr(dram) for dram in REPLAY_DRAM_TIMINGS],
        "scale": SWEEP_SCALE,
        "slice_refs": SWEEP_SLICE_REFS,
        "mismatches": 0,
        "machines": {},
    }
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
        kernel = ReplayKernel(plane.dops)
        scalar_out = [
            missplane._replay_timeline(dram, cyc, columns)
            for dram, cyc in timings
        ]
        kernel_out = kernel.price_many(timings)
        bad = sum(1 for a, b in zip(scalar_out, kernel_out) if a != b)
        if bad:
            print(
                f"REPLAY GATE FAILED: {label}: {bad}/{len(timings)} cells "
                "diverge between the scalar and vectorized kernels"
            )
            report["mismatches"] += bad
            continue
        scalar_wall = group_wall = warm_wall = float("inf")
        for _ in range(rounds):
            with ScopedTimer() as timer:
                for dram, cyc in timings:
                    missplane._replay_timeline(dram, cyc, columns)
            scalar_wall = min(scalar_wall, timer.elapsed)
            with ScopedTimer() as timer:
                ReplayKernel(plane.dops).price_many(timings)
            group_wall = min(group_wall, timer.elapsed)
            with ScopedTimer() as timer:
                kernel.price_many(timings)
            warm_wall = min(warm_wall, timer.elapsed)
        ops = len(plane.dops) * len(timings)
        entry = {
            "dops": int(len(plane.dops)),
            "contended_ops": int(kernel.contended_ops),
            "scalar_wall_s": round(scalar_wall, 6),
            "group_wall_s": round(group_wall, 6),
            "warm_wall_s": round(warm_wall, 6),
            "speedup": round(scalar_wall / group_wall, 2),
            "warm_speedup": round(scalar_wall / warm_wall, 2),
            "kernel_ops_per_s": int(round(ops / warm_wall)),
        }
        report["machines"][label] = entry
        print(
            f"replay {label}: {len(timings)} cells x {entry['dops']} dops "
            f"({entry['contended_ops']} contended), scalar "
            f"{scalar_wall * 1e3:.2f} ms, group {group_wall * 1e3:.2f} ms "
            f"({entry['speedup']:.1f}x), warm {warm_wall * 1e3:.2f} ms "
            f"({entry['warm_speedup']:.1f}x, "
            f"{entry['kernel_ops_per_s']:,} ops/s)"
        )
    return report


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
    """Benchmark flags, shared by the CLI subcommand and the tool."""
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument(
        "--sweep-rounds",
        type=int,
        default=3,
        help="rounds for the multi-cell sweep benchmark",
    )
    parser.add_argument(
        "--note", default="", help="what changed since the last snapshot"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fast equivalence self-test (no benchmark, no file write)",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help=(
            "also run the decision-op replay-kernel microbenchmark "
            "(scalar vs vectorized group re-pricing on plain and "
            "preempting grids); fails if any cell's vectorized output "
            "diverges from the scalar oracle"
        ),
    )
    parser.add_argument(
        "--out",
        default="",
        help="snapshot file to append to (default: ./BENCH_throughput.json)",
    )


def run(args: argparse.Namespace) -> int:
    """Execute the benchmark (or ``--check``) described by ``args``."""
    if args.check:
        return check()

    path = Path(args.out) if args.out else Path.cwd() / "BENCH_throughput.json"
    if path.exists():
        data = json.loads(path.read_text("utf-8"))
    else:
        data = {
            "unit": "refs_per_second",
            "workload": {"refs": REFS, "scale": SCALE, "slice_refs": SLICE_REFS},
            "snapshots": [],
        }

    env = environment()
    snapshots = data.get("snapshots", [])
    if snapshots:
        last = snapshots[-1]
        drift = [
            key
            for key in ("host", "python", "cpu_count")
            if key in last and last[key] != env[key]
        ]
        if drift:
            print(
                "note: environment changed since last snapshot "
                f"({', '.join(drift)}); refs/s are only comparable within one host"
            )

    snapshot = {
        "date": date.today().isoformat(),
        **env,
        "note": args.note,
        "throughput": measure(args.rounds),
        "sweep": measure_sweep(args.sweep_rounds),
    }
    if args.replay:
        replay = measure_replay(args.sweep_rounds)
        if replay["mismatches"]:
            return 1
        snapshot["replay_kernel"] = replay
    snapshots.append(snapshot)
    data["snapshots"] = snapshots
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
