"""Shared constants and helpers for the repository benchmark.

Everything here is stdlib-only, so the orchestrator can refuse to run
(rather than crash half-way) when the checkout holds no ``src/repro``.
Workload parameters live in :data:`WORKLOADS`; their fingerprint keys
the stored output digests, so changing a parameter can never silently
compare against stale expectations.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch state inside the checkout: per-seed templates and run dirs.
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED_PATH = BENCH_DIR / "expected.json"

PAPER_LABELS = ("baseline", "rampage", "rampage_som", "twoway")
PLANE_LABELS = PAPER_LABELS + ("rampage_vl1",)
PAPER_RATES = (200_000_000, 1_000_000_000, 4_000_000_000)
SIZES = (128, 256, 512, 1024, 2048, 4096)
SLICE_REFS = 20_000

WORKLOADS = {
    # 72 cells, 24 of them recorded full simulations; ``passes`` warm
    # passes follow each fill in the same process.
    "paper_cold": {"scale": 0.00003, "min_reps": 3, "passes": 30},
    # Open loop against the daemon; shares are of all scheduled ops.
    # The last five are the production op profile of
    # tools/service_load.py (2% cold sweeps, 45% warm re-submits, 30%
    # record fetches, 15% job-status polls, 8% health checks) scaled to
    # 70%; new jobs and reports, which that profile lacks, take the
    # other 30%, split to give each measured class enough samples.
    "service_mix": {
        "scale": 0.00002,
        "cold_scale": 0.00001,
        "rate_per_s": 24.0,
        "connections": 2,
        "shares": {
            "submit": 0.10,
            "report": 0.20,
            "cold": 0.014,
            "resubmit": 0.315,
            "record": 0.21,
            "status": 0.105,
            "health": 0.056,
        },
        "cold_label": "rampage",
        "cold_size": 1024,
        "setups": 5,
    },
}


def fingerprint(workload: str) -> str:
    """Short hash of a workload's parameters (templates, digests)."""
    blob = json.dumps(
        {"params": WORKLOADS[workload], "slice": SLICE_REFS}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def checkout_ok() -> bool:
    """True when the checkout holds the simulator's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_json(args: list[str], timeout: float) -> dict:
    """Run a benchmark helper script; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn_worker(spec: dict, timeout: float = 170.0) -> dict:
    """One repetition in a fresh interpreter (``worker.py``).

    Dirty pages left by earlier repetitions are flushed first, so their
    writeback does not land inside this repetition's fsyncs.
    ``spawn_t`` is taken on the system-wide monotonic clock just before
    the child starts, so the child can report its own set-up time
    (interpreter start, imports, template copy) on the same clock.
    """
    os.sync()
    spec = {**spec, "spawn_t": time.monotonic()}
    return run_json([str(BENCH_DIR / "worker.py"), json.dumps(spec)], timeout)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (exclusive method), 0.0 when empty."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100)[pct - 1])


# ----------------------------------------------------------------------
# Templates: identical on-disk start state per seed and program
# ----------------------------------------------------------------------


def program_digest() -> str:
    """Short hash of every source file under ``src`` (paths + bytes).

    Templates are keyed by it, so two versions of the program sharing
    one checkout's ``.bench_build`` never serve each other's records.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def ensure_template(seed: int) -> tuple[Path, float]:
    """The ``service_mix`` start state for ``seed``, built when absent.

    Keyed by the workload's parameters and the program's sources.
    Built into a temporary sibling and renamed into place, so a killed
    build never leaves a half-written template behind.  Returns the
    path and the build time (0.0 when it already existed).
    """
    name = f"service_mix-{fingerprint('service_mix')}-{program_digest()}-s{seed}"
    final = WORK / "templates" / name
    if final.is_dir():
        return final, 0.0
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    start = time.perf_counter()
    spawn_worker({"task": "template", "seed": seed, "cache": str(tmp / "cache")}, 600.0)
    os.replace(tmp, final)
    return final, time.perf_counter() - start


def clone_template(template: Path, target: Path) -> None:
    """Give ``target`` the template's exact contents.

    Trace and plane artifacts are only ever read (a corrupt one is
    renamed aside, never rewritten), so they are hard-linked: copying
    them would put tens of megabytes of writeback in front of every
    repetition's fsyncs.  Everything else is copied.
    """

    def place(src: str, dst: str) -> None:
        if {"traces", "planes"} & set(Path(src).relative_to(template).parts):
            os.link(src, dst)
        else:
            shutil.copy2(src, dst)

    shutil.copytree(template, target, copy_function=place)


# ----------------------------------------------------------------------
# Environment and expectations
# ----------------------------------------------------------------------


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = path.resolve()
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = str(path) == mount or str(path).startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment() -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "filesystem": filesystem_of(WORK),
    }


def load_expected() -> dict:
    try:
        return json.loads(EXPECTED_PATH.read_text("utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}


def expected_for(workload: str, seed: int, seconds: int) -> dict | None:
    """Stored digests for this workload/seed, or ``None`` if not stored.

    Service digests also depend on the run length (the schedule, and so
    the set of cold jobs, scales with it), hence the ``seed:seconds``
    key there.  Digests stored under other workload parameters are
    ignored, with a warning.
    """
    entry = load_expected().get(workload, {})
    if entry.get("fingerprint") != fingerprint(workload):
        if entry:
            print(f"warning: expected.json is stale for {workload}", file=sys.stderr)
        return None
    key = f"{seed}:{seconds}" if workload == "service_mix" else str(seed)
    return entry.get("digests", {}).get(key)
