#!/usr/bin/env python
"""Load-generation harness for the sweep-service daemon.

Stands up a real in-process daemon (the same ``ServiceThread`` harness
the HTTP tests use) and hammers it with hundreds of concurrent clients
mixing the production op profile:

* **warm re-submits** -- idempotent submissions of an already-completed
  grid (the dominant op for a result service: same job key, instant
  terminal response),
* **record fetches** -- raw cache bytes through the sharded/fetch path,
* **status + health polls**,
* a small fraction of **cold sweeps** -- fresh seeds that must actually
  simulate, exercising admission control (429s are counted, not errors).

Default mode measures sustained throughput (ops/s, terminal-job
responses/s) and latency percentiles, and prints them as JSON.

``--smoke`` is the CI gate: a ``--fabric 2`` daemon serves the 9-cell
bench grid under a concurrent client burst, and the run fails on any
lease conflict in the journal or any record byte-mismatch against a
serial :class:`Runner` ground truth.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import SWEEP_LABELS, sweep_config  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.runner import Runner, iter_cache_files  # noqa: E402
from repro.service import (  # noqa: E402
    ServiceClient,
    ServiceError,
    ServiceThread,
    SweepService,
)
from repro.service.jobs import JobStore  # noqa: E402


def small_config(cache_dir: Path) -> ExperimentConfig:
    """A 4-cell grid: small enough that the daemon, not the simulator,
    is the bottleneck under load."""
    return ExperimentConfig(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(10**9,),
        sizes=(128, 1024),
        seed=0,
        cache_dir=cache_dir,
    )


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def scan_lease_conflicts(state_dir: Path) -> list[dict]:
    """Journal lease ops granted while another worker's live, unreleased
    lease covered the same group.  The claim protocol makes this
    impossible; any hit is a bug."""
    journal = Path(state_dir) / "journal.jsonl"
    if not journal.exists():
        return []
    held: dict[tuple[str, str], str] = {}
    conflicts: list[dict] = []
    for line in journal.read_text("utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        op = entry.get("op")
        if op == "lease":
            slot = (entry.get("id"), entry.get("group"))
            holder = held.get(slot)
            if holder is not None and holder != entry.get("worker"):
                conflicts.append(entry)
            held[slot] = entry.get("worker")
        elif op == "release":
            held.pop((entry.get("id"), entry.get("group")), None)
    return conflicts


# ----------------------------------------------------------------------
# Load mode
# ----------------------------------------------------------------------


def run_load(args: argparse.Namespace) -> dict:
    with tempfile.TemporaryDirectory(prefix="rampage-load-") as tmp:
        root = Path(tmp)
        config = small_config(root / "cache")
        svc = SweepService(
            config,
            port=0,
            workers=1,
            queue_limit=args.queue_limit,
            fabric=args.fabric,
        )
        thread = ServiceThread(svc)
        url = thread.start()
        try:
            seeder = ServiceClient(url)
            warm = seeder.submit({"labels": ["baseline", "rampage"]})
            final = seeder.wait(warm["id"], timeout=600)
            if final["status"] != "completed":
                raise RuntimeError(f"warm job did not complete: {final}")
            warm_id = warm["id"]
            record_keys = [cell["key"] for cell in final["cells"]]

            lock = threading.Lock()
            latencies_ms: list[float] = []
            counters = {
                "ops": 0,
                "terminal_jobs": 0,
                "throttled_429": 0,
                "errors": 0,
                "cold_submits": 0,
            }
            stop_at = time.monotonic() + args.duration

            def client_loop(index: int) -> None:
                rng = random.Random(index)
                client = ServiceClient(url, retries=0, timeout=30)
                while time.monotonic() < stop_at:
                    roll = rng.random()
                    started = time.perf_counter()
                    try:
                        if roll < args.cold_fraction:
                            job = client.submit(
                                {
                                    "labels": ["baseline"],
                                    "seed": rng.randrange(1, 10**6),
                                }
                            )
                            with lock:
                                counters["cold_submits"] += 1
                                if job["status"] in ("completed", "failed"):
                                    counters["terminal_jobs"] += 1
                        elif roll < args.cold_fraction + 0.45:
                            job = client.submit(
                                {"labels": ["baseline", "rampage"]}
                            )
                            with lock:
                                if job["status"] in ("completed", "failed"):
                                    counters["terminal_jobs"] += 1
                        elif roll < args.cold_fraction + 0.75:
                            client.fetch_record(rng.choice(record_keys))
                        elif roll < args.cold_fraction + 0.90:
                            client.job(warm_id)
                        else:
                            client.health()
                    except ServiceError as exc:
                        with lock:
                            if exc.status == 429:
                                counters["throttled_429"] += 1
                            else:
                                counters["errors"] += 1
                        continue
                    except Exception:
                        with lock:
                            counters["errors"] += 1
                        continue
                    elapsed_ms = (time.perf_counter() - started) * 1e3
                    with lock:
                        counters["ops"] += 1
                        latencies_ms.append(elapsed_ms)

            threads = [
                threading.Thread(target=client_loop, args=(index,), daemon=True)
                for index in range(args.clients)
            ]
            wall_start = time.monotonic()
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=args.duration + 120)
            wall = time.monotonic() - wall_start
        finally:
            thread.stop(timeout=120)

    return {
        "clients": args.clients,
        "duration_s": round(wall, 2),
        "fabric": args.fabric,
        "queue_limit": args.queue_limit,
        "ops": counters["ops"],
        "ops_per_s": round(counters["ops"] / wall, 1),
        "sustained_jobs_per_s": round(counters["terminal_jobs"] / wall, 1),
        "terminal_jobs": counters["terminal_jobs"],
        "cold_submits": counters["cold_submits"],
        "throttled_429": counters["throttled_429"],
        "errors": counters["errors"],
        "p50_ms": round(percentile(latencies_ms, 0.50), 2),
        "p99_ms": round(percentile(latencies_ms, 0.99), 2),
        "max_ms": round(max(latencies_ms), 2) if latencies_ms else 0.0,
    }


# ----------------------------------------------------------------------
# Smoke mode (CI gate)
# ----------------------------------------------------------------------


def run_smoke(args: argparse.Namespace) -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="rampage-smoke-") as tmp:
        root = Path(tmp)
        config = sweep_config(root / "cache")
        state_dir = root / "cache" / "service"
        svc = SweepService(
            config, port=0, queue_limit=8, fabric=max(2, args.fabric)
        )
        thread = ServiceThread(svc)
        url = thread.start()
        try:
            client = ServiceClient(url)
            job = client.submit({"labels": list(SWEEP_LABELS)})

            # A concurrent client burst while the fabric executes.
            burst_errors: list[str] = []
            stop = threading.Event()

            def burst(index: int) -> None:
                poke = ServiceClient(url, retries=0)
                while not stop.is_set():
                    try:
                        poke.health()
                        poke.job(job["id"])
                    except ServiceError as exc:
                        if exc.status != 429:
                            burst_errors.append(str(exc))
                    except Exception as exc:  # noqa: BLE001
                        burst_errors.append(str(exc))
                    time.sleep(0.01)

            pokers = [
                threading.Thread(target=burst, args=(index,), daemon=True)
                for index in range(8)
            ]
            for poker in pokers:
                poker.start()
            final = client.wait(job["id"], timeout=600)
            stop.set()
            for poker in pokers:
                poker.join(timeout=10)

            if final["status"] != "completed":
                failures.append(f"job finished {final['status']}: {final}")
            if final["done"] != final["total"] == 9:
                failures.append(
                    f"expected 9/9 cells, got {final['done']}/{final['total']}"
                )
            if burst_errors:
                failures.append(
                    f"{len(burst_errors)} burst-client errors "
                    f"(first: {burst_errors[0]})"
                )

            fetched = {
                cell["key"]: client.fetch_record(cell["key"])
                for cell in final["cells"]
            }
        finally:
            thread.stop(timeout=120)

        # Ground truth: serial runner over an independent cache.
        serial_cache = root / "serial"
        serial = Runner(sweep_config(serial_cache))
        serial.prefetch(list(SWEEP_LABELS))
        serial_bytes = {
            path.stem: path.read_bytes()
            for path in iter_cache_files(serial_cache)
        }
        mismatches = [
            key
            for key, blob in fetched.items()
            if serial_bytes.get(key) != blob
        ]
        if mismatches:
            failures.append(
                f"{len(mismatches)} record byte-mismatches vs serial runner"
            )

        conflicts = scan_lease_conflicts(state_dir)
        if conflicts:
            failures.append(f"{len(conflicts)} lease conflicts in journal")

        store = JobStore(state_dir)
        store.recover()
        leftover = {
            job.id: job.leases for job in store.jobs() if job.leases
        }
        if leftover:
            failures.append(f"unreleased leases after completion: {leftover}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "smoke ok: 9/9 bench cells via 2-worker fabric, "
        "0 lease conflicts, 0 record mismatches"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: fabric daemon, bench grid, byte/lease checks",
    )
    parser.add_argument(
        "--clients", type=int, default=100, help="concurrent client threads"
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, help="load phase seconds"
    )
    parser.add_argument(
        "--cold-fraction",
        type=float,
        default=0.02,
        help="fraction of ops that submit a fresh (cold) sweep",
    )
    parser.add_argument(
        "--fabric",
        type=int,
        default=0,
        help="fabric worker processes (0: in-daemon execution)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=8, help="admission queue bound"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    print(json.dumps(run_load(args), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
