#!/usr/bin/env python
"""Fabric smoke gate for the sweep-service daemon.

Stands up a real in-process daemon (the same ``ServiceThread`` harness
the HTTP tests use) with two fabric worker processes, submits the 9-cell
bench grid and, while the fabric executes, runs a concurrent burst of
health and status polls.  The run fails on any burst-client error, any
lease conflict in the journal, any unreleased lease, or any record
byte-mismatch against a serial :class:`Runner` ground truth.

Usage:
    PYTHONPATH=src python tools/service_load.py

Service latency and throughput are measured by perfbench's
``service_mix`` workload, not here.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import SWEEP_LABELS, sweep_config  # noqa: E402
from repro.experiments.runner import Runner, iter_cache_files  # noqa: E402
from repro.service import (  # noqa: E402
    ServiceClient,
    ServiceError,
    ServiceThread,
    SweepService,
)
from repro.service.jobs import JobStore  # noqa: E402


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


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="rampage-smoke-") as tmp:
        root = Path(tmp)
        config = sweep_config(root / "cache")
        state_dir = root / "cache" / "service"
        svc = SweepService(config, port=0, queue_limit=8, fabric=2)
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


if __name__ == "__main__":
    raise SystemExit(main())
