#!/usr/bin/env python
"""End-to-end smoke test for the sweep-service daemon (CI gate).

Drives a real ``rampage-sim serve`` subprocess through the full service
contract over the standard six-cell bench grid (two machines, three
issue rates — the speed-ratio sweep every paper table runs):

1. start the daemon on a free port and wait for its ready line,
2. submit the grid over HTTP and stream SSE progress to completion,
3. fetch every record and assert it is **byte-identical** to what the
   serial in-process :class:`Runner` produces for the same cells, then
   fetch each grid's JSON report twice over ``/v1/reports`` and assert
   both equal the offline ``export_report(build_report(...))``, with
   completeness 1.0, plus a well-formed SVG document; overwrite one
   record in place with same-length garbage, its mtime restored, and
   assert the report answers 409 at ``min_complete=1.0`` -- the daemon's
   read memos never serve stale bytes -- then restore the record and
   assert the original report bytes again,
4. SIGKILL the daemon mid-restart-resubmission, restart it over the
   same state directory, and assert the journalled job finishes
   entirely from cache (zero ``mode=full`` cells),
5. run ``rampage-sim cache verify`` over the daemon's cache: every
   record, trace and plane it wrote must pass the one validator,
6. submit one cell at the paper's full scale and assert the daemon
   refuses it with 413 at admission,
7. SIGTERM the daemon and check it drains gracefully (exit code 0).

Run it locally with ``python tools/service_smoke.py``.  Exits nonzero
on the first violated invariant.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from xml.etree import ElementTree

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.bench import (  # noqa: E402
    SWEEP_LABELS,
    SWEEP_RATES,
    SWEEP_SCALE,
    SWEEP_SIZES,
    SWEEP_SLICE_REFS,
    sweep_config,
)
from repro.experiments.runner import (  # noqa: E402
    Runner,
    find_record,
    iter_cache_files,
)
from repro.reports import build_report, export_report  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.client import ServiceError  # noqa: E402

READY_TIMEOUT_S = 30
JOB_TIMEOUT_S = 600


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"  ok: {message}")


def spec_payload() -> dict:
    return {
        "labels": list(SWEEP_LABELS),
        "rates": list(SWEEP_RATES),
        "sizes": list(SWEEP_SIZES),
        "scale": SWEEP_SCALE,
        "slice_refs": SWEEP_SLICE_REFS,
        "seed": 0,
    }


def start_daemon(cache_dir: Path) -> tuple[subprocess.Popen, str]:
    """Launch ``rampage-sim serve`` on a free port; return (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            fail(f"daemon exited before ready (rc={proc.poll()})")
        print(f"  [daemon] {line.rstrip()}")
        if "listening on" in line:
            url = line.split("listening on", 1)[1].split()[0]
            # Keep draining stdout in the background so the daemon can
            # never block on a full pipe while a sweep runs.
            threading.Thread(
                target=_drain, args=(proc,), daemon=True
            ).start()
            return proc, url
    proc.kill()
    fail("daemon never printed its ready line")
    raise AssertionError  # unreachable


def _drain(proc: subprocess.Popen) -> None:
    for line in proc.stdout:
        print(f"  [daemon] {line.rstrip()}")


def serial_ground_truth(work_dir: Path) -> dict[str, bytes]:
    """Run the same grid serially into a separate cache; key -> bytes."""
    serial_cache = work_dir / "serial-cache"
    runner = Runner(sweep_config(serial_cache))
    for label in SWEEP_LABELS:
        runner.grid(label)
    return {
        path.stem: path.read_bytes() for path in iter_cache_files(serial_cache)
    }


def main() -> int:
    work_dir = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    cache_dir = work_dir / "cache"
    proc = None
    try:
        print("== leg 1: serve + submit + stream + byte-identical fetch ==")
        proc, url = start_daemon(cache_dir)
        client = ServiceClient(url)
        health = client.health()
        check(health["status"] == "ok", "daemon reports healthy")

        job = client.submit(spec_payload())
        total = len(SWEEP_LABELS) * len(SWEEP_RATES) * len(SWEEP_SIZES)
        check(job["created"] and job["total"] == total,
              f"six-cell bench grid accepted as job {job['id']}")

        progress = []

        def on_event(name, payload):
            if name == "cell_completed":
                progress.append(payload)
                print(f"  [sse] cell {payload['done']}/{payload['total']} "
                      f"({payload['mode']}, {payload['label']})")

        final = client.wait(job["id"], timeout=JOB_TIMEOUT_S,
                            on_event=on_event)
        check(final["status"] == "completed", "job completed")
        check(len(progress) == total,
              f"SSE streamed all {total} cell completions")

        truth = serial_ground_truth(work_dir)
        manifest = client.records(job["id"])
        check(len(manifest["records"]) == total, "record manifest is full")
        for cell in manifest["records"]:
            fetched = client.fetch_record(cell["key"])
            if fetched != truth.get(cell["key"]):
                fail(f"record {cell['key']} differs from serial runner")
        print(f"  ok: all {total} fetched records byte-identical to "
              "the serial runner")

        resubmit = client.submit(spec_payload())
        check(not resubmit["created"] and resubmit["id"] == job["id"],
              "resubmission is idempotent (same job, no new work)")

        print("== report leg: /v1/reports over the freshly warmed cache ==")
        report_spec = {k: v for k, v in spec_payload().items()
                       if k != "labels"}
        report_config = sweep_config(cache_dir)
        offline = {}
        for grid in SWEEP_LABELS:
            offline[grid] = export_report(
                build_report(grid, report_config), "json")
            served = [
                client.fetch_report(grid, format="json", min_complete=1.0,
                                    spec=report_spec)
                for _ in range(2)
            ]
            check(served == [offline[grid]] * 2,
                  f"report {grid} served twice, both byte-identical to "
                  "the offline export")
            payload = json.loads(served[0])
            check(payload["completeness"] == 1.0,
                  f"report {grid} is fully backed by cached records")
            check(len(payload["cells"]) == len(SWEEP_RATES) * len(SWEEP_SIZES)
                  and all(cell["record"] for cell in payload["cells"]),
                  f"report {grid} carries every cell's record")
        svg = client.fetch_report(SWEEP_LABELS[-1], format="svg",
                                  min_complete=1.0, spec=report_spec)
        ElementTree.fromstring(svg.decode("utf-8"))
        check(svg.lstrip().startswith(b"<svg"),
              "svg report is a well-formed SVG document")
        index = client.reports()
        check(set(SWEEP_LABELS) <= set(index["reports"]),
              "report index lists the sweep grids")
        grid = SWEEP_LABELS[0]
        victim = build_report(grid, report_config).cells[0]
        record_file = find_record(cache_dir, victim.key)
        original = record_file.read_bytes()
        stat = record_file.stat()

        def rewrite(blob: bytes) -> None:
            record_file.write_bytes(blob)
            os.utime(record_file, ns=(stat.st_atime_ns, stat.st_mtime_ns))

        rewrite(b"x" * len(original))
        try:
            client.fetch_report(grid, format="json", min_complete=1.0,
                                spec=report_spec)
        except ServiceError as exc:
            status = exc.status
        else:
            status = 200
        check(status == 409,
              f"record {victim.key} overwritten in place (same length and "
              f"mtime) is a gap: report {grid} answers {status}")
        rewrite(original)
        restored = client.fetch_report(grid, format="json", min_complete=1.0,
                                       spec=report_spec)
        check(restored == offline[grid],
              f"restored record: report {grid} serves its original bytes")

        print("== leg 2: SIGKILL mid-flight, journal recovery on restart ==")
        # Rewind the journal to the unacked submission: the daemon
        # committed the job but died before finishing it.
        journal = cache_dir / "service" / "journal.jsonl"
        lines = journal.read_text("utf-8").splitlines()
        submit_line = next(
            line for line in lines if json.loads(line)["op"] == "submit"
        )
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        journal.write_text(submit_line + "\n", "utf-8")

        proc, url = start_daemon(cache_dir)
        client = ServiceClient(url)
        recovered = client.wait(job["id"], timeout=JOB_TIMEOUT_S)
        check(recovered["status"] == "completed",
              "journalled job resumed and completed after restart")
        modes = recovered["modes"]
        check(modes.get("full", 0) == 0 and modes == {"cached": total},
              f"recovery re-simulated nothing (modes={modes})")

        print("== leg 3: the daemon's cache verifies; oversized jobs bounce ==")
        verify = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cache", "verify",
             "--dir", str(cache_dir)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        print("\n".join(f"  [verify] {line}"
                        for line in verify.stdout.splitlines()))
        check(verify.returncode == 0,
              "cache verify passes every record, trace and plane written")
        try:
            client.submit({"scale": 1.0})
        except ServiceError as exc:
            refused = exc.status
        else:
            refused = None
        check(refused == 413,
              f"a scale-1.0 job is refused at admission (status={refused})")

        print("== leg 4: graceful SIGTERM drain ==")
        proc.send_signal(signal.SIGTERM)
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("daemon did not drain within 60s of SIGTERM")
        check(rc == 0, f"daemon exited cleanly on SIGTERM (rc={rc})")

        print("SERVICE SMOKE PASS")
        return 0
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
