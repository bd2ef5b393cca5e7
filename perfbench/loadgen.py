"""Seeded open-loop load for the ``service_mix`` workload.

One process, ``connections`` threads, each holding at most one HTTP
connection at a time.  The schedule fixes every operation's due time at
an even spacing of ``1 / rate_per_s`` seconds, so the offered rate does
not depend on how fast the daemon answers; a thread that is still busy
when an operation falls due sends it late, and every latency is timed
from the due time, so a stall shows in the operations queued behind it.

Operation kinds (shares and their source in ``common.WORKLOADS``):

* ``submit``   -- a new job over cached cells: a distinct 4-cell
  subset of the pre-filled grids, so the job journals entries;
* ``resubmit`` -- an idempotent re-submit of a job due at least a
  second earlier;
* ``report``   -- ``GET /v1/reports/<name>?format=<fmt>``;
* ``record``   -- ``GET /v1/records/<key>``, half with ``If-None-Match``;
* ``status``   -- ``GET /v1/jobs/<id>`` of a warm job submitted before
  the timed load;
* ``health``   -- ``GET /healthz``;
* ``cold``     -- a job at a fresh seed and tiny scale, which must
  synthesize a trace, record a plane and replay its siblings.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from collections import Counter, defaultdict

from common import PAPER_RATES, PLANE_LABELS, SIZES, SLICE_REFS, WORKLOADS

PARAMS = WORKLOADS["service_mix"]
TIMEOUT_S = 60.0
BLOCK = 20


def _grid_spec(labels, rates, sizes, seed: int) -> dict:
    return {
        "labels": list(labels),
        "rates": list(rates),
        "sizes": list(sizes),
        "scale": PARAMS["scale"],
        "slice_refs": SLICE_REFS,
        "seed": seed,
    }


def warm_spec(seed: int) -> dict:
    """The job polled by ``status`` operations: the profile's warm grid."""
    return _grid_spec(("baseline", "rampage"), PAPER_RATES, SIZES, seed)


def _kind_sequence(rng: random.Random, total: int) -> list[str]:
    """Operation kinds in proportion, evenly mixed, shuffled locally.

    Kinds are dealt by largest accumulated share (smooth round-robin),
    so every stretch of the schedule carries the same mix, and then
    shuffled by the seed within blocks of ``BLOCK`` operations.  Cold
    jobs keep their evenly spaced slots: a chance cluster of them would
    swing the job tail from one seed to the next.
    """
    shares = PARAMS["shares"]
    credit = dict.fromkeys(shares, 0.0)
    kinds = []
    for _ in range(total):
        for kind, share in shares.items():
            credit[kind] += share
        kind = max(credit, key=credit.get)
        credit[kind] -= 1.0
        kinds.append(kind)
    for start in range(0, total, BLOCK):
        block = [k for k in kinds[start:start + BLOCK] if k != "cold"]
        rng.shuffle(block)
        kinds[start:start + BLOCK] = [
            "cold" if k == "cold" else block.pop() for k in kinds[start:start + BLOCK]
        ]
    return kinds


def build_schedule(seed: int, seconds: float, report_kinds, record_keys) -> list[dict]:
    """Every operation of one run, in due order (pure function of seed)."""
    rng = random.Random(f"service_mix:{seed}")
    kinds = _kind_sequence(rng, max(1, int(PARAMS["rate_per_s"] * seconds)))
    reports = []
    while len(reports) < kinds.count("report"):
        reports.extend(rng.sample(report_kinds, len(report_kinds)))
    reports = iter(reports)
    # One job shape (2 labels x 1 rate x 2 sizes, 450 distinct jobs),
    # so the job tail does not depend on which shapes a seed drew.
    pool = [
        (labels, rates, sizes)
        for labels in itertools.combinations(PLANE_LABELS, 2)
        for rates in itertools.combinations(PAPER_RATES, 1)
        for sizes in itertools.combinations(SIZES, 2)
    ]
    rng.shuffle(pool)
    fresh = iter(pool)
    cold_seeds = itertools.count(1_000_000 + 10_000 * seed)
    ops: list[dict] = []
    submitted: list[tuple[float, dict]] = []
    for index, kind in enumerate(kinds):
        due = index / PARAMS["rate_per_s"]
        op: dict = {"kind": kind, "due": due}
        earlier = [spec for t, spec in submitted if t <= due - 1.0]
        if kind == "resubmit" and not earlier:
            kind = op["kind"] = "submit"
        if kind == "submit":
            op["spec"] = _grid_spec(*next(fresh), seed)
            submitted.append((due, op["spec"]))
        elif kind == "resubmit":
            op["spec"] = rng.choice(earlier)
        elif kind == "cold":
            op["spec"] = {
                "labels": [PARAMS["cold_label"]],
                "rates": list(PAPER_RATES),
                "sizes": [PARAMS["cold_size"]],
                "scale": PARAMS["cold_scale"],
                "slice_refs": SLICE_REFS,
                "seed": next(cold_seeds),
            }
        elif kind == "report":
            op["report"] = next(reports)
        elif kind == "record":
            op["key"] = rng.choice(record_keys)
            op["conditional"] = rng.random() < 0.5
        ops.append(op)
    return ops


class LoadGenerator:
    """Sends a schedule to one daemon and checks every answer."""

    def __init__(self, port: int, schedule, report_bytes, record_bytes, query: str):
        self.port = port
        self.schedule = schedule
        self.report_bytes = report_bytes
        self.record_bytes = record_bytes
        self.query = query
        self.results: list[dict] = []
        self.routes: dict[str, list[float]] = defaultdict(list)
        self.status = Counter()
        self.conditional = Counter()
        self.warm_id: str | None = None
        self._lock = threading.Lock()
        self._next = 0

    # -- transport -----------------------------------------------------

    def _request(self, route: str, method: str, path: str, body=None, headers=None):
        start = time.monotonic()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        end = time.monotonic()
        with self._lock:
            self.routes[route].append((end - start) * 1e3)
            self.status[f"{resp.status // 100}xx"] += 1
        return resp, data, end

    def _wait_terminal(self, job_id: str) -> float:
        """Follow the job's SSE stream; returns when it turned terminal."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            resp = conn.getresponse()
            while True:
                line = resp.readline()
                if not line:
                    break
                if line.startswith(b"event: job_"):
                    if line.strip() in (b"event: job_completed", b"event: job_failed"):
                        break
        finally:
            conn.close()
        return time.monotonic()

    # -- operations ----------------------------------------------------

    def _job(self, op: dict) -> tuple[float, str | None, dict]:
        body = json.dumps(op["spec"]).encode()
        resp, data, end = self._request(
            "post_jobs", "POST", "/v1/jobs", body, {"Content-Type": "application/json"}
        )
        if resp.status not in (200, 201):
            return end, f"POST /v1/jobs -> {resp.status}", {}
        job = json.loads(data)
        if job["status"] not in ("completed", "failed"):
            end = self._wait_terminal(job["id"])
            resp, data, _ = self._request("get_job", "GET", f"/v1/jobs/{job['id']}")
            if resp.status != 200:
                return end, f"GET job -> {resp.status}", {}
            job = json.loads(data)
        if job["status"] != "completed" or job["done"] != job["total"]:
            return end, f"job {job['id']} ended {job['status']}", job
        modes = job["modes"]
        if op["kind"] == "cold":
            if modes.get("full") or modes.get("recorded", 0) + modes.get("replayed", 0) != job["total"]:
                return end, f"cold job modes {modes}", job
        elif modes != {"cached": job["total"]}:
            return end, f"cached job modes {modes}", job
        return end, None, job

    def _report(self, op: dict) -> tuple[float, str | None]:
        name, fmt = op["report"]
        resp, data, end = self._request(
            "get_report", "GET", f"/v1/reports/{name}?format={fmt}&{self.query}"
        )
        if resp.status != 200:
            return end, f"report {name}.{fmt} -> {resp.status}"
        if data != self.report_bytes[(name, fmt)]:
            return end, f"report {name}.{fmt} differs from the offline export"
        return end, None

    def _record(self, op: dict) -> tuple[float, str | None]:
        blob, etag = self.record_bytes[op["key"]]
        headers = {"If-None-Match": etag} if op["conditional"] else {}
        resp, data, end = self._request(
            "get_record", "GET", f"/v1/records/{op['key']}", headers=headers
        )
        with self._lock:
            if op["conditional"]:
                self.conditional["sent"] += 1
                self.conditional["304"] += resp.status == 304
        if op["conditional"] and resp.status == 304:
            return end, None
        if resp.status != 200 or data != blob:
            return end, f"record {op['key']} -> {resp.status}, bytes differ from disk"
        return end, None

    def _status(self) -> tuple[float, str | None]:
        resp, data, end = self._request("get_job", "GET", f"/v1/jobs/{self.warm_id}")
        if resp.status != 200 or json.loads(data)["status"] != "completed":
            return end, f"warm job status -> {resp.status} {data[:80]!r}"
        return end, None

    def _health(self) -> tuple[float, str | None]:
        resp, data, end = self._request("get_health", "GET", "/healthz")
        if resp.status != 200 or not isinstance(json.loads(data), dict):
            return end, f"/healthz -> {resp.status}"
        return end, None

    def _run_one(self, op: dict, due: float) -> dict:
        sent = time.monotonic()
        result = {"kind": op["kind"], "due": op["due"], "late_ms": (sent - due) * 1e3}
        try:
            if op["kind"] in ("submit", "resubmit", "cold"):
                end, error, job = self._job(op)
                result["job"] = job.get("id")
            elif op["kind"] == "report":
                end, error = self._report(op)
            elif op["kind"] == "record":
                end, error = self._record(op)
            elif op["kind"] == "status":
                end, error = self._status()
            else:
                end, error = self._health()
        except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            end, error = time.monotonic(), f"{type(exc).__name__}: {exc}"
        result["latency_ms"] = (end - due) * 1e3
        result["error"] = error
        return result

    def _worker(self, t0: float) -> None:
        while True:
            with self._lock:
                index = self._next
                self._next += 1
            if index >= len(self.schedule):
                return
            op = self.schedule[index]
            due = t0 + op["due"]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            result = self._run_one(op, due)
            with self._lock:
                self.results.append(result)

    def run(self, warm: dict) -> None:
        """Submit the warm job and wait for it, then send the schedule."""
        end, error, job = self._job({"kind": "warm", "spec": warm})
        if error:
            raise RuntimeError(f"warm job: {error}")
        self.warm_id = job["id"]
        self.routes.clear()
        self.status.clear()
        t0 = time.monotonic() + 0.1
        threads = [
            threading.Thread(target=self._worker, args=(t0,), daemon=True)
            for _ in range(PARAMS["connections"])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(self.schedule[-1]["due"] + 120.0)
