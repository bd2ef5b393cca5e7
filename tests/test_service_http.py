"""End-to-end tests for the sweep-service HTTP daemon and client.

A real asyncio daemon runs on an ephemeral port inside the test
process.  The headline contract: records fetched over HTTP are
**byte-identical** to what the serial :class:`Runner` writes for the
same grid, and resubmitting a served grid never simulates anything.
"""

import asyncio
import json
import queue
import re
import urllib.error
import urllib.request
from dataclasses import dataclass

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Runner, iter_cache_files
from repro.service import ServiceClient, ServiceError, ServiceThread, SweepService
from repro.service.jobs import JobSpec, plan_cells
from repro.trace import materialize

LABELS = ("baseline", "rampage")


@pytest.fixture(autouse=True)
def fresh_trace_registry():
    materialize.clear_registry()
    yield
    materialize.clear_registry()


def config(cache_dir):
    return ExperimentConfig(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(10**9,),
        sizes=(128, 1024),
        seed=0,
        cache_dir=cache_dir,
    )


@pytest.fixture
def service(tmp_path):
    svc = SweepService(
        config(tmp_path / "cache"), port=0, workers=1, queue_limit=4
    )
    thread = ServiceThread(svc)
    url = thread.start()
    yield svc, url
    thread.stop()


def test_service_requires_a_cache_directory(tmp_path):
    with pytest.raises(ConfigurationError, match="cache directory"):
        SweepService(
            ExperimentConfig(
                scale=0.0001,
                slice_refs=4_000,
                issue_rates=(10**9,),
                sizes=(128,),
                cache_dir=None,
            )
        )


def test_end_to_end_submit_watch_fetch_byte_identical(service, tmp_path):
    svc, url = service
    client = ServiceClient(url)

    health = client.health()
    assert health["status"] == "ok"
    assert health["admission"]["limit"] == 4

    # Ground truth: the serial runner over an independent cache.
    serial = Runner(config(tmp_path / "serial"))
    for label in LABELS:
        serial.grid(label)

    job = client.submit({"labels": list(LABELS)})
    assert job["created"] is True
    assert job["total"] == 4
    assert job["admission"] == {
        "total": 4, "cached": 0, "inflight": 0, "fresh": 4,
    }

    seen = []
    final = client.wait(
        job["id"], timeout=120, on_event=lambda name, p: seen.append(name)
    )
    assert final["status"] == "completed"
    assert final["done"] == final["total"] == 4
    assert seen[0] == "job"  # SSE opens with a snapshot
    assert "job_completed" in seen

    manifest = client.records(job["id"])
    assert manifest["status"] == "completed"
    assert len(manifest["records"]) == 4
    assert all(cell["present"] for cell in manifest["records"])

    serial_files = {
        path.name: path.read_bytes()
        for path in iter_cache_files(tmp_path / "serial")
    }
    for cell in manifest["records"]:
        fetched = client.fetch_record(cell["key"])
        assert fetched == serial_files[f"{cell['key']}.json"]

    # Resubmitting the same grid is the same (finished) job.
    again = client.submit({"labels": list(LABELS)})
    assert again["created"] is False
    assert again["id"] == job["id"]
    assert again["status"] == "completed"

    # A fresh job over already-served cells never simulates: all hits.
    subset = client.submit({"labels": ["baseline"]})
    assert subset["created"] is True
    assert subset["admission"]["fresh"] == 0
    done = client.wait(subset["id"], timeout=60)
    assert done["status"] == "completed"
    assert done["modes"] == {"cached": 2}
    assert done["modes"].get("full", 0) == 0


def test_watch_streams_cell_progress(service):
    svc, url = service
    client = ServiceClient(url)
    job = client.submit({"labels": ["baseline"]})
    cells = []
    for name, payload in client.watch(job["id"]):
        if name == "cell_completed":
            cells.append((payload["done"], payload["total"], payload["mode"]))
        if name in ("job_completed", "job_failed"):
            break
    assert [item[:2] for item in cells] == [(1, 2), (2, 2)]
    assert all(mode in ("full", "recorded", "replayed", "cached")
               for _, _, mode in cells)


@dataclass
class _Job:
    id: str
    status: str

    @property
    def terminal(self) -> bool:
        return self.status in ("completed", "failed")

    def as_dict(self) -> dict:
        return {"id": self.id, "status": self.status}


class _ScriptedStore:
    """Reads the job running once, then terminal."""

    def __init__(self, running: _Job, finished: _Job) -> None:
        self._reads = [running]
        self._finished = finished

    def get(self, job_id: str) -> _Job:
        return self._reads.pop() if self._reads else self._finished


class _ScriptedScheduler:
    def __init__(self, payloads: list[dict]) -> None:
        self.channel: queue.Queue = queue.Queue()
        for payload in payloads:
            self.channel.put(payload)
        self.unsubscribed = False

    def subscribe(self, job_id: str) -> queue.Queue:
        return self.channel

    def unsubscribe(self, job_id: str, channel: queue.Queue) -> None:
        self.unsubscribed = True


class _Capture:
    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, blob: bytes) -> None:
        self.data += blob

    async def drain(self) -> None:
        pass


@pytest.mark.parametrize("terminal_queued", [False, True], ids=["progress", "terminal"])
def test_sse_drains_events_queued_after_the_job_turns_terminal(
    tmp_path, terminal_queued
):
    """The store reads the job terminal while a ``cell_completed`` is
    still queued (the scheduler journals before it broadcasts): the
    stream delivers it, then the terminal event exactly once."""
    job_id = "ab" * 8
    payloads = [
        {"event": "cell_completed", "job": job_id, "key": "k1", "done": 1},
        {"event": "cell_completed", "job": job_id, "key": "k2", "done": 2},
    ]
    if terminal_queued:
        payloads.append({"event": "job_completed", "job": job_id, "done": 2})
    svc = SweepService(config(tmp_path / "cache"), port=0, workers=1)
    svc.store = _ScriptedStore(_Job(job_id, "running"), _Job(job_id, "completed"))
    svc.scheduler = _ScriptedScheduler(payloads)
    writer = _Capture()
    asyncio.run(svc._stream_events(_Job(job_id, "running"), writer))
    events = re.findall(r"^event: (\S+)$", writer.data.decode("utf-8"), re.M)
    assert events == ["job", "cell_completed", "cell_completed", "job_completed"]
    assert svc.scheduler.channel.empty()
    assert svc.scheduler.unsubscribed


class _VanishedRecord:
    """A record path that was there when it was looked up and is gone
    when it is read: quarantined or purged in between."""

    def __init__(self, path) -> None:
        self.path = path

    def exists(self) -> bool:
        return True

    def read_bytes(self) -> bytes:
        raise FileNotFoundError(2, "No such file or directory", str(self.path))


def test_record_gone_after_its_lookup_is_a_404_naming_no_path(tmp_path, monkeypatch):
    key = "e6" + "0" * 22
    svc = SweepService(config(tmp_path / "cache"), port=0, workers=1)
    gone = _VanishedRecord(tmp_path / "cache" / "shards" / "e6" / f"{key}.json")
    monkeypatch.setattr(svc.scheduler, "record_path", lambda _key: gone)
    writer = _Capture()
    asyncio.run(svc._serve_record(key, {}, writer))
    head, _, body = bytes(writer.data).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 404 ")
    assert json.loads(body) == {"error": f"no record {key}"}
    assert str(tmp_path).encode() not in body


def test_http_error_surfaces(service):
    svc, url = service
    client = ServiceClient(url, retries=0)
    with pytest.raises(ServiceError) as excinfo:
        client.job("0" * 24)
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.job("NOT-HEX")
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client.fetch_record("../../../etc/passwd")
    assert excinfo.value.status in (400, 404)
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"labels": ["no_such_grid"]})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client._json("GET", "/no/such/route")
    assert excinfo.value.status == 404


def test_submit_rejects_malformed_json(service):
    svc, url = service
    request = urllib.request.Request(
        url + "/v1/jobs",
        data=b"{ torn",
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400


@pytest.mark.parametrize(
    "payload",
    [{"labels": 5}, {"scale": "inf"}, {"rates": "1000"}, {"rates": [0]}],
    ids=["labels-not-a-list", "scale-infinite", "rates-a-string", "rate-zero"],
)
def test_malformed_job_specs_are_rejected_at_admission(service, payload):
    """Admission (spec parsing plus planning) refuses what execution would."""
    svc, url = service
    with pytest.raises(ConfigurationError):
        plan_cells(JobSpec.from_request(payload, svc.config), svc.config)
    with pytest.raises(ServiceError) as excinfo:
        ServiceClient(url, retries=0).submit(payload)
    assert excinfo.value.status == 400


def test_backpressure_returns_429_with_retry_after(tmp_path):
    svc = SweepService(
        config(tmp_path / "cache"), port=0, workers=1, queue_limit=0
    )
    thread = ServiceThread(svc)
    url = thread.start()
    try:
        request = urllib.request.Request(
            url + "/v1/jobs", data=b"{}", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 429
        assert excinfo.value.headers.get("Retry-After") is not None

        # The typed client translates exhausted retries into ServiceError.
        sleeps = []
        client = ServiceClient(
            url, retries=2, sleep=sleeps.append, rng=lambda: 1.0
        )
        with pytest.raises(ServiceError) as excinfo:
            client.submit({})
        assert excinfo.value.status == 429
        assert len(sleeps) == 2  # one jittered wait per retry
        assert all(delay >= 1.0 for delay in sleeps)  # Retry-After floor
    finally:
        thread.stop()


def test_client_backoff_is_jittered_and_capped():
    client = ServiceClient(
        "http://127.0.0.1:1", retries=0, backoff=0.5, max_backoff=2.0,
        rng=lambda: 0.5,
    )
    assert client.backoff_delay(0) == pytest.approx(0.25)
    assert client.backoff_delay(1) == pytest.approx(0.5)
    assert client.backoff_delay(10) == pytest.approx(1.0)  # capped at 2.0*rng
    # A server Retry-After hint is honoured but capped at max_backoff.
    assert client.backoff_delay(0, floor=3.0) == pytest.approx(2.0)
    assert client.backoff_delay(0, floor=0.3) == pytest.approx(0.3)
    # Jitter landing at zero must not produce a hot 0.0-delay loop.
    frozen = ServiceClient(
        "http://127.0.0.1:1", retries=0, backoff=0.5, max_backoff=2.0,
        rng=lambda: 0.0,
    )
    assert frozen.backoff_delay(0) == pytest.approx(0.05 * 0.5)
    assert frozen.backoff_delay(10) == pytest.approx(0.05 * 2.0)


def test_client_retries_connection_errors():
    sleeps = []
    # Nothing listens on port 1; every attempt fails fast.
    client = ServiceClient(
        "http://127.0.0.1:1",
        retries=3,
        timeout=0.2,
        sleep=sleeps.append,
        rng=lambda: 0.0,
    )
    with pytest.raises(ServiceError, match="failed after 4 attempts"):
        client.health()
    assert len(sleeps) == 3


def test_daemon_restart_recovers_journal_and_serves_job(tmp_path):
    """Acceptance: the daemon dies mid-sweep (simulated by rewinding the
    journal to the unacked submission) and a fresh daemon over the same
    state finishes the job from the cache without re-simulating."""
    cache = tmp_path / "cache"
    svc = SweepService(config(cache), port=0, workers=1)
    thread = ServiceThread(svc)
    url = thread.start()
    client = ServiceClient(url)
    job = client.submit({"labels": list(LABELS)})
    final = client.wait(job["id"], timeout=120)
    assert final["status"] == "completed"
    thread.stop()

    # Crash simulation: the journal lost everything after the submit --
    # the run records themselves are safely in the cache.
    journal = svc.store.path
    submit_line = next(
        line
        for line in journal.read_text("utf-8").splitlines()
        if json.loads(line)["op"] == "submit"
    )
    journal.write_text(submit_line + "\n", "utf-8")

    svc2 = SweepService(config(cache), port=0, workers=1)
    thread2 = ServiceThread(svc2)
    url2 = thread2.start()
    try:
        client2 = ServiceClient(url2)
        recovered = client2.wait(job["id"], timeout=120)
        assert recovered["status"] == "completed"
        assert recovered["done"] == recovered["total"] == 4
        assert recovered["modes"] == {"cached": 4}  # nothing re-simulated
        manifest = client2.records(job["id"])
        assert all(cell["present"] for cell in manifest["records"])
    finally:
        thread2.stop()


# ----------------------------------------------------------------------
# CLI verbs against a live daemon
# ----------------------------------------------------------------------


def test_cli_submit_status_watch_fetch(service, tmp_path, capsys):
    svc, url = service
    assert (
        main(["submit", "--url", url, "--labels", "baseline", "--wait"]) == 0
    )
    out = capsys.readouterr().out
    assert "job " in out and "completed" in out
    job_id = out.split()[1].rstrip(":")

    assert main(["status", "--url", url]) == 0
    assert job_id in capsys.readouterr().out
    assert main(["status", "--url", url, job_id]) == 0
    assert "completed" in capsys.readouterr().out

    assert main(["watch", "--url", url, job_id]) == 0
    assert "completed" in capsys.readouterr().out

    out_dir = tmp_path / "fetched"
    assert main(["fetch", "--url", url, job_id, "--out", str(out_dir)]) == 0
    fetched = sorted(path.name for path in out_dir.glob("*.json"))
    cached_paths = {
        path.name: path for path in iter_cache_files(svc.config.cache_dir)
    }
    assert fetched == sorted(cached_paths)
    for name in fetched:
        assert (out_dir / name).read_bytes() == cached_paths[name].read_bytes()


def test_cli_service_errors_exit_nonzero(capsys):
    # Nothing is listening here; the client gives up and the CLI
    # reports a failure exit code instead of a traceback.
    assert main(["status", "--url", "http://127.0.0.1:1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_retry_after_hint_is_ceiled_never_truncated(tmp_path):
    """A fractional backpressure hint must round *up*: truncating 0.4 s
    to "Retry-After: 0" invites an instant hot retry."""
    svc = SweepService(
        config(tmp_path / "cache"), port=0, workers=1, queue_limit=0
    )
    thread = ServiceThread(svc)
    url = thread.start()
    try:
        for hint, header in ((0.4, "1"), (1.0, "1"), (1.2, "2")):
            svc.scheduler.retry_after = hint
            request = urllib.request.Request(
                url + "/v1/jobs", data=b"{}", method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 429
            assert excinfo.value.headers.get("Retry-After") == header
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["retry_after_s"] == hint  # exact hint in the JSON
    finally:
        thread.stop()
