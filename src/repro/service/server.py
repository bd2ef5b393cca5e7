"""The sweep service daemon: a stdlib-only asyncio HTTP server.

``rampage-sim serve`` turns the experiment engine into a long-running
service: clients submit sweeps as durable jobs, stream progress over
Server-Sent Events, and fetch run records that are **byte-identical**
to what the serial :class:`~repro.experiments.runner.Runner` writes to
the cache -- the result endpoints serve the cache files themselves.

Endpoints (all JSON unless noted)::

    GET  /healthz                  liveness + admission-queue state
    GET  /dashboard                live HTML dashboard (docs/reports.md)
    GET  /v1/jobs                  all jobs, submission order
    POST /v1/jobs                  submit a sweep (idempotent)
    GET  /v1/jobs/<id>             one job's status and counters
    GET  /v1/jobs/<id>/events      SSE progress stream
    GET  /v1/jobs/<id>/records     per-cell record manifest
    GET  /v1/records/<key>         raw cache file bytes for one cell (ETag)
    GET  /v1/reports               report + format index
    GET  /v1/reports/<name>        report render; ?format=svg|html|json|md|csv
    GET  /v1/bench                 cache summary (``cache stats --json``)

Submission semantics:

* ``201`` -- a new job was journalled and queued.
* ``200`` -- the job already exists (same cells, same key); its current
  state is returned.  Submitting is always safe to retry.
* ``429`` + ``Retry-After`` -- the bounded admission queue is full.
* ``413`` -- the job is too large: its workload references times its
  cells exceed :data:`~repro.service.jobs.MAX_JOB_REFS`.  Nothing is
  journalled.
* ``400`` -- malformed spec (unknown labels, bad numbers).

On ``SIGTERM``/``SIGINT`` the daemon drains gracefully: the listener
closes, the in-flight job finishes and is journalled, queued jobs stay
``queued`` in the journal, and the next start resumes them.  A
``SIGKILL`` is also survivable -- that is the journal's job, not the
signal handler's.

The HTTP layer is deliberately minimal (HTTP/1.1, ``Connection:
close``, no TLS): the service fronts a simulation cache on a trusted
network, and the no-new-dependencies rule rules out a web framework.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import math
import queue
import re
import signal
import threading
from dataclasses import replace
from pathlib import Path
from urllib.parse import parse_qs

from repro.core.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig, integer_list, integral
from repro.reports import (
    CONTENT_TYPES,
    DASHBOARD_HTML,
    FORMATS,
    GridReport,
    build_report,
    cache_status,
    export_report,
    report_names,
)
from repro.service.jobs import (
    Job,
    JobSpec,
    JobStore,
    JobTooLargeError,
    plan_cells,
)
from repro.service.scheduler import BackpressureError, SweepScheduler

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8337

#: Subdirectory of the cache directory holding service state (journal).
SERVICE_DIRNAME = "service"

#: Cache keys and job ids are short hex digests; anything else is a 400
#: (and, incidentally, path traversal never reaches the filesystem).
_KEY_RE = re.compile(r"^[0-9a-f]{8,64}$")

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: How often an idle SSE stream emits a keep-alive comment (seconds).
SSE_KEEPALIVE_S = 2.0


def _record_etag(blob: bytes) -> str:
    """The validator for one record file: its envelope checksum.

    The envelope already carries a SHA-256 over the record payload, so
    reuse it (stable across cache relocations).  A file that predates
    the envelope -- or is mid-quarantine -- falls back to a digest of
    the raw bytes, which is still a correct validator.
    """
    try:
        envelope = json.loads(blob.decode("utf-8"))
        checksum = envelope.get("checksum")
        if isinstance(checksum, str) and checksum:
            return checksum
    except (json.JSONDecodeError, UnicodeDecodeError):
        pass
    return hashlib.sha256(blob).hexdigest()


def _etag_matches(if_none_match: str, etag: str) -> bool:
    """RFC 9110 ``If-None-Match``: comma list, ``W/`` prefixes, ``*``."""
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if not candidate:
            continue
        if candidate == "*":
            return True
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def _report_config(base: ExperimentConfig, query: dict[str, str]) -> ExperimentConfig:
    """Apply a report request's workload-knob query params over ``base``.

    The same knobs a job spec carries; values accept scientific
    notation (``rates=2e8``) because that is how humans type 200 MHz,
    but must be integral where the job spec needs an integer.  Raises
    ``ValueError``/``ConfigurationError`` on malformed values -- the
    route maps both to a 400.
    """
    overrides: dict = {}
    if "scale" in query:
        overrides["scale"] = float(query["scale"])
    for name in ("slice_refs", "seed"):
        if name in query:
            overrides[name] = integral(query[name], name)
    for name in ("rates", "sizes"):
        if name in query:
            overrides["issue_rates" if name == "rates" else "sizes"] = integer_list(
                query[name], name
            )
    return replace(base, **overrides) if overrides else base


def _render_report(
    name: str, config: ExperimentConfig, fmt: str, min_complete: float
) -> tuple[GridReport, bytes | None]:
    """Build report ``name`` and export it as ``fmt``.

    The bytes are ``None`` when the report is less than ``min_complete``
    complete.  Both steps go through this module's ``build_report`` and
    ``export_report`` names, which perfbench's traced run wraps.
    """
    report = build_report(name, config)
    if report.completeness < min_complete:
        return report, None
    return report, export_report(report, fmt)


class SweepService:
    """Binds the job store, the scheduler and the HTTP front end."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        workers: int | None = None,
        queue_limit: int = 8,
        state_dir: str | Path | None = None,
    ) -> None:
        self.config = config if config is not None else ExperimentConfig.from_env()
        if self.config.cache_dir is None:
            raise ConfigurationError(
                "the sweep service requires a cache directory "
                "(set REPRO_CACHE_DIR or pass a config with cache_dir)"
            )
        self.host = host
        self.port = port
        state = (
            Path(state_dir)
            if state_dir is not None
            else Path(self.config.cache_dir) / SERVICE_DIRNAME
        )
        self.store = JobStore(state)
        self.scheduler = SweepScheduler(
            self.store,
            self.config,
            workers=workers,
            queue_limit=queue_limit,
        )
        self._server: asyncio.base_events.Server | None = None
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Recover journalled jobs, start the worker, bind the socket."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # Resolve the actual port for ``--port 0`` (tests, smoke jobs).
        for sock in self._server.sockets:
            self.port = sock.getsockname()[1]
            break

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish the running job."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.scheduler.stop)

    async def run(self, *, ready=None) -> None:
        """Start, announce, then serve until SIGTERM/SIGINT drains us."""
        await self.start()
        if ready is not None:
            ready(self)
        drain = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, drain.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop; Ctrl-C still raises KeyboardInterrupt
        try:
            await drain.wait()
        finally:
            await self.shutdown()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, headers, body = await self._read_request(reader)
            except (ValueError, asyncio.IncompleteReadError, UnicodeDecodeError):
                await self._respond(writer, 400, {"error": "malformed request"})
                return
            path, _, query_string = target.partition("?")
            query = {
                name: values[-1]
                for name, values in parse_qs(
                    query_string, keep_blank_values=True
                ).items()
            }
            try:
                await self._route(method, path, query, headers, body, writer)
            except ConnectionError:
                pass  # client went away mid-response
            except Exception as exc:  # route bugs become a 500, not a hang
                try:
                    await self._respond(
                        writer,
                        500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                    )
                except ConnectionError:
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError(f"bad request line: {request_line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length:
            body = await reader.readexactly(length)
        return method.upper(), target, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | list | None = None,
        *,
        raw: bytes | None = None,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = raw
        if body is None:
            body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/healthz" and method == "GET":
            await self._respond(
                writer,
                200,
                {
                    "status": "draining" if self._closing else "ok",
                    "admission": self.scheduler.admission_state(),
                    "cache_dir": str(self.config.cache_dir),
                },
            )
            return
        if path == "/v1/jobs":
            if method == "GET":
                await self._respond(
                    writer, 200, [job.as_dict() for job in self.store.jobs()]
                )
            elif method == "POST":
                await self._submit(body, writer)
            else:
                await self._respond(writer, 405, {"error": "GET or POST"})
            return
        match = re.match(r"^/v1/jobs/([^/]+)(/events|/records)?$", path)
        if match:
            job_id, suffix = match.group(1), match.group(2)
            if method != "GET":
                await self._respond(writer, 405, {"error": "GET only"})
                return
            if not _KEY_RE.match(job_id):
                await self._respond(writer, 400, {"error": "invalid job id"})
                return
            job = self.store.get(job_id)
            if job is None:
                await self._respond(writer, 404, {"error": f"no job {job_id}"})
                return
            if suffix is None:
                await self._respond(writer, 200, job.as_dict())
            elif suffix == "/events":
                await self._stream_events(job, writer)
            else:
                await self._records_manifest(job, writer)
            return
        match = re.match(r"^/v1/records/([^/]+)$", path)
        if match:
            if method != "GET":
                await self._respond(writer, 405, {"error": "GET only"})
                return
            await self._serve_record(match.group(1), headers, writer)
            return
        if path == "/dashboard":
            if method != "GET":
                await self._respond(writer, 405, {"error": "GET only"})
                return
            await self._respond(
                writer,
                200,
                raw=DASHBOARD_HTML.encode("utf-8"),
                content_type="text/html; charset=utf-8",
            )
            return
        if path == "/v1/bench":
            if method != "GET":
                await self._respond(writer, 405, {"error": "GET only"})
                return
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(
                None, lambda: {"cache": cache_status(self.config.cache_dir)}
            )
            await self._respond(writer, 200, payload)
            return
        if path == "/v1/reports":
            if method != "GET":
                await self._respond(writer, 405, {"error": "GET only"})
                return
            await self._respond(
                writer,
                200,
                {"reports": report_names(), "formats": list(FORMATS)},
            )
            return
        match = re.match(r"^/v1/reports/([^/]+)$", path)
        if match:
            if method != "GET":
                await self._respond(writer, 405, {"error": "GET only"})
                return
            await self._serve_report(match.group(1), query, writer)
            return
        await self._respond(writer, 404, {"error": f"no route for {path}"})

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def _submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            await self._respond(writer, 400, {"error": f"bad JSON body: {exc}"})
            return
        loop = asyncio.get_running_loop()
        try:
            # Planning enumerates grids; keep it off the event loop.
            spec = JobSpec.from_request(payload, self.config)
            cells = await loop.run_in_executor(
                None, functools.partial(plan_cells, spec, self.config)
            )
            preview = self.scheduler.dedup_preview(cells)
            job, created = await loop.run_in_executor(
                None, functools.partial(self.scheduler.submit, spec)
            )
        except JobTooLargeError as exc:
            await self._respond(writer, 413, {"error": str(exc)})
            return
        except ConfigurationError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        except BackpressureError as exc:
            await self._respond(
                writer,
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after},
                # Ceil, never truncate: a 0.5 s hint must not become
                # "Retry-After: 0" and invite an instant hot retry.
                extra_headers={
                    "Retry-After": str(max(1, math.ceil(exc.retry_after)))
                },
            )
            return
        await self._respond(
            writer,
            201 if created else 200,
            {**job.as_dict(), "created": created, "admission": preview},
        )

    async def _records_manifest(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        records = []
        for cell in job.cells:
            path = self.scheduler.record_path(cell["key"])
            records.append(
                {**cell, "present": bool(path is not None and path.exists())}
            )
        await self._respond(
            writer,
            200,
            {"job": job.id, "status": job.status, "records": records},
        )

    async def _serve_record(
        self, key: str, headers: dict[str, str], writer: asyncio.StreamWriter
    ) -> None:
        if not _KEY_RE.match(key):
            await self._respond(writer, 400, {"error": "invalid record key"})
            return
        # The raw cache file, byte for byte -- the envelope checksum the
        # client verifies is the one the runner wrote.  That checksum
        # also makes a natural validator: the ETag is the envelope's
        # record checksum, so pollers can revalidate with
        # ``If-None-Match`` instead of refetching record bytes.
        path = self.scheduler.record_path(key)
        blob = None
        if path is not None:
            try:
                blob = path.read_bytes()
            except OSError:  # quarantined or purged since the lookup
                pass
        if blob is None:
            await self._respond(writer, 404, {"error": f"no record {key}"})
            return
        etag = f'"{_record_etag(blob)}"'
        if _etag_matches(headers.get("if-none-match", ""), etag):
            await self._respond(
                writer, 304, raw=b"", extra_headers={"ETag": etag}
            )
            return
        await self._respond(
            writer,
            200,
            raw=blob,
            content_type="application/json",
            extra_headers={"ETag": etag},
        )

    async def _serve_report(
        self, name: str, query: dict[str, str], writer: asyncio.StreamWriter
    ) -> None:
        """Render one report from cached records -- never simulates.

        ``?format=`` picks the export (default ``json``); the workload
        knobs (``scale``, ``slice_refs``, ``seed``, ``rates``,
        ``sizes``) default to the daemon's configuration, so a report
        fetched right after a default-knob job sees that job's cells.
        ``?min_complete=`` turns an under-populated report into a 409
        carrying the completeness payload instead of a render.
        """
        if name not in report_names():
            await self._respond(
                writer,
                404,
                {"error": f"unknown report {name!r}; known: {report_names()}"},
            )
            return
        fmt = query.get("format", "json")
        if fmt not in CONTENT_TYPES:
            await self._respond(
                writer,
                400,
                {"error": f"unknown format {fmt!r}; known: {list(FORMATS)}"},
            )
            return
        try:
            config = _report_config(self.config, query)
            min_complete = float(query.get("min_complete", "0") or "0")
            if not math.isfinite(min_complete):
                raise ValueError(f"min_complete must be finite, got {min_complete}")
        except (ValueError, ConfigurationError) as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        loop = asyncio.get_running_loop()
        try:
            # Key derivation, cache reads and the render: off the event
            # loop, in one executor call.
            report, body = await loop.run_in_executor(
                None,
                functools.partial(_render_report, name, config, fmt, min_complete),
            )
        except ConfigurationError as exc:  # a grid no machine can be built for
            await self._respond(writer, 400, {"error": str(exc)})
            return
        if body is None:
            await self._respond(
                writer,
                409,
                {
                    "error": (
                        f"report {name!r} is {report.completeness:.3f} "
                        f"complete, below min_complete={min_complete}"
                    ),
                    **report.completeness_payload(),
                },
            )
            return
        await self._respond(
            writer, 200, raw=body, content_type=CONTENT_TYPES[fmt]
        )

    async def _stream_events(self, job: Job, writer: asyncio.StreamWriter) -> None:
        """SSE: snapshot first, then live progress until terminal.

        Events between subscription and the snapshot can be delivered
        twice; consumers key on ``done``/``key`` so replays are benign
        (documented at-least-once semantics).  Once the store reads the
        job terminal, progress still queued on the channel is drained
        without waiting before the terminal event, which is sent
        exactly once.
        """
        channel = self.scheduler.subscribe(job.id)
        loop = asyncio.get_running_loop()
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            await self._send_event(writer, "job", job.as_dict())
            current = self.store.get(job.id)
            while current is not None and not current.terminal:
                if self._closing:
                    break
                try:
                    payload = await loop.run_in_executor(
                        None,
                        functools.partial(
                            channel.get, timeout=SSE_KEEPALIVE_S
                        ),
                    )
                except queue.Empty:
                    writer.write(b": keep-alive\n\n")
                    await writer.drain()
                    current = self.store.get(job.id)
                    continue
                if await self._forward(writer, payload):
                    return
                current = self.store.get(job.id)
            final = self.store.get(job.id)
            if final is not None and final.terminal:
                while True:
                    try:
                        payload = channel.get_nowait()
                    except queue.Empty:
                        break
                    if await self._forward(writer, payload):
                        return
                name = "job_completed" if final.status == "completed" else "job_failed"
                await self._send_event(writer, name, final.as_dict())
        finally:
            self.scheduler.unsubscribe(job.id, channel)

    async def _forward(self, writer: asyncio.StreamWriter, payload: dict) -> bool:
        """Send one channel payload; True when it was the terminal event."""
        event = str(payload.get("event", "progress"))
        await self._send_event(writer, event, payload)
        return event in ("job_completed", "job_failed")

    @staticmethod
    async def _send_event(
        writer: asyncio.StreamWriter, name: str, payload: dict
    ) -> None:
        blob = json.dumps(payload)
        writer.write(f"event: {name}\ndata: {blob}\n\n".encode("utf-8"))
        await writer.drain()


class ServiceThread:
    """Run a :class:`SweepService` on a background event loop.

    The harness tests and the CI smoke tool use this to stand up a real
    HTTP daemon inside one process: ``start()`` returns once the socket
    is bound (resolving ``port=0`` to the real port), ``stop()`` drains
    and joins.  Production deployments run ``rampage-sim serve``
    instead.
    """

    def __init__(self, service: SweepService) -> None:
        self.service = service
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self, timeout: float = 10.0) -> str:
        started = threading.Event()
        failure: list[BaseException] = []

        def runloop() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.service.start())
            except BaseException as exc:  # surface bind errors to start()
                failure.append(exc)
                started.set()
                return
            started.set()
            loop.run_forever()

        self._thread = threading.Thread(
            target=runloop, name="sweep-service", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):
            raise TimeoutError("sweep service failed to start in time")
        if failure:
            raise failure[0]
        return self.service.base_url

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self._loop
        )
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)


def serve(
    config: ExperimentConfig | None = None,
    *,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int | None = None,
    queue_limit: int = 8,
    state_dir: str | Path | None = None,
    ready=None,
) -> None:
    """Blocking entry point used by ``rampage-sim serve``."""
    service = SweepService(
        config,
        host=host,
        port=port,
        workers=workers,
        queue_limit=queue_limit,
        state_dir=state_dir,
    )
    try:
        asyncio.run(service.run(ready=ready))
    except KeyboardInterrupt:
        pass
