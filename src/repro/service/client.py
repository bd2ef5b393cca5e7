"""Typed HTTP client for the sweep service (stdlib ``urllib`` only).

:class:`ServiceClient` wraps the daemon's REST+SSE surface with the
retry discipline a remote caller needs:

* **Jittered exponential backoff** on connection errors and timeouts --
  full jitter (``random() * min(cap, base * 2**attempt)``), so a herd
  of clients retrying a restarting daemon spreads out instead of
  synchronizing.
* **429-aware**: a backpressure response's ``Retry-After`` becomes the
  floor of the next delay.  Submission is idempotent server-side (same
  cells, same job), so retrying a submit can never double-run a sweep.
* **SSE parsing**: :meth:`watch` yields ``(event, payload)`` pairs and
  swallows keep-alive comments; :meth:`wait` drives it to a terminal
  state and survives a daemon restart mid-stream by reconnecting.

Every method raises :class:`ServiceError` (carrying ``status`` when the
failure was an HTTP response) once retries are exhausted.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Iterator

from repro.core.errors import ReproError

#: HTTP methods safe to retry blindly.  POST /v1/jobs rides along
#: because job submission is idempotent by key.
_RETRYABLE_STATUS = frozenset({429})


class ServiceError(ReproError):
    """A request failed after retries; ``status`` is set for HTTP errors."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Client for one sweep-service daemon.

    Parameters
    ----------
    base_url:
        e.g. ``http://127.0.0.1:8337``.
    timeout:
        Per-request socket timeout (watch streams use ``stream_timeout``).
    retries:
        Attempts beyond the first before giving up.
    backoff / max_backoff:
        Exponential backoff base and cap, in seconds.
    rng / sleep:
        Injectable randomness and clock for deterministic tests.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        stream_timeout: float = 60.0,
        retries: int = 4,
        backoff: float = 0.2,
        max_backoff: float = 5.0,
        rng=random.random,
        sleep=time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.stream_timeout = stream_timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._rng = rng
        self._sleep = sleep

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def backoff_delay(self, attempt: int, floor: float = 0.0) -> float:
        """Full-jitter delay for retry ``attempt`` (0-based).

        Never returns 0: the jitter RNG landing near zero must not
        turn a retry loop into a hot spin against a refusing server,
        so the delay is floored at 5% of the attempt's ceiling.  A
        caller-supplied ``floor`` (a server ``Retry-After`` hint) is
        capped at ``max_backoff`` so a hostile or buggy hint cannot
        park the client.
        """
        floor = min(max(0.0, float(floor)), self.max_backoff)
        ceiling = min(self.max_backoff, self.backoff * (2**attempt))
        delay = max(floor, self._rng() * ceiling)
        return max(delay, 0.05 * ceiling)

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        timeout: float | None = None,
    ):
        """One HTTP exchange with retries; returns the open response."""
        url = self.base_url + path
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                url, data=body, method=method, headers=headers
            )
            try:
                return urllib.request.urlopen(
                    request, timeout=timeout or self.timeout
                )
            except urllib.error.HTTPError as error:
                if error.code in _RETRYABLE_STATUS and attempt < self.retries:
                    retry_after = float(error.headers.get("Retry-After") or 0)
                    error.close()
                    self._sleep(self.backoff_delay(attempt, floor=retry_after))
                    last_error = error
                    continue
                detail = ""
                try:
                    detail = error.read().decode("utf-8", "replace").strip()
                except OSError:
                    pass
                raise ServiceError(
                    f"{method} {path} -> {error.code}: {detail or error.reason}",
                    status=error.code,
                ) from error
            except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as error:
                last_error = error
                if attempt < self.retries:
                    self._sleep(self.backoff_delay(attempt))
                    continue
                raise ServiceError(
                    f"{method} {path} failed after "
                    f"{self.retries + 1} attempts: {error}"
                ) from error
        raise ServiceError(
            f"{method} {path} exhausted retries: {last_error}",
            status=getattr(last_error, "code", None),
        )

    def _json(self, method: str, path: str, payload: dict | None = None):
        with self._request(method, path, payload) as response:
            return json.loads(response.read().decode("utf-8"))

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def submit(self, spec: dict | None = None) -> dict:
        """Submit a sweep; returns the job (``created`` says if it's new)."""
        return self._json("POST", "/v1/jobs", spec or {})

    def jobs(self) -> list[dict]:
        return self._json("GET", "/v1/jobs")

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def records(self, job_id: str) -> dict:
        """The per-cell record manifest for one job."""
        return self._json("GET", f"/v1/jobs/{job_id}/records")

    def fetch_record(self, key: str) -> bytes:
        """One cell's raw cache-file bytes, exactly as stored on disk."""
        with self._request("GET", f"/v1/records/{key}") as response:
            return response.read()

    def reports(self) -> dict:
        """The report index: known report names and export formats."""
        return self._json("GET", "/v1/reports")

    def fetch_report(
        self,
        name: str,
        *,
        format: str = "json",
        min_complete: float | None = None,
        spec: dict | None = None,
    ) -> bytes:
        """One rendered report, as the server's raw bytes for ``format``.

        ``spec`` carries the workload knobs a job spec would (``scale``,
        ``slice_refs``, ``seed``, ``rates``, ``sizes``); lists are sent
        comma-joined.  A 409 (report below ``min_complete``) surfaces
        as a :class:`ServiceError` with ``status == 409``.
        """
        params = {"format": format}
        if min_complete is not None:
            params["min_complete"] = str(min_complete)
        for knob, value in (spec or {}).items():
            if isinstance(value, (list, tuple)):
                params[knob] = ",".join(str(item) for item in value)
            else:
                params[knob] = str(value)
        query = urllib.parse.urlencode(params)
        with self._request("GET", f"/v1/reports/{name}?{query}") as response:
            return response.read()

    def bench(self) -> dict:
        """The daemon's cache summary (``/v1/bench``)."""
        return self._json("GET", "/v1/bench")

    def watch(self, job_id: str) -> Iterator[tuple[str, dict]]:
        """Stream one SSE connection's ``(event, payload)`` pairs.

        Ends when the server closes the stream (job terminal or daemon
        drain).  Use :meth:`wait` for restart-safe waiting.
        """
        response = self._request(
            "GET", f"/v1/jobs/{job_id}/events", timeout=self.stream_timeout
        )
        event_name = None
        data_lines: list[str] = []
        with response:
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
                if not line:  # dispatch boundary
                    if event_name is not None and data_lines:
                        try:
                            payload = json.loads("\n".join(data_lines))
                        except json.JSONDecodeError:
                            payload = {}
                        yield event_name, payload
                    event_name = None
                    data_lines = []
                    continue
                if line.startswith(":"):
                    continue  # keep-alive comment
                field, _, value = line.partition(":")
                value = value.lstrip(" ")
                if field == "event":
                    event_name = value
                elif field == "data":
                    data_lines.append(value)

    def wait(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        on_event=None,
    ) -> dict:
        """Watch until the job is terminal; reconnects across restarts.

        ``on_event(name, payload)`` observes every streamed event.
        Returns the final job dict; raises :class:`ServiceError` on
        timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                for name, payload in self.watch(job_id):
                    if on_event is not None:
                        on_event(name, payload)
                    if name in ("job_completed", "job_failed"):
                        return self.job(job_id)
            except ServiceError:
                pass  # daemon restarting; fall through to re-poll
            job = self.job(job_id)
            if job["status"] in ("completed", "failed"):
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(f"timed out waiting for job {job_id}")
            self._sleep(self.backoff_delay(1))
