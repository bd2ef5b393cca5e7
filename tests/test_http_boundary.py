"""Malformed input at the daemon's HTTP boundary answers 4xx, never 500.

Job specs, report query parameters and record keys arrive from the
network; a value that cannot describe a sweep must be refused with a
400 (or a 404 for a name that does not exist) when it arrives, never
crash a route with a 500 or be coerced into a different sweep.  The
seeded fuzz test sends about a hundred such requests, each built to be
malformed, and then checks that no job was admitted.  A well-formed job
too large for the daemon to hold is refused with a 413 before anything
is journalled.
"""

import http.client
import json
import random
from urllib.parse import quote, urlsplit

import pytest

from repro.experiments.config import DEFAULT_RATES, DEFAULT_SIZES, ExperimentConfig
from repro.service import ServiceThread, SweepService
from repro.service.jobs import JobSpec
from repro.trace import materialize

TIMEOUT_S = 10.0


@pytest.fixture(autouse=True)
def fresh_trace_registry():
    materialize.clear_registry()
    yield
    materialize.clear_registry()


@pytest.fixture
def service(tmp_path):
    config = ExperimentConfig(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(10**9,),
        sizes=(128, 1024),
        seed=0,
        cache_dir=tmp_path / "cache",
    )
    svc = SweepService(config, port=0, workers=1, queue_limit=4)
    thread = ServiceThread(svc)
    url = thread.start()
    yield svc, url
    thread.stop()


@pytest.fixture
def idle_service(tmp_path, monkeypatch):
    """A daemon whose scheduler never starts, so no admitted job runs."""
    config = ExperimentConfig(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(10**9,),
        sizes=(128, 1024),
        seed=0,
        cache_dir=tmp_path / "cache",
    )
    svc = SweepService(config, port=0, workers=1, queue_limit=4)
    monkeypatch.setattr(svc.scheduler, "start", lambda: [])
    thread = ServiceThread(svc)
    url = thread.start()
    yield svc, url
    thread.stop()


def journal_lines(svc) -> list[str]:
    path = svc.store.path
    return path.read_text("utf-8").splitlines() if path.exists() else []


def request(url: str, method: str, path: str, body: bytes | None = None):
    """One raw exchange; returns ``(status, decoded JSON body or None)``."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = None
    return response.status, payload


@pytest.mark.parametrize(
    "body",
    [
        b'{"rates": [1e400]}',
        b'{"sizes": [1e400]}',
        b'{"seed": 1e400}',
        b'{"slice_refs": 1e400}',
        b'{"sizes": [128.5]}',
        b'{"rates": [true]}',
        b'{"scale": true}',
        b'{"seed": -1}',
        b'{"scale": 1' + b"0" * 400 + b"}",
        b"[" * 100_000,
    ],
    ids=[
        "rate-infinite",
        "size-infinite",
        "seed-infinite",
        "slice-infinite",
        "size-fractional",
        "rate-boolean",
        "scale-boolean",
        "seed-negative",
        "scale-overflows-float",
        "nested-too-deep",
    ],
)
def test_malformed_job_spec_is_a_400(service, body):
    svc, url = service
    status, payload = request(url, "POST", "/v1/jobs", body)
    assert status == 400, payload
    assert request(url, "GET", "/v1/jobs") == (200, [])


def test_oversized_job_is_a_413_and_journals_nothing(idle_service):
    """At the paper's full scale one cell is 1.093 G references; a
    daemon that admitted it would grow by gigabytes."""
    svc, url = idle_service
    status, payload = request(url, "POST", "/v1/jobs", b'{"scale": 1.0}')
    assert status == 413, payload
    assert "too large" in payload["error"]
    assert journal_lines(svc) == []
    assert request(url, "GET", "/v1/jobs") == (200, [])


def test_paper_grid_at_its_scale_is_admitted(idle_service):
    """The 72-cell Table 3-5 and Figure 2-5 grid at scale 0.003
    (236 M references) stays within the admission cap."""
    svc, url = idle_service
    body = {
        "labels": ["baseline", "rampage", "rampage_som", "twoway"],
        "scale": 0.003,
        "rates": list(DEFAULT_RATES),
        "sizes": list(DEFAULT_SIZES),
    }
    status, payload = request(url, "POST", "/v1/jobs", json.dumps(body).encode())
    assert status == 201, payload
    assert payload["total"] == 72
    assert len(journal_lines(svc)) == 1


@pytest.mark.parametrize(
    "query",
    [
        "rates=1e400",
        "slice_refs=inf",
        "seed=1e999",
        "sizes=1e400",
        "sizes=3",
        "sizes=128.5",
        "seed=-1",
        "min_complete=nan",
    ],
)
def test_malformed_report_query_is_a_400(service, query):
    svc, url = service
    status, payload = request(url, "GET", f"/v1/reports/figures?{query}")
    assert status == 400, payload


def test_integral_floats_stay_valid(service):
    svc, url = service
    spec = JobSpec.from_request(
        {"rates": [1e9, "2e8"], "sizes": [128.0], "seed": 0.0}, svc.config
    )
    assert spec.issue_rates == (10**9, 2 * 10**8)
    assert spec.sizes == (128,)
    assert spec.seed == 0
    status, payload = request(url, "GET", "/v1/reports/figures?rates=1e9&sizes=1.28e2")
    assert status == 200, payload


# ----------------------------------------------------------------------
# Seeded fuzzing
# ----------------------------------------------------------------------

#: JSON literals no integer field accepts.
NOT_INTEGERS = (
    "1e400", "-1e400", "1e999", "NaN", "Infinity", "-Infinity", "128.5",
    "1e-3", "true", "false", "null", '"abc"', '"1e400"', '"inf"', '"nan"',
    '"12.5"', '""', "[]", "{}", '{"a": 1}',
)
#: JSON literals that are no workload scale.
NOT_SCALES = (
    "1e400", "-1e400", "NaN", "Infinity", "0", "-0.5", "true", "false",
    "null", '"abc"', '"inf"', '"nan"', '""', "[]", "{}", "[0.001]",
)
#: JSON literals that are no label list.
NOT_LABELS = (
    "5", "true", "null", "[]", '""', '","', '["no_such_grid"]', "[1]",
    "[null]", '[["baseline"]]', '{"baseline": 1}', '["baseline", "nope"]',
)
#: Valid values for the fields a malformed spec leaves intact.
GOOD_FIELDS = {
    "labels": '["baseline"]',
    "scale": "0.0001",
    "slice_refs": "4000",
    "rates": "[1000000000]",
    "sizes": "[128]",
    "seed": "0",
}
#: Query values no integer parameter accepts.
BAD_QUERY_INTEGERS = (
    "1e400", "-1e400", "1e999", "inf", "-inf", "nan", "128.5", "abc", "",
    "0x80", "%00", "12e-1",
)


def malformed_spec(rng: random.Random) -> bytes:
    """A job body with one malformed field among valid ones, or a bad body."""
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice(
            [b"{ torn", b"[]", b"5", b'"spec"', b"null", b"\xff\xfe", b"[" * 5_000]
        )
    fields = {name: value for name, value in GOOD_FIELDS.items() if rng.random() < 0.5}
    name = rng.choice(sorted(GOOD_FIELDS))
    if name == "labels":
        fields[name] = rng.choice(NOT_LABELS)
    elif name == "scale":
        fields[name] = rng.choice(NOT_SCALES)
    elif name in ("rates", "sizes"):
        bad = rng.choice(NOT_INTEGERS)
        fields[name] = rng.choice([bad, f"[{bad}]", f"{GOOD_FIELDS[name][:-1]}, {bad}]"])
    else:
        fields[name] = rng.choice(NOT_INTEGERS + ("-1",) if name == "seed" else NOT_INTEGERS)
    body = ", ".join(f'"{key}": {value}' for key, value in fields.items())
    return ("{" + body + "}").encode("utf-8")


def malformed_report_query(rng: random.Random) -> str:
    name = rng.choice(["figures", "figure2", "twoway", "baseline", "rampage_som"])
    param = rng.choice(["rates", "sizes", "seed", "slice_refs", "scale", "format", "min_complete"])
    if param == "scale":
        value = rng.choice(["inf", "-inf", "nan", "0", "-1", "1e400", "abc", ""])
    elif param == "format":
        value = rng.choice(["tiff", "", "JSON", "svg ", "../json"])
    elif param == "min_complete":
        value = rng.choice(["nan", "inf", "-inf", "abc", "1,0"])
    elif param == "sizes":
        value = rng.choice(BAD_QUERY_INTEGERS + ("3", "-128", "0", "1024,96"))
    elif param == "rates":
        value = rng.choice(BAD_QUERY_INTEGERS + ("0", "-1000", "7", "1000000000,3"))
    elif param == "seed":
        value = rng.choice(BAD_QUERY_INTEGERS + ("-1", "1,5"))
    else:
        value = rng.choice(BAD_QUERY_INTEGERS + ("0", "-4000", "1,5"))
    return f"/v1/reports/{name}?{param}={quote(value, safe=',')}"


def malformed_record_key(rng: random.Random) -> str:
    hexdigits = "0123456789abcdef"
    kind = rng.randrange(5)
    if kind == 0:  # too short
        key = "".join(rng.choice(hexdigits) for _ in range(rng.randrange(1, 8)))
    elif kind == 1:  # too long
        key = "".join(rng.choice(hexdigits) for _ in range(rng.randrange(65, 200)))
    elif kind == 2:  # well formed, but no such record
        key = "".join(rng.choice(hexdigits) for _ in range(24))
    elif kind == 3:  # outside the alphabet
        key = "".join(rng.choice("GHIJKLMNOPxyz.-_~ABCDEF") for _ in range(24))
    else:  # traversal and escapes
        key = rng.choice(["..", "../../etc/passwd", "%2e%2e", "aéb中", "\x00abc"])
    return "/v1/records/" + quote(key, safe="")


def test_seeded_fuzz_of_the_http_boundary_answers_4xx(service):
    svc, url = service
    rng = random.Random(20260417)
    requests = (
        [("POST", "/v1/jobs", malformed_spec(rng)) for _ in range(40)]
        + [("GET", malformed_report_query(rng), None) for _ in range(35)]
        + [("GET", malformed_record_key(rng), None) for _ in range(25)]
    )
    rng.shuffle(requests)
    answers = [
        (method, path, body, request(url, method, path, body)[0])
        for method, path, body in requests
    ]
    bad = [answer for answer in answers if not 400 <= answer[3] < 500]
    assert bad == []
    assert request(url, "GET", "/v1/jobs") == (200, [])
    status, health = request(url, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"
