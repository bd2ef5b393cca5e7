"""Tests for the reports subsystem (docs/reports.md).

Covers the grid-oriented builder (completeness math, read-only gap
semantics), the five-format exporter, the daemon's report/bench/
dashboard routes (404/409, content types, record ETags), the SSE
payload shape the dashboard consumes, and CLI ``report`` byte-identity
between the offline cache path and ``--server``.
"""

import csv
import io
import json
import os
import shutil
import sys
import threading
import urllib.error
import urllib.request
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Runner, decode_cache_entry, find_record
from repro.reports import export as export_mod
from repro.reports import (
    CONTENT_TYPES,
    FORMATS,
    REPORT_SCHEMA,
    build_report,
    export_report,
    report_names,
)
from repro.reports.export import EXPORT_MEMO_REPORTS
from repro.reports.status import cache_status
from repro.service import ServiceClient, ServiceError, ServiceThread, SweepService
from repro.trace import materialize

FIGURE_LABELS = ("baseline", "rampage", "rampage_som", "twoway")


@pytest.fixture(autouse=True)
def fresh_trace_registry():
    materialize.clear_registry()
    yield
    materialize.clear_registry()


@pytest.fixture(scope="session")
def warm(tmp_path_factory):
    """A fully-warmed cache covering every figure grid (tiny workload)."""
    cache = tmp_path_factory.mktemp("reports-cache")
    config = ExperimentConfig(
        scale=0.0001,
        slice_refs=2_000,
        issue_rates=(200_000_000, 10**9),
        sizes=(128, 1024),
        seed=0,
        cache_dir=cache,
    )
    runner = Runner(config)
    for label in FIGURE_LABELS:
        runner.grid(label)
    materialize.clear_registry()
    return config


@pytest.fixture
def service(warm, tmp_path):
    """A daemon over the warm cache."""
    svc = SweepService(
        warm,
        port=0,
        workers=1,
        queue_limit=4,
        state_dir=tmp_path / "state",
    )
    thread = ServiceThread(svc)
    url = thread.start()
    yield svc, url
    thread.stop()


def _get(url, path, headers=None):
    request = urllib.request.Request(url + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------


def test_report_names_cover_grids_and_figures():
    names = report_names()
    for label in FIGURE_LABELS + ("rampage_vl1",):
        assert label in names
    for figure in ("figure2", "figure3", "figure4", "figure5", "figures"):
        assert figure in names


def test_unknown_report_name_raises():
    config = ExperimentConfig(cache_dir=None)
    with pytest.raises(ConfigurationError, match="unknown report"):
        build_report("nonsense", config)


def test_build_report_is_read_only_and_complete(warm):
    cache = Path(warm.cache_dir)
    before = sorted(path.name for path in cache.rglob("*") if path.is_file())
    report = build_report("figures", warm)
    after = sorted(path.name for path in cache.rglob("*") if path.is_file())
    assert before == after  # zero simulation, zero writes
    assert report.total == len(FIGURE_LABELS) * 2 * 2  # labels x rates x sizes
    assert report.present == report.total
    assert report.completeness == 1.0
    assert report.complete
    assert report.missing() == []
    # grids() reconstructs per-label RunGrids from the cells.
    grids = report.grids()
    assert set(grids) == set(FIGURE_LABELS)
    assert len(grids["rampage"]) == 4


def test_cold_cache_is_all_gaps_not_an_error(tmp_path):
    config = replace(
        ExperimentConfig(
            scale=0.0001,
            slice_refs=2_000,
            issue_rates=(10**9,),
            sizes=(128,),
        ),
        cache_dir=tmp_path / "empty",
    )
    report = build_report("figure4", config)
    assert report.present == 0
    assert report.completeness == 0.0
    assert len(report.missing()) == report.total
    for fmt in FORMATS:
        assert export_report(report, fmt)  # renders gaps, never raises


def test_partial_grid_completeness_math(warm):
    # Widen the sizes axis: the 4096 B cells were never simulated.
    config = replace(warm, sizes=(128, 1024, 4096))
    report = build_report("figure2", config)
    assert report.total == 2 * 2 * 3  # baseline+rampage x rates x sizes
    assert report.present == 8
    assert report.completeness == pytest.approx(8 / 12)
    assert all(cell.size_bytes == 4096 for cell in report.missing())
    payload = report.completeness_payload()
    assert payload["present"] == 8 and payload["total"] == 12
    assert len(payload["missing"]) == 4


def test_corrupt_record_is_a_gap_and_stays_on_disk(warm, tmp_path):
    cache_copy = tmp_path / "cache"
    shutil.copytree(warm.cache_dir, cache_copy)
    config = replace(warm, cache_dir=cache_copy)
    victim = build_report("rampage", config).cells[0]
    path = find_record(cache_copy, victim.key)
    for damage in (b"not json {", b"\xff\xfe garbage"):  # the second is not UTF-8
        path.write_bytes(damage)
        report = build_report("rampage", config)
        assert report.present == report.total - 1
        assert [cell.key for cell in report.missing()] == [victim.key]
        # Read-only contract: the bad file is NOT quarantined or renamed.
        assert find_record(cache_copy, victim.key) == path
        assert path.exists()
        assert cache_status(cache_copy)["undecodable"] == 1


# ----------------------------------------------------------------------
# Exporter
# ----------------------------------------------------------------------


def test_export_dispatches_every_format(warm):
    report = build_report("figures", warm)
    rendered = {fmt: export_report(report, fmt) for fmt in FORMATS}
    assert set(CONTENT_TYPES) == set(FORMATS)
    ET.fromstring(rendered["svg"].decode("utf-8"))  # well-formed XML
    html = rendered["html"].decode("utf-8")
    assert html.startswith("<!doctype html>") and "<svg" in html
    payload = json.loads(rendered["json"])
    assert payload["schema"] == REPORT_SCHEMA
    assert payload["completeness"] == 1.0
    assert len(payload["cells"]) == report.total
    assert payload["workload"]["scale"] == warm.scale
    md = rendered["md"].decode("utf-8")
    assert "# Report `figures`" in md and "| issue rate |" in md
    rows = list(csv.reader(io.StringIO(rendered["csv"].decode("utf-8"))))
    assert rows[0][:3] == ["label", "key", "kind"]
    assert len(rows) == report.total + 1


def test_export_renders_gaps_explicitly(warm):
    config = replace(warm, sizes=(128, 1024, 4096))
    report = build_report("figure2", config)
    md = export_report(report, "md").decode("utf-8")
    assert "—" in md  # em-dash gap markers
    assert "## Missing cells" in md
    rows = list(
        csv.reader(io.StringIO(export_report(report, "csv").decode("utf-8")))
    )
    gap_rows = [row for row in rows[1:] if row[5] == "false"]
    assert len(gap_rows) == 4
    assert all(row[6] == "" for row in gap_rows)  # empty metrics
    payload = json.loads(export_report(report, "json"))
    assert payload["completeness"] == pytest.approx(8 / 12, abs=1e-6)


def test_export_unknown_format_raises(warm):
    report = build_report("baseline", warm)
    with pytest.raises(ConfigurationError, match="unknown report format"):
        export_report(report, "tiff")


# ----------------------------------------------------------------------
# Read memos: the decode memo under the builder, the export memo
# ----------------------------------------------------------------------


def _exports(name, config) -> dict[str, bytes]:
    return {fmt: export_report(build_report(name, config), fmt) for fmt in FORMATS}


def _clear_memos() -> None:
    decode_cache_entry.cache_clear()
    export_mod._export.cache_clear()


def test_record_rewritten_in_place_is_validated_again(warm, tmp_path):
    """Same-length bytes with the mtime restored: the builder reads a
    gap, the runner quarantines and recomputes the cell, and restored
    bytes render the original exports."""
    cache_copy = tmp_path / "cache"
    shutil.copytree(warm.cache_dir, cache_copy)
    config = replace(warm, cache_dir=cache_copy)
    before = _exports("figures", config)
    victim = build_report("figures", config).cells[0]
    path = find_record(cache_copy, victim.key)
    original = path.read_bytes()
    stat = path.stat()
    # One payload digit changed: valid JSON whose checksum fails.
    at = original.index(b'"time_ps": ') + len(b'"time_ps": ')
    digit = b"1" if original[at : at + 1] != b"1" else b"2"
    damaged = original[:at] + digit + original[at + 1 :]

    def rewrite(blob: bytes) -> None:
        path.write_bytes(blob)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns

    rewrite(damaged)
    report = build_report("figures", config)
    assert [cell.key for cell in report.missing()] == [victim.key]
    assert export_report(report, "json") != before["json"]
    rewrite(original)
    assert _exports("figures", config) == before

    rewrite(damaged)
    runner = Runner(config)
    runner.grid(victim.label)
    assert [event["key"] for event in runner.events.of("cache_quarantined")] == [
        victim.key
    ]
    assert path.read_bytes() == original
    assert _exports("figures", config) == before


def test_report_that_gains_a_record_renders_as_with_cleared_memos(warm, tmp_path):
    cache_copy = tmp_path / "cache"
    shutil.copytree(warm.cache_dir, cache_copy)
    config = replace(warm, cache_dir=cache_copy)
    path = find_record(cache_copy, build_report("figures", config).cells[-1].key)
    blob = path.read_bytes()
    path.unlink()
    gap = _exports("figures", config)
    assert json.loads(gap["json"])["present"] == len(FIGURE_LABELS) * 4 - 1
    path.write_bytes(blob)
    gained = _exports("figures", config)
    assert all(gained[fmt] != gap[fmt] for fmt in FORMATS)
    _clear_memos()
    assert _exports("figures", config) == gained


def test_export_memo_evicts_its_oldest_render_at_its_bound(tmp_path):
    reports = [
        build_report(
            "baseline",
            ExperimentConfig(
                scale=0.0001,
                slice_refs=2_000,
                issue_rates=(10**9,),
                sizes=(1024,),
                seed=seed,
                cache_dir=tmp_path,
            ),
        )
        for seed in range(EXPORT_MEMO_REPORTS + 1)
    ]
    _clear_memos()
    for report in reports:
        export_report(report, "csv")
    info = export_mod._export.cache_info()
    assert info.maxsize == EXPORT_MEMO_REPORTS
    assert info.currsize == EXPORT_MEMO_REPORTS
    assert info.misses == len(reports)
    export_report(reports[-1], "csv")
    assert export_mod._export.cache_info().hits == info.hits + 1
    export_report(reports[0], "csv")
    assert export_mod._export.cache_info().misses == info.misses + 1


def test_configs_that_compare_equal_but_print_apart_export_apart(warm):
    """``seed=False`` equals ``seed=0`` but prints ``false``: a report
    under either config gets its own bytes."""
    report = build_report("baseline", warm)
    respelled = replace(report, config=replace(warm, seed=False))
    assert respelled.config == report.config
    assert export_report(report, "json") != export_report(respelled, "json")
    assert json.loads(export_report(respelled, "json"))["workload"]["seed"] is False


def test_eight_threads_exporting_the_same_reports_get_identical_bytes(warm):
    names = ("figures", "baseline", "figure5")
    expected = {name: _exports(name, warm) for name in names}
    _clear_memos()
    barrier = threading.Barrier(8)
    results: list[dict] = []

    def fetch() -> None:
        barrier.wait(timeout=30)
        results.append({name: _exports(name, warm) for name in names})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    assert all(result == expected for result in results)


# ----------------------------------------------------------------------
# Status serializers
# ----------------------------------------------------------------------


def test_cache_status_counts_records(warm):
    status = cache_status(warm.cache_dir)
    assert status["present"]
    assert status["records"] == 16
    assert status["by_label"] == {label: 4 for label in FIGURE_LABELS}
    assert status["undecodable"] == 0
    assert set(status["artifacts"]) == {"trace", "plane"}


def test_cache_status_missing_directory(tmp_path):
    assert cache_status(tmp_path / "nope") == {
        "present": False,
        "path": str(tmp_path / "nope"),
    }
    assert cache_status(None) == {"present": False, "path": None}


def test_cli_cache_stats_json(warm, capsys):
    assert main(["cache", "stats", "--json", "--dir", str(warm.cache_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 16
    assert payload["by_label"]["rampage_som"] == 4


# ----------------------------------------------------------------------
# HTTP routes
# ----------------------------------------------------------------------


def test_report_routes_status_codes(service):
    svc, url = service
    status, _, body = _get(url, "/v1/reports/does_not_exist")
    assert status == 404
    assert "unknown report" in json.loads(body)["error"]
    status, _, body = _get(url, "/v1/reports/figures?format=tiff")
    assert status == 400
    status, _, body = _get(url, "/v1/reports/figures?min_complete=not-a-number")
    assert status == 400


def test_report_route_content_types_and_payloads(service):
    svc, url = service
    for fmt in FORMATS:
        status, headers, body = _get(url, f"/v1/reports/figures?format={fmt}")
        assert status == 200, (fmt, body)
        assert headers["Content-Type"] == CONTENT_TYPES[fmt]
        assert body
    status, _, body = _get(url, "/v1/reports/figures?format=json")
    payload = json.loads(body)
    assert payload["completeness"] == 1.0
    ET.fromstring(_get(url, "/v1/reports/figures?format=svg")[2].decode())


def test_report_route_409_below_min_complete(service):
    svc, url = service
    # A different scale has no cached records at all.
    status, _, body = _get(
        url, "/v1/reports/figures?format=svg&scale=0.009&min_complete=0.5"
    )
    assert status == 409
    payload = json.loads(body)
    assert payload["completeness"] == 0.0
    assert payload["present"] == 0
    assert len(payload["missing"]) == payload["total"]
    # The same request without the threshold renders the gaps instead.
    status, headers, body = _get(
        url, "/v1/reports/figures?format=svg&scale=0.009"
    )
    assert status == 200 and headers["Content-Type"] == CONTENT_TYPES["svg"]


def test_reports_index_and_client(service):
    svc, url = service
    client = ServiceClient(url)
    index = client.reports()
    assert set(index["formats"]) == set(FORMATS)
    assert "figures" in index["reports"]
    body = client.fetch_report("rampage", format="json")
    assert json.loads(body)["completeness"] == 1.0
    with pytest.raises(ServiceError) as excinfo:
        client.fetch_report("figures", format="json", min_complete=0.5,
                            spec={"scale": 0.009})
    assert excinfo.value.status == 409


def test_bench_route_and_dashboard(service):
    svc, url = service
    client = ServiceClient(url)
    status = client.bench()
    assert status == {"cache": cache_status(svc.config.cache_dir)}
    assert status["cache"]["records"] == 16
    code, headers, body = _get(url, "/dashboard")
    assert code == 200
    assert headers["Content-Type"].startswith("text/html")
    page = body.decode("utf-8")
    assert "EventSource" in page and "/v1/bench" in page
    assert 'id="spark"' not in page and "sparkline" not in page


def test_record_route_etag_and_304(service):
    svc, url = service
    key = build_report("baseline", svc.config).cells[0].key
    code, headers, body = _get(url, f"/v1/records/{key}")
    assert code == 200
    assert headers["Content-Type"] == "application/json"
    etag = headers["ETag"]
    assert etag.startswith('"') and etag.endswith('"')
    # The validator is the envelope's own record checksum.
    assert json.loads(body)["checksum"] == etag.strip('"')
    code, headers, cached = _get(
        url, f"/v1/records/{key}", {"If-None-Match": etag}
    )
    assert code == 304 and cached == b""
    assert headers["ETag"] == etag
    code, _, _ = _get(
        url, f"/v1/records/{key}", {"If-None-Match": f'W/{etag}, "stale"'}
    )
    assert code == 304
    code, _, body = _get(
        url, f"/v1/records/{key}", {"If-None-Match": '"something-else"'}
    )
    assert code == 200 and body


def test_sse_stream_has_dashboard_payload_shape(service):
    svc, url = service
    client = ServiceClient(url)
    job = client.submit({"labels": ["baseline"]})
    seen: list[tuple[str, dict]] = []
    final = client.wait(job["id"], timeout=60,
                        on_event=lambda name, payload: seen.append((name, payload)))
    assert final["status"] == "completed"
    names = [name for name, _ in seen]
    assert "job" in names  # the snapshot the dashboard seeds from
    snapshot = dict(seen)["job"]
    for field in ("id", "status", "done", "total", "modes"):
        assert field in snapshot
    # Per-cell events are racy by design (the job can finish between
    # submit and subscribe); any that did arrive must carry the fields
    # the dashboard's log line uses.
    cells = [payload for name, payload in seen if name == "cell_completed"]
    for cell in cells:
        assert {"done", "total", "key", "mode"} <= set(cell)
    # Either way the terminal payload shows the full mode mix.
    terminal = [payload for name, payload in seen
                if name in ("job_completed", "job_failed")]
    assert terminal
    assert sum(terminal[-1]["modes"].values()) == terminal[-1]["total"]
    assert terminal[-1]["done"] == terminal[-1]["total"]


# ----------------------------------------------------------------------
# CLI report verb
# ----------------------------------------------------------------------


def _env(monkeypatch, config):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(config.cache_dir))
    monkeypatch.setenv("REPRO_SCALE", str(config.scale))
    monkeypatch.setenv("REPRO_SLICE_REFS", str(config.slice_refs))
    monkeypatch.setenv(
        "REPRO_RATES", ",".join(str(rate) for rate in config.issue_rates)
    )
    monkeypatch.setenv(
        "REPRO_SIZES", ",".join(str(size) for size in config.sizes)
    )
    monkeypatch.setenv("REPRO_SEED", str(config.seed))


def test_cli_report_offline_and_server_byte_identical(
    service, warm, tmp_path, monkeypatch, capsys
):
    svc, url = service
    _env(monkeypatch, warm)
    for fmt in ("json", "svg"):
        offline = tmp_path / f"offline.{fmt}"
        remote = tmp_path / f"remote.{fmt}"
        assert main(
            ["report", "figures", "--format", fmt, "--out", str(offline)]
        ) == 0
        assert main(
            ["report", "figures", "--format", fmt, "--out", str(remote),
             "--server", url]
        ) == 0
        assert offline.read_bytes() == remote.read_bytes()
    capsys.readouterr()


def test_cli_report_min_complete_failure(warm, tmp_path, monkeypatch, capsys):
    _env(monkeypatch, warm)
    monkeypatch.setenv("REPRO_SCALE", "0.009")  # nothing cached at this scale
    code = main(
        ["report", "figures", "--format", "json", "--min-complete", "0.5",
         "--out", str(tmp_path / "never.json")]
    )
    assert code == 1
    assert not (tmp_path / "never.json").exists()
    err = capsys.readouterr().err
    assert "below" in err and '"completeness": 0.0' in err


def test_cli_report_unknown_name(warm, monkeypatch, capsys):
    _env(monkeypatch, warm)
    assert main(["report", "bogus", "--format", "md"]) == 2
    assert "unknown report" in capsys.readouterr().err
