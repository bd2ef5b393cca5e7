"""Tests for the rampage-sim command-line interface."""

import json

import pytest
from helpers import tree_state

from repro.cli import EXPERIMENTS, main
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Runner, iter_cache_files, iter_quarantined_files
from repro.systems.factory import rampage_machine
from repro.trace import filter as missplane
from repro.trace.filter import MANIFEST_NAME, PLANE_DIRNAME


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_table1(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "rambus" in out.lower()


def test_run_unknown_experiment_fails(capsys):
    assert main(["run", "tableX"]) == 2
    assert "unknown experiments" in capsys.readouterr().err


def test_run_writes_output_files(tmp_path, capsys):
    assert main(["run", "table1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "table1.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "table1"],
        ["figures", "--out", "figs"],
        ["report", "baseline"],
        ["sweep", "--kind", "baseline"],
        ["cache", "stats"],
    ],
    ids=lambda argv: argv[0],
)
def test_bad_environment_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    """A malformed REPRO_* variable is exit 2 naming it, not a traceback."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_SLICE_REFS", "abc")
    assert main(argv) == 2
    assert "error: REPRO_SLICE_REFS" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["report", "baseline", "--sizes", "1024.5"], "--sizes"),
        (["report", "baseline", "--rates", "1.5"], "--rates"),
        (["submit", "--url", "http://127.0.0.1:9", "--rates", "2e8,1.5"], "--rates"),
    ],
)
def test_non_integral_rates_and_sizes_are_usage_errors(
    argv, flag, tmp_path, capsys, monkeypatch
):
    """A fractional size used to die with a traceback and a fractional
    rate to build a 1 Hz grid; both are now exit 2 naming the flag."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert f"argument {flag}: each item must be an integer" in capsys.readouterr().err


def test_report_rates_accept_scientific_notation(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["report", "baseline", "--rates", "2e8", "--sizes", "1.28e2,4096"]
    assert main([*argv, "--format", "json"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert [(c["issue_rate_hz"], c["size_bytes"]) for c in cells] == [
        (200_000_000, 128),
        (200_000_000, 4096),
    ]


def test_sweep_runs_small_simulation(capsys):
    code = main(
        [
            "sweep",
            "--kind",
            "rampage",
            "--issue-rate",
            "1000000000",
            "--size",
            "1024",
            "--scale",
            "0.0001",
            "--slice-refs",
            "2000",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "simulated time" in out
    assert "page faults" in out


def test_sweep_switch_on_miss_requires_rampage(capsys):
    code = main(
        ["sweep", "--kind", "baseline", "--switch-on-miss", "--scale", "0.0001"]
    )
    assert code == 2


def test_sweep_seed_matches_cached_grid_cell(tmp_path, capsys, monkeypatch):
    """Acceptance: ``sweep --seed N`` is *the same cell* as a cached grid
    run with identical ``(params, scale, slice_refs, seed)`` -- the CLI
    hits the cache and reports the cached record's numbers."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cached = Runner(
        ExperimentConfig(
            scale=0.0001,
            slice_refs=2_000,
            issue_rates=(10**9,),
            sizes=(1024,),
            seed=3,
            cache_dir=tmp_path,
        )
    ).record("rampage", rampage_machine(10**9, 1024))

    code = main(
        [
            "sweep",
            "--kind",
            "rampage",
            "--issue-rate",
            "1000000000",
            "--size",
            "1024",
            "--scale",
            "0.0001",
            "--slice-refs",
            "2000",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cache: hit" in out
    assert "seed 3" in out
    assert f"workload refs: {cached.workload_refs}" in out
    assert f"simulated time: {cached.seconds:.6f} s" in out
    assert f"TLB misses: {cached.stats['tlb_misses']}" in out


def test_sweep_different_seed_is_a_different_cell(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    base = [
        "sweep",
        "--kind",
        "baseline",
        "--scale",
        "0.0001",
        "--slice-refs",
        "2000",
    ]
    assert main(base + ["--seed", "0"]) == 0
    assert "cache: miss" in capsys.readouterr().out
    assert main(base + ["--seed", "1"]) == 0
    assert "cache: miss" in capsys.readouterr().out
    assert main(base + ["--seed", "0"]) == 0
    assert "cache: hit" in capsys.readouterr().out


def test_sweep_no_cache_bypasses_the_store(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    code = main(
        ["sweep", "--kind", "baseline", "--scale", "0.0001", "--slice-refs",
         "2000", "--no-cache"]
    )
    assert code == 0
    assert "cache: miss" in capsys.readouterr().out
    assert list(iter_cache_files(tmp_path)) == []


def test_cache_recovery_end_to_end(tmp_path, capsys, monkeypatch):
    """Acceptance: a kill -9 mid-write (simulated by truncating a cache
    file) leaves the cache usable -- next run misses, quarantines and
    recomputes; ``cache verify`` reports it; ``cache purge`` repairs."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    sweep = [
        "sweep",
        "--kind",
        "baseline",
        "--scale",
        "0.0001",
        "--slice-refs",
        "2000",
        "--seed",
        "0",
    ]
    assert main(sweep) == 0
    capsys.readouterr()
    path = next(iter_cache_files(tmp_path))
    text = path.read_text("utf-8")
    path.write_text(text[: len(text) // 2], "utf-8")  # torn write

    assert main(sweep) == 0  # survives, recomputes
    assert "cache: miss" in capsys.readouterr().out
    assert len(list(iter_quarantined_files(tmp_path))) == 1

    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "QUARANTINED" in out
    assert "1 quarantined" in out

    assert main(["cache", "purge", "--corrupt-only", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
    assert "1 ok, 0 corrupt, 0 quarantined" in capsys.readouterr().out
    # The repaired record still serves hits.
    assert main(sweep) == 0
    assert "cache: hit" in capsys.readouterr().out


def test_cache_verify_detects_in_place_corruption(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert (
        main(["sweep", "--kind", "baseline", "--scale", "0.0001",
              "--slice-refs", "2000"]) == 0
    )
    capsys.readouterr()
    path = next(iter_cache_files(tmp_path))
    for damage in (b"garbage", b"\xff\xfe garbage"):  # the second is not UTF-8
        path.write_bytes(damage)
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
        assert "CORRUPT" in capsys.readouterr().out


def test_cache_stats_summarises_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert (
        main(["sweep", "--kind", "rampage", "--scale", "0.0001",
              "--slice-refs", "2000"]) == 0
    )
    capsys.readouterr()
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "records: 1" in out
    assert "rampage" in out
    assert "quarantined files: 0" in out


def test_cache_purge_all(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert (
        main(["sweep", "--kind", "baseline", "--scale", "0.0001",
              "--slice-refs", "2000"]) == 0
    )
    capsys.readouterr()
    assert main(["cache", "purge", "--dir", str(tmp_path)]) == 0
    assert "purged 1 cache entries" in capsys.readouterr().out
    assert list(iter_cache_files(tmp_path)) == []


SWEEP = [
    "sweep", "--kind", "baseline", "--scale", "0.0001", "--slice-refs", "2000",
]


def plane_dirs(cache_dir):
    root = cache_dir / PLANE_DIRNAME
    if not root.is_dir():
        return []
    return sorted(p for p in root.iterdir() if p.is_dir())


def test_cache_verify_covers_trace_and_plane_artifacts(tmp_path, capsys, monkeypatch):
    """A two-phase sweep leaves a trace artifact and a miss plane behind;
    ``cache verify`` validates both layouts alongside the records."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(SWEEP) == 0
    capsys.readouterr()
    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "verified 1 records: 1 ok" in out
    assert "verified 2 artifacts: 2 ok, 0 corrupt, 0 quarantined" in out

    # In-place damage to a plane array is reported, not ignored.
    (plane_dirs(tmp_path)[0] / "dops.npy").write_bytes(b"torn")
    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
    assert "CORRUPT plane" in capsys.readouterr().out


def test_corrupt_plane_is_quarantined_and_sweep_recovers(tmp_path, capsys, monkeypatch):
    """End to end: a torn plane manifest is a miss -- the next cell of
    the same geometry (different rate, same plane key) quarantines it,
    re-records, and ``cache purge --corrupt-only`` cleans up."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(SWEEP + ["--issue-rate", "1000000000"]) == 0
    capsys.readouterr()
    (artifact,) = plane_dirs(tmp_path)
    (artifact / MANIFEST_NAME).write_text("{ torn", "utf-8")
    missplane.clear_registry()  # simulate a fresh process over this cache

    assert main(SWEEP + ["--issue-rate", "4000000000"]) == 0  # survives
    capsys.readouterr()
    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "QUARANTINED plane" in out
    # The re-recorded plane is live and valid alongside the quarantined one.
    assert "1 quarantined" in out
    assert len(plane_dirs(tmp_path)) == 2

    assert main(["cache", "purge", "--corrupt-only", "--dir", str(tmp_path)]) == 0
    assert "1 artifact directories" in capsys.readouterr().out
    assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
    assert "0 corrupt, 0 quarantined" in capsys.readouterr().out


def test_cache_purge_all_removes_artifact_directories(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(SWEEP) == 0
    capsys.readouterr()
    assert main(["cache", "purge", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "purged 1 cache entries and 2 artifact directories" in out
    assert plane_dirs(tmp_path) == []


def test_cache_commands_handle_missing_directory(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["cache", "stats", "--dir", str(missing)]) == 0
    assert main(["cache", "verify", "--dir", str(missing)]) == 2
    assert main(["cache", "purge", "--dir", str(missing)]) == 2


def test_cache_commands_require_a_directory(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert main(["cache", "stats"]) == 2
    assert "caching is disabled" in capsys.readouterr().err


def test_sweep_writes_event_log(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_EVENT_LOG", str(tmp_path / "events.jsonl"))
    assert (
        main(["sweep", "--kind", "baseline", "--scale", "0.0001",
              "--slice-refs", "2000"]) == 0
    )
    from repro.core.observe import read_events

    names = [event["event"] for event in read_events(tmp_path / "events.jsonl")]
    assert "cell_started" in names
    assert "cell_completed" in names


def test_figures_writes_svgs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    monkeypatch.setenv("REPRO_RATES", "200000000,4000000000")
    monkeypatch.setenv("REPRO_SIZES", "128,4096")
    code = main(
        [
            "figures",
            "--out",
            str(tmp_path),
            "--scale",
            "0.0001",
            "--slice-refs",
            "2000",
        ]
    )
    assert code == 0
    assert (tmp_path / "figure4.svg").exists()
    assert len(list(tmp_path.glob("figure*.svg"))) == 7


def test_figures_with_a_cache_are_stable_and_a_warm_run_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    monkeypatch.delenv("REPRO_EVENT_LOG", raising=False)
    monkeypatch.setenv("REPRO_RATES", "200000000,4000000000")
    monkeypatch.setenv("REPRO_SIZES", "128,4096")
    argv = ["figures", "--scale", "0.0001", "--slice-refs", "2000", "--workers", "1"]
    assert main([*argv, "--out", str(tmp_path / "cold")]) == 0
    before = tree_state(cache)
    assert main([*argv, "--out", str(tmp_path / "warm")]) == 0
    assert tree_state(cache) == before

    def svgs(directory):
        return {path.name: path.read_bytes() for path in directory.glob("figure*.svg")}

    assert len(svgs(tmp_path / "cold")) == 7
    assert svgs(tmp_path / "warm") == svgs(tmp_path / "cold")


def test_cache_stats_reports_artifact_inventory(tmp_path, capsys, monkeypatch):
    """``cache stats`` itemises trace and plane artifacts with byte sizes
    and quarantine totals, not just run records."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(SWEEP) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "trace artifacts: 1 (" in out
    assert "plane artifacts: 1 (" in out
    assert out.count("quarantined: 0 (0 bytes)") == 2
    # Sizes are real byte counts, not zero.
    for line in out.splitlines():
        if "artifacts:" in line:
            size = int(line.split("(")[1].split(" bytes")[0].replace(",", ""))
            assert size > 0


def test_run_failure_exits_nonzero(capsys, monkeypatch):
    def boom(runner):
        raise RuntimeError("synthetic cell failure")

    monkeypatch.setitem(EXPERIMENTS, "table1", boom)
    assert main(["run", "table1"]) == 1
    captured = capsys.readouterr()
    assert "error: table1 failed: synthetic cell failure" in captured.err
    assert "1 experiment(s) failed" in captured.err


def test_run_keeps_going_after_a_failed_experiment(capsys, monkeypatch):
    ran = []

    def boom(runner):
        raise RuntimeError("first cell dies")

    original = EXPERIMENTS["table2"]

    def survivor(runner):
        ran.append("table2")
        return original(runner)

    monkeypatch.setitem(EXPERIMENTS, "table1", boom)
    monkeypatch.setitem(EXPERIMENTS, "table2", survivor)
    assert main(["run", "table1", "table2"]) == 1
    assert ran == ["table2"]  # later experiments still run
    captured = capsys.readouterr()
    assert "table1 failed" in captured.err
    assert "finished in" in captured.out


def test_sweep_failure_exits_nonzero(capsys, monkeypatch):
    def boom(self, label, params):
        raise RuntimeError("simulator blew up")

    monkeypatch.setattr(Runner, "record", boom)
    assert main(["sweep", "--kind", "baseline", "--scale", "0.0001",
                 "--slice-refs", "2000"]) == 1
    assert "error: sweep failed: simulator blew up" in capsys.readouterr().err
