"""End-to-end tests of the experiment modules at a tiny scale.

A single module-scoped Runner (tiny workload, no disk cache) feeds every
experiment; the assertions check the *structure* of each output and the
qualitative shape claims that hold even at reduced scale.
"""

import pytest

from repro.experiments import ExperimentConfig, Runner
from repro.experiments import figure4, figure5, table1, table2, table3, table4, table5
from repro.experiments.figures23 import run_figure2, run_figure3
from repro.experiments.runner import GRID_BUILDERS, iter_cache_files


@pytest.fixture(scope="module")
def runner():
    # Large enough for the qualitative shape claims (cold-start effects
    # invert them below ~3 M references), small enough for CI.  This is
    # the slowest fixture in the suite (about 75 s on a 2-vCPU host,
    # half of it the three switch-on-miss recordings); every experiment
    # test shares it.
    config = ExperimentConfig(
        scale=0.003,
        slice_refs=20_000,
        issue_rates=(200_000_000, 4_000_000_000),
        sizes=(128, 1024, 4096),
        cache_dir=None,
    )
    return Runner(config)


class TestRunnerInfra:
    def test_known_grids(self):
        assert set(GRID_BUILDERS) == {
            "baseline",
            "rampage",
            "rampage_som",
            "rampage_vl1",
            "twoway",
        }

    def test_grid_caches_in_memory(self, runner):
        first = runner.grid("baseline")
        second = runner.grid("baseline")
        assert first is second

    def test_grid_shape(self, runner):
        grid = runner.grid("baseline")
        assert len(grid) == 6  # 2 rates x 3 sizes
        assert grid.sizes() == [128, 1024, 4096]

    def test_disk_cache_round_trip(self, tmp_path):
        config = ExperimentConfig(
            scale=0.0001,
            slice_refs=2_000,
            issue_rates=(10**9,),
            sizes=(1024,),
            cache_dir=tmp_path,
        )
        a = Runner(config).grid("baseline").cell(10**9, 1024)
        assert list(iter_cache_files(tmp_path))
        b = Runner(config).grid("baseline").cell(10**9, 1024)
        assert a == b

    def test_unknown_grid_rejected(self, runner):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            runner.grid("nonsense")


class TestTable1:
    def test_structure(self):
        out = table1.run()
        assert out.name == "table1"
        assert "rambus" in out.text.lower()
        assert out.data["rambus_cost_instructions_4k_1ghz"] == pytest.approx(2610)
        assert out.data["disk_cost_instructions_4k_1ghz"] == pytest.approx(
            10.1e6, rel=0.01
        )


class TestTable2:
    def test_measured_fractions_close_to_paper(self, runner):
        out = table2.run(runner)
        for row in out.data["programs"]:
            assert row["ifetch_fraction_measured"] == pytest.approx(
                row["ifetch_fraction_paper"], abs=0.05
            )
        assert out.data["total_millions"] == pytest.approx(1093.1, abs=0.5)


class TestTable3:
    def test_shape(self, runner):
        out = table3.run(runner)
        assert len(out.data["summary"]) == 2
        for entry in out.data["summary"]:
            assert entry["best_baseline_s"] > 0
            assert entry["best_rampage_s"] > 0

    def test_rampage_advantage_grows_with_issue_rate(self, runner):
        out = table3.run(runner)
        by_rate = {e["issue_rate_hz"]: e["rampage_speedup"] for e in out.data["summary"]}
        assert by_rate[4_000_000_000] > by_rate[200_000_000]


class TestTable4:
    def test_structure(self, runner):
        out = table4.run(runner)
        assert len(out.data["summary"]) == 2
        for entry in out.data["summary"]:
            assert entry["best_som_s"] > 0

    def test_switch_on_miss_helps_more_at_high_rate(self, runner):
        out = table4.run(runner)
        by_rate = {
            e["issue_rate_hz"]: e["speedup_vs_no_switch"]
            for e in out.data["summary"]
        }
        assert by_rate[4_000_000_000] > by_rate[200_000_000]


class TestTable5:
    def test_structure(self, runner):
        out = table5.run(runner)
        assert set(out.data["twoway_seconds"]) == {"200MHz", "4GHz"}
        assert all(s > 0 for row in out.data["twoway_seconds"].values() for s in row)


class TestFigures:
    def test_figure2_fractions_sum_to_one(self, runner):
        out = run_figure2(runner)
        for panel in ("baseline", "rampage"):
            for row in out.data[panel]:
                total = sum(row[k] for k in ("l1i", "l1d", "l2", "dram", "other"))
                assert total == pytest.approx(1.0)

    def test_figure3_dram_fraction_exceeds_figure2(self, runner):
        """Scaling the CPU without the DRAM raises the DRAM share."""
        f2 = run_figure2(runner)
        f3 = run_figure3(runner)
        for slow_row, fast_row in zip(f2.data["baseline"], f3.data["baseline"]):
            assert fast_row["dram"] > slow_row["dram"]

    def test_figure4_rampage_overhead_falls_with_page_size(self, runner):
        out = figure4.run(runner)
        rampage = [row["rampage"] for row in out.data["rows"]]
        assert rampage[0] > rampage[-1]

    def test_figure4_baseline_overhead_flat(self, runner):
        out = figure4.run(runner)
        baseline = [row["baseline"] for row in out.data["rows"]]
        assert max(baseline) - min(baseline) < 0.01

    def test_figure5_structure(self, runner):
        out = figure5.run(runner)
        for rate_entry in out.data["rates"]:
            values = [
                row[label]
                for row in rate_entry["rows"]
                for label in ("rampage_som", "twoway")
                if label in row
            ]
            assert min(values) == pytest.approx(0.0, abs=1e-9)
            assert all(v >= 0 for v in values)

    def test_output_write_to(self, runner, tmp_path):
        out = table1.run()
        path = out.write_to(tmp_path)
        assert path.read_text("utf-8").startswith("Table 1")


SLOW, FAST = 200_000_000, 4_000_000_000


class TestPaperClaims:
    """The paper's orderings as assertions, on the fixture's grids.

    Each test cites the paper's statement (quoted where the paper's
    words are known) and names the EXPERIMENTS.md section that reports
    the measured value.  They read only grids the other tests of
    this module build, so they add no simulation.  A claim the reduced
    scale distorts is a strict xfail naming the distortion, never a
    loosened bound.
    """

    def test_rampage_best_time_beats_baseline_best_at_4ghz(self, runner):
        """Paper, Table 3: at 4 GHz the best RAMpage time is 26% faster
        than the best baseline.  EXPERIMENTS.md "Table 3": +15.1%."""
        summary = {e["issue_rate_hz"]: e for e in table3.run(runner).data["summary"]}
        assert summary[FAST]["best_rampage_s"] < summary[FAST]["best_baseline_s"]

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "cold misses weigh more at reduced scale, so the 200 MHz "
            "crossover comes later than the paper's: RAMpage measures -0.5% "
            "(EXPERIMENTS.md, Table 3)"
        ),
    )
    def test_rampage_best_time_beats_baseline_best_at_200mhz(self, runner):
        """Paper, Table 3: at 200 MHz the best RAMpage time is 6% faster
        than the best baseline."""
        summary = {e["issue_rate_hz"]: e for e in table3.run(runner).data["summary"]}
        assert summary[SLOW]["best_rampage_s"] < summary[SLOW]["best_baseline_s"]

    def test_rampage_dram_fraction_is_below_baseline_at_every_size(self, runner):
        """Paper, Figures 2-3: "the RAMpage system is more tolerant of the
        increased DRAM latency."  EXPERIMENTS.md "Figure 2" and "Figure 3":
        RAMpage's DRAM fraction is smaller at every size, at both rates."""
        for figure in (run_figure2, run_figure3):
            data = figure(runner).data
            for base_row, ramp_row in zip(data["baseline"], data["rampage"]):
                assert base_row["size_bytes"] == ramp_row["size_bytes"]
                assert ramp_row["dram"] < base_row["dram"]

    def test_best_switching_page_is_at_least_the_best_no_switch_page(self, runner):
        """Paper, Table 4: with context switches on misses, larger pages
        become more viable.  EXPERIMENTS.md "Table 4": the best switching
        page size is at least the best no-switch size."""
        for entry in table4.run(runner).data["summary"]:
            assert entry["best_som_size"] >= entry["best_plain_size"]

    def test_rampage_worst_page_is_the_smallest(self, runner):
        """Paper, Table 3: RAMpage suffers at small pages (TLB overhead);
        Figure 5: RAMpage's bad region is small pages.  EXPERIMENTS.md
        "Table 3" and "Figure 5": the worst column is the smallest page,
        with and without switching."""
        smallest = min(runner.config.sizes)
        table = table3.run(runner).data
        for seconds in table["rampage_seconds"].values():
            assert table["sizes"][seconds.index(max(seconds))] == smallest
        for rate_entry in figure5.run(runner).data["rates"]:
            worst = max(rate_entry["rows"], key=lambda row: row["rampage_som"])
            assert worst["size_bytes"] == smallest
