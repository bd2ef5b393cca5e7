"""End-to-end tests of the experiment modules at a tiny scale.

A single module-scoped Runner (tiny workload, no disk cache) feeds every
experiment.  The class tests check the *structure* of each output;
:func:`test_paper_claim` checks every claim of the registry in
:mod:`repro.experiments.claims`, and
:func:`test_experiments_md_renders_every_claim_once` renders
EXPERIMENTS.md over the same grids.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, Runner
from repro.experiments import figure4, figure5, table1, table2, table3, table4, table5
from repro.experiments.claims import CLAIMS
from repro.experiments.figures23 import run_figure2, run_figure3
from repro.experiments.runner import GRID_BUILDERS, iter_cache_files

GENERATOR = Path(__file__).resolve().parents[1] / "tools" / "generate_experiments_md.py"


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


class TestTable3:
    def test_shape(self, runner):
        out = table3.run(runner)
        assert len(out.data["summary"]) == 2
        for entry in out.data["summary"]:
            assert entry["best_baseline_s"] > 0
            assert entry["best_rampage_s"] > 0


class TestTable4:
    def test_structure(self, runner):
        out = table4.run(runner)
        assert len(out.data["summary"]) == 2
        for entry in out.data["summary"]:
            assert entry["best_som_s"] > 0


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


@pytest.mark.parametrize(
    "claim",
    [
        pytest.param(
            claim,
            id=claim.id,
            marks=pytest.mark.xfail(strict=True, reason=claim.note) if claim.note else (),
        )
        for claim in CLAIMS
    ],
)
def test_paper_claim(runner, claim):
    """Each registry claim on the fixture's grids (no extra simulation).

    A claim the reduced scale is known to distort carries a note and
    is a strict xfail, never a loosened bound.
    """
    measured, holds = claim.check(runner)
    assert holds, f"{claim.paper} ({claim.source}): measured {measured}"


def test_experiments_md_renders_every_claim_once(runner):
    """The EXPERIMENTS.md generator over the fixture's grids: each claim
    is rendered once with the registry's verdict, and each fenced block
    is its experiment's text."""
    spec = importlib.util.spec_from_file_location("generate_experiments_md", GENERATOR)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    misses = runner.cache_stats.misses
    text = generator.render(runner)
    assert runner.cache_stats.misses == misses
    for claim in CLAIMS:
        assert text.count(claim.id) == 1, claim.id
        row = next(line for line in text.splitlines() if f"`{claim.id}`" in line)
        measured, holds = claim.check(runner)
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert cells[3] == measured
        assert cells[4].startswith("yes" if holds else "no")
    outputs = [
        table1.run(runner),
        table2.run(runner),
        table3.run(runner),
        run_figure2(runner),
        run_figure3(runner),
        figure4.run(runner),
        table4.run(runner),
        table5.run(runner),
        figure5.run(runner),
    ]
    fenced = re.findall(r"^```\n(.*?)\n```$", text, flags=re.S | re.M)
    assert fenced == [output.text for output in outputs]
