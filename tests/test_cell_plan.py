"""The cell plan: every grid cell's machine and cache key, derived once.

:func:`repro.experiments.runner.grid_plan` serves the runner, the
service's job planner and the report builder from one process-wide
memo over :func:`repro.experiments.runner._cache_key`.  Job ids hash
these keys and must survive journal recovery, so a memoized key must be
exactly the key the derivation gives, whatever spelling of a knob the
process met first.
"""

from collections import Counter

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import GRID_BUILDERS, Runner, grid_plan
from repro.reports.builder import build_report
from repro.service.jobs import JobSpec, plan_cells
from repro.trace import filter as missplane
from repro.trace import materialize


@pytest.fixture(autouse=True)
def empty_plan_memo():
    runner_mod._plan_cell.cache_clear()
    yield
    runner_mod._plan_cell.cache_clear()


def config(cache_dir=None, **overrides) -> ExperimentConfig:
    fields = dict(
        scale=0.0001,
        slice_refs=4_000,
        issue_rates=(10**9, 4 * 10**9),
        sizes=(1024,),
        seed=0,
        cache_dir=cache_dir,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


@pytest.mark.parametrize("order", [(1, 1.0), (1.0, 1)])
def test_memoized_keys_keep_the_spelling_of_each_knob(order):
    keys = {}
    for scale in order:
        cfg = config(scale=scale)
        plan = grid_plan("rampage", cfg)
        for params, key in plan:
            assert key == runner_mod._cache_key(
                params, scale, cfg.slice_refs, cfg.seed
            )
        keys[type(scale)] = [key for _params, key in plan]
    assert keys[int] != keys[float]


def test_plan_matches_the_builders_in_grid_order():
    cfg = config(sizes=(128, 4096))
    plan = grid_plan("baseline", cfg)
    builder = GRID_BUILDERS["baseline"]
    assert [params for params, _key in plan] == [
        builder(rate, size) for rate in cfg.issue_rates for size in cfg.sizes
    ]
    assert grid_plan("baseline", cfg) == plan


def test_one_build_and_one_hash_per_cell_per_process(tmp_path, monkeypatch):
    """Planning a job, building a report and a cold then a warm grid
    build each cell's machine once and hash its key once; the planner
    and the report builder construct no runner."""
    builds: Counter = Counter()
    hashes: Counter = Counter()
    real_builder = GRID_BUILDERS["baseline"]
    real_key = runner_mod._cache_key

    def counting_builder(rate, size):
        builds[(rate, size)] += 1
        return real_builder(rate, size)

    def counting_key(params, *knobs):
        hashes[repr(params)] += 1
        return real_key(params, *knobs)

    def no_runner(*args, **kwargs):
        raise AssertionError("constructed a Runner")

    monkeypatch.setitem(GRID_BUILDERS, "baseline", counting_builder)
    monkeypatch.setattr(runner_mod, "_cache_key", counting_key)
    cfg = config(tmp_path)
    spec = JobSpec(
        labels=("baseline",),
        scale=cfg.scale,
        slice_refs=cfg.slice_refs,
        issue_rates=cfg.issue_rates,
        sizes=cfg.sizes,
        seed=cfg.seed,
    )
    with monkeypatch.context() as patch:
        patch.setattr(Runner, "__init__", no_runner)
        planned = plan_cells(spec, cfg)
        report = build_report("baseline", cfg)
    assert report.present == 0
    materialize.clear_registry()
    missplane.clear_registry()
    Runner(cfg).grid("baseline")
    Runner(cfg).grid("baseline")
    assert sorted(builds) == [(rate, 1024) for rate in cfg.issue_rates]
    assert set(builds.values()) == {1}
    assert len(hashes) == 2 and set(hashes.values()) == {1}
    assert [cell.key for cell in planned] == [
        key for _params, key in grid_plan("baseline", cfg)
    ]
