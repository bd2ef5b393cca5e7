"""Tests for experiment configuration and env overrides."""

from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.config import DEFAULT_SIZES, ExperimentConfig


def test_defaults_are_sane():
    config = ExperimentConfig()
    assert config.sizes == DEFAULT_SIZES
    assert config.slow_rate == 200_000_000
    assert config.fast_rate == 4_000_000_000


def test_quick_shrinks_everything():
    quick = ExperimentConfig().quick()
    assert quick.scale <= 0.0002
    assert quick.cache_dir is None
    assert len(quick.issue_rates) == 2


def test_from_env_overrides():
    env = {
        "REPRO_SCALE": "0.01",
        "REPRO_SLICE_REFS": "1234",
        "REPRO_RATES": "200000000,1e9",
        "REPRO_SIZES": "128,4096",
        "REPRO_SEED": "42",
        "REPRO_CACHE_DIR": "/tmp/somewhere",
    }
    config = ExperimentConfig.from_env(env)
    assert config.scale == 0.01
    assert config.slice_refs == 1234
    assert config.issue_rates == (200_000_000, 1_000_000_000)
    assert config.sizes == (128, 4096)
    assert config.seed == 42
    assert config.cache_dir == Path("/tmp/somewhere")


def test_from_env_empty_cache_dir_disables():
    config = ExperimentConfig.from_env({"REPRO_CACHE_DIR": ""})
    assert config.cache_dir is None


def test_from_env_event_log():
    config = ExperimentConfig.from_env({"REPRO_EVENT_LOG": "/tmp/events.jsonl"})
    assert config.event_log == Path("/tmp/events.jsonl")
    assert ExperimentConfig.from_env({"REPRO_EVENT_LOG": ""}).event_log is None
    assert ExperimentConfig.from_env({}).event_log is None


def test_from_env_ignores_unrelated(monkeypatch):
    config = ExperimentConfig.from_env({})
    assert config == ExperimentConfig()


def test_rejects_bad_scale():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(scale=0)


def test_rejects_empty_axes():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(issue_rates=())
    with pytest.raises(ConfigurationError):
        ExperimentConfig(sizes=())


@pytest.mark.parametrize(
    "variable, value",
    [("REPRO_RATES", "1.5"), ("REPRO_RATES", "2e8,abc"), ("REPRO_SIZES", "1024.5")],
)
def test_from_env_rejects_non_integral_lists(variable, value):
    # A fractional rate used to truncate to a 1 Hz grid, and a
    # fractional size died with a bare ValueError.
    with pytest.raises(ConfigurationError, match=variable):
        ExperimentConfig.from_env({variable: value})


def test_from_env_lists_accept_scientific_notation():
    config = ExperimentConfig.from_env(
        {"REPRO_RATES": "2e8, 4e9", "REPRO_SIZES": "1.28e2,4096,"}
    )
    assert config.issue_rates == (200_000_000, 4_000_000_000)
    assert config.sizes == (128, 4096)


def test_from_env_integers_accept_scientific_notation():
    config = ExperimentConfig.from_env({"REPRO_SLICE_REFS": "2e4", "REPRO_SEED": "1e0"})
    assert config.slice_refs == 20_000
    assert config.seed == 1


@pytest.mark.parametrize("variable", ["REPRO_SLICE_REFS", "REPRO_SEED"])
@pytest.mark.parametrize("value", ["2.5", "abc", "true"])
def test_from_env_rejects_non_integral_integers(variable, value):
    with pytest.raises(ConfigurationError, match=variable):
        ExperimentConfig.from_env({variable: value})


@pytest.mark.parametrize("value", ["abc", "true", ""])
def test_from_env_rejects_a_non_numeric_scale(value):
    with pytest.raises(ConfigurationError, match="REPRO_SCALE"):
        ExperimentConfig.from_env({"REPRO_SCALE": value})
