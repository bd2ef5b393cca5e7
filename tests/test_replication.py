"""Tests for multi-seed replication statistics."""

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import (
    ReplicationResult,
    compare,
    replicate,
)
from repro.systems.factory import baseline_machine, rampage_machine

TINY = ExperimentConfig(scale=0.0001, slice_refs=2_000, cache_dir=None)


class TestReplicationResult:
    def test_mean_std(self):
        result = ReplicationResult.from_values([1.0, 2.0, 3.0])
        assert result.mean == pytest.approx(2.0)
        assert result.std == pytest.approx(1.0)
        assert result.ci95_low < 2.0 < result.ci95_high

    def test_ci_narrows_with_more_samples(self):
        few = ReplicationResult.from_values([1.0, 2.0, 3.0])
        many = ReplicationResult.from_values([1.0, 2.0, 3.0] * 5)
        assert (many.ci95_high - many.ci95_low) < (few.ci95_high - few.ci95_low)

    def test_needs_two_values(self):
        with pytest.raises(ConfigurationError):
            ReplicationResult.from_values([1.0])

    def test_overlap_detection(self):
        a = ReplicationResult.from_values([1.0, 1.1, 0.9])
        b = ReplicationResult.from_values([1.05, 1.15, 0.95])
        c = ReplicationResult.from_values([5.0, 5.1, 4.9])
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_relative_std(self):
        result = ReplicationResult.from_values([2.0, 2.0, 2.0])
        assert result.relative_std == 0.0


class TestReplicate:
    def test_replicate_returns_per_seed_values(self):
        result = replicate(
            baseline_machine(10**9, 1024), TINY, seeds=(0, 1, 2)
        )
        assert len(result.values) == 3
        assert all(v > 0 for v in result.values)
        # Different seeds give different (but similar) workloads.
        assert len(set(result.values)) > 1
        assert result.relative_std < 0.25

    def test_custom_metric(self):
        result = replicate(
            baseline_machine(10**9, 1024),
            TINY,
            seeds=(0, 1),
            metric=lambda r: float(r.stats["l2_misses"]),
        )
        assert all(v == int(v) for v in result.values)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            replicate(baseline_machine(10**9, 1024), TINY, seeds=(0, 1, 0))

    def test_events_emitted(self):
        from repro.core.observe import EventLog

        events = EventLog()
        replicate(
            baseline_machine(10**9, 1024), TINY, seeds=(0, 1), events=events
        )
        assert [e["event"] for e in events.events] == [
            "replication_started",
            "replication_completed",
        ]
        assert events.events[1]["mean"] > 0


class TestCompare:
    def test_compare_structure(self):
        outcome = compare(
            baseline_machine(10**9, 1024),
            rampage_machine(10**9, 1024),
            TINY,
            seeds=(0, 1, 2),
        )
        assert isinstance(outcome["a"], ReplicationResult)
        assert isinstance(outcome["b"], ReplicationResult)
        assert isinstance(outcome["significant"], bool)
        # speedup consistent with the means.
        expected = outcome["a"].mean / outcome["b"].mean - 1.0
        assert outcome["speedup_b_over_a"] == pytest.approx(expected)
