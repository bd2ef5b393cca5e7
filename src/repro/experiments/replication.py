"""Multi-seed replication: statistical confidence for simulation claims.

The paper reports single trace-driven runs; with synthetic workloads we
can do better -- regenerate the workload under several seeds and report
mean, standard deviation and a t-based 95% confidence interval for any
scalar metric of a cell's :class:`~repro.analysis.runtime.RunRecord`.
:func:`compare` replicates two machines and tests whether one is faster
with non-overlapping confidence intervals.

Each seed's cell is computed by a :class:`~repro.experiments.runner.Runner`
over the configuration with that seed, so it goes through the record
cache, the trace artifact and the miss planes like any grid cell, and a
rerun over a cache directory is warm.  Seeds run in order, in process,
so any callable -- lambdas included -- works as a metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from scipy import stats as scipy_stats

from repro.analysis.runtime import RunRecord
from repro.core.errors import ConfigurationError
from repro.core.observe import EventLog
from repro.core.params import MachineParams
from repro.core.timer import ScopedTimer
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Runner

MetricFn = Callable[[RunRecord], float]


def seconds_metric(record: RunRecord) -> float:
    """The default metric: simulated run time in seconds."""
    return record.seconds


@dataclass(frozen=True)
class ReplicationResult:
    """Summary statistics of one metric across seeds."""

    values: tuple[float, ...]
    mean: float
    std: float
    ci95_low: float
    ci95_high: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ReplicationResult":
        if len(values) < 2:
            raise ConfigurationError(
                f"replication needs at least 2 seeds, got {len(values)}"
            )
        values = tuple(float(v) for v in values)
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = var**0.5
        half_width = float(
            scipy_stats.t.ppf(0.975, df=n - 1) * std / n**0.5
        )
        return cls(
            values=values,
            mean=mean,
            std=std,
            ci95_low=mean - half_width,
            ci95_high=mean + half_width,
        )

    @property
    def relative_std(self) -> float:
        """Coefficient of variation (0 when the mean is 0)."""
        return self.std / self.mean if self.mean else 0.0

    def overlaps(self, other: "ReplicationResult") -> bool:
        """True when the two 95% confidence intervals overlap."""
        return self.ci95_low <= other.ci95_high and other.ci95_low <= self.ci95_high


def replicate(
    params: MachineParams,
    config: ExperimentConfig,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    metric: MetricFn = seconds_metric,
    events: EventLog | None = None,
) -> ReplicationResult:
    """Run one machine under several workload seeds.

    Duplicate seeds are a configuration error: they would silently
    shrink the effective sample and understate the variance, so the
    mistake is rejected up front rather than folded into the stats.
    """
    seeds = tuple(seeds)
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"replication seeds must be unique, got {seeds}")
    if events is not None:
        events.emit("replication_started", kind=params.kind, seeds=list(seeds))
    with ScopedTimer() as timer:
        summary = ReplicationResult.from_values(
            [
                metric(Runner(replace(config, seed=seed)).record(params.kind, params))
                for seed in seeds
            ]
        )
    if events is not None:
        events.emit(
            "replication_completed",
            kind=params.kind,
            seeds=list(seeds),
            mean=summary.mean,
            std=summary.std,
            wall_s=round(timer.elapsed, 6),
        )
    return summary


def compare(
    a: MachineParams,
    b: MachineParams,
    config: ExperimentConfig,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    metric: MetricFn = seconds_metric,
    events: EventLog | None = None,
) -> dict[str, object]:
    """Replicate two machines and summarise the comparison.

    Returns the two :class:`ReplicationResult` values, the mean speedup
    of ``b`` over ``a`` (``a.mean / b.mean - 1``), and whether the
    confidence intervals separate (``significant``).
    """
    result_a = replicate(a, config, seeds, metric, events)
    result_b = replicate(b, config, seeds, metric, events)
    return {
        "a": result_a,
        "b": result_b,
        "speedup_b_over_a": result_a.mean / result_b.mean - 1.0,
        "significant": not result_a.overlaps(result_b),
    }
