"""Experiment configuration and environment overrides.

The paper's full workload (1.1 G references, 500 k-reference time
slices, five issue rates, six sizes) is far beyond what a pure-Python
simulator should chew through by default, so experiments run a reduced
configuration whose *shape* (see DESIGN.md section 7) is preserved:

* ``scale`` multiplies each Table 2 program's reference count,
* ``slice_refs`` is the scheduling quantum.  It is deliberately *not*
  scaled in proportion (that would shrink slices to a few thousand
  references and TLB refill after every switch would swamp the
  measurement); EXPERIMENTS.md discusses the residual distortion.

Environment overrides (picked up by :meth:`ExperimentConfig.from_env`):

=================  =============================================
variable           meaning
=================  =============================================
REPRO_SCALE        workload scale factor (float)
REPRO_SLICE_REFS   scheduling quantum in references (int, ``2e4`` ok)
REPRO_RATES        comma-separated issue rates in Hz
REPRO_SIZES        comma-separated block/page sizes in bytes
REPRO_SEED         workload + replacement seed (int)
REPRO_CACHE_DIR    run-record cache directory ('' disables)
REPRO_EVENT_LOG    structured JSONL event-log file ('' disables)
=================  =============================================
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.clock import cycle_time_ps
from repro.core.errors import ConfigurationError

DEFAULT_RATES = (200_000_000, 1_000_000_000, 4_000_000_000)
DEFAULT_SIZES = (128, 256, 512, 1024, 2048, 4096)
DEFAULT_CACHE_DIR = Path(".repro_cache")


def integral(value, name: str) -> int:
    """``value`` as an exact integer, else a ValueError naming the field.

    Integers, integral finite floats (``1e9``) and strings spelling
    either pass; booleans, fractions, infinities and NaN do not.
    """
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            try:
                value = float(value)
            except ValueError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def real(value, name: str) -> float:
    """``value`` as a float, else a ValueError naming the field.

    Numbers and strings spelling one pass; a boolean is not a number
    here.
    """
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def integer_list(text: str, name: str) -> tuple[int, ...]:
    """A comma-separated list of :func:`integral` values (``2e8,4e9``).

    Blank items are skipped; anything else that is not an exact integer
    is a ValueError naming ``name``.  The one parser for the rates and
    sizes knobs of the environment, the CLI and the report query.
    """
    return tuple(integral(token, name) for token in text.split(",") if token.strip())


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment."""

    scale: float = 0.003
    slice_refs: int = 20_000
    issue_rates: tuple[int, ...] = DEFAULT_RATES
    sizes: tuple[int, ...] = DEFAULT_SIZES
    seed: int = 0
    cache_dir: Path | None = DEFAULT_CACHE_DIR
    event_log: Path | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigurationError(
                f"scale must be positive and finite, got {self.scale}"
            )
        if self.slice_refs <= 0:
            raise ConfigurationError(
                f"slice_refs must be positive, got {self.slice_refs}"
            )
        if not self.issue_rates or not self.sizes:
            raise ConfigurationError("issue_rates and sizes must be non-empty")
        if self.seed < 0:
            # Workload synthesis seeds numpy, which refuses negative entropy.
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        # The clock's own rule, so a job is refused when submitted rather
        # than failing when run: a rate must divide 10^12 ps.
        for rate in self.issue_rates:
            cycle_time_ps(rate)

    @property
    def slow_rate(self) -> int:
        """The Figure 2 issue rate (paper: 200 MHz)."""
        return min(self.issue_rates)

    @property
    def fast_rate(self) -> int:
        """The Figure 3 issue rate (paper: 4 GHz)."""
        return max(self.issue_rates)

    def quick(self) -> "ExperimentConfig":
        """A much smaller variant for tests and smoke runs."""
        return replace(
            self,
            scale=min(self.scale, 0.0002),
            slice_refs=min(self.slice_refs, 4_000),
            issue_rates=(self.slow_rate, self.fast_rate),
            sizes=(128, 1024, 4096),
            cache_dir=None,
        )

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "ExperimentConfig":
        """Build from defaults plus ``REPRO_*`` environment overrides."""
        env = dict(os.environ) if env is None else env
        kwargs: dict[str, object] = {}
        parsers = (
            ("REPRO_SCALE", "scale", real),
            ("REPRO_SLICE_REFS", "slice_refs", integral),
            ("REPRO_RATES", "issue_rates", integer_list),
            ("REPRO_SIZES", "sizes", integer_list),
            ("REPRO_SEED", "seed", integral),
        )
        for variable, field, parse in parsers:
            if variable in env:
                try:
                    kwargs[field] = parse(env[variable], variable)
                except ValueError as exc:
                    raise ConfigurationError(str(exc)) from exc
        if "REPRO_CACHE_DIR" in env:
            raw = env["REPRO_CACHE_DIR"]
            kwargs["cache_dir"] = Path(raw) if raw else None
        if "REPRO_EVENT_LOG" in env:
            raw = env["REPRO_EVENT_LOG"]
            kwargs["event_log"] = Path(raw) if raw else None
        return cls(**kwargs)  # type: ignore[arg-type]
