"""Core building blocks shared across the simulator.

This subpackage holds the pieces every other layer depends on:

* :mod:`repro.core.errors` -- the exception hierarchy.
* :mod:`repro.core.rng` -- a deterministic xorshift generator used for
  random replacement so simulations are reproducible bit-for-bit.
* :mod:`repro.core.clock` -- integer-picosecond time accounting.
* :mod:`repro.core.params` -- validated parameter dataclasses describing
  the simulated machines (the paper's section 4 configurations).
* :mod:`repro.core.stats` -- counters and the per-level time breakdown
  used for the paper's figures.
* :mod:`repro.core.timer` -- wall-clock instrumentation (simulator
  throughput, as opposed to simulated time).
"""

from repro.core.clock import (
    PS_PER_NS,
    PS_PER_SECOND,
    SimClock,
    cycle_time_ps,
    ps_to_seconds,
    seconds_to_ps,
)
from repro.core.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceFormatError,
)
from repro.core.params import (
    BusParams,
    CacheParams,
    DiskParams,
    HandlerCosts,
    L1Params,
    MachineParams,
    RambusParams,
    RampageParams,
    TlbParams,
)
from repro.core.rng import XorShiftRNG
from repro.core.stats import LevelTimes, SimStats
from repro.core.timer import ScopedTimer, refs_per_second

__all__ = [
    "PS_PER_NS",
    "PS_PER_SECOND",
    "SimClock",
    "cycle_time_ps",
    "ps_to_seconds",
    "seconds_to_ps",
    "ConfigurationError",
    "ReproError",
    "SimulationError",
    "TraceFormatError",
    "BusParams",
    "CacheParams",
    "DiskParams",
    "HandlerCosts",
    "L1Params",
    "MachineParams",
    "RambusParams",
    "RampageParams",
    "TlbParams",
    "XorShiftRNG",
    "LevelTimes",
    "SimStats",
    "ScopedTimer",
    "refs_per_second",
]
