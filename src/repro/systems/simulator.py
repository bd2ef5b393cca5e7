"""Simulation driver.

Connects a machine (:mod:`repro.systems.conventional` or
:mod:`repro.systems.rampage`) to an interleaved workload
(:mod:`repro.trace.interleave`), implementing the two scheduling
behaviours of the paper:

* **scheduled switches** -- when the workload rotates to the next
  program's time slice, a context-switch trace is inserted
  (sections 4.6-4.7),
* **switch on miss** -- when the RAMpage machine preempts on a page
  fault, the simulator pushes the unconsumed references back and
  rotates immediately; the switch trace was already charged by the
  fault path, so no second trace is inserted at the resulting slice
  boundary.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import ConfigurationError
from repro.core.params import MachineParams
from repro.systems.base import MemorySystem, SimulationResult
from repro.trace.interleave import InterleavedWorkload
from repro.trace.synthetic import SyntheticProgram


class Simulator:
    """Runs one machine over one interleaved workload."""

    def __init__(self, system: MemorySystem, workload: InterleavedWorkload) -> None:
        self.system = system
        self.workload = workload
        params = system.params
        self.scheduled_switches = params.scheduled_switches
        self.preemptions = 0

    def run(self, max_refs: int | None = None) -> SimulationResult:
        """Drive the workload to completion (or ``max_refs``)."""
        if max_refs is not None and max_refs <= 0:
            raise ConfigurationError(f"max_refs must be positive, got {max_refs}")
        system = self.system
        workload = self.workload
        consumed_total = 0
        first_slice = True
        skip_switch_trace = False
        while True:
            chunk = workload.next_chunk()
            if chunk is None:
                break
            if chunk.new_slice and not first_slice:
                if self.scheduled_switches and not skip_switch_trace:
                    system.context_switch(chunk.pid)
                skip_switch_trace = False
            first_slice = False
            consumed = system.run_chunk(chunk)
            consumed_total += consumed
            if consumed < len(chunk):
                # The machine preempted mid-chunk (switch on miss): hand
                # the tail back and rotate.  The fault path already ran
                # the switch trace.
                self.preemptions += 1
                workload.preempt(chunk.tail(consumed))
                skip_switch_trace = True
            if max_refs is not None and consumed_total >= max_refs:
                break
        return system.finalize()


def simulate(
    params: MachineParams,
    programs: Sequence[SyntheticProgram],
    slice_refs: int = 500_000,
    max_refs: int | None = None,
    record_plane=None,
) -> SimulationResult:
    """Build a machine for ``params`` and run it over ``programs``.

    This is the library's main entry point: a one-call reproduction of
    one cell of the paper's result tables.

    ``record_plane`` (a :class:`~repro.trace.filter.PlaneRecorder`)
    additionally records the run's miss plane; the run itself is the
    plain simulation, so its result is byte-identical either way.
    """
    from repro.systems.factory import build_system

    system = build_system(params)
    if record_plane is not None:
        system.attach_plane_recorder(record_plane)
    workload = InterleavedWorkload(programs, slice_refs=slice_refs)
    result = Simulator(system, workload).run(max_refs=max_refs)
    if record_plane is not None:
        record_plane.capture(
            system.clock.cycle_ps, result.stats.as_dict(), system.params
        )
    return result
