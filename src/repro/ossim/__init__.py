"""Operating-system model.

RAMpage trades hardware for software: TLB misses, page faults and
context switches run as OS code through the simulated hierarchy.  The
paper models this by interleaving traces of handler software
(sections 4.3 and 4.6); this package synthesises those handler
reference sequences and lays out the OS's pinned footprint.

* :mod:`repro.ossim.footprint` -- where OS code, data and the inverted
  page table live (pinned SRAM frames for RAMpage, a reserved DRAM
  region for the conventional machine).
* :mod:`repro.ossim.handlers` -- reference sequences for the TLB-miss,
  page-fault and context-switch handlers.

When switches happen is not an OS-model object: the policy is
:class:`~repro.core.params.MachineParams`' ``switch_on_miss`` and
``scheduled_switches``, and :mod:`repro.trace.interleave` rotates the
programs.
"""

from repro.ossim.footprint import OsLayout, conventional_layout, rampage_layout
from repro.ossim.handlers import HandlerLibrary

__all__ = [
    "OsLayout",
    "conventional_layout",
    "rampage_layout",
    "HandlerLibrary",
]
