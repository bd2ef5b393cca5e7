"""Regenerates Figure 3: per-level time fractions at the fast issue rate.

Checks the ``figure3`` claims of :mod:`repro.experiments.claims`
(section 5.3): "the RAMpage system is more tolerant of the increased
DRAM latency" -- scaling the CPU up without the DRAM raises every DRAM
fraction, but RAMpage's stays below the conventional machine's.
"""

from repro.experiments.figures23 import run_figure3


def test_figure3_level_fractions(benchmark, runner, emit, assert_claims):
    output = benchmark.pedantic(run_figure3, args=(runner,), rounds=1, iterations=1)
    emit(output)
    assert_claims(output.name)
