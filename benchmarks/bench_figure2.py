"""Regenerates Figure 2: per-level time fractions at the slow issue rate.

Checks the ``figure2`` claims of :mod:`repro.experiments.claims`
(section 5.3): L1d time is a very low fraction, the conventional
machine's DRAM fraction grows with block size, and RAMpage's DRAM
fraction is below the baseline's at every size.
"""

from repro.experiments.figures23 import run_figure2


def test_figure2_level_fractions(benchmark, runner, emit, assert_claims):
    output = benchmark.pedantic(run_figure2, args=(runner,), rounds=1, iterations=1)
    emit(output)
    assert_claims(output.name)
