"""Regenerates Table 4: RAMpage with context switches on misses.

Checks the ``table4`` claims of :mod:`repro.experiments.claims`
(section 5.4): switching on misses pays more as the CPU gets faster,
wins at the fastest rate, and favours larger pages.
"""

from repro.experiments import table4


def test_table4_switch_on_miss(benchmark, runner, emit, assert_claims):
    output = benchmark.pedantic(table4.run, args=(runner,), rounds=1, iterations=1)
    emit(output)
    assert_claims(output.name)
