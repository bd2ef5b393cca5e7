"""Regenerates Table 3: baseline direct-mapped L2 vs RAMpage run times.

Checks the ``table3`` claims of :mod:`repro.experiments.claims`
(section 5.2): RAMpage wins at the fastest rate, its advantage grows
with the CPU-DRAM speed gap, and its smallest page is its worst.  The
200 MHz win is a known distortion at reduced scale, reported only.
"""

from repro.experiments import table3


def test_table3_runtimes(benchmark, runner, emit, assert_claims):
    output = benchmark.pedantic(table3.run, args=(runner,), rounds=1, iterations=1)
    emit(output)
    assert_claims(output.name)
