"""Regenerates Table 1: Direct Rambus vs disk bandwidth efficiency.

Checks the ``table1`` claims of :mod:`repro.experiments.claims`,
including the section 3.5 worked example (4 KB at 1 GHz).
"""

from repro.experiments import table1


def test_table1_efficiency(benchmark, emit, assert_claims):
    output = benchmark.pedantic(table1.run, rounds=1, iterations=1)
    emit(output)
    assert_claims(output.name)
