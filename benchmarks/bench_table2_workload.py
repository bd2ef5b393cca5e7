"""Regenerates Table 2: the workload catalogue, plus generator throughput.

Checks the ``table2`` claims of :mod:`repro.experiments.claims` (the
catalogue total and each generator's instruction-fetch fraction).  The
benchmark measures trace-generation throughput, the substrate cost
under every simulation.
"""

from repro.experiments import table2
from repro.trace.synthetic import build_workload


def test_table2_catalogue(benchmark, runner, emit, assert_claims):
    output = benchmark.pedantic(table2.run, args=(runner,), rounds=1, iterations=1)
    emit(output)
    assert_claims(output.name)


def test_trace_generation_throughput(benchmark):
    def generate():
        total = 0
        for program in build_workload(scale=0.0002):
            for chunk in program.chunks():
                total += len(chunk)
        return total

    total = benchmark(generate)
    assert total > 200_000
