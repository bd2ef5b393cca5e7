"""Regenerates Figure 4: TLB miss + page fault handling overheads.

Checks the ``figure4`` claims of :mod:`repro.experiments.claims`
(section 5.3): RAMpage's overhead is largest at the smallest page and
falls steeply with page size, approaching the baseline's at the largest
page, and the baseline's is flat across block sizes.
"""

from repro.experiments import figure4


def test_figure4_overheads(benchmark, runner, emit, assert_claims):
    output = benchmark.pedantic(figure4.run, args=(runner,), rounds=1, iterations=1)
    emit(output)
    assert_claims(output.name)
