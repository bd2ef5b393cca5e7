"""Regenerates Figure 5: RAMpage (switch on miss) vs 2-way L2, relative
to the per-rate best time.

Checks the ``figure5`` claims of :mod:`repro.experiments.claims`
(section 5.5): "the closeness of the RAMpage and 2-way associative
times", and RAMpage's bad region is small pages.  Every slowdown is
relative to the per-rate best, so the smallest is 0.
"""

from repro.experiments import figure5


def test_figure5_relative_speed(benchmark, runner, emit, assert_claims):
    output = benchmark.pedantic(figure5.run, args=(runner,), rounds=1, iterations=1)
    emit(output)
    for entry in output.data["rates"]:
        values = [row[label] for row in entry["rows"] for label in ("rampage_som", "twoway")]
        assert min(values) >= 0.0
    assert_claims(output.name)
