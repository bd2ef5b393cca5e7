"""Regenerates Table 5: 2-way associative L2 with scheduled switches.

Checks the ``table5`` claims of :mod:`repro.experiments.claims`
(section 5.5), and one claim the registry cannot read from the grids
(section 4.7): adding the context-switch trace itself is a small effect
(paper: "the difference made by adding a trace of context switching
code and data is insignificant (under 1%)") -- checked against a
no-switch 2-way run at one configuration.
"""

from repro.experiments import table5
from repro.systems.factory import twoway_machine


def test_table5_two_way(benchmark, runner, emit, assert_claims):
    output = benchmark.pedantic(table5.run, args=(runner,), rounds=1, iterations=1)
    emit(output)
    assert_claims(output.name)


def test_switch_trace_effect_is_small(benchmark, runner):
    """Section 4.7: the switch trace itself changes run time by <1%
    (we allow 3% at reduced scale)."""
    rate = runner.config.fast_rate
    size = 1024

    def run_pair():
        with_switches = runner.record(
            "twoway", twoway_machine(rate, size, scheduled_switches=True)
        )
        without = runner.record(
            "twoway_nosw", twoway_machine(rate, size, scheduled_switches=False)
        )
        return with_switches, without

    with_switches, without = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    delta = abs(with_switches.time_ps - without.time_ps) / without.time_ps
    assert delta < 0.03
