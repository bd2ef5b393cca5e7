"""The paper's claims, each defined once.

Every ordering or value the reproduction checks against the paper is
one :class:`Claim` in :data:`CLAIMS`: the paper's words and section,
the EXPERIMENTS.md section that reports it, and one function from a
:class:`~repro.experiments.runner.Runner` to ``(measured, holds)``,
where ``measured`` is the value as text.  Three readers share it:

* tier-1 asserts every claim on its small fixture grid
  (``tests/test_experiments.py``);
* each table and figure benchmark asserts its section's claims at its
  own grid (``benchmarks/conftest.py``);
* ``tools/generate_experiments_md.py`` renders each section's claims
  with their measured values and verdicts.

A claim with a ``note`` is one the reduced scale is known to distort:
the tests expect it to fail (a strict xfail whose reason is the note),
and the benchmarks and EXPERIMENTS.md report its verdict without
asserting it.  Claims read only Tables 1-2 (analytic and generator
samples) and the ``baseline``, ``rampage``, ``rampage_som`` and
``twoway`` grids, so checking them after the experiments ran adds no
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.report import format_rate
from repro.experiments import figure4, figure5, table1, table2, table3, table4
from repro.experiments.figures23 import run_figure2, run_figure3
from repro.experiments.runner import ExperimentOutput, Runner
from repro.trace.benchmarks import total_references_millions


Check = Callable[[Runner], tuple[str, bool]]


@dataclass(frozen=True)
class Claim:
    """One paper claim: plain data plus the function that measures it."""

    id: str  # stable identifier, also the test id
    section: str  # the EXPERIMENTS.md section (experiment name) reporting it
    source: str  # where the paper makes it
    paper: str  # the paper's words or their paraphrase, and what is checked
    check: Check  # runner -> (measured value as text, whether it holds)
    note: str | None = None  # why the reduced scale is known to break it


def _pct(fraction: float) -> str:
    return f"{fraction * 100:+.1f}%"


def _summary(output: ExperimentOutput) -> dict[int, dict]:
    """An experiment's per-rate summary rows, keyed by issue rate."""
    return {entry["issue_rate_hz"]: entry for entry in output.data["summary"]}


def _rambus_beats_disk(runner: Runner) -> tuple[str, bool]:
    rows = table1.run(runner).data["rows"]
    wins = sum(row["rambus_pct"] > row["disk_pct"] for row in rows)
    return f"higher at {wins} of {len(rows)} sizes", wins == len(rows)


def _rambus_efficiency_rises(runner: Runner) -> tuple[str, bool]:
    pcts = [row["rambus_pct"] for row in table1.run(runner).data["rows"]]
    return f"{pcts[0]:.2f}% to {pcts[-1]:.2f}%", pcts == sorted(pcts)


def _transfer_cost(key: str, expected: float, rel: float) -> Check:
    """Table 1's worked-example cost ``key`` is ``expected`` within ``rel``."""

    def check(runner: Runner) -> tuple[str, bool]:
        cost = table1.run(runner).data[key]
        return f"{cost:,.0f} instructions", abs(cost - expected) <= rel * expected

    return check


def _catalogue_total(runner: Runner) -> tuple[str, bool]:
    total = total_references_millions()
    return f"{total:.1f} M references", abs(total - 1093.1) <= 0.5


def _ifetch_fractions(runner: Runner) -> tuple[str, bool]:
    def gap(row: dict) -> float:
        return abs(row["ifetch_fraction_measured"] - row["ifetch_fraction_paper"])

    worst = max(table2.run(runner).data["programs"], key=gap)
    return (
        f"worst {worst['name']}: {worst['ifetch_fraction_measured']:.3f} "
        f"vs {worst['ifetch_fraction_paper']:.3f}",
        gap(worst) <= 0.05,
    )


def _gain_at(run: Callable[[Runner], ExperimentOutput], field: str, rate_attr: str) -> Check:
    """The speedup ``field`` of ``run``'s summary is positive at one end of
    the rate axis (``rate_attr`` is ``"slow_rate"`` or ``"fast_rate"``)."""

    def check(runner: Runner) -> tuple[str, bool]:
        rate = getattr(runner.config, rate_attr)
        gain = _summary(run(runner))[rate][field]
        return f"{_pct(gain)} at {format_rate(rate)}", gain > 0

    return check


def _gain_grows(run: Callable[[Runner], ExperimentOutput], field: str) -> Check:
    """The speedup ``field`` is larger at the fastest rate than the slowest."""

    def check(runner: Runner) -> tuple[str, bool]:
        summary = _summary(run(runner))
        slow, fast = runner.config.slow_rate, runner.config.fast_rate
        low, high = summary[slow][field], summary[fast][field]
        return (
            f"{_pct(low)} at {format_rate(slow)} to {_pct(high)} at {format_rate(fast)}",
            high > low,
        )

    return check


def _slowest_page_is_smallest(label: str) -> Check:
    """At every rate, grid ``label``'s slowest cell is its smallest page."""

    def check(runner: Runner) -> tuple[str, bool]:
        grid = runner.grid(label)
        slowest = {
            rate: max(grid.row(rate), key=lambda record: record.time_ps).size_bytes
            for rate in runner.config.issue_rates
        }
        return (
            ", ".join(f"{size} B at {format_rate(rate)}" for rate, size in slowest.items()),
            all(size == min(runner.config.sizes) for size in slowest.values()),
        )

    return check


def _switching_favours_larger_pages(runner: Runner) -> tuple[str, bool]:
    summary = table4.run(runner).data["summary"]
    return (
        ", ".join(
            f"{entry['best_som_size']} vs {entry['best_plain_size']} B "
            f"at {format_rate(entry['issue_rate_hz'])}"
            for entry in summary
        ),
        all(entry["best_som_size"] >= entry["best_plain_size"] for entry in summary),
    )


def _twoway_matches_baseline(runner: Runner) -> tuple[str, bool]:
    baseline, twoway = runner.grid("baseline"), runner.grid("twoway")
    config = runner.config
    cells = [(rate, size) for rate in config.issue_rates for size in config.sizes]
    wins = sum(
        twoway.cell(rate, size).time_ps <= baseline.cell(rate, size).time_ps * 1.01
        for rate, size in cells
    )
    return f"at {wins} of {len(cells)} cells", wins >= 0.7 * len(cells)


def _closeness(runner: Runner) -> tuple[str, bool]:
    fast = max(figure5.run(runner).data["rates"], key=lambda e: e["issue_rate_hz"])
    gap = abs(
        min(row["rampage_som"] for row in fast["rows"])
        - min(row["twoway"] for row in fast["rows"])
    )
    return f"{gap:.3f} apart at {format_rate(fast['issue_rate_hz'])}", gap < 0.5


def _l1d_fraction_low(runner: Runner) -> tuple[str, bool]:
    data = run_figure2(runner).data
    worst = max(row["l1d"] for row in data["baseline"] + data["rampage"])
    return f"at most {worst:.3f}", worst < 0.2


def _baseline_dram_grows(runner: Runner) -> tuple[str, bool]:
    rows = run_figure2(runner).data["baseline"]
    first, last = rows[0], rows[-1]
    return (
        f"{first['dram']:.3f} at {first['size_bytes']} B to "
        f"{last['dram']:.3f} at {last['size_bytes']} B",
        last["dram"] > first["dram"],
    )


def _rampage_dram_below_baseline(figure: Callable[[Runner], ExperimentOutput]) -> Check:
    """In ``figure``, RAMpage's DRAM fraction is below the baseline's at every size."""

    def check(runner: Runner) -> tuple[str, bool]:
        data = figure(runner).data
        baseline = {row["size_bytes"]: row["dram"] for row in data["baseline"]}
        rampage = {row["size_bytes"]: row["dram"] for row in data["rampage"]}
        closest = max(baseline, key=lambda size: rampage[size] - baseline[size])
        return (
            f"closest at {closest} B: {rampage[closest]:.3f} vs {baseline[closest]:.3f}",
            all(rampage[size] < baseline[size] for size in baseline),
        )

    return check


def _dram_fraction_rises(runner: Runner) -> tuple[str, bool]:
    slow, fast = run_figure2(runner).data, run_figure3(runner).data
    rise, panel, size = min(
        (fast_row["dram"] - slow_row["dram"], panel, slow_row["size_bytes"])
        for panel in ("baseline", "rampage")
        for slow_row, fast_row in zip(slow[panel], fast[panel])
    )
    return f"smallest rise {rise:+.3f} ({panel}, {size} B)", rise > 0


def _rampage_overhead_falls(runner: Runner) -> tuple[str, bool]:
    rows = figure4.run(runner).data["rows"]
    ratios = [row["rampage"] for row in rows]
    first, last = ratios[0], ratios[-1]
    return (
        f"{first:.3f} at {rows[0]['size_bytes']} B to {last:.3f} at "
        f"{rows[-1]['size_bytes']} B ({first / last:.1f}x)",
        first == max(ratios) and last == min(ratios) and first > 4 * last,
    )


def _baseline_overhead_flat(runner: Runner) -> tuple[str, bool]:
    ratios = [row["baseline"] for row in figure4.run(runner).data["rows"]]
    return f"{min(ratios):.3f} to {max(ratios):.3f}", max(ratios) - min(ratios) < 0.01


def _rampage_overhead_near_baseline(runner: Runner) -> tuple[str, bool]:
    last = figure4.run(runner).data["rows"][-1]
    return (
        f"{last['rampage']:.3f} vs {last['baseline']:.3f} at {last['size_bytes']} B",
        last["rampage"] < last["baseline"] + 0.60,
    )


#: Every claim, in EXPERIMENTS.md order: id, section, source, paper, check
#: and, for a claim the reduced scale distorts, the note.
CLAIMS: tuple[Claim, ...] = (
    Claim(
        "table1_rambus_beats_disk", "table1", "Table 1",
        "Direct Rambus uses a larger share of its bandwidth than disk at every transfer size",
        _rambus_beats_disk,
    ),
    Claim(
        "table1_efficiency_rises_with_size", "table1", "Table 1",
        "Direct Rambus efficiency rises with transfer size",
        _rambus_efficiency_rises,
    ),
    Claim(
        "table1_rambus_4k_cost", "table1", "§3.5",
        "a 4 KB Direct Rambus transfer at a 1 GHz issue rate costs ~2,600 instructions "
        "(checked: the model's exact 2,610)",
        _transfer_cost("rambus_cost_instructions_4k_1ghz", 2_610, 1e-6),
    ),
    Claim(
        "table1_disk_4k_cost", "table1", "§3.5",
        "a 4 KB disk transfer at a 1 GHz issue rate costs ~10 million instructions "
        "(checked: 10.1 M within 1%)",
        _transfer_cost("disk_cost_instructions_4k_1ghz", 10.1e6, 0.01),
    ),
    Claim(
        "table2_catalogue_total", "table2", "Table 2",
        '"1.1-billion-reference" combined traces (checked: 1093.1 M within 0.5 M)',
        _catalogue_total,
    ),
    Claim(
        "table2_ifetch_fractions", "table2", "Table 2",
        "each program's instruction-fetch fraction is its catalogue row's "
        "(checked: every generator within 0.05)",
        _ifetch_fractions,
    ),
    Claim(
        "table3_rampage_wins_at_slow_rate", "table3", "§5.2",
        "at 200 MHz the best RAMpage time is 6% faster than the best baseline time "
        "(checked: faster)",
        _gain_at(table3.run, "rampage_speedup", "slow_rate"),
        note="cold misses weigh more at reduced scale, so the crossover comes later than "
        "the paper's and RAMpage does not yet lead at the slowest rate",
    ),
    Claim(
        "table3_rampage_wins_at_fast_rate", "table3", "§5.2",
        "at 4 GHz the best RAMpage time is 26% faster than the best baseline time "
        "(checked: faster)",
        _gain_at(table3.run, "rampage_speedup", "fast_rate"),
    ),
    Claim(
        "table3_win_grows_with_rate", "table3", "§5.2",
        "RAMpage's advantage grows with the CPU-DRAM speed gap, from 6% at 200 MHz to 26% "
        "at 4 GHz (checked: larger at the fastest rate than at the slowest)",
        _gain_grows(table3.run, "rampage_speedup"),
    ),
    Claim(
        "table3_rampage_worst_page_smallest", "table3", "§5.2",
        "RAMpage suffers at small pages (TLB overhead): its slowest page size is the "
        "smallest, at every rate",
        _slowest_page_is_smallest("rampage"),
    ),
    Claim(
        "figure2_l1d_fraction_low", "figure2", "§5.3",
        "L1d time is a very low fraction: inclusion maintenance only, since data hits are "
        "fully pipelined (checked: under 0.2)",
        _l1d_fraction_low,
    ),
    Claim(
        "figure2_baseline_dram_grows_with_block", "figure2", "§5.3",
        "the conventional machine's DRAM fraction grows with block size",
        _baseline_dram_grows,
    ),
    Claim(
        "figure2_rampage_dram_below_baseline", "figure2", "§5.3",
        "RAMpage spends a smaller fraction of its time in DRAM than the baseline, at every "
        "size",
        _rampage_dram_below_baseline(run_figure2),
    ),
    Claim(
        "figure3_dram_fraction_rises", "figure3", "§5.3",
        "scaling the CPU up without the DRAM raises the DRAM fraction of both machines at "
        "every size",
        _dram_fraction_rises,
    ),
    Claim(
        "figure3_rampage_dram_below_baseline", "figure3", "§5.3",
        '"the RAMpage system is more tolerant of the increased DRAM latency": its DRAM '
        "fraction stays below the baseline's at every size",
        _rampage_dram_below_baseline(run_figure3),
    ),
    Claim(
        "figure4_rampage_overhead_falls", "figure4", "§5.3",
        "RAMpage's handler overhead is largest at the smallest page and falls steeply with "
        "page size (checked: more than 4x)",
        _rampage_overhead_falls,
    ),
    Claim(
        "figure4_baseline_overhead_flat", "figure4", "§5.3",
        '"the baseline hierarchy data is the same across all block sizes" '
        "(checked: within 0.01)",
        _baseline_overhead_flat,
    ),
    Claim(
        "figure4_rampage_near_baseline_at_largest_page", "figure4", "§5.3",
        "at the largest page RAMpage's overhead approaches the baseline's "
        "(checked: within 0.60)",
        _rampage_overhead_near_baseline,
    ),
    Claim(
        "table4_gain_grows_with_rate", "table4", "§5.4",
        "switching on misses pays more as the CPU gets faster (checked: a larger gain at "
        "the fastest rate than at the slowest)",
        _gain_grows(table4.run, "speedup_vs_no_switch"),
    ),
    Claim(
        "table4_gain_at_fast_rate", "table4", "§5.4",
        '"a modest speed improvement (up to 16% in the 4GHz case over the best RAMpage '
        'time without context switches on misses)" (checked: a gain at the fastest rate)',
        _gain_at(table4.run, "speedup_vs_no_switch", "fast_rate"),
    ),
    Claim(
        "table4_larger_pages_viable", "table4", "§5.4",
        "larger pages become more viable: the best switching page is at least the best "
        "no-switch page, at every rate",
        _switching_favours_larger_pages,
    ),
    Claim(
        "table5_twoway_matches_baseline", "table5", "§5.5",
        "the 2-way L2 is at least as fast as the direct-mapped L2 "
        "(checked: within 1% at 70% of cells or more)",
        _twoway_matches_baseline,
    ),
    Claim(
        "figure5_rampage_worst_page_smallest", "figure5", "§5.5",
        "RAMpage's bad region is small pages: with switching on misses, its slowest page "
        "is the smallest, at every rate",
        _slowest_page_is_smallest("rampage_som"),
    ),
    Claim(
        "figure5_closeness", "figure5", "§5.5",
        '"the closeness of the RAMpage and 2-way associative times" '
        "(checked: best cells under 0.5 apart at the fastest rate)",
        _closeness,
    ),
)
