"""Single format-dispatch exporter: one report, five output formats.

:func:`export_report` turns a :class:`~repro.reports.builder.GridReport`
into bytes in any of :data:`FORMATS`.  All formats share the same gap
semantics: a missing cell shows up as an explicit hole (``null`` record
in JSON, empty metric columns in CSV, an em-dash in the tables, a
placeholder panel in SVG) and the document carries the report's
completeness ratio -- a partial cache never makes an export fail.

Exports are deliberately timestamp-free so the same cache state always
produces the same bytes, whichever path rendered it (offline CLI,
``--server`` CLI, or a direct HTTP GET).
"""

from __future__ import annotations

import csv
import functools
import io
import json

from repro.analysis.figures_svg import (
    FIGURE_LEVELS,
    figure4_chart,
    figure5_chart,
    figure23_panel,
    stacked_fraction_panel,
)
from repro.analysis.fractions import level_fraction_rows
from repro.analysis.report import format_rate
from repro.analysis.runtime import RunRecord
from repro.core.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.reports.builder import GridReport, ReportCell

#: Envelope identifier carried by the JSON export.
REPORT_SCHEMA = "rampage-report/1"

#: Formats :func:`export_report` understands, in documentation order.
FORMATS = ("svg", "html", "json", "md", "csv")

#: HTTP Content-Type per format.
CONTENT_TYPES = {
    "svg": "image/svg+xml",
    "html": "text/html; charset=utf-8",
    "json": "application/json",
    "md": "text/markdown; charset=utf-8",
    "csv": "text/csv; charset=utf-8",
}

#: How many rendered exports the process-wide export memo keeps.  Ten
#: report names in five formats are 50 exports of one workload: 1.2 MiB
#: with their keys at the paper's grids, the largest (``figures`` as
#: JSON) 150 KB.
EXPORT_MEMO_REPORTS = 64

_GAP = "—"  # em dash: the tables' explicit missing-cell marker

# Panel geometry shared by the SVG composition (the figure panels are
# 560x340 or 560x360; the composition cell is the larger of the two).
_PANEL_W = 560
_PANEL_H = 360
_HEADER_H = 40


def export_report(report: GridReport, fmt: str) -> bytes:
    """Render ``report`` as ``fmt`` bytes; raises on unknown formats.

    The bytes come from a bounded, process-wide memo keyed on everything
    a renderer reads: the format, the report's name, labels and config,
    and each cell's label, key, kind, issue rate, size and record.  An
    unchanged report therefore costs no render, and a report whose cells
    changed in any way is rendered afresh.
    """
    if fmt not in _RENDERERS:
        raise ConfigurationError(
            f"unknown report format {fmt!r}; known: {list(FORMATS)}"
        )
    cells = tuple(
        (
            cell.label,
            cell.key,
            cell.kind,
            cell.issue_rate_hz,
            cell.size_bytes,
            _Same(cell.record),
        )
        for cell in report.cells
    )
    config = report.config
    return _export(fmt, report.name, report.labels, config, repr(config), cells)


class _Same:
    """A cell's record (``None`` for a gap), hashed and compared by identity.

    Equal records need not print alike (``1`` and ``1.0`` compare
    equal), while one object always does.  The decode memo hands every
    reader of one validated text the same record, and the memo entry
    holding this wrapper keeps its ``id`` from being reused.
    """

    __slots__ = ("record",)

    def __init__(self, record: RunRecord | None) -> None:
        self.record = record

    def __hash__(self) -> int:
        return id(self.record)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Same) and self.record is other.record


@functools.lru_cache(maxsize=EXPORT_MEMO_REPORTS)
def _export(
    fmt: str,
    name: str,
    labels: tuple[str, ...],
    config: ExperimentConfig,
    config_repr: str,
    cells: tuple,
) -> bytes:
    """One export, rendered from its memo key alone.

    ``config_repr`` is ``repr(config)``: configs that compare equal
    can print differently (``scale=1`` and ``scale=1.0``), and the
    exports print them.
    """
    report = GridReport(
        name=name,
        labels=labels,
        config=config,
        cells=[
            ReportCell(label, key, kind, rate, size, same.record)
            for label, key, kind, rate, size, same in cells
        ],
    )
    return _RENDERERS[fmt](report).encode("utf-8")


# --------------------------------------------------------------------------
# shared helpers


def _workload_dict(report: GridReport) -> dict:
    config = report.config
    return {
        "scale": config.scale,
        "slice_refs": config.slice_refs,
        "issue_rates": list(config.issue_rates),
        "sizes": list(config.sizes),
        "seed": config.seed,
    }


def _completeness_line(report: GridReport) -> str:
    return (
        f"{report.present}/{report.total} cells cached "
        f"(completeness {report.completeness:.3f})"
    )


def _cell_metrics(cell: ReportCell) -> dict:
    """The per-cell metric columns CSV and HTML tables share."""
    record = cell.record
    if record is None:
        return {
            "seconds": "",
            "time_ps": "",
            "workload_refs": "",
            "overhead_ratio": "",
            "dram_fraction": "",
        }
    return {
        "seconds": f"{record.seconds:.6f}",
        "time_ps": record.time_ps,
        "workload_refs": record.workload_refs,
        "overhead_ratio": f"{record.overhead_ratio:.6f}",
        "dram_fraction": f"{record.level_fractions.get('dram', 0.0):.6f}",
    }


def _seconds_grid(
    report: GridReport, label: str
) -> tuple[list[int], list[int], dict[tuple[int, int], ReportCell]]:
    """Rate rows x size columns for one label's seconds table."""
    cells = report.label_cells(label)
    rates = sorted({cell.issue_rate_hz for cell in cells})
    sizes = sorted({cell.size_bytes for cell in cells})
    by_axis = {(cell.issue_rate_hz, cell.size_bytes): cell for cell in cells}
    return rates, sizes, by_axis


# --------------------------------------------------------------------------
# svg


def _gap_panel(title: str, detail: str) -> str:
    """Placeholder panel where a figure could not be drawn (gap cells)."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PANEL_W}" '
        f'height="{_PANEL_H}" viewBox="0 0 {_PANEL_W} {_PANEL_H}" role="img">\n'
        f'<rect x="0" y="0" width="{_PANEL_W}" height="{_PANEL_H}" '
        f'fill="none" stroke="#b9b8b3" stroke-dasharray="6 4"/>\n'
        f'<text x="{_PANEL_W // 2}" y="{_PANEL_H // 2 - 10}" font-size="14" '
        f'font-weight="600" text-anchor="middle" fill="#52514e" '
        f'font-family="system-ui, sans-serif">{title}</text>\n'
        f'<text x="{_PANEL_W // 2}" y="{_PANEL_H // 2 + 14}" font-size="12" '
        f'text-anchor="middle" fill="#52514e" '
        f'font-family="system-ui, sans-serif">{detail}</text>\n'
        f"</svg>\n"
    )


def _figure_panels(report: GridReport) -> list[str]:
    """The report's panels in canonical order, gaps as placeholders."""
    grids = report.grids()
    config = report.config
    panels: list[str] = []

    def attempt(title: str, draw) -> None:
        try:
            panels.append(draw())
        except (ConfigurationError, ValueError):
            panels.append(_gap_panel(title, "missing records for this panel"))

    def figure23(fig_name: str, rate: int) -> None:
        for grid_label in ("baseline", "rampage"):
            attempt(
                f"{fig_name}: {grid_label}, {format_rate(rate)}",
                lambda gl=grid_label: figure23_panel(
                    grids[gl], rate, fig_name, gl
                ),
            )

    name = report.name
    if name in ("figure2", "figures"):
        figure23("figure2", config.slow_rate)
    if name in ("figure3", "figures"):
        figure23("figure3", config.fast_rate)
    if name in ("figure4", "figures"):
        attempt(
            f"figure4: handler overhead, {format_rate(config.slow_rate)}",
            lambda: figure4_chart(grids, config.slow_rate),
        )
    if name in ("figure5", "figures"):
        for rate in config.issue_rates:
            attempt(
                f"figure5: slowdown vs best, {format_rate(rate)}",
                lambda r=rate: figure5_chart(grids, r),
            )
    if name not in ("figure2", "figure3", "figure4", "figure5", "figures"):
        # A plain sweep grid: one stacked time-fraction panel per rate.
        sram_label = "SRAM" if name.startswith("rampage") else "L2"
        grid = grids[name]
        for rate in config.issue_rates:
            attempt(
                f"{name}: {format_rate(rate)}",
                lambda r=rate: stacked_fraction_panel(
                    level_fraction_rows(grid, r),
                    FIGURE_LEVELS,
                    title=f"{name}: {format_rate(r)}",
                    sram_label=sram_label,
                ),
            )
    return panels


def _render_svg(report: GridReport) -> str:
    """All panels composed into one two-column SVG document.

    Each panel is a complete standalone ``<svg>`` placed via a
    translated ``<g>``; their ``<style>`` blocks are document-scoped
    but identical, so the collision is harmless.
    """
    panels = _figure_panels(report)
    columns = 2 if len(panels) > 1 else 1
    rows = (len(panels) + columns - 1) // columns
    width = columns * _PANEL_W
    height = _HEADER_H + rows * _PANEL_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" role="img">',
        f'<text x="12" y="26" font-size="16" font-weight="700" '
        f'font-family="system-ui, sans-serif">report: {report.name} '
        f"&#8212; {_completeness_line(report)}</text>",
    ]
    for idx, panel in enumerate(panels):
        x = (idx % columns) * _PANEL_W
        y = _HEADER_H + (idx // columns) * _PANEL_H
        parts.append(f'<g transform="translate({x},{y})">\n{panel}</g>')
    parts.append("</svg>\n")
    return "\n".join(parts)


# --------------------------------------------------------------------------
# json


def _render_json(report: GridReport) -> str:
    payload = {
        "schema": REPORT_SCHEMA,
        "report": report.name,
        "labels": list(report.labels),
        "workload": _workload_dict(report),
        "total": report.total,
        "present": report.present,
        "completeness": round(report.completeness, 6),
        "missing": [cell.as_dict(with_record=False) for cell in report.missing()],
        "cells": [cell.as_dict() for cell in report.cells],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# csv


def _render_csv(report: GridReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "label",
            "key",
            "kind",
            "issue_rate_hz",
            "size_bytes",
            "present",
            "seconds",
            "time_ps",
            "workload_refs",
            "overhead_ratio",
            "dram_fraction",
        ]
    )
    for cell in report.cells:
        metrics = _cell_metrics(cell)
        writer.writerow(
            [
                cell.label,
                cell.key,
                cell.kind,
                cell.issue_rate_hz,
                cell.size_bytes,
                str(cell.present).lower(),
                metrics["seconds"],
                metrics["time_ps"],
                metrics["workload_refs"],
                metrics["overhead_ratio"],
                metrics["dram_fraction"],
            ]
        )
    return out.getvalue()


# --------------------------------------------------------------------------
# md


def _seconds_table_md(report: GridReport, label: str) -> list[str]:
    rates, sizes, by_axis = _seconds_grid(report, label)
    lines = [f"### `{label}` (simulated seconds)", ""]
    lines.append("| issue rate | " + " | ".join(f"{s} B" for s in sizes) + " |")
    lines.append("|---" * (len(sizes) + 1) + "|")
    for rate in rates:
        row = [format_rate(rate)]
        for size in sizes:
            cell = by_axis.get((rate, size))
            if cell is None or cell.record is None:
                row.append(_GAP)
            else:
                row.append(f"{cell.record.seconds:.6f}")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return lines


def _render_md(report: GridReport) -> str:
    workload = _workload_dict(report)
    lines = [
        f"# Report `{report.name}`",
        "",
        f"Grids: {', '.join(f'`{label}`' for label in report.labels)}.",
        f"Completeness: {_completeness_line(report)}.",
        (
            f"Workload: scale {workload['scale']}, "
            f"slice {workload['slice_refs']} refs, seed {workload['seed']}."
        ),
        "",
    ]
    for label in report.labels:
        lines.extend(_seconds_table_md(report, label))
    missing = report.missing()
    if missing:
        lines.append("## Missing cells")
        lines.append("")
        for cell in missing:
            lines.append(
                f"- `{cell.label}` {format_rate(cell.issue_rate_hz)} "
                f"x {cell.size_bytes} B (key `{cell.key}`)"
            )
        lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# html


def _seconds_table_html(report: GridReport, label: str) -> list[str]:
    rates, sizes, by_axis = _seconds_grid(report, label)
    lines = [f"<h3><code>{label}</code> (simulated seconds)</h3>", "<table>"]
    lines.append(
        "<tr><th>issue rate</th>"
        + "".join(f"<th>{size} B</th>" for size in sizes)
        + "</tr>"
    )
    for rate in rates:
        cells = []
        for size in sizes:
            cell = by_axis.get((rate, size))
            if cell is None or cell.record is None:
                cells.append(f'<td class="gap">{_GAP}</td>')
            else:
                cells.append(f"<td>{cell.record.seconds:.6f}</td>")
        lines.append(f"<tr><th>{format_rate(rate)}</th>" + "".join(cells) + "</tr>")
    lines.append("</table>")
    return lines


def _render_html(report: GridReport) -> str:
    lines = [
        "<!doctype html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        f"<title>rampage report: {report.name}</title>",
        "<style>",
        "  body { font-family: system-ui, sans-serif; margin: 2rem;"
        " color: #0b0b0b; background: #fcfcfb; }",
        "  table { border-collapse: collapse; margin: 0.5rem 0 1.5rem; }",
        "  th, td { border: 1px solid #d8d7d2; padding: 0.3rem 0.7rem;"
        " text-align: right; font-variant-numeric: tabular-nums; }",
        "  td.gap { color: #a8a7a1; text-align: center; }",
        "  figure { margin: 1rem 0; overflow-x: auto; }",
        "  @media (prefers-color-scheme: dark) {"
        " body { color: #ffffff; background: #1a1a19; }"
        " th, td { border-color: #3a3a38; } }",
        "</style>",
        "</head>",
        "<body>",
        f"<h1>Report <code>{report.name}</code></h1>",
        f"<p>{_completeness_line(report)}</p>",
        "<figure>",
        _render_svg(report).rstrip("\n"),
        "</figure>",
    ]
    for label in report.labels:
        lines.extend(_seconds_table_html(report, label))
    missing = report.missing()
    if missing:
        lines.append("<h2>Missing cells</h2>")
        lines.append("<ul>")
        for cell in missing:
            lines.append(
                f"<li><code>{cell.label}</code> "
                f"{format_rate(cell.issue_rate_hz)} x {cell.size_bytes} B "
                f"(key <code>{cell.key}</code>)</li>"
            )
        lines.append("</ul>")
    lines.extend(["</body>", "</html>", ""])
    return "\n".join(lines)


_RENDERERS = {
    "svg": _render_svg,
    "html": _render_html,
    "json": _render_json,
    "md": _render_md,
    "csv": _render_csv,
}
