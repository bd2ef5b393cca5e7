"""Grid-oriented report builder: cached records in, report objects out.

A *report* is a named view over one or more experiment grids (the five
sweep grids of :data:`~repro.experiments.runner.GRID_BUILDERS`, or the
paper's figure groupings).  :func:`build_report` resolves the name to
its cell cache keys -- the same derivation the runner and the service
planner use -- then loads whatever records already exist from the
sharded record cache (:func:`~repro.experiments.runner.find_record`).

The contract the exporters and the HTTP route rely on:

* **Zero simulation work.**  Building a report only derives keys and
  reads files; a warm cache serves any report without touching the
  simulator, a cold one yields an all-gaps report, never a sweep.
* **Partial grids are data, not errors.**  A cell whose record is
  missing (or fails envelope validation) becomes an explicit gap;
  :attr:`GridReport.completeness` quantifies how much of the report is
  backed by records.  Loading is strictly read-only -- a corrupt file
  is reported as a gap but left in place for ``cache verify``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.figures_svg import FIGURE_GRID_LABELS
from repro.analysis.runtime import RunGrid, RunRecord
from repro.core.errors import CacheIntegrityError, ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    GRID_BUILDERS,
    find_record,
    grid_plan,
    read_cache_entry,
)

#: Report name -> the grid labels whose cells it covers.  Every sweep
#: grid is its own report; the figure reports group the grids the
#: paper's figures compare.
REPORT_LABELS: dict[str, tuple[str, ...]] = {
    **{label: (label,) for label in GRID_BUILDERS},
    "figure2": ("baseline", "rampage"),
    "figure3": ("baseline", "rampage"),
    "figure4": ("baseline", "rampage"),
    "figure5": ("rampage_som", "twoway"),
    "figures": FIGURE_GRID_LABELS,
}


def report_names() -> list[str]:
    """Every report name :func:`build_report` accepts, sorted."""
    return sorted(REPORT_LABELS)


@dataclass(frozen=True)
class ReportCell:
    """One grid cell of a report: identity plus its record, if cached."""

    label: str
    key: str
    kind: str
    issue_rate_hz: int
    size_bytes: int
    record: RunRecord | None

    @property
    def present(self) -> bool:
        return self.record is not None

    def as_dict(self, with_record: bool = True) -> dict:
        payload = {
            "label": self.label,
            "key": self.key,
            "kind": self.kind,
            "issue_rate_hz": self.issue_rate_hz,
            "size_bytes": self.size_bytes,
            "present": self.present,
        }
        if with_record:
            payload["record"] = (
                self.record.as_dict() if self.record is not None else None
            )
        return payload


@dataclass
class GridReport:
    """A named report over one or more grids, tolerant of gaps."""

    name: str
    labels: tuple[str, ...]
    config: ExperimentConfig
    cells: list[ReportCell]

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def present(self) -> int:
        return sum(1 for cell in self.cells if cell.present)

    @property
    def completeness(self) -> float:
        """Fraction of the report's cells backed by cached records."""
        return self.present / self.total if self.total else 0.0

    @property
    def complete(self) -> bool:
        return self.present == self.total

    def missing(self) -> list[ReportCell]:
        """The gap cells, in grid order."""
        return [cell for cell in self.cells if not cell.present]

    def label_cells(self, label: str) -> list[ReportCell]:
        return [cell for cell in self.cells if cell.label == label]

    def grid(self, label: str) -> RunGrid:
        """The (possibly partial) :class:`RunGrid` of one label."""
        grid = RunGrid(label)
        for cell in self.label_cells(label):
            if cell.record is not None:
                grid.add(cell.record)
        return grid

    def grids(self) -> dict[str, RunGrid]:
        return {label: self.grid(label) for label in self.labels}

    def completeness_payload(self) -> dict:
        """The machine-readable completeness summary (409 body, JSON)."""
        return {
            "report": self.name,
            "labels": list(self.labels),
            "total": self.total,
            "present": self.present,
            "completeness": round(self.completeness, 6),
            "missing": [cell.as_dict(with_record=False) for cell in self.missing()],
        }


def _load_record(config: ExperimentConfig, key: str, label: str) -> RunRecord | None:
    """Read one cached record, or ``None`` for any kind of miss.

    Strictly read-only: a file that fails envelope validation is a gap
    here (``cache verify`` still sees it), unlike the runner's
    quarantine-and-recompute path.  A hit computed under another grid
    label is relabelled on read, mirroring :meth:`Runner.record`.
    """
    if config.cache_dir is None:
        return None
    path = find_record(config.cache_dir, key)
    if path is None:
        return None
    try:
        record = read_cache_entry(path)
    except (OSError, CacheIntegrityError):
        return None
    if record.label != label:
        record = replace(record, label=label)
    return record


def build_report(name: str, config: ExperimentConfig) -> GridReport:
    """Resolve ``name`` to its cells and load whatever records exist.

    Raises :class:`ConfigurationError` for an unknown report name (the
    HTTP layer maps that to a 404).  Never simulates: the cells and
    their keys come from the runner's cell plan
    (:func:`~repro.experiments.runner.grid_plan`), exactly like the
    service's job planner.
    """
    labels = REPORT_LABELS.get(name)
    if labels is None:
        raise ConfigurationError(
            f"unknown report {name!r}; known: {report_names()}"
        )
    cells: list[ReportCell] = []
    for label in labels:
        for params, key in grid_plan(label, config):
            cells.append(
                ReportCell(
                    label=label,
                    key=key,
                    kind=params.kind,
                    issue_rate_hz=params.issue_rate_hz,
                    size_bytes=params.transfer_unit_bytes,
                    record=_load_record(config, key, label),
                )
            )
    return GridReport(name=name, labels=labels, config=config, cells=cells)
