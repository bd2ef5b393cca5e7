"""Reports subsystem: cached run records rendered as documents.

The consumer layer over the experiment cache (docs/reports.md): the
builder resolves a named grid to cache keys and loads records without
simulating, the exporter renders one report to any of five formats,
the status serializer backs ``cache stats --json`` and ``/v1/bench``,
and the dashboard page fronts it all in a browser.
"""

from repro.reports.builder import (
    REPORT_LABELS,
    GridReport,
    ReportCell,
    build_report,
    report_names,
)
from repro.reports.dashboard import DASHBOARD_HTML
from repro.reports.export import (
    CONTENT_TYPES,
    FORMATS,
    REPORT_SCHEMA,
    export_report,
)
from repro.reports.status import cache_status

__all__ = [
    "REPORT_LABELS",
    "GridReport",
    "ReportCell",
    "build_report",
    "report_names",
    "DASHBOARD_HTML",
    "CONTENT_TYPES",
    "FORMATS",
    "REPORT_SCHEMA",
    "export_report",
    "cache_status",
]
