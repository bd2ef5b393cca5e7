"""Command-line interface: ``rampage-sim``.

Subcommands::

    rampage-sim list                      # available experiments
    rampage-sim run table3 [table4 ...]   # run experiments, print reports
    rampage-sim run all --out results/    # everything, saved to files
    rampage-sim report figures --format svg  # render cached records
    rampage-sim sweep --kind rampage ...  # one ad-hoc simulation cell
    rampage-sim cache stats|verify|purge  # inspect/repair the run cache
    rampage-sim serve                     # sweep-service HTTP daemon
    rampage-sim submit|status|watch|fetch # talk to a running daemon

Workload scaling comes from the ``REPRO_*`` environment variables (see
:mod:`repro.experiments.config`) or the ``--scale`` / ``--slice-refs``
/ ``--seed`` flags, which take precedence.  ``sweep`` runs through the
same cached :class:`~repro.experiments.runner.Runner` as the tables, so
an ad-hoc cell with a grid cell's ``(params, scale, slice_refs, seed)``
is the *same* record -- cache hits included.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

from repro.core.errors import (
    CacheIntegrityError,
    ConfigurationError,
    StaleArtifactError,
)
from repro.core.timer import ScopedTimer, refs_per_second
from repro.experiments import ExperimentConfig, ParallelRunner, Runner
from repro.experiments.config import integer_list
from repro.experiments.runner import (
    iter_cache_files,
    iter_quarantined_files,
    read_cache_entry,
)
from repro.reports import FORMATS, cache_status
from repro.reports.status import ARTIFACT_LAYOUTS, artifact_dirs, is_stale
from repro.experiments import (
    figure4,
    figure5,
    per_program,
    table1,
    table2,
    table3,
    table4,
    table5,
    warmup,
)
from repro.experiments.figures23 import run_figure2, run_figure3
from repro.experiments.runner import ExperimentOutput
from repro.systems.factory import (
    baseline_machine,
    rampage_machine,
    twoway_machine,
)

EXPERIMENTS: dict[str, Callable[[Runner], ExperimentOutput]] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "figure2": run_figure2,
    "figure3": run_figure3,
    "figure4": figure4.run,
    "figure5": figure5.run,
    "warmup": warmup.run,
    "per_program": per_program.run,
}

_MACHINES = {
    "baseline": baseline_machine,
    "twoway": twoway_machine,
    "rampage": rampage_machine,
}


def _integers(text: str) -> tuple[int, ...]:
    """argparse type of --rates/--sizes: a comma-separated integer list.

    A bad item is a usage error (exit 2) naming the flag.
    """
    try:
        return integer_list(text, "each item")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_workload_knobs(cmd: argparse.ArgumentParser) -> None:
    """The workload flags of ``report`` and ``submit``."""
    cmd.add_argument("--rates", type=_integers, help="comma-separated issue rates (Hz)")
    cmd.add_argument("--sizes", type=_integers, help="comma-separated block/page bytes")
    cmd.add_argument("--scale", type=float, help="workload scale factor")
    cmd.add_argument("--slice-refs", type=int, help="scheduling quantum")
    cmd.add_argument("--seed", type=int, help="workload seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rampage-sim",
        description="RAMpage memory-hierarchy reproduction (ASPLOS 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_cmd = sub.add_parser("run", help="run experiments and print reports")
    run_cmd.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment names ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    run_cmd.add_argument("--scale", type=float, help="workload scale factor")
    run_cmd.add_argument("--slice-refs", type=int, help="scheduling quantum")
    run_cmd.add_argument("--out", help="directory to write report files to")
    run_cmd.add_argument(
        "--workers",
        type=int,
        help="worker processes for sweep cells (default: one per core)",
    )

    figures_cmd = sub.add_parser(
        "figures", help="render Figures 2-5 as SVG files"
    )
    figures_cmd.add_argument("--out", default="results/figures")
    figures_cmd.add_argument("--scale", type=float, help="workload scale factor")
    figures_cmd.add_argument("--slice-refs", type=int, help="scheduling quantum")
    figures_cmd.add_argument(
        "--workers",
        type=int,
        help="worker processes for sweep cells (default: one per core)",
    )

    report_cmd = sub.add_parser(
        "report",
        help="render a report from cached records (docs/reports.md)",
    )
    report_cmd.add_argument(
        "name",
        help="report name: a grid label, figure2..figure5, or 'figures'",
    )
    report_cmd.add_argument(
        "--format", choices=list(FORMATS), default="json"
    )
    report_cmd.add_argument(
        "--out", help="output file (default: stdout)"
    )
    report_cmd.add_argument(
        "--min-complete",
        type=float,
        help="fail (exit 1) if the report's completeness is below this",
    )
    report_cmd.add_argument(
        "--server",
        help="render via a running daemon instead of the local cache",
    )
    _add_workload_knobs(report_cmd)

    sweep_cmd = sub.add_parser("sweep", help="run one ad-hoc simulation")
    sweep_cmd.add_argument(
        "--kind", choices=sorted(_MACHINES), default="rampage"
    )
    sweep_cmd.add_argument("--issue-rate", type=int, default=1_000_000_000)
    sweep_cmd.add_argument("--size", type=int, default=1024, help="block/page bytes")
    sweep_cmd.add_argument("--switch-on-miss", action="store_true")
    sweep_cmd.add_argument(
        "--scale", type=float, help="workload scale factor (default: REPRO_SCALE)"
    )
    sweep_cmd.add_argument(
        "--slice-refs",
        type=int,
        help="scheduling quantum (default: REPRO_SLICE_REFS)",
    )
    sweep_cmd.add_argument(
        "--seed", type=int, help="workload seed (default: REPRO_SEED)"
    )
    sweep_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the run-record cache for this cell",
    )

    cache_cmd = sub.add_parser(
        "cache", help="inspect and repair the run-record cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "summarise the cache directory and its manifest"),
        ("verify", "integrity-check every cached record"),
        ("purge", "delete cached records (all, or quarantined only)"),
    ):
        sub_cmd = cache_sub.add_parser(name, help=help_text)
        sub_cmd.add_argument(
            "--dir",
            dest="cache_dir",
            help="cache directory (default: REPRO_CACHE_DIR or .repro_cache)",
        )
    cache_sub.choices["purge"].add_argument(
        "--corrupt-only",
        action="store_true",
        help="delete only quarantined records and artifacts, and stale planes",
    )
    cache_sub.choices["stats"].add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable output (the /v1/bench cache serializer)",
    )

    serve_cmd = sub.add_parser(
        "serve", help="run the sweep-service HTTP daemon (docs/service.md)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8337, help="0 picks a free port"
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        help="worker processes per job sweep (default: one per core)",
    )
    serve_cmd.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="max queued+running jobs before submissions get 429",
    )
    serve_cmd.add_argument(
        "--state-dir",
        help="job-journal directory (default: <cache_dir>/service)",
    )

    def add_url(cmd):
        cmd.add_argument(
            "--url",
            default="http://127.0.0.1:8337",
            help="sweep-service base URL",
        )

    submit_cmd = sub.add_parser(
        "submit", help="submit a sweep job to a running daemon"
    )
    add_url(submit_cmd)
    submit_cmd.add_argument(
        "--labels",
        help="comma-separated grid labels (default: baseline,rampage)",
    )
    _add_workload_knobs(submit_cmd)
    submit_cmd.add_argument(
        "--wait", action="store_true", help="stream progress until terminal"
    )

    status_cmd = sub.add_parser("status", help="show one job (or all jobs)")
    add_url(status_cmd)
    status_cmd.add_argument("job_id", nargs="?", help="job id; omit to list")

    watch_cmd = sub.add_parser("watch", help="stream a job's SSE progress")
    add_url(watch_cmd)
    watch_cmd.add_argument("job_id")

    fetch_cmd = sub.add_parser(
        "fetch", help="download a job's run records, byte-identical"
    )
    add_url(fetch_cmd)
    fetch_cmd.add_argument("job_id")
    fetch_cmd.add_argument(
        "--out", required=True, help="directory receiving <key>.json files"
    )
    return parser


def _config_with_flags(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_env()
    if getattr(args, "scale", None) is not None:
        config = replace(config, scale=args.scale)
    if getattr(args, "slice_refs", None) is not None:
        config = replace(config, slice_refs=args.slice_refs)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _make_runner(args: argparse.Namespace) -> Runner:
    """A parallel runner unless the user pinned a single worker."""
    config = _config_with_flags(args)
    workers = getattr(args, "workers", None)
    if workers is not None and workers <= 1:
        return Runner(config)
    return ParallelRunner(config, workers=workers)


def _cmd_list() -> int:
    for name, func in EXPERIMENTS.items():
        doc = (func.__doc__ or "").strip().splitlines()
        print(f"{name:10s} {doc[0] if doc else ''}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(args.experiments)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    runner = _make_runner(args)
    failures = 0
    for name in names:
        try:
            with ScopedTimer() as timer:
                output = EXPERIMENTS[name](runner)
        except Exception as exc:
            # A failed cell must fail the invocation, not just print:
            # scripts and CI gate on the exit code.
            print(f"error: {name} failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(output.text)
        print(f"[{name} finished in {timer.elapsed:.2f} s]")
        print()
        if args.out:
            path = output.write_to(args.out)
            print(f"[written to {path}]")
    if failures:
        print(f"{failures} experiment(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    builder = _MACHINES[args.kind]
    if args.kind == "rampage":
        params = builder(
            args.issue_rate, args.size, switch_on_miss=args.switch_on_miss
        )
        label = "rampage_som" if args.switch_on_miss else "rampage"
    else:
        if args.switch_on_miss:
            print("--switch-on-miss requires --kind rampage", file=sys.stderr)
            return 2
        params = builder(args.issue_rate, args.size)
        label = args.kind
    config = _config_with_flags(args)
    if args.no_cache:
        config = replace(config, cache_dir=None)
    runner = Runner(config)
    try:
        with ScopedTimer() as timer:
            record = runner.record(label, params)
    except Exception as exc:
        print(f"error: sweep failed: {exc}", file=sys.stderr)
        return 1
    stats = record.stats
    throughput = refs_per_second(record.workload_refs, timer.elapsed)
    cache_state = "hit" if runner.cache_stats.hits else "miss"
    print(f"machine: {args.kind} @{args.issue_rate} Hz, unit {args.size} B")
    print(
        f"workload: scale {config.scale}, slice {config.slice_refs} refs, "
        f"seed {config.seed}"
    )
    print(f"cache: {cache_state}")
    print(f"simulated time: {record.seconds:.6f} s")
    print(f"wall time: {timer.elapsed:.2f} s ({throughput:,.0f} refs/s)")
    print(f"workload refs: {record.workload_refs}")
    print(f"TLB misses: {stats['tlb_misses']}  page faults: {stats['page_faults']}")
    print(f"L2 misses: {stats['l2_misses']}  DRAM accesses: {stats['dram_accesses']}")
    print(f"level fractions: { {k: round(v, 4) for k, v in record.level_fractions.items()} }")
    return 0


def _resolve_cache_dir(args: argparse.Namespace) -> Path | None:
    """The cache directory a ``cache`` subcommand should operate on."""
    if getattr(args, "cache_dir", None):
        return Path(args.cache_dir)
    return ExperimentConfig.from_env().cache_dir


def _cmd_cache(args: argparse.Namespace) -> int:
    cache_dir = _resolve_cache_dir(args)
    if cache_dir is None:
        print(
            "caching is disabled (REPRO_CACHE_DIR=''); pass --dir",
            file=sys.stderr,
        )
        return 2
    if not cache_dir.exists():
        if args.cache_command == "stats" and getattr(args, "as_json", False):
            print(json.dumps(cache_status(cache_dir), indent=2, sort_keys=True))
            return 0
        print(f"cache directory {cache_dir} does not exist")
        return 0 if args.cache_command == "stats" else 2
    handler = {
        "stats": _cache_stats,
        "verify": _cache_verify,
        "purge": _cache_purge,
    }[args.cache_command]
    return handler(cache_dir, args)


def _cache_stats(cache_dir: Path, args: argparse.Namespace) -> int:
    """Summarise the cache via the shared :func:`cache_status` serializer.

    ``--json`` prints that dict verbatim -- the exact payload the
    daemon's ``/v1/bench`` route and the dashboard consume; the human
    table renders the same fields.
    """
    status = cache_status(cache_dir)
    if getattr(args, "as_json", False):
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"cache directory: {cache_dir}")
    print(f"records: {status['records']} ({status['record_bytes']:,} bytes)")
    for table_label, count in status["by_label"].items():
        print(f"  {table_label:12s} {count}")
    if status["undecodable"]:
        print(
            f"undecodable records: {status['undecodable']} "
            "(run 'cache verify')"
        )
    print(f"quarantined files: {status['quarantined']}")
    for kind, summary in status["artifacts"].items():
        print(
            f"{kind} artifacts: {summary['live']} "
            f"({summary['live_bytes']:,} bytes), "
            f"quarantined: {summary['quarantined']} "
            f"({summary['quarantined_bytes']:,} bytes)"
        )
    manifest = status["manifest"]
    if manifest is not None:
        counters = manifest.get("cache", {})
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        print(f"manifest (last run that stored or quarantined a record): {summary}")
    return 0


def _cache_verify(cache_dir: Path, args: argparse.Namespace) -> int:
    bad = 0
    checked = 0
    for path in iter_cache_files(cache_dir):
        checked += 1
        try:
            read_cache_entry(path)
        except (OSError, CacheIntegrityError) as error:
            bad += 1
            print(f"CORRUPT {path.name}: {error}")
    quarantined = list(iter_quarantined_files(cache_dir))
    for path in quarantined:
        print(f"QUARANTINED {path.name}")
    artifacts_checked = artifacts_bad = artifacts_stale = artifacts_quarantined = 0
    for kind, root, validate, _ in ARTIFACT_LAYOUTS:
        live, held = artifact_dirs(root(cache_dir))
        artifacts_quarantined += len(held)
        for path in live:
            artifacts_checked += 1
            try:
                validate(path)
            except StaleArtifactError:
                artifacts_stale += 1
                print(f"STALE {kind} {path.name}")
            except (OSError, CacheIntegrityError) as error:
                artifacts_bad += 1
                print(f"CORRUPT {kind} {path.name}: {error}")
        for path in held:
            print(f"QUARANTINED {kind} {path.name}")
    print(
        f"verified {checked} records: {checked - bad} ok, {bad} corrupt, "
        f"{len(quarantined)} quarantined"
    )
    artifacts_ok = artifacts_checked - artifacts_bad - artifacts_stale
    print(
        f"verified {artifacts_checked} artifacts: "
        f"{artifacts_ok} ok, {artifacts_bad} corrupt, "
        f"{artifacts_quarantined} quarantined, {artifacts_stale} stale"
    )
    if bad or quarantined or artifacts_bad or artifacts_stale or artifacts_quarantined:
        print("run 'rampage-sim cache purge --corrupt-only' to discard them")
        return 1
    return 0


def _cache_purge(cache_dir: Path, args: argparse.Namespace) -> int:
    removed = 0
    targets = list(iter_quarantined_files(cache_dir))
    if not args.corrupt_only:
        targets += list(iter_cache_files(cache_dir))
    for path in targets:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    dirs_removed = 0
    for _, root, _, read_manifest in ARTIFACT_LAYOUTS:
        live, held = artifact_dirs(root(cache_dir))
        if args.corrupt_only:
            doomed = held + [p for p in live if is_stale(read_manifest, p)]
        else:
            doomed = held + live
        for path in doomed:
            try:
                shutil.rmtree(path)
                dirs_removed += 1
            except OSError:
                pass
    scope = "quarantined files" if args.corrupt_only else "cache entries"
    print(
        f"purged {removed} {scope} and {dirs_removed} artifact "
        f"directories from {cache_dir}"
    )
    return 0


# ----------------------------------------------------------------------
# Sweep-service verbs (docs/service.md)
# ----------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    def announce(service) -> None:
        print(
            f"sweep service listening on {service.base_url} "
            f"(cache {service.config.cache_dir}, "
            f"queue limit {service.scheduler.queue_limit})",
            flush=True,
        )

    serve(
        ExperimentConfig.from_env(),
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        state_dir=args.state_dir,
        ready=announce,
    )
    return 0


def _spec_payload(args: argparse.Namespace) -> dict:
    """The JSON job spec a ``submit`` or ``report --server`` invocation
    describes."""
    payload: dict = {}
    if getattr(args, "labels", None):
        payload["labels"] = [
            token.strip() for token in args.labels.split(",") if token.strip()
        ]
    if args.rates:
        payload["rates"] = list(args.rates)
    if args.sizes:
        payload["sizes"] = list(args.sizes)
    for field in ("scale", "slice_refs", "seed"):
        value = getattr(args, field, None)
        if value is not None:
            payload[field] = value
    return payload


def _print_progress(name: str, payload: dict) -> None:
    if name == "cell_completed":
        print(
            f"[{payload.get('done')}/{payload.get('total')}] "
            f"cell {payload.get('key')} mode={payload.get('mode')}"
        )
    elif name == "job_running":
        print(f"job running ({payload.get('total')} cells)")


def _watch_to_completion(client, job_id: str) -> int:
    final = client.wait(job_id, on_event=_print_progress)
    print(
        f"job {final['id']}: {final['status']} "
        f"({final['done']}/{final['total']} cells, modes {final['modes']})"
    )
    if final["status"] != "completed":
        if final.get("error"):
            print(f"error: {final['error']}", file=sys.stderr)
        return 1
    return 0


def _job_line(job: dict) -> str:
    return (
        f"{job['id']}  {job['status']:9s}  "
        f"{job['done']}/{job['total']} cells  "
        f"labels={','.join(job['spec']['labels'])}"
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    job = client.submit(_spec_payload(args))
    admission = job.get("admission", {})
    print(
        f"job {job['id']}: {job['status']} "
        f"({'new' if job.get('created') else 'existing'})"
    )
    print(
        f"cells: {job['total']} total, {admission.get('cached', 0)} cached, "
        f"{admission.get('inflight', 0)} in flight, "
        f"{admission.get('fresh', 0)} fresh"
    )
    if args.wait:
        return _watch_to_completion(client, job["id"])
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id:
        job = client.job(args.job_id)
        print(_job_line(job))
        if job.get("modes"):
            print(f"modes: {job['modes']}")
        if job.get("error"):
            print(f"error: {job['error']}")
        return 1 if job["status"] == "failed" else 0
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(_job_line(job))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    return _watch_to_completion(ServiceClient(args.url), args.job_id)


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    manifest = client.records(args.job_id)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fetched = missing = 0
    for cell in manifest["records"]:
        if not cell["present"]:
            missing += 1
            continue
        (out / f"{cell['key']}.json").write_bytes(
            client.fetch_record(cell["key"])
        )
        fetched += 1
    note = f", {missing} not yet present" if missing else ""
    print(f"fetched {fetched} records to {out}{note}")
    return 1 if missing else 0


_SERVICE_COMMANDS = {
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "watch": _cmd_watch,
    "fetch": _cmd_fetch,
}


def _cmd_service(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    try:
        return _SERVICE_COMMANDS[args.command](args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_figures(args: argparse.Namespace) -> int:
    """Render Figures 2-5 through the cached runner.

    With a cache, the grids come from its records and only missing
    cells are simulated (and cached) first; without one, the runner
    computes them in memory.
    """
    from repro.analysis.figures_svg import write_figure_svgs

    for path in write_figure_svgs(_make_runner(args), args.out):
        print(f"wrote {path}")
    return 0


def _report_overrides(
    config: ExperimentConfig, args: argparse.Namespace
) -> ExperimentConfig:
    """Fold ``report``'s --rates/--sizes flags into the configuration."""
    if args.rates:
        config = replace(config, issue_rates=args.rates)
    if args.sizes:
        config = replace(config, sizes=args.sizes)
    return config


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reports import build_report, export_report

    if args.server:
        from repro.service.client import ServiceClient, ServiceError

        try:
            body = ServiceClient(args.server).fetch_report(
                args.name,
                format=args.format,
                min_complete=args.min_complete,
                spec=_spec_payload(args),
            )
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        config = _report_overrides(_config_with_flags(args), args)
        report = build_report(args.name, config)
        if (
            args.min_complete is not None
            and report.completeness < args.min_complete
        ):
            print(
                json.dumps(report.completeness_payload(), indent=2),
                file=sys.stderr,
            )
            print(
                f"error: report {args.name!r} is "
                f"{report.completeness:.3f} complete, below "
                f"--min-complete {args.min_complete}",
                file=sys.stderr,
            )
            return 1
        body = export_report(report, args.format)
    if args.out:
        out = Path(args.out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(body)
        print(f"wrote {out}")
    else:
        sys.stdout.buffer.write(body)
        sys.stdout.buffer.flush()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command in _SERVICE_COMMANDS:
            return _cmd_service(args)
    except ConfigurationError as exc:
        # A bad REPRO_* variable or report name is a usage error, like
        # a bad flag: a message and exit 2, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
