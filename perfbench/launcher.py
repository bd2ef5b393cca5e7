"""Start the sweep daemon for ``service_mix``, optionally traced.

Usage: ``python3 perfbench/launcher.py '<json spec>'`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  The daemon runs with
its defaults apart from the port (0: any free one), the cache and the
journal directory.  Once it listens, one JSON line with the port goes
to stdout.  On SIGTERM the daemon drains; then the launcher writes its
peak RSS and, when traced, every span to ``spec["out"]``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer, install_engine, install_service

        tracer = Tracer()
        install_engine(tracer)
        install_service(tracer)
    from repro.experiments.config import ExperimentConfig
    from repro.service.server import serve

    def ready(service) -> None:
        print(json.dumps({"port": service.port}), flush=True)

    serve(
        ExperimentConfig(cache_dir=Path(spec["cache"])),
        port=0,
        state_dir=spec["state"],
        ready=ready,
    )
    from repro.trace.filter import registry_stats

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "registry": registry_stats(),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
