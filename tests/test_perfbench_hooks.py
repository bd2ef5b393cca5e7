"""The traced benchmark run's hooks still find the names they wrap.

``perfbench/tracing.py`` wraps functions by name at their import sites
(``repro.experiments.runner.simulate``, ``repro.experiments.parallel.
get_workload``, ``ParallelRunner.prefetch`` and so on).  A refactor that
drops or renames one of them breaks ``perfbench/run.py --trace 1``
without failing anything else, so the installers run here in a fresh
interpreter, exactly as the benchmark imports them.  A warm grid under
the hooks must still show one record lookup and one decode per cell.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

INSTALL = (
    "from tracing import Tracer, install_engine, install_service\n"
    "tracer = Tracer()\n"
    "install_engine(tracer)\n"
    "install_service(tracer)\n"
)

#: After a tiny fill into the cache directory ``sys.argv[1]``, span
#: counts of one fresh runner's warm grid.
WARM_GRID = (
    "import collections, json, sys\n"
    "from tracing import Tracer, install_engine\n"
    "tracer = Tracer()\n"
    "install_engine(tracer)\n"
    "from repro.core.observe import EventLog\n"
    "from repro.experiments import ExperimentConfig, Runner\n"
    "config = ExperimentConfig(scale=0.0001, slice_refs=4000, issue_rates=(10**9,),\n"
    "    sizes=(512, 1024), seed=0, cache_dir=sys.argv[1])\n"
    "Runner(config, events=EventLog(None)).grid('baseline')\n"
    "mark = len(tracer.spans)\n"
    "Runner(config, events=EventLog(None)).grid('baseline')\n"
    "names = [span[1] for span in tracer.spans[mark:]]\n"
    "print(json.dumps(collections.Counter(names)))\n"
)

needs_perfbench = pytest.mark.skipif(
    not (PERFBENCH / "tracing.py").is_file(), reason="no perfbench in this checkout"
)


def run_traced(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports as the benchmark does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PERFBENCH), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


@needs_perfbench
def test_tracing_installers_wrap_every_hooked_name():
    proc = run_traced(INSTALL)
    assert proc.returncode == 0, proc.stderr


@needs_perfbench
def test_warm_grid_spans_one_lookup_and_one_decode_per_cell(tmp_path):
    """``runner.lookup_s`` and ``runner.decode_s`` still see the warm
    path: one ``find_record`` and one checksum-verified decode per cell,
    and no record commit."""
    proc = run_traced(WARM_GRID, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout.splitlines()[-1])
    assert spans["runner.find_record"] == 2
    assert spans["runner.decode"] == 2
    assert "runner.commit" not in spans
