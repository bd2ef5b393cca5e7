"""The traced benchmark run's hooks still find the names they wrap.

``perfbench/tracing.py`` wraps functions by name at their import sites
(``repro.experiments.runner.simulate``, ``repro.experiments.parallel.
get_workload``, ``ParallelRunner.prefetch`` and so on).  A refactor that
drops or renames one of them breaks ``perfbench/run.py --trace 1``
without failing anything else, so the installers run here in a fresh
interpreter, exactly as the benchmark imports them.
"""

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


@pytest.mark.skipif(
    not (PERFBENCH / "tracing.py").is_file(), reason="no perfbench in this checkout"
)
def test_tracing_installers_wrap_every_hooked_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PERFBENCH), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
