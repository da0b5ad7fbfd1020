"""The benchmark's calls into the library, checked from the tier-1 suite.

``bench/`` builds its inputs and looks its traced functions up through the
library's public names; a change to those names breaks the benchmark
without failing any library test.  These checks run the benchmark's own
code against the library as it stands.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fourvertex as fv

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_bench_runs_every_workload_without_failure():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_traced_names_are_where_the_bench_looks():
    # recording() raises when a caller module no longer holds a name in WRAPPED
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    curve = fv.random_convex_curve(np.random.default_rng(0))
    k = fv.profile_from_function(lambda t: 1.5 + np.cos(2 * t))
    with tracer.recording(fv, 0):
        fv.analysis.osserman_check(curve)
        fv.solver.synthesize(k)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"analysis.osserman_check", "solver.synthesize"} <= names
