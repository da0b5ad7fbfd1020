"""Fast self-test of the benchmark harness: ``python3 -m pytest -q bench``.

Runs one operation per workload, untraced and traced, and checks that every
metric BENCHMARK.json names is printed with its unit; feeds the output
checks known-bad results and a stuck operation, and checks that they count
as failed.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import worker
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    expected = {f"{w}/{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for m in SPEC[section]:
        printed = [ln.split() for ln in lines[:-1] if ln.split()[:1] == [m["name"]]]
        assert len(printed) == len(WORKLOADS), m["name"]
        assert all(p[2] == m["unit"] for p in printed), m["name"]


@pytest.fixture(scope="module")
def fv():
    return worker.import_library()


def test_open_curve_counts_as_failed(fv):
    k = fv.profile_from_function(lambda t: 1.5 + np.cos(2 * t))
    half_turn = fv.integrate_curve(fv.profile_from_function(lambda t: 0.5 + 0 * t))
    assert not half_turn.closed
    bad = types.SimpleNamespace(curve=half_turn)
    assert worker.verify(worker.WORKLOADS["synth"], fv, k, bad, None) == ("curve is not closed", True)


def test_too_few_vertices_counts_as_failed(fv):
    curve = fv.random_convex_curve(np.random.default_rng(0))
    good = fv.osserman_check(curve)
    corpus = worker.WORKLOADS["analyze-corpus"]
    assert worker.verify(corpus, fv, curve, good, None) == (None, False)
    reason, wrong = worker.verify(corpus, fv, curve, replace(good, vertex_count=2), None)
    assert wrong and reason.startswith("2 vertices")


def test_deadline_counts_as_failed(monkeypatch):
    monkeypatch.setattr(worker, "OP_DEADLINE_S", 0.2)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        stuck = worker.WORKLOADS["synth"]._replace(run=lambda fv, x: time.sleep(5))
        out, err, seconds = worker.run_op(stuck, None, None)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert out is None and err.startswith("deadline") and seconds < 2


def test_spans_only_while_recording(fv):
    curve = fv.random_star_curve(np.random.default_rng(1))
    tracer = Tracer()
    with tracer.recording(fv, 7):
        fv.analysis.osserman_check(curve)
    assert fv.analysis.is_simple is fv.integrator.is_simple  # wrappers removed again
    fv.analysis.osserman_check(curve)
    top = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in top] == ["analysis.osserman_check"]
    totals = tracer.totals_by_op()[7]
    assert totals["integrator.is_simple"][1] == 1 and totals["integrator.curvature_samples"][1] == 2
    direct = sum(s[2] - s[1] for s in tracer.spans if s[3] == 0)
    outer = totals["analysis.osserman_check"]
    assert 0.0 < outer[0] == pytest.approx(outer[2] - direct)
