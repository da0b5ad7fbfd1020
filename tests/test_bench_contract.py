"""The benchmark's calls into the library, checked from the tier-1 suite.

``bench/`` builds its inputs and looks its traced functions up through the
library's public names; a change to those names breaks the benchmark
without failing any library test.  These checks run the benchmark's own
code against the library as it stands.
"""

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fourvertex as fv
from fourvertex.integrator import _ring, _star_shaped, _sweep

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_runs_every_workload_without_failure(trace):
    # --trace 1 also runs the WRAPPED lookups and the trace consistency check
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_are_where_the_bench_looks():
    # recording() raises when a caller module no longer holds a name in WRAPPED
    tracing = bench_tracing()
    tracer = tracing.Tracer()
    curve = fv.random_convex_curve(np.random.default_rng(0))
    k = fv.profile_from_function(lambda t: 1.5 + np.cos(2 * t))
    with tracer.recording(fv, 0):
        fv.analysis.osserman_check(curve)
        fv.solver.synthesize(k)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"analysis.osserman_check", "solver.synthesize"} <= names


def test_analysis_call_structure():
    # the bench's per-layer metrics divide each stage's spans by the checks
    # run; one check calls each stage once, and curvature_samples twice
    tracer = bench_tracing().Tracer()
    with tracer.recording(fv, 0):
        fv.analysis.osserman_check(fv.random_star_curve(np.random.default_rng(1)))
    calls = {name: total[1] for name, total in tracer.totals_by_op()[0].items()}
    assert calls == {
        "analysis.osserman_check": 1,
        "integrator.is_simple": 1,
        "analysis.min_enclosing_circle": 1,
        "analysis.contact_components": 1,
        "analysis.contact_angular_gap": 1,
        "analysis.detect_vertices": 1,
        "integrator.curvature_samples": 2,
    }


def bench_worker(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # worker.py imports tracing from bench/
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_bench_synth_roots_are_certified(monkeypatch):
    # the zero search certifies every root it returns (Newton-Kantorovich,
    # h = b K eta <= 1/2); on the bench's own seed-1 synth profiles each
    # synthesis therefore carries a certificate, and the largest h is printed
    worker = bench_worker(monkeypatch)
    profiles = worker.synth_profiles(fv, np.random.default_rng(1), 128)
    diags = [fv.solver.synthesize(k).diagnostics for k in profiles]
    assert all(0.0 < d.certificate_h <= 0.5 and d.certified_radius > 0.0 for d in diags)
    print(f"largest certificate h over {len(diags)} bench profiles: "
          f"{max(d.certificate_h for d in diags):.3g}")


def test_star_certificate_decides_the_bench_curves(monkeypatch):
    # is_simple decides these without the pair sweep, and the sweep agrees
    worker = bench_worker(monkeypatch)
    rng = np.random.default_rng(1)
    curves = worker.analysis_curves(worker.CORPUS_N)(fv, rng, 256)
    curves += [fv.solver.synthesize(k).curve for k in worker.synth_profiles(fv, rng, 32)]
    for c in curves:
        _, pos, _, closed = _ring(c)
        assert closed and _star_shaped(pos)
        assert _sweep(pos, closed) == (True, None)


def test_bench_curves_meet_their_circles_in_points(monkeypatch):
    # the bench's corpus curves and synth outputs touch their enclosing
    # circles in single samples, so no report judges the strengthened bound,
    # and none reports it failing
    worker = bench_worker(monkeypatch)
    rng = np.random.default_rng(1)
    curves = worker.analysis_curves(worker.CORPUS_N)(fv, rng, 256)
    curves += [fv.solver.synthesize(k).curve for k in worker.synth_profiles(fv, rng, 32)]
    for c in curves:
        rep = fv.analysis.osserman_check(c)
        assert all(comp.kind == "point" for comp in rep.components)
        assert rep.bonus_bound_satisfied is None
        assert rep.contact_gap <= math.pi + 1e-12


def test_round_target_is_the_composed_profile(monkeypatch):
    # every round checks the curvature of its curve, unmirrored, against
    # compose(work, h1), work being k or, in the flipped pass, -k; work
    # reduces its argument mod 2*pi as the tags mod_two_pi(h1(grid)) do, so
    # the two agree bit for bit, and a flipped round's target is -k at the
    # tags; checked on every round of the bench's seed-1 profiles, of a small
    # own window and of a profile that takes three rounds
    from test_solver import LARGE_SCALE, SMALL_WINDOW
    from conftest import trig_profile

    worker = bench_worker(monkeypatch)
    profiles = worker.synth_profiles(fv, np.random.default_rng(1), 128)
    profiles += [trig_profile(*SMALL_WINDOW), trig_profile(*LARGE_SCALE)]
    real, rounds = fv.solver.compose, []

    def recorded(k, h1):
        k1 = real(k, h1)
        rounds.append((k, h1, k1))
        return k1

    monkeypatch.setattr(fv.solver, "compose", recorded)
    counts = {False: 0, True: 0}
    for k in profiles:
        rounds.clear()
        res = fv.solver.synthesize(k)
        grid = fv.moebius._circle(k.n)[0]
        for work, h1, k1 in rounds:
            tags = fv.curvature.mod_two_pi(h1(grid))
            assert k1.samples.tobytes() == work(tags)[:k.n].tobytes()
            flipped = work is not k
            if flipped:
                assert work.samples.tobytes() == (-k.samples).tobytes()
                assert k1.samples.tobytes() == (-k(tags))[:k.n].tobytes()
            counts[flipped] += 1
        # the curve carries the tags of its round's warp, in either orientation
        assert res.curve.t.tobytes() == fv.curvature.mod_two_pi(res.h1(grid)).tobytes()
    assert counts[True] >= 32 and counts[False] >= 96 + 3  # LARGE_SCALE: rounds 1 to 3


def test_flipped_synthesis_is_the_mirror_of_the_negation(monkeypatch):
    # a profile without a window of its own is realized through -k: its
    # window is that of -k, and its result is the mirror image of
    # synthesize(-k), positions conjugated and tangent angles negated, with
    # every other output equal bit for bit; on the bench's profiles of seeds
    # 1 and 7919, the sweep and the rich family
    from conftest import rich_family, sweep_profiles

    worker = bench_worker(monkeypatch)
    profiles = [k for seed in (1, 7919)
                for k in worker.synth_profiles(fv, np.random.default_rng(seed), 128)]
    profiles += sweep_profiles() + rich_family()
    flipped = 0
    for k in profiles:
        try:
            window = fv.find_abab_points(k)
        except fv.HypothesisViolated:
            continue
        if not window.sign_flipped:
            continue
        flipped += 1
        neg = fv.CurvatureProfile(-k.samples)
        assert fv.find_abab_points(neg) == window._replace(sign_flipped=False)
        res, mirror = fv.solver.synthesize(k), fv.solver.synthesize(neg)
        assert res.sign_flipped and res.curve.scale == mirror.curve.scale
        back = dataclasses.replace(res.curve, pos=res.curve.pos.conj(), theta=-res.curve.theta)
        assert synth_bytes(dataclasses.replace(res, curve=back, sign_flipped=False)) == \
            synth_bytes(mirror)
    assert flipped == 64 + 43 + 7


# Digests of the first digest_ops outcomes of each workload, as bench/run.py
# prints them; an output change moves them, and a change that means to
# change outputs restates them here.
BENCH_DIGESTS = {("synth", 1): "b86b6a4d5589e3fd", ("synth", 7919): "068aa8a7cd286a86",
                 ("analyze-corpus", 1): "9c5d9c4563570a3b",
                 ("analyze-corpus", 7919): "ccd6ed983e2a8e05"}


@pytest.mark.parametrize("workload, seed", list(BENCH_DIGESTS))
def test_bench_digests_pinned(monkeypatch, workload, seed):
    worker = bench_worker(monkeypatch)
    wl = worker.WORKLOADS[workload]
    inputs = wl.make_inputs(fv, np.random.default_rng(seed), wl.pool)
    lines = []
    for i in range(wl.digest_ops):
        try:
            out = wl.run(fv, inputs[i % len(inputs)])
        except Exception:  # a failed operation, as the bench's run_op records it
            out = None
        lines.append(worker.outcome(wl, out))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == BENCH_DIGESTS[workload, seed]


def curve_bytes(c) -> bytes:
    return b"".join(a.tobytes() for a in (c.s, c.pos, c.theta, c.t))


def synth_bytes(res) -> bytes:
    """Every output of a synthesis, as raw bytes."""
    numbers = [res.scale.c, res.eps_used, *dataclasses.astuple(res.diagnostics)]
    return b"".join((curve_bytes(res.curve), res.h1.knots.tobytes(), res.h1.values.tobytes(),
                     np.complex128(res.beta_star.beta).tobytes(),
                     np.array(numbers, dtype=float).tobytes(), bytes([res.sign_flipped])))


def report_bytes(curve, rep) -> bytes:
    return curve_bytes(curve) + repr(rep).encode()


# SHA-256 over the raw bytes of every output of the leading operations of
# each seed-1 workload.  The bench digests above print beta* to 9 decimals
# and cover 4 synth operations, so they miss a change in the last bits; these
# do not.
OUTPUT_BYTES = {"synth": (16, "b43a2e8f2e43dccd"), "analyze-corpus": (256, "a6d2752d62a4bbcb")}


@pytest.mark.parametrize("workload", list(OUTPUT_BYTES))
def test_outputs_pinned_to_the_bit(monkeypatch, workload):
    worker = bench_worker(monkeypatch)
    wl = worker.WORKLOADS[workload]
    ops, expected = OUTPUT_BYTES[workload]
    inputs = wl.make_inputs(fv, np.random.default_rng(1), wl.pool)[:ops]
    h = hashlib.sha256()
    for x in inputs:
        out = wl.run(fv, x)
        h.update(synth_bytes(out) if workload == "synth" else report_bytes(x, out))
    assert h.hexdigest()[:16] == expected


def test_synth_call_structure():
    # the bench's per-layer metrics divide each stage's spans by the
    # operations run; a WRAPPED name whose stage stops calling it reads 0
    tracer = bench_tracing().Tracer()
    k = fv.profile_from_function(lambda t: 1.5 + np.cos(2 * t))
    with tracer.recording(fv, 0):
        res = fv.solver.synthesize(k)
    calls = {name: total[1] for name, total in tracer.totals_by_op()[0].items()}
    evaluations = res.diagnostics.error_evaluations
    assert calls == {
        "solver.synthesize": 1,
        "curvature.find_abab_points": 1,
        "curvature.build_h1": 1,
        "curvature.compose": 1,
        "solver.find_zero_beta": 1,
        "solver.error_at_beta": evaluations + 1,
        "moebius.moebius_lift": evaluations + 1,
        "integrator.is_simple": 1,
        "integrator.curvature_samples": 1,
    }


def test_flipped_synthesis_searches_for_the_window_once():
    # find_abab_points(k) returns -k's window when k has none of its own,
    # and the flipped pass takes it from there instead of searching again
    tracer = bench_tracing().Tracer()
    k = fv.profile_from_function(lambda t: -(1.5 + np.cos(2 * t)))
    with tracer.recording(fv, 0):
        res = fv.solver.synthesize(k)
    calls = {name: total[1] for name, total in tracer.totals_by_op()[0].items()}
    assert res.sign_flipped and calls["curvature.find_abab_points"] == 1


def test_corpus_curves_pass_the_validating_constructor(monkeypatch):
    # random_convex_curve and random_star_curve build their curves unchecked;
    # each would pass PlanarCurve's checks and keep its arrays
    worker = bench_worker(monkeypatch)
    curves = worker.analysis_curves(worker.CORPUS_N)(fv, np.random.default_rng(1), 1024)
    rng = np.random.default_rng(2)
    curves += [make(rng, n) for n in (64, 4096)
               for make in (fv.random_convex_curve, fv.random_star_curve)]
    for c in curves:
        checked = fv.PlanarCurve(c.s, c.pos, c.theta, c.scale, c.t)
        assert all(np.array_equal(getattr(checked, f), getattr(c, f)) and
                   getattr(checked, f).dtype == getattr(c, f).dtype
                   for f in ("s", "pos", "theta", "t"))
