"""One benchmark workload in one process: set up, run a closed loop, check outputs.

``run.py`` starts this script once per child process; it is not meant to
be run by hand.  The child imports the library from ``src/`` of the
checkout, builds its inputs from the seed, runs one untimed warm-up
operation, then runs operations one after another (one client, one
thread) until they have taken ``--seconds``.  Under ``--trace`` each input
runs once untraced and once traced.  Every output is checked after its
operation, outside the timed region.  The last stdout line is
one JSON object of raw measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = Path(__file__).resolve().parent / "out"
TWO_PI = 2.0 * math.pi
ADDRESS_SPACE_BYTES = 2 << 30
OP_DEADLINE_S = 20.0  # also the latency charged to a failed operation
WARMUP_SEED = 0

SYNTH_N = 4096
CORPUS_N = 512


class OpDeadline(BaseException):
    """An operation ran past OP_DEADLINE_S.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it and keep the operation running.
    """


def _on_alarm(signum, frame):
    raise OpDeadline


def import_library():
    """The fourvertex package from this checkout's sources, never an installed one."""
    pkg = ROOT / "src" / "fourvertex"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"worker: no library sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import fourvertex

    if Path(fourvertex.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"worker: imported fourvertex from {fourvertex.__file__}, not {pkg}")
    return fourvertex


# ---------------------------------------------------------------- workloads


def synth_profiles(fv, rng, count: int) -> list:
    """Admissible profiles ``c0 + cos 2t`` plus a damped trig polynomial of degree <= 5.

    Members cycle through positive, negated, mixed sign (c0 near 0) and
    negated mixed sign, so both sides of the sign-flip path run.
    """
    t = TWO_PI * np.arange(SYNTH_N) / SYNTH_N
    harmonics = np.arange(1, 6)[:, None]
    out = []
    for i in range(count):
        c0 = rng.uniform(0.02, 0.3) if i % 4 >= 2 else rng.uniform(1.2, 2.5)
        a, b = rng.normal(0.0, 0.12 / np.arange(1, 6) ** 2, size=(2, 5))
        poly = a @ np.cos(harmonics * t) + b @ np.sin(harmonics * t)
        sign = -1.0 if i % 2 else 1.0
        out.append(fv.CurvatureProfile(sign * (c0 + np.cos(2 * t) + poly), "linear"))
    return out


def analysis_curves(n: int):
    """Curves of n samples, alternating random_convex_curve and random_star_curve."""

    def make(fv, rng, count: int) -> list:
        return [fv.random_convex_curve(rng, n=n) if i % 2 == 0 else fv.random_star_curve(rng, n=n)
                for i in range(count)]

    return make


def check_synth(fv, k, res) -> str | None:
    """Acceptance criterion 7: closed, simple, curvature matched in measure, >= 4 vertices."""
    curve = res.curve
    if not curve.closed:
        return "curve is not closed"
    residual = fv.error_vector(curve).magnitude
    if residual >= 1e-9 * TWO_PI:
        return f"closure residual {residual:.3e}"
    kappa = fv.integrator.curvature_samples(curve)
    target = np.asarray(k(curve.t[: kappa.size]))
    ab = fv.curvature.find_abab_points(k)
    bad = float(np.mean(np.abs(kappa - target) >= 0.05 * (ab.b - ab.a))) * TWO_PI
    if bad >= res.eps_used:
        return f"curvature mismatch on measure {bad:.3g} >= eps {res.eps_used:.3g}"
    try:
        vertices = fv.analysis.osserman_check(curve).vertex_count
    except fv.NotSimple:
        return "curve is not simple"
    if vertices < 4:
        return f"only {vertices} vertices"
    return None


def check_report(fv, curve, rep) -> str | None:
    """Vertex bound max(4, 2n) and a contact set not inside an open half circle."""
    if rep.vertex_count < max(4, 2 * rep.n):
        return f"{rep.vertex_count} vertices for {rep.n} contact components"
    if rep.contact_gap > math.pi + 1e-3:
        return f"contact gap {rep.contact_gap:.4f} exceeds pi"
    return None


def summarize_synth(res) -> str:
    d = res.diagnostics
    b = res.beta_star.beta
    return f"beta {b.real:.9f} {b.imag:.9f} rounds {d.rounds} evals {d.error_evaluations}"


def summarize_report(rep) -> str:
    return f"n {rep.n} vertices {rep.vertex_count}"


class Workload(NamedTuple):
    make_inputs: Callable   # (fv, rng, count) -> list of inputs
    pool: int               # inputs per run, cycled by the loop
    run: Callable           # (fv, input) -> output; the timed operation
    check: Callable         # (fv, input, output) -> failure reason or None
    summarize: Callable     # output -> digest line
    digest_ops: int         # leading operations covered by the digest


# The operation looks its entry point up as a module attribute on every call,
# so the tracing wrappers installed there are the ones that run.
WORKLOADS = {
    "synth": Workload(synth_profiles, 128, lambda fv, k: fv.solver.synthesize(k),
                      check_synth, summarize_synth, 4),
    "analyze-corpus": Workload(analysis_curves(CORPUS_N), 1024,
                               lambda fv, c: fv.analysis.osserman_check(c),
                               check_report, summarize_report, 256),
}


# ---------------------------------------------------------------- measuring


def run_op(wl: Workload, fv, x):
    """(output or None, failure reason or None, seconds) of one operation under the deadline."""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
            out = wl.run(fv, x)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except OpDeadline:
        return None, f"deadline of {OP_DEADLINE_S:g} s", time.perf_counter() - start
    except Exception as ex:  # any library error is a failed operation, not a harness crash
        return None, f"{type(ex).__name__}: {ex}", time.perf_counter() - start
    return out, None, time.perf_counter() - start


def outcome(wl: Workload, out) -> str:
    """Digest line of one operation."""
    return "failed" if out is None else wl.summarize(out)


def verify(wl: Workload, fv, x, out, err: str | None) -> tuple[str | None, bool]:
    """(failure reason, output was wrong) of one operation: its error, else its output check."""
    if err is not None:
        return err, False
    reason = wl.check(fv, x, out)
    return reason, reason is not None


# per-layer metrics read from spans: self time and call counts per operation
SELF_S = ("curvature.find_abab_points", "curvature.build_h1", "curvature.compose",
          "curvature.normalize_total", "moebius.moebius_lift", "integrator.integrate_curve",
          "integrator.is_simple", "integrator.curvature_samples", "solver.synthesize",
          "solver.find_zero_beta", "solver.error_at_beta", "analysis.osserman_check",
          "analysis.min_enclosing_circle", "analysis.contact_components",
          "analysis.contact_angular_gap", "analysis.detect_vertices")
CALLS = ("curvature.compose", "moebius.moebius_lift", "integrator.integrate_curve",
         "integrator.is_simple", "integrator.curvature_samples", "solver.error_at_beta",
         "analysis.detect_vertices")
SHARES = ("solver.error_at_beta", "integrator.is_simple")


def layer_metrics(tracer: Tracer, diagnostics: list, latencies: list) -> tuple[dict, list]:
    """Per-layer metrics per operation, and the ops whose trace disagrees with diagnostics."""
    per_op = tracer.totals_by_op()
    n_ops = len(latencies)

    def total(name: str, field: int) -> float:
        return sum(t.get(name, (0.0, 0, 0.0, 0))[field] for t in per_op.values())

    m = {f"{name}.self_s": total(name, 0) / n_ops for name in SELF_S}
    m.update({f"{name}.calls": total(name, 1) / n_ops for name in CALLS})
    m.update({f"{name}.share": total(name, 2) / sum(latencies) for name in SHARES})

    synth = [(i, d) for i, d in enumerate(diagnostics) if d is not None]
    rounds_tried = total("curvature.build_h1", 1)
    m["solver.error_evals_per_op"] = (sum(d.error_evaluations for _, d in synth) / len(synth)
                                      if synth else 0.0)
    m["solver.rounds_per_op"] = sum(d.rounds for _, d in synth) / len(synth) if synth else 0.0
    m["solver.round_success_ratio"] = len(synth) / rounds_tried if rounds_tried else 0.0

    # every evaluation inside find_zero_beta, plus one per round whose zero search returned
    mismatched = []
    for i, d in synth:
        t = per_op.get(i, {})
        calls = t.get("solver.error_at_beta", (0.0, 0, 0.0, 0))[1]
        zeros = t.get("solver.find_zero_beta", (0.0, 0, 0.0, 0))[3]
        if calls != d.error_evaluations + zeros:
            mismatched.append(f"op {i}: {calls} error_at_beta calls, "
                              f"{d.error_evaluations} evaluations + {zeros} zero searches")
    return m, mismatched


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    """One JSON list per line: name, start and end (perf_counter seconds), parent line, op, returned."""
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as f:
        for s in tracer.spans:
            f.write(json.dumps(s) + "\n")
    return path


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    signal.signal(signal.SIGALRM, _on_alarm)
    fv = import_library()
    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(fv, np.random.default_rng(args.seed), wl.pool)
    tracer = Tracer() if args.trace else None
    # The warm-up input is the same for every seed, so that set-up time does
    # not vary with the cost of one seeded input.
    run_op(wl, fv, wl.make_inputs(fv, np.random.default_rng(WARMUP_SEED), 1)[0])
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    # Each output is checked right after its operation, outside the timed
    # region, and then dropped, so that memory holds one output at a time.
    errors, latencies, diagnostics, digest_lines = [], [], [], []
    untraced, mismatches = [], []
    wrong, spent = 0, 0.0
    while True:
        i = len(latencies)
        x = inputs[i % len(inputs)]
        if tracer is None:
            out, err, dt = run_op(wl, fv, x)
        else:
            # each input runs untraced and traced, in alternating order, so
            # that drift in machine speed cancels out of the overhead
            if i % 2 == 0:
                bare, _, bare_dt = run_op(wl, fv, x)
            with tracer.recording(fv, i):
                out, err, dt = run_op(wl, fv, x)
            if i % 2 == 1:
                bare, _, bare_dt = run_op(wl, fv, x)
            untraced.append(bare_dt)
            spent += bare_dt
            if outcome(wl, bare) != outcome(wl, out):
                mismatches.append(f"op {i}: traced output differs from untraced")
        err, bad_output = verify(wl, fv, x, out, err)
        wrong += bad_output
        errors.append(err)
        latencies.append(dt)
        spent += dt
        diagnostics.append(getattr(out, "diagnostics", None))
        if i < wl.digest_ops:
            digest_lines.append(outcome(wl, out))
        if spent >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "elapsed_s": sum(latencies),
        "latencies_s": latencies,
        "failed": [i for i, e in enumerate(errors) if e is not None],
        "wrong": wrong,
        "first_errors": [f"op {i}: {e}" for i, e in enumerate(errors) if e is not None][:3],
        "peak_rss_mib": peak_rss_mib,
        "op_deadline_s": OP_DEADLINE_S,
        "digest": hashlib.sha256("\n".join(digest_lines).encode()).hexdigest()[:16],
        "digest_ops": len(digest_lines),
    }
    if tracer is not None:
        result["layers"], trace_mismatches = layer_metrics(tracer, diagnostics, latencies)
        result["layers"]["trace.overhead_frac"] = 1.0 - sum(untraced) / sum(latencies)
        result["trace_mismatches"] = mismatches + trace_mismatches
        result["span_file"] = str(write_spans(tracer, args.workload, args.seed).relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
