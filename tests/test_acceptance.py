"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import cmath
import math
import time

import numpy as np
import pytest

import fourvertex as fv
from fourvertex.bicircle import (
    Configuration,
    arclength_to_angle_config,
    core_defect,
    error_from_angle_config,
    random_configuration,
    random_core_configuration,
)
from fourvertex.curvature import TWO_PI
from fourvertex.integrator import curvature_samples

from conftest import ellipse_curve, limacon_curve

P0 = Configuration(1, 1j, -1, -1j)


def report(num, text, elapsed, budget):
    line = f"[PASS] criterion {num}: {text} ({elapsed:.2f}s / budget {budget:.0f}s)"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_limacon_fixture():
    start = time.perf_counter()
    lim = limacon_curve(8192)
    rep = fv.detect_vertices(lim)
    assert rep.count == 2
    values = sorted(v[2] for v in rep.vertices)
    assert abs(values[0] - 5.0 / 9.0) < 1e-4
    assert abs(values[1] - 3.0) < 1e-4
    simple, witness = fv.is_simple(lim)
    assert not simple and witness is not None
    report(1, "limacon curvature extrema 5/9 and 3, two vertices, crossing "
              "witnessed", time.perf_counter() - start, 1.0)


def test_criterion_2_closure_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for i in range(1000):
        if i % 2 == 0:
            cfg = random_core_configuration(rng)
        else:
            cfg = random_configuration(rng)
            if abs(core_defect(cfg)) < 1e-4:
                continue
        a = rng.uniform(0.1, 2.0)
        b = a * rng.uniform(1.1, 4.0)
        closes = fv.integrated_error(cfg, a, b)[0].magnitude < 1e-9
        g = cfg.gaps()
        opposite_equal = abs(g[0] - g[2]) < 1e-9 and abs(g[1] - g[3]) < 1e-9
        on_core = abs(core_defect(cfg)) < 1e-9
        assert closes == opposite_equal == on_core
    report(2, "closure iff equal opposite arcs iff antipodal pairs, 1000 "
              "configurations", time.perf_counter() - start, 10.0)


def test_criterion_3_closed_form_matches_integration():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        cfg = random_configuration(rng, reduced=True)
        a = rng.uniform(0.1, 2.0)
        b = a * rng.uniform(1.1, 4.0)
        diff = abs(fv.closed_form_error(cfg, a, b).e
                   - fv.integrated_error(cfg, a, b)[0].e)
        worst = max(worst, diff)
    assert worst < 1e-9
    report(3, f"closed-form error equals direct integration (worst {worst:.1e})",
           time.perf_counter() - start, 10.0)


def test_criterion_4_winding_one_across_radii():
    start = time.perf_counter()
    for a, b in ((0.5, 2.0), (1.0, 3.0), (0.2, 0.9)):
        signs = set()
        for r in (0.05, 0.1, 0.2, 0.4):
            loop = [fv.moebius_on_config(r * cmath.exp(2j * math.pi * j / 256), P0)
                    for j in range(256)]
            w = fv.error_winding_on_core_link(a, b, loop)
            assert abs(w) == 1
            signs.add(w)
        assert len(signs) == 1
    report(4, "error loops wind once with a consistent sign over four radii "
              "and three value pairs", time.perf_counter() - start, 30.0)


def test_criterion_5_evaluation_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(1000):
        q = random_configuration(rng)
        core, m = fv.evaluation_inverse(q)
        assert fv.is_core(core, 1e-9)
        back = fv.moebius_on_config(m, core)
        assert max(abs(p - e) for p, e in zip(back.points(), q.points())) < 1e-9
    for _ in range(100):
        q = random_core_configuration(rng)
        _, m = fv.evaluation_inverse(q)
        assert abs(m.beta) < 1e-10
    report(5, "configuration factors through a core point and disk parameter",
           time.perf_counter() - start, 5.0)


def test_criterion_6_core_transversality_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    h = 1e-6

    def rotated(cfg, idx, delta):
        pts = list(cfg.points())
        pts[idx] *= cmath.exp(1j * delta)
        return Configuration(*pts)

    for _ in range(100):
        core_s = random_core_configuration(rng, reduced=True)
        a = rng.uniform(0.1, 1.5)
        b = a * rng.uniform(1.2, 4.0)
        q, ap, bp = arclength_to_angle_config(core_s, a, b)
        pref = 1.0 / (1j * bp) - 1.0 / (1j * ap)
        fd = []
        for idx, direction in ((1, -1j), (2, 1j)):
            ep = error_from_angle_config(rotated(q, idx, h), a, b).e
            em = error_from_angle_config(rotated(q, idx, -h), a, b).e
            d_fd = (ep - em) / (2 * h)
            d_formula = pref * direction * q.points()[idx]
            assert abs(d_fd - d_formula) / abs(d_formula) < 1e-4
            fd.append(d_fd)
        det = fd[0].real * fd[1].imag - fd[0].imag * fd[1].real
        assert abs(det) > 1e-6
    report(6, "error-map derivatives match the displayed formulas at core "
              "points and stay independent", time.perf_counter() - start, 30.0)


@pytest.mark.parametrize("label,fn", [
    ("constant", lambda t: np.ones_like(t)),
    ("two maxima", lambda t: 1.5 + np.cos(2 * t)),
    ("mixed sign", lambda t: np.cos(2 * t) + 0.05),
    ("negated", lambda t: -(1.5 + np.cos(2 * t))),
])
def test_criterion_7_full_synthesis(label, fn):
    start = time.perf_counter()
    k = fv.profile_from_function(fn, n=4096)
    res = fv.synthesize(k)
    assert res.curve.closed
    assert fv.error_vector(res.curve).magnitude < 1e-9 * TWO_PI
    assert fv.is_simple(res.curve)[0]
    kappa = curvature_samples(res.curve)
    target = np.asarray(k(res.curve.t[: kappa.size]))
    if label == "constant":
        assert np.max(np.abs(kappa - target)) < 1e-6
    else:
        ab = fv.find_abab_points(k)
        bad = np.abs(kappa - target) >= 0.05 * (ab.b - ab.a)
        assert float(np.mean(bad)) * TWO_PI < res.eps_used
    report(7, f"synthesis of {label} profile closes, stays simple and "
              "realizes its curvature", time.perf_counter() - start, 60.0)


def test_criterion_8_four_vertex_and_osserman_corpus():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    for i in range(1000):
        if i % 2 == 0:
            curve = fv.random_convex_curve(rng)
        else:
            curve = fv.random_star_curve(rng)
        rep = fv.osserman_check(curve)
        assert rep.vertex_count >= 4
        assert rep.vertex_count >= 2 * rep.n
        assert rep.contact_gap <= math.pi + 1e-3
    report(8, "1000 random closed curves satisfy the four-vertex and "
              "contact-component bounds", time.perf_counter() - start, 300.0)


def test_criterion_9_ellipse_fixture():
    start = time.perf_counter()
    ell = ellipse_curve(4096)
    circle = fv.min_enclosing_circle(ell.pos)
    assert abs(circle.radius - 2.0) < 1e-6
    comps = fv.contact_components(ell, circle)
    assert [c.kind for c in comps] == ["point", "point"]
    t0, t1 = comps[0].interval[0], comps[1].interval[0]
    assert abs(abs(t1 - t0) - math.pi) < 1e-6
    rep = fv.detect_vertices(ell)
    assert rep.count == 4
    values = sorted(v[2] for v in rep.vertices)
    assert abs(values[0] - 0.25) < 1e-4 and abs(values[1] - 0.25) < 1e-4
    assert abs(values[2] - 2.0) < 1e-4 and abs(values[3] - 2.0) < 1e-4
    report(9, "2:1 ellipse: enclosing radius 2, antipodal point contacts, "
              "four vertices at 2 and 1/4", time.perf_counter() - start, 30.0)
