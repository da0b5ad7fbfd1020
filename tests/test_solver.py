import cmath
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fourvertex.analysis import detect_vertices, osserman_check
from fourvertex.bicircle import Configuration, closed_form_error
from fourvertex.curvature import (
    TWO_PI,
    CurvatureProfile,
    HypothesisViolated,
    NoPositiveWindow,
    StepSpec,
    build_h1,
    compose,
    find_abab_points,
    plateau_extrema,
    profile_from_function,
    profile_from_step,
)
from fourvertex.integrator import (
    ErrorVector,
    InsufficientDensity,
    OriginOnLoop,
    _integrate,
    curvature_samples,
    error_vector,
    is_simple,
)
from fourvertex.moebius import NumericallyDegenerate, evaluation_inverse, moebius_on_config
from fourvertex import curvature, integrator, solver
from fourvertex.solver import (
    BadParameter,
    NoWindingAtRadius,
    PolishDiverged,
    SynthesisFailed,
    _certify,
    compass_demo,
    error_at_beta,
    find_zero_beta,
    synthesize,
    winding_number,
)

from conftest import trig_profile

P0 = Configuration(1, 1j, -1, -1j)
# beta* of 1.5 + cos 2t at n=4096, with the error integrated on the warp's grid
# and the step breakpoints half a grid step off the grid
PINNED_BETA = -0.0010132916146635322 + 0.0009912952274839903j


def step_breakpoints(k):
    """Grid breakpoints of a four-run two-value step profile, else None."""
    s = k.samples
    change = np.flatnonzero(s != np.roll(s, 1))
    if change.size != 4 or not (s[change[0]] == s[change[2]] != s[change[1]] == s[change[3]]):
        return None
    return TWO_PI * change / k.n


def ray_crossing_winding(points):
    """Independent oracle: signed crossings of the positive x-axis."""
    w = 0
    pts = list(points)
    for z0, z1 in zip(pts, pts[1:] + pts[:1]):
        if z0.imag <= 0 < z1.imag or z1.imag <= 0 < z0.imag:
            lam = z0.imag / (z0.imag - z1.imag)
            x = z0.real + lam * (z1.real - z0.real)
            if x > 0:
                w += 1 if z1.imag > z0.imag else -1
    return w


def figure_eight(n=512):
    phis = TWO_PI * np.arange(n) / n
    left = -0.3 + 0.5 * np.exp(1j * phis)
    right = 0.3 + 0.5 * np.exp(-1j * phis)
    bridge = np.linspace(0.2, 0.8, 64) + 0j
    return np.concatenate((left, bridge, right, bridge[::-1]))


class TestWindingNumber:
    def test_circle(self):
        phis = TWO_PI * np.arange(256) / 256
        assert winding_number(np.exp(1j * phis)) == 1

    def test_double_negative(self):
        phis = TWO_PI * np.arange(256) / 256
        assert winding_number(np.exp(-2j * phis)) == -2

    def test_figure_eight_cancels(self):
        loop = figure_eight()
        assert winding_number(loop) == 0
        assert ray_crossing_winding(loop) == 0

    def test_oracle_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            shift = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            loop = np.exp(1j * TWO_PI * np.arange(512) / 512) + shift
            assert winding_number(loop) == ray_crossing_winding(loop)

    def test_origin_rejected(self):
        with pytest.raises(OriginOnLoop):
            winding_number([1.0, 0.0, -1.0, 1j])

    def test_sparse_loop_rejected(self):
        with pytest.raises(InsufficientDensity):
            winding_number(np.exp(1j * TWO_PI * np.arange(3) / 3))


class TestErrorAtBeta:
    def test_step_profile_closes_at_zero(self):
        k0 = profile_from_step(StepSpec(0.5, 2.0), 4096)
        err, ds, sc, _, _ = error_at_beta(k0, 0.0)
        assert err.magnitude < 1e-12
        assert ds.shape == (4096,) and np.sum(ds) == pytest.approx(TWO_PI, abs=1e-12)
        assert sc.c == pytest.approx(0.8, abs=1e-12)

    def test_loop_winds_once(self):
        k0 = profile_from_step(StepSpec(0.5, 2.0), 2048)
        pts = [error_at_beta(k0, 0.2 * cmath.exp(2j * math.pi * j / 256))[0].e
               for j in range(256)]
        assert abs(winding_number(pts)) == 1

    def test_real_parameter_matches_closed_form(self):
        # the pulled-back step pattern has breakpoints at the inverse image
        k0 = profile_from_step(StepSpec(0.5, 2.0), 4096)
        beta = 0.2
        e_num = error_at_beta(k0, beta)[0].e
        cfg = moebius_on_config(-beta, P0)
        assert abs(e_num - closed_form_error(cfg, 0.5, 2.0).e) < 1e-9
        # off the real axis too: the curve starts at u = 0, the image of the
        # cut point 1, so E itself matches, not only |E|
        for r in (0.05, 0.2, 0.6):
            for phi in np.linspace(0.0, TWO_PI, 7)[:-1] + 0.3:
                beta = r * cmath.exp(1j * phi)
                e_num = error_at_beta(k0, beta)[0].e
                e_ref = closed_form_error(moebius_on_config(-beta, P0), 0.5, 2.0).e
                assert abs(e_num - e_ref) < 1e-9

    def test_steep_map_matches_closed_form(self):
        # steep maps: the closed-form lift is exact at every knot of the
        # 512 grid, however fast the boundary map turns between knots
        k0 = profile_from_step(StepSpec(0.5, 2.0), 512)
        for r in (0.985, 0.995):
            beta = r * cmath.exp(0.7j)
            e_ref = closed_form_error(moebius_on_config(-beta, P0), 0.5, 2.0).e
            assert abs(error_at_beta(k0, beta)[0].e - e_ref) < 1e-9

    def test_winding_consistent_across_radii(self):
        k0 = profile_from_step(StepSpec(0.5, 2.0), 2048)
        winds = []
        for r in (0.05, 0.1, 0.2, 0.4):
            pts = [error_at_beta(k0, r * cmath.exp(2j * math.pi * j / 128))[0].e
                   for j in range(128)]
            winds.append(winding_number(pts))
        assert len(set(winds)) == 1 and abs(winds[0]) == 1

    def test_smooth_profile_uses_sampled_route(self):
        k = profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=2048)
        assert step_breakpoints(k) is None
        err, ds, sc, _, _ = error_at_beta(k, 0.1 + 0.05j)
        assert ds.size == 2048
        assert np.isfinite(err.magnitude)
        # the returned steps and scale rebuild the curve the error belongs to
        curve = _integrate(sc.c * k.samples, ds).curve
        assert curve.s.size == 2049
        assert error_vector(curve) == err

    @pytest.mark.parametrize("gap", [1e-12, 1e-16])
    def test_unresolvable_lift_is_numerically_degenerate(self, gap):
        # so near the unit circle some lift steps round to zero or below
        k0 = profile_from_step(StepSpec(0.5, 2.0), 4096)
        with pytest.raises(NumericallyDegenerate, match="strictly increasing"):
            error_at_beta(k0, 1.0 - gap)


@pytest.mark.parametrize("n", [512, 4096, 8192])
@pytest.mark.parametrize("a, b", [(0.5, 2.0), (0.7, 2.3), (0.1, 3.0)])
@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["on-grid", "half-step"])
def test_step_jacobian_matches_central_differences(n, a, b, offset):
    # the tangent pass's Jacobian of a step profile's error at beta = 0, where
    # every polish starts; the breakpoints on the grid, and half a grid step
    # off it as synthesize places them
    step = StepSpec(a, b, tuple(0.5 * math.pi * q + offset * TWO_PI / n for q in range(4)))
    k0 = profile_from_step(step, n)
    h = 1e-6
    cols = [(error_at_beta(k0, d)[0].e - error_at_beta(k0, -d)[0].e) / (2 * h) for d in (h, 1j * h)]
    fd = np.array([[cols[0].real, cols[1].real], [cols[0].imag, cols[1].imag]])
    jac = solver._tangent_pass(k0.samples, 0j, error_at_beta(k0, 0.0)).jac
    assert np.max(np.abs(jac - fd)) < 1e-7 * np.max(np.abs(fd))


class TestFindZero:
    def test_step_profile_zero_at_origin(self):
        k0 = profile_from_step(StepSpec(0.5, 2.0), 2048)
        beta = find_zero_beta(k0)
        assert abs(beta.beta) < 1e-6
        assert error_at_beta(k0, beta)[0].magnitude < 1e-9

    def test_perturbed_breakpoint_zero_matches_geodesic_inverse(self):
        spec = StepSpec(0.5, 2.0, (0.0, math.pi / 2 + 0.1, math.pi,
                                   3 * math.pi / 2))
        kp = profile_from_step(spec, 4096)
        beta = find_zero_beta(kp)
        assert abs(beta.beta) > 1e-3
        assert error_at_beta(kp, beta)[0].magnitude < 1e-9
        # independent route: the grid-snapped step pattern factors through a
        # unique disk parameter
        bps = step_breakpoints(kp)
        _, m = evaluation_inverse(Configuration(*np.exp(1j * bps)))
        assert abs(beta.beta - m.beta) < 1e-9

    def test_constant_profile_has_no_winding(self):
        k = profile_from_function(lambda t: np.ones_like(t), n=512)
        with pytest.raises(NoWindingAtRadius):
            find_zero_beta(k)


@pytest.fixture(scope="module")
def warped():
    """The 1.5 + cos 2t profile warped onto its step at eps = 0.1, and the root."""
    k = profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=4096)
    ab = find_abab_points(k)
    k1 = compose(k, build_h1(k, ab, StepSpec(ab.a, ab.b), 0.1))
    return k1, find_zero_beta(k1).beta


class TestCertifiedPolish:
    def test_diverged_polish_propagates(self, monkeypatch, warped):
        k1, _ = warped

        def stall(k1, counter):
            raise PolishDiverged(0j, 1.0)

        monkeypatch.setattr(solver, "_polish", stall)
        with pytest.raises(PolishDiverged, match="stalled"):
            find_zero_beta(k1)

    def test_polish_leaving_unit_disk_propagates(self, monkeypatch, warped):
        k1, _ = warped
        real = solver.error_at_beta

        def shifted(k, m):
            # the shifted error has no zero in the disk; the first Newton step
            # lands outside the unit circle, where the error must not be evaluated
            ev = real(k, m)
            return ev._replace(e=ErrorVector(ev.e.e + 10.0))

        monkeypatch.setattr(solver, "error_at_beta", shifted)
        with pytest.raises(PolishDiverged, match="unit disk"):
            find_zero_beta(k1)

    def test_uncertified_root_rejected(self, monkeypatch, warped):
        # the polish closes an error shifted by 0.01, but the certificate
        # reads E from the evaluation's own curve, so at that root the true
        # error is ~0.01 and h = b K eta exceeds 1/2
        k1, _ = warped
        real = solver.error_at_beta

        def shifted(k, m):
            ev = real(k, m)
            return ev._replace(e=ErrorVector(ev.e.e + 0.01))

        monkeypatch.setattr(solver, "error_at_beta", shifted)
        with pytest.raises(NoWindingAtRadius, match="does not certify"):
            find_zero_beta(k1)

    def test_root_outside_radius_rejected(self, warped, monkeypatch):
        k1, ref = warped
        monkeypatch.setattr(solver, "ROOT_RADIUS", 0.5 * abs(ref))
        with pytest.raises(NoWindingAtRadius, match="outside radius"):
            find_zero_beta(k1)

    def test_certificate_winds_once_around_root_only(self, warped):
        # at the polished root the certificate proves a simple zero, around
        # which E winds sign(det J) = +-1 times; read at a point ten ball
        # radii away, from that evaluation, it refuses
        k1, ref = warped
        off = ref + 10 * solver.CERTIFICATE_RADIUS
        assert _certify(k1.samples, off, error_at_beta(k1, off)) is None
        ev = error_at_beta(k1, ref)
        assert _certify(k1.samples, ref, ev).h <= 0.5
        jac = solver._tangent_pass(k1.samples, ref, ev).jac
        assert abs(np.sign(np.linalg.det(jac))) == 1

    @pytest.mark.parametrize("offset", [0.0, 1e-9, 1e-7, 1e-5, 2e-4, 1e-3])
    def test_certified_ball_holds_the_root(self, warped, offset):
        # read at a point offset from the root, the certificate either
        # refuses, or certifies a ball that reaches the root; it refuses
        # where h > 1/2 or the ball would leave the one on which K holds
        k1, ref = warped
        beta = ref + offset * (0.6 + 0.8j)
        ev = error_at_beta(k1, beta)
        cert = _certify(k1.samples, beta, ev)
        if offset <= 1e-5:
            assert cert.h <= 0.5 and cert.radius >= offset
            assert cert.eta >= cert.b * ev.e.magnitude
        else:
            assert cert is None


def dense_square_winding(err, center, half, per_edge=64):
    """Winding of err along a square sampled uniformly, per_edge points an edge."""
    corners = [center + half * w for w in (-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j)]
    u = np.arange(per_edge) / per_edge
    loop = [err(z0 + (z1 - z0) * uj)
            for z0, z1 in zip(corners, corners[1:] + corners[:1]) for uj in u]
    return winding_number(loop)


# profiles and warp eps of the roots the certificate tests read; "large-scale"
# is normalized by |c| near 300
ROOT_CASES = {
    "warped": (lambda: profile_from_function(lambda t: 1.5 + np.cos(2 * t)), 0.1),
    "certificate": (lambda: trig_profile(*CERTIFICATE_CASE), 0.05),
    "large-scale": (lambda: trig_profile(*LARGE_SCALE), 0.025),
}


def root_case(name):
    """(k1, beta*) of one ROOT_CASES profile warped onto its step."""
    make, eps = ROOT_CASES[name]
    k1 = warp_onto_step(make(), eps)
    return k1, find_zero_beta(k1).beta


@pytest.mark.parametrize("case", list(ROOT_CASES))
def test_certified_ball_agrees_with_dense_loop(case):
    # a certified zero is the only one in the ball of radius
    # CERTIFICATE_RADIUS, and J is nonsingular there: a 256-sample loop
    # around a square inside that ball winds sign(det J) times, and one
    # around a square beside the certified ball does not wind
    make, eps = ROOT_CASES[case]
    k1 = warp_onto_step(make(), eps)
    stats = {}
    beta = find_zero_beta(k1, stats=stats).beta
    cert = stats["certificate"]
    assert cert.h <= 0.5 and cert.radius < 1e-9

    def err(b):
        return error_at_beta(k1, b)[0].e

    jac = solver._tangent_pass(k1.samples, beta, error_at_beta(k1, beta)).jac
    half = solver.CERTIFICATE_RADIUS / 2
    assert dense_square_winding(err, beta, half) == int(np.sign(np.linalg.det(jac))) != 0
    assert dense_square_winding(err, beta + 2 * half, 0.5 * half) == 0


@pytest.mark.parametrize("case", list(ROOT_CASES))
def test_tangent_pass_matches_central_differences(case):
    # the forward-mode Jacobian against a fourth-order central difference
    # of step 1e-4, whose own error is ~1e-9 relative here; at the root,
    # which the certificate reads, and at beta = 0, where the polish starts
    k1, root = root_case(case)
    for beta in (root, 0j):
        ev = error_at_beta(k1, beta)
        tp = solver._tangent_pass(k1.samples, beta, ev)
        assert tp.e == ev.e.e
        h = 1e-4
        cols = []
        for v in (1.0, 1j):
            f = [error_at_beta(k1, beta + j * h * v)[0].e for j in (-2, -1, 1, 2)]
            d = (8.0 * (f[2] - f[1]) - (f[3] - f[0])) / (12.0 * h)
            cols.append([d.real, d.imag])
        fd = np.array(cols).T
        assert np.max(np.abs(tp.jac - fd)) < 1e-7 * np.max(np.abs(fd))


@pytest.mark.parametrize("case", list(ROOT_CASES))
def test_lipschitz_bound_covers_measured_variation(case):
    # J read by the tangent pass at eight points on the rim of the ball
    # where the bound holds moves from J(beta*) by at most K times the radius
    k1, beta = root_case(case)
    ev = error_at_beta(k1, beta)
    jac = solver._tangent_pass(k1.samples, beta, ev).jac
    bound = _certify(k1.samples, beta, ev).k
    rho = solver.CERTIFICATE_RADIUS
    for j in range(8):
        b = beta + rho * cmath.exp(2j * math.pi * j / 8)
        moved = solver._tangent_pass(k1.samples, b, error_at_beta(k1, b)).jac
        assert np.linalg.norm(moved - jac, 2) <= bound * rho


def extended_error_and_jacobian(k, beta):
    """E and J of the sampled route by the same formulas in long double arithmetic."""
    ld, cld = np.longdouble, np.clongdouble
    n, k = k.size, k.astype(ld)
    two_pi = 8 * np.arctan(ld(1))
    grid = two_pi * np.arange(n + 1, dtype=ld) / n
    z = np.exp(-1j * grid.astype(cld))
    w = 1 + cld(beta) * z
    lift = grid + 2 * np.angle(w)
    lift[-1] = lift[0] + two_pi
    ds = np.diff(lift)
    c = two_pi / (k @ ds)
    kappa = c * k
    theta = np.concatenate(([ld(0)], np.cumsum(kappa * ds)))
    rot = np.exp(1j * theta.astype(cld))
    arcs = np.diff(rot) / (1j * kappa)
    e = np.sum(arcs)
    q = z / w
    dlift = 2 * np.array([q.imag, q.real])
    dlift[:, -1] = dlift[:, 0]
    dds = np.diff(dlift, axis=1)
    dcc = -(dds @ k) * c / two_pi
    dtheta = np.zeros((2, n + 1), dtype=ld)
    dtheta[:, 1:] = np.cumsum(kappa * (dcc[:, None] * ds + dds), axis=1)
    de = 1j * (dtheta[:, :-1] @ arcs) + dds @ rot[1:] + dcc * (rot[1:] @ ds - e)
    return complex(e), np.array([[de[0].real, de[1].real], [de[0].imag, de[1].imag]], dtype=float)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended")
@pytest.mark.parametrize("case", list(ROOT_CASES))
def test_roundoff_bounds_cover_extended_precision(case):
    # the certificate's rounding bounds on E and J hold against the same
    # pass in 64-bit-mantissa arithmetic, whose own error is ~2000 times
    # smaller
    k1, beta = root_case(case)
    ev = error_at_beta(k1, beta)
    tp = solver._tangent_pass(k1.samples, beta, ev)
    ak = np.abs(k1.samples)
    eps_e, eps_j, _ = solver._roundoff(beta, ev.ds, ev.scale.c, float(np.sum(ak)),
                                       float(ak @ ev.ds), tp)
    e_ext, jac_ext = extended_error_and_jacobian(k1.samples, beta)
    assert abs(tp.e - e_ext) < eps_e < 1e-8
    assert np.linalg.norm(tp.jac - jac_ext, 2) < eps_j < 1e-7


class TestSynthesize:
    def test_constant_gives_circle(self):
        k = profile_from_function(lambda t: np.ones_like(t), n=1024)
        res = synthesize(k)
        assert res.curve.closed
        center = np.mean(res.curve.pos[:-1])
        radii = np.abs(res.curve.pos - center)
        assert np.max(np.abs(radii - 1.0)) < 1e-9
        assert res.beta_star.beta == 0

    def test_smooth_profile_full_contract(self):
        k = profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=4096)
        res = synthesize(k)
        assert res.curve.closed
        assert error_vector(res.curve).magnitude < 1e-9 * TWO_PI
        assert is_simple(res.curve)[0]
        turn = res.curve.theta[-1] - res.curve.theta[0]
        assert abs(abs(turn) - TWO_PI) < 1e-8
        assert detect_vertices(res.curve).count == 4
        self._check_round_trip(k, res)

    def test_sign_flipped_profile(self):
        k = profile_from_function(lambda t: -(1.5 + np.cos(2 * t)), n=4096)
        res = synthesize(k)
        assert res.sign_flipped
        assert is_simple(res.curve)[0]
        turn = res.curve.theta[-1] - res.curve.theta[0]
        assert turn == pytest.approx(-TWO_PI, abs=1e-8)
        self._check_round_trip(k, res)

    def test_mixed_sign_profile(self):
        k = profile_from_function(lambda t: np.cos(2 * t) + 0.05, n=4096)
        res = synthesize(k)
        assert is_simple(res.curve)[0]
        kappa = curvature_samples(res.curve)
        assert np.min(kappa) < 0  # the negative slivers survive
        self._check_round_trip(k, res)

    def test_evaluation_budget(self):
        # E(0) and 2 Newton steps; the certificate reads the last of them
        k = profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=4096)
        res = synthesize(k)
        assert res.diagnostics.error_evaluations <= 3
        assert abs(res.beta_star.beta - PINNED_BETA) < 1e-9

    def test_evaluation_budget_over_three_rounds(self):
        # LARGE_SCALE's own pass fails the zero search at eps 0.1 and 0.05
        # and closes it in round 3; 10 evaluations over all of them
        res = synthesize(trig_profile(*LARGE_SCALE))
        assert not res.sign_flipped
        assert res.diagnostics.rounds == 3 and res.diagnostics.error_evaluations <= 10

    @pytest.mark.parametrize("kwargs", [
        {"eps0": 0.0}, {"eps0": -0.0}, {"eps0": -0.1}, {"eps0": 7.0},
        {"eps0": math.nextafter(TWO_PI, 7.0)},  # a mismatch set has measure at most 2*pi
        {"eps0": math.inf}, {"eps0": -math.inf}, {"eps0": math.nan},
    ])
    def test_bad_schedule_rejected(self, kwargs):
        k = profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=1024)
        with pytest.raises(BadParameter, match="eps0"):
            synthesize(k, **kwargs)

    def test_one_extremum_rejected(self):
        k = profile_from_function(lambda t: 1.0 + 0.5 * np.sin(t), n=1024)
        with pytest.raises(HypothesisViolated):
            synthesize(k)

    def test_degenerate_lift_fails_its_round(self, monkeypatch):
        # an iterate whose lift does not resolve fails the round like any
        # other zero-search failure; the next round starts afresh
        k = profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=4096)
        real = solver.error_at_beta
        calls = [0]

        def degenerate_first(k1, m):
            calls[0] += 1
            if calls[0] == 1:
                raise NumericallyDegenerate("lift must be strictly increasing")
            return real(k1, m)

        monkeypatch.setattr(solver, "error_at_beta", degenerate_first)
        assert synthesize(k).diagnostics.rounds == 2

        def degenerate(k1, m):
            raise NumericallyDegenerate("lift must be strictly increasing")

        monkeypatch.setattr(solver, "error_at_beta", degenerate)
        with pytest.raises(SynthesisFailed) as info:
            synthesize(k)
        # eps 0.1, 0.05, ..., 0.00625 fail; 0.003125 lies below 8*pi/4096; the
        # negation of a positive profile has no positive window
        history = info.value.history
        assert [why for _, _, why in history[:-1]] == \
            ["zero search: NumericallyDegenerate: lift must be strictly increasing"] * 5
        assert history[-1][0] == 6 and history[-1][2].endswith("schedule stopped")

    def test_failed_warp_check_fails_its_round(self, monkeypatch):
        # a warp whose mismatch measure reaches eps fails the round with its
        # typed reason, and the next round warps again at eps/2
        k = profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=4096)
        real = curvature._mismatch_measure
        monkeypatch.setattr(curvature, "_mismatch_measure",
                            lambda k, h1, step, eps: eps if eps == 0.1 else real(k, h1, step, eps))
        res = synthesize(k)
        assert (res.diagnostics.rounds, res.eps_used) == (2, 0.05)

        monkeypatch.setattr(curvature, "_mismatch_measure", lambda k, h1, step, eps: eps)
        with pytest.raises(SynthesisFailed) as info:
            synthesize(k)
        history = info.value.history
        assert [(r, e) for r, e, _ in history] == [(r + 1, 0.1 / 2 ** r) for r in range(6)]
        assert [why for _, _, why in history[:-1]] == \
            [f"warp construction: mismatch measure {e:.3g} is not below eps {e:.3g}"
             for _, e, _ in history[:-1]]
        assert history[-1][2].endswith("schedule stopped")

    def test_step_profile_realized_through_envelope(self):
        # the step's samples, interpolated linearly, are a continuous profile
        k0 = profile_from_step(StepSpec(0.5, 2.0), 4096)
        res = synthesize(k0)
        assert res.curve.closed and is_simple(res.curve)[0]
        self._check_round_trip(k0, res)

    @staticmethod
    def _check_round_trip(k, res):
        ab = find_abab_points(k)
        kappa = curvature_samples(res.curve)
        target = np.asarray(k(res.curve.t[: kappa.size]))
        bad = np.abs(kappa - target) >= 0.05 * (ab.b - ab.a)
        assert float(np.mean(bad)) * TWO_PI < res.eps_used


SMALL_WINDOW = (-0.75, [0.0625, -0.0625, 0.0, -0.0625] + [0.0] * 6)
CERTIFICATE_CASE = (-0.9613271687264575,
                    [0.04715460183288206, -0.016058629312449363, -0.04739056963357602,
                     0.08613005063944362, 0.06862766902158604, -0.028922248937526776,
                     0.00990768227732755, 0.08583842886759113, -0.056688523572198606,
                     0.08182736065324661])
# normalized by a scale factor |c| near 300 when warped onto its step
LARGE_SCALE = (-0.7284428043915223,
               [0.07552470055239735, -0.09553408206415465, 0.0, 0.0, 0.09375] + [0.0] * 5)


def warp_onto_step(k, eps, offset=0.5):
    """k warped onto its step at eps, the breakpoints ``offset`` grid steps off the grid."""
    ab = find_abab_points(k)
    shift = offset * TWO_PI / k.n
    step = StepSpec(ab.a, ab.b, tuple(0.5 * math.pi * q + shift for q in range(4)))
    return compose(k, build_h1(k, ab, step, eps))


@settings(max_examples=10, deadline=None)
@given(c0=st.floats(min_value=-2.5, max_value=2.5),
       coefs=st.lists(st.floats(min_value=-0.1, max_value=0.1), min_size=10, max_size=10),
       n=st.sampled_from([2048, 4096, 8192]))
# a polished root whose residual the curve's scale factor (12.4) lifted past the bound
@example(c0=-0.7284428043915223,
         coefs=[0.07552470055239735, -0.09553408206415465, 0.0, 0.0, -0.0625] + [0.0] * 5,
         n=4096)
# the normalized error evaluation turned a grid step by more than half a turn
@example(*LARGE_SCALE, 4096)
# a small own window: round 1 realizes it (with grid-aligned step breakpoints
# only the flipped pass did)
@example(*SMALL_WINDOW, 4096)
# the sampled error route did not wind on this profile's round-2 certificate
# square; see test_error_is_continuous_at_certificate_scale
@example(*CERTIFICATE_CASE, 4096)
def test_synthesis_realizes_random_admissible_profiles(c0, coefs, n):
    """c0 + cos 2t plus a trig polynomial of degree <= 5 on n samples, end to end."""
    k = trig_profile(c0, coefs, n)
    try:
        find_abab_points(k)
    except (HypothesisViolated, NoPositiveWindow):
        assume(False)
    res = synthesize(k)
    assert error_vector(res.curve).magnitude < 1e-9 * TWO_PI
    assert is_simple(res.curve)[0]
    TestSynthesize._check_round_trip(k, res)
    assert osserman_check(res.curve).vertex_count >= 4


@pytest.mark.parametrize("case", [SMALL_WINDOW, CERTIFICATE_CASE])
def test_own_window_realized_without_flip(case):
    res = synthesize(trig_profile(*case))
    assert not res.sign_flipped
    assert res.diagnostics.rounds == 1


@pytest.mark.parametrize("e", [-6, -4, -3, -2])
def test_small_magnitudes_realized_in_round_one(e):
    t = TWO_PI * np.arange(4096) / 4096
    k = CurvatureProfile(10.0 ** e * (1.5 + np.cos(2 * t) + 0.1 * np.sin(3 * t)))
    res = synthesize(k)
    assert res.diagnostics.rounds == 1
    assert error_vector(res.curve).magnitude < 1e-9 * TWO_PI
    assert is_simple(res.curve)[0]
    TestSynthesize._check_round_trip(k, res)


def test_sweep_closes_in_round_one():
    # 160 seeded trig profiles, 60 of them with c0 in [-1.05, -0.5] where
    # the own window is small, and the three pinned ones: nearly all close
    # in round 1, and each curve has as many vertices as k has extrema
    rng = np.random.default_rng(12345)
    cases = [(rng.uniform(-2.5, 2.5) if i < 100 else rng.uniform(-1.05, -0.5),
              rng.uniform(-0.1, 0.1, size=10)) for i in range(160)]
    cases += [SMALL_WINDOW, CERTIFICATE_CASE, LARGE_SCALE]
    first_round = 0
    for c0, coefs in cases:
        k = trig_profile(c0, coefs)
        res = synthesize(k)
        first_round += res.diagnostics.rounds == 1
        assert osserman_check(res.curve).vertex_count == len(plateau_extrema(k.samples))
    assert first_round >= 155
@pytest.mark.parametrize("case, eps", [(LARGE_SCALE, 0.025), (LARGE_SCALE, 0.00625),
                                       (LARGE_SCALE, 0.0015625), (SMALL_WINDOW, 0.05),
                                       (CERTIFICATE_CASE, 0.05)],
                         ids=["0.025", "0.00625", "0.0015625", "small-window-0.05",
                              "certificate-case-0.05"])
def test_polished_root_closes_the_scaled_curve(case, eps):
    # synthesize returns the curve scaled by c and checks no closure of its
    # own: the re-evaluation at the root must give |E| < RESIDUAL_TOL and
    # |E|*|c| < 2*pi*RESIDUAL_TOL.  With |c| near 300 (LARGE_SCALE) a residual
    # |E| < RESIDUAL_TOL is not enough, so the polish must go on until the
    # scaled bound holds
    k1 = warp_onto_step(trig_profile(*case), eps)
    err, _, sc, _, _ = error_at_beta(k1, find_zero_beta(k1))
    assert abs(sc.c) > 100.0 or case is not LARGE_SCALE
    assert err.magnitude < solver.RESIDUAL_TOL
    assert err.magnitude * abs(sc.c) < TWO_PI * solver.RESIDUAL_TOL


def test_schedule_stops_at_four_sample_measure(monkeypatch):
    # one mismatched sample at each of the four step jumps measures 8*pi/n,
    # so no round with eps <= 8*pi/n is tried: with every round failing at
    # simplicity, each pass stops after eps 0.00625 (8*pi/4096 ~ 0.00614)
    k = trig_profile(*LARGE_SCALE)
    tried = []
    real = solver.build_h1

    def spy(k, abab, step, eps):
        tried.append(eps)
        return real(k, abab, step, eps)

    monkeypatch.setattr(solver, "build_h1", spy)
    monkeypatch.setattr(solver, "is_simple", lambda curve: (False, (0, 1)))
    with pytest.raises(SynthesisFailed) as info:
        synthesize(k)
    schedule = [0.1 * 0.5 ** j for j in range(5)]
    assert tried == schedule + schedule  # the own pass, then the flipped one
    assert min(tried) > 8.0 * math.pi / k.n
    stops = [r for r, _, why in info.value.history if why.endswith("schedule stopped")]
    assert stops == [6, 12]


@pytest.mark.parametrize("eps", [0.1, 0.05])
@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["on-grid", "half-step"])
def test_error_is_continuous_at_certificate_scale(eps, offset):
    # the certificate's Lipschitz bound and the dense winding oracle both
    # take E as continuous in beta at the scale of the certified ball: the
    # same winding on every square around the root, and small phase steps
    # between close neighbours; for step breakpoints on the grid and half a
    # grid step off it (as synthesize places them)
    k1 = warp_onto_step(trig_profile(*CERTIFICATE_CASE), eps, offset)

    def err(b):
        return error_at_beta(k1, b)[0].e

    root = find_zero_beta(k1).beta
    winds = {dense_square_winding(err, root, half)
             for half in (1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6)}
    assert winds == {-1}
    loop = np.array([err(root + 1e-4 * cmath.exp(2j * math.pi * j / 32)) for j in range(32)])
    assert np.max(np.abs(np.angle(np.roll(loop, -1) / loop))) < 0.5


def test_large_grid_synthesis_in_bounded_memory():
    # n = 2^18 at eps0 = 2e-4 under a 512 MiB address-space cap: the warp's
    # measure check is exact and O(n), so the run peaks near 115 MiB
    limit = 512 << 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    script = ("import numpy as np, fourvertex as fv\n"
              "k = fv.profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=1 << 18)\n"
              "res = fv.synthesize(k, eps0=2e-4)\n"
              "print(res.diagnostics.rounds, res.curve.closed)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


def test_one_integration_per_evaluation(monkeypatch):
    # each error evaluation integrates its curve once; the certificate and
    # the returned curve read those records, so a round adds only the
    # repeated evaluation at the root
    calls = [0]
    real = integrator._arcs

    def counted(kappa, ds):
        calls[0] += 1
        return real(kappa, ds)

    monkeypatch.setattr(integrator, "_arcs", counted)
    monkeypatch.setattr(solver, "_arcs", counted, raising=False)
    diag = synthesize(profile_from_function(lambda t: 1.5 + np.cos(2 * t))).diagnostics
    assert diag.rounds == 1
    assert calls[0] == diag.error_evaluations + 1


def test_one_tangent_pass_per_evaluation(monkeypatch):
    # the polish reads J at each iterate that takes a Newton step, not at its
    # damped trial points, and the certificate reads it at the root, which
    # takes none: at most one forward-mode pass per evaluation in every round
    calls = [0]
    real = solver._tangent_pass

    def counted(k, beta, ev):
        calls[0] += 1
        return real(k, beta, ev)

    monkeypatch.setattr(solver, "_tangent_pass", counted)
    for k in (profile_from_function(lambda t: 1.5 + np.cos(2 * t)), trig_profile(*LARGE_SCALE)):
        calls[0] = 0
        diag = synthesize(k).diagnostics
        assert 0 < calls[0] <= diag.error_evaluations


def test_synthesis_unchanged_under_optimized_python():
    # python -O strips asserts; the certificate reads the evaluation that the
    # polish returns with its root, so no assert holds that contract and the
    # diagnostics are the same
    script = ("import numpy as np, fourvertex as fv\n"
              "k = fv.profile_from_function(lambda t: 1.5 + np.cos(2 * t))\n"
              "print(__debug__)\n"
              "print(repr(fv.synthesize(k).diagnostics))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).resolve().parents[1]),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    diag = synthesize(profile_from_function(lambda t: 1.5 + np.cos(2 * t))).diagnostics
    assert proc.stdout.splitlines() == ["False", repr(diag)]


def test_estimated_curvature_tracks_profile_away_from_slivers():
    k = profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=4096)
    res = synthesize(k)
    kappa = curvature_samples(res.curve)
    target = np.asarray(k(res.curve.t[: kappa.size]))
    off = np.abs(kappa - target) > 1e-3
    # only the transition slivers miss the tight tolerance
    assert float(np.mean(off)) * TWO_PI < res.eps_used


def test_error_magnitude_shrinks_with_eps():
    # the unclosed error at the disk center tracks the warp accuracy
    k = profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=4096)
    ab = find_abab_points(k)
    step = StepSpec(ab.a, ab.b)
    mags = []
    for eps in (0.1, 0.05, 0.025):
        k1 = compose(k, build_h1(k, ab, step, eps))
        mags.append(error_at_beta(k1, 0.0)[0].magnitude)
    for m0, m1 in zip(mags, mags[1:]):
        assert m1 <= 1.1 * m0


class TestCompassDemo:
    def test_eight_panels(self):
        panels = compass_demo(0.5, 2.0, 0.2, 8)
        assert len(panels) == 8
        assert all(not curve.closed for _, curve, _ in panels)
        assert abs(winding_number([e.e for _, _, e in panels])) == 1

    def test_small_radius_near_closure(self):
        panels = compass_demo(0.5, 2.0, 1e-4, 8)
        assert max(e.magnitude for _, _, e in panels) < 1e-3

    def test_dense_loop_passes_density_contract(self):
        panels = compass_demo(0.5, 2.0, 0.2, 256)
        assert abs(winding_number([e.e for _, _, e in panels])) == 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            compass_demo(2.0, 0.5, 0.2, 8)
        with pytest.raises(ValueError):
            compass_demo(0.5, 2.0, 1.5, 8)
