"""Degree-based zero finding over the Möbius disk and curve synthesis.

The endpoint error of a normalized curvature profile, precomposed with the
disk of special Möbius maps, winds once around the origin along small
parameter circles, so it vanishes somewhere inside.  Each evaluation
integrates the profile on its own grid, with arc-length steps given by the
inverse map's boundary lift, so the error is smooth in the parameter.  The
zero search polishes from the disk center with a two-variable secant
iteration, whose Jacobian starts from the closed-form Jacobian of the
two-value step's error there, and certifies the polished root by a
nonzero winding along a small square around it, by Rouché's rule from the
error at the square's four corners and the polish's linear model.  A
search takes 1 + (secant steps) + 4 error evaluations; the synthesis
evaluates once more at the accepted root.  A root that the corners do not
certify fails the synthesis round, which retries with a finer warp.
The synthesis pipeline warps an admissible profile onto a two-value step
function, closes the curve by that root, and tags each sample with the
original parameter the warp sends it to.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .curvature import (
    TWO_PI,
    CircleDiffeo,
    ConstructionFailed,
    CurvatureProfile,
    HypothesisViolated,
    ScaleFactor,
    StepSpec,
    ZeroTotalCurvature,
    build_h1,
    compose,
    find_abab_points,
    mod_two_pi,
    normalize_total,
    normalizing_scale,
    profile_from_step,
    reflect_negate,
)
from .integrator import (
    ErrorVector,
    PlanarCurve,
    TooFewSamples,
    curvature_samples,
    endpoint_error,
    integrate_curve,
    is_simple,
    scale_curve,
    winding_number,
)
from .moebius import MoebiusParameter, NumericallyDegenerate, _beta_value, moebius_lift

RESIDUAL_TOL = 1e-9
CERTIFICATE_HALF = 1e-4  # half-width of the square that certifies a polished root
SQUARE = (-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j)  # corners of the unit square, counterclockwise
POLISH_MAX_ITER = 80     # secant steps before the polish stops
ROOT_RADIUS = 0.2        # an accepted root lies inside this disk
C1_POSITION_TOL = 0.1
C1_ANGLE_TOL = 0.1


class BadParameter(ValueError):
    """A synthesis schedule parameter is out of range."""


class NoWindingAtRadius(RuntimeError):
    """The polished root is not certified by a winding inside the search radius."""


class PolishDiverged(RuntimeError):
    """Root polishing failed; carries the best candidate found."""

    def __init__(self, beta: complex, residual: float, why: str = "stalled"):
        super().__init__(f"polish {why} at residual {residual:.3e}")
        self.beta = beta
        self.residual = residual


class SynthesisFailed(RuntimeError):
    """All rounds of the synthesis schedule failed; carries the round log."""

    def __init__(self, history: list):
        super().__init__("synthesis failed: " + "; ".join(
            f"round {r} (eps={e:.3g}): {why}" for r, e, why in history))
        self.history = history


@dataclass(frozen=True)
class SynthesisDiagnostics:
    final_error: float
    position_distance: float
    angle_distance: float
    rounds: int
    error_evaluations: int


@dataclass(frozen=True)
class SynthesisResult:
    """Closed simple curve realizing a preassigned curvature function.

    ``curve.t`` tags every sample with the original parameter; evaluating
    the input profile there matches the curve's curvature away from the
    sliver arcs.
    """

    curve: PlanarCurve
    beta_star: MoebiusParameter
    h1: CircleDiffeo
    scale: ScaleFactor
    eps_used: float
    sign_flipped: bool
    diagnostics: SynthesisDiagnostics


def error_at_beta(
    k1: CurvatureProfile, m
) -> tuple[ErrorVector, np.ndarray, ScaleFactor]:
    """Endpoint error of k1 precomposed with the Möbius map, normalized.

    Substituting u = g_beta(s), the curve's curvature is c * k1(u) on k1's
    own grid u_j: sample j holds over the arc-length step
    ds_j = L(u_{j+1}) - L(u_j), where L is the boundary lift of the inverse
    map g_{-beta}, and c = 2*pi / sum_j k1_j ds_j normalizes the total
    curvature.  The steps are smooth in beta, and so is the error; the curve
    starts at u = 0, which only rotates the error of a curve cut at s = 0.
    Returns (E, ds, c) without building the curve or a scaled profile;
    ``integrate_curve(CurvatureProfile(c * k1.samples), ds)``
    builds it, and its endpoint error is E bit for bit.  Raises
    ZeroTotalCurvature when the weighted total nearly vanishes,
    NumericallyDegenerate when beta lies too near the unit circle for the
    lift to resolve on k1's grid, and TooFewSamples when a step of the
    scaled profile turns by half a turn or more (or c * k1 overflows).
    """
    ds = moebius_lift(-_beta_value(m), n=k1.n)
    sc = normalizing_scale(float(k1.samples @ ds), k1.samples)
    return endpoint_error(sc.c * k1.samples, ds), ds, sc


def _polish(err, x0: complex, tol, jac0: np.ndarray) -> tuple[complex, complex, np.ndarray]:
    """Two-variable secant iteration with a rank-one update and damping.

    The secant Jacobian starts from ``jac0``, a real 2x2 map of (Re, Im).
    The iteration stops once |err| < ``tol()``, read after the latest
    evaluation, and returns the root, the error there and the Jacobian
    after its last update (``jac0`` when x0 itself meets the tolerance).
    An iterate on or outside the unit circle, where no Möbius parameter
    exists, ends the iteration as a divergence without being evaluated.
    """
    best_x, best_r = x0, math.inf

    def fvec(b):
        if abs(b) >= 1.0:
            raise PolishDiverged(best_x, best_r, "left the unit disk")
        e = err(b)
        return np.array([e.real, e.imag]), abs(e)

    f0, r0 = fvec(x0)
    best_r = r0
    jac = np.array(jac0, dtype=float)
    if r0 < tol():
        return x0, complex(f0[0], f0[1]), jac
    x, f, r = x0, f0, r0
    for _ in range(POLISH_MAX_ITER):
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        xn, fn, rn = x, f, r
        step = 1.0
        for _ in range(6):
            xn = x + complex(dx[0], dx[1]) * step
            fn, rn = fvec(xn)
            if rn < r or step < 0.1:
                break
            step *= 0.5
        dxv = np.array([xn.real - x.real, xn.imag - x.imag])
        denom = float(dxv @ dxv)
        if denom > 0.0:
            jac += np.outer(fn - f - jac @ dxv, dxv) / denom
        x, f, r = xn, fn, rn
        if r < best_r:
            best_x, best_r = x, r
        if r < tol():
            return x, complex(f[0], f[1]), jac
    raise PolishDiverged(best_x, best_r)


def _certify(err, beta: complex, e_star: complex, jac: np.ndarray) -> int:
    """Winding of the error along the square of half-width CERTIFICATE_HALF around beta, or 0.

    The error is evaluated at the four corners.  Where the polish's linear
    model L(z) = E(beta) + J (z - beta) misses it there by less than half
    of sigma_min(J) * CERTIFICATE_HALF, less |E(beta)|, the model's zero
    lies inside the square and |E - L| < |L| along its boundary, as E is
    smooth at the square's scale; by Rouché's rule E then winds as L does,
    sign(det J) times.  Otherwise the corners certify nothing, and the
    result is 0.
    """
    offsets = CERTIFICATE_HALF * np.array(SQUARE)
    vals = [err(beta + d) for d in offsets]
    model = e_star + (jac[0, 0] + 1j * jac[1, 0]) * offsets.real \
        + (jac[0, 1] + 1j * jac[1, 1]) * offsets.imag
    det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    frob = float(np.sum(jac * jac))  # sigma_max^2 + sigma_min^2; |det| = their product
    sigma_max = 0.5 * (math.sqrt(frob + 2.0 * abs(det))
                       + math.sqrt(max(frob - 2.0 * abs(det), 0.0)))
    if np.max(np.abs(np.array(vals) - model)) + abs(e_star) \
            < 0.5 * abs(det) / sigma_max * CERTIFICATE_HALF:
        return 1 if det > 0.0 else -1
    return 0


def step_jacobian(step: StepSpec, n: int) -> np.ndarray:
    """First-order Jacobian at beta = 0 of ``error_at_beta(profile_from_step(step, n), beta)``.

    Returned as a real 2x2 map of (Re beta, Im beta) to (Re E, Im E).  On
    the grid, sample j holds over cell j, so the arcs a, b, a, b start at
    the grid points p_q = p_0 + q*pi/2, p_0 the first grid point at or past
    the first breakpoint.  The lift of g_{-beta} moves p_q by
    dphi_q = 2 (Im beta cos p_q - Re beta sin p_q) to first order, and the
    error of the normalized step curve cut at p_0 is

        (b - a) [(1 + e^{i alpha}) (dphi_1 - dphi_0) / b
                 + (1 - e^{i alpha}) (dphi_2 - dphi_1) / a]

    with alpha = pi a / (a + b), the turn of an a-arc.  The curve starts
    at u = 0, a b-arc of length p_0 earlier, which rotates the error by
    e^{i sigma b p_0}, sigma = 2 / (a + b).  Exact for quarter-spaced
    breakpoints when 4 divides n; otherwise it is the Jacobian of the
    nearest such step, which still serves as the polish's starting guess.
    """
    a, b = step.a, step.b
    alpha = math.pi * a / (a + b)
    p0 = TWO_PI / n * math.ceil((step.breakpoints[0] - 1e-12) * n / TWO_PI)
    rot = cmath.exp(2j * b * p0 / (a + b))
    w1 = 2.0 * rot * (b - a) * (1.0 + cmath.exp(1j * alpha)) / b
    w2 = 2.0 * rot * (b - a) * (1.0 - cmath.exp(1j * alpha)) / a
    p = p0 + 0.5 * math.pi * np.arange(3)
    sin, cos = np.sin(p), np.cos(p)
    d_re = w1 * (sin[0] - sin[1]) + w2 * (sin[1] - sin[2])
    d_im = w1 * (cos[1] - cos[0]) + w2 * (cos[2] - cos[1])
    return np.array([[d_re.real, d_im.real], [d_re.imag, d_im.imag]])


def find_zero_beta(k1: CurvatureProfile, step: StepSpec,
                   stats: dict | None = None) -> MoebiusParameter:
    """Parameter inside the disk of radius ROOT_RADIUS at which the error vanishes.

    ``step`` is the two-value step that k1 is close to in measure.  The
    root is polished from beta = 0, with the secant Jacobian started at the
    step's exact Jacobian there (:func:`step_jacobian`, no evaluation),
    until |E| < RESIDUAL_TOL and the curve scaled by the normalizing factor
    c closes too, |E| * |c| < 2*pi*RESIDUAL_TOL.  It is accepted when a
    square of half-width CERTIFICATE_HALF around it lies inside the disk
    and the polish's linear model predicts the error at the square's four
    corners closely enough that the error winds along its boundary, which
    certifies a zero there (:func:`_certify`).  A search thus takes
    1 + (polish steps) + 4 evaluations.  A root outside the disk, or one
    whose corners do not certify it, raises NoWindingAtRadius; a polish
    that stalls or leaves the unit disk raises PolishDiverged.
    ``stats["evaluations"]`` counts the error evaluations.  The search is
    deterministic.
    """
    counter = stats if stats is not None else {}
    counter.setdefault("evaluations", 0)

    scale = [1.0]  # |c| of the latest evaluation

    def err(b: complex) -> complex:
        counter["evaluations"] += 1
        e, _, sc = error_at_beta(k1, b)
        scale[0] = abs(sc.c)
        return e.e

    beta, e_star, jac = _polish(err, 0j, lambda: RESIDUAL_TOL * min(1.0, TWO_PI / scale[0]),
                                step_jacobian(step, k1.n))
    if abs(beta) + math.sqrt(2.0) * CERTIFICATE_HALF >= ROOT_RADIUS:
        raise NoWindingAtRadius(f"polished root {beta:.3g} lies outside radius {ROOT_RADIUS}")
    if _certify(err, beta, e_star, jac) == 0:
        raise NoWindingAtRadius(
            f"the corners of the certificate square do not certify the root {beta:.3g}")
    return MoebiusParameter(beta)


def synthesize(k: CurvatureProfile, eps0: float = 0.1) -> SynthesisResult:
    """Build a closed simple curve whose curvature at parameter t is k(t).

    A nonzero constant profile returns a circle of the matching radius
    directly.  Otherwise the profile is warped close to a two-value step
    function, the winding argument closes the curve at some Möbius
    parameter, and the curve is scaled and tagged with the original
    parameter.  A round ends at its first failed check (the warp, the zero
    search, closure, simplicity, the reference distance, the curvature
    mismatch) and logs its reason; the schedule then halves eps, the only
    retry.  When the profile admits no positive value window, or every
    round of its schedule fails, the reflected negation -k(2*pi - t) runs a
    schedule of its own and the finished curve is reversed.  A pass whose
    window crossings are not found, or whose step's total curvature
    overflows, logs a failed set-up in place of its rounds.

    The final check measures the curvature mismatch as 2*pi times the
    share of mismatched curve samples, as ``bench/worker.py`` counts it;
    the samples are uniform in the warp parameter u, not in arc length.
    The mismatch sits at the four step jumps, where k(h1(u)) changes by a
    large step between neighbouring samples; one sample at each already
    has measure 8*pi/n, so a round with eps <= 8*pi/n cannot pass.  The
    schedule stops there, and profiles of at most 8*pi/eps0 samples (251
    at the default eps0) end in SynthesisFailed without a round.  A
    mismatch set has measure at most 2*pi, so eps0 must lie in (0, 2*pi],
    else BadParameter; each schedule then tries at most ceil(log2(n/4))
    rounds.
    """
    if not 0.0 < eps0 <= TWO_PI:
        raise BadParameter(f"eps0 must lie in (0, 2*pi], got {eps0}")
    peak = float(np.max(np.abs(k.samples)))
    spread = float(np.max(k.samples) - np.min(k.samples))
    if spread <= 1e-9 * max(1.0, peak):
        value = float(np.mean(k.samples))
        if abs(value) < 1e-8:
            raise HypothesisViolated("constant zero profile has no realization")
        unit = CurvatureProfile(np.full(k.n, math.copysign(1.0, value)))
        circle = integrate_curve(unit)
        tags = circle.s.copy()
        curve = replace(scale_curve(circle, ScaleFactor(1.0 / abs(value))), t=tags)
        diag = SynthesisDiagnostics(
            final_error=abs(circle.pos[-1] - circle.pos[0]),
            position_distance=0.0, angle_distance=0.0, rounds=0,
            error_evaluations=0)
        return SynthesisResult(curve, MoebiusParameter(0.0), CircleDiffeo.identity(),
                               ScaleFactor(1.0 / abs(value)), 0.0, False, diag)

    history: list[tuple[int, float, str]] = []
    stats = {"evaluations": 0}
    for flipped in (False, True):
        # the flipped pass realizes -k(2*pi - t); reversing the finished curve
        # then yields k(t)
        work = reflect_negate(k) if flipped else k
        try:
            abab = find_abab_points(work)
            if abab.sign_flipped:
                continue  # work admits no positive value window

            # breakpoints half a grid step off the grid keep k1's samples off the
            # sliver midpoints, around which h1 sweeps most of k's domain
            step = StepSpec(abab.a, abab.b,
                            tuple(0.5 * math.pi * q + math.pi / k.n for q in range(4)))
            k0 = profile_from_step(step, n=k.n)
            ref_curve = integrate_curve(normalize_total(k0)[0])
        except (ConstructionFailed, ZeroTotalCurvature) as ex:
            history.append((len(history) + 1, float(eps0), f"set-up: {type(ex).__name__}: {ex}"))
            continue
        tol_kappa = 0.05 * (abab.b - abab.a)

        def attempt(eps: float, round_no: int) -> SynthesisResult | str:
            """The round at eps: its verified result, or why it failed."""
            try:
                h1 = build_h1(work, abab, step, eps)
            except ConstructionFailed as ex:
                return f"warp construction: {ex}"
            k1 = compose(work, h1)
            try:
                beta_star = find_zero_beta(k1, step, stats=stats)
            except (NoWindingAtRadius, PolishDiverged, TooFewSamples,
                    ZeroTotalCurvature, NumericallyDegenerate) as ex:
                # TooFewSamples and ZeroTotalCurvature: the sliver mass left
                # the normalized profile unresolvable on the grid;
                # NumericallyDegenerate: an iterate so near the unit circle
                # that its boundary lift does not resolve
                return f"zero search: {type(ex).__name__}: {ex}"
            err, ds, sc = error_at_beta(k1, beta_star)
            closure = err.magnitude * abs(sc.c)  # the curve is returned scaled by sc
            if closure >= RESIDUAL_TOL * TWO_PI:
                return f"closure residual {closure:.2e}"
            curve = integrate_curve(CurvatureProfile(sc.c * k1.samples), ds)
            simple, witness = is_simple(curve)
            if not simple:
                return f"self-intersection at {witness}"
            c0_dist = float(np.max(np.abs(curve.pos - ref_curve.pos)))
            c1_dist = float(np.max(np.abs(curve.theta - ref_curve.theta)))
            if c0_dist >= C1_POSITION_TOL or c1_dist >= C1_ANGLE_TOL:
                return f"reference distance {c0_dist:.3f}/{c1_dist:.3f}"

            # the curve scaled by c; sample j carries k1(u_j) = k(h1(u_j))
            s, pos = curve.s * abs(sc.c), curve.pos * sc.c
            theta = curve.theta + (math.pi if sc.c < 0 else 0.0)
            tags = mod_two_pi(h1(TWO_PI * np.arange(k.n + 1) / k.n))
            if flipped:  # traversed backwards, so it carries k at 2*pi - t
                s, pos, theta = s[-1] - s[::-1], pos[::-1], theta[::-1] + math.pi
                tags = mod_two_pi(TWO_PI - tags[::-1])
            final = PlanarCurve(s, pos, theta, sc.c, tags)
            kap_hat = curvature_samples(final)
            target = np.asarray(k(final.t[: kap_hat.size]))
            bad = np.abs(kap_hat - target) >= tol_kappa
            bad_measure = float(np.mean(bad)) * TWO_PI
            if bad_measure >= eps:
                return f"curvature mismatch on measure {bad_measure:.3f}"

            diag = SynthesisDiagnostics(
                final_error=err.magnitude, position_distance=c0_dist,
                angle_distance=c1_dist, rounds=round_no,
                error_evaluations=stats["evaluations"])
            return SynthesisResult(final, beta_star, h1, sc, eps, flipped, diag)

        eps = float(eps0)
        for round_no in itertools.count(len(history) + 1):
            if eps <= 4.0 * TWO_PI / k.n:
                history.append((round_no, eps,
                                f"eps at most 8*pi/{k.n}, the measure of four samples; "
                                "schedule stopped"))
                break
            outcome = attempt(eps, round_no)
            if isinstance(outcome, SynthesisResult):
                return outcome
            history.append((round_no, eps, outcome))  # a finer warp may close
            eps *= 0.5

    raise SynthesisFailed(history)


def compass_demo(
    a: float, b: float, r: float, n_samples: int, n_grid: int = 2048
) -> list[tuple[MoebiusParameter, PlanarCurve, ErrorVector]]:
    """Error vectors of the step curve precomposed around a parameter circle.

    Returns one (parameter, open curve, error) triple per sample and checks
    that the error loop winds exactly once around the origin.
    """
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    if not (0.0 < r < 1.0):
        raise ValueError("radius must lie in (0, 1)")
    k0 = profile_from_step(StepSpec(a, b), n=n_grid)
    out = []
    for j in range(n_samples):
        beta = MoebiusParameter(r * cmath.exp(2j * math.pi * j / n_samples))
        err, ds, sc = error_at_beta(k0, beta)
        curve = integrate_curve(CurvatureProfile(sc.c * k0.samples), ds)
        out.append((beta, curve, err))
    w = winding_number([e.e for _, _, e in out])
    if abs(w) != 1:
        raise RuntimeError(f"error loop winding is {w}, expected a single turn")
    return out
