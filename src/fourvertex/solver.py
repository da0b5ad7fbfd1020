"""Degree-based zero finding over the Möbius disk and curve synthesis.

The endpoint error of a normalized curvature profile, precomposed with the
disk of special Möbius maps, winds once around the origin along small
parameter circles, so it vanishes somewhere inside.  Each evaluation
integrates the profile on its own grid, with arc-length steps given by the
inverse map's boundary lift, so the error is smooth in the parameter.  The
zero search polishes from the disk center by a damped Newton iteration and
proves a zero next to the polished root by a Newton-Kantorovich test.  Both
read the exact Jacobian from one forward-mode pass over an evaluation; the
test adds closed-form bounds on its variation and on the rounding, and
requires h = b K eta <= 1/2.  Each evaluation integrates its curve once,
and the Newton step, the test and the synthesis read that curve.  A search
takes 1 + (Newton steps) + (damped trial points) error evaluations; the
synthesis evaluates once more at the accepted root and returns that curve.
A root that the test does not certify fails the synthesis round, which
retries with a finer warp.  The synthesis pipeline warps an admissible
profile onto a two-value step function, closes the curve by that root, and
tags each sample with the original parameter the warp sends it to; a
profile that its own window does not realize gets the mirror image of the
curve of -k, whose curvature is k at the same parameter.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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
    normalize_total,  # bench/tracing.WRAPPED looks it up here
    normalizing_scale,
    profile_from_step,
)
from .integrator import (
    STRAIGHT_KAPPA,
    ErrorVector,
    Integration,
    PlanarCurve,
    TooFewSamples,
    _integrate,
    curvature_samples,
    integrate_curve,
    is_simple,
    scale_curve,
    winding_number,
)
from .moebius import MoebiusParameter, NumericallyDegenerate, _beta_value, _circle, moebius_lift

RESIDUAL_TOL = 1e-9
CERTIFICATE_RADIUS = 1e-4  # the ball around a polished root on which its certificate bounds J
ROUNDOFF = 2.0 ** -53      # unit roundoff of float64
POLISH_MAX_ITER = 80     # Newton steps before the polish stops
ROOT_RADIUS = 0.2        # an accepted root lies inside this disk


class BadParameter(ValueError):
    """A synthesis schedule parameter is out of range."""


class NoWindingAtRadius(RuntimeError):
    """The polished root lies outside the search radius, or no zero near it is certified."""


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
    rounds: int
    error_evaluations: int
    certificate_h: float     # h of the root's RootCertificate, 0 when no zero search ran
    certified_radius: float  # a zero lies this close to beta_star, 0 when no zero search ran


@dataclass(frozen=True)
class SynthesisResult:
    """Closed simple curve realizing a preassigned curvature function.

    ``curve.t`` tags sample j with the original parameter mod_two_pi(h1(u_j));
    the input profile there matches the curve's curvature away from the
    sliver arcs.  With ``sign_flipped`` the curve mirrors the one built for
    -k, with that curve's h1, scale, arc lengths and tags.
    """

    curve: PlanarCurve
    beta_star: MoebiusParameter
    h1: CircleDiffeo
    scale: ScaleFactor
    eps_used: float
    sign_flipped: bool
    diagnostics: SynthesisDiagnostics


def error_at_beta(k1: CurvatureProfile, m) -> Integration:
    """Endpoint error of k1 precomposed with the Möbius map, normalized, with its curve.

    Substituting u = g_beta(s), the curve's curvature is c * k1(u) on k1's
    own grid u_j: sample j holds over the arc-length step
    ds_j = L(u_{j+1}) - L(u_j), where L is the boundary lift of the inverse
    map g_{-beta}, and c = 2*pi / sum_j k1_j ds_j normalizes the total
    curvature.  The steps are smooth in beta, and so is the error; the curve
    starts at u = 0, which only rotates the error of a curve cut at s = 0.
    Returns E, ds and c with the one integration of the curve of c * k1
    over ds, whose last position E is (:class:`Integration`).  Raises
    ZeroTotalCurvature when the weighted total nearly vanishes,
    NumericallyDegenerate when beta lies too near the unit circle for the
    lift to resolve on k1's grid, and TooFewSamples when a step of the
    scaled profile turns by half a turn or more (or c * k1 overflows).
    """
    ds = moebius_lift(-_beta_value(m), n=k1.n)
    sc = normalizing_scale((k1.samples @ ds).item(), k1.samples)
    return _integrate(sc.c * k1.samples, ds, sc)


def _polish(k1: CurvatureProfile, counter: dict) -> tuple[complex, Integration]:
    """Damped Newton iteration from beta = 0 for a zero of the error, with its evaluation.

    Each iterate's Jacobian is exact: one forward-mode pass over its own
    evaluation (:func:`_tangent_pass`), taken only at an iterate that steps
    on, not at the damped trial points.  A step is halved, at most four
    times, until |E| decreases; the shortest is taken anyway.
    The iteration stops once |E| < RESIDUAL_TOL and
    |E| * |c| < 2*pi*RESIDUAL_TOL, c the iterate's normalizing scale, so
    that the curve synthesize returns, scaled by c, closes too; it returns
    that iterate with its evaluation.  An iterate on or outside the unit
    circle, where no Möbius parameter exists, ends the iteration as a
    divergence without being evaluated.  ``counter["evaluations"]`` counts
    the evaluations.
    """
    best_x, best_r = 0j, math.inf

    def evaluate(b: complex) -> Integration:
        if abs(b) >= 1.0:
            raise PolishDiverged(best_x, best_r, "left the unit disk")
        counter["evaluations"] += 1
        return error_at_beta(k1, b)

    x, ev = 0j, evaluate(0j)
    for steps in itertools.count():
        r = ev.e.magnitude
        if r < best_r:
            best_x, best_r = x, r
        if r < RESIDUAL_TOL and r * abs(ev.scale.c) < RESIDUAL_TOL * TWO_PI:
            return x, ev
        if steps == POLISH_MAX_ITER:
            break
        e = ev.e.e
        try:
            dx = np.linalg.solve(_tangent_pass(k1.samples, x, ev).jac, [-e.real, -e.imag])
        except np.linalg.LinAlgError:
            break
        step = 1.0
        for _ in range(6):
            xn = x + complex(dx[0], dx[1]) * step
            evn = evaluate(xn)
            if evn.e.magnitude < r or step < 0.1:
                break
            step *= 0.5
        x, ev = xn, evn
    raise PolishDiverged(best_x, best_r)


class RootCertificate(NamedTuple):
    """Newton-Kantorovich data that prove a zero of the error near a polished root.

    ``b`` bounds ||J(beta*)^-1||, ``eta`` bounds ||J(beta*)^-1 E(beta*)||
    and ``k`` the Lipschitz constant of J on the ball of radius
    CERTIFICATE_RADIUS around beta*; h = b k eta is at most 1/2.  By
    Kantorovich's theorem (Ortega and Rheinboldt, Iterative Solution of
    Nonlinear Equations, 1970, 12.6.2) a zero lies within ``radius``
    = 2 eta / (1 + sqrt(1 - 2h)) of beta*, and it is the only one closer
    than min(CERTIFICATE_RADIUS, (1 + sqrt(1 - 2h)) / (b k)).
    """

    b: float
    eta: float
    k: float
    h: float
    radius: float


class _TangentPass(NamedTuple):
    e: complex          # the error: the last position of the evaluation's curve
    jac: np.ndarray     # real 2x2 Jacobian of (Re E, Im E) in (Re beta, Im beta)
    kappa: np.ndarray   # c * k
    dcc: np.ndarray     # (2,): dc / c along Re beta and Im beta


def _tangent_pass(k: np.ndarray, beta: complex, ev: Integration) -> _TangentPass:
    """E and its exact Jacobian at beta, in one forward-mode pass over the evaluation.

    ``ev`` is the evaluation at beta; E is its curve's last position.  Along
    a direction v the lift t + 2 arg(1 + beta e^{-it}) moves by
    2 Im(v e^{-it} / (1 + beta e^{-it})), which gives each
    step's derivative dds_j; then dc / c = -c sum_j k_j dds_j / (2 pi) and
    the turns' derivatives dturn_j = kappa_j ((dc / c) ds_j + dds_j).  A
    chord (rot_{j+1} - rot_j) / (i kappa_j), rot_j = e^{i theta_j}, moves by
    i dtheta_j chord_j + rot_{j+1} dds_j + (dc / c) (rot_{j+1} ds_j - chord_j);
    summed, with dtheta_j the sum of the earlier dturn (Abel summation),

        dE = i sum_j dturn_j (E - P_{j+1}) + sum_j rot_{j+1} dds_j
             + (dc / c) (sum_j rot_{j+1} ds_j - E),

    P_{j+1} the sum of the first j + 1 chords: a turn at step j rotates the
    rest of the curve about its point j + 1.  A straight step, ds_j rot_j,
    is the limit of its arc, and the formula holds for it to within
    ds_j^2 STRAIGHT_KAPPA.
    """
    n, ds, c, rot = k.size, ev.ds, ev.scale.c, ev.rot
    _, conj_circle = _circle(n)
    q = beta * conj_circle
    q += 1.0
    np.divide(conj_circle, q, out=q)
    dlift = np.empty((2, n + 1))
    np.multiply(q.imag, 2.0, out=dlift[0])
    np.multiply(q.real, 2.0, out=dlift[1])
    dlift[:, -1] = dlift[:, 0]  # the last knot is the first one a period later
    dds = np.subtract(dlift[:, 1:], dlift[:, :-1])
    kappa = c * k
    pos = ev.curve.pos
    e = pos.item(-1)
    tail = np.subtract(e, pos[1:])  # E - P_{j+1}
    dcc = (-c / TWO_PI) * (dds @ k)
    dturn = np.multiply.outer(dcc, ds)
    dturn += dds
    dturn *= kappa
    de = 1j * (dturn @ tail) + dds @ rot[1:] + dcc * (rot[1:] @ ds - e)
    jac = np.array([[de[0].real, de[1].real], [de[0].imag, de[1].imag]])
    return _TangentPass(e, jac, kappa, dcc)


def _roundoff(beta: complex, ds: np.ndarray, c: float, s_k: float, a_k: float,
              tp: _TangentPass) -> tuple[float, float, float]:
    """Rounding bounds of the pass: on E, on J in the spectral norm, and on T = 2 pi / c, relative.

    First-order model (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3 and 4): each operation rounds by at most u = 2^-53
    relative, and a sum of n terms errs by at most 1.01 n u times the sum
    of their moduli.  A lift value, below 4 pi + 1, carries at most 32 u
    and its derivative, below 2 / (1 - |beta|), at most 32 u / (1 - |beta|),
    so a step ds_j errs by 64 u and its derivative dds_j, at most
    h1 = (2 pi / n) 2 / (1 - |beta|)^2 in modulus, by 64 u / (1 - |beta|).
    This propagates through T, c, the turns and the tangent angles; a
    chord (rot_{j+1} - rot_j) / (i kappa_j) loses a further
    (|theta| + 4) u / |kappa_j| to cancellation, and a straight step is off
    its arc by ds_j^2 STRAIGHT_KAPPA.  The chords' moduli and the steps sum
    to at most ``span`` = 2 pi + n 64 u; the sums over |dds_j| and
    |dturn_j| are bounded through h1.  ``s_k`` = sum_j |k_j| and
    ``a_k`` = sum_j |k_j| ds_j.
    """
    n, u = ds.size, ROUNDOFF
    g = 1.01 * n * u
    m0 = 1.0 - abs(beta)
    e_ds, e_dds, h1 = 64.0 * u, 64.0 * u / m0, 2.0 * TWO_PI / n / m0 ** 2
    span = TWO_PI + n * e_ds
    rel_t = (s_k * e_ds + g * a_k) * abs(c) / TWO_PI + 2.0 * u
    e_turn = abs(c) * (a_k * (rel_t + 2.0 * u) + s_k * e_ds)  # over all the turns
    e_theta = e_turn + g * abs(c) * a_k                        # any tangent angle
    straight = np.abs(tp.kappa) < STRAIGHT_KAPPA
    inv_kappa = np.divide(1.0, np.abs(tp.kappa), out=np.zeros(n), where=~straight)
    e_arcs = (n * e_ds + span * (e_theta + e_turn + 4.0 * u)
              + (abs(c) * a_k + 4.0) * u * float(np.sum(inv_kappa))
              + STRAIGHT_KAPPA * float(np.sum(ds[straight] ** 2)))
    e_e = e_arcs + g * span

    def column(adcc: float) -> float:  # the bound on one column of J
        sum_dds = n * h1
        sum_dturn = abs(c) * (a_k * adcc + s_k * h1)
        e_dcc = (s_k * e_dds + g * s_k * h1) * abs(c) / TWO_PI + adcc * (rel_t + 3.0 * u)
        e_dturn = (abs(c) * (a_k * e_dcc + s_k * (adcc * e_ds + e_dds))
                   + (rel_t + 4.0 * u) * sum_dturn)
        return (span * e_dturn + sum_dturn * (e_arcs + 2.0 * g * span) + n * e_dds
                + 2.0 * span * e_dcc + adcc * (e_e + n * e_ds)
                + (e_theta + 2.0 * u) * (sum_dds + span * adcc) + g * (sum_dds + 2.0 * span * adcc))

    return e_e, float(np.hypot(*map(column, np.abs(tp.dcc).tolist()))), rel_t


def _lipschitz_bound(beta: complex, n: int, c: float, s_k: float, a_k: float,
                     rel_t: float) -> float:
    """Bound on the Lipschitz constant of J over the ball |beta' - beta| <= CERTIFICATE_RADIUS.

    With rho = CERTIFICATE_RADIUS, m = 1 - |beta| - rho > 0 and h = 2 pi / n,
    for unit directions and every beta' in the ball:

    - the lift L(t) = t + 2 arg(1 + beta' e^{-it}) has t- and
      beta-derivatives |d_t d L| <= 2 / m^2 and |d_t d^2 L| <= 4 / m^3, so
      a step ds_j = L(t_{j+1}) - L(t_j) moves by |d ds_j| <= 2h / m^2 and
      |d^2 ds_j| <= 4h / m^3: h times the sup, not twice the sup of L;
    - with S = sum_j |k_j| (``s_k``), every partial sum W of k_j ds_j, T
      among them, has |dW| <= a1 = 2hS / m^2 and |d^2 W| <= a2 = 4hS / m^3,
      and |W| <= A = sum_j |k_j| ds_j (``a_k``) + rho a1, while |T| >= T_min
      = |T(beta)| - rho a1;
    - c = 2 pi / T then has |c| <= c_max = 2 pi / T_min,
      |dc| <= c_max a1 / T_min and |d^2 c| <= c_max (2 a1^2 / T_min^2
      + a2 / T_min), and the tangent angle psi = c W on a step has
      |d psi| <= p1 = |dc| A + c_max a1 and |d^2 psi| <= p2
      = |d^2 c| A + 2 |dc| a1 + c_max a2;
    - E = sum_j ds_j int_0^1 e^{i psi_j(tau)} d tau, and the steps sum to
      2 pi, so ||d^2 E|| <= 2 pi (4 / m^3 + 4 p1 / m^2 + p2 + p1^2).

    The sums at beta are inflated by their relative rounding ``rel_t``.
    Infinite when T may vanish on the ball.
    """
    rho = CERTIFICATE_RADIUS
    m = 1.0 - abs(beta) - rho
    a1 = 2.0 * TWO_PI / n * s_k / m ** 2
    a2 = 2.0 * a1 / m
    big_a = a_k * (1.0 + rel_t) + rho * a1
    t_min = TWO_PI / abs(c) * (1.0 - rel_t) - rho * a1
    if not t_min > 0.0:
        return math.inf
    c_max = TWO_PI / t_min
    dc = c_max * a1 / t_min
    d2c = c_max * (2.0 * a1 ** 2 / t_min ** 2 + a2 / t_min)
    p1 = dc * big_a + c_max * a1
    p2 = d2c * big_a + 2.0 * dc * a1 + c_max * a2
    return TWO_PI * (4.0 / m ** 3 + 4.0 * p1 / m ** 2 + p2 + p1 ** 2)


def _certify(k: np.ndarray, beta: complex, ev: Integration) -> RootCertificate | None:
    """Newton-Kantorovich certificate of a zero of the error near beta, or None.

    ``ev`` is the evaluation at beta.  One forward-mode pass over it gives
    E(beta) and J = E'(beta) (:func:`_tangent_pass`) with their rounding
    bounds eps_E and eps_J (:func:`_roundoff`).  Then
    ||J_exact^-1|| <= b = ||J^-1|| / (1 - ||J^-1|| eps_J) (Banach's lemma),
    eta = b (|E| + eps_E), and with K from :func:`_lipschitz_bound` the
    test is h = b K eta <= 1/2, and the zero's ball must lie inside the
    ball where K holds.  Both bounds read sum_j |k_j| and sum_j |k_j| ds_j,
    taken once here.  No further evaluation of the error is made.
    """
    tp = _tangent_pass(k, beta, ev)
    ak = np.abs(k)
    s_k, a_k = float(np.sum(ak)), float(ak @ ev.ds)
    eps_e, eps_j, rel_t = _roundoff(beta, ev.ds, ev.scale.c, s_k, a_k, tp)
    jac = tp.jac
    det = abs(float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]))
    frob = float(np.sum(jac * jac))  # sigma_max^2 + sigma_min^2; det = their product
    sigma_max = 0.5 * (math.sqrt(frob + 2.0 * det) + math.sqrt(max(frob - 2.0 * det, 0.0)))
    inv = sigma_max / det if det > 0.0 else math.inf  # ||J^-1|| = 1 / sigma_min
    if not inv * eps_j < 1.0:
        return None
    b = inv / (1.0 - inv * eps_j)
    eta = b * (abs(tp.e) + eps_e)
    bound = _lipschitz_bound(beta, k.size, ev.scale.c, s_k, a_k, rel_t)
    h = b * bound * eta
    if not h <= 0.5:
        return None
    radius = 2.0 * eta / (1.0 + math.sqrt(1.0 - 2.0 * h))
    if radius > CERTIFICATE_RADIUS:
        return None
    return RootCertificate(b, eta, bound, h, radius)


def find_zero_beta(k1: CurvatureProfile, stats: dict | None = None) -> MoebiusParameter:
    """Parameter inside the disk of radius ROOT_RADIUS at which the error vanishes.

    The root is polished from beta = 0 by Newton's method on the exact
    Jacobian (:func:`_polish`) until |E| < RESIDUAL_TOL and the curve
    scaled by the normalizing factor c closes too,
    |E| * |c| < 2*pi*RESIDUAL_TOL; a re-evaluation at the returned root
    reproduces these products bit for bit, so the curve needs no further
    closure check.  It is accepted when the ball of radius
    CERTIFICATE_RADIUS around it lies inside the disk and the
    Newton-Kantorovich test proves a zero of the error within that ball
    (:func:`_certify`), read from the evaluation at the root that the
    polish returns.  A search thus takes 1 + (Newton steps) + (damped trial
    points) evaluations.  A root outside the disk, or one that the test does
    not certify, raises NoWindingAtRadius; a polish that stalls or leaves
    the unit disk raises PolishDiverged.  ``stats["evaluations"]`` counts
    the error evaluations and ``stats["certificate"]`` holds the latest
    :class:`RootCertificate`.  The search is deterministic.
    """
    counter = stats if stats is not None else {}
    counter.setdefault("evaluations", 0)
    beta, ev = _polish(k1, counter)
    if abs(beta) + CERTIFICATE_RADIUS >= ROOT_RADIUS:
        raise NoWindingAtRadius(f"polished root {beta:.3g} lies outside radius {ROOT_RADIUS}")
    cert = _certify(k1.samples, beta, ev)
    if cert is None:
        raise NoWindingAtRadius(
            f"the Newton-Kantorovich test does not certify the root {beta:.3g}")
    counter["certificate"] = cert
    return MoebiusParameter(beta)


def synthesize(k: CurvatureProfile, eps0: float = 0.1) -> SynthesisResult:
    """Build a closed simple curve whose curvature at parameter t is k(t).

    A nonzero constant profile returns a circle of the matching radius
    directly.  Otherwise the profile is warped close to a two-value step
    function, the winding argument closes the curve at some Möbius
    parameter, and the curve is scaled and tagged with the original
    parameter.  A round ends at its first failed check (the warp, the zero
    search, simplicity, the curvature mismatch) and logs its reason; the
    schedule then halves eps, the only retry.  When the profile admits no
    positive value window, or every round of its schedule fails, -k runs a
    schedule of its own and its curve is mirrored, which negates both sides
    of every check and keeps the arc lengths and tags; in the first case
    -k's window is the one the search on k returned.  A pass whose window
    crossings are not found logs a failed set-up in place of its rounds.

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
    top, bottom = k.samples.max(), k.samples.min()
    peak, spread = float(max(top, -bottom)), float(top - bottom)
    if spread <= 1e-9 * max(1.0, peak):
        value = float(np.mean(k.samples))
        if abs(value) < 1e-8:
            raise HypothesisViolated("constant zero profile has no realization")
        unit = CurvatureProfile(np.full(k.n, math.copysign(1.0, value)))
        circle = integrate_curve(unit)
        tags = circle.s.copy()
        curve = replace(scale_curve(circle, ScaleFactor(1.0 / abs(value))), t=tags)
        diag = SynthesisDiagnostics(
            final_error=abs(circle.pos[-1] - circle.pos[0]), rounds=0,
            error_evaluations=0, certificate_h=0.0, certified_radius=0.0)
        return SynthesisResult(curve, MoebiusParameter(0.0), CircleDiffeo.identity(),
                               ScaleFactor(1.0 / abs(value)), 0.0, False, diag)

    history: list[tuple[int, float, str]] = []
    stats = {"evaluations": 0}
    negated = None  # -k's window, once the search on k has found it
    for flipped in (False, True):
        # the flipped pass realizes -k; the mirror image of its curve has
        # curvature k at the same parameter
        work = CurvatureProfile(-k.samples) if flipped else k
        try:
            abab = find_abab_points(work) if negated is None else negated
        except ConstructionFailed as ex:
            history.append((len(history) + 1, float(eps0), f"set-up: {type(ex).__name__}: {ex}"))
            continue
        if abab.sign_flipped:  # work admits no positive value window
            negated = abab._replace(sign_flipped=False)
            continue
        # breakpoints half a grid step off the grid keep k1's samples off the
        # sliver midpoints, around which h1 sweeps most of k's domain
        step = StepSpec(abab.a, abab.b,
                        tuple(0.5 * math.pi * q + math.pi / k.n for q in range(4)))
        tol_kappa = 0.05 * (abab.b - abab.a)

        def attempt(eps: float, round_no: int) -> SynthesisResult | str:
            """The round at eps: its verified result, or why it failed."""
            try:
                h1 = build_h1(work, abab, step, eps)
            except ConstructionFailed as ex:
                return f"warp construction: {ex}"
            k1 = compose(work, h1)
            try:
                beta_star = find_zero_beta(k1, stats=stats)
            except (NoWindingAtRadius, PolishDiverged, TooFewSamples,
                    ZeroTotalCurvature, NumericallyDegenerate) as ex:
                # TooFewSamples and ZeroTotalCurvature: the sliver mass left
                # the normalized profile unresolvable on the grid;
                # NumericallyDegenerate: an iterate so near the unit circle
                # that its boundary lift does not resolve
                return f"zero search: {type(ex).__name__}: {ex}"
            err, _, sc, curve, _ = error_at_beta(k1, beta_star)
            simple, witness = is_simple(curve)
            if not simple:
                return f"self-intersection at {witness}"

            # the curve scaled by c; sample j carries k1(u_j) = work(h1(u_j))
            scaled = scale_curve(curve, sc)
            kap_hat = curvature_samples(scaled)  # n values: the curve closes
            np.subtract(kap_hat, k1.samples, out=kap_hat)
            bad = np.abs(kap_hat, out=kap_hat) >= tol_kappa
            bad_measure = np.count_nonzero(bad) / bad.size * TWO_PI
            if bad_measure >= eps:
                return f"curvature mismatch on measure {bad_measure:.3f}"

            pos, theta = scaled.pos, scaled.theta
            if flipped:
                pos, theta = pos.conj(), -theta
            final = PlanarCurve._built(scaled.s, pos, theta, sc.c,
                                       mod_two_pi(h1(_circle(k.n)[0])))

            diag = SynthesisDiagnostics(
                final_error=err.magnitude, rounds=round_no,
                error_evaluations=stats["evaluations"],
                certificate_h=stats["certificate"].h,
                certified_radius=stats["certificate"].radius)
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
        ev = error_at_beta(k0, beta)
        out.append((beta, ev.curve, ev.e))
    w = winding_number([e.e for _, _, e in out])
    if abs(w) != 1:
        raise RuntimeError(f"error loop winding is {w}, expected a single turn")
    return out
