"""Vertex and circumscribed-circle analysis of closed plane curves.

A vertex is a strict local extremum (plateau) of the discrete curvature.
The smallest enclosing circle of the curve's samples is computed by a
farthest-point support iteration; the contact set between curve and
circle, split into point and arc components, drives the vertex-count
bounds: with n contact components the curve carries at least 2n vertices,
plus two extra for every component that is a full arc.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .curvature import TWO_PI, plateau_extrema
from .integrator import NotClosed, PlanarCurve, _ring, curvature_samples, is_simple


class NotSimple(ValueError):
    """The curve has a self-intersection."""


class ConstantCurvature(ValueError):
    """Curvature has no extrema; the curve is a circle."""


class NoContact(RuntimeError):
    """No sample lies within the contact band of the enclosing circle."""


class EnclosingCircleFailed(RuntimeError):
    """The support iteration hit its cap without enclosing every point."""


@dataclass(frozen=True)
class EnclosingCircle:
    """Smallest circle containing a point set."""

    center: complex
    radius: float

    @property
    def curvature(self) -> float:
        return 1.0 / self.radius


@dataclass(frozen=True)
class VertexReport:
    """Curvature extrema of a closed curve, in cyclic order."""

    vertices: list  # ((t_start, t_end), kind, value)
    count: int


@dataclass(frozen=True)
class ContactComponent:
    interval: tuple[float, float]
    kind: str  # "point" or "arc"
    index_start: int
    index_count: int


@dataclass(frozen=True)
class OssermanReport:
    circle: EnclosingCircle
    components: list
    n: int
    vertices: list                    # as VertexReport.vertices
    vertex_count: int
    bound_2n_satisfied: bool
    per_gap_low_points: list          # (parameter, curvature) with curvature < K
    per_component_high_points: list   # (parameter, curvature) near or above K
    bonus_vertices: int
    bonus_bound_satisfied: bool | None  # None unless every component is an arc
    contact_gap: float                  # largest angular gap of the contact set


_IN_CIRCLE_EPS = 1.0 + 1e-14
# A sample touches the enclosing circle when its distance to the circle is
# below CONTACT_BAND * R.  Samples of circles built by integrate_curve or
# synthesize lie within 1.7e-14 * R of their circle at every n <= 2**18; the
# 2:1 ellipse, the (0.5, 2) bicircle and 1.5 + cos 2t + 0.1 sin 3t at 2**18
# samples still show point contacts at 1e-10 * R, but 5-sample arcs at 1e-9.
CONTACT_BAND = 1e-11
_MEC_MAX_ITER = 256
# random test curves: trigonometric terms and the scale of their coefficients
CONVEX_HARMONICS, CONVEX_AMPLITUDE = 5, 0.08
STAR_HARMONICS, STAR_AMPLITUDE = 4, 0.15
# Fewest samples of a random test curve.  The damping keeps a convex curve's
# radius rho in [0.5, 1.5] and |rho''| <= 17.1, so its trapezoid arc steps stay
# within the 5% of a chord that PlanarCurve allows once the knot spacing is
# below 0.13, that is from 48 samples on (at 22 samples one convex curve in
# 10^4 fails).  At 48, 5 * 10^4 seeds of each kind keep every chord within
# 1.2% of its arc step and every tangent step below 0.48.
MIN_SAMPLES = 48


def _circumcenter(a: complex, b: complex, c: complex) -> complex | None:
    ar, ai, br, bi, cr, ci = a.real, a.imag, b.real, b.imag, c.real, c.imag
    # shift toward the bounding-box center for conditioning; the running
    # minimum and maximum are those of min() and max() on the three values
    lo = br if br < ar else ar
    lo = cr if cr < lo else lo
    hi = br if br > ar else ar
    hi = cr if cr > hi else hi
    ox = 0.5 * (lo + hi)
    lo = bi if bi < ai else ai
    lo = ci if ci < lo else lo
    hi = bi if bi > ai else ai
    hi = ci if ci > hi else hi
    oy = 0.5 * (lo + hi)
    ax, ay = ar - ox, ai - oy
    bx, by = br - ox, bi - oy
    cx, cy = cr - ox, ci - oy
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    x = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
         + (cx * cx + cy * cy) * (ay - by)) / d
    y = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
         + (cx * cx + cy * cy) * (bx - ax)) / d
    return complex(ox + x, oy + y)


def _support_circle(points: list[complex]) -> tuple[list[complex], complex, float]:
    """Smallest circle of two to four points whose last point lies outside
    the smallest circle of the others.

    By Welzl's lemma (1991) the smallest circle of the whole set then passes
    through the last point, so the candidates are the pairs and triples that
    end in it: a pair's midpoint or a triple's circumcenter, each given the
    radius reaching its farthest point.  They are tried in the order of
    ``itertools.combinations``; a candidate is dropped at its first point at
    least as far as the best radius so far, so the first candidate of
    strictly smallest radius wins.  Returns the points that define it, its
    center and radius.
    """
    *rest, new = points
    subs = [([p, new], 0.5 * (p + new)) for p in rest]
    subs += [([p, q, new], _circumcenter(p, q, new)) for p, q in combinations(rest, 2)]
    best, bound = None, math.inf
    for sub, center in subs:
        if center is None:
            continue
        radius = 0.0
        for p in points:
            d = abs(p - center)
            if d >= bound:
                break
            if d > radius:
                radius = d
        else:
            best, bound = (sub, center, radius), radius
    return best


def min_enclosing_circle(points) -> EnclosingCircle:
    """Smallest circle enclosing the points.

    Farthest-point support iteration (Elzinga and Hearn, 1972): keep at most
    three support points, take their smallest circle, and add the input
    point farthest from its center while that point lies outside.  It
    starts from the circle on a near-diameter: the point farthest from the
    points' mean and the point farthest from that one.  The radius grows
    strictly, so the loop ends; it is capped all the same.
    The points are scaled by a power of two, which is exact, so that the
    circumcenter's cubic terms neither overflow nor underflow.  It returns
    only once no point lies farther than radius * (1 + 1e-14) from the center.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("need a non-empty sequence of points")
    # the largest |coordinate|, which is NaN or inf when a coordinate is
    extent = np.abs(np.ascontiguousarray(pts).view(float)).max().item()
    if not math.isfinite(extent):
        raise ValueError("points must be finite")
    scale = math.ldexp(1.0, math.frexp(extent)[1])
    pts = pts / scale
    a = pts.item(np.abs(pts - pts.sum() / pts.size).argmax())  # pts.mean(), bit for bit
    b = pts.item(np.abs(pts - a).argmax())
    support, center, radius = _support_circle([a, b])
    for _ in range(_MEC_MAX_ITER):
        dist = np.abs(pts - center)
        far = dist.argmax()
        if dist.item(far) <= radius * _IN_CIRCLE_EPS:
            break
        support, center, radius = _support_circle(support + [pts.item(far)])
    else:
        raise EnclosingCircleFailed(
            f"no enclosing circle after {_MEC_MAX_ITER} support updates")
    return EnclosingCircle(center * scale, radius * scale)


def _params(c: PlanarCurve, ring_size: int) -> np.ndarray:
    return (c.s if c.t is None else c.t)[:ring_size]


def _contact_band(c: PlanarCurve, circle: EnclosingCircle) -> tuple[np.ndarray, np.ndarray]:
    """Ring positions and the increasing indices of those within CONTACT_BAND * R of the circle."""
    pos = _ring(c)[1]
    near = np.abs(np.abs(pos - circle.center) - circle.radius) < CONTACT_BAND * circle.radius
    idx = near.nonzero()[0]
    if not idx.size:
        raise NoContact("no curve sample within the contact band")
    return pos, idx


def contact_components(c: PlanarCurve, circle: EnclosingCircle) -> list[ContactComponent]:
    """Maximal runs of ring samples within the contact band of the circle.

    The ring is cyclic, so a run through the last sample continues into the
    first; an open curve raises :class:`NotClosed`.  A run of at most two
    samples counts as a point contact, otherwise (or when every sample
    touches) as an arc.
    """
    pos, idx = _contact_band(c, circle)
    m = pos.size
    params = _params(c, m)
    # the contact indices split into runs of consecutive samples at each jump
    heads = [0] + [j + 1 for j in (idx[1:] - idx[:-1] > 1).nonzero()[0].tolist()]
    runs = [(idx.item(a), b - a) for a, b in zip(heads, heads[1:] + [idx.size])]
    if len(runs) > 1 and idx.item(0) == 0 and idx.item(-1) == m - 1:
        # cyclic wrap: the last run continues into the first
        a, n = runs.pop()
        runs[0] = (a, n + runs[0][1])
    return [ContactComponent((params.item(a), params.item((a + n - 1) % m)),
                             "arc" if n > 2 or n == m else "point", a, n)
            for a, n in runs]


def contact_angular_gap(c: PlanarCurve, circle: EnclosingCircle) -> float:
    """Largest angular gap (about the center) between contact samples.

    A gap above pi would mean the contact set fits in an open half circle,
    which the smallest enclosing circle rules out.
    """
    pos, idx = _contact_band(c, circle)
    d = pos[idx] - circle.center
    ang = np.arctan2(d.imag, d.real)  # np.angle(d)
    ang.sort()
    wrap = ang.item(0) + TWO_PI - ang.item(-1)
    return (ang[1:] - ang[:-1]).max(initial=wrap).item()


def detect_vertices(c: PlanarCurve) -> VertexReport:
    """Curvature extrema of a closed curve, plateau-collapsed.

    Raises :class:`NotClosed` for an open curve and
    :class:`ConstantCurvature` for circles, whose curvature has no extrema.
    """
    values = curvature_samples(c)
    plateaus = plateau_extrema(values)
    if not plateaus:
        raise ConstantCurvature("curvature has no extrema")
    m = values.size
    params = _params(c, m)
    vertices = [((params.item(p.start), params.item((p.start + p.length - 1) % m)),
                 p.kind, p.value) for p in plateaus]
    # two kinds alternate cyclically when the list repeats its first two, which differ
    kinds = [p.kind for p in plateaus]
    if len(kinds) % 2 or kinds[0] == kinds[1] or kinds != kinds[:2] * (len(kinds) // 2):
        raise RuntimeError("vertex kinds failed to alternate")
    return VertexReport(vertices, len(vertices))


def osserman_check(c: PlanarCurve) -> OssermanReport:
    """Vertex-count bounds against the circumscribed circle.

    Computes the smallest enclosing circle (curvature K), the contact
    components (n of them), and the vertex count, and checks the bound
    count >= 2n.  Each contact component is witnessed by a parameter of
    near-maximal curvature (allowed 2 percent below K for discretization);
    each gap between components by a parameter with curvature below K.
    Arc components add two bonus vertices each; the strengthened bound is
    checked only when every component is an arc.  Witness points are kept
    separate from vertices and never counted as such.  An open curve raises
    :class:`NotClosed`.
    """
    ok, witness = is_simple(c)
    if not ok:
        raise NotSimple(f"curve has a self-intersection near segments {witness}")
    pos = _ring(c)[1]
    m = pos.size
    circle = min_enclosing_circle(pos)
    comps = contact_components(c, circle)
    gap = contact_angular_gap(c, circle)
    report = detect_vertices(c)
    kappa = curvature_samples(c)
    params = _params(c, m)
    K = circle.curvature

    twice = np.concatenate((kappa, kappa))  # a cyclic run of at most m samples is one slice
    highs = []
    for comp in comps:
        a = comp.index_start
        j = (a + int(twice[a:a + comp.index_count].argmax())) % m
        highs.append((params.item(j), kappa.item(j)))
    lows = []
    n = len(comps)
    for i in range(n):
        cur = comps[i]
        nxt = comps[(i + 1) % n]
        start = (cur.index_start + cur.index_count) % m
        count = (nxt.index_start - start) % m
        if count == 0:
            continue
        j = (start + int(twice[start:start + count].argmin())) % m
        lows.append((params.item(j), kappa.item(j)))

    bonus = 2 * sum(1 for comp in comps if comp.kind == "arc")
    all_arcs = all(comp.kind == "arc" for comp in comps)
    bonus_ok = (report.count >= 2 * n + bonus) if all_arcs else None
    return OssermanReport(
        circle=circle,
        components=comps,
        n=n,
        vertices=report.vertices,
        vertex_count=report.count,
        bound_2n_satisfied=report.count >= 2 * n,
        per_gap_low_points=lows,
        per_component_high_points=highs,
        bonus_vertices=bonus,
        bonus_bound_satisfied=bonus_ok,
        contact_gap=gap,
    )


def _closed_fixture(t, gamma, speed, theta) -> PlanarCurve:
    """Assemble a closed curve from dense parameter samples.

    ``gamma`` are complex positions, ``speed`` the parameter speed |d gamma|
    and ``theta`` the tangent-angle lift, all sampled at ``t`` including the
    duplicated endpoint; ``t`` tags the samples.  Built to pass every
    check of PlanarCurve, the curve is taken unchecked.
    """
    ds = 0.5 * (speed[1:] + speed[:-1]) * np.diff(t)
    s = np.concatenate(([0.0], np.cumsum(ds)))
    return PlanarCurve._built(s, gamma, theta, t=t)


@functools.lru_cache(maxsize=4)
def _harmonic_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The knots t_j = 2*pi*j/n, j = 0..n, cos(k t) and sin(k t) in row k - 1
    for k = 1..6, and e^{it}; all read-only.  Each cached size keeps about
    120 B per knot alive: 8 for t, 96 for the twelve rows, 16 for e^{it}.
    """
    t = TWO_PI * np.arange(n + 1) / n
    kt = np.arange(1, 1 + max(1 + CONVEX_HARMONICS, STAR_HARMONICS))[:, None] * t
    table = (t, np.cos(kt), np.sin(kt), np.exp(1j * t))
    for a in table:
        a.flags.writeable = False
    return table


def _sample_count(n) -> int:
    """n as an int; ValueError unless it is an integer of at least MIN_SAMPLES."""
    try:
        count = operator.index(n)
    except TypeError:
        raise ValueError(f"sample count must be an integer, got {n!r}") from None
    if count < MIN_SAMPLES:
        raise ValueError(f"sample count must be at least {MIN_SAMPLES}, got {count}")
    return count


def random_convex_curve(rng, n: int = 512) -> PlanarCurve:
    """Random smooth convex closed curve from a positive support function.

    The support function is 1 plus a low trigonometric polynomial whose
    coefficients are damped hard enough to keep the curvature radius
    positive.  n, the number of samples, must be an integer of at least
    MIN_SAMPLES (48).
    """
    t, cos_table, sin_table, turn = _harmonic_table(_sample_count(n))
    h = np.ones_like(t)
    hp = np.zeros_like(t)
    hpp = np.zeros_like(t)
    budget = 0.0
    coefs = []
    for k in range(2, 2 + CONVEX_HARMONICS):
        ak, bk = rng.normal(0.0, CONVEX_AMPLITUDE / k**2, size=2)
        coefs.append((k, ak, bk))
        budget += (k * k + 1.0) * math.hypot(ak, bk)
    if budget < 0.01:
        coefs[0] = (2, 0.02, 0.0)  # keep the curvature away from constant
        budget += 0.1
    damp = min(1.0, 0.5 / budget) if budget > 0 else 1.0
    for k, ak, bk in coefs:
        ak *= damp
        bk *= damp
        cos_kt, sin_kt = cos_table[k - 1], sin_table[k - 1]
        term = ak * cos_kt + bk * sin_kt
        h += term
        hp += -ak * k * sin_kt + bk * k * cos_kt
        hpp += -(k * k) * term
    rho = h + hpp  # curvature radius; positive by the damping above
    gamma = h * turn + hp * 1j * turn
    theta = t + 0.5 * math.pi
    return _closed_fixture(t.copy(), gamma, rho, theta)


def random_star_curve(rng, n: int = 512) -> PlanarCurve:
    """Random star-shaped closed curve r(t) > 0; curvature may change sign.

    n, the number of samples, must be an integer of at least MIN_SAMPLES (48).
    """
    t, cos_table, sin_table, turn = _harmonic_table(_sample_count(n))
    r = np.ones_like(t)
    rp = np.zeros_like(t)
    for k in range(1, 1 + STAR_HARMONICS):
        ak, bk = rng.normal(0.0, STAR_AMPLITUDE / (k + 1), size=2)
        cos_kt, sin_kt = cos_table[k - 1], sin_table[k - 1]
        r += ak * cos_kt + bk * sin_kt
        rp += -ak * k * sin_kt + bk * k * cos_kt
    low = float(r.min())
    if low < 0.1:
        r = r + (0.1 - low)
    gamma = r * turn
    dgamma = (rp + 1j * r) * turn
    speed = np.abs(dgamma)
    theta = np.unwrap(np.angle(dgamma))
    theta[-1] = theta[0] + TWO_PI
    return _closed_fixture(t.copy(), gamma, speed, theta)
