"""Vertex and circumscribed-circle analysis of closed plane curves.

A vertex is a strict local extremum (plateau) of the discrete curvature.
The smallest enclosing circle of the curve's samples is computed by a
farthest-point support iteration; the contact set between curve and
circle, split into point and arc components, drives the vertex-count
bounds: with n contact components the curve carries at least 2n vertices,
plus two extra for every component that is a full arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .curvature import TWO_PI, plateau_extrema
from .integrator import PlanarCurve, _ring, curvature_samples, is_simple


class NotSimple(ValueError):
    """The curve has a self-intersection."""


class NotClosed(ValueError):
    """The curve does not close up."""


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
_MEC_MAX_ITER = 256
# random test curves: trigonometric terms and the scale of their coefficients
CONVEX_HARMONICS, CONVEX_AMPLITUDE = 5, 0.08
STAR_HARMONICS, STAR_AMPLITUDE = 4, 0.15


def _circumcenter(a: complex, b: complex, c: complex) -> complex | None:
    # shift toward the bounding-box center for conditioning
    o = complex(
        0.5 * (min(a.real, b.real, c.real) + max(a.real, b.real, c.real)),
        0.5 * (min(a.imag, b.imag, c.imag) + max(a.imag, b.imag, c.imag)),
    )
    ax, ay = a.real - o.real, a.imag - o.imag
    bx, by = b.real - o.real, b.imag - o.imag
    cx, cy = c.real - o.real, c.imag - o.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    x = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
         + (cx * cx + cy * cy) * (ay - by)) / d
    y = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
         + (cx * cx + cy * cy) * (bx - ax)) / d
    return o + complex(x, y)


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
    subs = [(p, new) for p in rest] + [(p, q, new) for p, q in combinations(rest, 2)]
    best = None
    for sub in subs:
        center = 0.5 * (sub[0] + sub[1]) if len(sub) == 2 else _circumcenter(*sub)
        if center is None:
            continue
        bound = math.inf if best is None else best[2]
        radius = 0.0
        for p in points:
            d = abs(p - center)
            if d >= bound:
                break
            if d > radius:
                radius = d
        else:
            best = (list(sub), center, radius)
    return best


def min_enclosing_circle(points) -> EnclosingCircle:
    """Smallest circle enclosing the points.

    Farthest-point support iteration (Elzinga and Hearn, 1972): keep at most
    three support points, take their smallest circle, and add the input
    point farthest from its center while that point lies outside.  The
    radius grows strictly, so the loop ends; it is capped all the same.
    The points are scaled by a power of two, which is exact, so that the
    circumcenter's cubic terms neither overflow nor underflow.  The result
    is verified to contain every input point, from the distances the loop
    computed last, which are those to the returned center.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("need a non-empty sequence of points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    extent = max(float(np.max(np.abs(pts.real))), float(np.max(np.abs(pts.imag))))
    scale = math.ldexp(1.0, math.frexp(extent)[1])
    pts = pts / scale
    support, center, radius = [complex(pts[0])], complex(pts[0]), 0.0
    for _ in range(_MEC_MAX_ITER):
        dist = np.abs(pts - center)
        far = int(np.argmax(dist))
        if dist[far] <= radius * _IN_CIRCLE_EPS:
            break
        support, center, radius = _support_circle(support + [complex(pts[far])])
    else:
        raise EnclosingCircleFailed(
            f"no enclosing circle after {_MEC_MAX_ITER} support updates")
    worst = float(dist[far])
    if worst > radius * (1.0 + 1e-9):
        raise RuntimeError("enclosing circle failed containment verification")
    return EnclosingCircle(center * scale, radius * scale)


def _params(c: PlanarCurve, ring_size: int) -> np.ndarray:
    if c.t is not None:
        return np.asarray(c.t[:ring_size], dtype=float)
    return np.asarray(c.s[:ring_size], dtype=float)


def _contact_band(
    c: PlanarCurve, circle: EnclosingCircle, band: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Ring positions and the mask of those within ``band`` of the circle.

    ``band`` defaults to 1e-5 of the radius.
    """
    if band is None:
        band = 1e-5 * circle.radius
    if band <= 0.0:
        raise ValueError("band must be positive")
    _, pos, _, _ = _ring(c)
    near = np.abs(np.abs(pos - circle.center) - circle.radius) < band
    if not np.any(near):
        raise NoContact("no curve sample within the contact band")
    return pos, near


def contact_components(
    c: PlanarCurve, circle: EnclosingCircle, band: float | None = None
) -> list[ContactComponent]:
    """Maximal sample runs within ``band`` of the circle, merged cyclically.

    A run spanning fewer than two grid steps counts as a point contact,
    otherwise as an arc.  ``band`` defaults to 1e-5 of the radius.
    """
    pos, near = _contact_band(c, circle, band)
    m = pos.size
    params = _params(c, m)

    padded = np.concatenate(([False], near, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])  # run starts and ends, alternating
    starts, counts = edges[::2], edges[1::2] - edges[::2]
    if starts.size > 1 and near[0] and near[m - 1]:
        # cyclic wrap: the last run continues into the first
        starts[0] = starts[-1]
        counts[0] += counts[-1]
        starts, counts = starts[:-1], counts[:-1]
    ends = (starts + counts - 1) % m
    return [ContactComponent((float(params[a]), float(params[e])),
                             "arc" if n > 2 or n == m else "point", a, n)
            for a, e, n in zip(starts.tolist(), ends.tolist(), counts.tolist())]


def contact_angular_gap(
    c: PlanarCurve, circle: EnclosingCircle, band: float | None = None
) -> float:
    """Largest angular gap (about the center) between contact samples.

    A gap above pi would mean the contact set fits in an open half circle,
    which the smallest enclosing circle rules out.
    """
    pos, near = _contact_band(c, circle, band)
    ang = np.sort(np.angle(pos[near] - circle.center))
    gaps = np.diff(np.concatenate((ang, [ang[0] + TWO_PI])))
    return float(np.max(gaps))


def detect_vertices(c: PlanarCurve) -> VertexReport:
    """Curvature extrema of a closed curve, plateau-collapsed.

    Raises :class:`ConstantCurvature` for circles, whose curvature has no
    extrema.
    """
    if not c.closed:
        raise NotClosed("vertex detection needs a closed curve")
    values = curvature_samples(c)
    plateaus = plateau_extrema(values)
    if not plateaus:
        raise ConstantCurvature("curvature has no extrema")
    params = _params(c, values.size)
    vertices = []
    for p in plateaus:
        t0 = params[p.start]
        t1 = params[(p.start + p.length - 1) % values.size]
        vertices.append(((float(t0), float(t1)), p.kind, float(p.value)))
    kinds = [v[1] for v in vertices]
    if any(kinds[i] == kinds[(i + 1) % len(kinds)] for i in range(len(kinds))):
        raise RuntimeError("vertex kinds failed to alternate")
    return VertexReport(vertices, len(vertices))


def osserman_check(
    c: PlanarCurve,
    band: float | None = None,
) -> OssermanReport:
    """Vertex-count bounds against the circumscribed circle.

    Computes the smallest enclosing circle (curvature K), the contact
    components (n of them), and the vertex count, and checks the bound
    count >= 2n.  Each contact component is witnessed by a parameter of
    near-maximal curvature (allowed 2 percent below K for discretization);
    each gap between components by a parameter with curvature below K.
    Arc components add two bonus vertices each; the strengthened bound is
    checked only when every component is an arc.  Witness points are kept
    separate from vertices and never counted as such.
    """
    if not c.closed:
        raise NotClosed("curve endpoints do not meet")
    ok, witness = is_simple(c)
    if not ok:
        raise NotSimple(f"curve has a self-intersection near segments {witness}")
    _, pos, _, _ = _ring(c)
    m = pos.size
    circle = min_enclosing_circle(pos)
    comps = contact_components(c, circle, band=band)
    gap = contact_angular_gap(c, circle, band=band)
    report = detect_vertices(c)
    kappa = curvature_samples(c)
    params = _params(c, m)
    K = circle.curvature

    twice = np.concatenate((kappa, kappa))  # a cyclic run of at most m samples is one slice
    highs = []
    for comp in comps:
        a = comp.index_start
        j = (a + int(np.argmax(twice[a:a + comp.index_count]))) % m
        highs.append((float(params[j]), float(kappa[j])))
    lows = []
    n = len(comps)
    for i in range(n):
        cur = comps[i]
        nxt = comps[(i + 1) % n]
        start = (cur.index_start + cur.index_count) % m
        count = (nxt.index_start - start) % m
        if count == 0:
            continue
        j = (start + int(np.argmin(twice[start:start + count]))) % m
        lows.append((float(params[j]), float(kappa[j])))

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


def _closed_fixture(t, gamma, speed, theta, params=None) -> PlanarCurve:
    """Assemble a closed curve from dense parameter samples.

    ``gamma`` are complex positions, ``speed`` the parameter speed |d gamma|
    and ``theta`` the tangent-angle lift, all sampled at ``t`` including the
    duplicated endpoint.
    """
    ds = 0.5 * (speed[1:] + speed[:-1]) * np.diff(t)
    s = np.concatenate(([0.0], np.cumsum(ds)))
    tags = t if params is None else params
    return PlanarCurve(s=s, pos=gamma, theta=theta, t=tags)


def random_convex_curve(rng, n: int = 512) -> PlanarCurve:
    """Random smooth convex closed curve from a positive support function.

    The support function is 1 plus a low trigonometric polynomial whose
    coefficients are damped hard enough to keep the curvature radius
    positive.
    """
    t = TWO_PI * np.arange(n + 1) / n
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
        h += ak * np.cos(k * t) + bk * np.sin(k * t)
        hp += -ak * k * np.sin(k * t) + bk * k * np.cos(k * t)
        hpp += -(k * k) * (ak * np.cos(k * t) + bk * np.sin(k * t))
    rho = h + hpp  # curvature radius; positive by the damping above
    gamma = h * np.exp(1j * t) + hp * 1j * np.exp(1j * t)
    theta = t + 0.5 * math.pi
    return _closed_fixture(t, gamma, rho, theta)


def random_star_curve(rng, n: int = 512) -> PlanarCurve:
    """Random star-shaped closed curve r(t) > 0; curvature may change sign."""
    t = TWO_PI * np.arange(n + 1) / n
    r = np.ones_like(t)
    rp = np.zeros_like(t)
    for k in range(1, 1 + STAR_HARMONICS):
        ak, bk = rng.normal(0.0, STAR_AMPLITUDE / (k + 1), size=2)
        r += ak * np.cos(k * t) + bk * np.sin(k * t)
        rp += -ak * k * np.sin(k * t) + bk * k * np.cos(k * t)
    if np.min(r) < 0.1:
        shift = 0.1 - float(np.min(r))
        r = r + shift
    gamma = r * np.exp(1j * t)
    dgamma = (rp + 1j * r) * np.exp(1j * t)
    speed = np.abs(dgamma)
    theta = np.unwrap(np.angle(dgamma))
    theta[-1] = theta[0] + TWO_PI
    return _closed_fixture(t, gamma, speed, theta)
