"""Plane curves from curvature, and winding numbers of plane loops.

Curves are arc-length-parameterized polylines with a continuous
tangent-angle lift.  Integration advances through exact circular arcs, one
per grid step, so step-function curvature is reproduced without quadrature
drift; ``_integrate`` places every integrated curve, with its endpoint
error and unit tangents (:class:`Integration`).  The winding counter here
is the one both the configuration loops of ``bicircle`` and the compass
demo's error loop in ``solver`` use.  All operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curvature import TWO_PI, CurvatureProfile, ScaleFactor

STRAIGHT_KAPPA = 1e-14  # below this a step is a straight segment
PAIR_CHUNK = 1 << 16    # candidate segment pairs that is_simple tests per batch
ARC_MAX_STEP = 3e-3     # integrate_arcs subdivides each arc into steps this long or shorter


class TooFewSamples(ValueError):
    """Curve has too few samples for the requested operation."""


class OriginOnLoop(ValueError):
    """A loop point coincides with the origin."""


class InsufficientDensity(ValueError):
    """Consecutive loop samples turn by a quarter turn or more."""


@dataclass(frozen=True)
class PlanarCurve:
    """Polyline with arc length, complex positions and tangent-angle lift.

    ``t`` optionally tags each sample with the parameter of an underlying
    curvature function (used by synthesized and fixture curves).  Whether
    the curve is closed is decided by :attr:`closed` from its positions.
    """

    s: np.ndarray
    pos: np.ndarray
    theta: np.ndarray
    scale: float = 1.0
    t: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        pos = np.asarray(self.pos, dtype=complex)
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "theta", theta)
        if self.t is not None:
            object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        t_shape = s.shape if self.t is None else self.t.shape
        if not (s.shape == pos.shape == theta.shape == t_shape) or s.ndim != 1 or s.size < 2:
            raise ValueError("s, pos, theta and t must be matching 1-d arrays")
        if not (np.isfinite(s).all() and np.isfinite(pos).all() and np.isfinite(theta).all()
                and (self.t is None or np.isfinite(self.t).all())):
            raise ValueError("curve samples must be finite")
        ds = np.diff(s)
        if s[0] != 0.0 or not np.all(ds > 0):
            raise ValueError("arc length must increase strictly from 0")
        if np.any(np.abs(np.diff(pos)) > ds * 1.05):
            raise ValueError("chord length exceeds arc step")
        if np.any(np.abs(np.diff(theta)) >= math.pi):
            raise ValueError("tangent angle lift has a jump")

    @classmethod
    def _built(cls, s, pos, theta, scale=1.0, t=None) -> "PlanarCurve":
        """A curve from float and complex arrays built to pass every check, taken unchecked."""
        curve = object.__new__(cls)
        for name, value in (("s", s), ("pos", pos), ("theta", theta), ("scale", scale), ("t", t)):
            object.__setattr__(curve, name, value)
        return curve

    @property
    def length(self) -> float:
        return self.s.item(-1)

    @property
    def closed(self) -> bool:
        """The endpoints meet within 1e-6 of the length."""
        return abs(self.pos.item(-1) - self.pos.item(0)) < 1e-6 * self.length


@dataclass(frozen=True)
class ErrorVector:
    """Displacement between a curve's endpoint and its start point."""

    e: complex

    @property
    def magnitude(self) -> float:
        return abs(self.e)


def _arcs(kappa: np.ndarray, ds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangent angles theta at the n + 1 samples, e^{i theta}, and the n chords of the arcs."""
    n = kappa.size
    theta = np.empty(n + 1)
    theta[0] = 0.0
    turn = np.multiply(kappa, ds, out=theta[1:])
    if not (turn.max() < math.pi and turn.min() > -math.pi):  # NaN fails too
        raise TooFewSamples("a grid step turns by half a turn or more")
    turn.cumsum(out=turn)
    rot = np.empty(n + 1, dtype=complex)  # e^{i theta}, bit for bit
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    # a chord is d / (i kappa), d = rot_{j+1} - rot_j; numpy divides by i kappa
    # (real part +-0) as (Im d (1 / kappa), -Re d (1 / kappa)), so the two
    # real products below are its bits
    ak = np.abs(kappa)
    straight = ak < STRAIGHT_KAPPA if ak.min() < STRAIGHT_KAPPA else None
    inv = np.divide(1.0, kappa, out=ak, where=True if straight is None else ~straight)
    arcs = np.empty(n, dtype=complex)
    np.subtract(rot.imag[1:], rot.imag[:-1], out=arcs.real)
    arcs.real *= inv
    np.subtract(rot.real[:-1], rot.real[1:], out=arcs.imag)
    arcs.imag *= inv
    if straight is not None:
        arcs[straight] = (ds * rot[:-1])[straight]
    return theta, rot, arcs


class Integration(NamedTuple):
    """The curve of curvature ``scale.c * k`` over the arc-length steps ``ds`` from the origin.

    Its endpoint error ``e`` is its last position; ``rot`` holds its unit
    tangents e^{i theta}, bit for bit those its chords were built from.
    """

    e: ErrorVector
    ds: np.ndarray
    scale: ScaleFactor
    curve: PlanarCurve
    rot: np.ndarray


def _integrate(kappa: np.ndarray, ds: np.ndarray,
               scale: ScaleFactor = ScaleFactor(1.0)) -> Integration:
    """The curve of ``kappa`` = scale.c k over ``ds``; a half-turn step raises TooFewSamples."""
    theta, rot, arcs = _arcs(kappa, ds)
    pos = np.empty(kappa.size + 1, dtype=complex)
    pos[0] = 0.0
    arcs.cumsum(out=pos[1:])
    s = np.empty(kappa.size + 1)
    s[0] = 0.0
    ds.cumsum(out=s[1:])
    return Integration(ErrorVector(pos.item(-1)), ds, scale, PlanarCurve._built(s, pos, theta), rot)


def integrate_curve(k: CurvatureProfile) -> PlanarCurve:
    """Curve starting at the origin heading along +x with curvature k(s).

    Sample j's curvature is held over the j-th arc-length step of 2*pi/n
    and the position advances along the exact circular arc, so a
    grid-aligned step profile integrates without modeling error.
    """
    return _integrate(k.samples, np.full(k.n, TWO_PI / k.n)).curve


def integrate_arcs(curvatures, lengths) -> PlanarCurve:
    """Curve from consecutive circular arcs of given curvatures and lengths.

    Arcs are subdivided to ARC_MAX_STEP so the polyline is usable for
    geometric queries; subdivision does not change the endpoint because the
    per-step displacements telescope exactly.
    """
    kap_parts = []
    ds_parts = []
    for kap, ell in zip(curvatures, lengths):
        if ell < 0:
            raise ValueError("arc lengths must be nonnegative")
        if ell == 0.0:
            continue
        m = max(1, int(math.ceil(ell / ARC_MAX_STEP)))
        kap_parts.append(np.full(m, float(kap)))
        ds_parts.append(np.full(m, ell / m))
    if not kap_parts:
        raise ValueError("no arcs to integrate")
    return _integrate(np.concatenate(kap_parts), np.concatenate(ds_parts)).curve


def error_vector(c: PlanarCurve) -> ErrorVector:
    """Final position minus initial position."""
    return ErrorVector(complex(c.pos[-1] - c.pos[0]))


def winding_number(points) -> int:
    """Signed turn count of a closed loop of plane vectors around the origin.

    The loop is traversed cyclically; increments are summed as signed
    angles and must each stay below a quarter turn.
    """
    z = np.asarray(list(points), dtype=complex)
    if z.size < 3:
        raise InsufficientDensity("need at least 3 loop points")
    if np.any(z == 0):
        raise OriginOnLoop("loop passes through the origin")
    inc = np.angle(np.roll(z, -1) / z)
    if not np.all(np.isfinite(inc)):
        raise OriginOnLoop("loop passes too close to the origin")
    if np.any(np.abs(inc) >= 0.5 * math.pi):
        raise InsufficientDensity("angle increment reached a quarter turn")
    total = float(np.sum(inc))
    w = round(total / TWO_PI)
    if abs(total / TWO_PI - w) > 0.01:
        raise InsufficientDensity("winding did not settle to an integer")
    return int(w)


def scale_curve(c: PlanarCurve, f: ScaleFactor) -> PlanarCurve:
    """Scale positions by f.c; curvature scales by the reciprocal.

    Negative factors rotate the curve half a turn; traversal orientation is
    unchanged either way.
    """
    factor = f.c
    theta = c.theta + (math.pi if factor < 0 else 0.0)
    return PlanarCurve._built(c.s * abs(factor), c.pos * factor, theta, c.scale * factor, c.t)


def _ring(c: PlanarCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Samples with the closing sample dropped exactly when the curve is :attr:`closed`."""
    if c.closed:
        return c.s[:-1], c.pos[:-1], c.theta[:-1], True
    return c.s, c.pos, c.theta, False


def curvature_samples(c: PlanarCurve) -> np.ndarray:
    """Discrete curvature d(theta)/d(s) at each sample by central differences.

    Closed curves wrap cyclically using the lift's total turning; open
    curves fall back to one-sided differences at the ends.
    """
    s, _, theta, closed = _ring(c)
    m = s.size
    if m < 5:
        raise TooFewSamples("need at least 5 samples")
    if closed:
        period_s = c.s.item(-1)
        period_theta = c.theta.item(-1) - c.theta.item(0)
        s_ext = np.empty(m + 2)
        s_ext[1:-1] = s
        s_ext[0] = s.item(-1) - period_s
        s_ext[-1] = s.item(0) + period_s
        th_ext = np.empty(m + 2)
        th_ext[1:-1] = theta
        th_ext[0] = theta.item(-1) - period_theta
        th_ext[-1] = theta.item(0) + period_theta
        return (th_ext[2:] - th_ext[:-2]) / (s_ext[2:] - s_ext[:-2])
    out = np.empty(m)
    out[1:-1] = (theta[2:] - theta[:-2]) / (s[2:] - s[:-2])
    out[0] = (theta[1] - theta[0]) / (s[1] - s[0])
    out[-1] = (theta[-1] - theta[-2]) / (s[-1] - s[-2])
    return out


def _orient(a, b, c):
    return (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)


def _in_box(a, b, x):
    return ((np.minimum(a.real, b.real) <= x.real) & (x.real <= np.maximum(a.real, b.real))
            & (np.minimum(a.imag, b.imag) <= x.imag) & (x.imag <= np.maximum(a.imag, b.imag)))


def _segments_cross(p, q, r, w):
    """Whether segments pq and rw meet, touching included; elementwise on arrays."""
    o1 = _orient(p, q, r)
    o2 = _orient(p, q, w)
    o3 = _orient(r, w, p)
    o4 = _orient(r, w, q)
    proper = (np.sign(o1) * np.sign(o2) < 0) & (np.sign(o3) * np.sign(o4) < 0)
    return (proper | ((o1 == 0) & _in_box(p, q, r)) | ((o2 == 0) & _in_box(p, q, w))
            | ((o3 == 0) & _in_box(r, w, p)) | ((o4 == 0) & _in_box(r, w, q)))


def is_simple(c: PlanarCurve) -> tuple[bool, tuple[int, int] | None]:
    """Check that no two non-adjacent polyline segments intersect.

    A closed curve that :func:`_star_shaped` certifies is simple
    without a sweep; every other curve takes the sweep below, and the
    result is the same either way.

    The sweep runs along the longer side of the bounding box, x unless the
    y-extent is larger, when x and y are swapped first; the swap is exact
    and no crossing test depends on it.  Each segment, in order of its
    minimum along the sweep axis, is paired with the later ones whose range
    on that axis starts before its own ends; pairs that overlap on the other
    axis are decided by ``_segments_cross``, ``PAIR_CHUNK`` pairs per batch.
    A batch in which no pair survives that filter skips the crossing test,
    whose numpy calls would cost more than the sweep; on a densely sampled
    smooth curve usually no pair survives.  The witness is the crossing with
    the smallest later, then earlier, sorted position; adjacent segments
    folding back are reported only when nothing crosses, the witness then
    being the first fold (i, i + 1), cyclically when closed.  Returns (flag,
    witness), the witness a pair of segment indices or None.
    """
    _, pos, _, closed = _ring(c)
    if closed and _star_shaped(pos):
        return True, None
    return _sweep(pos, closed)


def _star_shaped(pos: np.ndarray) -> bool:
    """Whether the closed polygon through ``pos`` is star-shaped about its vertex mean.

    The test is proof against rounding.  With z the computed vertex mean, a
    float point taken as exact, every cross product of consecutive rays
    v - z must have one sign, by more than 8 u times the moduli of its two
    products (u = 2^-53) plus a few subnormal units, so that each ray turns
    by an angle in (0, pi), or each in (-pi, 0).  The margin covers the
    rounding: a computed ray component fl(v - z) errs by at most u of
    itself, as a computed chord does, so the computed products and their
    difference err by at most 5 u of the products' moduli.  The ray must
    then turn once in total: it passes +x exactly once, counted as the steps
    from a ray with negative y-component to one without, mirrored across
    the x-axis when the turns are clockwise; the sign of a computed ray
    component is exact.  The edges' angular sectors about z then tile the
    plane once, each narrower than a half turn, and z lies on no edge, so
    two edges meet only where adjacent ones share a vertex: the polygon is
    star-shaped about z (Lee and Preparata, J. ACM 26, 1979), so simple.
    Every strictly convex polygon is star-shaped about its vertex mean.
    Zero chords fail the margin.  O(n).
    """
    d = np.empty(pos.size + 1, dtype=complex)
    np.subtract(pos, pos.sum() / pos.size, out=d[:-1])  # pos.mean(), bit for bit
    d[-1] = d[0]
    x, y = d.real, d.imag
    p1, p2 = x[:-1] * y[1:], y[:-1] * x[1:]
    cross = p1 - p2
    if cross.min() > 0.0:
        lower = y < 0.0
    elif cross.max() < 0.0:
        lower = y > 0.0
        np.negative(cross, out=cross)  # |cross|
    else:
        return False
    slack = np.abs(p1, out=p1)
    slack += np.abs(p2, out=p2)
    slack *= 8.0 * 2.0 ** -53
    slack += 8.0 * math.ulp(0.0)
    if np.count_nonzero(cross <= slack):  # cross holds no NaN, its min or max having compared
        return False
    return np.count_nonzero(lower[:-1] > lower[1:]) == 1


def _sweep(pos: np.ndarray, closed: bool) -> tuple[bool, tuple[int, int] | None]:
    """is_simple's pair sweep on the ring ``pos``, closed or not."""
    x, y = pos.real, pos.imag
    if y.max() - y.min() > x.max() - x.min():
        pos = y + 1j * x
    a = pos if closed else pos[:-1]
    b = np.concatenate((pos[1:], pos[:1])) if closed else pos[1:]
    nseg = a.size

    order = np.argsort(np.minimum(a.real, b.real), kind="stable")
    sa, sb = a[order], b[order]
    minx = np.minimum(sa.real, sb.real)
    maxx = np.maximum(sa.real, sb.real)
    miny = np.minimum(sa.imag, sb.imag)
    maxy = np.maximum(sa.imag, sb.imag)
    # sorted position p pairs with the counts[p] positions after it, pair
    # numbers first[p] .. first[p] + counts[p] - 1
    counts = np.searchsorted(minx, maxx, side="right") - np.arange(nseg) - 1
    total = int(np.sum(counts))
    first = np.cumsum(counts) - counts
    best = nseg * nseg  # q * nseg + p of the first crossing, p < q sorted positions
    for k0 in range(0, total, PAIR_CHUNK):
        k1 = min(k0 + PAIR_CHUNK, total)
        # the owners of pairs k0 .. k1 - 1 are positions p0 .. p1 - 1; the
        # first and the last may own pairs outside the chunk
        p0 = int(np.searchsorted(first, k0, side="right")) - 1
        p1 = int(np.searchsorted(first, k1 - 1, side="right"))
        own = counts[p0:p1].copy()
        own[0] -= k0 - first[p0]
        own[-1] -= first[p1 - 1] + counts[p1 - 1] - k1
        p = np.repeat(np.arange(p0, p1), own)
        q = p + 1 + np.arange(k0, k1) - first[p]
        d = np.abs(order[p] - order[q])
        keep = (miny[p] <= maxy[q]) & (maxy[p] >= miny[q]) & (d > 1) \
            & ~(closed & (d == nseg - 1))
        p, q = p[keep], q[keep]
        if p.size:
            hit = _segments_cross(sa[q], sb[q], sa[p], sb[p])
            best = int(np.min(q[hit] * nseg + p[hit], initial=best))
    if best < nseg * nseg:
        i, j = sorted(int(v) for v in order[list(divmod(best, nseg))])
        return False, (i, j)

    # adjacent segments may only meet at their shared endpoint; segment i is
    # (ai, bi) and segment i + 1 is (aj, bj)
    if closed:
        ai, bi, aj, bj = a, b, b, np.concatenate((b[1:], b[:1]))
    else:
        ai, bi, aj, bj = a[:-1], b[:-1], a[1:], b[1:]
    back = (bj - aj).real * (ai - aj).real + (bj - aj).imag * (ai - aj).imag
    fold = np.flatnonzero((_orient(ai, bi, bj) == 0.0) & (back > 0))
    if fold.size:
        i0 = int(fold[0])
        return False, (i0, (i0 + 1) % nseg)
    return True, None
