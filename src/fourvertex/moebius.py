"""Disk-preserving Möbius maps g(z) = (z - beta) / (1 - conj(beta) z).

For |beta| < 1 these maps form a two-parameter disk inside the circle
diffeomorphisms: each is a hyperbolic isometry of the unit disk fixing
+-beta/|beta| on the boundary, taking beta to 0 and 0 to -beta.  Acting
entrywise on a four-point configuration, the family sweeps out every
configuration from a unique core configuration; the inverse of that
evaluation map is computed here by intersecting the two hyperbolic
geodesics joining opposite configuration points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bicircle import Configuration, is_core
from .curvature import TWO_PI


class NumericallyDegenerate(ArithmeticError):
    """Geodesic intersection is too ill-conditioned to trust."""


@dataclass(frozen=True)
class MoebiusParameter:
    """Parameter beta of a special disk-preserving Möbius map; |beta| < 1."""

    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))
        if not abs(self.beta) < 1.0:
            raise ValueError("|beta| must be strictly below 1")


def _beta_value(m) -> complex:
    if isinstance(m, MoebiusParameter):
        return m.beta
    b = complex(m)
    if not abs(b) < 1.0:
        raise ValueError("|beta| must be strictly below 1")
    return b


def moebius_apply(m, z):
    """Evaluate the map at z (scalar or array); unit circle maps to itself."""
    beta = _beta_value(m)
    z = np.asarray(z, dtype=complex)
    out = (z - beta) / (1.0 - np.conj(beta) * z)
    return out if out.ndim else complex(out)


def moebius_on_config(m, c: Configuration) -> Configuration:
    """Apply the map entrywise; counterclockwise order is preserved."""
    return Configuration(*(moebius_apply(m, p) for p in c.points()))


@functools.lru_cache(maxsize=4)
def _circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point grid t_j = 2*pi*j/n, j = 0..n, and e^{-i t_j}; both read-only."""
    grid = TWO_PI * np.arange(n + 1) / n
    conj_circle = np.exp(-1j * grid)
    grid.flags.writeable = False
    conj_circle.flags.writeable = False
    return grid, conj_circle


def moebius_lift(m, n: int = 4096) -> np.ndarray:
    """Steps of the map's boundary lift over the n cells of the n-point grid.

    On z = e^{it}, g(z) = z * w / conj(w) with w = 1 - beta * e^{-it}, and
    Re w > 0, so the lift is t + 2 arg w in closed form: exact at every
    knot, however steep the map, with no unwrapping.  The last knot is set
    one period above the first, so the n steps sum to 2*pi; their cumulative
    sum from 2 arg(1 - beta) is the lift at the knots.  Raises
    NumericallyDegenerate when |beta| is so close to 1 that some step
    rounds to zero or below.
    """
    beta = _beta_value(m)
    grid, conj_circle = _circle(n)
    values = grid + 2.0 * np.angle(1.0 - beta * conj_circle)
    values[-1] = values[0] + TWO_PI
    steps = np.diff(values)
    if not np.all(steps > 0.0):
        raise NumericallyDegenerate(
            f"lift at |beta| = {abs(beta)!r}: lift must be strictly increasing")
    return steps


def _geodesic(u: complex, v: complex):
    """Hyperbolic line with ideal endpoints u, v on the unit circle.

    Returns ("line", direction) for a diameter, else ("circle", center,
    radius) of the arc meeting the unit circle orthogonally, for which
    |center|^2 = radius^2 + 1.
    """
    denom = 1.0 + (u * v.conjugate()).real
    if denom < 1e-12:
        return ("line", u / abs(u))
    center = (u + v) / denom
    r2 = abs(center) ** 2 - 1.0
    return ("circle", center, math.sqrt(max(r2, 0.0)))


def _inside_root(big_r: float) -> float:
    """Root of t^2 - 2*R*t + 1 = 0 inside the unit interval in |t|."""
    disc = big_r * big_r - 1.0
    if disc <= 0.0:
        raise NumericallyDegenerate("geodesics are tangent or disjoint")
    return math.copysign(1.0, big_r) / (abs(big_r) + math.sqrt(disc))


def _intersect_geodesics(g1, g2) -> complex:
    if g1[0] == "line" and g2[0] == "line":
        d1, d2 = g1[1], g2[1]
        if abs((d1.conjugate() * d2).imag) < 1e-9:
            raise NumericallyDegenerate("diameters are parallel")
        return 0.0 + 0.0j
    if g1[0] == "line" or g2[0] == "line":
        if g2[0] == "line":
            g1, g2 = g2, g1
        d = g1[1]
        _, center, _ = g2
        t = _inside_root((d.conjugate() * center).real)
        return t * d
    _, c1, _ = g1
    _, c2, _ = g2
    dc = c2 - c1
    if abs(dc) < 1e-12:
        raise NumericallyDegenerate("geodesic circles coincide")
    # orthogonality to the unit circle puts the radical line through 0
    w = 1j * dc / abs(dc)
    t = _inside_root((w.conjugate() * c1).real)
    return t * w


def _crossing_angle(g, z: complex) -> complex:
    """Unit tangent of a geodesic at the point z."""
    if g[0] == "line":
        return g[1]
    tang = 1j * (z - g[1])
    return tang / abs(tang)


def evaluation_inverse(q: Configuration) -> tuple[Configuration, MoebiusParameter]:
    """Factor a configuration as a Möbius image of a core configuration.

    The geodesic through q1, q3 and the one through q2, q4 meet at a single
    point of the open disk; calling it -beta, the map with parameter -beta
    carries ``q`` to a core configuration, and the map with parameter beta
    carries that core configuration back to ``q``.
    """
    g13 = _geodesic(q.p1, q.p3)
    g24 = _geodesic(q.p2, q.p4)
    z = _intersect_geodesics(g13, g24)
    t1 = _crossing_angle(g13, z)
    t2 = _crossing_angle(g24, z)
    if abs((t1.conjugate() * t2).imag) < 1e-6:
        raise NumericallyDegenerate("geodesics meet at a vanishing angle")
    beta = -z
    core_point = moebius_on_config(-beta, q)
    if not is_core(core_point, tol=1e-6):
        raise NumericallyDegenerate("recovered configuration misses the core")
    return core_point, MoebiusParameter(beta)
