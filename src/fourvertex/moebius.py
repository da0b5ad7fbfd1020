"""Disk-preserving Möbius maps g(z) = (z - beta) / (1 - conj(beta) z).

For |beta| < 1 these maps form a two-parameter disk inside the circle
diffeomorphisms: each is a hyperbolic isometry of the unit disk fixing
+-beta/|beta| on the boundary, taking beta to 0 and 0 to -beta.  Acting
entrywise on a four-point configuration, the family sweeps out every
configuration from a unique core configuration; the inverse of that
evaluation map is computed here as the crossing of the two chords joining
opposite configuration points, the hyperbolic geodesics of the
Beltrami-Klein model, carried over to the Poincaré disk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bicircle import Configuration, is_core
from .curvature import TWO_PI


class NumericallyDegenerate(ArithmeticError):
    """The chord crossing or the boundary lift is too ill-conditioned to trust."""


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


def _cross(u: complex, v: complex) -> float:
    """Im(conj(u) v): the determinant of u and v as plane vectors."""
    return u.real * v.imag - u.imag * v.real


def evaluation_inverse(q: Configuration) -> tuple[Configuration, MoebiusParameter]:
    """Factor a configuration as a Möbius image of a core configuration.

    In the Beltrami-Klein model of the disk, the geodesics through q1, q3
    and through q2, q4 are the straight chords between them; they cross,
    as the points interleave, at K = q1 + s (q3 - q1).  On that chord
    1 - |K|^2 = s (1 - s) |q3 - q1|^2, so the crossing in the Poincaré disk
    is K / (1 + |q3 - q1| sqrt(s (1 - s))).  Calling it -beta, the map with
    parameter -beta carries ``q`` to a core configuration, and the map with
    parameter beta carries that core configuration back to ``q``.  Chords
    whose sine is below 1e-6, a crossing too near the unit circle to map
    the points back onto it, or a recovered configuration off the core by
    1e-6 or more raise NumericallyDegenerate.
    """
    p1, p2, p3, p4 = q.points()
    d13, d24 = p3 - p1, p4 - p2
    det = _cross(d13, d24)
    if abs(det) < 1e-6 * abs(d13) * abs(d24):
        raise NumericallyDegenerate("chords cross at a vanishing angle")
    s = _cross(p2 - p1, d24) / det
    try:
        beta = -(p1 + s * d13) / (1.0 + abs(d13) * math.sqrt(s * (1.0 - s)))
        core_point = moebius_on_config(-beta, q)
    except ValueError:
        # the crossing rounds onto the unit circle, or the map at it rounds
        # the points off the circle by more than a configuration allows
        raise NumericallyDegenerate("chords cross too near the unit circle") from None
    if not is_core(core_point, tol=1e-6):
        raise NumericallyDegenerate("recovered configuration misses the core")
    return core_point, MoebiusParameter(beta)
