"""Four marked points on the unit circle and two-value step-curve closure.

A configuration is an ordered counterclockwise 4-tuple of distinct unit
complex numbers; it parameterizes a step curvature function taking values
a, b, a, b on the four arcs it cuts.  The curve built from those arcs
closes exactly when the configuration lies in the *core*, where opposite
points are antipodal, equivalently p1 - p2 + p3 - p4 = 0.

The endpoint error of the curve has a closed form: rewriting the four
division points in the angle-of-inclination parameter gives

    E = (1/(i*b') - 1/(i*a')) * (1 - q2 + q3 - q4)

with a', b' the values rescaled to total curvature 2*pi.  The same
quantity is also available by direct arc integration, which keeps the two
routes independently checkable against each other.  Error loops over
configurations are counted with :func:`fourvertex.integrator.winding_number`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curvature import TWO_PI
from .integrator import (
    ErrorVector,
    PlanarCurve,
    ScaleFactor,
    error_vector,
    integrate_arcs,
    winding_number,
)

UNIT_TOL = 1e-12
MIN_GAP = 1e-3  # smallest arc between the points of a random configuration


class LoopTouchesCore(ValueError):
    """The error magnitude vanishes somewhere along the loop."""


@dataclass(frozen=True)
class Configuration:
    """Ordered 4-tuple of distinct unit complex numbers, counterclockwise."""

    p1: complex
    p2: complex
    p3: complex
    p4: complex

    def __post_init__(self):
        pts = self.points()
        for p in pts:
            if abs(abs(p) - 1.0) > UNIT_TOL:
                raise ValueError("configuration points must lie on the unit circle")
        g = self.gaps()
        # four positive gaps summing to one full turn pins the ccw order
        if min(g) <= 0.0 or abs(sum(g) - TWO_PI) > 1e-6:
            raise ValueError("configuration points must be distinct and counterclockwise")

    def points(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.p1), complex(self.p2), complex(self.p3), complex(self.p4))

    def gaps(self) -> tuple[float, float, float, float]:
        """Counterclockwise arc lengths p1->p2, p2->p3, p3->p4, p4->p1."""
        pts = self.points()
        angles = [cmath.phase(pts[(i + 1) % 4] / pts[i]) % TWO_PI for i in range(4)]
        return tuple(angles)


@dataclass(frozen=True)
class ReducedConfigCoords:
    """Normalized arc positions 0 < x < y < z < 1 of the last three points."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (0.0 < self.x < self.y < self.z < 1.0):
            raise ValueError("coordinates must satisfy 0 < x < y < z < 1")


def core_defect(c: Configuration) -> complex:
    """p1 - p2 + p3 - p4; zero exactly on the core."""
    return c.p1 - c.p2 + c.p3 - c.p4


def is_core(c: Configuration, tol: float = 1e-9) -> bool:
    """True when both opposite pairs are antipodal, within tol."""
    return abs(core_defect(c)) < tol


def to_reduced(c: Configuration) -> tuple[complex, ReducedConfigCoords]:
    """Split a configuration into (rotation, reduced coordinates).

    The rotation is p1; rebuilding with :func:`from_reduced` recovers the
    configuration.
    """
    g = c.gaps()
    x = g[0] / TWO_PI
    y = (g[0] + g[1]) / TWO_PI
    z = (g[0] + g[1] + g[2]) / TWO_PI
    return complex(c.p1), ReducedConfigCoords(x, y, z)


def from_reduced(rotation: complex, coords: ReducedConfigCoords) -> Configuration:
    r = rotation
    return Configuration(
        r,
        r * cmath.exp(2j * math.pi * coords.x),
        r * cmath.exp(2j * math.pi * coords.y),
        r * cmath.exp(2j * math.pi * coords.z),
    )


def arclength_to_angle_config(
    c: Configuration, a: float, b: float
) -> tuple[Configuration, float, float]:
    """Division points in the angle-of-inclination parameter.

    The arc lengths L1..L4 of ``c`` carry curvature values a, b, a, b,
    rescaled by a common factor (ratio preserved) so the total curvature is
    2*pi.  Returns the resulting angle configuration starting at 1 and the
    rescaled values (a', b').
    """
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    length = np.asarray(c.gaps())
    sigma = TWO_PI / (a * (length[0] + length[2]) + b * (length[1] + length[3]))
    ap, bp = sigma * a, sigma * b
    turn = np.cumsum(np.array([ap, bp, ap]) * length[:3])
    theta_config = Configuration(
        1.0 + 0.0j,
        cmath.exp(1j * turn[0]),
        cmath.exp(1j * turn[1]),
        cmath.exp(1j * turn[2]),
    )
    return theta_config, float(ap), float(bp)


def closed_form_error(c: Configuration, a: float, b: float) -> ErrorVector:
    """Endpoint error of the normalized step curve cut at p1, in closed form.

    Depends only on the arc lengths of ``c`` (the curve is built in the
    frame where the cut point is the first marked point); invariant under
    rotating the configuration and under rescaling (a, b) by a common
    factor, since the values renormalize to total curvature 2*pi either
    way.
    """
    return error_from_angle_config(arclength_to_angle_config(c, a, b)[0], a, b)


def error_from_angle_config(q: Configuration, a: float, b: float) -> ErrorVector:
    """Endpoint error as a function of angle-parameter division points.

    The turning angles of ``q`` carry values proportional to a, b, a, b,
    rescaled so the curve length is 2*pi.
    """
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    turn = np.asarray(q.gaps())
    vals = np.array([a, b, a, b])
    scale = float(np.sum(turn / vals)) / TWO_PI
    defect = q.p1 - q.p2 + q.p3 - q.p4
    # q.p1 is the cut point; the formula is evaluated in its frame
    defect /= q.p1
    return ErrorVector((1.0 / (1j * scale * b) - 1.0 / (1j * scale * a)) * defect)


def integrated_error(
    c: Configuration, a: float, b: float
) -> tuple[ErrorVector, PlanarCurve, ScaleFactor]:
    """Endpoint error by direct arc integration of the normalized step curve."""
    length = np.asarray(c.gaps())
    sigma = TWO_PI / (a * (length[0] + length[2]) + b * (length[1] + length[3]))
    values = sigma * np.array([a, b, a, b])
    curve = integrate_arcs(values, length)
    return error_vector(curve), curve, ScaleFactor(sigma)


def error_winding_on_core_link(a: float, b: float, loop) -> int:
    """Winding number of the closed-form error along a loop of configurations.

    The loop must stay away from the core; configurations closer than 1e-6
    are rejected, an error magnitude below 1e-12 along the loop raises
    :class:`LoopTouchesCore`, and a loop too sparse to count raises
    :class:`~fourvertex.integrator.InsufficientDensity`.
    """
    errors = []
    for c in loop:
        if abs(core_defect(c)) <= 1e-6:
            raise ValueError("loop passes too close to the core")
        e = closed_form_error(c, a, b).e
        if abs(e) < 1e-12:
            raise LoopTouchesCore("error magnitude vanished along the loop")
        errors.append(e)
    return winding_number(errors)


def random_configuration(rng, reduced: bool = False) -> Configuration:
    """Random counterclockwise configuration with all gaps above MIN_GAP."""
    while True:
        angles = np.sort(rng.uniform(0.0, TWO_PI, size=3))
        gaps = np.diff(np.concatenate(([0.0], angles, [TWO_PI])))
        if np.min(gaps) > MIN_GAP:
            break
    rot = 1.0 if reduced else cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    return Configuration(rot, *(rot * np.exp(1j * angles)))


def random_core_configuration(rng, reduced: bool = False) -> Configuration:
    """Random configuration with both opposite pairs exactly antipodal."""
    x = rng.uniform(MIN_GAP / TWO_PI, 0.5 - MIN_GAP / TWO_PI)
    p = cmath.exp(2j * math.pi * x)
    rot = 1.0 if reduced else cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    return Configuration(rot, rot * p, -rot, -rot * p)
