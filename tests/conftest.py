import numpy as np
import pytest

from fourvertex.curvature import TWO_PI, CurvatureProfile
from fourvertex.integrator import PlanarCurve


def polar_curve(r_fn, rp_fn, n: int) -> PlanarCurve:
    """Closed curve r(t) in polar coordinates, tagged with the polar angle.

    Arc length accumulates by Simpson's rule per interval so the discrete
    curvature stays faithful to the analytic one.
    """
    t = TWO_PI * np.arange(n + 1) / n
    gamma = r_fn(t) * np.exp(1j * t)
    dgamma = (rp_fn(t) + 1j * r_fn(t)) * np.exp(1j * t)
    theta = np.unwrap(np.angle(dgamma))

    def speed(u):
        return np.abs(rp_fn(u) + 1j * r_fn(u))

    tm = 0.5 * (t[1:] + t[:-1])
    ds = (speed(t[:-1]) + 4.0 * speed(tm) + speed(t[1:])) / 6.0 * np.diff(t)
    s = np.concatenate(([0.0], np.cumsum(ds)))
    return PlanarCurve(s=s, pos=gamma, theta=theta, t=t)


def limacon_curve(n: int = 8192) -> PlanarCurve:
    """r = -1 - 2 sin t: one large and one small loop, a single crossing."""
    return polar_curve(lambda t: -1.0 - 2.0 * np.sin(t),
                       lambda t: -2.0 * np.cos(t), n)


def ellipse_curve(n: int = 4096, a: float = 2.0, b: float = 1.0) -> PlanarCurve:
    t = TWO_PI * np.arange(n + 1) / n
    gamma = a * np.cos(t) + 1j * b * np.sin(t)
    dgamma = -a * np.sin(t) + 1j * b * np.cos(t)
    theta = np.unwrap(np.angle(dgamma))

    def speed(u):
        return np.hypot(a * np.sin(u), b * np.cos(u))

    tm = 0.5 * (t[1:] + t[:-1])
    ds = (speed(t[:-1]) + 4.0 * speed(tm) + speed(t[1:])) / 6.0 * np.diff(t)
    s = np.concatenate(([0.0], np.cumsum(ds)))
    return PlanarCurve(s=s, pos=gamma, theta=theta, t=t)


def ellipse_kappa(t, a: float = 2.0, b: float = 1.0):
    return a * b / (a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2) ** 1.5


def trig_profile(c0, coefs, n=4096):
    """c0 + cos 2t plus the degree-<=5 trig polynomial with cosine then sine coefs."""
    t = TWO_PI * np.arange(n) / n
    degrees = np.arange(1, 6)[:, None]
    poly = (np.asarray(coefs[:5]) @ np.cos(degrees * t)
            + np.asarray(coefs[5:]) @ np.sin(degrees * t))
    return CurvatureProfile(c0 + np.cos(2 * t) + poly)


@pytest.fixture(scope="session")
def limacon():
    return limacon_curve()


@pytest.fixture(scope="session")
def ellipse():
    return ellipse_curve()
