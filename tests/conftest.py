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


def sweep_profiles() -> list:
    """The sweep: 160 seeded trig profiles, the last 60 with c0 in [-1.05, -0.5]."""
    rng = np.random.default_rng(12345)
    return [trig_profile(rng.uniform(-2.5, 2.5) if i < 100 else rng.uniform(-1.05, -0.5),
                         rng.uniform(-0.1, 0.1, size=10)) for i in range(160)]


def rich_family(n=4096) -> list:
    """The rich family: 200 seeded profiles c0 + sum_j (a_j cos jt + b_j sin jt), j <= 15."""
    rng = np.random.default_rng(5)
    t = TWO_PI * np.arange(n) / n
    out = []
    for _ in range(200):
        deg = int(rng.integers(3, 16))
        a, b = rng.normal(0, 1, size=(2, deg)) / np.arange(1, deg + 1)
        c0 = rng.uniform(-1, 3)
        j = np.arange(1, deg + 1)[:, None]
        out.append(CurvatureProfile(c0 + a @ np.cos(j * t) + b @ np.sin(j * t)))
    return out


def dyadic_polygon(kappa) -> PlanarCurve:
    """Closed polygon whose ``curvature_samples`` equal the dyadic sequence ``kappa`` exactly.

    Samples sit at s_j = j 2^-6 on a circle of the same length, m 2^-6 for m
    samples.  The central difference at j reads theta_{j+1} - theta_{j-1}
    over 2^-5, so theta is built as two chains, theta_{j+1} = theta_{j-1}
    + 2^-5 kappa_j, from theta_0 = 0 and theta_1 = 2^-6 kappa_0; each sum is
    exact for values of a few dozen bits.  The closing sample reads both
    chains, so m must be even and the sums of kappa over even and over odd
    indices must agree: either sum times 2^-5 is the total turn.
    """
    kappa = np.asarray(kappa, dtype=float)
    m = kappa.size
    assert m % 2 == 0 and kappa[::2].sum() == kappa[1::2].sum()
    h = 2.0 ** -6
    theta = np.empty(m + 1)
    theta[0], theta[1] = 0.0, h * kappa[0]
    for j in range(1, m):
        theta[j + 1] = theta[j - 1] + 2.0 * h * kappa[j]
    length = m * h
    angle = TWO_PI * np.arange(m + 1) / m
    pos = length / TWO_PI * np.exp(1j * (angle - 0.5 * np.pi))
    pos[m] = pos[0]
    return PlanarCurve(s=h * np.arange(m + 1), pos=pos, theta=theta)


@pytest.fixture(scope="session")
def limacon():
    return limacon_curve()


@pytest.fixture(scope="session")
def ellipse():
    return ellipse_curve()
