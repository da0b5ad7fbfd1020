"""Curvature functions on the circle.

Profiles are periodic real functions sampled on a uniform grid over
[0, 2*pi) and interpolated piecewise-linearly.  The module also provides
circle diffeomorphisms stored as monotone piecewise-linear lifts, two-value
step specifications, plateau-aware extrema detection, and the preprocessing
warp that makes a profile close in measure to a two-value step function.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# |integral| below this fraction of max|kappa| * 2*pi counts as zero.
ZERO_TOTAL_REL = 1e-8
PLATEAU_TOL = 1e-9        # samples this close to a plateau's running mean join it


class ZeroTotalCurvature(ValueError):
    """Total curvature is too close to zero, or too large, to normalize."""


class HypothesisViolated(ValueError):
    """The profile lacks two local maxima and two local minima."""


class ConstructionFailed(RuntimeError):
    """A constructed warp failed its verification check."""


@dataclass(frozen=True)
class CurvatureProfile:
    """Periodic real function on [0, 2*pi), sampled on a uniform grid and
    interpolated linearly; ``interp`` accepts "linear" only."""

    samples: np.ndarray
    interp: str = "linear"

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 8:
            raise ValueError("profile needs at least 8 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("profile samples must be finite")
        if self.interp != "linear":
            raise ValueError(f"unknown interpolation mode {self.interp!r}")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def grid(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / self.n

    def __call__(self, t):
        """Evaluate at parameter(s) t; evaluation is 2*pi periodic."""
        t = np.asarray(t, dtype=float)
        if not t.ndim:
            return float(self(t.reshape(1))[0])
        w = mod_two_pi(t)  # a new array, then the weight of the right-hand sample
        w /= TWO_PI
        w *= self.n
        i0 = np.floor(w)
        w -= i0
        # snap to the grid so sampling at grid points is exact
        hi = w > 1.0 - 1e-9
        i0 = i0.astype(np.intp)
        i0 += hi
        hi |= w < 1e-9
        np.copyto(w, 0.0, where=hi)
        out = self.samples.take(i0, mode="wrap")
        i0 += 1
        right = self.samples.take(i0, mode="wrap")
        right *= w
        np.subtract(1.0, w, out=w)
        out *= w
        out += right
        return out


def mod_two_pi(t: np.ndarray) -> np.ndarray:
    """``np.mod(t, TWO_PI)`` bit for bit, in one ``np.where`` pass for t in [-2*pi, 4*pi).

    There the result is t + 2*pi, t or t - 2*pi, and each is what np.mod
    rounds to (t - 2*pi is exact by Sterbenz's lemma); np.mod, several
    times slower, takes every other input, NaN included.
    """
    if t.size and t.min() >= -TWO_PI and t.max() < 2.0 * TWO_PI:
        return np.where(t >= TWO_PI, t - TWO_PI, t + TWO_PI * (t < 0.0))
    return np.mod(t, TWO_PI)


def profile_from_function(fn: Callable, n: int = 4096) -> CurvatureProfile:
    """Sample a vectorized callable on the uniform grid."""
    grid = TWO_PI * np.arange(n) / n
    return CurvatureProfile(np.asarray(fn(grid), dtype=float))


@dataclass(frozen=True)
class StepSpec:
    """Two-value step function: values a, b, a, b on four consecutive arcs."""

    a: float
    b: float
    breakpoints: tuple = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise ValueError("step values must satisfy 0 < a < b")
        bps = tuple(float(t) for t in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) != 4:
            raise ValueError("exactly four breakpoints required")
        if any(not (0.0 <= t < TWO_PI) for t in bps):
            raise ValueError("breakpoints must lie in [0, 2*pi)")
        if any(bps[i] >= bps[i + 1] for i in range(3)):
            raise ValueError("breakpoints must be strictly increasing")

    def value_at(self, t):
        """Step value at parameter(s) t: a on [p0, p1) and [p2, p3), b elsewhere.

        Each breakpoint is compared with the key (t mod 2*pi) + 1e-12, so the
        arcs are closed on the left; NaN and +-inf give b.
        """
        key = mod_two_pi(np.asarray(t, dtype=float)) + 1e-12
        p0, p1, p2, p3 = self.breakpoints
        out = np.where(((p0 <= key) & (key < p1)) | ((p2 <= key) & (key < p3)), self.a, self.b)
        return out if out.ndim else float(out)


def profile_from_step(spec: StepSpec, n: int = 4096) -> CurvatureProfile:
    """The step's values on the uniform grid, interpolated linearly between them."""
    return CurvatureProfile(spec.value_at(TWO_PI * np.arange(n) / n))


@dataclass(frozen=True)
class CircleDiffeo:
    """Orientation-preserving circle diffeomorphism stored as a monotone lift.

    ``knots`` and ``values`` are strictly increasing piecewise-linear lift
    samples spanning exactly one period each.  Evaluation extends to all
    reals by the degree-one rule f(t + 2*pi) = f(t) + 2*pi.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.ndim != 1 or knots.size < 2 or knots.shape != values.shape:
            raise ValueError("knots and values must be matching 1-d arrays")
        if not (np.all(np.diff(knots) > 0) and np.all(np.diff(values) > 0)):
            raise ValueError("lift must be strictly increasing")
        if abs((knots[-1] - knots[0]) - TWO_PI) > 1e-9:
            raise ValueError("knots must span one period")
        if abs((values[-1] - values[0]) - TWO_PI) > 1e-9:
            raise ValueError("lift must have degree one")

    @classmethod
    def identity(cls) -> "CircleDiffeo":
        return cls(np.array([0.0, TWO_PI]), np.array([0.0, TWO_PI]))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not t.ndim:
            return float(self(t.reshape(1))[0])
        k0 = self.knots.item(0)
        span = self.knots.item(-1) - k0
        vspan = self.values.item(-1) - self.values.item(0)
        wind = np.subtract(t, k0)
        wind /= span
        np.floor(wind, out=wind)
        tr = np.multiply(wind, span)
        np.subtract(t, tr, out=tr)
        out = np.interp(tr, self.knots, self.values)
        wind *= vspan
        out += wind
        return out


@dataclass(frozen=True)
class ScaleFactor:
    c: float

    def __post_init__(self):
        if not math.isfinite(self.c) or self.c == 0.0:
            raise ValueError("scale factor must be finite and nonzero")


class Plateau(NamedTuple):
    """Cyclic run of near-equal samples that is a strict local extremum."""

    start: int
    length: int
    kind: str  # "max" or "min"
    value: float


class AbabPoints(NamedTuple):
    """Window values 0 < a < b and four parameters attaining a, b, a, b."""

    a: float
    b: float
    params: tuple
    sign_flipped: bool


def total_curvature(k: CurvatureProfile) -> float:
    """Integral over one period: on a uniform periodic grid the linear
    interpolant integrates to the sample mean times 2*pi.  A sum that
    overflows gives inf, which normalizing_scale rejects."""
    with np.errstate(over="ignore"):
        return float(np.mean(k.samples) * TWO_PI)


def normalizing_scale(total: float, samples: np.ndarray) -> ScaleFactor:
    """Factor taking a total curvature of ``total`` to 2*pi; rejects a near-zero or inf total."""
    if abs(total) < ZERO_TOTAL_REL * max(samples.max(), -samples.min()) * TWO_PI:
        raise ZeroTotalCurvature(f"total curvature {total:.3e} below threshold")
    if not math.isfinite(total):
        raise ZeroTotalCurvature(f"total curvature {total} overflows")
    return ScaleFactor(TWO_PI / total)


def normalize_total(k: CurvatureProfile) -> tuple[CurvatureProfile, ScaleFactor]:
    """Rescale so the total curvature equals 2*pi."""
    sc = normalizing_scale(total_curvature(k), k.samples)
    return CurvatureProfile(sc.c * k.samples), sc


def compose(k: CurvatureProfile, d: CircleDiffeo) -> CurvatureProfile:
    """Pointwise k(d(t)), resampled on k's uniform grid."""
    return CurvatureProfile(np.asarray(k(d(k.grid)), dtype=float))


def plateau_extrema(values) -> list[Plateau]:
    """Strict local extrema of a cyclic sequence after collapsing plateaus.

    Consecutive entries within ``PLATEAU_TOL`` of the running plateau mean are
    grouped, and neighbouring groups with equal means join; a plateau is
    reported iff its value is strictly above (max) or strictly below (min)
    both neighbouring plateau values, so maxima and minima alternate.
    ``start`` is the first index of the run and the run may wrap past the
    end.  A constant sequence yields an empty list; a NaN raises ValueError.
    The input is never written to.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    top = np.abs(v).max(initial=0.0).item()
    if math.isnan(top):
        raise ValueError("plateau_extrema needs values without NaN")
    if n < 2:
        return []
    # A group's last member lies within PLATEAU_TOL of its running mean, so a
    # step above 2*PLATEAU_TOL (plus slack for the rounding of the means)
    # always starts a new group; the running-mean rule runs only inside runs
    # of smaller steps.
    big = 2.0 * PLATEAU_TOL + 16.0 * 2.0 ** -52 * top
    head = np.empty(n + 1, dtype=bool)  # first sample of a group, and a sentinel at n
    head[0] = head[n] = True
    np.greater(np.abs(v[1:] - v[:-1]), big, out=head[1:n])
    edges = head.nonzero()[0]
    start, count = edges[:-1], edges[1:] - edges[:-1]
    total = mean = v  # while every group is one sample, its sum and mean
    if edges.size <= n:  # some group holds more than one sample
        total = v.copy()  # each group's sum, kept at its first sample
        long = count > 1
        for a, length in zip(start[long].tolist(), count[long].tolist()):
            g, s = a, float(v[a])
            for j, x in enumerate(v[a + 1:a + length].tolist(), a + 1):
                if abs(x - s / (j - g)) <= PLATEAU_TOL:
                    s += x
                else:
                    total[g], head[j], g, s = s, True, j, x
            total[g] = s
        edges = head.nonzero()[0]
        start, count = edges[:-1], edges[1:] - edges[:-1]
        total = total[start]
        mean = total / count
    if start.size > 1 and abs(mean.item(0) - mean.item(-1)) <= PLATEAU_TOL:
        # cyclic wrap: the first group continues the last one
        start[0] = start[-1]
        count[0] += count[-1]
        start, count, mean = start[:-1], count[:-1], mean[:-1].copy()  # mean may be v
        mean[0] = (total[0] + total[-1]) / count[0]
    if start.size < 2:
        return []
    # neighbouring plateaus whose means compare equal are one plateau, else
    # neither is a strict extremum and the extrema need not alternate
    if mean.item(0) == mean.item(-1) or np.count_nonzero(mean[1:] == mean[:-1]):
        head = (mean != np.roll(mean, 1)).nonzero()[0]
        if head.size < 2:
            return []
        # the run through index 0 starts at head[-1]
        count = np.add.reduceat(np.roll(count, -head[0]), head - head[0])
        start, mean = start[head], mean[head]
    # Neighbouring means now differ, so the means rise into a plateau or fall
    # into it, and it is an extremum iff they turn there: a max where they
    # rise into it, a min where they fall.
    m = mean.size
    ring = np.empty(m + 1)  # the last mean, then every mean
    ring[0] = mean.item(-1)
    ring[1:] = mean
    rise = np.empty(m + 1, dtype=bool)  # the means rise into plateau i; rise[m] is rise[0]
    np.greater(ring[1:], ring[:-1], out=rise[:m])
    rise[m] = rise[0]
    g = (rise[:m] != rise[1:]).nonzero()[0]
    return [Plateau(a, length, "max" if up else "min", value) for a, length, up, value
            in zip(start[g].tolist(), count[g].tolist(), rise[g].tolist(), mean[g].tolist())]


def _cyclic_between(start: int, end: int, query: int, n: int) -> bool:
    """True when ``query`` lies strictly inside the cyclic arc start -> end."""
    return (query - start) % n < (end - start) % n and query != start


def _first_crossing(
    w: np.ndarray, j0: int, j1: int, level: float, upward: bool
) -> tuple[float, int]:
    """First grid-cell crossing of ``level`` in cells j0 -> j1, both included, cyclically."""
    n = w.size
    j0 %= n
    stop = j0 + (j1 - j0) % n + 1  # one past the last cell, counted on past n
    ring = w if stop < n else np.concatenate((w, w[:stop - n + 1]))
    w0, w1 = ring[j0:stop], ring[j0 + 1:stop + 1]
    hit = (w0 < level) & (level <= w1) if upward else (w1 < level) & (level <= w0)
    if not hit.any():
        raise ConstructionFailed("level crossing not found")
    j = (j0 + int(hit.argmax())) % n
    lo = w.item(j)
    frac = (level - lo) / (w.item((j + 1) % n) - lo)
    return (TWO_PI * j / n + frac * (TWO_PI / n)) % TWO_PI, j


def _pick_window(plateaus: list[Plateau], samples: np.ndarray):
    """Window values and crossing parameters, or None if no positive window."""
    n = samples.size
    maxima = [p for p in plateaus if p.kind == "max"]
    minima = [p for p in plateaus if p.kind == "min"]
    top = sorted(maxima, key=lambda p: -p.value)[:2]
    ma, mb = sorted(top, key=lambda p: p.start)
    arc1 = [p for p in minima if _cyclic_between(ma.start, mb.start, p.start, n)]
    arc2 = [p for p in minima if _cyclic_between(mb.start, ma.start, p.start, n)]
    m1 = min(arc1, key=lambda p: p.value)
    m2 = min(arc2, key=lambda p: p.value)
    hi = min(ma.value, mb.value)
    lo = max(max(m1.value, m2.value), 0.0)
    if hi - lo <= 0.0:
        return None
    delta = (hi - lo) / 10.0
    a, b = lo + delta, hi - delta

    def end(p: Plateau) -> int:
        # scanning starts at the plateau's last sample so that a crossing
        # within the very next cell (a step jump) is not missed
        return (p.start + p.length - 1) % n

    p1, j_a = _first_crossing(samples, end(m2), ma.start, a, upward=True)
    p2, _ = _first_crossing(samples, j_a, ma.start, b, upward=True)
    p3, _ = _first_crossing(samples, end(ma), m1.start, a, upward=False)
    p4, _ = _first_crossing(samples, end(m1), mb.start, b, upward=True)
    return a, b, (p1, p2, p3, p4)


def find_abab_points(k: CurvatureProfile) -> AbabPoints:
    """Find 0 < a < b attained in the pattern a, b, a, b around the circle.

    The window is cut from the two largest interleaved maxima and the two
    smallest interleaved minima, shaved by a tenth of its height and clamped
    to positive values.  When the profile itself admits no positive window,
    the search runs on its negation and ``sign_flipped`` is set.

    One of the two always has a window.  Maxima and minima alternate
    (:func:`plateau_extrema`), so the two chosen maxima have a minimum on
    each arc between them, below both, and k lacks a window only when its
    second-largest maximum is <= 0; likewise -k only when k's second-smallest
    minimum is >= 0.  Every maximum is above both neighbouring minima, of
    which at most one is the smallest minimum, so the second condition makes
    every maximum positive and rules out the first.
    """
    plateaus = plateau_extrema(k.samples)
    if len(plateaus) < 4:  # as many maxima as minima, since they alternate
        raise HypothesisViolated(
            f"need two maxima and two minima, found {len(plateaus) // 2} of each")
    win = _pick_window(plateaus, k.samples)
    flipped = win is None
    if flipped:
        neg = [Plateau(p.start, p.length, "min" if p.kind == "max" else "max", -p.value)
               for p in plateaus]
        win = _pick_window(neg, -k.samples)
    a, b, params = win
    return AbabPoints(a, b, params, flipped)


def _unwrap_cyclic(params) -> np.ndarray:
    """Lift four cyclically ordered circle parameters to an increasing sequence."""
    u = [float(params[0])]
    for p in params[1:]:
        gap = (float(p) - u[-1]) % TWO_PI
        u.append(u[-1] + gap)
    if u[-1] - u[0] >= TWO_PI:
        raise ValueError("parameters are not in cyclic order")
    return np.array(u)


def _window_radii(k: CurvatureProfile, centres, targets, starts, cap: float) -> np.ndarray:
    """Per window, the first of start, 0.6 * start, ... above 1e-11 where k stays near target.

    A radius d passes when |k - target| <= cap on all of
    [centre - d, centre + d].  k is linear between grid samples, so there
    |k - target| peaks at a grid sample inside the interval or at one of
    its two ends: d passes when it is below the distance from the centre to
    the nearest sample beyond the cap on either side, and both ends keep
    within the cap.  One profile call decides every radius of every window.
    When none passes, the window's result is the 1e-11 floor.
    """
    h = TWO_PI / k.n
    centres, targets, starts = (np.asarray(v, dtype=float) for v in (centres, targets, starts))
    # the samples that each widest interval holds, and their offsets from its centre
    spans = [np.arange(math.floor((c - s) / h), math.ceil((c + s) / h) + 1)
             for c, s in zip(centres.tolist(), starts.tolist())]
    sizes = [j.size for j in spans]
    j = np.concatenate(spans)
    offset = np.abs(j * h - np.repeat(centres, sizes))
    dev = k.samples.take(j, mode="wrap")
    dev -= np.repeat(targets, sizes)
    np.copyto(offset, math.inf, where=np.abs(dev, out=dev) <= cap)  # keep the far samples
    reach = np.minimum.reduceat(offset, np.cumsum([0] + sizes[:-1]))
    # row i: start_i, 0.6 * start_i, ..., each a product of the one before
    count = math.log(max(starts.max(), 1e-11) / 1e-11) / math.log(1.0 / 0.6)
    d = np.full((starts.size, int(count) + 3), 0.6)
    d[:, 0] = starts
    np.multiply.accumulate(d, axis=1, out=d)
    ends = np.multiply.outer((-1.0, 1.0), d)
    ends += centres[:, None]
    ends = k(ends.ravel()).reshape(ends.shape)
    ends -= targets[:, None]
    np.abs(ends, out=ends)
    ok = (d > 1e-11) & (d < reach[:, None]) & (np.maximum(ends[0], ends[1]) <= cap)
    pick = ok.argmax(axis=1)
    return np.where(ok.any(axis=1), d[np.arange(starts.size), pick], 1e-11)


def _mismatch_measure(k: CurvatureProfile, h1: CircleDiffeo, step: StepSpec,
                      eps: float) -> float:
    """Exact measure{ t in one period : |k(h1(t)) - step(t)| > eps }.

    The period is cut at the h1-preimages of k's grid points, where k(h1)
    is that grid sample, and at h1's knots and the step's breakpoints,
    merged in by binary search.  On each piece h1 is linear, the step is
    constant and k is linear between neighbouring grid points, so
    f = k(h1(t)) - step(t) is linear there and the measure of {|f| > eps}
    on the piece has a closed form; the step's value on a piece is its value
    at the piece's midpoint.  Time and memory are O(n + number of knots).
    """
    lo, hi = h1.values.item(0), h1.values.item(-1)
    n = k.n
    m = np.arange(math.ceil(lo * n / TWO_PI), math.floor(hi * n / TWO_PI) + 1)
    k0 = h1.knots.item(0)
    breaks = [k0 + (p - k0) % TWO_PI for p in step.breakpoints]
    cuts = np.sort(np.concatenate((h1.knots, breaks)), kind="stable")
    # a cut that repeats only adds a piece of length zero
    grid = m * (TWO_PI / n)
    pre = np.interp(grid, h1.values, h1.knots)
    # merge the cuts in, in the order np.insert(pre, searchsorted(pre, cuts), cuts) gives
    slot = np.searchsorted(pre, cuts)
    slot += np.arange(cuts.size)
    t = np.empty(pre.size + cuts.size)
    kt = np.empty(t.size)
    is_pre = np.ones(t.size, dtype=bool)
    is_pre[slot] = False
    t[slot] = cuts
    t[is_pre] = pre
    kt[slot] = k(h1(cuts))
    kt[is_pre] = k.samples.take(m, mode="wrap")
    mid = t[:-1] + t[1:]
    mid *= 0.5
    target = step.value_at(mid)
    fa, fb = kt[:-1] - target, kt[1:] - target
    rise = np.subtract(fb, fa)
    np.abs(rise, out=rise)
    sloped = rise > 0.0
    width = np.subtract(t[1:], t[:-1], out=mid)
    above, below = np.maximum(fa, fb), np.minimum(fa, fb)
    np.negative(below, out=below)
    measure = 0.0
    for top in (above, below):
        # share of the piece where f > eps (then -f > eps): f passes eps
        # linearly, or lies wholly above or below it on a flat piece
        top -= eps
        share = (top > 0.0).astype(float)
        np.maximum(top, 0.0, out=top)
        np.minimum(top, rise, out=top)  # np.clip(top, 0.0, rise)
        np.divide(top, rise, out=share, where=sloped)
        measure += float(width @ share)
    return measure


def build_h1(
    k: CurvatureProfile,
    abab: AbabPoints,
    step: StepSpec,
    eps: float,
) -> CircleDiffeo:
    """Warp so that k composed with the result is eps-close in measure to the step.

    Each step arc, except for thin slivers at its ends, is mapped onto a
    small neighbourhood of the matching window point (where k is within
    eps/8 of the arc's value); the slivers absorb the rest of k's domain.
    One profile call decides the four neighbourhoods' radii
    (``_window_radii``).
    The measure bound

        measure{ t : |k(h1(t)) - step(t)| > eps } < eps

    is verified exactly before returning, piece by piece between the knots
    of h1, the step's breakpoints and the preimages of k's grid
    (``_mismatch_measure``, O(n) time and memory).  It holds by
    construction: outside the eight slivers of width at most eps/32 each,
    k(h1) stays within eps/8 of the step, so the mismatch has measure at
    most eps/4.  A measure of eps or more, or knots that do not define a
    diffeomorphism, raise ConstructionFailed.  The window must be one of k
    itself: a sign-flipped window is a window of -k, and k does not attain
    its values at its points, raising ValueError.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not (math.isclose(step.a, abab.a, rel_tol=1e-9)
            and math.isclose(step.b, abab.b, rel_tol=1e-9)):
        raise ValueError("step values must match the window values")

    u = _unwrap_cyclic(abab.params)
    targets = np.array([abab.a, abab.b, abab.a, abab.b])
    if np.any(np.abs(k(u) - targets) > 1e-6 * np.maximum(1.0, targets)):
        raise ValueError("window points do not attain the window values")

    bps = step.breakpoints
    arc_len = [q - p for p, q in zip(bps, bps[1:] + (bps[0] + TWO_PI,))]
    uu = u.tolist()
    gaps = [q - p for p, q in zip(uu, uu[1:] + [uu[0] + TWO_PI])]
    # window radii before shrinking
    starts = [0.4 * min(p, q) for p, q in zip(gaps[-1:] + gaps[:-1], gaps)]

    sliver = min(eps / 32.0, 0.25 * min(arc_len))
    deltas = _window_radii(k, u, targets, starts, eps / 8.0).tolist()
    end_mid = 0.5 * ((uu[3] + deltas[3]) + (uu[0] + TWO_PI - deltas[0]))
    knots = [bps[0]]
    vals = [end_mid - TWO_PI]
    for i in range(4):
        knots.extend([bps[i] + sliver, bps[i] + arc_len[i] - sliver])
        vals.extend([uu[i] - deltas[i], uu[i] + deltas[i]])
    knots.append(bps[0] + TWO_PI)
    vals.append(end_mid)
    try:
        h1 = CircleDiffeo(np.array(knots), np.array(vals))
    except ValueError as ex:
        raise ConstructionFailed(f"warp knots: {ex}") from None
    measure = _mismatch_measure(k, h1, step, eps)
    if measure >= eps:
        raise ConstructionFailed(f"mismatch measure {measure:.3g} is not below eps {eps:.3g}")
    return h1
