import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fourvertex.curvature import (
    PLATEAU_TOL,
    TWO_PI,
    CircleDiffeo,
    ConstructionFailed,
    CurvatureProfile,
    HypothesisViolated,
    Plateau,
    ScaleFactor,
    StepSpec,
    ZeroTotalCurvature,
    build_h1,
    compose,
    find_abab_points,
    normalize_total,
    plateau_extrema,
    profile_from_function,
    profile_from_step,
    total_curvature,
)
from fourvertex import curvature
from fourvertex.curvature import AbabPoints, _first_crossing, _mismatch_measure, _window_radii

from conftest import trig_profile


def cos2t(n=1024):
    return profile_from_function(lambda t: np.cos(2 * t), n=n)


def ridge(n=4096):
    return profile_from_function(lambda t: 1.5 + np.cos(2 * t), n=n)


def rotation(phi):
    return CircleDiffeo(np.array([0.0, TWO_PI]), np.array([phi, phi + TWO_PI]))


class TestProfile:
    def test_needs_eight_samples(self):
        with pytest.raises(ValueError):
            CurvatureProfile(np.ones(7))

    def test_rejects_nan(self):
        bad = np.ones(16)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            CurvatureProfile(bad)

    def test_rejects_unknown_interp(self):
        for interp in ("cubic", "step"):
            with pytest.raises(ValueError):
                CurvatureProfile(np.ones(16), interp)

    def test_periodic_evaluation(self):
        k = ridge(512)
        for t in (0.0, 0.25, 1.0, 2.5):
            assert k(t) == k(t + TWO_PI)

    def test_linear_interpolation_midpoint(self):
        k = CurvatureProfile(np.arange(8, dtype=float))
        dt = TWO_PI / 8
        assert k(0.5 * dt) == pytest.approx(0.5, abs=1e-12)

    def test_step_spec_holds_left_value(self):
        # StepSpec.value_at is the one evaluator of a step function
        spec = StepSpec(0.5, 2.0)
        assert spec.value_at(0.3 * TWO_PI / 16) == 0.5
        assert spec.value_at(4 * TWO_PI / 16) == 2.0  # breakpoint belongs to the next arc
        assert list(profile_from_step(spec, 16).samples[3:5]) == [0.5, 2.0]


class TestTotalCurvature:
    def test_constant(self):
        k = profile_from_function(lambda t: np.ones_like(t), n=64)
        assert total_curvature(k) == pytest.approx(TWO_PI, abs=1e-14)

    def test_step_quarters(self):
        k = profile_from_step(StepSpec(0.5, 2.0), 4096)
        assert total_curvature(k) == pytest.approx(2.5 * math.pi, abs=1e-12)

    def test_mean_zero(self):
        assert abs(total_curvature(cos2t())) < 1e-12


class TestNormalize:
    def test_constant_two(self):
        k = profile_from_function(lambda t: 2.0 * np.ones_like(t), n=64)
        kn, sc = normalize_total(k)
        assert sc.c == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(kn.samples, 1.0)

    def test_step_scale(self):
        k = profile_from_step(StepSpec(0.5, 2.0), 4096)
        _, sc = normalize_total(k)
        assert sc.c == pytest.approx(0.8, abs=1e-13)

    def test_zero_total_raises(self):
        with pytest.raises(ZeroTotalCurvature):
            normalize_total(cos2t())

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.05, max_value=5.0),
           st.booleans(),
           st.floats(min_value=0.2, max_value=3.0))
    def test_idempotent(self, shift, negative, scale):
        # the mean stays clear of cancellation; near-zero totals amplify
        # roundoff beyond any fixed bound
        if negative:
            shift = -shift
        samples = scale * (0.04 * np.cos(3 * np.linspace(0, TWO_PI, 128,
                                                         endpoint=False))
                           + shift)
        k1, _ = normalize_total(CurvatureProfile(samples))
        k2, sc2 = normalize_total(k1)
        assert np.max(np.abs(k2.samples - k1.samples)) < 1e-12
        assert abs(sc2.c - 1.0) < 1e-12


class TestCompose:
    def test_identity_exact(self):
        k = ridge(512)
        k2 = compose(k, CircleDiffeo.identity())
        assert np.array_equal(k2.samples, k.samples)

    def test_rotation_rolls_step_samples(self):
        k = profile_from_step(StepSpec(0.5, 2.0), 1024)
        k2 = compose(k, rotation(0.5 * math.pi))
        assert np.allclose(k2.samples, np.roll(k.samples, -256))

    def test_warp_matches_direct_evaluation(self):
        k = profile_from_function(np.sin, n=4096)
        grid = np.linspace(0, TWO_PI, 513)
        lift = grid + 0.5 * np.sin(grid)  # strictly increasing, degree one
        d = CircleDiffeo(grid, lift)
        k2 = compose(k, d)
        rng = np.random.default_rng(0)
        t = rng.uniform(0, TWO_PI, size=1000)
        direct = np.sin(np.asarray(d(t)))
        assert np.max(np.abs(np.asarray(k2(t)) - direct)) < 1e-4

    def test_inverse_round_trip(self):
        k = ridge(4096)
        grid = np.linspace(0, TWO_PI, 257)
        d = CircleDiffeo(grid, grid + 0.4 * np.sin(grid + 1.0))
        inverse = CircleDiffeo(d.values, d.knots)  # the exact inverse: axes swapped
        back = compose(compose(k, d), inverse)
        assert np.max(np.abs(back.samples - k.samples)) < 2e-3  # O(1/N)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_inverse_round_trip_random_warps(self, seed):
        rng = np.random.default_rng(seed)
        k = ridge(4096)
        increments = rng.uniform(0.05, 1.0, size=64)
        lift = np.concatenate(([0.0], np.cumsum(increments)))
        lift *= TWO_PI / lift[-1]
        d = CircleDiffeo(np.linspace(0, TWO_PI, 65), rng.uniform(0, TWO_PI) + lift)
        inverse = CircleDiffeo(d.values, d.knots)  # the exact inverse: axes swapped
        back = compose(compose(k, d), inverse)
        assert np.max(np.abs(back.samples - k.samples)) < 5e-3


class TestCircleDiffeo:
    def test_monotonicity_required(self):
        with pytest.raises(ValueError):
            CircleDiffeo(np.array([0.0, TWO_PI]), np.array([1.0, 0.0 + TWO_PI]))

    def test_degree_one_required(self):
        with pytest.raises(ValueError):
            CircleDiffeo(np.array([0.0, TWO_PI]), np.array([0.0, 1.5 * TWO_PI]))

    def test_degree_one_extension(self):
        d = rotation(1.0)
        assert d(0.5 + TWO_PI) == pytest.approx(d(0.5) + TWO_PI, abs=1e-12)


class TestLocalExtrema:
    def test_smooth_two_by_two(self):
        ext = plateau_extrema(ridge().samples)
        kinds = [p.kind for p in ext]
        values = sorted(p.value for p in ext)
        assert kinds.count("max") == 2 and kinds.count("min") == 2
        assert values[0] == pytest.approx(0.5, abs=1e-6)
        assert values[-1] == pytest.approx(2.5, abs=1e-6)

    def test_constant_empty(self):
        k = profile_from_function(lambda t: np.ones_like(t), n=64)
        assert plateau_extrema(k.samples) == []

    def test_step_plateaus(self):
        k = profile_from_step(StepSpec(1.0, 3.0), 1024)
        ext = plateau_extrema(k.samples)
        assert sorted(p.kind for p in ext) == ["max", "max", "min", "min"]
        assert {round(p.value, 12) for p in ext} == {1.0, 3.0}
        assert [p.length for p in ext] == [256] * 4


def reference_plateau_extrema(values):
    """One pass of the running-mean grouping rule, sample by sample, then equal means joined."""
    v = np.asarray(values, dtype=float)
    n = v.size
    starts, sums, counts = [], [], []
    for j in range(n):
        if starts and abs(v[j] - sums[-1] / counts[-1]) <= PLATEAU_TOL:
            sums[-1] += v[j]
            counts[-1] += 1
        else:
            starts.append(j)
            sums.append(v[j])
            counts.append(1)
    means = [s / c for s, c in zip(sums, counts)]
    if len(starts) > 1 and abs(means[0] - means[-1]) <= PLATEAU_TOL:
        starts[0] = starts[-1]
        counts[0] += counts[-1]
        sums[0] += sums[-1]
        means[0] = sums[0] / counts[0]
        del starts[-1], sums[-1], counts[-1], means[-1]
    # neighbours whose means compare equal join, the run keeping its first mean
    while len(means) > 1 and means[-1] == means[0]:
        counts[-1] += counts.pop(0)
        del starts[0], means[0]
    g = 1
    while g < len(means):
        if means[g] == means[g - 1]:
            counts[g - 1] += counts.pop(g)
            del starts[g], means[g]
        else:
            g += 1
    m = len(starts)
    if m < 2:
        return []
    out = []
    for g in range(m):
        prev = means[(g - 1) % m]
        nxt = means[(g + 1) % m]
        if means[g] > prev and means[g] > nxt:
            kind = "max"
        elif means[g] < prev and means[g] < nxt:
            kind = "min"
        else:
            continue
        out.append(Plateau(starts[g], counts[g], kind, means[g]))
    return out


@st.composite
def plateau_sequences(draw):
    """Step, plateau, noisy, smooth and integer cyclic sequences, rolled across index 0."""
    kind = draw(st.sampled_from(["step", "plateau", "noisy", "smooth", "integer"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    if kind == "integer":
        # small integers: exact ties at scale 1, steps near PLATEAU_TOL at 2^-31
        v = rng.integers(-3, 4, size=n) * draw(st.sampled_from([1.0, 2.0 ** -31]))
    elif kind == "step":
        levels = rng.choice(draw(st.lists(st.floats(-3, 3), min_size=1, max_size=4)), size=n)
        v = levels[np.sort(rng.integers(0, n, size=n))]
    elif kind == "plateau":
        # runs of sub-tolerance jitter and drift, some steps just above 2 tol
        spread = draw(st.sampled_from([0.3, 0.9, 1.0, 1.5, 2.0, 2.5]))
        levels = rng.integers(-2, 3, size=n) * draw(st.sampled_from([1.0, 3e-9, 1e-3]))
        v = (levels[np.sort(rng.integers(0, n, size=n))] + draw(st.floats(-50, 50))
             + np.cumsum(rng.uniform(-spread, spread, size=n)) * PLATEAU_TOL
             * draw(st.sampled_from([0.0, 1.0])))
        v = v + rng.uniform(-spread, spread, size=n) * PLATEAU_TOL
    elif kind == "noisy":
        t = TWO_PI * np.arange(n) / n
        v = np.cos(draw(st.integers(1, 4)) * t) + rng.normal(size=n) * PLATEAU_TOL * draw(
            st.sampled_from([0.1, 1.0, 10.0, 1e6]))
    else:
        t = TWO_PI * np.arange(n) / n
        v = draw(st.floats(1e-6, 1e3)) * np.cos(draw(st.integers(1, 6)) * t + draw(st.floats(0, 7)))
    return np.roll(v, draw(st.integers(0, n)))


# B starts a group of its own, 2^-29 off the zeros before it, each value within
# PLATEAU_TOL of the group's running mean; B sums to 0, so the zeros' group
# and B's have equal means
TIED_B = np.array([2048, 1127, 666, 359, 129, -56, -209, -341, -456, -558, -651, -734,
                   -811, -513]) * 2.0 ** -40
TIED_MEANS = np.concatenate(([-3, -2, -1, 0, 0], TIED_B, [-1, -2, -3, -2, -1, -0.5, -1, -2]))
# the wrap merge gives the first group the mean of its neighbour
TIED_BY_WRAP = np.array([2, -1, 1, 1, 3, 1, 1, 3, 1, -2, 0, 1, 1, 0]) * 2.0 ** -31


class TestPlateauExtremaOracle:
    @settings(max_examples=400, deadline=None)
    @given(plateau_sequences())
    @example(np.array([1.0 + 0.4e-9, 2.0, 2.0, 0.0, 1.0 - 0.4e-9, 1.0]))  # plateau wraps index 0
    @example(np.array([0.0, 1e-9, 3e-9, 3e-9 + 2e-9, 0.5, 0.5, -1.0]))
    @example(TIED_MEANS)
    @example(TIED_BY_WRAP)
    def test_matches_running_mean_loop(self, v):
        ext = plateau_extrema(v)
        assert ext == reference_plateau_extrema(v)
        kinds = [p.kind for p in ext]
        assert all(a != b for a, b in zip(kinds, kinds[1:] + kinds[:1]))  # they alternate

    def test_tied_means_join(self):
        assert [p.kind for p in plateau_extrema(TIED_MEANS)] == ["min", "max", "min", "max"]
        assert [p.kind for p in plateau_extrema(TIED_BY_WRAP)] == ["min", "max"]

    def test_pinned_profiles(self):
        step = profile_from_step(StepSpec(1.0, 3.0), 1024).samples
        for v in (ridge().samples, cos2t().samples, step, np.roll(step, 100), np.ones(7), [2.0]):
            assert plateau_extrema(v) == reference_plateau_extrema(v)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([512, 4096]), seed=st.integers(0, 2**32 - 1),
           wrap=st.booleans())
    def test_one_sample_groups(self, n, seed, wrap):
        # every step above 2 * PLATEAU_TOL, so each sample is a group of its
        # own; with wrap the last sample lies within PLATEAU_TOL of the first,
        # and the wrap merge joins the two
        rng = np.random.default_rng(seed)
        steps = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-8.5, 0.0, size=n)
        v = np.cumsum(steps)
        if wrap:
            v[-1] = v[0] + rng.uniform(-1.0, 1.0) * PLATEAU_TOL
        assume(np.all(np.abs(np.diff(v)) > 2.0 * PLATEAU_TOL + 1e-15))
        assert plateau_extrema(v) == reference_plateau_extrema(v)

    def test_input_is_never_written(self):
        # one-sample groups whose first and last samples merge across the
        # wrap, the one path that reads its means from the input itself
        wrapped = np.array([1.0, 0.0, 2.0, -1.0, 1.0 + 0.4 * PLATEAU_TOL])
        wrapped.flags.writeable = False
        ext = plateau_extrema(wrapped)
        assert ext == reference_plateau_extrema(wrapped)
        assert ext[0] == Plateau(4, 2, "max", (wrapped[0] + wrapped[-1]) / 2)
        ordinary = np.concatenate((TIED_MEANS, cos2t().samples))
        before = ordinary.copy()
        plateau_extrema(ordinary)
        assert ordinary.tobytes() == before.tobytes()

    @pytest.mark.parametrize("v", [[1, 2, np.nan, 1, 0, 1, 3, 0], [1, 3, 1, 3, np.nan, 2]])
    def test_nan_raises(self, v):
        # NaN compares false either way, so these once gave min, max, min
        with pytest.raises(ValueError, match="NaN"):
            plateau_extrema(v)

    def test_infinity_is_a_value(self):
        assert [(p.start, p.kind, p.value) for p in plateau_extrema([0, 1, 0, np.inf, 0, 1])] == [
            (0, "min", 0.0), (1, "max", 1.0), (2, "min", 0.0), (3, "max", np.inf),
            (4, "min", 0.0), (5, "max", 1.0)]


def reference_first_crossing(w, j0, j1, level, upward):
    """Cell-by-cell scan of cells j0 -> j1: the reference for _first_crossing."""
    n = w.size
    dt = TWO_PI / n
    j = j0 % n
    for _ in range(n + 1):
        jn = (j + 1) % n
        hit = (w[j] < level <= w[jn]) if upward else (w[jn] < level <= w[j])
        if hit:
            frac = (level - w[j]) / (w[jn] - w[j])
            return (TWO_PI * j / n + frac * dt) % TWO_PI, j
        if j == j1 % n:
            break
        j = jn
    raise ConstructionFailed("level crossing not found")


@st.composite
def crossing_queries(draw):
    """Cyclic step or smooth samples, a cell range and a level, often a sample value."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 64))
    if draw(st.booleans()):
        v = rng.integers(-2, 3, size=n).astype(float)
    else:
        v = np.cos(draw(st.integers(1, 4)) * TWO_PI * np.arange(n) / n + draw(st.floats(0, 7)))
    level = v[draw(st.integers(0, n - 1))] if draw(st.booleans()) else draw(st.floats(-2.5, 2.5))
    return v, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), level, draw(st.booleans())


def crossing_or_none(w, j0, j1, level, upward, fn):
    try:
        return fn(w, j0, j1, level, upward)
    except ConstructionFailed:
        return None


class TestFirstCrossingOracle:
    @settings(max_examples=400, deadline=None)
    @given(crossing_queries())
    # a step jump in the cell right after the plateau's last sample
    @example((np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 1.0, 1.0]), 2, 5, 2.0, True))
    # the range wraps across index 0 and the crossing is in the wrapping cell
    @example((np.array([3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0]), 6, 2, 2.5, True))
    @example((np.array([3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0]), 6, 2, 1.5, False))
    # nothing crosses in the range
    @example((np.array([0.0, 1.0, 2.0, 3.0]), 0, 1, 2.5, True))
    def test_matches_cell_scan(self, query):
        ref = crossing_or_none(*query, reference_first_crossing)
        assert crossing_or_none(*query, _first_crossing) == ref

    def test_pinned_cases(self):
        w = np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 1.0, 1.0])
        assert _first_crossing(w, 2, 5, 2.0, True) == (TWO_PI * 2.5 / 8, 2)
        wrap = np.array([3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0])
        assert _first_crossing(wrap, 6, 2, 2.5, True)[1] == 7
        with pytest.raises(ConstructionFailed):
            _first_crossing(np.array([0.0, 1.0, 2.0, 3.0]), 0, 1, 2.5, True)


def reference_window_radius(k, centre, target, start, cap):
    """The reference for _window_radii, one window: one profile call per radius.

    k is linear between grid samples, so |k - target| on an interval peaks
    at a grid sample inside it or at one of its two ends.
    """
    h = TWO_PI / k.n
    delta = start
    while delta > 1e-11:
        inside = h * np.arange(math.ceil((centre - delta) / h), math.floor((centre + delta) / h) + 1)
        t = np.concatenate(([centre - delta, centre + delta], inside))
        if np.max(np.abs(np.asarray(k(t)) - target)) <= cap:
            return delta
        delta *= 0.6
    return 1e-11


RIDGE_64 = [float(v) for v in 1.5 + np.cos(2 * TWO_PI * np.arange(64) / 64)]
# one sample of 1 among 4096 zeros, at 0.0046, between the probe points 0 and
# 0.01 of a 201-point probe of [-1, 1]
NARROW = [0.0] * 3 + [1.0] + [0.0] * 4092


class TestWindowRadiusOracle:
    @settings(max_examples=300, deadline=None)
    @given(samples=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=64),
           centre=st.floats(-1.0, 8.0), offset=st.floats(-0.5, 0.5),
           start=st.floats(-13.0, 0.5).map(lambda e: 10.0 ** e),
           cap=st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e))
    # the first passing radius is the seventeenth or later
    @example(samples=RIDGE_64, centre=1.0, offset=0.0, start=1.0, cap=1e-6)
    # no radius passes: the 1e-11 floor
    @example(samples=RIDGE_64, centre=1.0, offset=0.4, start=1.0, cap=1e-3)
    # the start is at or below the floor, or the only radius above it
    @example(samples=RIDGE_64, centre=1.0, offset=0.0, start=1e-11, cap=0.1)
    @example(samples=RIDGE_64, centre=1.0, offset=0.0, start=1e-12, cap=0.1)
    @example(samples=RIDGE_64, centre=1.0, offset=0.0, start=1.5e-11, cap=0.1)
    # a deviation exactly at the cap passes
    @example(samples=[1.0] * 8, centre=1.0, offset=0.25, start=1.0, cap=0.25)
    # every sample inside [-0.1, 0.1] is on target, but the interpolant toward
    # the sample of 1 at pi/4 exceeds the cap at the end 0.1
    @example(samples=[0.0, 1.0] + [0.0] * 6, centre=0.0, offset=0.0, start=0.1, cap=0.1)
    # the centre is a grid sample that itself deviates beyond the cap
    @example(samples=[0.0] * 4 + [1.0] + [0.0] * 3, centre=math.pi, offset=-1.0,
             start=0.5, cap=0.5)
    # a narrow excursion between two probe points of the widest radius
    @example(samples=NARROW, centre=0.0, offset=0.0, start=1.0, cap=0.5)
    def test_matches_one_call_per_radius(self, samples, centre, offset, start, cap):
        k = CurvatureProfile(samples)
        target = float(k(centre)) + offset
        assert _window_radii(k, [centre], [target], [start], cap)[0] \
            == reference_window_radius(k, centre, target, start, cap)

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=64),
           windows=st.lists(st.tuples(st.floats(-1.0, 8.0), st.floats(-0.5, 0.5),
                                      st.floats(-13.0, 0.5).map(lambda e: 10.0 ** e)),
                            min_size=1, max_size=5),
           cap=st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e))
    def test_windows_decided_together(self, samples, windows, cap):
        # one call decides each window as the reference decides it alone
        k = CurvatureProfile(samples)
        centres = [c for c, _, _ in windows]
        targets = [float(k(c)) + offset for c, offset, _ in windows]
        starts = [start for _, _, start in windows]
        got = _window_radii(k, centres, targets, starts, cap)
        assert got.tolist() == [reference_window_radius(k, *w, cap)
                                for w in zip(centres, targets, starts)]

    def test_examples_reach_their_cases(self):
        k = CurvatureProfile(RIDGE_64)
        target = float(k(1.0))
        assert reference_window_radius(k, 1.0, target, 1.0, 1e-6) < 0.6 ** 16
        assert reference_window_radius(k, 1.0, target + 0.4, 1.0, 1e-3) == 1e-11
        assert reference_window_radius(k, 1.0, target, 1.5e-11, 0.1) == 1.5e-11
        flat = CurvatureProfile([1.0] * 8)
        assert reference_window_radius(flat, 1.0, 1.25, 1.0, 0.25) == 1.0
        tooth = CurvatureProfile([0.0, 1.0] + [0.0] * 6)
        assert float(tooth(0.1)) > 0.1  # so the start 0.1 is refused
        assert reference_window_radius(tooth, 0.0, 0.0, 0.1, 0.1) == 0.1 * 0.6
        spike = CurvatureProfile([0.0] * 4 + [1.0] + [0.0] * 3)
        assert reference_window_radius(spike, math.pi, 0.0, 0.5, 0.5) == 1e-11
        narrow = CurvatureProfile(NARROW)
        probe = np.linspace(-1.0, 1.0, 201)
        assert np.max(np.abs(narrow(probe))) <= 0.5  # 201 probes see no excursion
        assert reference_window_radius(narrow, 0.0, 0.0, 1.0, 0.5) < 3 * TWO_PI / 4096


class TestFindAbab:
    def test_ridge_window(self):
        k = ridge()
        ab = find_abab_points(k)
        assert not ab.sign_flipped
        assert ab.a == pytest.approx(0.7, abs=1e-9)
        assert ab.b == pytest.approx(2.3, abs=1e-9)
        vals = [float(k(p)) for p in ab.params]
        expected = [ab.a, ab.b, ab.a, ab.b]
        assert np.allclose(vals, expected, atol=1e-6)

    def test_negated_flips(self):
        k = profile_from_function(lambda t: -(1.5 + np.cos(2 * t)), n=4096)
        ab = find_abab_points(k)
        assert ab.sign_flipped
        assert ab.a == pytest.approx(0.7, abs=1e-9)
        assert ab.b == pytest.approx(2.3, abs=1e-9)
        vals = [float(-np.asarray(k(p))) for p in ab.params]
        assert np.allclose(vals, [ab.a, ab.b, ab.a, ab.b], atol=1e-6)

    def test_mixed_sign_clamps_window(self):
        k = profile_from_function(lambda t: np.cos(2 * t) + 0.05, n=4096)
        ab = find_abab_points(k)
        assert 0.0 < ab.a < ab.b < 1.05
        vals = [float(k(p)) for p in ab.params]
        assert np.allclose(vals, [ab.a, ab.b, ab.a, ab.b], atol=1e-6)

    def test_one_max_one_min_rejected(self):
        k = profile_from_function(lambda t: 1.0 + 0.5 * np.sin(t), n=1024)
        with pytest.raises(HypothesisViolated):
            find_abab_points(k)

    @settings(max_examples=300, deadline=None)
    @given(plateau_sequences().filter(lambda v: v.size >= 8))
    @example(TIED_MEANS)
    def test_window_of_k_or_of_its_negation(self, v):
        # with alternating extrema, two maxima and two minima give k or -k a
        # window (find_abab_points); the level crossings are stubbed, since a
        # window value may lie within a plateau's tolerance of its samples
        assume(sum(p.kind == "max" for p in plateau_extrema(v)) >= 2)
        with mock.patch.object(curvature, "_first_crossing",
                               lambda w, j0, j1, level, upward: (0.0, j0)):
            ab = find_abab_points(CurvatureProfile(v))
        assert 0.0 < ab.a < ab.b

    def test_asymmetric_three_extrema_pairs(self):
        # three maxima of different heights: the two largest get picked and
        # the window stays attainable
        k = profile_from_function(
            lambda t: 1.0 + 0.6 * np.cos(3 * t) + 0.2 * np.sin(2 * t), n=4096)
        ab = find_abab_points(k)
        assert 0.0 < ab.a < ab.b
        vals = [float(k(p)) for p in ab.params]
        assert np.allclose(vals, [ab.a, ab.b, ab.a, ab.b], atol=1e-6)


class TestBuildH1:
    def test_step_input_passes_any_eps(self):
        step = StepSpec(0.5, 2.0)
        k = profile_from_step(step, 4096)
        mids = (0.25 * math.pi, 0.75 * math.pi, 1.25 * math.pi, 1.75 * math.pi)
        ab = AbabPoints(0.5, 2.0, mids, False)
        for eps in (0.5, 0.1, 1e-3):
            h1 = build_h1(k, ab, step, eps)
            t = TWO_PI * np.arange(10_000) / 10_000
            bad = np.abs(np.asarray(k(h1(t))) - step.value_at(t)) > eps
            assert float(np.mean(bad)) * TWO_PI < eps

    def test_smooth_profile_measure_bound(self):
        k = ridge()
        ab = find_abab_points(k)
        step = StepSpec(ab.a, ab.b)
        h1 = build_h1(k, ab, step, 0.1)
        t = TWO_PI * np.arange(10_000) / 10_000
        bad = np.abs(np.asarray(k(h1(t))) - step.value_at(t)) > 0.1
        assert float(np.mean(bad)) * TWO_PI < 0.1

    def test_sign_flipped_window_rejected(self):
        # a window of the negated profile does not lie on k itself
        k = profile_from_function(lambda t: -(1.5 + np.cos(2 * t)), n=4096)
        ab = find_abab_points(k)
        assert ab.sign_flipped
        with pytest.raises(ValueError, match="do not attain"):
            build_h1(k, ab, StepSpec(ab.a, ab.b), 0.1)

    def test_zero_eps_rejected(self):
        k = ridge()
        ab = find_abab_points(k)
        with pytest.raises(ValueError):
            build_h1(k, ab, StepSpec(ab.a, ab.b), 0.0)

    def test_mismatch_lies_in_the_slivers(self):
        # off the eight slivers k(h1) stays within eps/8 of the step, so the
        # mismatch measure is at most their total width, 8 * sliver <= eps/4,
        # and one construction always passes its check
        # the last 16 profiles change sign, so both orientations have a window
        rng = np.random.default_rng(20)
        checked = 0
        for i in range(40):
            c0 = rng.uniform(-2.5, 2.5) if i < 24 else rng.uniform(-1.05, -0.5)
            k = trig_profile(c0, rng.uniform(-0.1, 0.1, size=10))
            for work in (k, CurvatureProfile(-k.samples)):
                ab = find_abab_points(work)
                if ab.sign_flipped:
                    continue
                # breakpoints half a grid step off the grid, as synthesize places them
                step = StepSpec(ab.a, ab.b,
                                tuple(0.5 * math.pi * q + math.pi / k.n for q in range(4)))
                for j in range(7):
                    eps = 0.1 * 2.0 ** -j
                    h1 = build_h1(work, ab, step, eps)
                    # the sliver for quarter arcs, as wide as h1's first knot gap
                    sliver = min(eps / 32, math.pi / 8)
                    assert h1.knots[1] - h1.knots[0] == pytest.approx(sliver, rel=1e-9)
                    assert _mismatch_measure(work, h1, step, eps) <= 8 * sliver <= eps / 4
                    checked += 1
        assert checked >= 56 * 7

    def test_failed_check_raises_construction_failed(self, monkeypatch):
        k = ridge()
        ab = find_abab_points(k)
        monkeypatch.setattr(curvature, "_mismatch_measure", lambda k, h1, step, eps: eps)
        with pytest.raises(ConstructionFailed, match="mismatch measure 0.1 "):
            build_h1(k, ab, StepSpec(ab.a, ab.b), 0.1)


def piece_cuts(k, h1, step):
    """The ends of _mismatch_measure's pieces: h1's knots, the step's breakpoints
    and the h1-preimages of k's grid over one period, sorted."""
    lo, hi = h1.values[0], h1.values[-1]
    n = k.n
    grid = TWO_PI / n * np.arange(math.ceil(lo * n / TWO_PI), math.floor(hi * n / TWO_PI) + 1)
    breaks = h1.knots[0] + np.mod(np.asarray(step.breakpoints) - h1.knots[0], TWO_PI)
    return np.sort(np.concatenate((h1.knots, breaks, np.interp(grid, h1.values, h1.knots))),
                   kind="stable")


def reference_mismatch_measure(k, h1, step, eps):
    """The reference for _mismatch_measure: every cut sorted, k(h1(t)) evaluated at each."""
    t = piece_cuts(k, h1, step)
    mid = 0.5 * (t[:-1] + t[1:])
    target = searchsorted_value_at(step, mid)
    kt = np.asarray(k(h1(t)))
    fa, fb = kt[:-1] - target, kt[1:] - target
    rise = np.abs(fb - fa)
    measure = 0.0
    for top in (np.maximum(fa, fb) - eps, -np.minimum(fa, fb) - eps):
        share = np.divide(np.clip(top, 0.0, rise), rise, out=(top > 0.0).astype(float),
                          where=rise > 0.0)
        measure += float(np.diff(t) @ share)
    return measure


def random_lift(rng, m):
    """A monotone lift of m + 2 knots over one period starting anywhere in [-1, 1]."""
    start = rng.uniform(-1.0, 1.0)
    knots = np.concatenate(([start], start + np.sort(rng.uniform(0.0, TWO_PI, m)),
                            [start + TWO_PI]))
    v0 = rng.uniform(-TWO_PI, TWO_PI)
    values = np.concatenate(([v0], v0 + np.sort(rng.uniform(0.0, TWO_PI, m)), [v0 + TWO_PI]))
    return CircleDiffeo(knots, values)


class TestMismatchMeasure:
    # the tent 0, 1, 2, 3, 4, 3, 2, 1 on eight samples, and the step 1, 3, 1, 3
    # on the four quarter turns
    TENT = [0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0]
    STEP = StepSpec(1.0, 3.0)

    def test_linear_tent_through_a_warp_in_closed_form(self):
        # h1(t) = t/2 on [0, pi], then pi/2 + 3(t - pi)/2; k(h1(t)) - step(t)
        # passes eps = 1/2 at t = pi/4 and t = 19*pi/12, and stays beyond it
        # on [pi/2, 3*pi/2): pi/4 + pi/2 + pi/2 + 5*pi/12
        h1 = CircleDiffeo(np.array([0.0, math.pi, TWO_PI]),
                          np.array([0.0, 0.5 * math.pi, TWO_PI]))
        k = CurvatureProfile(self.TENT)
        assert _mismatch_measure(k, h1, self.STEP, 0.5) == pytest.approx(
            5.0 * math.pi / 3.0, abs=1e-12)

    def test_step_breakpoints_inside_grid_cells(self):
        # k = 4t/pi on [0, pi], 8 - 4t/pi on [pi, 2*pi]; with breakpoints
        # 0.3, 1.0, 2.2, 5.0, |k - step| <= 1/2 only on [pi/8, 1.0] (step 1)
        # and [5*pi/8, 2.2] (step 3): both cut off by a breakpoint mid-cell
        step = StepSpec(1.0, 3.0, (0.3, 1.0, 2.2, 5.0))
        k = CurvatureProfile(self.TENT)
        assert _mismatch_measure(k, CircleDiffeo.identity(), step, 0.5) == pytest.approx(
            2.75 * math.pi - 3.2, abs=1e-12)

    def test_period_starting_off_zero(self):
        # the same warp as a lift over [1, 1 + 2*pi]: the measure counts one
        # period whatever its start
        h1 = CircleDiffeo(np.array([0.0, math.pi, TWO_PI]),
                          np.array([0.0, 0.5 * math.pi, TWO_PI]))
        knots = np.array([1.0, math.pi, TWO_PI, TWO_PI + 1.0])
        lifted = CircleDiffeo(knots, h1(knots))
        k = CurvatureProfile(self.TENT)
        assert _mismatch_measure(k, lifted, self.STEP, 0.5) == pytest.approx(
            5.0 * math.pi / 3.0, abs=1e-12)

    @pytest.mark.parametrize("fn, eps", [
        (lambda t: 1.5 + np.cos(2 * t), 0.1),
        (lambda t: 1.5 + np.cos(2 * t), 0.02),
        (lambda t: 1.2 + np.cos(2 * t) + 0.3 * np.sin(3 * t), 0.05),
        (lambda t: np.cos(2 * t) + 0.05 + 0.1 * np.cos(5 * t + 1.0), 0.1),
    ])
    def test_matches_a_million_samples_on_built_warps(self, fn, eps):
        k = profile_from_function(fn, n=4096)
        ab = find_abab_points(k)
        step = StepSpec(ab.a, ab.b, tuple(0.5 * math.pi * q + math.pi / k.n for q in range(4)))
        h1 = build_h1(k, ab, step, eps)
        m = 1_000_000
        t = TWO_PI * (np.arange(m) + 0.5) / m
        sampled = float(np.mean(np.abs(np.asarray(k(h1(t))) - step.value_at(t)) > eps)) * TWO_PI
        exact = _mismatch_measure(k, h1, step, eps)
        assert 0.0 < exact < eps
        assert exact == pytest.approx(sampled, abs=4 * TWO_PI / m)  # 4 samples
        assert exact == pytest.approx(reference_mismatch_measure(k, h1, step, eps), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_sorted_cut_reference_on_random_warps(self, seed):
        # the reference evaluates k(h1(t)) at each grid preimage; where h1 is
        # steep, that rounds up to ~1e-8 away from the grid sample, which
        # _mismatch_measure reads exactly, so the two agree to 1e-12, not bit
        # for bit
        rng = np.random.default_rng(seed)
        k = CurvatureProfile(rng.uniform(-2.0, 2.0, int(rng.choice([8, 64, 512, 4096]))))
        h1 = random_lift(rng, int(rng.integers(1, 12)))
        a = rng.uniform(0.1, 1.0)
        step = StepSpec(a, a + rng.uniform(0.1, 2.0),
                        tuple(np.sort(rng.uniform(0.0, TWO_PI, 4))))
        eps = rng.uniform(0.01, 1.0)
        assert _mismatch_measure(k, h1, step, eps) == pytest.approx(
            reference_mismatch_measure(k, h1, step, eps), abs=1e-12)


def searchsorted_value_at(step: StepSpec, t) -> np.ndarray:
    """The reference for StepSpec.value_at: the arc of each key, found by binary search."""
    t = np.mod(np.asarray(t, dtype=float), TWO_PI)
    idx = np.searchsorted(step.breakpoints, t + 1e-12, side="right") - 1
    idx = np.where(idx < 0, 3, idx)
    return np.where(idx % 2 == 0, step.a, step.b)


class TestStepAtSorted:
    """value_at at ascending points, bit for bit the binary-search reference."""

    BUILT = [(lambda t: 1.5 + np.cos(2 * t), 0.1), (lambda t: 1.5 + np.cos(2 * t), 0.02),
             (lambda t: np.cos(2 * t) + 0.05 + 0.1 * np.cos(5 * t + 1.0), 0.1)]

    def test_piece_midpoints_of_built_warps(self):
        # build_h1's first knot is the first breakpoint, so that cut repeats:
        # a piece of length zero whose midpoint is the breakpoint itself; the
        # period runs from it past 2*pi, so the last pieces wrap
        for fn, eps in self.BUILT:
            k = profile_from_function(fn, n=4096)
            ab = find_abab_points(k)
            step = StepSpec(ab.a, ab.b, tuple(0.5 * math.pi * q + math.pi / k.n for q in range(4)))
            t = piece_cuts(k, build_h1(k, ab, step, eps), step)
            mid = 0.5 * (t[:-1] + t[1:])
            assert np.any(t[1:] == t[:-1]) and mid[-1] > TWO_PI
            assert np.array_equal(step.value_at(mid), searchsorted_value_at(step, mid))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_piece_midpoints_of_random_warps(self, seed):
        rng = np.random.default_rng(seed)
        k = CurvatureProfile(rng.uniform(-2.0, 2.0, int(rng.choice([8, 64, 512]))))
        h1 = random_lift(rng, int(rng.integers(1, 12)))
        step = StepSpec(0.5, 2.0, tuple(np.sort(rng.uniform(0.0, TWO_PI, 4))))
        t = piece_cuts(k, h1, step)
        mid = 0.5 * (t[:-1] + t[1:])
        assert np.array_equal(step.value_at(mid), searchsorted_value_at(step, mid))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), start=st.floats(-8.0, 14.0),
           size=st.integers(0, 200))
    def test_points_on_and_next_to_the_breakpoints(self, seed, start, size):
        # points within rounding of a breakpoint (value_at adds 1e-12 before
        # comparing), of a multiple of 2*pi, repeated, over up to a period
        rng = np.random.default_rng(seed)
        bps = tuple(np.sort(rng.uniform(0.0, TWO_PI, 4)))
        step = StepSpec(0.5, 2.0, bps)
        x = start + rng.uniform(0.0, TWO_PI, size)
        base = TWO_PI * math.floor(start / TWO_PI)
        near = [b + p + d for b in (base, base + TWO_PI) for p in bps + (TWO_PI,)
                for d in (-1e-12, 0.0)]
        near += [np.nextafter(v, s) for v in near for s in (-math.inf, math.inf)]
        x = np.sort(np.concatenate((x, [v for v in near if start <= v < start + TWO_PI], x[:3])))
        assert np.array_equal(step.value_at(x), searchsorted_value_at(step, x))


def test_value_at_off_the_reals_and_at_scalars():
    step = StepSpec(0.5, 2.0)
    x = np.array([math.nan, math.inf, -math.inf, -1e300, 1e300, 0.0, -0.0, 1.0])
    with np.errstate(invalid="ignore"):  # np.mod of +-inf
        assert np.array_equal(step.value_at(x), searchsorted_value_at(step, x))
        for v in x.tolist():
            assert type(step.value_at(v)) is float
            assert step.value_at(v) == searchsorted_value_at(step, v)
    assert step.value_at(math.nan) == 2.0


def test_scale_factor_rejects_zero():
    with pytest.raises(ValueError):
        ScaleFactor(0.0)


@pytest.mark.parametrize("n", [8, 64, 510, 512, 4096])
def test_step_samples_match_value_at(n):
    # value_at and profile_from_step on the grid, bit for bit the binary-search
    # reference, for breakpoints on grid points, within value_at's 1e-12 of
    # one, half a step off the grid (as synthesize places them), past the last
    # grid point, and at random
    h = TWO_PI / n
    rng = np.random.default_rng(n)
    specs = [StepSpec(0.5, 2.0),
             StepSpec(0.3, 1.1, tuple(0.5 * math.pi * q + math.pi / n for q in range(4))),
             StepSpec(1.0, 3.0, (h, 3 * h + 5e-13, 3 * h + 2e-12, TWO_PI - 1e-13)),
             StepSpec(0.2, 0.7, (0.0, 2 * h - 1e-12, 5 * h - 2e-12, 7 * h))]
    specs += [StepSpec(1.0, 2.0, tuple(np.sort(rng.uniform(0.0, TWO_PI, 4)))) for _ in range(20)]
    grid = TWO_PI * np.arange(n) / n
    for spec in specs:
        assert np.array_equal(spec.value_at(grid), searchsorted_value_at(spec, grid))
        assert np.array_equal(profile_from_step(spec, n).samples, spec.value_at(grid))
