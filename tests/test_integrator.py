import math
import time
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fourvertex import integrator, solver
from fourvertex.bicircle import Configuration, closed_form_error
from fourvertex.curvature import (
    TWO_PI,
    CurvatureProfile,
    ScaleFactor,
    StepSpec,
    normalize_total,
    profile_from_function,
    profile_from_step,
)
from fourvertex.integrator import (
    PlanarCurve,
    TooFewSamples,
    _integrate,
    _orient,
    _ring,
    _segments_cross,
    curvature_samples,
    error_vector,
    integrate_arcs,
    integrate_curve,
    is_simple,
    scale_curve,
)

from conftest import limacon_curve


def unit_circle(n=4096):
    return integrate_curve(profile_from_function(lambda t: np.ones_like(t), n=n))


class TestIntegrateCurve:
    def test_unit_circle_closes(self):
        c = unit_circle()
        assert error_vector(c).magnitude < 1e-12
        assert c.closed
        assert c.theta[-1] == pytest.approx(TWO_PI, abs=1e-10)
        # a curve is closed when its endpoint gap is below 1e-6 of its length
        gap = replace(c, pos=c.pos + 0.5e-6 * c.length * (c.s == c.length))
        assert gap.closed
        half = PlanarCurve(s=c.s[:2049], pos=c.pos[:2049], theta=c.theta[:2049])
        assert not half.closed

    def test_closed_flag_does_not_close_a_gap(self):
        # a gap of 2e-6 of the length is open, and its ring keeps the closing sample
        c = unit_circle()
        wide = replace(c, pos=c.pos + 2e-6 * c.length * (c.s == c.length))
        assert not wide.closed
        _, pos, _, ring_closed = _ring(wide)
        assert pos.size == c.pos.size and not ring_closed

    def test_equal_opposite_arcs_close(self):
        spec = StepSpec(0.5, 2.0, (0.0, 2 * math.pi / 3, math.pi, 5 * math.pi / 3))
        c = integrate_curve(profile_from_step(spec, 1536))
        assert error_vector(c).magnitude < 1e-12

    def test_unequal_opposite_arcs_fail_to_close(self):
        spec = StepSpec(0.5, 2.0, (0.0, math.pi, 4 * math.pi / 3, 5 * math.pi / 3))
        k, _ = normalize_total(profile_from_step(spec, 1536))
        err = error_vector(integrate_curve(k))
        assert err.magnitude > 0.1
        cfg = Configuration(1, np.exp(1j * math.pi), np.exp(4j * math.pi / 3),
                            np.exp(5j * math.pi / 3))
        assert abs(err.e - closed_form_error(cfg, 0.5, 2.0).e) < 1e-10

    def test_tangent_turns_once_for_normalized_profiles(self):
        for fn in (lambda t: 1.5 + np.cos(2 * t), lambda t: 1.0 + 0.4 * np.sin(3 * t)):
            k, _ = normalize_total(profile_from_function(fn, n=2048))
            c = integrate_curve(k)
            assert c.theta[-1] - c.theta[0] == pytest.approx(TWO_PI, abs=1e-10)

    def test_first_order_convergence(self):
        fn = lambda t: 1.5 + np.cos(2 * t)
        curves = {n: integrate_curve(profile_from_function(fn, n=n))
                  for n in (512, 1024, 2048, 4096)}
        dists = []
        for n in (512, 1024, 2048):
            a, b = curves[n], curves[2 * n]
            dists.append(float(np.max(np.abs(a.pos - b.pos[::2]))))
        for d0, d1 in zip(dists, dists[1:]):
            assert 1.6 < d0 / d1 < 2.5


class TestErrorVector:
    def test_circle_zero(self):
        assert error_vector(unit_circle()).magnitude < 1e-12

    def test_half_circle_diameter(self):
        c = unit_circle(4096)
        m = 2048
        half = PlanarCurve(s=c.s[: m + 1], pos=c.pos[: m + 1],
                           theta=c.theta[: m + 1])
        assert abs(error_vector(half).e - 2j) < 1e-12

    def test_limacon_reintegrates_from_own_curvature(self):
        lim = limacon_curve(8192)
        kappa = curvature_samples(lim)
        total_len = lim.length
        # resample onto a uniform arc-length grid, then rescale onto the
        # unit-speed domain of length 2*pi
        s = lim.s[:-1]
        target = total_len * np.arange(s.size) / s.size
        k = np.interp(target, s, kappa, period=total_len)
        k2 = CurvatureProfile(k * total_len / TWO_PI)
        again = integrate_curve(k2)
        assert error_vector(again).magnitude < 1e-6


class TestScaleCurve:
    def test_circle_scaled_radius_two(self):
        c = scale_curve(unit_circle(), ScaleFactor(2.0))
        assert np.max(np.abs(curvature_samples(c) - 0.5)) < 1e-6

    def test_identity_scale(self):
        c = unit_circle()
        c2 = scale_curve(c, ScaleFactor(1.0))
        assert np.array_equal(c2.pos, c.pos)

    def test_inverse_pair(self):
        c = unit_circle()
        back = scale_curve(scale_curve(c, ScaleFactor(3.7)), ScaleFactor(1 / 3.7))
        assert np.max(np.abs(back.pos - c.pos)) < 1e-12

    def test_estimate_commutes_with_scaling(self):
        k0 = profile_from_function(lambda t: 1.2 + 0.3 * np.sin(2 * t), n=2048)
        kn, _ = normalize_total(k0)
        c = integrate_curve(kn)
        factor = 2.5
        ratio = curvature_samples(scale_curve(c, ScaleFactor(factor))) \
            / curvature_samples(c)
        assert np.max(np.abs(ratio - 1.0 / factor)) < 1e-9


class TestEstimateCurvature:
    def test_unit_circle(self):
        kappa = curvature_samples(unit_circle())
        assert kappa.size == 4096  # the duplicated closing sample is dropped
        assert np.max(np.abs(kappa - 1.0)) < 1e-6

    def test_too_few_samples(self):
        c = unit_circle(4096)
        clipped = PlanarCurve(s=c.s[:4], pos=c.pos[:4], theta=c.theta[:4])
        with pytest.raises(TooFewSamples):
            curvature_samples(clipped)


class TestIsSimple:
    def test_circle_simple(self):
        ok, witness = is_simple(unit_circle())
        assert ok and witness is None

    def test_limacon_crossing_witnessed(self, limacon):
        ok, witness = is_simple(limacon)
        assert not ok
        i, j = witness
        # the witness segments really do cross: both near the origin
        assert abs(limacon.pos[i]) < 0.1 and abs(limacon.pos[j]) < 0.1

    def test_bicircle_simple(self):
        k, _ = normalize_total(profile_from_step(StepSpec(0.5, 2.0), 4096))
        ok, _ = is_simple(integrate_curve(k))
        assert ok

    def test_open_chain(self):
        # an open spiral-ish arc: no closing segment is added
        k = profile_from_function(lambda t: np.ones_like(t), n=512)
        c = integrate_curve(k)
        half = PlanarCurve(s=c.s[:200], pos=c.pos[:200], theta=c.theta[:200])
        ok, _ = is_simple(half)
        assert ok


def grid_polygon(points, closed: bool) -> PlanarCurve | None:
    """Polyline through integer points, consecutive repeats dropped; None if degenerate."""
    pos = [complex(x, y) for x, y in points]
    pos = [z for k, z in enumerate(pos) if k == 0 or z != pos[k - 1]]
    if closed and pos[-1] != pos[0]:
        pos.append(pos[0])
    if len(pos) < 2:
        return None
    pos = np.array(pos)
    s = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(pos)))))
    return PlanarCurve(s=s, pos=pos, theta=np.zeros(pos.size))


class TestSweepAgainstBruteForce:
    @staticmethod
    def segments(curve):
        _, pos, _, closed = _ring(curve)
        b = np.roll(pos, -1) if closed else pos[1:]
        return pos[:b.size], b, closed

    @classmethod
    def brute_force_crossing(cls, curve):
        """The first non-adjacent pair of segments that meet, or None."""
        a, b, closed = cls.segments(curve)
        nseg = a.size
        for i in range(nseg):
            for j in range(i + 2, nseg):
                if closed and i == 0 and j == nseg - 1:
                    continue
                if _segments_cross(a[i], b[i], a[j], b[j]):
                    return i, j
        return None

    @classmethod
    def brute_force_fold(cls, curve) -> bool:
        """Whether a segment doubles back along the one before it."""
        a, b, closed = cls.segments(curve)
        nseg = a.size
        for i in range(nseg if closed else nseg - 1):
            j = (i + 1) % nseg
            back = (b[j] - a[j]).real * (a[i] - a[j]).real \
                + (b[j] - a[j]).imag * (a[i] - a[j]).imag
            if _orient(a[i], b[i], b[j]) == 0.0 and back > 0:
                return True
        return False

    @classmethod
    def brute_force_simple(cls, curve) -> bool:
        return cls.brute_force_crossing(curve) is None and not cls.brute_force_fold(curve)

    def test_matches_on_random_star_curves(self):
        from fourvertex.analysis import random_star_curve

        rng = np.random.default_rng(17)
        for _ in range(25):
            c = random_star_curve(rng, n=96)
            assert is_simple(c)[0] == self.brute_force_simple(c)

    def test_matches_on_crossing_curve(self):
        lim = limacon_curve(128)
        assert is_simple(lim)[0] is False
        assert self.brute_force_simple(lim) is False

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=10),
           st.booleans())
    def test_matches_on_grid_polygons(self, points, closed):
        # integer vertices make collinear overlaps, shared vertices and folds common
        c = grid_polygon(points, closed)
        assume(c is not None)
        ok, witness = is_simple(c)
        assert ok == self.brute_force_simple(c)
        if ok:
            assert witness is None
            return
        a, b, ring_closed = self.segments(c)
        i, j = witness
        if self.brute_force_crossing(c) is not None:
            # a crossing takes precedence over a fold
            assert j - i > 1 and not (ring_closed and (i, j) == (0, a.size - 1))
            assert _segments_cross(a[i], b[i], a[j], b[j])
        else:
            assert j == (i + 1) % a.size and self.brute_force_fold(c)
        with mock.patch.object(integrator, "PAIR_CHUNK", 3):
            assert is_simple(c) == (ok, witness)


def test_fold_at_closing_vertex_witnessed():
    # a segment out and back, closed through a zero-length segment: the only
    # fold is where the last segment runs back onto the first
    pos = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex)
    c = PlanarCurve(s=np.arange(4.0), pos=pos, theta=np.zeros(4))
    assert is_simple(c) == (False, (2, 0))


def test_fold_at_open_end_witnessed():
    # the last segment doubles back along the one before it
    c = grid_polygon([(0, 0), (2, 0), (2, 2), (2, 1)], closed=False)
    assert is_simple(c) == (False, (1, 2))


@pytest.mark.parametrize("regular", [True, False], ids=["regular", "random"])
def test_no_crossing_test_when_no_pair_overlaps(monkeypatch, regular):
    # on a densely sampled convex curve every pair of non-adjacent segments is
    # apart on one axis, so none reaches the crossing test
    from fourvertex.analysis import random_convex_curve

    c = unit_circle(64) if regular else random_convex_curve(np.random.default_rng(5))

    def fail(*args):
        raise AssertionError("crossing test ran")

    monkeypatch.setattr(integrator, "_segments_cross", fail)
    assert is_simple(c) == (True, None)


@pytest.mark.parametrize("n, witness", [(128, (74, 117)), (2048, (1194, 1877)),
                                        (8192, (4778, 7509))])
def test_limacon_witness_pinned(n, witness):
    # the first crossing in the order of the former per-segment sweep
    assert is_simple(limacon_curve(n)) == (False, witness)


def test_witness_independent_of_batch_size(monkeypatch):
    from fourvertex.analysis import random_star_curve

    rng = np.random.default_rng(17)
    # at 3 pairs per batch, the first crossing in sweep order is not in the
    # first batch that holds a crossing
    pentagon = grid_polygon([(2, 3), (8, 2), (1, 1), (5, 8), (8, 0)], closed=True)
    curves = [pentagon] + [limacon_curve(n) for n in (128, 2048, 8192)] \
        + [random_star_curve(rng, n=96) for _ in range(25)]
    expected = [is_simple(c) for c in curves]
    # the pentagon is taller than wide, so it is swept along y
    assert expected[0] == (False, (1, 3))
    monkeypatch.setattr(integrator, "PAIR_CHUNK", 3)
    assert [is_simple(c) for c in curves] == expected


@pytest.mark.parametrize("upright", [True, False], ids=["tall", "wide"])
def test_long_collinear_sides_decided_fast(upright):
    # two collinear sides of 65536 unit segments each: a sweep across the
    # sides pairs every segment with every other on its side, a sweep along
    # them only with its neighbours
    m = 65536
    side = np.arange(m + 1.0)
    pos = np.concatenate((1j * side, 1.0 + 1j * side[::-1], [0.0]))
    if not upright:
        pos = pos.imag + 1j * pos.real
    s = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(pos)))))
    c = PlanarCurve(s=s, pos=pos, theta=np.zeros(pos.size))
    start = time.perf_counter()
    assert is_simple(c) == (True, None)
    assert time.perf_counter() - start < 1.0


def test_endpoint_error_matches_integrated_curve(monkeypatch):
    # error_at_beta integrates once: its record's curve is the curve of c * k1
    # that _integrate places over the record's lift steps, array for array,
    # and E is that curve's last position, bit for bit
    rng = np.random.default_rng(11)
    for _ in range(20):
        kappa = rng.normal(0.5, 3.0, 4096)
        kappa[rng.random(4096) < 0.1] = 0.0  # straight steps
        kappa[rng.random(4096) < 0.05] = 1e-15
        beta = 0.5 * rng.random() + 0.3j * rng.random()
        ev = solver.error_at_beta(CurvatureProfile(kappa), beta)
        curve = _integrate(ev.scale.c * kappa, ev.ds).curve
        for f in ("s", "pos", "theta"):
            assert getattr(ev.curve, f).tobytes() == getattr(curve, f).tobytes()
        assert np.array([ev.e.e]).tobytes() == curve.pos[-1:].tobytes()
        assert np.array_equal(ev.rot.real, np.cos(curve.theta))
        assert np.array_equal(ev.rot.imag, np.sin(curve.theta))
    kappa[rng.integers(4096)] = 1e6  # that step turns by almost the whole turn
    with pytest.raises(TooFewSamples):
        solver.error_at_beta(CurvatureProfile(kappa), 0.1)
    for bad in (math.inf, math.nan):  # an overflowed scale, or worse
        monkeypatch.setattr(solver, "normalizing_scale", lambda *args: SimpleNamespace(c=bad))
        with pytest.raises(TooFewSamples):
            solver.error_at_beta(CurvatureProfile(np.ones(64)), 0.1)


def reference_chords(kappa, ds, rot):
    """The chords as a complex division by i kappa: the oracle for _arcs's chords."""
    straight = np.abs(kappa) < integrator.STRAIGHT_KAPPA
    arcs = np.empty(kappa.size, dtype=complex)
    np.divide(np.diff(rot), 1j * kappa, out=arcs, where=~straight)
    arcs[straight] = (ds * rot[:-1])[straight]
    return arcs


@pytest.mark.parametrize("n", [8, 4096])
@pytest.mark.parametrize("straight", [False, True])
def test_chords_match_complex_division(n, straight):
    rng = np.random.default_rng(n + straight)
    for _ in range(50):
        kappa = 10.0 ** rng.uniform(-13.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
        if straight:
            idx = rng.choice(n, size=max(2, n // 10), replace=False)
            kappa[idx] = rng.choice([0.0, -0.0, 5e-15, -9.9e-15], idx.size)
        ds = rng.uniform(0.05, 1.0, n) / np.maximum(1.0, np.abs(kappa) / 3.0)  # turns below pi
        theta, rot, arcs = integrator._arcs(kappa, ds)
        assert np.array_equal(theta[1:], np.cumsum(kappa * ds))
        assert np.array_equal(rot.real, np.cos(theta)) and np.array_equal(rot.imag, np.sin(theta))
        assert np.array_equal(arcs.view(float), reference_chords(kappa, ds, rot).view(float))


class TestIntegrateArcs:
    def test_matches_profile_route(self):
        spec = StepSpec(0.5, 2.0)
        k, sc = normalize_total(profile_from_step(spec, 4096))
        via_profile = error_vector(integrate_curve(k)).e
        values = np.array([spec.a, spec.b, spec.a, spec.b])
        lengths = np.full(4, 0.5 * math.pi)
        via_arcs = error_vector(integrate_arcs(sc.c * values, lengths)).e
        assert abs(via_profile - via_arcs) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            integrate_arcs([], [])


@pytest.mark.parametrize("field", ["s", "pos", "theta", "t"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_planar_curve_rejects_non_finite_samples(field, bad):
    # NaN compares false, so only an explicit check keeps it out of the curve
    c = unit_circle()
    c = replace(c, t=c.s.copy())
    values = getattr(c, field).copy()
    values[-1 if field == "s" else 7] = bad
    with pytest.raises(ValueError, match="finite"):
        replace(c, **{field: values})


def _with_defect(curve, defect):
    """Copies of the curve's s, pos and theta with one defect at samples 7 and 8."""
    s, pos, theta = curve.s.copy(), curve.pos.copy(), curve.theta.copy()
    if defect == "non-finite":
        pos[7] = complex(math.nan, 0.0)
    elif defect == "non-increasing":
        s[8] = s[7]
    elif defect == "chord too long":
        pos[8] += 0.5
    else:  # a jump of the tangent angle
        theta[8:] += 4.0
    return s, pos, theta


@pytest.mark.parametrize("route", ["constructor", "csv", "json"])
@pytest.mark.parametrize("defect, match", [("non-finite", "finite"),
                                           ("non-increasing", "increase strictly"),
                                           ("chord too long", "chord length"),
                                           ("jumping theta", "jump")])
def test_public_routes_check_every_curve(tmp_path, route, defect, match):
    # the library builds its own curves unchecked (PlanarCurve._built); the
    # constructor and the curve-file reader still check what comes in
    from fourvertex import cli

    s, pos, theta = _with_defect(unit_circle(512), defect)
    if route == "constructor":
        with pytest.raises(ValueError, match=match):
            PlanarCurve(s, pos, theta)
        return
    path = tmp_path / f"curve.{route}"
    write = cli.write_curve_csv if route == "csv" else cli.write_curve_json
    write(path, PlanarCurve._built(s, pos, theta))
    with pytest.raises(ValueError, match=match):
        cli.read_curve_file(path)


def test_library_built_curves_pass_the_public_checks():
    k = profile_from_function(lambda t: 1.5 + np.cos(2 * t))
    circle = integrate_curve(normalize_total(k)[0])
    for c in (circle, scale_curve(circle, ScaleFactor(-2.5)), solver.synthesize(k).curve,
              solver.error_at_beta(k, 0.1 + 0.05j).curve):
        assert c.s.dtype == c.theta.dtype == float and c.pos.dtype == complex
        checked = PlanarCurve(c.s, c.pos, c.theta, c.scale, c.t)
        assert all(np.array_equal(getattr(checked, f), getattr(c, f))
                   for f in ("s", "pos", "theta"))


def closed_polygon(vertices, s=None) -> PlanarCurve:
    """The closed polygon through ``vertices``, by default at unit arc-length steps."""
    pos = np.append(np.asarray(vertices, dtype=complex), vertices[0])
    s = np.arange(pos.size, dtype=float) if s is None else s
    return PlanarCurve(s=s, pos=pos, theta=np.zeros(pos.size))


def sweep_result(c):
    _, pos, _, closed = _ring(c)
    return integrator._sweep(pos, closed)


def chord_polygon(vertices) -> PlanarCurve:
    """The closed polygon through ``vertices``, its arc length the chord lengths."""
    z = np.asarray(vertices, dtype=complex)
    chords = np.abs(np.diff(np.append(z, z[0])))
    return closed_polygon(z, s=np.concatenate(([0.0], np.cumsum(chords))))


def star_certified(c) -> bool:
    return integrator._star_shaped(_ring(c)[1])


def random_polygon(n, spread, squash, turns, seed) -> np.ndarray:
    """Vertices at sorted random angles on radii 1 + spread * noise, squashed
    along y: convex, nearly convex, star-shaped, thin, wound the other way
    (turns -1) or twice (turns 2)."""
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n)) * turns
    z = (1.0 + spread * rng.uniform(0.0, 1.0, n)) * np.exp(1j * angles)
    return z.real + 1j * squash * z.imag


RANDOM_POLYGONS = dict(
    n=st.integers(3, 40), spread=st.sampled_from([0.0, 0.01, 0.3, 1.0, 3.0]),
    squash=st.sampled_from([1.0, 1e-3, 1e-6]), turns=st.sampled_from([1, -1, 2]),
    seed=st.integers(0, 2 ** 32 - 1))


def reference_star_shaped(pos) -> bool:
    """The star certificate with its margin in one expression: the reference for _star_shaped."""
    d = np.append(pos, pos[0]) - pos.mean()
    x, y = d.real, d.imag
    p1, p2 = x[:-1] * y[1:], y[:-1] * x[1:]
    cross = p1 - p2
    if cross.min() > 0.0:
        lower = y < 0.0
    elif cross.max() < 0.0:
        lower = y > 0.0
    else:
        return False
    slack = 8.0 * 2.0 ** -53 * (np.abs(p1) + np.abs(p2)) + 8.0 * math.ulp(0.0)
    if not (np.abs(cross) > slack).all():
        return False
    return int((lower[:-1] & ~lower[1:]).sum()) == 1


class TestConvexCertificate:
    @pytest.mark.parametrize("vertices, certified", [
        ([0, 1, 1, 1 + 1j, 1j], False),      # a zero-length chord
        ([0, 0.5, 1, 1 + 1j, 1j], True),     # three collinear vertices
        (np.exp(2j * np.pi * np.arange(10) / 5) * 0.3, False),  # a pentagon wound twice
    ], ids=["zero-chord", "collinear", "doubly-wound"])
    def test_degenerate_polygons_take_the_sweep(self, vertices, certified):
        # the collinear square is simple and star-shaped, so the certificate
        # decides it; its answer must still be the sweep's
        c = closed_polygon(vertices)
        assert star_certified(c) == certified
        assert is_simple(c) == sweep_result(c)
        if len(vertices) == 10:
            assert not is_simple(c)[0]

    @pytest.mark.parametrize("orientation", [1, -1])
    def test_convex_curves_are_certified(self, orientation):
        # the square with three collinear vertices is convex, not strictly,
        # and star-shaped about its vertex mean
        for c in (unit_circle(), closed_polygon(np.exp(2j * np.pi * np.arange(7) / 7)),
                  closed_polygon([0, 0.5, 1, 1 + 1j, 1j])):
            if orientation < 0:
                c = replace(c, pos=np.conj(c.pos))
            assert star_certified(c)
            assert is_simple(c) == sweep_result(c) == (True, None)

    @settings(max_examples=200, deadline=None)
    @given(**RANDOM_POLYGONS)
    def test_matches_sweep_on_random_polygons(self, n, spread, squash, turns, seed):
        # the certificate may decide only where the sweep (checked against
        # brute force elsewhere) finds the polygon simple
        z = random_polygon(n, spread, squash, turns, seed)
        chords = np.abs(np.diff(np.append(z, z[0])))
        assume(np.all(chords > 0.0))
        c = closed_polygon(z, s=np.concatenate(([0.0], np.cumsum(chords))))
        assert is_simple(c) == sweep_result(c)


class TestStarCertificate:
    @settings(max_examples=300, deadline=None)
    @given(**RANDOM_POLYGONS)
    def test_matches_reference(self, n, spread, squash, turns, seed):
        pos = random_polygon(n, spread, squash, turns, seed)
        assert integrator._star_shaped(pos) == reference_star_shaped(pos)

    def test_alternating_star_is_certified_in_linear_time(self):
        # radii alternating 1 and 0.05: every chord is long, so the pair sweep
        # pairs each with thousands of others; the certificate decides in O(n)
        n = 1 << 16
        radii = np.where(np.arange(n) % 2 == 0, 1.0, 0.05)
        c = closed_polygon(radii * np.exp(2j * np.pi * np.arange(n) / n))
        start = time.perf_counter()
        assert is_simple(c) == (True, None)
        assert time.perf_counter() - start < 0.5
        assert star_certified(c)

    @pytest.mark.parametrize("vertices", [
        np.concatenate((np.exp(1j * np.linspace(0.3, 2 * np.pi - 0.3, 64)),
                        0.9 * np.exp(1j * np.linspace(2 * np.pi - 0.3, 0.3, 64)))),
        # five teeth of height 0.8 on a spine of height 0.2
        [0, 9] + [complex(x, y) for i in range(4, -1, -1)
                  for x, y in ((2 * i + 1, 1), (2 * i, 1), (2 * i, 0.2), (2 * i - 1, 0.2))][:-2],
    ], ids=["thin-C", "comb"])
    def test_simple_polygons_not_star_about_the_mean_take_the_sweep(self, vertices):
        c = chord_polygon(vertices)
        assert not star_certified(c)
        assert is_simple(c) == sweep_result(c) == (True, None)
