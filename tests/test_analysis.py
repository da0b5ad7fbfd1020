import math
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fourvertex import analysis
from fourvertex.analysis import (
    ConstantCurvature,
    ContactComponent,
    EnclosingCircle,
    EnclosingCircleFailed,
    NoContact,
    NotClosed,
    NotSimple,
    contact_angular_gap,
    contact_components,
    detect_vertices,
    min_enclosing_circle,
    osserman_check,
    random_convex_curve,
    random_star_curve,
)
from fourvertex.curvature import (
    Plateau, ScaleFactor, StepSpec, normalize_total, profile_from_function, profile_from_step)
from fourvertex.integrator import PlanarCurve, integrate_curve, scale_curve
from fourvertex.solver import synthesize

from conftest import ellipse_curve, ellipse_kappa


def unit_circle_curve(n=2048):
    return integrate_curve(profile_from_function(lambda t: np.ones_like(t), n=n))


def bicircle_curve(n=4096):
    k, _ = normalize_total(profile_from_step(StepSpec(0.5, 2.0), n))
    return integrate_curve(k)


class TestMinEnclosingCircle:
    def test_diametral_pair(self):
        c = min_enclosing_circle([0 + 0j, 2 + 0j])
        assert c.center == pytest.approx(1 + 0j)
        assert c.radius == pytest.approx(1.0)

    def test_equilateral_triangle(self):
        pts = [np.exp(2j * math.pi * k / 3) for k in range(3)]
        side = abs(pts[0] - pts[1])
        c = min_enclosing_circle(pts)
        assert c.radius == pytest.approx(side / math.sqrt(3), abs=1e-12)

    def test_random_points_contained_with_boundary_support(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        c = min_enclosing_circle(pts)
        d = np.abs(pts - c.center)
        assert np.max(d) <= c.radius * (1 + 1e-9)
        support = np.sum(d > c.radius * (1 - 1e-7))
        assert 2 <= support  # at least a diametral pair on the boundary

    def test_permutation_and_interior_invariance(self):
        rng = np.random.default_rng(3)
        pts = list(rng.normal(size=60) + 1j * rng.normal(size=60))
        base = min_enclosing_circle(pts)
        rng.shuffle(pts)
        permuted = min_enclosing_circle(pts)
        assert abs(permuted.center - base.center) < 1e-12
        assert abs(permuted.radius - base.radius) < 1e-12
        padded = min_enclosing_circle(pts + [base.center])
        assert abs(padded.radius - base.radius) < 1e-12

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=100) + 1j * rng.normal(size=100)
        a = min_enclosing_circle(pts)
        b = min_enclosing_circle(pts)
        assert a == b

    def test_requires_points(self):
        with pytest.raises(ValueError):
            min_enclosing_circle([])

    def test_one_point(self):
        c = min_enclosing_circle([1.5 - 2j])
        assert c.center == 1.5 - 2j and c.radius == 0.0

    def test_all_points_equal(self):
        c = min_enclosing_circle([0.3 + 0.7j] * 40)
        assert c.center == 0.3 + 0.7j and c.radius == 0.0

    def test_exactly_collinear(self):
        rng = np.random.default_rng(6)
        pts = 2 + 1j + rng.permutation(np.linspace(-1.0, 3.0, 101)) * (1 + 2j)
        c = min_enclosing_circle(pts)
        assert abs(c.center - (3 + 3j)) < 1e-14
        assert c.radius == pytest.approx(2 * abs(1 + 2j), rel=1e-15)

    def test_regular_polygon_on_circle(self):
        pts = 0.25 + np.exp(2j * math.pi * np.arange(2048) / 2048)
        c = min_enclosing_circle(pts)
        assert abs(c.center - 0.25) < 1e-15
        assert c.radius == pytest.approx(1.0, rel=1e-15)
        assert np.all(np.abs(pts - c.center) <= c.radius * analysis._IN_CIRCLE_EPS)

    @pytest.mark.parametrize("scale", [1e-300, 1e150, 1e300])
    def test_extreme_coordinates_scale_exactly(self, scale):
        # the circumcenter's cubic terms would overflow or underflow unscaled
        rng = np.random.default_rng(7)
        pts = rng.normal(size=50) + 1j * rng.normal(size=50)
        base = min_enclosing_circle(pts)
        c = min_enclosing_circle(pts * scale)
        assert c.radius == pytest.approx(base.radius * scale, rel=1e-15)
        assert abs(c.center - base.center * scale) <= 1e-15 * base.radius * scale

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            min_enclosing_circle([0j, 1 + 1j, bad, 2j])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_imaginary_part_of_array_rejected(self, bad):
        pts = np.array([0j, 1 + 1j, 2j, 1 + 0j])
        pts.imag[2] = bad
        with pytest.raises(ValueError, match="finite"):
            min_enclosing_circle(pts)

    def test_strided_array_same_as_contiguous_copy(self):
        pos = random_star_curve(np.random.default_rng(5)).pos
        strided = pos[::3]
        assert not strided.flags.c_contiguous
        assert min_enclosing_circle(strided) == min_enclosing_circle(strided.copy())

    def test_real_valued_list(self):
        c = min_enclosing_circle([-1.0, 3.0, 0.5])
        assert c == EnclosingCircle(1 + 0j, 2.0)

    def test_iteration_cap_raises(self, monkeypatch):
        # two points take only the check of the starting pair's circle; an
        # acute triangle needs one update after the pair's diameter
        monkeypatch.setattr(analysis, "_MEC_MAX_ITER", 1)
        assert min_enclosing_circle([0j, 2 + 0j]).radius == 1.0
        with pytest.raises(EnclosingCircleFailed):
            min_enclosing_circle([0j, 2 + 0j, 1 + 1.5j])


def brute_force_circle(pts):
    """Smallest of the circles centered on a pair's midpoint or a triple's
    circumcenter, each grown to reach its farthest point."""
    pts = np.asarray(pts, dtype=complex)
    centers = [pts[0]] + [0.5 * (p + q) for p, q in combinations(pts, 2)]
    for a, b, c in combinations(pts, 3):
        u, v = b - a, c - a
        det = 2.0 * (u.real * v.imag - u.imag * v.real)
        if det != 0.0:
            uu, vv = abs(u) ** 2, abs(v) ** 2
            centers.append(a + complex(uu * v.imag - vv * u.imag, vv * u.real - uu * v.real) / det)
    radii = [float(np.max(np.abs(pts - c))) for c in centers]
    return min(radii)


grid = st.integers(-64, 64).map(lambda k: k / 16)


@st.composite
def small_point_sets(draw):
    """At most 10 points: scattered on a grid, near a line or near a circle;
    some duplicated."""
    kind = draw(st.sampled_from(["scattered", "line", "circle"]))
    if kind == "scattered":
        pts = draw(st.lists(st.builds(complex, grid, grid), min_size=1, max_size=7))
    elif kind == "circle":
        ks = draw(st.lists(st.integers(0, 63), min_size=1, max_size=7, unique=True))
        rel = draw(st.lists(st.sampled_from([0.0, -1e-11, 1e-11, 1e-6]),
                            min_size=len(ks), max_size=len(ks)))
        center = draw(st.builds(complex, grid, grid))
        pts = [center + (1 + d) * complex(math.cos(k * math.pi / 32), math.sin(k * math.pi / 32))
               for k, d in zip(ks, rel)]
    else:
        a = draw(st.builds(complex, grid, grid))
        b = a + draw(st.builds(complex, grid, grid).filter(lambda d: d != 0))
        ts = draw(st.lists(st.integers(-8, 8), min_size=2, max_size=7, unique=True))
        off = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-4]))
        signs = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=len(ts), max_size=len(ts)))
        pts = [a + (t / 4) * (b - a) + s * off * 1j * (b - a) for t, s in zip(ts, signs)]
    dups = draw(st.lists(st.integers(0, len(pts) - 1), max_size=3))
    return pts + [pts[i] for i in dups]


@settings(max_examples=400, deadline=None)
@given(small_point_sets())
def test_enclosing_circle_matches_brute_force(pts):
    c = min_enclosing_circle(pts)
    ref = brute_force_circle(pts)
    assert abs(c.radius - ref) <= 1e-12 * ref
    assert np.all(np.abs(np.asarray(pts) - c.center) <= c.radius * (1 + 1e-12))


def brute_force_support(points, through_last=False):
    """The first circle of strictly smallest radius over every pair's midpoint
    and every triple's circumcenter, in the order of ``combinations``; with
    ``through_last``, over the pairs and triples that end in the last point."""
    best = None
    ids = range(len(points))
    for sub in chain(combinations(ids, 2), combinations(ids, 3)):
        if through_last and sub[-1] != ids[-1]:
            continue
        sub = [points[i] for i in sub]
        center = 0.5 * (sub[0] + sub[1]) if len(sub) == 2 else analysis._circumcenter(*sub)
        if center is None:
            continue
        radius = max(abs(p - center) for p in points)
        if best is None or radius < best[2]:
            best = (list(sub), center, radius)
    return best


unit = st.floats(-1.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.builds(complex, unit, unit), min_size=2, max_size=4))
def test_support_circle_matches_brute_force(points):
    # the enclosing-circle loop adds a point only when it lies outside the
    # smallest circle of the support so far
    *rest, new = points
    _, center, radius = brute_force_support(rest) if len(rest) > 1 else (rest, rest[0], 0.0)
    assume(abs(new - center) > radius * analysis._IN_CIRCLE_EPS)
    got = analysis._support_circle(points)
    assert repr(got) == repr(brute_force_support(points, through_last=True))
    # Welzl's lemma: no pair or triple of all the points gives a smaller
    # circle; a repeated point can tie it with one that omits the new point
    assert got[2] <= brute_force_support(points)[2] * (1 + 1e-12)


def reference_contact_components(near, params):
    """The former sample loop: maximal runs of the mask, merged cyclically."""
    m = len(near)
    runs = []
    j = 0
    while j < m:
        if near[j]:
            j0 = j
            while j < m and near[j]:
                j += 1
            runs.append((j0, j - j0))
        else:
            j += 1
    if len(runs) > 1 and near[0] and near[m - 1]:
        first, last = runs[0], runs.pop()
        runs[0] = (last[0], last[1] + first[1])
    if len(runs) == 1 and runs[0][1] == m:
        return [ContactComponent((float(params[0]), float(params[m - 1])), "arc", 0, m)]
    out = []
    for start, count in runs:
        end = (start + count - 1) % m
        kind = "point" if count <= 2 else "arc"
        out.append(ContactComponent(
            (float(params[start]), float(params[end])), kind, start, count))
    return out


def masked_arc(near):
    """Open polyline over half the unit circle: masked samples on it, others at radius 0.5."""
    near = np.asarray(near, dtype=bool)
    m = near.size
    pos = np.where(near, 1.0, 0.5) * np.exp(1j * math.pi * np.arange(m) / m)
    s = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(pos)) + 1e-3)))
    return PlanarCurve(s=s, pos=pos, theta=np.zeros(m), t=0.1 * np.arange(m))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), min_size=2, max_size=40).filter(any))
@example([True] * 2)
@example([True] * 7)
@example([True, False, True])
@example([True, True, False, False, True])
@example([False, True, True, True, False])
def test_contact_components_match_sample_loop(near):
    c = masked_arc(near)
    comps = contact_components(c, EnclosingCircle(0j, 1.0))
    assert comps == reference_contact_components(near, c.t)
    assert all(type(x.index_start) is int and type(x.index_count) is int for x in comps)


class TestContactComponents:
    def test_circle_touches_everywhere(self):
        c = unit_circle_curve()
        mec = min_enclosing_circle(c.pos)
        comps = contact_components(c, mec)
        assert len(comps) == 1
        assert comps[0].kind == "arc"
        assert comps[0].index_count == c.pos.size - 1

    def test_ellipse_two_antipodal_points(self, ellipse):
        mec = min_enclosing_circle(ellipse.pos)
        comps = contact_components(ellipse, mec)
        assert [c.kind for c in comps] == ["point", "point"]
        t0 = comps[0].interval[0]
        t1 = comps[1].interval[0]
        assert abs(abs(t1 - t0) - math.pi) < 1e-6

    def test_bicircle_two_point_components_on_sharp_arcs(self):
        # the high-curvature arcs bulge farthest from the center, so the
        # enclosing circle meets them in two antipodal single points
        c = bicircle_curve()
        mec = min_enclosing_circle(c.pos)
        comps = contact_components(c, mec)
        assert len(comps) == 2
        assert all(comp.kind == "point" for comp in comps)

    def test_no_contact_when_band_misses_curve(self):
        c = unit_circle_curve()
        mec = min_enclosing_circle(c.pos)
        inflated = EnclosingCircle(mec.center, mec.radius * (1 + 1e-3))
        with pytest.raises(NoContact):
            contact_components(c, inflated)

    def test_contact_gap_never_exceeds_half_turn(self, ellipse):
        mec = min_enclosing_circle(ellipse.pos)
        assert contact_angular_gap(ellipse, mec) <= math.pi + 1e-6


def reference_angular_gap(c, circle):
    """The former formula: sorted contact angles, the first appended a turn later, largest step."""
    pos = c.pos[:-1] if c.closed else c.pos
    band = analysis.CONTACT_BAND * circle.radius
    near = np.abs(np.abs(pos - circle.center) - circle.radius) < band
    ang = np.sort(np.angle(pos[near] - circle.center))
    return float(np.max(np.diff(np.concatenate((ang, [ang[0] + 2 * math.pi])))))


class TestContactAngularGap:
    def test_matches_former_formula_on_corpus(self):
        rng = np.random.default_rng(11)
        for i in range(40):
            c = random_convex_curve(rng) if i % 2 == 0 else random_star_curve(rng)
            mec = min_enclosing_circle(c.pos)
            assert contact_angular_gap(c, mec) == reference_angular_gap(c, mec)

    def test_largest_gap_wraps_around(self):
        # contact angles 0.1, 1.2 and 2.9 rad: the gap from 2.9 back to 0.1 is the largest
        pos = np.exp(1j * np.array([0.1, 1.2, 2.9, 0.5, 1.0]))
        pos[3:] *= 0.5
        c = PlanarCurve._built(np.arange(5.0), pos, np.zeros(5), t=np.arange(5.0))
        circle = EnclosingCircle(0j, 1.0)
        gap = contact_angular_gap(c, circle)
        assert gap == reference_angular_gap(c, circle)
        assert gap == pytest.approx(2 * math.pi - 2.8, abs=1e-12)

    def test_single_contact_sample_is_a_full_turn(self):
        pos = np.array([1.0, 0.5j, -0.5, -0.5j, 0.25 + 0.25j]) * np.exp(0.3j)
        c = PlanarCurve._built(np.arange(5.0), pos, np.zeros(5), t=np.arange(5.0))
        circle = EnclosingCircle(0j, 1.0)
        gap = contact_angular_gap(c, circle)
        assert gap == reference_angular_gap(c, circle)
        assert gap == pytest.approx(2 * math.pi, abs=1e-15)


class TestDetectVertices:
    def test_ellipse_four_vertices(self, ellipse):
        rep = detect_vertices(ellipse)
        assert rep.count == 4
        values = sorted(v[2] for v in rep.vertices)
        assert values[0] == pytest.approx(0.25, abs=1e-4)
        assert values[-1] == pytest.approx(2.0, abs=1e-4)
        params = sorted(v[0][0] for v in rep.vertices)
        assert np.allclose(params, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                           atol=1e-2)
        kinds = [v[1] for v in sorted(rep.vertices, key=lambda v: v[0][0])]
        assert kinds == ["max", "min", "max", "min"]

    def test_ellipse_against_closed_form(self, ellipse):
        rep = detect_vertices(ellipse)
        for (t0, _), _, value in rep.vertices:
            assert value == pytest.approx(float(ellipse_kappa(t0)), abs=1e-4)

    def test_limacon_two_vertices(self, limacon):
        rep = detect_vertices(limacon)
        assert rep.count == 2
        values = sorted(v[2] for v in rep.vertices)
        assert values[0] == pytest.approx(5 / 9, abs=1e-4)
        assert values[1] == pytest.approx(3.0, abs=1e-4)

    def test_bicircle_four_plateau_vertices(self):
        rep = detect_vertices(bicircle_curve())
        assert rep.count == 4
        values = sorted(v[2] for v in rep.vertices)
        assert values[0] == pytest.approx(0.4, abs=1e-9)   # 0.5 * 0.8
        assert values[-1] == pytest.approx(1.6, abs=1e-9)  # 2.0 * 0.8

    def test_circle_raises(self):
        with pytest.raises(ConstantCurvature):
            detect_vertices(unit_circle_curve())

    @pytest.mark.parametrize("kinds", [["max", "max", "min", "min"], ["max", "min", "max"]],
                             ids=["repeated", "odd"])
    def test_kinds_that_fail_to_alternate_raise(self, ellipse, monkeypatch, kinds):
        plateaus = [Plateau(100 * i, 1, kind, float(i)) for i, kind in enumerate(kinds)]
        monkeypatch.setattr(analysis, "plateau_extrema", lambda values: plateaus)
        with pytest.raises(RuntimeError, match="vertex kinds failed to alternate"):
            detect_vertices(ellipse)


class TestOsserman:
    def test_ellipse_bound_with_equality(self, ellipse):
        rep = osserman_check(ellipse)
        assert rep.n == 2
        assert rep.vertex_count == 4
        assert rep.bound_2n_satisfied
        assert rep.bonus_vertices == 0
        K = rep.circle.curvature
        assert all(v < K for _, v in rep.per_gap_low_points)
        assert all(v >= K * 0.98 for _, v in rep.per_component_high_points)

    def test_circle_is_the_excluded_case(self):
        with pytest.raises(ConstantCurvature):
            osserman_check(unit_circle_curve())

    def test_bicircle(self):
        rep = osserman_check(bicircle_curve())
        assert rep.vertex_count >= 2 * rep.n

    def test_limacon_not_simple(self, limacon):
        with pytest.raises(NotSimple):
            osserman_check(limacon)

    def test_open_curve_rejected(self):
        c = unit_circle_curve()
        arc = PlanarCurve(s=c.s[:1024], pos=c.pos[:1024], theta=c.theta[:1024])
        with pytest.raises(NotClosed):
            osserman_check(arc)


class TestSingleArcContact:
    """A circle with one smooth dent: the contact set is a single long arc."""

    @staticmethod
    def dented_circle(n=4096, width=1.2, depth=0.08):
        from conftest import polar_curve

        def r_fn(t):
            tm = np.mod(np.asarray(t, float), 2 * math.pi)
            dent = depth * np.sin(math.pi * tm / width) ** 2
            return np.where(tm < width, 1.0 - dent, 1.0)

        def rp_fn(t):
            tm = np.mod(np.asarray(t, float), 2 * math.pi)
            dp = -depth * math.pi / width * np.sin(2 * math.pi * tm / width)
            return np.where(tm < width, dp, 0.0)

        return polar_curve(r_fn, rp_fn, n)

    def test_single_component_with_bonus(self):
        rep = osserman_check(self.dented_circle())
        assert rep.n == 1
        assert rep.components[0].kind == "arc"
        assert rep.bonus_vertices == 2
        assert rep.vertex_count >= 2 * rep.n + rep.bonus_vertices
        assert rep.bonus_bound_satisfied

    def test_undented_arc_is_a_curvature_plateau(self):
        rep = detect_vertices(self.dented_circle())
        plateau = [v for v in rep.vertices if abs(v[2] - 1.0) < 1e-6]
        assert len(plateau) == 1 and plateau[0][1] == "min"


def synthesized_curve(n):
    """The curve synthesize builds for 1.5 + cos 2t + 0.1 sin 3t on n samples."""
    k = profile_from_function(lambda t: 1.5 + np.cos(2 * t) + 0.1 * np.sin(3 * t), n=n)
    return synthesize(k).curve


class TestContactBand:
    """Contacts judged at CONTACT_BAND * R, from the smallest grid to cli.MAX_GRID."""

    @pytest.mark.parametrize("n", [512, 4096, 65536, 262144])
    @pytest.mark.parametrize("make", [ellipse_curve, bicircle_curve, synthesized_curve],
                             ids=["ellipse", "bicircle", "synthesized"])
    def test_two_point_contacts_at_every_grid(self, make, n):
        # each curve bulges to its circle at two antipodal samples; the
        # strengthened bound needs every component to be an arc, so it is not judged
        rep = osserman_check(make(n))
        assert [comp.kind for comp in rep.components] == ["point", "point"]
        assert rep.bonus_vertices == 0
        assert rep.bonus_bound_satisfied is None

    @pytest.mark.parametrize("n", [512, 4096, 65536, 262144])
    def test_circle_is_one_arc_of_all_samples(self, n):
        c = unit_circle_curve(n)
        comps = contact_components(c, min_enclosing_circle(c.pos))
        assert [(comp.kind, comp.index_start, comp.index_count) for comp in comps] == [
            ("arc", 0, n)]

    @pytest.mark.parametrize("make", [random_convex_curve, random_star_curve])
    def test_contacts_do_not_depend_on_scale(self, make):
        c = make(np.random.default_rng(1))
        rep = osserman_check(c)
        for factor in (2.0**-20, 2.0**20):
            scaled = osserman_check(scale_curve(c, ScaleFactor(factor)))
            assert [x.kind for x in scaled.components] == [x.kind for x in rep.components]
            assert scaled.n == rep.n
            assert scaled.bonus_vertices == rep.bonus_vertices
            assert scaled.bonus_bound_satisfied == rep.bonus_bound_satisfied


class TestRandomCorpus:
    @staticmethod
    def check(rep):
        assert rep.vertex_count >= 4
        assert rep.bound_2n_satisfied
        assert rep.contact_gap <= math.pi + 1e-3
        K = rep.circle.curvature
        assert all(v >= 0.98 * K for _, v in rep.per_component_high_points)
        assert all(v < K for _, v in rep.per_gap_low_points)

    def test_convex_curves(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            self.check(osserman_check(random_convex_curve(rng)))

    def test_star_curves(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            self.check(osserman_check(random_star_curve(rng)))


def reference_convex_curve(rng, n):
    """random_convex_curve's formulas with each harmonic's cosine and sine
    evaluated where used, and e^{it} twice: the reference for its arithmetic."""
    t = 2 * math.pi * np.arange(n + 1) / n
    h = np.ones_like(t)
    hp = np.zeros_like(t)
    hpp = np.zeros_like(t)
    budget = 0.0
    coefs = []
    for k in range(2, 2 + analysis.CONVEX_HARMONICS):
        ak, bk = rng.normal(0.0, analysis.CONVEX_AMPLITUDE / k**2, size=2)
        coefs.append((k, ak, bk))
        budget += (k * k + 1.0) * math.hypot(ak, bk)
    if budget < 0.01:
        coefs[0] = (2, 0.02, 0.0)
        budget += 0.1
    damp = min(1.0, 0.5 / budget) if budget > 0 else 1.0
    for k, ak, bk in coefs:
        ak *= damp
        bk *= damp
        h += ak * np.cos(k * t) + bk * np.sin(k * t)
        hp += -ak * k * np.sin(k * t) + bk * k * np.cos(k * t)
        hpp += -(k * k) * (ak * np.cos(k * t) + bk * np.sin(k * t))
    rho = h + hpp
    gamma = h * np.exp(1j * t) + hp * 1j * np.exp(1j * t)
    return analysis._closed_fixture(t, gamma, rho, t + 0.5 * math.pi)


def reference_star_curve(rng, n):
    """random_star_curve's formulas, written out the same way."""
    t = 2 * math.pi * np.arange(n + 1) / n
    r = np.ones_like(t)
    rp = np.zeros_like(t)
    for k in range(1, 1 + analysis.STAR_HARMONICS):
        ak, bk = rng.normal(0.0, analysis.STAR_AMPLITUDE / (k + 1), size=2)
        r += ak * np.cos(k * t) + bk * np.sin(k * t)
        rp += -ak * k * np.sin(k * t) + bk * k * np.cos(k * t)
    if np.min(r) < 0.1:
        r = r + (0.1 - float(np.min(r)))
    gamma = r * np.exp(1j * t)
    dgamma = (rp + 1j * r) * np.exp(1j * t)
    theta = np.unwrap(np.angle(dgamma))
    theta[-1] = theta[0] + 2 * math.pi
    return analysis._closed_fixture(t, gamma, np.abs(dgamma), theta)


@pytest.mark.parametrize("n", [64, 96, 512, 4096])
@pytest.mark.parametrize("seed", [1, 7919])
def test_random_curves_match_reference_formulas(seed, n):
    # each harmonic's cosine and sine are computed once; the curves are bit for bit the same
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(16):
        make, old = ((random_convex_curve, reference_convex_curve) if i % 2 == 0
                     else (random_star_curve, reference_star_curve))
        got, want = make(rng, n=n), old(ref, n)
        for name in ("s", "pos", "theta", "t"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (i, name)


GENERATORS = [random_convex_curve, random_star_curve]


@pytest.mark.parametrize("make", GENERATORS)
@pytest.mark.parametrize("n", [-3, 0, 1, 2, 3, analysis.MIN_SAMPLES - 1, 512.5])
def test_random_curves_reject_bad_sample_counts(make, n):
    with pytest.raises(ValueError):
        make(np.random.default_rng(1), n)


@pytest.mark.parametrize("make", GENERATORS)
def test_random_curves_at_the_fewest_samples_pass_the_checks(make):
    # numpy integers are sample counts too
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = make(rng, np.int64(analysis.MIN_SAMPLES))
        PlanarCurve(c.s, c.pos, c.theta, c.scale, c.t)
        assert c.closed and c.t[-1] == 2 * math.pi


def test_harmonic_table_is_read_only():
    for a in analysis._harmonic_table(512):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("make", GENERATORS)
def test_random_curves_own_their_arrays(make):
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    first = make(rng, 128)
    want_first, want_next = make(ref, 128), make(ref, 128)
    for name in ("t", "pos", "theta"):
        a = getattr(first, name)
        assert a.flags.writeable
        a[:] = 0
    got_next = make(rng, 128)
    fresh = make(np.random.default_rng(5), 128)
    for name in ("s", "pos", "theta", "t"):
        assert np.array_equal(getattr(got_next, name), getattr(want_next, name)), name
        assert np.array_equal(getattr(fresh, name), getattr(want_first, name)), name


def test_random_curves_survive_table_eviction():
    def curves(n):
        rng = np.random.default_rng(11)
        return [random_convex_curve(rng, n), random_star_curve(rng, n)]

    before = curves(64)
    for n in range(65, 66 + analysis._harmonic_table.cache_info().maxsize):
        curves(n)
    for got, want in zip(curves(64), before):
        for name in ("s", "pos", "theta", "t"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
