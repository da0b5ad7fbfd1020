import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourvertex.bicircle import (
    Configuration,
    LoopTouchesCore,
    ReducedConfigCoords,
    arclength_to_angle_config,
    closed_form_error,
    core_defect,
    error_from_angle_config,
    error_winding_on_core_link,
    from_reduced,
    integrated_error,
    is_core,
    random_configuration,
    random_core_configuration,
    to_reduced,
)
from fourvertex.curvature import TWO_PI
from fourvertex.integrator import InsufficientDensity
from fourvertex.moebius import moebius_on_config

P0 = Configuration(1, 1j, -1, -1j)


class TestConfiguration:
    def test_rejects_off_circle(self):
        with pytest.raises(ValueError):
            Configuration(1.1, 1j, -1, -1j)

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            Configuration(1, -1j, -1, 1j)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Configuration(1, 1, -1, -1j)


class TestCore:
    def test_quarter_points(self):
        assert is_core(P0)

    def test_antipodal_pairs(self):
        w = cmath.exp(1j * math.pi / 4)
        assert is_core(Configuration(1, w, -1, -w))

    def test_broken_pair(self):
        w = cmath.exp(1j * math.pi / 4)
        assert not is_core(Configuration(1, w, -1, -1j))

    def test_reduced_characterization(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            c = random_core_configuration(rng, reduced=True)
            _, rc = to_reduced(c)
            assert abs(rc.y - 0.5) < 1e-12
            assert abs(rc.z - (rc.x + 0.5)) < 1e-12
        # perturbing y off 1/2 leaves the core
        x = 0.2
        bad = from_reduced(1.0, ReducedConfigCoords(x, 0.5 + 1e-3, x + 0.5))
        assert not is_core(bad)


class TestReduced:
    def test_quarter_points(self):
        rot, rc = to_reduced(P0)
        assert rot == 1
        assert (rc.x, rc.y, rc.z) == (0.25, 0.5, 0.75)

    def test_rotated_quarter_points(self):
        rot, rc = to_reduced(Configuration(1j, -1, -1j, 1))
        assert rot == 1j
        assert np.allclose((rc.x, rc.y, rc.z), (0.25, 0.5, 0.75), atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        c = random_configuration(rng)
        rot, rc = to_reduced(c)
        back = from_reduced(rot, rc)
        assert max(abs(p - q) for p, q in zip(back.points(), c.points())) < 1e-12


class TestAngleConfig:
    def test_quarter_points_explicit(self):
        q, ap, bp = arclength_to_angle_config(P0, 0.5, 1.5)
        assert ap == pytest.approx(0.5, abs=1e-15)
        assert bp == pytest.approx(1.5, abs=1e-15)
        expect = (1, cmath.exp(1j * math.pi / 4), -1, cmath.exp(5j * math.pi / 4))
        assert max(abs(p - e) for p, e in zip(q.points(), expect)) < 1e-12
        assert abs(1 - q.p2 + q.p3 - q.p4) < 1e-12

    def test_core_maps_to_core(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            c = random_core_configuration(rng, reduced=True)
            a = rng.uniform(0.1, 2.0)
            b = a * rng.uniform(1.1, 4.0)
            q, _, _ = arclength_to_angle_config(c, a, b)
            assert is_core(q, 1e-10)

    def test_near_uniform_values_keep_division_points(self):
        rng = np.random.default_rng(7)
        c = random_configuration(rng, reduced=True)
        q, _, _ = arclength_to_angle_config(c, 1.0, 1.0 + 1e-9)
        assert max(abs(p - e) for p, e in zip(q.points(), c.points())) < 1e-8


class TestClosedFormError:
    def test_core_is_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            c = random_core_configuration(rng, reduced=True)
            assert closed_form_error(c, 0.5, 2.0).magnitude < 1e-12

    def test_matches_integration(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(200):
            c = random_configuration(rng, reduced=True)
            a = rng.uniform(0.1, 2.0)
            b = a * rng.uniform(1.1, 4.0)
            diff = abs(closed_form_error(c, a, b).e - integrated_error(c, a, b)[0].e)
            worst = max(worst, diff)
        assert worst < 1e-9

    def test_scale_invariance_in_values(self):
        # renormalization makes (2a, 2b) the same curve as (a, b)
        rng = np.random.default_rng(10)
        c = random_configuration(rng, reduced=True)
        e1 = closed_form_error(c, 0.5, 2.0).e
        e2 = closed_form_error(c, 1.0, 4.0).e
        assert e1 == e2

    def test_zero_iff_core(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            core = random_core_configuration(rng, reduced=True)
            assert closed_form_error(core, 0.5, 2.0).magnitude < 1e-9
            other = random_configuration(rng, reduced=True)
            if abs(core_defect(other)) < 1e-4:
                continue
            assert closed_form_error(other, 0.5, 2.0).magnitude > 1e-9

    def test_angle_route_agrees(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            c = random_configuration(rng, reduced=True)
            a = rng.uniform(0.1, 2.0)
            b = a * rng.uniform(1.1, 4.0)
            q, _, _ = arclength_to_angle_config(c, a, b)
            assert abs(error_from_angle_config(q, a, b).e
                       - closed_form_error(c, a, b).e) < 1e-12


class TestWinding:
    def loop_around_core(self, radius, n=256):
        return [moebius_on_config(radius * cmath.exp(2j * math.pi * j / n), P0)
                for j in range(n)]

    def test_moebius_loop_winds_once(self):
        w = error_winding_on_core_link(0.5, 2.0, self.loop_around_core(0.2))
        assert abs(w) == 1

    def test_sparse_loop_raises_insufficient_density(self):
        with pytest.raises(InsufficientDensity):
            error_winding_on_core_link(0.5, 2.0, self.loop_around_core(0.2, n=3))

    def test_constant_loop(self):
        rng = np.random.default_rng(13)
        c = random_configuration(rng, reduced=True)
        if abs(core_defect(c)) < 1e-3:  # pragma: no cover
            c = from_reduced(1.0, ReducedConfigCoords(0.1, 0.3, 0.6))
        assert error_winding_on_core_link(0.5, 2.0, [c] * 64) == 0

    def test_small_non_linking_loop(self):
        # a loop around an off-core point of the reduced space
        base = ReducedConfigCoords(0.2, 0.4, 0.7)
        loop = []
        for j in range(128):
            phi = TWO_PI * j / 128
            loop.append(from_reduced(1.0, ReducedConfigCoords(
                base.x + 0.02 * math.cos(phi), base.y,
                base.z + 0.02 * math.sin(phi))))
        assert error_winding_on_core_link(0.5, 2.0, loop) == 0

    def test_core_adjacent_loop_rejected_by_precondition(self):
        loop = [random_core_configuration(np.random.default_rng(14))] * 16
        with pytest.raises(ValueError):
            error_winding_on_core_link(0.5, 2.0, loop)

    def test_vanishing_error_raises_loop_touches_core(self):
        # nearly equal values shrink the error below threshold even though
        # the configurations stay a safe distance from the core
        base = ReducedConfigCoords(0.2, 0.45, 0.8)
        loop = [from_reduced(1.0, base)] * 16
        assert abs(core_defect(loop[0])) > 1e-3
        with pytest.raises(LoopTouchesCore):
            error_winding_on_core_link(1.0, 1.0 + 1e-13, loop)

