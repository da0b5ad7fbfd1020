import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourvertex.bicircle import (
    Configuration,
    core_defect,
    is_core,
    random_configuration,
)
from fourvertex.curvature import TWO_PI
from fourvertex.moebius import (
    MoebiusParameter,
    _circle,
    evaluation_inverse,
    moebius_apply,
    moebius_lift,
    moebius_on_config,
)

P0 = Configuration(1, 1j, -1, -1j)

angles = st.floats(min_value=0.0, max_value=TWO_PI)
betas = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


class TestApply:
    def test_zero_parameter_is_identity(self):
        for z in (1.0, 1j, 0.3 - 0.4j):
            assert moebius_apply(0.0, z) == z

    def test_moves_parameter_to_origin(self):
        beta = 0.3 + 0.2j
        assert abs(moebius_apply(beta, beta)) < 1e-15
        assert moebius_apply(beta, 0.0) == pytest.approx(-beta)

    def test_fixed_points_on_axis(self):
        assert moebius_apply(0.5, 1.0) == pytest.approx(1.0)
        assert moebius_apply(0.5, -1.0) == pytest.approx(-1.0)

    @settings(max_examples=200, deadline=None)
    @given(angles, betas)
    def test_preserves_unit_circle(self, phi, beta):
        z = cmath.exp(1j * phi)
        assert abs(abs(moebius_apply(beta, z)) - 1.0) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(angles, angles, betas)
    def test_intertwines_with_rotations(self, phi, psi, beta):
        rot = cmath.exp(1j * phi)
        z = cmath.exp(1j * psi)
        left = moebius_apply(rot * beta, rot * z)
        right = rot * moebius_apply(beta, z)
        assert abs(left - right) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MoebiusParameter(1.0)
        with pytest.raises(ValueError):
            moebius_apply(1.2, 0.5)


class TestOnConfig:
    def test_identity(self):
        q = moebius_on_config(0.0, P0)
        assert q.points() == P0.points()

    def test_order_preserved(self):
        q = moebius_on_config(0.3, P0)  # constructor validates ccw order
        assert all(abs(abs(p) - 1) < 1e-12 for p in q.points())

    @staticmethod
    def lift_at_knots(beta, steps):
        """The lift at the knots, rebuilt from its start 2 arg(1 - beta) and the steps."""
        return 2.0 * cmath.phase(1.0 - beta) + np.concatenate(([0.0], np.cumsum(steps)))

    def test_lift_matches_direct_values(self):
        beta = 0.4 - 0.1j
        steps = moebius_lift(beta, n=512)
        assert steps.shape == (512,) and np.all(steps > 0)
        knots = TWO_PI * np.arange(513) / 512
        direct = moebius_apply(beta, np.exp(1j * knots))
        assert np.max(np.abs(np.exp(1j * self.lift_at_knots(beta, steps)) - direct)) < 1e-12

    def test_lift_density_guard_near_boundary(self):
        # at |beta| = 0.998 the map turns by nearly a full turn within one of
        # 16 grid cells; the closed form still gives one positive step per
        # cell, summing to one turn, and hits the map at every knot
        steps = moebius_lift(0.998, n=16)
        assert steps.size == 16
        assert np.all(steps > 0)
        assert np.sum(steps) == pytest.approx(TWO_PI, abs=1e-12)
        direct = moebius_apply(0.998, np.exp(1j * TWO_PI * np.arange(17) / 16))
        assert np.max(np.abs(np.exp(1j * self.lift_at_knots(0.998, steps)) - direct)) < 1e-12

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
    def test_lift_matches_unwrapped_map(self, r):
        # oracle: the unwrapped argument of the map on a grid dense enough
        # that no step between neighbours reaches half a turn
        grid = TWO_PI * np.arange(4097) / 4096
        for phi in TWO_PI * np.arange(6) / 6 + 0.1:
            beta = r * cmath.exp(1j * phi)
            ref = np.unwrap(np.angle(moebius_apply(beta, np.exp(1j * grid))))
            steps = moebius_lift(beta, n=4096)
            assert np.max(np.abs(self.lift_at_knots(beta, steps) - ref)) < 1e-12

    @pytest.mark.parametrize("n", [16, 512, 4096])
    def test_cached_circle_gives_the_uncached_lift(self, n):
        grid, conj_circle = _circle(n)
        assert _circle(n)[0] is grid
        assert not grid.flags.writeable and not conj_circle.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 1.0
        ref_grid = TWO_PI * np.arange(n + 1) / n
        for beta in (0.0, 0.3 + 0.4j, -0.95j, 0.998):
            ref = ref_grid + 2.0 * np.angle(1.0 - beta * np.exp(-1j * ref_grid))
            ref[-1] = ref[0] + TWO_PI
            assert np.array_equal(moebius_lift(beta, n=n), np.diff(ref))


class TestEvaluationInverse:
    def test_core_input_gives_zero(self):
        core, m = evaluation_inverse(P0)
        assert m.beta == 0
        assert core.points() == P0.points()

    def test_known_forward_map(self):
        beta = 0.3 + 0.2j
        q = moebius_on_config(beta, P0)
        core, m = evaluation_inverse(q)
        assert abs(m.beta - beta) < 1e-10
        assert max(abs(p - e) for p, e in zip(core.points(), P0.points())) < 1e-10

    def test_random_round_trips(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            q = random_configuration(rng)
            core, m = evaluation_inverse(q)
            assert is_core(core, 1e-9)
            back = moebius_on_config(m, core)
            assert max(abs(p - e)
                       for p, e in zip(back.points(), q.points())) < 1e-9

    def test_forward_then_inverse_recovers_parameter(self):
        from fourvertex.bicircle import random_core_configuration

        rng = np.random.default_rng(22)
        for _ in range(100):
            core = random_core_configuration(rng)
            beta = rng.uniform(0.0, 0.7) * cmath.exp(1j * rng.uniform(0, TWO_PI))
            q = moebius_on_config(beta, core)
            recovered, m = evaluation_inverse(q)
            assert abs(m.beta - beta) < 1e-10
            assert max(abs(p - e)
                       for p, e in zip(recovered.points(), core.points())) < 1e-10

    def test_core_distance_vanishes_only_at_zero(self):
        # along the disk through a fixed core configuration the core is met
        # exactly once, at the center
        radii = np.linspace(0.1, 0.9, 9)
        phases = TWO_PI * np.arange(16) / 16
        min_defect = min(
            abs(core_defect(moebius_on_config(r * cmath.exp(1j * p), P0)))
            for r in radii for p in phases)
        assert min_defect > 0.05
        assert abs(core_defect(moebius_on_config(0.0, P0))) == 0.0


def test_degenerate_geodesics_rejected():
    from fourvertex.moebius import NumericallyDegenerate, _intersect_geodesics

    with pytest.raises(NumericallyDegenerate):
        _intersect_geodesics(("line", 1.0 + 0j), ("line", -1.0 + 0j))
    # a configuration whose two geodesics are nearly the same diameter
    eps = 1e-8
    q = Configuration(1, cmath.exp(1j * eps), -1, -cmath.exp(1j * eps))
    with pytest.raises(NumericallyDegenerate):
        evaluation_inverse(q)


def test_boundary_degeneration_clusters_points():
    # near the boundary the four image points gather around at most two spots
    for phase in (0.0, 0.7, 2.2, 4.0):
        beta = 0.999 * cmath.exp(1j * phase)
        img = moebius_on_config(beta, P0)
        ang = np.sort(np.angle(np.asarray(img.points())))
        gaps = np.sort(np.diff(np.concatenate((ang, [ang[0] + TWO_PI]))))
        assert gaps[-1] + gaps[-2] > TWO_PI - 0.4
