import numpy as np
import pytest

from tcheb import (
    Design,
    Interval,
    RepresentationStructure,
    grid_lp_extremum,
    lower_principal,
    moment_point,
    polynomial_system,
    refine_newton,
    upper_principal,
)
from tcheb.errors import ConfigurationError, InfeasibleError
from tcheb.moments import MomentPoint

UNIT = Interval(0.0, 1.0)
SYM = Interval(-1.0, 1.0)


def uniform_c0(k):
    """Moments of the uniform measure on [-1,1]: 0 for odd powers, 1/(i+1) even."""
    sys_k = polynomial_system(k, SYM)
    coords = tuple(0.0 if i % 2 else 1.0 / (i + 1) for i in range(k))
    return sys_k, MomentPoint(coordinates=coords, system=sys_k)


class TestStructure:
    def test_upper_counts(self):
        s = RepresentationStructure.upper(4)
        assert (s.num_points, s.includes_A, s.includes_B) == (3, True, True)
        s = RepresentationStructure.upper(3)
        assert (s.num_points, s.includes_A, s.includes_B) == (2, False, True)

    def test_lower_counts(self):
        s = RepresentationStructure.lower(4)
        assert (s.num_points, s.includes_A, s.includes_B) == (2, False, False)
        s = RepresentationStructure.lower(3)
        assert (s.num_points, s.includes_A, s.includes_B) == (2, True, False)

    def test_unknown_budget_is_k(self):
        for k in range(2, 9):
            for s in (RepresentationStructure.upper(k), RepresentationStructure.lower(k)):
                assert s.free_unknowns == k


class TestGridLP:
    def test_max_mean_half(self):
        sys2 = polynomial_system(2, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5), system=sys2)
        value, atoms = grid_lp_extremum(sys2, c0, lambda x: x**2, "max", grid_size=1001)
        assert value == pytest.approx(0.5, abs=1e-9)
        points, weights = zip(*atoms)
        assert points == pytest.approx((0.0, 1.0), abs=1e-9)
        assert weights == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_min_mean_half(self):
        sys2 = polynomial_system(2, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5), system=sys2)
        value, atoms = grid_lp_extremum(sys2, c0, lambda x: x**2, "min", grid_size=1001)
        assert value == pytest.approx(0.25, abs=1e-9)
        assert [p for p, _ in atoms] == pytest.approx([0.5], abs=1e-9)

    def test_min_quartic_moment(self):
        sys4, c0 = uniform_c0(4)
        value, atoms = grid_lp_extremum(sys4, c0, lambda x: x**4, "min", grid_size=2001)
        assert value == pytest.approx(1.0 / 9.0, abs=5e-5)
        # grid LP scatters the off-grid Gauss atoms onto neighbours
        assert len(atoms) <= 4
        g = 1.0 / np.sqrt(3.0)
        for p, _ in atoms:
            assert min(abs(p - g), abs(p + g)) < 2e-3

    def test_atom_count_bound(self):
        sys3 = polynomial_system(3, UNIT)
        d = Design(points=(0.1, 0.4, 0.5, 0.9), weights=(0.25,) * 4, interval=UNIT)
        c0 = moment_point(sys3, d)
        _, atoms = grid_lp_extremum(sys3, c0, lambda x: x**3, "max", grid_size=501)
        assert len(atoms) <= 3

    def test_infeasible_moment_point(self):
        sys2 = polynomial_system(2, UNIT)
        outside = MomentPoint(coordinates=(1.0, 1.5), system=sys2)
        with pytest.raises(InfeasibleError):
            grid_lp_extremum(sys2, outside, lambda x: x**2, "max", grid_size=201)

    def test_grid_too_small(self):
        sys2 = polynomial_system(2, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5), system=sys2)
        with pytest.raises(ConfigurationError):
            grid_lp_extremum(sys2, c0, lambda x: x**2, "max", grid_size=4)


class TestNewton:
    def test_quadratic_upper_closed_form(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        initial = [(0.4, 0.7), (1.0, 0.3)]
        res = refine_newton(sys3, c0, RepresentationStructure.upper(3), initial)
        assert res.design.points == pytest.approx((1.0 / 3.0, 1.0), abs=1e-10)
        assert res.design.weights == pytest.approx((0.75, 0.25), abs=1e-10)
        assert res.residual_norm <= 1e-11

    def test_quadratic_lower_closed_form(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        initial = [(0.0, 0.3), (0.6, 0.7)]
        res = refine_newton(sys3, c0, RepresentationStructure.lower(3), initial)
        assert res.design.points == pytest.approx((0.0, 2.0 / 3.0), abs=1e-10)
        assert res.design.weights == pytest.approx((0.25, 0.75), abs=1e-10)

    def test_cubic_upper_lobatto(self):
        sys4, c0 = uniform_c0(4)
        initial = [(-1.0, 0.2), (0.1, 0.6), (1.0, 0.2)]
        res = refine_newton(sys4, c0, RepresentationStructure.upper(4), initial)
        assert res.design.points == pytest.approx((-1.0, 0.0, 1.0), abs=1e-9)
        assert res.design.weights == pytest.approx((1 / 6, 2 / 3, 1 / 6), abs=1e-9)

    def test_rejects_wrong_point_count(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        bad = [(0.2, 0.3), (0.5, 0.3), (1.0, 0.4)]
        with pytest.raises(ConfigurationError):
            refine_newton(sys3, c0, RepresentationStructure.upper(3), bad)

    def test_rejects_missing_endpoint(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        bad = [(0.2, 0.5), (0.5, 0.5)]
        with pytest.raises(ConfigurationError):
            refine_newton(sys3, c0, RepresentationStructure.upper(3), bad)


class TestPrincipal:
    def test_gauss_rule(self):
        sys4, c0 = uniform_c0(4)
        res = lower_principal(sys4, c0)
        g = 1.0 / np.sqrt(3.0)
        assert res.design.points == pytest.approx((-g, g), abs=1e-9)
        assert res.design.weights == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_lobatto_rule(self):
        sys4, c0 = uniform_c0(4)
        res = upper_principal(sys4, c0)
        assert res.design.points == pytest.approx((-1.0, 0.0, 1.0), abs=1e-9)
        assert res.design.weights == pytest.approx((1 / 6, 2 / 3, 1 / 6), abs=1e-9)

    def test_quadratic_pair(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        up = upper_principal(sys3, c0)
        lo = lower_principal(sys3, c0)
        assert up.design.points == pytest.approx((1 / 3, 1.0), abs=1e-9)
        assert lo.design.points == pytest.approx((0.0, 2 / 3), abs=1e-9)

    def test_linear_even_case(self):
        sys2 = polynomial_system(2, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5), system=sys2)
        up = upper_principal(sys2, c0)
        assert up.design.points == pytest.approx((0.0, 1.0), abs=1e-9)
        assert up.design.weights == pytest.approx((0.5, 0.5), abs=1e-9)
        lo = lower_principal(sys2, c0)
        assert lo.design.points == pytest.approx((0.5,), abs=1e-9)

    def test_moment_preservation_random_points(self):
        sys3 = polynomial_system(3, UNIT)
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = np.sort(rng.uniform(0.0, 1.0, 4))
            w = rng.dirichlet(np.ones(4))
            c0 = moment_point(sys3, Design(points=tuple(pts), weights=tuple(w), interval=UNIT))
            for res in (upper_principal(sys3, c0), lower_principal(sys3, c0)):
                back = moment_point(sys3, res.design)
                np.testing.assert_allclose(
                    back.coordinates, c0.coordinates, rtol=1e-9, atol=1e-9
                )

    def test_extremality_against_lp(self):
        sys3 = polynomial_system(3, UNIT)
        d = Design(points=(0.2, 0.5, 0.8), weights=(0.3, 0.4, 0.3), interval=UNIT)
        c0 = moment_point(sys3, d)
        probe = lambda x: x**3
        up = upper_principal(sys3, c0, probe=probe)
        lo = lower_principal(sys3, c0, probe=probe)
        vmax, _ = grid_lp_extremum(sys3, c0, probe, "max", grid_size=2001)
        vmin, _ = grid_lp_extremum(sys3, c0, probe, "min", grid_size=2001)
        up_val = float(np.dot(up.design.weights_array(), probe(up.design.points_array())))
        lo_val = float(np.dot(lo.design.weights_array(), probe(lo.design.points_array())))
        assert up_val == pytest.approx(vmax, abs=1e-6)
        assert lo_val == pytest.approx(vmin, abs=1e-6)

    def test_probe_independence(self):
        sys3 = polynomial_system(3, UNIT)
        d = Design(points=(0.15, 0.55, 0.85), weights=(0.25, 0.5, 0.25), interval=UNIT)
        c0 = moment_point(sys3, d)
        for build in (upper_principal, lower_principal):
            r3 = build(sys3, c0, probe=lambda x: x**3)
            r4 = build(sys3, c0, probe=lambda x: x**4)
            np.testing.assert_allclose(r3.design.points, r4.design.points, atol=1e-6)
            np.testing.assert_allclose(r3.design.weights, r4.design.weights, atol=1e-6)

    def test_boundary_point_unique_representation(self):
        """A Dirac moment point is on the moment-space boundary; both
        principal representations collapse to the same measure."""
        sys3 = polynomial_system(3, UNIT)
        dirac = Design(points=(0.3,), weights=(1.0,), interval=UNIT)
        c0 = moment_point(sys3, dirac)
        up = upper_principal(sys3, c0)
        lo = lower_principal(sys3, c0)
        assert up.design.points == pytest.approx((0.3,), abs=1e-8)
        assert lo.design.points == pytest.approx((0.3,), abs=1e-8)
        assert up.design.points == pytest.approx(lo.design.points, abs=1e-8)

    def test_structure_compliance(self):
        rng = np.random.default_rng(41)
        for k in (3, 4, 5):
            sys_k = polynomial_system(k, SYM)
            pts = np.sort(rng.uniform(-1.0, 1.0, k + 2))
            w = rng.dirichlet(np.ones(k + 2))
            c0 = moment_point(sys_k, Design(points=tuple(pts), weights=tuple(w), interval=SYM))
            up = upper_principal(sys_k, c0)
            s = RepresentationStructure.upper(k)
            assert up.design.size == s.num_points
            assert (1.0 in up.design.points) == s.includes_B
            assert (-1.0 in up.design.points) == s.includes_A
            lo = lower_principal(sys_k, c0)
            s = RepresentationStructure.lower(k)
            assert lo.design.size == s.num_points
            assert (-1.0 in lo.design.points) == s.includes_A
            assert (1.0 in lo.design.points) == s.includes_B
