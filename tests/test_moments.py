import math

import numpy as np
import pytest

from tcheb import (
    ChebyshevSystem,
    Design,
    Interval,
    classify_point,
    design_index,
    moment_point,
    polynomial_system,
)
from tcheb.errors import ConfigurationError, DomainError
from tcheb.moments import MomentPoint

UNIT = Interval(0.0, 1.0)


def mk(points, weights, interval=UNIT):
    return Design(points=tuple(points), weights=tuple(weights), interval=interval)


class TestDesignConstruction:
    def test_weights_sum_exactly_one(self):
        d = mk([0.1, 0.2, 0.3], [1 / 3, 1 / 3, 1 / 3])
        assert math.fsum(d.weights) == 1.0

    def test_sorted_and_deduplicated(self):
        d = mk([0.7, 0.2, 0.2 + 1e-14], [0.25, 0.5, 0.25])
        assert d.points == pytest.approx((0.2, 0.7))
        assert d.weights == pytest.approx((0.75, 0.25))

    def test_zero_weights_dropped(self):
        d = mk([0.1, 0.5, 0.9], [0.5, 0.0, 0.5])
        assert d.points == (0.1, 0.9)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            mk([0.1, 0.9], [1.1, -0.1])

    def test_point_outside_interval_rejected(self):
        with pytest.raises(DomainError):
            mk([0.5, 1.2], [0.5, 0.5])

    def test_near_endpoint_snapped(self):
        d = mk([1e-12, 1.0 - 1e-12], [0.5, 0.5])
        assert d.points == (0.0, 1.0)

    def test_weight_sum_tolerance(self):
        mk([0.3, 0.6], [0.5, 0.5 + 5e-10])
        with pytest.raises(ConfigurationError):
            mk([0.3, 0.6], [0.5, 0.51])

    @pytest.mark.parametrize(
        "points,weights",
        [
            ([math.nan, 0.5], [0.5, 0.5]),
            ([0.5, math.inf], [0.5, 0.5]),
            ([0.2, 0.5], [math.nan, 1.0]),
            ([0.2, 0.5], [0.5, math.inf]),
        ],
        ids=["nan_point", "inf_point", "nan_weight", "inf_weight"],
    )
    def test_non_finite_values_rejected(self, points, weights):
        with pytest.raises(ConfigurationError, match="finite"):
            mk(points, weights)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            mk([0.1, 0.2], [1.0])

    def test_json_round_trip(self):
        d = mk([0.0, 0.25, 1.0], [0.2, 0.3, 0.5])
        again = Design.from_json_obj(d.as_json_obj())
        assert again.points == d.points
        assert again.weights == d.weights

    def test_json_schema_errors(self):
        with pytest.raises(ConfigurationError):
            Design.from_json_obj({"points": [0.5]})
        with pytest.raises(ConfigurationError):
            Design.from_json_obj([0.5])

    def test_json_interval_must_be_a_pair(self):
        obj = {"points": [0.5], "weights": [1.0], "interval": [0.0, 1.0, 2.0]}
        with pytest.raises(ConfigurationError, match=r"^design interval must be a pair \[A, B\]$"):
            Design.from_json_obj(obj)

    def test_interval_must_be_an_interval(self):
        with pytest.raises(ConfigurationError, match="^design interval must be an Interval, got tuple$"):
            Design((0.5,), (1.0,), (0.0, 1.0))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigurationError, match="^a design needs at least one point of positive weight$"):
            mk([0.2, 0.5], [0.0, 0.0])


def test_moment_point_two_point_sum():
    sys3 = polynomial_system(3, UNIT)
    c = moment_point(sys3, mk([0.0, 1.0], [0.5, 0.5]))
    assert c.coordinates == pytest.approx((1.0, 0.5, 0.5))


def test_moment_point_dirac():
    sys3 = polynomial_system(3, UNIT)
    c = moment_point(sys3, mk([0.5], [1.0]))
    assert c.coordinates == pytest.approx((1.0, 0.5, 0.25))


def test_moment_point_rational_system():
    # {1, x^2/(1+x)^2, x^2/(1+x)^3} at the Dirac in x=1
    iv = Interval(0.0, 10.0)
    sys_r = ChebyshevSystem.from_functions(
        iv,
        (
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda x: x**2 / (1.0 + x) ** 2,
            lambda x: x**2 / (1.0 + x) ** 3,
        ),
    )
    c = moment_point(sys_r, mk([1.0], [1.0], iv))
    assert c.coordinates == pytest.approx((1.0, 0.25, 0.125))


def test_moment_point_c0_is_exactly_one():
    sys3 = polynomial_system(3, UNIT)
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(2, 9)
        pts = np.sort(rng.uniform(0.0, 1.0, n))
        w = rng.dirichlet(np.ones(n))
        c = moment_point(sys3, mk(pts, w))
        assert c.coordinates[0] == 1.0


def test_moment_point_interval_mismatch():
    sys3 = polynomial_system(3, UNIT)
    other = mk([2.0], [1.0], Interval(0.0, 10.0))
    with pytest.raises(DomainError):
        moment_point(sys3, other)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_moment_point_is_refused(bad):
    """A non-finite coordinate is refused at construction, by name, so
    classify_point and the principal solvers never see one."""
    sys4 = polynomial_system(4, UNIT)
    coords = (1.0, bad, 0.3, 0.0)
    with pytest.raises(ConfigurationError, match=rf"^moment coordinate c0\[1\] = {bad!r} is not finite$"):
        MomentPoint(coordinates=coords, system=sys4)
    with pytest.raises(ConfigurationError, match="is not finite"):
        classify_point(sys4, MomentPoint(coordinates=coords, system=sys4), lambda x: x**4)


def test_moment_point_linearity():
    sys3 = polynomial_system(3, UNIT)
    d1 = mk([0.1, 0.6], [0.5, 0.5])
    d2 = mk([0.3, 0.8, 0.9], [0.2, 0.3, 0.5])
    alpha = 0.37
    mixed = mk(
        d1.points + d2.points,
        tuple(alpha * w for w in d1.weights) + tuple((1 - alpha) * w for w in d2.weights),
    )
    c1 = np.array(moment_point(sys3, d1).coordinates)
    c2 = np.array(moment_point(sys3, d2).coordinates)
    cm = np.array(moment_point(sys3, mixed).coordinates)
    np.testing.assert_allclose(cm, alpha * c1 + (1 - alpha) * c2, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "points,weights,expected",
    [
        ((0.0, 10.0), (0.5, 0.5), 1.0),
        ((2.0,), (1.0,), 1.0),
        ((0.0, 5.0, 10.0), (1 / 3, 1 / 3, 1 / 3), 2.0),
    ],
)
def test_design_index_half_counting(points, weights, expected):
    d = mk(points, weights, Interval(0.0, 10.0))
    assert design_index(d) == expected


def test_classify_boundary_dirac_at_endpoint():
    sys2 = polynomial_system(2, UNIT)
    c0 = MomentPoint(coordinates=(1.0, 0.0), system=sys2)
    rep = classify_point(sys2, c0, lambda x: x**2)
    assert rep.classification == "Boundary"
    assert rep.gamma_lower == pytest.approx(0.0, abs=1e-8)
    assert rep.gamma_upper == pytest.approx(0.0, abs=1e-8)


def test_classify_interior_linear():
    sys2 = polynomial_system(2, UNIT)
    c0 = MomentPoint(coordinates=(1.0, 0.5), system=sys2)
    rep = classify_point(sys2, c0, lambda x: x**2)
    assert rep.classification == "Interior"
    assert rep.gamma_lower == pytest.approx(0.25, abs=1e-8)
    assert rep.gamma_upper == pytest.approx(0.5, abs=1e-8)


def test_classify_interior_cubic():
    sys4 = polynomial_system(4, Interval(-1.0, 1.0))
    c0 = MomentPoint(coordinates=(1.0, 0.0, 1.0 / 3.0, 0.0), system=sys4)
    rep = classify_point(sys4, c0, lambda x: x**4)
    assert rep.classification == "Interior"
    # gamma_lower is attained at the off-grid Gauss points; grid bias is O(h^2)
    assert rep.gamma_lower == pytest.approx(1.0 / 9.0, abs=5e-5)
    assert rep.gamma_upper == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_low_index_design_classified_boundary():
    sys3 = polynomial_system(3, UNIT)
    d = mk([0.4], [1.0])
    assert design_index(d) < sys3.k / 2
    c0 = moment_point(sys3, d)
    rep = classify_point(sys3, c0, lambda x: x**3)
    assert rep.classification == "Boundary"
