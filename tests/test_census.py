"""Adversarial designs: a reduction returns a correct design or raises a typed error.

The sweep of ROADMAP item 1, small and seeded: for each catalog reduce
case, designs of 2..29 points with Dirichlet(0.3) weights, the points
drawn as a tight cluster, uniformly, or within 1e-7 L of an endpoint.
Many of these raise today; none may return a wrong design, and none may
blame the input for an internal failure with a ConfigurationError.  The
oracles are recomputed here from the model's gradient and P matrix,
never read from the report.
"""

import numpy as np
import pytest

from tcheb import Design, Interval, make_model, reduce_design
from tcheb.errors import ConfigurationError, TchebError

# name -> (theta, interval, direction, k = dimension of the psi system)
CASES = {
    "michaelis_menten": ((1.0, 1.0), (0.0, 10.0), "upper", 3),
    "exponential": ((1.0, -1.0), (0.0, 3.0), "lower", 3),
    "exponential3": ((1.0, 1.0, -1.0), (0.0, 3.0), "lower", 5),
    "polynomial": ((1.0, 0.5, -0.5, 0.25), (-1.0, 1.0), "upper", 6),
}
FAMILIES = ("cluster", "uniform", "endpoint")
DESIGNS_PER_CASE = 5
RTOL = 1e-8


def _designs(family, a, b, rng):
    length = b - a
    for _ in range(DESIGNS_PER_CASE):
        n = int(rng.integers(2, 30))
        if family == "cluster":
            pts = np.clip(rng.normal(rng.uniform(a, b), 1e-3 * length, n), a, b)
        elif family == "uniform":
            pts = rng.uniform(a, b, n)
        else:
            offset = rng.uniform(0.0, 1e-7 * length, n)
            pts = np.where(rng.random(n) < 0.5, a + offset, b - offset)
        weights = rng.dirichlet(np.full(n, 0.3))
        yield Design(points=tuple(pts), weights=tuple(weights), interval=Interval(a, b))


def _gradients(model, theta, points):
    return np.asarray(model.gradient(np.asarray(points, float), np.asarray(theta)), float)


def _information(model, theta, design):
    G = _gradients(model, theta, design.points)
    return (G * np.asarray(design.weights)) @ G.T


def _psi_moments(model, theta, design):
    """Leading p - p1 columns of P^-1 M P^-T: their entries are the psi moments."""
    H = np.linalg.solve(np.asarray(model.p_matrix(np.asarray(theta)), float),
                        _gradients(model, theta, design.points))
    return ((H * np.asarray(design.weights)) @ H.T)[:, : model.p - model.p1]


def _structure(k, direction):
    """(points, includes A, includes B) of a principal representation."""
    if direction == "upper":
        return (k // 2 + 1, True, True) if k % 2 == 0 else ((k + 1) // 2, False, True)
    return (k // 2, False, False) if k % 2 == 0 else ((k + 1) // 2, True, False)


def _check(model, theta, k, direction, xi, report):
    out = report.output
    a, b = xi.interval.lower, xi.interval.upper
    if report.branch == "Identity":
        assert sum(1 if p in (a, b) else 2 for p in xi.points) < k
        assert (out.points, out.weights) == (xi.points, xi.weights)
        return
    assert (out.size, out.points[0] == a, out.points[-1] == b) == _structure(k, direction)
    want = _psi_moments(model, theta, xi)
    gap = np.abs(_psi_moments(model, theta, out) - want).max()
    assert gap <= RTOL * max(1.0, np.abs(want).max())
    M_in = _information(model, theta, xi)
    low = np.linalg.eigvalsh(_information(model, theta, out) - M_in)[0]
    assert low >= -RTOL * np.abs(np.linalg.eigvalsh(M_in)).max()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", CASES)
def test_adversarial_designs_reduce_correctly_or_raise_typed(name, family):
    theta, interval, direction, k = CASES[name]
    model = make_model(name, theta, interval)
    rng = np.random.default_rng([list(CASES).index(name), FAMILIES.index(family)])
    for xi in _designs(family, *interval, rng):
        try:
            report = reduce_design(model, theta, xi, direction)
        except TchebError as err:
            assert not isinstance(err, ConfigurationError), err
            continue
        _check(model, theta, k, direction, xi, report)
