"""``reduce_design`` seeds Newton without the moment LP where it can: by
the k = 3 scalar root (``michaelis_menten`` upper, ``exponential``
lower) and by the Lobatto rule of the catalog ``polynomial``'s psi
system.  Where neither seed serves, the LP path decides, as before the
seeds.  ``PrincipalResult.path`` says which path made a result.
"""

import warnings

import numpy as np
import pytest

import tcheb.principal
from tcheb import Design, Interval, basis_matrix, make_model, reduce_design
from tcheb.moments import design_index, moment_point
from tcheb.errors import InfeasibleError
from tcheb.principal import STRUCTURES, _principal, _represent, _root_seed, refine_newton
from tcheb.reduction import _gated_psi

# name -> (theta, interval, direction, path of the seeded reduction)
CASES = {
    "michaelis_menten": ((1.0, 1.0), (0.0, 10.0), "upper", "root"),
    "exponential": ((1.0, -1.0), (0.0, 3.0), "lower", "root"),
    "polynomial": ((1.0, 0.5, -0.5, 0.25), (-1.0, 1.0), "upper", "gauss"),
}
# The two input designs of test_pinned.py, as fractions of the interval.
PINNED = (
    ((0.0625, 0.1875, 0.3125, 0.4375, 0.5625, 0.6875, 0.8125, 0.9375), (0.125,) * 8),
    ((0.1, 0.3, 0.45, 0.7, 0.9), (0.1, 0.25, 0.3, 0.2, 0.15)),
)


def spread_designs(interval, count, seed):
    """Designs like the benchmark's timed ones: 2..29 points, one jittered
    point per stratum of the interval, Dirichlet(1) weights."""
    a, b = interval
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 30))
        points = a + (np.arange(n) + rng.uniform(0.25, 0.75, n)) * ((b - a) / n)
        yield Design(points=tuple(points), weights=tuple(rng.dirichlet(np.ones(n))), interval=Interval(a, b))


def gate_entry(name):
    """The model, the psi system and the cached LP arrays of a case."""
    theta, interval, direction, _ = CASES[name]
    model = make_model(name, theta, interval)
    psi, lp = _gated_psi(model, np.asarray(theta, float).tobytes(), direction, 0)
    return model, psi.system, lp


def close(got, want):
    np.testing.assert_allclose(got.design.points, want.design.points, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(got.design.weights, want.design.weights, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("name", CASES)
def test_the_seeded_result_is_the_lp_paths(name):
    """On the pinned designs and on 40 spread designs per case, the seed
    serves every reduction, and its result is the LP path's to 1e-9."""
    _, interval, direction, path = CASES[name]
    model, system, lp = gate_entry(name)
    a, b = interval
    pinned = [Design(tuple(a + f * (b - a) for f in fs), ws, Interval(a, b)) for fs, ws in PINNED]
    seeded = 0
    for xi in pinned + list(spread_designs(interval, 40, seed=len(name))):
        if design_index(xi) < system.k / 2:
            continue
        c0 = moment_point(system, xi)
        got, want = _represent(system, c0, direction, lp), _principal(system, c0, direction, lp)
        assert (got.path, want.path) == (path, "lp")
        close(got, want)
        seeded += 1
    assert seeded >= 30


def test_a_point_one_cell_from_an_end_keeps_the_lp():
    """The pinned michaelis_menten endpoint design: its interior point lies
    1.8e-4 from A, inside the grid's first cell, so the root scan finds no
    bracket and the LP path makes the pinned reduction."""
    model, system, lp = gate_entry("michaelis_menten")
    xi = Design(
        points=(1.8926418904418184e-07, 8.630944998388297e-07, 9.999999583454704),
        weights=(0.007259594102315605, 0.08217348979210086, 0.9105669161055836),
        interval=Interval(0.0, 10.0),
    )
    c0 = moment_point(system, xi)
    assert _root_seed(c0, STRUCTURES["upper"](3), *lp[:2]) is None
    result = _represent(system, c0, "upper", lp)
    assert result.path == "lp" and result.design == _principal(system, c0, "upper", lp).design
    assert 0.0 < result.design.points[0] < 2e-4
    assert reduce_design(model, [1.0, 1.0], xi, "upper").output == result.design


def test_a_root_where_psi_1_repeats_its_end_value_is_seeded():
    """michaelis_menten upper at theta2 = 1.70, op 988 of the benchmark's
    seed-1 reduce_sweep: psi_1 = x^2/(theta2 + x)^3 peaks inside [A, B], and
    at the interior point 1.297 psi_1(t) equals psi_1(B) to 1e-4, so the
    psi_0/psi_1 rows alone cannot fix the weights there.  The pole-free
    residual det[psi(E), psi(t), c0] changes sign in that cell all the
    same, and the weights from all three rows are positive at its ends, so
    the root seeds the reduction, which is the LP path's to 1e-9."""
    theta = (1.0, 1.701292486027441)
    model = make_model("michaelis_menten", theta, (0.0, 10.0))
    psi, lp = _gated_psi(model, np.asarray(theta).tobytes(), "upper", 0)
    xi = Design(
        points=(0.5106260360262482, 2.698367654894433, 4.1447407496527635, 6.188423473587304,
                7.4944381017307045, 9.061721278309525),
        weights=(0.29305392581361445, 0.03800516793710342, 0.28413846190426184, 0.05844961367495302,
                 0.25458122283044937, 0.07177160783961785),
        interval=Interval(0.0, 10.0),
    )
    c0 = moment_point(psi.system, xi)
    got, want = _represent(psi.system, c0, "upper", lp), _principal(psi.system, c0, "upper", lp)
    assert got.path == "root" and want.path == "lp"
    close(got, want)
    psi_1 = basis_matrix(psi.system, got.design.points)[1]
    assert abs(psi_1[0] / psi_1[1] - 1.0) < 1e-4


def test_a_cluster_without_a_bracket_falls_back_unchanged():
    """A five-point cluster at 0.71: the lower representation's weight at A
    is 2e-6, so no grid cell around the interior point keeps both weights
    positive at both its ends.  The LP path makes the reduction."""
    model, system, lp = gate_entry("exponential")
    xi = Design(
        points=(0.704372, 0.708728, 0.709074, 0.709785, 0.711686),
        weights=(0.888932, 0.000279, 0.043485, 0.066435, 0.000869),
        interval=Interval(0.0, 3.0),
    )
    c0 = moment_point(system, xi)
    assert _root_seed(c0, STRUCTURES["lower"](3), *lp[:2]) is None
    result = _represent(system, c0, "lower", lp)
    assert result.path == "lp" and result.design == _principal(system, c0, "lower", lp).design
    assert reduce_design(model, [1.0, -1.0], xi, "lower").output == result.design


def test_a_gauss_result_near_an_end_goes_to_the_lp():
    """reduce_design keeps a Lobatto-seeded polynomial result whose interior
    points lie inside [grid[1], grid[-2]] of its LP grid.  One with an
    interior point 2.4e-4 from A, inside the grid's first cell, goes to the
    LP path, whose error it raises: there the Loewner verdict on the
    output would be round-off."""
    theta = CASES["polynomial"][0]
    model, system, lp = gate_entry("polynomial")
    kept = Design((-0.99995, -0.9999, 0.0, 0.5, 0.9), (0.3, 0.3, 0.2, 0.1, 0.1), Interval(-1.0, 1.0))
    result = _represent(system, moment_point(system, kept), "upper", lp)
    assert result.path == "gauss"
    assert reduce_design(model, theta, kept, "upper").output == result.design
    near = Design((-0.9999, -0.9998, -0.9997, 0.99, 0.9999), (0.2,) * 5, Interval(-1.0, 1.0))
    c0 = moment_point(system, near)
    result = _represent(system, c0, "upper", lp)
    assert result.path == "gauss" and -1.0 < result.design.points[1] < lp[0][1]
    with pytest.raises(InfeasibleError) as want:
        _principal(system, c0, "upper", lp)
    with pytest.raises(InfeasibleError) as got:
        reduce_design(model, theta, near, "upper")
    assert str(got.value) == str(want.value)


def test_the_scan_lets_no_floating_point_warning_escape(monkeypatch):
    """exponential lower at rate -48: the scan divides by zero in E's own
    column under its own errstate, so no RuntimeWarning escapes even where
    numpy is set to warn."""
    scans = []

    def spy(*args):
        scans.append(real(*args))
        return scans[-1]

    real = tcheb.principal._root_seed
    monkeypatch.setattr(tcheb.principal, "_root_seed", spy)
    theta = (1.0, -48.0)
    model = make_model("exponential", theta, (0.0, 3.0))
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        for xi in spread_designs((0.0, 3.0), 10, seed=48):
            try:
                reduce_design(model, theta, xi, "lower")
            except tcheb.TchebError:
                pass
    assert len(scans) >= 8 and any(seed is not None for seed in scans)


def test_the_entries_report_their_path():
    """The entries: the monomials with no probe take the Gauss rule, a k = 3
    psi system with no probe the root, and either with a probe the LP.  A
    direct ``refine_newton`` call reports its atoms as given."""
    _, system, _ = gate_entry("exponential")
    xi = next(x for x in spread_designs((0.0, 3.0), 10, seed=3) if design_index(x) >= 1.5)
    c0 = moment_point(system, xi)
    assert tcheb.lower_principal(system, c0).path == "root"
    assert tcheb.lower_principal(system, c0, lambda x: x * x * x).path == "lp"
    poly = tcheb.polynomial_system(4, Interval(-1.0, 1.0))
    c0 = moment_point(poly, Design((-0.5, 0.0, 0.5), (0.25, 0.5, 0.25), Interval(-1.0, 1.0)))
    assert tcheb.upper_principal(poly, c0).path == "gauss"
    assert tcheb.upper_principal(poly, c0, lambda x: x**4).path == "lp"
    given = tcheb.upper_principal(poly, c0).design
    assert refine_newton(poly, c0, STRUCTURES["upper"](4), list(zip(given.points, given.weights))).path == "given"
