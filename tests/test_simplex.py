import numpy as np
import pytest
from scipy.optimize import linprog

from tcheb import simplex, solve_lp
from tcheb.errors import InfeasibleError, UnboundedError


def test_max_two_variable():
    # max x + y  s.t.  x + y + s = 1  ->  value 1
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([1.0, 1.0, 0.0])
    res = solve_lp(A, b, c, sense="max")
    assert res.value == pytest.approx(1.0)
    np.testing.assert_allclose(A @ res.x, b, atol=1e-12)


def test_min_transport_like():
    # min 2x1 + x2  s.t.  x1 + x2 = 4, x1 - x3 = 1
    A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
    b = np.array([4.0, 1.0])
    c = np.array([2.0, 1.0, 0.0])
    res = solve_lp(A, b, c, sense="min")
    assert res.value == pytest.approx(5.0)
    assert res.x[0] == pytest.approx(1.0)
    assert res.x[1] == pytest.approx(3.0)


def test_negative_rhs_rows_handled():
    A = np.array([[-1.0, -1.0]])
    b = np.array([-1.0])
    c = np.array([1.0, 0.0])
    res = solve_lp(A, b, c, sense="min")
    assert res.value == pytest.approx(0.0)


def test_infeasible():
    # x1 + x2 = -1 has no nonnegative solution
    A = np.array([[1.0, 1.0]])
    b = np.array([-1.0])
    c = np.array([1.0, 1.0])
    with pytest.raises(InfeasibleError):
        solve_lp(A, b, c, sense="min")


def test_inconsistent_rows_infeasible():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    c = np.array([1.0, 0.0])
    with pytest.raises(InfeasibleError):
        solve_lp(A, b, c, sense="max")


def test_unbounded():
    # max x1 - x2 with only x1 - x2 free along the recession direction
    A = np.array([[0.0, 1.0]])
    b = np.array([1.0])
    c = np.array([1.0, 0.0])
    with pytest.raises(UnboundedError):
        solve_lp(A, b, c, sense="max")


def test_redundant_row_dropped():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    c = np.array([3.0, 1.0])
    res = solve_lp(A, b, c, sense="max")
    assert res.value == pytest.approx(3.0)


def test_zero_rhs_degenerate():
    A = np.array([[1.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 2.0])
    c = np.array([1.0, 1.0])
    res = solve_lp(A, b, c, sense="max")
    assert res.value == pytest.approx(2.0)
    assert res.x[0] == pytest.approx(1.0)


def test_basic_solution_support_bound():
    rng = np.random.default_rng(5)
    m, n = 4, 40
    A = rng.normal(size=(m, n))
    x0 = np.abs(rng.normal(size=n))
    b = A @ x0
    c = rng.normal(size=n)
    # bound the polytope so the maximum exists
    A = np.vstack([A, np.ones(n)])
    b = np.append(b, x0.sum())
    res = solve_lp(A, b, c, sense="max")
    assert np.count_nonzero(res.x > 1e-10) <= m + 1


# STALL_LIMIT = 0 prices every pivot by Bland's rule.  At the default these
# LPs never stall long enough to reach that fallback.
STALL_LIMITS = (simplex.STALL_LIMIT, 0)


def test_beale_cycling_example_terminates(monkeypatch):
    """Beale's classic degenerate tableau cycles under the naive most-negative
    rule; the default rule and Bland's rule alone must each terminate on it."""
    A = np.array(
        [
            [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            [0.50, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            [0.00, 0.0, 1.00, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0.75, -150.0, 0.02, -6.0, 0.0, 0.0, 0.0])
    ref = linprog(-c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    for limit in STALL_LIMITS:
        monkeypatch.setattr(simplex, "STALL_LIMIT", limit)
        res = solve_lp(A, b, c, sense="max")
        assert res.value == pytest.approx(-ref.fun, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_random_lps_match_linprog(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    n = int(rng.integers(m + 2, 25))
    A = rng.normal(size=(m, n))
    x0 = np.abs(rng.normal(size=n)) + 0.01
    b = A @ x0
    c = rng.normal(size=n)
    A = np.vstack([A, np.ones(n)])
    b = np.append(b, x0.sum())
    for sense, sign in (("max", -1.0), ("min", 1.0)):
        ref = linprog(sign * c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        for limit in STALL_LIMITS:
            monkeypatch.setattr(simplex, "STALL_LIMIT", limit)
            res = solve_lp(A, b, c, sense=sense)
            assert res.value == pytest.approx(sign * ref.fun, rel=1e-7, abs=1e-7)
            np.testing.assert_allclose(A @ res.x, b, atol=1e-7)
            assert np.all(res.x >= -1e-12)


GRID = np.linspace(-1.0, 1.0, 2001)


def _monomial_moment_lp(k, seed=0):
    """The moment LP of the principal representations at its real size:
    monomial rows 1..x^(k-1) on the 2001-point grid of [-1, 1], moments
    of a spread measure on k..2k points (interior), objective x^k."""
    rng = np.random.default_rng([k, seed])
    n = int(rng.integers(k, 2 * k + 1))
    pts = -1.0 + (np.arange(n) + rng.uniform(0.25, 0.75, n)) * (2.0 / n)
    w = rng.dirichlet(np.ones(n))
    A = np.vander(GRID, k, increasing=True).T
    return A, np.vander(pts, k, increasing=True).T @ w, GRID**k


@pytest.mark.parametrize("k", range(4, 9))
@pytest.mark.parametrize("sense", ["max", "min"])
def test_moment_lp_at_grid_size_matches_linprog(k, sense):
    A, b, c = _monomial_moment_lp(k)
    before = [A.copy(), b.copy(), c.copy()]
    res = solve_lp(A, b, c, sense=sense)
    for saved, arg in zip(before, (A, b, c)):
        np.testing.assert_array_equal(arg, saved)
    sign = -1.0 if sense == "max" else 1.0
    ref = linprog(sign * c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    # The value sums O(1) terms c_j x_j (|c| <= 1, total mass b[0] = 1)
    # that cancel down to 1e-4 for odd k, and HiGHS leaves a primal
    # residual near 1e-10; so 1e-9 is relative to that O(1) scale too.
    scale = float(np.abs(c).max() * b[0])
    assert res.value == pytest.approx(sign * ref.fun, rel=1e-9, abs=1e-9 * scale)
    np.testing.assert_array_equal(np.flatnonzero(res.x > 1e-12), np.flatnonzero(ref.x > 1e-12))
    assert res.x.min() >= 0.0


def test_duplicated_row_is_dropped_at_grid_width():
    A, b, c = _monomial_moment_lp(5)
    single = solve_lp(A, b, c, sense="max")
    doubled = solve_lp(np.vstack([A[:1], A]), np.append(b[:1], b), c, sense="max")
    # One basic variable per kept row: the duplicate row was dropped.
    assert len(single.basis) == len(doubled.basis) == 5
    assert doubled.value == pytest.approx(single.value, rel=1e-12)
    np.testing.assert_allclose(doubled.x, single.x, atol=1e-12)
