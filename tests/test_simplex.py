import math

import numpy as np
import pytest
from scipy.optimize import linprog

from tcheb import simplex, solve_lp
from tcheb.errors import ConfigurationError, InfeasibleError, UnboundedError


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


@pytest.mark.parametrize(
    "A, b, c",
    [
        ([[1.0, 1.0]], [1.0, 2.0], [1.0, 0.0]),
        ([[1.0, 1.0]], [1.0], [1.0, 0.0, 0.0]),
        ([1.0, 1.0], [1.0], [1.0, 0.0]),
    ],
    ids=["b_rows", "c_columns", "A_not_a_matrix"],
)
def test_inconsistent_dimensions_are_a_configuration_error(A, b, c):
    with pytest.raises(ConfigurationError, match="^inconsistent LP dimensions: A "):
        solve_lp(A, b, c)


def test_unknown_sense_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="^sense must be 'max' or 'min', got 'maximum'$"):
        solve_lp([[1.0, 1.0]], [1.0], [1.0, 0.0], sense="maximum")


def _reference_pivot(T, out, basis, row, col):
    E = np.eye(T.shape[0])
    E[:, row] = T[:, col] / -T[row, col]
    E[row, row] = 1.0 / T[row, col]
    np.matmul(E, T, out=out)
    out[:, col] = 0.0
    out[row, col] = 1.0
    basis[row] = col
    return out, T


def _reference_iterate(T, buf, basis, ncols, cost_scale):
    m = T.shape[0] - 1
    tol = simplex.COST_TOL * cost_scale
    count = stall = 0
    while True:
        red = T[m, :ncols]
        if stall < simplex.STALL_LIMIT:
            entering = int(red.argmin())
            if red[entering] >= -tol:
                return T, buf, count
        else:
            negative = np.flatnonzero(red < -tol)
            if negative.size == 0:
                return T, buf, count
            entering = int(negative[0])
        best_ratio = None
        leave = -1
        rhs = T[:m, -1].tolist()
        for i, a in enumerate(T[:m, entering].tolist()):
            if a > simplex.PIVOT_TOL:
                ratio = rhs[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise UnboundedError("unbounded linear program")
        stall = stall + 1 if best_ratio <= 1e-12 else 0
        T, buf = _reference_pivot(T, buf, basis, leave, entering)
        count += 1


def _reference_solve_lp(A, b, c, sense="max"):
    """solve_lp as first written: a fresh phase one per sense and a fresh
    eta matrix per pivot (default feas_tol, finite nonempty input)."""
    A = np.array(A, dtype=float, order="C")
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = A.shape
    feas_tol = 1e-8 * max(1.0, float(np.abs(b).max()))
    cmin = -c if sense == "max" else c.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, -1], T[m, :n], T[m, -1] = A, b, -A.sum(axis=0), -b.sum()
    T[:m, n:-1] = np.eye(m)
    basis = list(range(n, n + m))
    T, buf, iters = _reference_iterate(T, np.empty_like(T), basis, n + m, 1.0)
    assert float(sum(T[i, -1] for i in range(m) if basis[i] >= n)) <= feas_tol
    keep = []
    for i in range(m):
        if basis[i] >= n:
            nonzero = np.flatnonzero(np.abs(T[i, :n]) > simplex.PIVOT_TOL)
            if nonzero.size == 0:
                continue
            T, buf = _reference_pivot(T, buf, basis, i, int(nonzero[0]))
        keep.append(i)
    if len(keep) < m:
        T = T[keep + [m]]
        buf, basis, m = np.empty_like(T), [basis[i] for i in keep], len(keep)
    T[m, :n], T[m, n:] = cmin, 0.0
    T[m] -= cmin[basis] @ T[:m]
    cost_scale = max(1.0, float(np.abs(cmin).max()))
    T, _, count = _reference_iterate(T, buf, basis, n, cost_scale)
    x = np.zeros(n)
    x[basis] = T[:m, -1]
    return simplex.LPResult(x=x, value=float(c @ x), basis=basis, iterations=iters + count)


def _assert_same_result(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert got.value == want.value
    assert got.basis == want.basis
    assert got.iterations == want.iterations


def _random_lp(seed):
    """The bounded random LP of test_random_lps_match_linprog."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    n = int(rng.integers(m + 2, 25))
    A = rng.normal(size=(m, n))
    x0 = np.abs(rng.normal(size=n)) + 0.01
    return np.vstack([A, np.ones(n)]), np.append(A @ x0, x0.sum()), rng.normal(size=n)


@pytest.mark.parametrize("seed", range(8))
def test_random_lps_match_the_reference_bit_for_bit(monkeypatch, seed):
    A, b, c = _random_lp(seed)
    for limit in STALL_LIMITS:
        monkeypatch.setattr(simplex, "STALL_LIMIT", limit)
        both = simplex._solve_senses(A, b, c, ("max", "min"))
        for sense, shared in zip(("max", "min"), both):
            want = _reference_solve_lp(A, b, c, sense)
            _assert_same_result(solve_lp(A, b, c, sense=sense), want)
            _assert_same_result(shared, want)


@pytest.mark.parametrize("k", range(4, 9))
def test_moment_lps_match_the_reference_bit_for_bit(k):
    """Each sense of the full-grid moment LP, alone and on a shared phase one."""
    A, b, c = _monomial_moment_lp(k)
    both = simplex._solve_senses(A, b, c, ("max", "min"))
    for sense, shared in zip(("max", "min"), both):
        want = _reference_solve_lp(A, b, c, sense)
        _assert_same_result(solve_lp(A, b, c, sense=sense), want)
        _assert_same_result(shared, want)


def test_shared_phase_one_keeps_a_dropped_row_out_of_both_senses():
    A, b, c = _monomial_moment_lp(5)
    A, b = np.vstack([A[:1], A]), np.append(b[:1], b)
    for sense, shared in zip(("max", "min"), simplex._solve_senses(A, b, c, ("max", "min"))):
        assert len(shared.basis) == 5
        _assert_same_result(shared, _reference_solve_lp(A, b, c, sense))


def test_pivot_restores_the_identity_eta_matrix():
    T = np.array([[2.0, 1.0, 4.0], [1.0, 3.0, 5.0], [-1.0, -2.0, 0.0]])
    E, out, basis = np.eye(3), np.empty_like(T), [0, 1]
    got, _ = simplex._pivot(T, out, E, basis, 1, 1)
    np.testing.assert_array_equal(E, np.eye(3))
    want, _ = _reference_pivot(T, np.empty_like(T), [0, 1], 1, 1)
    assert got.tobytes() == want.tobytes()
    assert basis == [0, 1]


# A NaN or infinite tolerance accepted the infeasible x1 + x2 = -1 with the
# vertex (-1, 0); a negative one called the feasible x1 + x2 = 1 infeasible.
@pytest.mark.parametrize(
    "feas_tol, rhs, rule",
    [(math.nan, -1.0, "finite"), (math.inf, -1.0, "finite"), (-1e-8, 1.0, "nonnegative")],
    ids=["nan", "inf", "negative"],
)
def test_a_bad_feasibility_tolerance_is_refused(feas_tol, rhs, rule):
    with pytest.raises(ConfigurationError, match=rf"^feas_tol must be {rule}, got {feas_tol!r}$"):
        solve_lp([[1.0, 1.0]], [rhs], [1.0, 1.0], sense="min", feas_tol=feas_tol)


# math.isfinite raised an untyped TypeError on a string or a list, and
# read True as 1.0.
@pytest.mark.parametrize(
    "feas_tol, kind", [("1e-8", "str"), ([1e-8], "list"), (True, "bool")], ids=["str", "list", "bool"]
)
def test_a_feasibility_tolerance_that_is_not_a_real_number_is_refused(feas_tol, kind):
    with pytest.raises(ConfigurationError, match=f"^feas_tol must be a real number, got {kind}$"):
        solve_lp([[1.0, 1.0]], [1.0], [1.0, 1.0], sense="min", feas_tol=feas_tol)
    with pytest.raises(ConfigurationError, match=f"^feas_tol must be a real number, got {kind}$"):
        simplex._solve_senses([[1.0, 1.0]], [1.0], [1.0, 1.0], ("max", "min"), feas_tol)


@pytest.mark.parametrize("feas_tol", [np.float64(1e-8), 0], ids=["float64", "int"])
def test_a_real_feasibility_tolerance_is_taken(feas_tol):
    assert solve_lp([[1.0, 1.0]], [1.0], [1.0, 2.0], sense="min", feas_tol=feas_tol).value == 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["A", "b", "c"])
def test_a_non_finite_entry_is_refused(name, value):
    lp = {"A": [[1.0, 1.0]], "b": [1.0], "c": [1.0, 0.0]}
    lp[name] = np.array(lp[name], dtype=float)
    lp[name].flat[0] = value
    index = "0, 0" if name == "A" else "0"
    with pytest.raises(ConfigurationError, match=rf"^LP {name}\[{index}\] must be finite, got {value!r}$"):
        solve_lp(lp["A"], lp["b"], lp["c"], sense="min")


def test_an_lp_without_columns_is_refused():
    with pytest.raises(ConfigurationError, match=r"^an LP needs at least one column, got A \(1, 0\)$"):
        solve_lp(np.zeros((1, 0)), [0.0], np.zeros(0))


def test_an_lp_without_rows_takes_the_default_tolerance():
    # min x1 + 2 x2 over x >= 0 alone: the origin.
    res = solve_lp(np.zeros((0, 2)), np.zeros(0), [1.0, 2.0], sense="min")
    assert res.value == 0.0
    np.testing.assert_array_equal(res.x, [0.0, 0.0])
    assert (res.basis, res.iterations) == ([], 0)
    with pytest.raises(UnboundedError):
        solve_lp(np.zeros((0, 2)), np.zeros(0), [1.0, 2.0], sense="max")
