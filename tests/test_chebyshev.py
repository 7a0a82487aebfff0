import dataclasses
import math

import numpy as np
import pytest

from tcheb import (
    ChebyshevSystem,
    Interval,
    MomentPoint,
    augment,
    basis_matrix,
    check_chebyshev,
    classify_point,
    evaluate_basis,
    polynomial_system,
    upper_principal,
)
from numpy.lib.stride_tricks import sliding_window_view

from tcheb import chebyshev
from tcheb.chebyshev import CheckReport, derivative_matrix
from tcheb.errors import ConfigurationError, DomainError, EvaluationError
from tcheb.models import make_model, psi_k_Q, psi_system
from tcheb.reduction import gate_certified, gate_checks


def test_interval_validation():
    with pytest.raises(ConfigurationError):
        Interval(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        Interval(2.0, 0.0)
    with pytest.raises(ConfigurationError):
        Interval(0.0, float("inf"))
    # Finite endpoints whose distance is not: a snap on L = inf moved points.
    with pytest.raises(ConfigurationError, match="^interval length overflows double precision"):
        Interval(-1e308, 1e308)
    iv = Interval(-1.0, 3.0)
    assert iv.length == 4.0
    assert iv.contains(3.0)
    assert not iv.contains(3.1)


def test_evaluate_basis_polynomial():
    sys3 = polynomial_system(3, Interval(0.0, 1.0))
    assert evaluate_basis(sys3, 0.0) == pytest.approx((1.0, 0.0, 0.0))
    assert evaluate_basis(sys3, 0.5) == pytest.approx((1.0, 0.5, 0.25))


def test_evaluate_basis_rational_system():
    # {1, x^2/(1+x)^2, x^2/(1+x)^3} on [0, 10]
    iv = Interval(0.0, 10.0)
    sys_r = ChebyshevSystem.from_functions(
        iv,
        (
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda x: x**2 / (1.0 + x) ** 2,
            lambda x: x**2 / (1.0 + x) ** 3,
        ),
    )
    assert evaluate_basis(sys_r, 1.0) == pytest.approx((1.0, 0.25, 0.125))


def test_evaluate_basis_outside_interval():
    sys3 = polynomial_system(3, Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        evaluate_basis(sys3, 1.5)
    with pytest.raises(DomainError):
        evaluate_basis(sys3, -0.2)


def test_check_positive_linear_system():
    sys2 = polynomial_system(2, Interval(0.0, 1.0))
    rep = check_chebyshev(sys2, num_random_tuples=200, grid_size=64, seed=1)
    assert rep.verified
    assert rep.witness is None
    assert rep.min_determinant > 0.0
    assert rep.tuples_checked > 200


def test_check_flipped_sign_gives_witness():
    iv = Interval(0.0, 1.0)
    bad = ChebyshevSystem.from_functions(
        iv,
        (lambda x: np.ones_like(np.asarray(x, dtype=float)), lambda x: -x),
    )
    rep = check_chebyshev(bad, num_random_tuples=100, grid_size=32, seed=0)
    assert not rep.verified
    assert rep.witness is not None
    assert len(rep.witness) == 2
    assert rep.witness[0] < rep.witness[1]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 1.0), (2.0, 7.0)])
def test_polynomial_systems_never_rejected(k, interval):
    sys_k = polynomial_system(k, Interval(*interval))
    rep = check_chebyshev(sys_k, num_random_tuples=400, grid_size=128, seed=k)
    assert rep.witness is None
    assert rep.verified


def test_scaling_last_function_preserves_verdict():
    """Scaling the last basis function by lambda > 0 scales every determinant
    by lambda and the row-norm threshold the same way, so the verdict on
    identical tuples cannot change."""
    iv = Interval(0.0, 1.0)

    def scaled(lam):
        return ChebyshevSystem.from_functions(
            iv,
            (
                lambda x: np.ones_like(np.asarray(x, dtype=float)),
                lambda x: x,
                lambda x: lam * x**2,
            ),
        )

    base = check_chebyshev(scaled(1.0), num_random_tuples=300, grid_size=64, seed=7)
    up = check_chebyshev(scaled(1e6), num_random_tuples=300, grid_size=64, seed=7)
    down = check_chebyshev(scaled(1e-6), num_random_tuples=300, grid_size=64, seed=7)
    assert base.verified == up.verified == down.verified
    assert base.tuples_checked == up.tuples_checked == down.tuples_checked


def test_collocation_nonsingular_at_distinct_points():
    sys4 = polynomial_system(4, Interval(-1.0, 1.0))
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = np.sort(rng.uniform(-1.0, 1.0, size=4))
        if np.min(np.diff(pts)) < 1e-6:
            continue
        M = basis_matrix(sys4, pts)
        assert abs(np.linalg.det(M)) > 0.0


def test_augment_appends_last():
    sys2 = polynomial_system(2, Interval(0.0, 1.0))
    sys3 = augment(sys2, lambda x: x**2)
    assert sys3.k == 3
    assert evaluate_basis(sys3, 0.5) == pytest.approx((1.0, 0.5, 0.25))
    ref = polynomial_system(3, Interval(0.0, 1.0))
    xs = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(basis_matrix(sys3, xs), basis_matrix(ref, xs))


def test_nonfinite_evaluation_reports_offending_point():
    iv = Interval(0.0, 1.0)
    sick = ChebyshevSystem.from_functions(
        iv,
        (
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda x: np.where(np.asarray(x) == 0.5, np.nan, np.asarray(x, dtype=float)),
        ),
    )
    with pytest.raises(EvaluationError):
        basis_matrix(sick, np.array([0.25, 0.5]))


def test_check_rejects_bad_sizes():
    sys3 = polynomial_system(3, Interval(0.0, 1.0))
    with pytest.raises(ConfigurationError):
        check_chebyshev(sys3, grid_size=2)
    with pytest.raises(ConfigurationError):
        check_chebyshev(sys3, num_random_tuples=-1)


def test_derivative_matrix_analytic_vs_fd():
    sys4 = polynomial_system(4, Interval(-1.0, 1.0))
    xs = np.linspace(-0.9, 0.9, 13)
    analytic = derivative_matrix(sys4, xs)
    stripped = dataclasses.replace(sys4, derivative_evaluator=None)
    fd = derivative_matrix(stripped, xs)
    np.testing.assert_allclose(fd, analytic, rtol=1e-6, atol=1e-6)


def test_finite_difference_overflow_is_an_evaluation_error():
    """Finite basis values can overflow in the central difference."""
    iv = Interval(0.0, 1.0)
    step = ChebyshevSystem.from_functions(iv, (np.ones_like, lambda x: np.where(x < 0.5, -1.5e308, 1.5e308)))
    with pytest.raises(EvaluationError, match="^derivative evaluation: overflow"):
        derivative_matrix(step, [0.5])


def test_scalar_only_callables_evaluate_point_by_point():
    """Callables that reject arrays fall back to one call per point, and
    scalar returns broadcast, for values and derivatives alike."""
    iv = Interval(0.0, 1.0)
    sys2 = ChebyshevSystem.from_functions(
        iv,
        (lambda x: 1.0, math.exp),
        derivatives=(lambda x: 0.0, math.exp),
    )
    xs = np.array([0.0, 0.5, 1.0])
    want = np.array([np.ones(3), np.exp(xs)])
    np.testing.assert_allclose(basis_matrix(sys2, xs), want, rtol=1e-15)
    np.testing.assert_allclose(derivative_matrix(sys2, xs), [np.zeros(3), np.exp(xs)], rtol=1e-15)
    assert evaluate_basis(sys2, 0.5) == pytest.approx((1.0, math.exp(0.5)))


def test_malformed_system_arguments_are_refused():
    """A system's interval must be an Interval of real endpoints and its k
    an integer; each is refused when the system is built."""
    with pytest.raises(ConfigurationError, match="^system interval must be an Interval, got tuple$"):
        polynomial_system(3, (0.0, 1.0))
    with pytest.raises(ConfigurationError, match="^k must be an integer, got float$"):
        polynomial_system(2.5, Interval(0.0, 1.0))
    with pytest.raises(ConfigurationError, match="^interval lower must be a real number, got str$"):
        Interval("0", 1.0)


def test_evaluator_shape_is_checked():
    iv = Interval(0.0, 1.0)
    sys2 = ChebyshevSystem(iv, 2, lambda xs: np.ones((3, xs.size)))
    with pytest.raises(ConfigurationError):
        basis_matrix(sys2, [0.25, 0.75])


def test_from_functions_refuses_inconsistent_sizes():
    iv = Interval(0.0, 1.0)
    with pytest.raises(ConfigurationError, match="at least one basis function"):
        ChebyshevSystem.from_functions(iv, ())
    with pytest.raises(ConfigurationError, match="at least one basis function"):
        ChebyshevSystem(iv, 0, lambda xs: np.ones((0, xs.size)))
    with pytest.raises(ConfigurationError, match="derivatives must match"):
        ChebyshevSystem.from_functions(iv, (np.ones_like, np.exp), derivatives=(np.exp,))


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda system, c0: upper_principal(system, c0, 3.0), "probe"),
        (lambda system, c0: classify_point(system, c0, "x"), "probe"),
        (lambda system, c0: ChebyshevSystem.from_functions(system.interval, (1.0, np.exp)), "basis"),
        (lambda system, c0: augment(system, 2.0), "omega"),
    ],
    ids=["upper_principal", "classify_point", "from_functions", "augment"],
)
def test_a_non_callable_function_is_a_configuration_error(call, name):
    """Every function argument is checked for callability when it is
    taken, not when it is first called, as a raw TypeError."""
    system = polynomial_system(3, Interval(0.0, 1.0))
    c0 = MomentPoint(coordinates=(1.0, 0.5, 0.3), system=system)
    with pytest.raises(ConfigurationError, match=f"^{name} must be callable, got "):
        call(system, c0)


@pytest.mark.parametrize(
    "f,message",
    [(lambda x: math.exp(1000.0 * x), "math range error"), (lambda x: math.log(x - 0.5), "math domain error")],
    ids=["overflow", "domain"],
)
def test_python_arithmetic_errors_are_evaluation_errors(f, message):
    """A scalar-only callable written with math raises OverflowError or
    ValueError itself; the evaluation names it, values and derivatives
    alike."""
    system = ChebyshevSystem.from_functions(Interval(0.0, 1.0), (lambda x: 1.0, f), derivatives=(lambda x: 0.0, f))
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(EvaluationError, match=f"^basis evaluation: {message}$"):
        basis_matrix(system, xs)
    with pytest.raises(EvaluationError, match=f"^derivative evaluation: {message}$"):
        derivative_matrix(system, xs)


def _reference_tuples(system, k, num_random_tuples=2000, grid_size=512, seed=0):
    """check_chebyshev's k-tuple sample as first written, drawn afresh."""
    a, b = system.interval.lower, system.interval.upper
    batches = [sliding_window_view(np.linspace(a, b, grid_size), k).copy()]
    if num_random_tuples > 0:
        rng = np.random.default_rng(seed)
        rand = np.sort(rng.uniform(a, b, size=(num_random_tuples, k)), axis=1)
        if k > 1:
            gap = np.min(np.diff(rand, axis=1), axis=1)
            rand = rand[gap > 1e-9 * system.interval.length]
        batches.append(rand)
    return np.vstack(batches)


def _reference_verdict(system, tuples):
    """The determinant verdict as first written, with the indeterminacy
    scale from np.linalg.norm of each collocation row."""
    n, k = tuples.shape
    mats = np.moveaxis(basis_matrix(system, tuples.ravel()).reshape(k, n, k), 1, 0)
    dets = np.linalg.det(mats)
    scale = np.prod(np.linalg.norm(mats, axis=2), axis=1)
    decisive = np.abs(dets) >= chebyshev.INDETERMINATE_REL * scale
    failing = decisive & (dets <= 0.0)
    witness = tuple(float(v) for v in tuples[int(np.argmax(failing))]) if failing.any() else None
    min_det = float(dets[decisive].min()) if decisive.any() else 0.0
    return CheckReport(witness is None, n, min_det, witness)


def _reference_check(system, num_random_tuples=2000, grid_size=512, seed=0):
    """check_chebyshev as first written: the sample drawn on every call."""
    return _reference_verdict(system, _reference_tuples(system, system.k, num_random_tuples, grid_size, seed))


@pytest.mark.parametrize("num_random_tuples", [0, 2000])
@pytest.mark.parametrize("k", range(1, 9))
def test_check_matches_reference_on_monomials(k, num_random_tuples):
    sys_k = polynomial_system(k, Interval(-1.0, 1.0))
    want = _reference_check(sys_k, num_random_tuples, seed=k)
    assert check_chebyshev(sys_k, num_random_tuples, seed=k) == want
    assert check_chebyshev(sys_k, num_random_tuples, seed=k) == want


# (model, base theta, interval, swept theta index, 20 swept values).
# exponential and exponential3 sweep both signs of their rate, so the
# +psi_k^Q system of exponential3 at theta_3 < 0 is refused.  At p1 = 1,
# check_gate must report exactly what the reference reports on the one
# augmented system, with Q = (1.0,) on a refusal, and on the base system
# at the first k points of each (k + 1)-tuple.
SWEEPS = [
    ("michaelis_menten", [1.0, 1.0], (0.0, 10.0), 1, np.linspace(0.25, 4.0, 20)),
    ("exponential", [1.0, -1.0], (0.0, 3.0), 1, np.linspace(-2.0, 2.0, 20)),
    ("exponential3", [1.0, 1.0, -1.0], (0.0, 3.0), 2, np.linspace(-2.0, 2.0, 20)),
    ("polynomial", [1.0, 0.5, -0.5, 0.25], (-1.0, 1.0), 0, np.linspace(-2.0, 2.0, 20)),
]


@pytest.mark.parametrize("name,theta,iv,index,values", SWEEPS, ids=[s[0] for s in SWEEPS])
def test_check_matches_reference_on_catalog_systems(name, theta, iv, index, values):
    model = make_model(name, theta, iv)
    refused = 0
    for value in values:
        th = np.array(theta)
        th[index] = value
        psi = psi_system(model, th)
        assert check_chebyshev(psi.system) == _reference_check(psi.system)
        base = _reference_verdict(psi.system, _reference_tuples(psi.system, psi.k + 1)[:, : psi.k])
        assert base.verified
        f = psi_k_Q(psi, [1.0])
        for sign in (1.0, -1.0):
            system = augment(psi.system, lambda xs, s=sign: s * f(xs))
            want = _reference_check(system)
            assert check_chebyshev(system) == want
            Q = None if want.verified else (1.0,)
            assert chebyshev.check_gate(psi.system, psi.with_tail, 1, sign, 0) == (base, want, Q)
            refused += not want.verified
    if name == "exponential3":
        assert refused > 0


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("name,theta,iv,index,values", SWEEPS, ids=[s[0] for s in SWEEPS])
def test_a_certified_gate_passes_the_sampled_gate(name, theta, iv, index, values, direction):
    """Where the leading Wronskians certify the gate, the sampled gate that
    reduce_design then skips passes.  Elsewhere on the sweep the signs
    prove the direction false for the certified entries, and the sampled
    gate passes it only when no augmented tuple is decisive: exponential3
    at theta3 = -0.105 (upper), 0.105 and 0.316 (lower).
    michaelis_menten is never certified."""
    model = make_model(name, theta, iv)
    certified = 0
    for value in values:
        th = np.array(theta)
        th[index] = value
        base, aug, Q = gate_checks(psi_system(model, th), direction, 0)
        passed = base.verified and aug.verified and Q is None
        if gate_certified(model, th, direction):
            certified += 1
            assert passed
        elif name != "michaelis_menten":
            assert not passed or aug.min_determinant == 0.0
    want = {"michaelis_menten": 0, "polynomial": 20 if direction == "upper" else 0}
    assert certified == want.get(name, 10)


def test_flipped_system_matches_reference():
    bad = ChebyshevSystem.from_functions(
        Interval(0.0, 1.0),
        (lambda x: np.ones_like(np.asarray(x, dtype=float)), lambda x: -x),
    )
    want = _reference_check(bad)
    assert not want.verified
    assert check_chebyshev(bad) == want


def test_tuple_sample_is_memoised_per_key():
    chebyshev._memo_tuples.cache_clear()
    iv = Interval(-1.0, 1.0)
    check_chebyshev(polynomial_system(3, iv), 100, 16, seed=5)
    # The sample does not depend on the functions: another system with
    # the same interval and k hits.
    flipped = ChebyshevSystem(iv, 3, lambda xs: -polynomial_system(3, iv).evaluator(xs))
    check_chebyshev(flipped, 100, 16, seed=5)
    info = chebyshev._memo_tuples.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    sample = chebyshev._memo_tuples(np.array([-1.0, 1.0]).tobytes(), 3, 16, 100, 5)
    assert not sample.flags.writeable
    with pytest.raises(ValueError):
        sample[0, 0] = 0.0

    variants = [
        (polynomial_system(3, Interval(-1.0, 2.0)), 100, 16, 5),
        (polynomial_system(3, Interval(-0.0, 1.0)), 100, 16, 5),
        (polynomial_system(3, Interval(0.0, 1.0)), 100, 16, 5),
        (polynomial_system(4, iv), 100, 16, 5),
        (polynomial_system(3, iv), 100, 17, 5),
        (polynomial_system(3, iv), 101, 16, 5),
        (polynomial_system(3, iv), 100, 16, 6),
    ]
    for i, (system, tuples, grid, seed) in enumerate(variants):
        check_chebyshev(system, tuples, grid, seed)
        assert chebyshev._memo_tuples.cache_info().misses == 2 + i


def test_numpy_integer_seed_hits_the_memo():
    chebyshev._memo_tuples.cache_clear()
    sys4 = polynomial_system(4, Interval(-1.0, 1.0))
    want = _reference_check(sys4, seed=3)
    for seed in (3, np.int64(3), np.uint8(3)):
        assert check_chebyshev(sys4, seed=seed) == want
    info = chebyshev._memo_tuples.cache_info()
    assert (info.hits, info.misses) == (2, 1)


@pytest.mark.parametrize("count", ["num_random_tuples", "grid_size"])
@pytest.mark.parametrize("value", [1.5, 10.0, "10"], ids=["fraction", "integral_float", "str"])
def test_sample_sizes_must_be_integers(count, value):
    with pytest.raises(ConfigurationError, match=f"^{count} must be an integer, got "):
        check_chebyshev(polynomial_system(3, Interval(-1.0, 1.0)), **{count: value})


@pytest.mark.parametrize(
    "seed",
    [-1, np.int64(-2), 1.0, "0", [1, 2], None, np.random.default_rng(3)],
    ids=["negative", "negative_numpy", "float", "str", "list", "none", "generator"],
)
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ConfigurationError):
        check_chebyshev(polynomial_system(3, Interval(-1.0, 1.0)), seed=seed)


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)], ids=["0d", "1d", "2d"])
def test_monomials_match_vander(shape):
    """In-place row products give np.vander's values and its layout (the
    rows point by point), so matrix products downstream are unchanged."""
    x = np.random.default_rng(2).uniform(-2.0, 2.0, shape)
    for k in range(1, 10):
        want = np.vander(x.ravel(), k, increasing=True).T.reshape((k,) + x.shape)
        got = chebyshev.monomials(x, k)
        assert np.array_equal(got, want)
        assert got.strides == want.strides
        scale = np.arange(1.0, k).reshape((-1,) + (1,) * x.ndim)
        np.testing.assert_array_equal(
            chebyshev.monomial_derivatives(x, k), np.concatenate([np.zeros_like(want[:1]), scale * want[:-1]])
        )
