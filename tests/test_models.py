import dataclasses
import math
import zlib

import numpy as np
import pytest

from tcheb import (
    CATALOG_NAMES,
    Design,
    Interval,
    basis_matrix,
    c_matrix,
    check_chebyshev,
    evaluate_basis,
    information_matrix,
    make_model,
    psi_k_Q,
    psi_system,
)
from tcheb.chebyshev import derivative_matrix
from tcheb.errors import ConfigurationError, DomainError, EvaluationError
from tcheb.moments import moment_point
from tcheb.reduction import criterion_value, gate_checks, optimize_in_class, reduce_design, verify_domination

MM_IV = (0.0, 10.0)


def dirac(x, interval):
    return Design(points=(x,), weights=(1.0,), interval=Interval(*interval))


def test_information_matrix_mm_dirac():
    m = make_model("michaelis_menten", [1.0, 1.0], MM_IV)
    M = information_matrix(m, [1.0, 1.0], dirac(1.0, MM_IV))
    np.testing.assert_allclose(M, [[0.25, -0.125], [-0.125, 0.0625]], atol=1e-14)


def test_c_matrix_mm_dirac():
    m = make_model("michaelis_menten", [1.0, 1.0], MM_IV)
    C = c_matrix(m, [1.0, 1.0], dirac(1.0, MM_IV))
    np.testing.assert_allclose(C, [[0.25, 0.125], [0.125, 0.0625]], atol=1e-14)


def test_factorization_identity():
    """M = P C P^T for random designs across the catalog."""
    rng = np.random.default_rng(17)
    cases = [
        ("michaelis_menten", [1.3, 0.8], MM_IV),
        ("exponential", [0.9, 1.1], (0.0, 3.0)),
        ("exponential", [0.9, -0.7], (0.0, 3.0)),
        ("exponential3", [1.0, 0.8, -1.2], (0.0, 2.0)),
        ("polynomial", [1.0, 0.5, -0.3], (-1.0, 1.0)),
    ]
    for name, theta, iv in cases:
        model = make_model(name, theta, iv)
        P = np.asarray(model.p_matrix(np.asarray(theta, dtype=float)), dtype=float)
        for _ in range(5):
            pts = np.sort(rng.uniform(iv[0], iv[1], 4))
            w = rng.dirichlet(np.ones(4))
            d = Design(points=tuple(pts), weights=tuple(w), interval=Interval(*iv))
            M = information_matrix(model, theta, d)
            C = c_matrix(model, theta, d)
            np.testing.assert_allclose(M, P @ C @ P.T, rtol=1e-10, atol=1e-12)


def test_information_matrix_psd():
    rng = np.random.default_rng(29)
    for name, theta, iv in [
        ("michaelis_menten", [1.0, 2.0], MM_IV),
        ("exponential3", [0.5, 1.5, 1.0], (0.0, 1.0)),
        ("polynomial", [0.0, 1.0, 2.0, 1.0], (-1.0, 1.0)),
    ]:
        model = make_model(name, theta, iv)
        for _ in range(5):
            pts = np.sort(rng.uniform(iv[0], iv[1], 6))
            w = rng.dirichlet(np.ones(6))
            d = Design(points=tuple(pts), weights=tuple(w), interval=Interval(*iv))
            M = information_matrix(model, theta, d)
            eigs = np.linalg.eigvalsh(M)
            assert eigs.min() >= -1e-10 * np.trace(M)


@pytest.mark.parametrize(
    "name,theta,iv",
    [
        ("michaelis_menten", [1.2, 0.7], MM_IV),
        ("exponential", [1.1, -0.6], (0.0, 3.0)),
        ("exponential3", [0.8, 1.3, -0.9], (0.0, 2.0)),
        ("polynomial", [0.3, -1.0, 0.5], (-1.0, 1.0)),
    ],
)
def test_gradient_matches_finite_differences(name, theta, iv):
    model = make_model(name, theta, iv)
    # crc32, unlike hash(), gives the same seed in every process.
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    h = 1e-6
    for _ in range(100):
        x = rng.uniform(iv[0], iv[1])
        th = np.asarray(theta, dtype=float) * rng.uniform(0.8, 1.2, size=len(theta))
        g = np.asarray(model.gradient(np.array([x]), th), dtype=float)[:, 0]
        fd = np.empty_like(g)
        for i in range(len(th)):
            tp, tm = th.copy(), th.copy()
            tp[i] += h
            tm[i] -= h
            fd[i] = (model.eta(x, tp) - model.eta(x, tm)) / (2 * h)
        # The central difference carries a rounding error of about
        # eps * |eta| / h ~ 2e-10 * |eta| whatever the size of g, so a
        # small gradient entry (x^2 near x = 0) needs an absolute term.
        eta = abs(float(model.eta(x, th)))
        assert np.all(np.abs(g - fd) <= 1e-6 * np.abs(g) + 1e-9 * max(1.0, eta))


def test_psi_system_sizes_and_unit_head():
    cases = [
        ("michaelis_menten", [1.0, 1.0], MM_IV, 3),
        ("exponential", [1.0, 1.0], (0.0, 3.0), 3),
        ("exponential3", [1.0, 1.0, 1.0], (0.0, 1.0), 5),
        ("polynomial", [1.0, 1.0, 1.0], (-1.0, 1.0), 4),
    ]
    for name, theta, iv, k in cases:
        psi = psi_system(make_model(name, theta, iv), theta)
        assert psi.k == k
        xs = np.linspace(iv[0], iv[1], 7)
        head = basis_matrix(psi.system, xs)[0]
        np.testing.assert_allclose(head, np.ones_like(xs))


def test_mm_psi_values():
    m = make_model("michaelis_menten", [1.0, 1.0], MM_IV)
    psi = psi_system(m, [1.0, 1.0])
    # basis ordered for positive determinants: {1, x^2/(1+x)^3, x^2/(1+x)^2}
    assert evaluate_basis(psi.system, 1.0) == pytest.approx((1.0, 0.125, 0.25))


def test_catalog_systems_pass_determinant_check():
    cases = [
        ("michaelis_menten", [1.0, 1.0], MM_IV),
        ("exponential", [1.0, 1.0], (0.0, 3.0)),
        ("exponential", [1.0, -1.0], (0.0, 3.0)),
        ("exponential3", [1.0, 1.0, 1.0], (0.0, 1.0)),
        ("exponential3", [1.0, 1.0, -1.0], (0.0, 1.0)),
        ("polynomial", [1.0, 0.0, 1.0], (-1.0, 1.0)),
    ]
    for name, theta, iv in cases:
        psi = psi_system(make_model(name, theta, iv), theta)
        rep = check_chebyshev(psi.system, num_random_tuples=400, grid_size=128, seed=2)
        assert rep.verified, name


def test_psi_k_q_scalar_case():
    m = make_model("michaelis_menten", [1.0, 1.0], MM_IV)
    psi = psi_system(m, [1.0, 1.0])
    f1 = psi_k_Q(psi, (1.0,))
    assert f1(1.0) == pytest.approx(1.0 / 16.0)
    f3 = psi_k_Q(psi, (3.0,))
    xs = np.linspace(0.5, 9.5, 11)
    np.testing.assert_allclose(f3(xs), 9.0 * f1(xs), rtol=1e-14)
    # Q^T C22 Q must agree with the closed square form
    assert f1(2.0) == pytest.approx(float(psi.h_tail(2.0)[0, 0] ** 2))


def test_psi_k_q_rejects_bad_q():
    m = make_model("michaelis_menten", [1.0, 1.0], MM_IV)
    psi = psi_system(m, [1.0, 1.0])
    with pytest.raises(DomainError):
        psi_k_Q(psi, (0.0,))
    with pytest.raises(DomainError):
        psi_k_Q(psi, (1.0, 2.0))
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="^Q must be finite"):
            psi_k_Q(psi, (q,))


def test_polynomial_psi_is_monomials():
    m = make_model("polynomial", [1.0, 2.0, 3.0], (-1.0, 1.0))
    psi = psi_system(m, [1.0, 2.0, 3.0])
    xs = np.linspace(-1.0, 1.0, 9)
    np.testing.assert_allclose(basis_matrix(psi.system, xs), [xs**i for i in range(psi.k)], atol=1e-14)
    f = psi_k_Q(psi, (1.0,))
    np.testing.assert_allclose(f(xs), xs**4, atol=1e-14)


def test_theta_validation():
    with pytest.raises(ConfigurationError):
        make_model("michaelis_menten", [1.0, -1.0], MM_IV)  # theta2 > 0 required
    with pytest.raises(ConfigurationError):
        make_model("michaelis_menten", [0.0, 1.0], MM_IV)
    with pytest.raises(ConfigurationError):
        make_model("exponential", [0.0, 1.0], (0.0, 3.0))
    with pytest.raises(ConfigurationError):
        make_model("exponential3", [1.0, 0.0, 1.0], (0.0, 1.0))
    with pytest.raises(ConfigurationError):
        make_model("exponential3", [1.0, 1.0, 0.0], (0.0, 1.0))
    with pytest.raises(ConfigurationError):
        make_model("polynomial", [1.0], (-1.0, 1.0))  # degree >= 1
    with pytest.raises(ConfigurationError, match="^model michaelis_menten needs finite parameters"):
        make_model("michaelis_menten", [1.0, math.inf], MM_IV)


# (model, interval, a finite theta, the theta refused).
NON_FINITE_THETAS = {
    "mm_nan": ("michaelis_menten", MM_IV, (1.0, 1.0), (1.0, math.nan)),
    "mm_inf": ("michaelis_menten", MM_IV, (1.0, 1.0), (math.inf, 1.0)),
    "polynomial_nan": ("polynomial", (-1.0, 1.0), (1.0, 0.5, -0.5, 0.25), (math.nan, 0.5, -0.5, 0.25)),
    "polynomial_-inf": ("polynomial", (-1.0, 1.0), (1.0, 0.5, -0.5, 0.25), (1.0, 0.5, -math.inf, 0.25)),
}


@pytest.mark.parametrize("call", ["psi_system", "information_matrix", "reduce_design", "optimize_in_class"])
@pytest.mark.parametrize("case", NON_FINITE_THETAS)
def test_non_finite_theta_is_refused(case, call):
    """A NaN or infinite parameter is refused by name.  The polynomial
    reductions and searches, whose psi system does not read theta, used to
    return on it; michaelis_menten failed as a deduplication, a singular
    P matrix or a non-finite gradient."""
    name, iv, finite, theta = NON_FINITE_THETAS[case]
    model = make_model(name, finite, iv)
    xi = Design(points=tuple(np.linspace(*iv, 6)[1:-1]), weights=(0.25,) * 4, interval=Interval(*iv))
    run = {
        "psi_system": lambda: psi_system(model, theta),
        "information_matrix": lambda: information_matrix(model, theta, xi),
        "reduce_design": lambda: reduce_design(model, theta, xi, "upper"),
        "optimize_in_class": lambda: optimize_in_class(model, theta, restarts=1),
    }
    with pytest.raises(ConfigurationError, match=f"^model {name} needs finite parameters, got "):
        run[call]()


@pytest.mark.parametrize("case", NON_FINITE_THETAS)
def test_make_model_refuses_a_non_finite_theta(case):
    """Every catalog entry checks its theta at construction, the
    polynomial, which reads only the length of theta, included."""
    name, iv, _, theta = NON_FINITE_THETAS[case]
    with pytest.raises(ConfigurationError, match=f"^model {name} needs finite parameters, got "):
        make_model(name, theta, iv)


def test_unknown_model_lists_catalog():
    with pytest.raises(ConfigurationError) as exc:
        make_model("logistic", [1.0, 1.0], (0.0, 1.0))
    for name in CATALOG_NAMES:
        assert name in str(exc.value)


def test_mm_needs_nonnegative_interval():
    with pytest.raises(ConfigurationError):
        make_model("michaelis_menten", [1.0, 1.0], (-1.0, 10.0))


def test_p1_bounds():
    with pytest.raises(ConfigurationError):
        make_model("michaelis_menten", [1.0, 1.0], MM_IV, p1=0)
    with pytest.raises(ConfigurationError):
        make_model("michaelis_menten", [1.0, 1.0], MM_IV, p1=3)


def test_information_matrix_interval_mismatch():
    m = make_model("michaelis_menten", [1.0, 1.0], MM_IV)
    d = dirac(0.5, (0.0, 1.0))
    with pytest.raises(DomainError):
        information_matrix(m, [1.0, 1.0], d)


# (i, j) of h_i h_j for psi_1, ..., psi_{k-1} in catalog order, written
# out from the catalog comments rather than read from the library.
CATALOG_PAIRS = {
    "michaelis_menten": [(1, 0), (0, 0)],
    "exponential": [(0, 0), (1, 0)],
    # (e, x e, e^2, x e^2) with e = exp(theta3 x)
    "exponential3": [(0, 1), (2, 0), (1, 1), (2, 1)],
    # degree 3: x, x^2, ..., x^5
    "polynomial": [(0, 1), (0, 2), (1, 2), (2, 2), (3, 2)],
}


@pytest.mark.parametrize(
    "name,theta,iv",
    [
        ("michaelis_menten", [1.3, 0.8], MM_IV),
        ("exponential", [0.9, 1.1], (0.0, 3.0)),
        ("exponential", [0.9, -0.7], (0.0, 3.0)),
        ("exponential3", [1.0, 0.8, 1.2], (0.0, 2.0)),
        ("exponential3", [1.0, 0.8, -1.2], (0.0, 2.0)),
        ("polynomial", [1.0, 0.5, -0.3, 0.2], (-1.0, 1.0)),
    ],
)
def test_fused_rows_match_gradient_products(name, theta, iv):
    """basis_matrix and derivative_matrix of the psi system equal the
    products h_i h_j and their product-rule derivatives, h = P^-1 g."""
    model = make_model(name, theta, iv)
    psi = psi_system(model, theta)
    th = np.asarray(theta, dtype=float)
    xs = np.linspace(iv[0], iv[1], 33)
    Pinv = np.linalg.inv(np.asarray(model.p_matrix(th), dtype=float))
    H = Pinv @ np.asarray(model.gradient(xs, th), dtype=float)
    dH = Pinv @ np.asarray(model.gradient_dx(xs, th), dtype=float)
    rows = [np.ones_like(xs)] + [H[i] * H[j] for i, j in CATALOG_PAIRS[name]]
    drows = [np.zeros_like(xs)] + [dH[i] * H[j] + H[i] * dH[j] for i, j in CATALOG_PAIRS[name]]
    np.testing.assert_allclose(basis_matrix(psi.system, xs), np.array(rows), rtol=1e-13, atol=0)
    np.testing.assert_allclose(derivative_matrix(psi.system, xs), np.array(drows), rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "name,theta,iv,direction",
    [
        ("michaelis_menten", (1.0, 1.0), (0.0, 10.0), "upper"),
        ("exponential", (1.0, -1.0), (0.0, 3.0), "lower"),
        ("exponential3", (1.0, 1.0, -1.0), (0.0, 3.0), "lower"),
        ("polynomial", (1.0, 0.5, -0.5, 0.25), (-1.0, 1.0), "upper"),
    ],
)
def test_one_gradient_call_per_evaluation(name, theta, iv, direction):
    """One basis_matrix call evaluates the gradient once, and so does the
    gate (base check plus the augmented check for every Q)."""
    calls = []
    base = make_model(name, theta, iv)

    def gradient(x, th):
        calls.append(1)
        return base.gradient(x, th)

    psi = psi_system(dataclasses.replace(base, gradient=gradient), theta)
    calls.clear()
    basis_matrix(psi.system, np.linspace(iv[0], iv[1], 50))
    assert len(calls) == 1
    calls.clear()
    base, augmented, _ = gate_checks(psi, direction, seed=0)
    assert base.verified and augmented.verified
    assert len(calls) == 1


@pytest.mark.parametrize("call", ["reduce_design", "verify_domination", "moment_point"])
def test_overflow_is_an_evaluation_error(call):
    # exp(1000 x) overflows double precision on most of [0, 1000]; numpy
    # warns unless the evaluation raises, and a warning is no TchebError.
    theta, iv = (1.0, 1000.0), (0.0, 1000.0)
    model = make_model("exponential", theta, iv)
    xi = Design(points=(1.0, 500.0, 999.0), weights=(0.25, 0.25, 0.5), interval=Interval(*iv))
    calls = {
        "reduce_design": lambda: reduce_design(model, theta, xi),
        "verify_domination": lambda: verify_domination(model, theta, xi, xi),
        "moment_point": lambda: moment_point(psi_system(model, theta).system, xi),
    }
    with pytest.raises(EvaluationError, match="overflow"):
        calls[call]()


# exp(400 x) at x = 1 is 5.2e173, finite, but its square in the information
# matrix and in the psi products overflows double precision.
EXP400 = ("exponential", (1.0, 400.0), (0.0, 1.0))
EXP400_DESIGNS = (((0.5, 1.0), (0.5, 0.5)), ((0.2, 1.0), (0.5, 0.5)))


@pytest.mark.parametrize(
    "call, message",
    [
        ("verify_domination", "information matrix of exponential: overflow"),
        ("verify_domination_swapped", "information matrix of exponential: overflow"),
        ("criterion_value", "information matrix of exponential: overflow"),
        ("information_matrix", "information matrix of exponential: overflow"),
        ("psi_system", "psi dedup table of exponential evaluation: overflow"),
    ],
)
def test_overflow_after_the_gradient_is_an_evaluation_error(call, message):
    """Finite gradient values whose products overflow are refused where
    the products are taken.  The domination verdict read True both ways on
    a NaN spectrum, the criterion NaN, the matrix inf, and psi_system
    found k = 1 on a table of infinities."""
    name, theta, iv = EXP400
    model = make_model(name, theta, iv)
    xi1, xi2 = (Design(points=p, weights=w, interval=Interval(*iv)) for p, w in EXP400_DESIGNS)
    run = {
        "verify_domination": lambda: verify_domination(model, theta, xi1, xi2),
        "verify_domination_swapped": lambda: verify_domination(model, theta, xi2, xi1),
        "criterion_value": lambda: criterion_value(model, theta, xi1),
        "information_matrix": lambda: information_matrix(model, theta, xi1),
        "psi_system": lambda: psi_system(model, theta),
    }
    with pytest.raises(EvaluationError, match=f"^{message}"):
        run[call]()


@pytest.mark.parametrize("theta, shape", [(5.0, r"\(\)"), ([[1.0, 2.0]], r"\(1, 2\)")], ids=["scalar", "matrix"])
def test_polynomial_theta_must_be_a_vector(theta, shape):
    """The polynomial's degree is read off the length of theta, so a theta
    that is not a vector is refused before its length is read."""
    with pytest.raises(ConfigurationError, match=f"^model polynomial needs a vector of parameters, got shape {shape}$"):
        make_model("polynomial", theta, (-1.0, 1.0))


def test_theta_of_the_wrong_length_is_refused():
    with pytest.raises(ConfigurationError, match=r"^model michaelis_menten needs 2 parameters, got \(3,\)$"):
        psi_system(make_model("michaelis_menten", [1.0, 1.0], MM_IV), [1.0, 1.0, 1.0])


def test_p_matrix_of_the_wrong_shape_is_refused():
    model = dataclasses.replace(make_model("michaelis_menten", [1.0, 1.0], MM_IV), p_matrix=lambda th: np.eye(3))
    with pytest.raises(ConfigurationError, match=r"^P matrix of michaelis_menten has shape \(3, 3\)$"):
        psi_system(model, [1.0, 1.0])


def test_psi_order_must_be_a_permutation():
    model = dataclasses.replace(make_model("michaelis_menten", [1.0, 1.0], MM_IV), psi_order=(0, 0))
    with pytest.raises(ConfigurationError, match=r"^michaelis_menten: psi_order is not a permutation of 0\.\.1$"):
        psi_system(model, [1.0, 1.0])
