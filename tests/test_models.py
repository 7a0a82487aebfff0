import dataclasses
import functools
import math
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
import sympy

import tcheb
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


def test_psi_k_q_overflow_is_an_evaluation_error():
    """h_tail is finite on [0, 1] at theta2 = 354.892, and so are the psi
    system's dedup grid values, which stop short of B; the square of
    h_tail at B is not, and is refused as the library's own error."""
    theta = (1.0, 354.892)
    psi = psi_system(make_model("exponential", theta, (0.0, 1.0)), theta)
    f = psi_k_Q(psi, (1.0,))
    assert math.isfinite(f(0.5))
    with pytest.raises(EvaluationError, match="^psi_k_Q evaluation: overflow encountered in square$"):
        f(1.0)


def test_psi_k_q_rejects_bad_q():
    m = make_model("michaelis_menten", [1.0, 1.0], MM_IV)
    psi = psi_system(m, [1.0, 1.0])
    with pytest.raises(DomainError):
        psi_k_Q(psi, (0.0,))
    with pytest.raises(DomainError):
        psi_k_Q(psi, (1.0, 2.0))
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=r"^Q\[0\] must be finite, got "):
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
    with pytest.raises(ConfigurationError, match=r"^model michaelis_menten theta\[1\] must be finite, got inf$"):
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
    with pytest.raises(ConfigurationError, match=rf"^model {name} theta\[\d\] must be finite, got "):
        run[call]()


@pytest.mark.parametrize("case", NON_FINITE_THETAS)
def test_make_model_refuses_a_non_finite_theta(case):
    """Every catalog entry checks its theta at construction, the
    polynomial, which reads only the length of theta, included."""
    name, iv, _, theta = NON_FINITE_THETAS[case]
    with pytest.raises(ConfigurationError, match=rf"^model {name} theta\[\d\] must be finite, got "):
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


@pytest.mark.parametrize(
    "interval, p1, message",
    [
        ((0.0, 3.0, 5.0), 1, r"^interval must be an Interval or a pair \(A, B\) of numbers, got \(0\.0, 3\.0, 5\.0\)$"),
        ((0.0,), 1, r"^interval must be an Interval or a pair"),
        ("ab", 1, r"^interval must be an Interval or a pair"),
        (("a", "b"), 1, r"^interval lower must be a real number, got str$"),
        ((0.0, 3.0), 1.5, r"^p1 must be an integer, got float$"),
        ((0.0, 3.0), 0, r"^p1 must lie in 1\.\.2, got 0$"),
    ],
    ids=["three_ends", "one_end", "string", "string_ends", "float_p1", "zero_p1"],
)
def test_malformed_model_arguments_are_refused(interval, p1, message):
    """make_model takes an Interval or a pair of numbers and an integer p1;
    anything else is a ConfigurationError when the model is built, not a
    model that fails later."""
    with pytest.raises(ConfigurationError, match=message):
        make_model("exponential", [1.0, -1.0], interval, p1=p1)


def test_information_matrix_interval_mismatch():
    m = make_model("michaelis_menten", [1.0, 1.0], MM_IV)
    d = dirac(0.5, (0.0, 1.0))
    with pytest.raises(DomainError):
        information_matrix(m, [1.0, 1.0], d)


def _full_scan_with_tail(model, psi, xs):
    """with_tail as a scan of all of C11 (lower triangle included) and C21
    would build it, by psi_system's own dedup rule; and its k."""
    p, p1 = model.p, model.p1
    r = p - p1
    a, b = model.design_interval.lower, model.design_interval.upper
    angles = np.pi * (2.0 * np.arange(256) + 1.0) / 512.0
    H = psi.h(np.sort((a + b) / 2.0 + (b - a) / 2.0 * np.cos(angles)))
    reps = []
    for i, j in [(i, j) for i in range(r) for j in range(r)] + [(i, j) for i in range(r, p) for j in range(r)]:
        vals = H[i] * H[j]
        lo, hi = float(vals.min()), float(vals.max())
        if hi - lo <= 1e-10 * max(1.0, abs(hi), abs(lo)):
            continue
        if not any(
            np.abs(vals - rv).max() <= 1e-10 * max(1.0, float(np.abs(vals).max()), float(np.abs(rv).max()))
            for rv, _ in reps
        ):
            reps.append((vals, (i, j)))
    order = model.psi_order if model.psi_order is not None else range(len(reps))
    Hx = psi.h(xs)
    rows = [np.ones(xs.size)] + [Hx[i] * Hx[j] for i, j in (reps[s][1] for s in order)] + list(Hx[r:])
    return 1 + len(reps), np.array(rows)


@pytest.mark.parametrize("p1", [1, 2])
@pytest.mark.parametrize(
    "name,theta,iv",
    [
        ("michaelis_menten", [1.3, 0.8], MM_IV),
        ("exponential", [0.9, -0.7], (0.0, 3.0)),
        ("exponential3", [1.0, 0.8, -1.2], (0.0, 2.0)),
        ("polynomial", [1.0, 0.5, -0.3, 0.2], (-1.0, 1.0)),
    ],
)
def test_upper_triangle_scan_matches_the_full_scan(name, theta, iv, p1):
    """H[j] H[i] equals H[i] H[j] bit for bit and comes later in a full scan
    of C11, so scanning its upper triangle finds the same psi: the same k,
    order and with_tail bytes."""
    model = make_model(name, theta, iv, p1=p1)
    psi = psi_system(model, theta)
    xs = np.linspace(*iv, 37)
    k, want = _full_scan_with_tail(model, psi, xs)
    assert psi.k == k
    assert psi.with_tail(xs).tobytes() == want.tobytes()


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


# The catalog's gradients and P matrices transcribed into sympy, for the
# leading-Wronskian certificate: x and the parameters are real symbols.
_X = sympy.Symbol("x", real=True)
_T = sympy.symbols("t0:4", real=True)


def _symbolic_gradient(name: str, p: int):
    """(g, P) of a catalog entry as sympy expressions of _X and _T."""
    if name == "michaelis_menten":
        d = _T[1] + _X
        return [_X / d, -_T[0] * _X / d**2], sympy.diag(1, -_T[0])
    if name == "exponential":
        e = sympy.exp(_T[1] * _X)
        return [e, _T[0] * _X * e], sympy.diag(1, _T[0])
    if name == "exponential3":
        e = sympy.exp(_T[2] * _X)
        return [sympy.Integer(1), e, _T[1] * _X * e], sympy.diag(1, 1, _T[1])
    return [_X**i for i in range(p)], sympy.eye(p)


@functools.lru_cache(maxsize=None)
def _symbolic_wronskians(name: str, p: int, psi_order):
    """The psi system (1, psi_1, ..., psi_{k-1}, h_tail^2) of a catalog
    entry at p1 = 1, built as ``psi_system`` builds it (the distinct
    non-constant entries of C11 and C21 in scan order, then permuted by
    ``psi_order``), and its leading Wronskians W_1, ..., W_{k+1}."""
    g, P = _symbolic_gradient(name, p)
    h = [sympy.simplify(v) for v in P.inv() * sympy.Matrix(g)]
    r = p - 1
    positions = [(i, j) for i in range(r) for j in range(r)] + [(r, j) for j in range(r)]
    distinct = []
    for i, j in positions:
        entry = sympy.simplify(h[i] * h[j])
        if _X in entry.free_symbols and all(sympy.simplify(entry - d) != 0 for d in distinct):
            distinct.append(entry)
    order = psi_order if psi_order is not None else range(len(distinct))
    psi = [sympy.Integer(1)] + [distinct[i] for i in order] + [h[r] ** 2]
    return psi, [sympy.factor(sympy.simplify(sympy.wronskian(psi[:j], _X))) for j in range(1, len(psi) + 1)]


def _sign_on_the_line(expr):
    """+1 or -1 when sympy proves the sign of expr for every real x, else None."""
    return 1 if expr.is_positive else -1 if expr.is_negative else None


# Each certified catalog entry at rates, or polynomial coefficients, of
# both signs; the exponential rates are theta[1] and theta[2].
CERTIFIED_GRID = [
    ("exponential", [1.0, r], (0.0, 3.0)) for r in (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)
] + [
    ("exponential3", [1.0, c, r], (0.0, 3.0)) for c in (-1.0, 1.0) for r in (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)
] + [
    ("polynomial", theta, (-1.0, 1.0)) for theta in ([1.0, -0.5], [1.0, 0.5, -0.5], [-1.0, 0.5, -0.5, 0.25])
]


@pytest.mark.parametrize("name,theta,iv", CERTIFIED_GRID, ids=[f"{c[0]}-{c[1]}" for c in CERTIFIED_GRID])
def test_wronskian_signs_match_a_sympy_derivation(name, theta, iv):
    """The certificate is the sign, strict for every real x, of each
    leading Wronskian of the psi system in declared order with h_tail^2
    appended, and the sympy psi system is the one psi_system evaluates."""
    model = make_model(name, theta, iv)
    psi, wronskians = _symbolic_wronskians(name, model.p, model.psi_order)
    at = dict(zip(_T, (sympy.nsimplify(v) for v in theta)))
    signs = tuple(_sign_on_the_line(sympy.simplify(W.subs(at))) for W in wronskians)
    assert None not in signs
    assert model.wronskian_signs(model, theta) == signs

    xs = np.linspace(iv[0], iv[1], 9)
    values = np.array([[float(f.subs(at).subs(_X, x)) for x in xs] for f in psi])
    rows = psi_system(model, theta).with_tail(xs)
    k = len(psi) - 1
    np.testing.assert_allclose(rows[:k], values[:k], rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(rows[k] ** 2, values[k], rtol=1e-12, atol=1e-300)


def test_michaelis_menten_declared_order_is_not_certifiable():
    """W_2 of the declared order is x (2 theta2 - x) / (theta2 + x)^4: zero
    at A = 0 and of both signs on [0, 10] at theta2 = 1, so the entry
    carries no certificate."""
    model = make_model("michaelis_menten", [1.0, 1.0], MM_IV)
    assert model.wronskian_signs is None
    _, wronskians = _symbolic_wronskians("michaelis_menten", 2, model.psi_order)
    w2 = wronskians[1]
    assert sympy.simplify(w2 - _X * (2 * _T[1] - _X) / (_T[1] + _X) ** 4) == 0
    values = [w2.subs({_T[1]: 1, _X: x}) for x in (0, 1, 3)]
    assert values[0] == 0 and values[1] > 0 and values[2] < 0


@pytest.mark.parametrize("p1", [1, 2])
@pytest.mark.parametrize("name,theta,iv", CERTIFIED_GRID[:1] + CERTIFIED_GRID[8:9] + CERTIFIED_GRID[-1:])
def test_only_p1_1_is_certified(name, theta, iv, p1):
    """make_model fills the signs at p1 = 1 only, and they answer None for
    the same model with p1 replaced."""
    model = make_model(name, theta, iv, p1=p1)
    assert (model.wronskian_signs is not None) == (p1 == 1)
    if p1 == 1:
        replaced = dataclasses.replace(model, p1=2)
        assert replaced.wronskian_signs(replaced, theta) is None


def test_a_zero_rate_has_no_signs():
    model = make_model("exponential", [1.0, 1.0], (0.0, 3.0))
    for rate in (0.0, -0.0):
        assert model.wronskian_signs(model, [1.0, rate]) is None


def test_importing_tcheb_loads_no_sympy():
    code = "import sys, tcheb, tcheb.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(tcheb.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
