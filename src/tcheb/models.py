"""Nonlinear regression models and their induced function systems.

For a model with mean function eta(x, theta) and gradient g = d eta /
d theta, the information matrix of a design xi is

    M(xi, theta) = sum_j w_j g(x_j) g(x_j)^T .

A model carries a regular matrix P(theta), independent of the design,
and the transformed matrix C = P^{-1} M P^{-T} factors pointwise as
C(x) = h(x) h(x)^T with h = P^{-1} g.  Splitting off the trailing p1
coordinates of h partitions C(x) into blocks C11 (leading square), C21
(trailing rows) and C22 (trailing square).  The distinct non-constant
entries of C11 and C21, with the constant 1 prepended, form the psi
system whose moments a dominating design must reproduce, while the
quadratic forms Q^T C22(x) Q over nonzero Q are the directions in which
it must gain.

Each catalog entry pins the ordering of its psi functions.  The
ordering is mathematically irrelevant for the moment constraints but
the determinant condition is sign sensitive, so the catalog declares
the permutation that makes the base system positively oriented.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .chebyshev import (
    ChebyshevSystem, Interval, _evaluate, _typed_overflow, check_count, check_interval, check_reals,
    monomial_derivatives, monomials,
)
from .errors import ConfigurationError, DomainError

DEDUP_GRID_SIZE = 256
DEDUP_TOL = 1e-10


@dataclass(frozen=True)
class RegressionModel:
    """Catalog model: mean function, gradient and block transformation.

    ``gradient`` and ``gradient_dx`` accept an ndarray of x values and
    return an array of shape (p, n); ``gradient_dx`` is the x derivative
    of the gradient, used to carry analytic derivatives through to the
    Newton refinement.  ``p1`` is the size of the trailing block.

    ``eta``, ``gradient``, ``p_matrix`` and ``gradient_dx`` must be pure
    functions of (x, theta), or of theta alone for ``p_matrix``:
    ``reduce_design`` memoises its determinant gate per model, keyed by
    these fields.

    ``wronskian_signs``, filled only by ``make_model``, maps (model,
    theta) to the signs +-1 of the leading Wronskians W_1, ..., W_{k+1}
    of the psi system in its declared order with h_tail^2 appended, each
    strict on the whole interval, or to None.  It is a closed-form
    certificate for ``exponential``, ``exponential3`` and ``polynomial``
    at p1 = 1; it answers None for any model whose ``gradient``,
    ``p_matrix``, ``psi_order``, ``p1`` or ``expected_k`` is not the one it
    was derived for, e.g. after ``dataclasses.replace``, and for every
    ``michaelis_menten`` model (README "Numerical notes" says why).
    """

    name: str
    p: int
    eta: Callable
    gradient: Callable
    p_matrix: Callable
    design_interval: Interval
    p1: int = 1
    gradient_dx: Optional[Callable] = None
    psi_order: Optional[Tuple[int, ...]] = None
    expected_k: Optional[int] = None
    wronskian_signs: Optional[Callable] = None

    def __post_init__(self):
        check_interval(self.design_interval, "design_interval")
        if not 1 <= check_count(self.p1, "p1") <= self.p:
            raise ConfigurationError(f"p1 must lie in 1..{self.p}, got {self.p1}")


@dataclass(frozen=True)
class PsiSystem:
    """The induced moment system of a model at a parameter value.

    ``system`` holds 1, psi_1, ..., psi_{k-1} in catalog order.  ``h``
    maps points to h = P^{-1} g, shape (p, n), and ``with_tail`` to the
    (k + p1, n) psi values over h_tail, whose leading k rows are the system's.
    """

    system: ChebyshevSystem
    p1: int
    h: Callable
    with_tail: Callable

    @property
    def k(self) -> int:
        return self.system.k

    def h_tail(self, xs) -> np.ndarray:
        """The (p1, n) trailing block of h, the factor of C22 = h_tail h_tail^T."""
        return self.h(xs)[-self.p1 :]


def _grad_values(model: RegressionModel, theta, xs) -> np.ndarray:
    return _evaluate(model.gradient, model.p, xs, f"gradient of {model.name}", theta)


def _check_theta(model: RegressionModel, theta) -> np.ndarray:
    """theta as a float p-vector, entries by ``check_reals`` ("model {name} theta")."""
    theta = check_reals(theta, f"model {model.name} theta")
    if theta.shape != (model.p,):
        raise ConfigurationError(
            f"model {model.name} needs {model.p} parameters, got {theta.shape}"
        )
    return theta


def information_matrix(model: RegressionModel, theta, design) -> np.ndarray:
    """M = sum_j w_j g(x_j) g(x_j)^T, a symmetric PSD p x p matrix; one that
    overflows double precision raises EvaluationError."""
    theta = _check_theta(model, theta)
    if design.interval != model.design_interval:
        raise DomainError("design interval differs from the model design interval")
    G = _grad_values(model, theta, design.points_array())
    W = design.weights_array()
    with _typed_overflow(f"information matrix of {model.name}"):
        M = (G * W) @ G.T
        return (M + M.T) / 2.0


def _p_inverse(model: RegressionModel, theta) -> np.ndarray:
    P = np.asarray(model.p_matrix(theta), dtype=float)
    if P.shape != (model.p, model.p):
        raise ConfigurationError(f"P matrix of {model.name} has shape {P.shape}")
    if not np.all(np.isfinite(P)) or np.linalg.cond(P) > 1e12:
        raise ConfigurationError(f"P matrix of {model.name} is numerically singular")
    return np.linalg.inv(P)


def c_matrix(model: RegressionModel, theta, design) -> np.ndarray:
    """C = P^{-1} M P^{-T}; the identity M = P C P^T holds to round-off."""
    theta = _check_theta(model, theta)
    M = information_matrix(model, theta, design)
    Pinv = _p_inverse(model, theta)
    C = Pinv @ M @ Pinv.T
    return (C + C.T) / 2.0


def psi_system(model: RegressionModel, theta) -> PsiSystem:
    """Deduplicated entries of C11 and C21, ordered per the catalog.

    Entries are compared on a 256-point Chebyshev-spaced grid; two
    entries agreeing within 1e-10 (relative to their magnitude) are the
    same psi, and constants are discarded.  A table of entries that
    overflows on that grid raises EvaluationError.  When the model declares
    an expected k, a mismatch raises a configuration error, which catches
    deduplication ambiguities at known parameter values.
    """
    theta = _check_theta(model, theta)
    p, p1 = model.p, model.p1
    r = p - p1
    Pinv = _p_inverse(model, theta)
    a, b = model.design_interval.lower, model.design_interval.upper

    def h(xs):
        return Pinv @ _grad_values(model, theta, xs)

    mid, half = (a + b) / 2.0, (b - a) / 2.0
    angles = np.pi * (2.0 * np.arange(DEDUP_GRID_SIZE) + 1.0) / (2.0 * DEDUP_GRID_SIZE)
    grid = np.sort(mid + half * np.cos(angles))
    # C11's lower triangle repeats its upper one bit for bit: it adds no psi.
    positions = [(i, j) for i in range(r) for j in range(i, r)]
    positions += [(i, j) for i in range(r, p) for j in range(r)]

    def products(xs):
        H = h(xs)
        return np.array([H[i] * H[j] for i, j in positions]).reshape(-1, xs.size)

    table = _evaluate(products, len(positions), grid, f"psi dedup table of {model.name}")
    reps: list = []  # (values_on_grid, (i, j) of first appearance)
    for (i, j), vals in zip(positions, table):
        lo, hi = float(vals.min()), float(vals.max())
        if hi - lo <= DEDUP_TOL * max(1.0, abs(hi), abs(lo)):
            continue
        for rv, _ in reps:
            tol = DEDUP_TOL * max(1.0, float(np.abs(vals).max()), float(np.abs(rv).max()))
            if np.abs(vals - rv).max() <= tol:
                break
        else:
            reps.append((vals, (i, j)))

    n_distinct = len(reps)
    k = 1 + n_distinct
    if model.expected_k is not None and k != model.expected_k:
        raise ConfigurationError(
            f"{model.name}: deduplication found k={k}, catalog declares {model.expected_k}; "
            "entries may coincide at this parameter value"
        )

    order = model.psi_order if model.psi_order is not None else tuple(range(n_distinct))
    if sorted(order) != list(range(n_distinct)):
        raise ConfigurationError(f"{model.name}: psi_order is not a permutation of 0..{n_distinct - 1}")

    I, J = np.array([reps[scan][1] for scan in order], dtype=int).reshape(-1, 2).T

    def with_tail(xs):
        H = h(xs)
        W = np.empty((k + p1, H.shape[1]))
        W[0] = 1.0
        for row, (i, j) in enumerate(zip(I, J), 1):
            np.multiply(H[i], H[j], out=W[row])
        W[k:] = H[r:]
        return W

    def derivative_rows(xs):
        H = h(xs)
        dH = Pinv @ np.asarray(model.gradient_dx(xs, theta), dtype=float)
        return np.vstack([np.zeros((1, H.shape[1])), dH[I] * H[J] + H[I] * dH[J]])

    system = ChebyshevSystem(
        model.design_interval, k, lambda xs: with_tail(xs)[:k],
        None if model.gradient_dx is None else derivative_rows, name=f"{model.name}_psi"
    )
    return PsiSystem(system=system, p1=p1, h=h, with_tail=with_tail)


def psi_k_Q(psi: PsiSystem, Q) -> Callable:
    """The direction function x -> Q^T C22(x) Q for a nonzero Q.

    Since C22 = h h^T with the trailing block h of length p1, the value
    is the square of Q . h(x), read through ``chebyshev._evaluate``: a
    square that overflows raises EvaluationError.  Q's entries pass
    ``check_reals``; every refusal of Q is a DomainError.
    """
    try:
        Q = check_reals(Q, "Q")
    except ConfigurationError as err:
        raise DomainError(str(err)) from None
    if Q.shape != (psi.p1,):
        raise DomainError(f"Q must have length p1={psi.p1}")
    if float(np.linalg.norm(Q)) == 0.0:
        raise DomainError("Q must be nonzero")

    def f(xs):
        arr = np.asarray(xs, dtype=float)
        vals = _evaluate(lambda x: (Q @ psi.h_tail(x))[None] ** 2, 1, arr, "psi_k_Q")[0]
        return float(vals[0]) if arr.ndim == 0 else vals

    f.__name__ = "psi_k_Q"
    return f


def _theta_positive(name: str, theta: np.ndarray, idx: int):
    if theta[idx] <= 0.0:
        raise ConfigurationError(f"{name}: theta[{idx}] must be positive, got {theta[idx]}")


def _theta_nonzero(name: str, theta: np.ndarray, idx: int):
    if theta[idx] == 0.0:
        raise ConfigurationError(f"{name}: theta[{idx}] must be nonzero")


def _michaelis_menten(interval: Interval, p1: int) -> RegressionModel:
    """eta = theta1 * x / (theta2 + x); requires theta2 > 0 and A >= 0."""
    if interval.lower < 0.0:
        raise ConfigurationError("michaelis_menten needs a nonnegative design interval")

    def eta(x, th):
        x = np.asarray(x, dtype=float)
        return th[0] * x / (th[1] + x)

    def gradient(x, th):
        x = np.asarray(x, dtype=float)
        d = th[1] + x
        return np.stack([x / d, -th[0] * x / d**2])

    def gradient_dx(x, th):
        x = np.asarray(x, dtype=float)
        d = th[1] + x
        return np.stack([th[1] / d**2, -th[0] * (th[1] - x) / d**3])

    return RegressionModel(
        name="michaelis_menten",
        p=2,
        eta=eta,
        gradient=gradient,
        p_matrix=lambda th: np.diag([1.0, -th[0]]),
        design_interval=interval,
        p1=p1,
        gradient_dx=gradient_dx,
        psi_order=(1, 0) if p1 == 1 else None,
        expected_k=3 if p1 == 1 else None,
    )


def _exponential(interval: Interval, p1: int) -> RegressionModel:
    """eta = theta1 * exp(theta2 * x)."""

    def eta(x, th):
        return th[0] * np.exp(th[1] * np.asarray(x, dtype=float))

    def gradient(x, th):
        x = np.asarray(x, dtype=float)
        e = np.exp(th[1] * x)
        return np.stack([e, th[0] * x * e])

    def gradient_dx(x, th):
        x = np.asarray(x, dtype=float)
        e = np.exp(th[1] * x)
        return np.stack([th[1] * e, th[0] * e * (1.0 + th[1] * x)])

    return RegressionModel(
        name="exponential",
        p=2,
        eta=eta,
        gradient=gradient,
        p_matrix=lambda th: np.diag([1.0, th[0]]),
        design_interval=interval,
        p1=p1,
        gradient_dx=gradient_dx,
        psi_order=(0, 1) if p1 == 1 else None,
        expected_k=3 if p1 == 1 else None,
    )


def _exponential3(interval: Interval, p1: int) -> RegressionModel:
    """eta = theta1 + theta2 * exp(theta3 * x)."""

    def eta(x, th):
        return th[0] + th[1] * np.exp(th[2] * np.asarray(x, dtype=float))

    def gradient(x, th):
        x = np.asarray(x, dtype=float)
        e = np.exp(th[2] * x)
        return np.stack([np.ones_like(x), e, th[1] * x * e])

    def gradient_dx(x, th):
        x = np.asarray(x, dtype=float)
        e = np.exp(th[2] * x)
        return np.stack([np.zeros_like(x), th[2] * e, th[1] * e * (1.0 + th[2] * x)])

    # Scan order of the distinct entries is (e, e^2, x e, x e^2) in the
    # shorthand e = exp(theta3 x).  The declared order interleaves them
    # as (e, x e, e^2, x e^2), an odd permutation, which orients the
    # base determinants positively for either sign of theta3.
    return RegressionModel(
        name="exponential3",
        p=3,
        eta=eta,
        gradient=gradient,
        p_matrix=lambda th: np.diag([1.0, 1.0, th[1]]),
        design_interval=interval,
        p1=p1,
        gradient_dx=gradient_dx,
        psi_order=(0, 2, 1, 3) if p1 == 1 else None,
        expected_k=5 if p1 == 1 else None,
    )


def _polynomial(interval: Interval, p1: int, degree: int) -> RegressionModel:
    """eta = theta1 + theta2 x + ... + theta_{d+1} x^d, the linear model."""
    if degree < 1:
        raise ConfigurationError("polynomial degree must be at least 1")
    p = degree + 1

    def eta(x, th):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), th)

    return RegressionModel(
        name="polynomial",
        p=p,
        eta=eta,
        gradient=lambda x, th: monomials(x, p),
        p_matrix=lambda th: np.eye(p),
        design_interval=interval,
        p1=p1,
        gradient_dx=lambda x, th: monomial_derivatives(x, p),
        psi_order=None,
        expected_k=2 * degree if p1 == 1 else None,
    )


CATALOG_NAMES = ("michaelis_menten", "exponential", "exponential3", "polynomial")


# Leading Wronskians W_1, ..., W_{k+1} of the catalog psi systems at
# p1 = 1, in declared order with h_tail^2 appended, for the rate r and
# e = exp(r x):
#   exponential   (1, e^2, x e^2; x^2 e^2):  1, 2r e^2, 4r^2 e^4, 16r^3 e^6;
#   exponential3  (1, e, x e, e^2, x e^2; x^2 e^2):
#                 1, r e, r^2 e^2, 2r^5 e^4, 4r^8 e^6, 16r^11 e^8;
#   polynomial    (1, x, ..., x^(2d-1); x^(2d)):  W_j = 0! 1! ... (j-1)!.
def _alternating_signs(k: int, rate: Optional[int] = None) -> Callable:
    """theta -> (1, s, 1, s, ...) of length k + 1, s the sign of the rate
    theta[rate] (1 when there is none); None at a zero rate."""

    def signs(theta):
        s = 1 if rate is None else int(np.sign(theta[rate]))
        return None if s == 0 else tuple(s if j % 2 else 1 for j in range(k + 1))

    return signs


def _certified(model: RegressionModel, signs: Callable) -> RegressionModel:
    """The model carrying ``signs`` as its ``wronskian_signs``, bound to the
    fields that the closed forms were derived for."""
    gradient, p_matrix, rest = model.gradient, model.p_matrix, (model.psi_order, model.p1, model.expected_k)

    def wronskian_signs(m: RegressionModel, theta) -> Optional[Tuple[int, ...]]:
        if m.gradient is not gradient or m.p_matrix is not p_matrix or (m.psi_order, m.p1, m.expected_k) != rest:
            return None
        return signs(_check_theta(m, theta))

    return dataclasses.replace(model, wronskian_signs=wronskian_signs)


def make_model(name: str, theta, interval, p1: int = 1) -> RegressionModel:
    """Build a catalog model bound to a design interval, an ``Interval`` or
    a pair (A, B) of numbers.

    ``theta`` is used for dimension and admissibility checks only; the
    operations all take the parameter vector explicitly.  Its entries pass
    ``check_reals`` ("model {name} theta[i] must be finite, got nan").
    """
    if name not in CATALOG_NAMES:
        raise ConfigurationError(
            f"unknown model {name!r}; catalog: {', '.join(CATALOG_NAMES)}"
        )
    if isinstance(interval, (tuple, list)) and len(interval) == 2:
        interval = Interval(*interval)
    elif not isinstance(interval, Interval):
        raise ConfigurationError(f"interval must be an Interval or a pair (A, B) of numbers, got {interval!r}")
    theta = check_reals(theta, f"model {name} theta")
    if name == "michaelis_menten":
        model, rules = _michaelis_menten(interval, p1), ((_theta_nonzero, 0), (_theta_positive, 1))
        signs = None
    elif name == "exponential":
        model, rules = _exponential(interval, p1), ((_theta_nonzero, 0), (_theta_nonzero, 1))
        signs = _alternating_signs(3, rate=1)
    elif name == "exponential3":
        model, rules = _exponential3(interval, p1), ((_theta_nonzero, 1), (_theta_nonzero, 2))
        signs = _alternating_signs(5, rate=2)
    else:
        if theta.ndim != 1:
            raise ConfigurationError(f"model {name} needs a vector of parameters, got shape {theta.shape}")
        model, rules = _polynomial(interval, p1, degree=len(theta) - 1), ()
        signs = _alternating_signs(2 * len(theta) - 2)
    _check_theta(model, theta)
    for rule, index in rules:  # the per-model rules, in order
        rule(name, theta, index)
    return model if signs is None or p1 != 1 else _certified(model, signs)
