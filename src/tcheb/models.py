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
    ChebyshevSystem, Interval, _evaluate, _Monomials, _typed_overflow, check_count, check_reals, check_type,
    monomial_derivatives, monomials,
)
from .errors import ConfigurationError, DomainError
from .moments import Design

DEDUP_GRID_SIZE = 256
DEDUP_TOL = 1e-10


@dataclass(frozen=True)
class RegressionModel:
    """Catalog model: mean function, gradient and block transformation.

    ``gradient`` and ``gradient_dx`` receive the float ndarray of n x
    values that ``chebyshev._evaluate`` makes, and return an array of
    shape (p, n); ``gradient_dx`` is the x derivative of the gradient,
    used to carry analytic derivatives through to the Newton refinement.
    ``p1`` is the size of the trailing block.

    ``eta``, ``gradient``, ``p_matrix`` and ``gradient_dx`` must be pure
    functions of (x, theta), or of theta alone for ``p_matrix``:
    ``reduce_design`` memoises its determinant gate per model, keyed by
    these fields.

    ``determinant_signs``, filled only by ``make_model``, maps (model,
    theta) to the pair (s_k, s_{k+1}) of signs +-1 that every ordered
    collocation determinant of the psi system in its declared order has,
    and of that system with h_tail^2 appended, or to None where nothing is
    proved.  It is a closed-form certificate at p1 = 1: by the leading
    Wronskians for ``exponential``, ``exponential3`` and ``polynomial``,
    and by a generalized Vandermonde factorization for ``michaelis_menten``
    at theta2 > 0 on an interval with A >= 0 (README "Numerical notes").
    It answers None for any model whose ``gradient``, ``p_matrix``,
    ``psi_order``, ``p1`` or ``expected_k`` is not the one it was derived
    for, e.g. after ``dataclasses.replace``.
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
    determinant_signs: Optional[Callable] = None

    def __post_init__(self):
        check_type(self.design_interval, Interval, "design_interval")
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
    """theta as a float p-vector, entries by ``check_reals`` ("model {name} theta"),
    after ``check_type`` refuses a model that is not a RegressionModel: the
    first check of every entry that takes a model."""
    check_type(model, RegressionModel, "model")
    theta = check_reals(theta, f"model {model.name} theta")
    if theta.shape != (model.p,):
        raise ConfigurationError(
            f"model {model.name} needs {model.p} parameters, got {theta.shape}"
        )
    return theta


def information_matrix(model: RegressionModel, theta, design) -> np.ndarray:
    """M = sum_j w_j g(x_j) g(x_j)^T, a symmetric PSD p x p matrix; one that
    overflows double precision raises EvaluationError."""
    return _information_matrix(model, _check_theta(model, theta), design)


def _information_matrix(model: RegressionModel, theta: np.ndarray, design) -> np.ndarray:
    """``information_matrix`` at a theta that passed ``_check_theta``, after
    ``check_type`` refuses a design that is not a Design."""
    check_type(design, Design, "design")
    if design.interval != model.design_interval:
        raise DomainError("design interval differs from the model design interval")
    G = _grad_values(model, theta, design.points_array())
    W = design.weights_array()
    with _typed_overflow(f"information matrix of {model.name}"):
        M = (G * W) @ G.T
        return (M + M.T) / 2.0


def _p_inverse(model: RegressionModel, theta) -> np.ndarray:
    """P^{-1}, or ConfigurationError when P is not finite or is numerically
    singular: a condition number above 1e12 once each row is scaled to unit
    max-norm, so a diagonal P of any scale is inverted."""
    P = np.asarray(model.p_matrix(theta), dtype=float)
    if P.shape != (model.p, model.p):
        raise ConfigurationError(f"P matrix of {model.name} has shape {P.shape}")
    rows = np.abs(P).max(axis=1, keepdims=True)
    if not (np.all(np.isfinite(P)) and rows.all()) or np.linalg.cond(P / rows) > 1e12:
        raise ConfigurationError(f"P matrix of {model.name} is numerically singular")
    return np.linalg.inv(P)


def c_matrix(model: RegressionModel, theta, design) -> np.ndarray:
    """C = P^{-1} M P^{-T}; the identity M = P C P^T holds to round-off."""
    theta = _check_theta(model, theta)
    M = _information_matrix(model, theta, design)
    Pinv = _p_inverse(model, theta)
    C = Pinv @ M @ Pinv.T
    return (C + C.T) / 2.0


@dataclass(frozen=True)
class _MonomialProducts(_Monomials):
    """The psi evaluator of a system whose values are the monomials 1, x,
    ..., x^(k-1) in that order: the first k rows of ``with_tail``, so the
    gate's sample and the system read the same values.  As a
    ``_Monomials`` the system is seeded from Gauss-type rules."""

    with_tail: Callable

    def __call__(self, xs):
        return self.with_tail(xs)[: self.k]


def psi_system(model: RegressionModel, theta) -> PsiSystem:
    """Deduplicated entries of C11 and C21, ordered per the catalog.

    Entries are compared on a 256-point Chebyshev-spaced grid, each through
    its magnitude m there, its largest absolute value.  An entry whose
    values span at most 1e-10 max(1, m) is a constant and is discarded, and
    two entries within 1e-10 max(1, m, m') of each other are the same psi:
    both rules are absolute where the magnitudes are below 1.  A table of
    entries that overflows on that grid raises EvaluationError.  When the
    model declares an expected k, a mismatch raises a configuration error,
    which catches deduplication ambiguities at known parameter values.  A
    system whose ordered rows on that grid are x, ..., x^(k-1), each within
    1e-10 of its own magnitude there, gets a ``_MonomialProducts``
    evaluator, whose type ``principal`` seeds from Gauss-type rules: the
    catalog ``polynomial`` at any p1, and any model with the same values.
    Row 1 is compared with x first, so a system whose row 1 is not x forms
    no power.
    """
    theta = _check_theta(model, theta)
    p, p1 = model.p, model.p1
    r = p - p1
    Pinv = _p_inverse(model, theta)
    a, b = model.design_interval.lower, model.design_interval.upper
    # The index pairs (i, j) of C11's upper triangle, then of C21: C11's
    # lower triangle repeats the upper one bit for bit and adds no psi.
    entries = [(i, j) for i in range(r) for j in range(i, r)] + [(i, j) for i in range(r, p) for j in range(r)]
    entries = np.array(entries, dtype=int).reshape(-1, 2).T

    def h(xs):
        return Pinv @ _grad_values(model, theta, xs)

    def products(F, G, pairs, out=None):  # the rows F_i G_j over the index pairs (i, j); h_i h_j at F = G = h
        return np.multiply(F[pairs[0]], G[pairs[1]], out=out)

    def table_rows(xs):
        H = h(xs)
        return products(H, H, entries)

    mid, half = (a + b) / 2.0, (b - a) / 2.0
    angles = np.pi * (2.0 * np.arange(DEDUP_GRID_SIZE) + 1.0) / (2.0 * DEDUP_GRID_SIZE)
    grid = np.sort(mid + half * np.cos(angles))
    table = _evaluate(table_rows, entries.shape[1], grid, f"psi dedup table of {model.name}")
    magnitude = np.abs(table).max(axis=1)
    tol = DEDUP_TOL * np.maximum(1.0, magnitude)
    reps: list = []  # the table rows of first appearance
    for row in np.flatnonzero(table.max(axis=1) - table.min(axis=1) > tol):
        if not any(np.abs(table[row] - table[rep]).max() <= max(tol[row], tol[rep]) for rep in reps):
            reps.append(row)

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

    rows = np.array(reps, dtype=int)[list(order)]
    ordered, scale, chosen = table[rows], DEDUP_TOL * magnitude[rows, None], entries[:, rows]
    with np.errstate(over="ignore"):  # a power past the double range matches no finite row
        monomial = np.all(np.abs(ordered[:1] - grid) <= scale[:1])  # row 1 is x: only then form the powers
        monomial = monomial and np.all(np.abs(ordered - monomials(grid, k)[1:]) <= scale)

    def with_tail(xs):
        H = h(xs)
        W = np.empty((k + p1, H.shape[1]))
        W[0] = 1.0
        products(H, H, chosen, out=W[1:k])
        W[k:] = H[r:]
        return W

    def derivative_rows(xs):
        H = h(xs)
        dH = Pinv @ np.asarray(model.gradient_dx(xs, theta), dtype=float)
        return np.vstack([np.zeros((1, H.shape[1])), products(dH, H, chosen) + products(H, dH, chosen)])

    dpsi = None if model.gradient_dx is None else derivative_rows
    evaluator = _MonomialProducts(k, with_tail) if monomial else lambda xs: with_tail(xs)[:k]
    system = ChebyshevSystem(model.design_interval, k, evaluator, dpsi)
    return PsiSystem(system=system, p1=p1, h=h, with_tail=with_tail)


def psi_k_Q(psi: PsiSystem, Q) -> Callable:
    """The direction function x -> Q^T C22(x) Q for a nonzero Q.

    Since C22 = h h^T with the trailing block h of length p1, the value
    is the square of Q . h(x), read through ``chebyshev._evaluate``: a
    square that overflows raises EvaluationError.  Q's entries pass
    ``check_reals``; every refusal of Q is a DomainError, and a ``psi``
    that is not a PsiSystem is refused first, by ``check_type``.
    """
    check_type(psi, PsiSystem, "psi")
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
        d = th[1] + x
        return np.stack([x / d, -th[0] * x / d**2])

    def gradient_dx(x, th):
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
        e = np.exp(th[1] * x)
        return np.stack([e, th[0] * x * e])

    def gradient_dx(x, th):
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
        e = np.exp(th[2] * x)
        return np.stack([np.ones_like(x), e, th[1] * x * e])

    def gradient_dx(x, th):
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
# W_k > 0 and W_{k+1} has the sign of r, so the pair is (1, sign r).
def _rate_signs(rate: Optional[int] = None) -> Callable:
    """(model, theta) -> (1, s), s the sign of the rate theta[rate] (1 when
    there is none); None at a zero rate."""

    def signs(model: RegressionModel, theta: np.ndarray):
        s = 1 if rate is None else int(np.sign(theta[rate]))
        return None if s == 0 else (1, s)

    return signs


# michaelis_menten at p1 = 1 in declared order with h_tail^2 appended is
# (1, x^2/d^3, x^2/d^2; x^2/d^4), d = theta2 + x.  With v = x/d, which
# rises strictly from v(A) >= 0 on [A, B] when theta2 > 0 and A >= 0, it is
# T (1, v^2, v^3, v^4) for a matrix T whose leading 3 x 3 block has det
# 1/theta2 and whole det 1/theta2^3.  Generalized Vandermonde determinants
# det [v_j^a_i] at 0 <= v_0 < v_1 < ... are positive, so the pair is (1, 1).
def _michaelis_menten_signs(model: RegressionModel, theta: np.ndarray):
    """(1, 1) when theta2 > 0 and the model's interval starts at A >= 0, else None."""
    return (1, 1) if theta[1] > 0.0 and model.design_interval.lower >= 0.0 else None


def _certified(model: RegressionModel, signs: Callable) -> RegressionModel:
    """The model carrying ``signs`` as its ``determinant_signs``, bound to
    the fields that the closed forms were derived for."""
    gradient, p_matrix, rest = model.gradient, model.p_matrix, (model.psi_order, model.p1, model.expected_k)

    def determinant_signs(m: RegressionModel, theta) -> Optional[Tuple[int, int]]:
        if m.gradient is not gradient or m.p_matrix is not p_matrix or (m.psi_order, m.p1, m.expected_k) != rest:
            return None
        return signs(m, _check_theta(m, theta))

    return dataclasses.replace(model, determinant_signs=determinant_signs)


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
        signs = _michaelis_menten_signs
    elif name == "exponential":
        model, rules = _exponential(interval, p1), ((_theta_nonzero, 0), (_theta_nonzero, 1))
        signs = _rate_signs(rate=1)
    elif name == "exponential3":
        model, rules = _exponential3(interval, p1), ((_theta_nonzero, 1), (_theta_nonzero, 2))
        signs = _rate_signs(rate=2)
    else:
        if theta.ndim != 1:
            raise ConfigurationError(f"model {name} needs a vector of parameters, got shape {theta.shape}")
        model, rules = _polynomial(interval, p1, degree=len(theta) - 1), ()
        signs = _rate_signs()
    _check_theta(model, theta)
    for rule, index in rules:  # the per-model rules, in order
        rule(name, theta, index)
    return model if p1 != 1 else _certified(model, signs)
