"""Function systems on a compact interval and the total-positivity check.

An ordered system of k real functions (psi_0, ..., psi_{k-1}) on [A, B]
is a Chebyshev system when every collocation determinant

    det [ psi_i(x_j) ]_{i,j=0..k-1}

over a strictly increasing tuple x_0 < ... < x_{k-1} is strictly
positive.  The check implemented here is sampling based and one sided:
a tuple with a decisively nonpositive determinant refutes the property,
while a clean pass over many tuples is evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DomainError, EvaluationError

# Determinants smaller in magnitude than this multiple of the product of
# the matrix row norms are flagged as numerically indeterminate; they are
# neither witnesses nor evidence.
INDETERMINATE_REL = 1e-12

DEFAULT_GRID_SIZE = 512
DEFAULT_NUM_TUPLES = 2000

# Slack used when testing membership of a point in the interval, relative
# to the interval length.  Guards against round-off on endpoint arithmetic.
_MEMBERSHIP_REL = 1e-12


@dataclass(frozen=True)
class Interval:
    """Compact interval [lower, upper] with finite endpoints."""

    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigurationError("interval endpoints must be finite")
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"interval requires lower < upper, got [{self.lower}, {self.upper}]"
            )

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= x <= self.upper + slack


@dataclass(frozen=True)
class ChebyshevSystem:
    """Ordered basis psi_0, ..., psi_{k-1} on an interval.

    ``basis`` holds callables that accept a float ndarray and return an
    ndarray of the same shape (scalar returns are broadcast).  When the
    system feeds the regression pipeline, psi_0 must be identically 1.
    ``derivatives``, when given, holds d(psi_i)/dx in matching order.

    ``evaluator`` maps n points to the (k, n) basis values, and so does
    ``derivative_evaluator`` (or None) for the derivatives.  Both stack
    the callables unless ``from_evaluator`` built the system.
    """

    interval: Interval
    basis: Tuple[Callable, ...]
    derivatives: Optional[Tuple[Callable, ...]] = None
    name: str = ""
    evaluator: Callable = field(init=False, compare=False, repr=False)
    derivative_evaluator: Optional[Callable] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if not self.basis:
            raise ConfigurationError("a system needs at least one basis function")
        if self.derivatives is not None:
            object.__setattr__(self, "derivatives", tuple(self.derivatives))
            if len(self.derivatives) != len(self.basis):
                raise ConfigurationError("derivatives must match the basis in length")
            object.__setattr__(self, "derivative_evaluator", _stacked(self.derivatives))
        object.__setattr__(self, "evaluator", _stacked(self.basis))

    @classmethod
    def from_evaluator(cls, interval, k: int, evaluator, derivative_evaluator=None, name=""):
        """A system evaluated as a whole; ``basis[i]`` reads row i."""
        rows = [None if ev is None else tuple(_row(ev, i) for i in range(k))
                for ev in (evaluator, derivative_evaluator)]
        system = cls(interval, *rows, name)
        object.__setattr__(system, "evaluator", evaluator)
        object.__setattr__(system, "derivative_evaluator", derivative_evaluator)
        return system

    @property
    def k(self) -> int:
        return len(self.basis)


def _row(evaluator: Callable, i: int) -> Callable:
    return lambda xs: evaluator(np.ravel(np.asarray(xs, dtype=float)))[i].reshape(np.shape(xs))


def _stacked(fs: Tuple[Callable, ...]) -> Callable:
    return lambda xs: np.stack([_call_on_array(f, xs) for f in fs])


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a sampling check of the determinant condition."""

    verified: bool
    tuples_checked: int
    min_determinant: float
    witness: Optional[Tuple[float, ...]]


def _call_on_array(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate f on an ndarray, tolerating scalar-only callables."""
    try:
        y = np.asarray(f(xs), dtype=float)
    except (TypeError, ValueError):
        y = np.asarray([f(float(x)) for x in xs], dtype=float)
    if y.shape != xs.shape:
        y = np.broadcast_to(np.asarray(y, dtype=float), xs.shape).copy()
    return y


def _evaluate(evaluator: Callable, k: int, xs, what: str) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    V = np.asarray(evaluator(xs), dtype=float)
    if V.shape != (k, xs.size):
        raise ConfigurationError(f"{what} evaluator returned shape {V.shape}, expected {(k, xs.size)}")
    if not np.all(np.isfinite(V)):
        bad_cols = ~np.isfinite(V).all(axis=0)
        x_bad = float(xs[bad_cols][0])
        raise EvaluationError(f"{what} evaluation is non-finite at x={x_bad!r}")
    return V


def basis_matrix(system: ChebyshevSystem, xs) -> np.ndarray:
    """Evaluate all basis functions at the given points.

    Returns the k x n matrix V with V[i, j] = psi_i(xs[j]).
    """
    return _evaluate(system.evaluator, system.k, xs, "basis")


def derivative_matrix(system: ChebyshevSystem, xs) -> np.ndarray:
    """Evaluate d(psi_i)/dx at the given points.

    Uses analytic derivatives when the system carries them, otherwise a
    central finite difference with step 1e-6 * (B - A).
    """
    if system.derivative_evaluator is not None:
        return _evaluate(system.derivative_evaluator, system.k, xs, "derivative")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    fd_step = 1e-6 * system.interval.length
    # Central difference; evaluation may step slightly outside [A, B],
    # which every catalog function tolerates.
    return (basis_matrix(system, xs + fd_step) - basis_matrix(system, xs - fd_step)) / (2.0 * fd_step)


def evaluate_basis(system: ChebyshevSystem, x: float) -> np.ndarray:
    """Return the vector (psi_0(x), ..., psi_{k-1}(x))."""
    slack = _MEMBERSHIP_REL * system.interval.length
    if not system.interval.contains(float(x), slack):
        raise DomainError(
            f"x={x!r} outside [{system.interval.lower}, {system.interval.upper}]"
        )
    return basis_matrix(system, [x])[:, 0]


def _collocation_dets(system: ChebyshevSystem, tuples: np.ndarray):
    """Determinants and indeterminacy flags for a batch of point tuples.

    ``tuples`` has shape (n, k), each row strictly increasing.  The
    collocation matrix of a row t is M[i, j] = psi_i(t[j]).
    """
    n, k = tuples.shape
    V = basis_matrix(system, tuples.ravel())          # (k, n*k)
    mats = np.moveaxis(V.reshape(k, n, k), 1, 0)       # (n, k, k)
    dets = np.linalg.det(mats)
    row_norms = np.linalg.norm(mats, axis=2)           # (n, k)
    scale = np.prod(row_norms, axis=1)
    indeterminate = np.abs(dets) < INDETERMINATE_REL * scale
    return dets, indeterminate


def check_chebyshev(
    system: ChebyshevSystem,
    num_random_tuples: int = DEFAULT_NUM_TUPLES,
    grid_size: int = DEFAULT_GRID_SIZE,
    seed: int = 0,
) -> CheckReport:
    """Sample collocation determinants and look for a sign violation.

    Tuples come from two sources: every run of k consecutive points of an
    equispaced grid, and ``num_random_tuples`` sorted uniform draws.  The
    check is falsifying only: ``verified`` means no decisive determinant
    was nonpositive.  Tuples below the indeterminacy threshold carry no
    sign information and cannot fail the check.
    """
    k = system.k
    if grid_size < k:
        raise ConfigurationError(f"grid_size must be at least k={k}")
    if num_random_tuples < 0:
        raise ConfigurationError("num_random_tuples must be nonnegative")
    a, b = system.interval.lower, system.interval.upper

    grid = np.linspace(a, b, grid_size)
    grid_tuples = sliding_window_view(grid, k).copy()  # (grid_size-k+1, k)

    batches = [grid_tuples]
    if num_random_tuples > 0:
        rng = np.random.default_rng(seed)
        rand = np.sort(rng.uniform(a, b, size=(num_random_tuples, k)), axis=1)
        if k > 1:
            # Degenerate tuples (coincident points) carry no sign information.
            gap = np.min(np.diff(rand, axis=1), axis=1)
            rand = rand[gap > 1e-9 * system.interval.length]
        batches.append(rand)
    tuples = np.vstack(batches)

    dets, indeterminate = _collocation_dets(system, tuples)
    decisive = ~indeterminate
    failing = decisive & (dets <= 0.0)

    witness = None
    if failing.any():
        witness = tuple(float(v) for v in tuples[int(np.argmax(failing))])
    if decisive.any():
        min_det = float(dets[decisive].min())
    else:
        min_det = 0.0
    verified = witness is None
    return CheckReport(
        verified=verified,
        tuples_checked=int(tuples.shape[0]),
        min_determinant=min_det,
        witness=witness,
    )


def augment(system: ChebyshevSystem, omega: Callable) -> ChebyshevSystem:
    """Append omega as the last basis function.

    No determinant check is performed; callers run check_chebyshev on the
    result when they need the property.
    """
    return augment_with(system, lambda xs: np.vstack([system.evaluator(xs), _call_on_array(omega, xs)]))


def augment_with(system: ChebyshevSystem, evaluator: Callable) -> ChebyshevSystem:
    """The system with one more basis function; ``evaluator`` returns all k + 1 rows."""
    name = f"{system.name}+omega" if system.name else "+omega"
    return ChebyshevSystem.from_evaluator(system.interval, system.k + 1, evaluator, name=name)


def monomials(x, k: int) -> np.ndarray:
    """The rows 1, x, ..., x^(k-1), shape (k,) + x.shape."""
    x = np.asarray(x, dtype=float)
    return np.vander(x.ravel(), k, increasing=True).T.reshape((k,) + x.shape)


def monomial_derivatives(x, k: int) -> np.ndarray:
    """The rows 0, 1, 2x, ..., (k-1) x^(k-2), shape (k,) + x.shape."""
    M = monomials(x, k)
    scale = np.arange(1.0, k).reshape((-1,) + (1,) * (M.ndim - 1))
    return np.concatenate([np.zeros_like(M[:1]), scale * M[:-1]])


def polynomial_system(k: int, interval: Interval) -> ChebyshevSystem:
    """The monomial system {1, x, ..., x^(k-1)} with analytic derivatives."""
    if k < 1:
        raise ConfigurationError("k must be positive")
    return ChebyshevSystem.from_evaluator(
        interval, k, lambda xs: monomials(xs, k), lambda xs: monomial_derivatives(xs, k), f"monomials_{k}"
    )
