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

import functools
import math
import numbers
import operator
from dataclasses import dataclass
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
# Tuple samples kept per (interval, k, grid_size, num_random_tuples, seed)
# key.  A sample holds (grid_size - k + 1 + num_random_tuples) k-tuples of
# float64, so at the defaults one takes at most 20,096 k bytes.
SAMPLE_CACHE_SIZE = 16

# Slack used when testing membership of a point in the interval, relative
# to the interval length.  Guards against round-off on endpoint arithmetic.
_MEMBERSHIP_REL = 1e-12


@dataclass(frozen=True)
class Interval:
    """Compact interval [lower, upper], endpoints by ``check_real``, of finite length."""

    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "lower", check_real(self.lower, "interval lower"))
        object.__setattr__(self, "upper", check_real(self.upper, "interval upper"))
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"interval requires lower < upper, got [{self.lower}, {self.upper}]"
            )
        if not math.isfinite(self.length):
            raise ConfigurationError(
                f"interval length overflows double precision: [{self.lower}, {self.upper}]"
            )

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= x <= self.upper + slack


@dataclass(frozen=True)
class ChebyshevSystem:
    """Ordered basis psi_0, ..., psi_{k-1} on an interval, evaluated as a whole.

    ``evaluator`` maps a float ndarray of n points to the (k, n) basis
    values, and ``derivative_evaluator`` (None: finite differences) to
    those of d(psi_i)/dx.  The regression pipeline and the principal
    representations need psi_0 identically 1.
    """

    interval: Interval
    k: int
    evaluator: Callable
    derivative_evaluator: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        check_interval(self.interval, "system interval")
        if check_count(self.k, "k") < 1:
            raise ConfigurationError("a system needs at least one basis function")

    @classmethod
    def from_functions(cls, interval, basis, derivatives=None, name="") -> "ChebyshevSystem":
        """The system of one callable per psi_i, and per d(psi_i)/dx if given:
        each maps a float ndarray to one of its shape or to a scalar, or is
        called point by point if it rejects arrays."""
        basis = tuple(basis)
        if derivatives is not None:
            derivatives = tuple(derivatives)
            if len(derivatives) != len(basis):
                raise ConfigurationError("derivatives must match the basis in length")
            derivatives = _stacked(derivatives, "derivatives")
        return cls(interval, len(basis), _stacked(basis, "basis"), derivatives, name)


def _stacked(fs: Tuple[Callable, ...], name: str) -> Callable:
    """The evaluator of the rows f(xs), f in fs: the one place where a
    function argument, here ``name``, is checked to be callable."""
    for f in fs:
        if not callable(f):
            raise ConfigurationError(f"{name} must be callable, got {type(f).__name__}")
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


# Decorating costs about a third of a with np.errstate block per call.
@np.errstate(over="raise", divide="raise", invalid="raise")
def _evaluate(evaluator: Callable, k: int, xs, what: str, *args) -> np.ndarray:
    """The (k, n) values evaluator(xs, *args) at the n points xs: every
    function value the library reads passes here.  A floating-point error,
    an ArithmeticError or ValueError of the callable, or a non-finite value
    raises EvaluationError naming ``what``; a wrong shape, ConfigurationError."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    try:
        V = np.asarray(evaluator(xs, *args), dtype=float)
    except (ArithmeticError, ValueError) as err:
        raise EvaluationError(f"{what} evaluation: {err}") from err
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
    fd_step = 1e-6 * system.interval.length
    # Central difference; evaluation may step slightly outside [A, B],
    # which every catalog function tolerates.
    evaluator = system.derivative_evaluator or (
        lambda x: (basis_matrix(system, x + fd_step) - basis_matrix(system, x - fd_step)) / (2.0 * fd_step)
    )
    return _evaluate(evaluator, system.k, xs, "derivative")


def evaluate_basis(system: ChebyshevSystem, x: float) -> np.ndarray:
    """Return the vector (psi_0(x), ..., psi_{k-1}(x)); x passes
    ``check_real``, and a point outside the interval raises DomainError."""
    x = check_real(x, "x")
    slack = _MEMBERSHIP_REL * system.interval.length
    if not system.interval.contains(x, slack):
        raise DomainError(
            f"x={x!r} outside [{system.interval.lower}, {system.interval.upper}]"
        )
    return basis_matrix(system, [x])[:, 0]


@functools.lru_cache(maxsize=SAMPLE_CACHE_SIZE)
def _memo_tuples(bounds: bytes, k: int, grid_size: int, num_random_tuples: int, seed: int) -> np.ndarray:
    """Every run of k consecutive points of an equispaced grid, then the
    sorted uniform draws whose points are more than 1e-9 (b - a) apart;
    memoised and read-only.  The endpoints are keyed by their bytes,
    which tell 0.0 from -0.0 where floats do not."""
    a, b = np.frombuffer(bounds).tolist()
    batches = [sliding_window_view(np.linspace(a, b, grid_size), k)]
    if num_random_tuples > 0:
        rng = np.random.default_rng(seed)
        rand = np.sort(rng.uniform(a, b, size=(num_random_tuples, k)), axis=1)
        if k > 1:
            # Degenerate tuples (coincident points) carry no sign information.
            gap = np.min(np.diff(rand, axis=1), axis=1)
            rand = rand[gap > 1e-9 * (b - a)]
        batches.append(rand)
    tuples = np.vstack(batches)
    tuples.flags.writeable = False
    return tuples


def check_count(value, name: str, minimum: Optional[int] = None) -> int:
    """The value as an ``int``, numpy integers included and bools not, of
    at least ``minimum`` when one is given, or ConfigurationError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {type(value).__name__}") from None
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be at least {minimum}, got {value}")
    return value


def check_real(value, name: str) -> float:
    """The value as a float: a real number, numpy's included, that is
    neither a bool nor non-finite, or ConfigurationError ("{name} must be a
    real number, got str", "{name} must be finite, got nan")."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(f"{name} must be a real number, got {type(value).__name__}")
        value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def check_reals(values, name: str) -> np.ndarray:
    """The values, a number or a (nested) sequence or array of them, as a new C-ordered
    float ndarray of their shape when every entry passes ``check_real``, or its
    error naming the first bad entry, "{name}[i]" ("{name}[i, j]", ...)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        if np.isfinite(out := values.astype(float, order="C")).all():
            return out
    elif type(values) in (tuple, list) and all(isinstance(v, float) and math.isfinite(v) for v in values):
        return np.array(values, dtype=float)
    entries = np.array(values, dtype=object)
    for i, v in enumerate(entries.flat):
        if not (isinstance(v, float) and math.isfinite(v)):
            index = ", ".join(map(str, np.unravel_index(i, entries.shape)))
            check_real(v, f"{name}[{index}]" if entries.ndim else name)
    return entries.astype(float)


def check_interval(value, name: str) -> None:
    """Refuse a value that is not an ``Interval`` with ConfigurationError."""
    if not isinstance(value, Interval):
        raise ConfigurationError(f"{name} must be an Interval, got {type(value).__name__}")


def _sample(interval: Interval, k: int, grid_size: int, num_random_tuples: int, seed) -> np.ndarray:
    bounds = np.array([interval.lower, interval.upper]).tobytes()
    return _memo_tuples(
        bounds, k, check_count(grid_size, "grid_size", k),
        check_count(num_random_tuples, "num_random_tuples", 0), check_count(seed, "seed", 0),
    )


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The norms |V[i, t, :]| of the rows i of the matrix of each tuple t."""
    return np.sqrt(np.einsum("itj,itj->it", V, V))


def _verdict(tuples: np.ndarray, values: np.ndarray, scale: np.ndarray):
    """The CheckReport on one value per tuple, and the witness's index.

    A value below INDETERMINATE_REL times the ``scale`` of its tuple, the
    product of the row norms of the matrix whose determinant it is, is
    indeterminate.  The witness is the first decisive nonpositive value,
    and its index is None when there is none.
    """
    decisive = ~(np.abs(values) < INDETERMINATE_REL * scale)
    failing = decisive & (values <= 0.0)
    index = int(np.argmax(failing)) if failing.any() else None
    witness = None if index is None else tuple(float(v) for v in tuples[index])
    min_det = float(values[decisive].min()) if decisive.any() else 0.0
    return CheckReport(witness is None, int(tuples.shape[0]), min_det, witness), index


class _typed_overflow(np.errstate):
    """A block in which overflow or invalid arithmetic (not underflow) raises
    EvaluationError naming ``what``.  Every ``information_matrix`` call runs
    one, so it is a class: a generator-based context manager costs more."""

    def __init__(self, what: str):
        super().__init__(over="raise", invalid="raise")
        self.what = what

    def __exit__(self, kind, err, tb):
        super().__exit__(kind, err, tb)
        if isinstance(err, FloatingPointError):
            raise EvaluationError(f"{self.what}: {err}") from err


def _collocation_verdict(tuples: np.ndarray, V: np.ndarray) -> CheckReport:
    """The CheckReport on det V[:, t, :] per tuple t, V[i, t, j] = psi_i(t_j)."""
    return _verdict(tuples, np.linalg.det(np.moveaxis(V, 1, 0)), _row_norms(V).prod(axis=0))[0]


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

    The sample does not depend on the functions, so it is drawn once per
    (interval, k, grid_size, num_random_tuples, seed) key and kept for the
    last ``SAMPLE_CACHE_SIZE`` keys (about 2.6 MB at k = 8 and the default
    sizes).  ``seed`` is a nonnegative integer, numpy integers included;
    anything else, such as a ``np.random.Generator``, raises
    ConfigurationError.
    """
    k = system.k
    tuples = _sample(system.interval, k, grid_size, num_random_tuples, seed)
    with _typed_overflow("collocation determinants"):
        return _collocation_verdict(tuples, basis_matrix(system, tuples.ravel()).reshape(k, -1, k))


def check_gate(system: ChebyshevSystem, evaluator: Callable, p1: int, sign: float, seed: int):
    """Check the system, and its extension by sign * (Q . g)^2 for every
    nonzero Q, on one sample: ``check_chebyshev``'s default (k + 1)-tuples.

    ``evaluator`` maps n points to the (k + p1, n) stack of the system's
    basis values over p1 functions g, and runs once.  The base report
    judges the leading k x k block of each collocation matrix, the system
    on the tuple's first k points, by ``check_chebyshev``'s rule; its
    witness is a k-tuple.  The last row enters the determinant linearly:

        det [psi(t); sign * (Q . g(t))^2] = sign * Q^T D(t) Q,
        D_ab(t) = det [psi(t); g_a(t) g_b(t)],

    so the extension holds for every Q exactly when sign * D(t) is
    positive definite.  lambda_min(sign * D(t)) is judged as a
    determinant at the row scale of the matrix whose last row is |g|^2,
    which bounds every unit Q's; at p1 = 1 the augmented report is
    ``check_chebyshev``'s on the one augmented system.  Returns (base,
    augmented, Q), Q the unit eigenvector of lambda_min at the augmented
    witness with its largest component positive, or None on a pass.
    """
    k = system.k
    tuples = _sample(system.interval, k + 1, DEFAULT_GRID_SIZE, DEFAULT_NUM_TUPLES, seed)
    n = tuples.shape[0]
    W = _evaluate(evaluator, k + p1, tuples.ravel(), "augmented").reshape(k + p1, n, k + 1)
    psi, g = W[:k], W[k:]
    a, b = np.triu_indices(p1)
    M = np.empty((a.size, k + 1, n, k + 1))  # M[pair, i, t, j], one pair a <= b per last row
    M[:, :k] = psi
    D = np.empty((n, p1, p1))
    with _typed_overflow("determinant gate"):
        base = _collocation_verdict(tuples[:, :k], psi[:, :, :k])
        M[:, k] = g[a] * g[b]
        D[:, a, b] = D[:, b, a] = sign * np.linalg.det(M.transpose(2, 0, 1, 3))
        lam, vecs = np.linalg.eigh(D)
        scale = _row_norms(psi).prod(axis=0) * _row_norms((g * g).sum(axis=0)[None])[0]
        report, index = _verdict(tuples, lam[:, 0], scale)
    if index is None:
        return base, report, None
    Q = vecs[index, :, 0]
    Q = Q if Q[np.argmax(np.abs(Q))] > 0.0 else -Q
    return base, report, tuple(float(v) for v in Q)


def augment(system: ChebyshevSystem, omega: Callable) -> ChebyshevSystem:
    """Append omega as the last basis function.

    No determinant check is performed; callers run check_chebyshev on the
    result when they need the property.
    """
    name = f"{system.name}+omega" if system.name else "+omega"
    row = _stacked((omega,), "omega")
    return ChebyshevSystem(
        system.interval, system.k + 1, lambda xs: np.vstack([system.evaluator(xs), row(xs)]), name=name
    )


def monomials(x, k: int) -> np.ndarray:
    """The rows 1, x, ..., x^(k-1), shape (k,) + x.shape.

    Row i is row i - 1 times x, the product order of ``np.vander``, and
    the rows are laid out point by point as its transpose is, so values
    and matrix products downstream equal its bit for bit.  One product per
    row runs about three times faster on the LP grid than its
    accumulation along each point's short row.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    M = np.empty((flat.size, k)).T
    M[0] = 1.0
    if k > 1:
        M[1] = flat
    for i in range(2, k):
        np.multiply(M[i - 1], flat, out=M[i])
    return M.reshape((k,) + x.shape)


def monomial_derivatives(x, k: int) -> np.ndarray:
    """The rows 0, 1, 2x, ..., (k-1) x^(k-2), shape (k,) + x.shape."""
    M = monomials(x, k)
    scale = np.arange(1.0, k).reshape((-1,) + (1,) * (M.ndim - 1))
    return np.concatenate([np.zeros_like(M[:1]), scale * M[:-1]])


def polynomial_system(k: int, interval: Interval) -> ChebyshevSystem:
    """The monomial system {1, x, ..., x^(k-1)} with analytic derivatives."""
    return ChebyshevSystem(
        interval, k, lambda xs: monomials(xs, k), lambda xs: monomial_derivatives(xs, k), f"monomials_{k}"
    )
