"""Dense two-phase simplex for small equality-constrained programs.

Solves max/min c.x subject to A x = b, x >= 0, on a dense tableau.
Pivoting is Dantzig's rule with a fallback to Bland's rule under
degenerate stalling, so cycling cannot occur.  Sized for moment
problems: a handful of constraint rows against a few thousand grid
columns.

The reduced costs are the tableau's last row, so a pivot is one BLAS
product E @ T with the (m+1) x (m+1) eta matrix E (the product form of
Dantzig & Orchard-Hays, 1954) in place of m Python-level row updates
over a few thousand columns.  Two buffers take turns as its output, and
E is one identity matrix per solve, filled before each product and
restored after it.

Phase one depends only on (A, b, feas_tol), not on c or the sense, so
``_solve_senses`` runs it once and then phase two for each sense it is
asked for, each but the last on a copy of the phase-one tableau;
``solve_lp`` is its one-sense case.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConvergenceError, InfeasibleError, UnboundedError

PIVOT_TOL = 1e-10
COST_TOL = 1e-9
MAX_PIVOTS = 20000
STALL_LIMIT = 30


@dataclass
class LPResult:
    x: np.ndarray
    value: float
    basis: list
    iterations: int


def _pivot(T: np.ndarray, out: np.ndarray, E: np.ndarray, basis: list, row: int, col: int):
    """Pivot T on (row, col) into ``out`` through the identity E, which is
    restored afterwards; column col of ``out`` is then set to the exact unit
    vector the product gives only to round-off.  Returns (out, T)."""
    E[:, row] = T[:, col] / -T[row, col]
    E[row, row] = 1.0 / T[row, col]
    np.matmul(E, T, out=out)
    E[:, row] = 0.0
    E[row, row] = 1.0
    out[:, col] = 0.0
    out[row, col] = 1.0
    basis[row] = col
    return out, T


def _iterate(T: np.ndarray, buf: np.ndarray, E: np.ndarray, basis: list, ncols: int, cost_scale: float):
    """Pivot over the first ``ncols`` columns to optimality; returns (T, buf, pivots).

    Entering column by Dantzig's most-negative rule while progress is
    made; after STALL_LIMIT consecutive degenerate pivots the rule
    switches to Bland's smallest-index rule, whose termination guarantee
    breaks any cycle.  A strictly improving pivot switches back.
    """
    m = T.shape[0] - 1
    tol = COST_TOL * cost_scale
    count = stall = 0
    while True:
        red = T[m, :ncols]
        if stall < STALL_LIMIT:
            entering = int(red.argmin())
            if red[entering] >= -tol:
                return T, buf, count
        else:
            negative = np.flatnonzero(red < -tol)
            if negative.size == 0:
                return T, buf, count
            entering = int(negative[0])
        # Ratio test; ties resolved by the smallest basic variable index.
        best_ratio = None
        leave = -1
        rhs = T[:m, -1].tolist()
        for i, a in enumerate(T[:m, entering].tolist()):
            if a > PIVOT_TOL:
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
        T, buf = _pivot(T, buf, E, basis, leave, entering)
        count += 1
        if count > MAX_PIVOTS:
            raise ConvergenceError("simplex pivot limit exceeded")


def _phase_one(A: np.ndarray, b: np.ndarray, feas_tol: float):
    """Phase one on the sign-normalized (A, b >= 0); returns the tableau
    (T, buf, E, basis, pivots) with every artificial driven out of the
    basis, or its row deleted as redundant, for phase two to price."""
    m, n = A.shape
    # [A | I | b] over the reduced costs of the artificials' sum.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, -1], T[m, :n], T[m, -1] = A, b, -A.sum(axis=0), -b.sum()
    T[:m, n:-1] = np.eye(m)
    basis = list(range(n, n + m))
    E = np.eye(m + 1)
    T, buf, iters = _iterate(T, np.empty_like(T), E, basis, n + m, 1.0)

    # Objective of phase one = sum of the artificial basic values.
    phase1 = float(sum(T[i, -1] for i in range(m) if basis[i] >= n))
    if phase1 > feas_tol:
        raise InfeasibleError(
            f"no nonnegative solution matches the constraints (residual {phase1:.3e})"
        )

    # Drive remaining artificials out of the basis; an all-zero structural
    # row is a redundant constraint and is deleted.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            nonzero = np.flatnonzero(np.abs(T[i, :n]) > PIVOT_TOL)
            if nonzero.size == 0:
                continue
            T, buf = _pivot(T, buf, E, basis, i, int(nonzero[0]))
        keep.append(i)
    if len(keep) < m:
        T = T[keep + [m]]
        buf, E, basis = np.empty_like(T), np.eye(len(keep) + 1), [basis[i] for i in keep]
    return T, buf, E, basis, iters


def _phase_two(tableau, A: np.ndarray, b: np.ndarray, c: np.ndarray, sense: str, feas_tol: float) -> LPResult:
    """Optimize c.x in ``sense`` from the phase-one ``tableau``, which it
    overwrites, and check the vertex against A x = b and x >= 0."""
    T, buf, E, basis, iters = tableau
    m, n = T.shape[0] - 1, A.shape[1]
    cmin = -c if sense == "max" else c
    # Structural columns only are priced; artificials stay but never re-enter.
    T[m, :n], T[m, n:] = cmin, 0.0
    T[m] -= cmin[basis] @ T[:m]
    cost_scale = max(1.0, float(np.abs(cmin).max()))
    T, _, count = _iterate(T, buf, E, basis, n, cost_scale)

    x = np.zeros(n)
    x[basis] = T[:m, -1]
    residual = float(np.abs(A @ x - b).max()) if m else 0.0
    if residual > 10.0 * feas_tol:
        raise ConvergenceError(f"simplex solution drifted, residual {residual:.3e}")
    if x.min() < -feas_tol:
        raise ConvergenceError(f"simplex vertex is negative: x[{x.argmin()}] = {x.min():.3e}")
    return LPResult(x=x, value=float(c @ x), basis=basis, iterations=iters + count)


def _solve_senses(A, b, c, senses, feas_tol: float | None = None) -> list:
    """``solve_lp`` once per sense in ``senses``, in order, on one phase
    one: a list of LPResult, each equal to its own ``solve_lp`` call.  The
    first sense to fail raises its error, as its ``solve_lp`` call would."""
    A = np.array(A, dtype=float, order="C")
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    if A.ndim != 2 or b.shape != A.shape[:1] or c.shape != A.shape[1:]:
        raise ConfigurationError(f"inconsistent LP dimensions: A {A.shape}, b {b.shape}, c {c.shape}")
    for sense in senses:
        if sense not in ("max", "min"):
            raise ConfigurationError(f"sense must be 'max' or 'min', got {sense!r}")
    if A.shape[1] == 0:
        raise ConfigurationError(f"an LP needs at least one column, got A {A.shape}")
    for name, array in (("A", A), ("b", b), ("c", c)):
        if not np.isfinite(array).all():
            raise ConfigurationError(f"LP {name} has a non-finite entry")
    if feas_tol is None:
        feas_tol = 1e-8 * max(1.0, float(np.abs(b).max(initial=0.0)))
    elif isinstance(feas_tol, bool) or not isinstance(feas_tol, numbers.Real):
        raise ConfigurationError(f"feas_tol must be a real number, got {type(feas_tol).__name__}")
    elif not (math.isfinite(feas_tol) and feas_tol >= 0.0):
        raise ConfigurationError(f"feas_tol must be finite and nonnegative, got {feas_tol!r}")

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    T, buf, E, basis, iters = _phase_one(A, b, feas_tol)
    results = [
        _phase_two((T.copy(), np.empty_like(T), E, list(basis), iters), A, b, c, sense, feas_tol)
        for sense in senses[:-1]
    ]
    results.append(_phase_two((T, buf, E, basis, iters), A, b, c, senses[-1], feas_tol))
    return results


def solve_lp(A, b, c, sense: str = "max", feas_tol: float | None = None) -> LPResult:
    """Optimize c.x over {A x = b, x >= 0}.

    Phase one minimizes the sum of artificial variables; a residual above
    ``feas_tol`` (default 1e-8 relative to max|b|, 1e-8 when there is no
    row) raises InfeasibleError.  Redundant constraint rows discovered
    while driving artificials out are dropped.  A final vertex that misses
    A x = b by more than 10 feas_tol, or has a component below -feas_tol,
    raises ConvergenceError.  ConfigurationError refuses shapes of A, b
    and c that do not fit, an A without columns, a non-finite entry of A,
    b or c, a ``feas_tol`` that is not a real number (a bool included) or
    is non-finite or negative, and a sense other than "max" and "min".
    """
    return _solve_senses(A, b, c, (sense,), feas_tol)[0]
