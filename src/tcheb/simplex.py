"""Dense two-phase simplex for small equality-constrained programs.

Solves max/min c.x subject to A x = b, x >= 0, on a dense tableau.
Pivoting is Dantzig's rule with a fallback to Bland's rule under
degenerate stalling, so cycling cannot occur.  Sized for moment
problems: a handful of constraint rows against a few thousand grid
columns.

The reduced costs are the tableau's last row, so a pivot is one BLAS
product E @ T with the (m+1) x (m+1) eta matrix E (the product form of
Dantzig & Orchard-Hays, 1954) in place of m Python-level row updates
over a few thousand columns.  Two buffers take turns as its output.
"""

from __future__ import annotations

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


def _pivot(T: np.ndarray, out: np.ndarray, basis: list, row: int, col: int):
    """Pivot T on (row, col) into ``out``, whose column col is then set to the
    exact unit vector the product gives only to round-off; returns (out, T)."""
    E = np.eye(T.shape[0])
    E[:, row] = T[:, col] / -T[row, col]
    E[row, row] = 1.0 / T[row, col]
    np.matmul(E, T, out=out)
    out[:, col] = 0.0
    out[row, col] = 1.0
    basis[row] = col
    return out, T


def _iterate(T: np.ndarray, buf: np.ndarray, basis: list, ncols: int, cost_scale: float):
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
        T, buf = _pivot(T, buf, basis, leave, entering)
        count += 1
        if count > MAX_PIVOTS:
            raise ConvergenceError("simplex pivot limit exceeded")


def solve_lp(A, b, c, sense: str = "max", feas_tol: float | None = None) -> LPResult:
    """Optimize c.x over {A x = b, x >= 0}.

    Phase one minimizes the sum of artificial variables; a residual above
    ``feas_tol`` (default 1e-8 relative to max|b|) raises InfeasibleError.
    Redundant constraint rows discovered while driving artificials out are
    dropped.  A final vertex that misses A x = b by more than 10 feas_tol,
    or has a component below -feas_tol, raises ConvergenceError.  Shapes of
    A, b and c that do not fit, or a sense other than "max" and "min",
    raise ConfigurationError.
    """
    A = np.array(A, dtype=float, order="C")
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    if A.ndim != 2 or b.shape != A.shape[:1] or c.shape != A.shape[1:]:
        raise ConfigurationError(f"inconsistent LP dimensions: A {A.shape}, b {b.shape}, c {c.shape}")
    if sense not in ("max", "min"):
        raise ConfigurationError(f"sense must be 'max' or 'min', got {sense!r}")
    m, n = A.shape
    if feas_tol is None:
        feas_tol = 1e-8 * max(1.0, float(np.abs(b).max()))
    cmin = -c if sense == "max" else c.copy()

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase one tableau: [A | I | b] over the reduced costs of the artificials' sum.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, -1], T[m, :n], T[m, -1] = A, b, -A.sum(axis=0), -b.sum()
    T[:m, n:-1] = np.eye(m)
    basis = list(range(n, n + m))
    T, buf, iters = _iterate(T, np.empty_like(T), basis, n + m, 1.0)

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
            T, buf = _pivot(T, buf, basis, i, int(nonzero[0]))
        keep.append(i)
    if len(keep) < m:
        T = T[keep + [m]]
        buf, basis, m = np.empty_like(T), [basis[i] for i in keep], len(keep)

    # Phase two prices structural columns only; artificials stay but never re-enter.
    T[m, :n], T[m, n:] = cmin, 0.0
    T[m] -= cmin[basis] @ T[:m]
    cost_scale = max(1.0, float(np.abs(cmin).max()) if n else 1.0)
    T, _, count = _iterate(T, buf, basis, n, cost_scale)

    x = np.zeros(n)
    x[basis] = T[:m, -1]
    residual = float(np.abs(A @ x - b).max()) if m else 0.0
    if residual > 10.0 * feas_tol:
        raise ConvergenceError(f"simplex solution drifted, residual {residual:.3e}")
    if n and x.min() < -feas_tol:
        raise ConvergenceError(f"simplex vertex is negative: x[{x.argmin()}] = {x.min():.3e}")
    return LPResult(x=x, value=float(c @ x), basis=basis, iterations=iters + count)
