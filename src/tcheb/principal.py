"""Upper and lower principal representations of moment points.

An interior moment point of a k-function Chebyshev system has exactly
one representing measure of index k/2 containing the endpoint B (the
upper principal representation, which also contains A when k is even)
and exactly one avoiding B (the lower one, which contains A when k is
odd and avoids both endpoints when k is even).  Among all measures
sharing the moment point these two extremize the integral of any
function Omega that augments the system to a Chebyshev system, the
upper one maximizing and the lower one minimizing, and the measures do
not depend on which valid Omega is used.

The solver is one path.  A finite linear program on an equispaced grid
locates the support approximately (an optimal basic solution of a
moment LP carries at most k atoms).  Its atoms, plain (point, weight)
pairs, merge where discretization split one support point, take the
shape the structure fixed by k and the direction prescribes, and seed a
damped Newton iteration on the exact moment-matching equations, which
removes the grid bias.  Only the returned representation becomes a
``Design``, and it must match every moment to 1e-9 relative; there is no
unrefined fallback.  A boundary moment point, whose merged LP atoms are
fewer than the structure wants, is returned unrefined only when its
atoms meet that same gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .chebyshev import ChebyshevSystem, Interval, basis_matrix, derivative_matrix, _call_on_array
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegeneracyError,
    EvaluationError,
    SingularityError,
)
from .moments import Atom, Design, MomentPoint, merge_pair, merge_runs
from .simplex import solve_lp

DEFAULT_GRID = 2001
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50
# Grid atoms closer than this many grid spacings are one true support
# point split by discretization.
CLUSTER_SPACINGS = 3.0


@dataclass(frozen=True)
class RepresentationStructure:
    """Support count and endpoint membership of a principal representation."""

    num_points: int
    includes_A: bool
    includes_B: bool

    @staticmethod
    def upper(k: int) -> "RepresentationStructure":
        if k % 2 == 0:
            return RepresentationStructure(k // 2 + 1, True, True)
        return RepresentationStructure((k + 1) // 2, False, True)

    @staticmethod
    def lower(k: int) -> "RepresentationStructure":
        if k % 2 == 0:
            return RepresentationStructure(k // 2, False, False)
        return RepresentationStructure((k + 1) // 2, True, False)

    @property
    def interior_points(self) -> int:
        return self.num_points - int(self.includes_A) - int(self.includes_B)

    @property
    def free_unknowns(self) -> int:
        return self.interior_points + self.num_points


@dataclass(frozen=True)
class PrincipalResult:
    design: Design
    residual_norm: float
    lp_objective: float
    newton_iterations: int
    structure: RepresentationStructure


def _as_objective_values(objective: Callable, grid: np.ndarray) -> np.ndarray:
    vals = _call_on_array(objective, grid)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("objective evaluation is non-finite on the grid")
    return vals


def grid_lp_extremum(
    system: ChebyshevSystem,
    c0: MomentPoint,
    objective: Callable,
    sense: str = "max",
    grid_size: int = DEFAULT_GRID,
    feas_tol: Optional[float] = None,
):
    """Extremize the objective moment over grid measures matching c0.

    Solves, by a dense two-phase simplex (Dantzig's rule with a Bland
    fallback), the program

        max/min  sum_g w_g * objective(x_g)
        s.t.     sum_g w_g * psi_i(x_g) = c_i   for i = 0..k-1,
                 w >= 0

    on an equispaced grid of the interval.  Returns the optimal value and
    the atoms: the (point, weight) pairs of the grid points whose weight
    is above 1e-14, in increasing order, at most k of them.  The atoms are
    a warm start, not a validated design; their weights need not sum to 1
    exactly.  A vertex that misses the moments or has a weight below
    -feas_tol raises ConvergenceError (see ``solve_lp``).
    """
    k = system.k
    if c0.k != k:
        raise ConfigurationError("moment point dimension does not match the system")
    if grid_size < 2 * k + 1:
        raise ConfigurationError(f"grid_size must be at least 2k+1 = {2 * k + 1}")
    a, b = system.interval.lower, system.interval.upper
    grid = np.linspace(a, b, grid_size)
    V = basis_matrix(system, grid)
    obj = _as_objective_values(objective, grid)
    result = solve_lp(V, c0.array(), obj, sense=sense, feas_tol=feas_tol)
    pos = result.x > 1e-14
    return float(result.value), list(zip(grid[pos].tolist(), result.x[pos].tolist()))


def refine_newton(
    system: ChebyshevSystem,
    c0: MomentPoint,
    structure: RepresentationStructure,
    initial: Sequence[Atom],
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> PrincipalResult:
    """Newton iteration on the moment-matching equations.

    ``initial`` holds the starting (point, weight) atoms in increasing
    order, with the structure's count and endpoint membership.  Unknowns
    are the interior support points and all weights, exactly k of them by
    the structure invariant.  The residual is

        F(t, w)_i = sum_j w_j psi_i(t_j) - c_i .

    Steps are damped to keep the points strictly ordered inside the
    interval and the weights positive, and must not increase the
    residual norm.  Success means ||F||_inf <= tol * max(1, ||c0||_inf).
    """
    k = system.k
    a, b = system.interval.lower, system.interval.upper
    if structure.free_unknowns != k:
        raise ConfigurationError("structure unknowns do not match the system dimension")
    if len(initial) != structure.num_points:
        raise ConfigurationError(
            f"initial support has {len(initial)} atoms, structure wants {structure.num_points}"
        )
    points, w = (np.array(v, dtype=float) for v in zip(*initial))
    if structure.includes_A != (points[0] == a) or structure.includes_B != (points[-1] == b):
        raise ConfigurationError("initial support endpoint membership violates the structure")

    lo = 1 if structure.includes_A else 0
    hi = points.size - (1 if structure.includes_B else 0)
    t_int = points[lo:hi]
    ni = t_int.size
    c = c0.array()
    scale = max(1.0, float(np.abs(c).max()))
    gap_min = 1e-13 * system.interval.length

    def full_points(ts: np.ndarray) -> np.ndarray:
        parts = []
        if structure.includes_A:
            parts.append([a])
        parts.append(ts)
        if structure.includes_B:
            parts.append([b])
        return np.concatenate(parts)

    def feasible(ts: np.ndarray, ws: np.ndarray) -> bool:
        if np.any(ws <= 0.0):
            return False
        pts = full_points(ts)
        if pts[0] < a or pts[-1] > b:
            return False
        return bool(np.all(np.diff(pts) > gap_min))

    def residual(ts: np.ndarray, ws: np.ndarray) -> np.ndarray:
        return basis_matrix(system, full_points(ts)) @ ws - c

    F = residual(t_int, w)
    res = float(np.abs(F).max())
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if res <= tol * scale:
            break
        pts = full_points(t_int)
        V = basis_matrix(system, pts)
        J = np.empty((k, k))
        if ni:
            dV = derivative_matrix(system, t_int)
            for j in range(ni):
                J[:, j] = w[lo + j] * dV[:, j]
        J[:, ni:] = V
        try:
            if np.linalg.cond(J) > 1e14:
                raise SingularityError(
                    "moment Jacobian is numerically singular; the moment point "
                    "is degenerate for this structure"
                )
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as err:
            raise SingularityError(f"moment Jacobian not solvable: {err}") from err

        alpha = 1.0
        accepted = False
        while alpha >= 1e-12:
            t_new = t_int + alpha * step[:ni]
            w_new = w + alpha * step[ni:]
            if feasible(t_new, w_new):
                F_new = residual(t_new, w_new)
                res_new = float(np.abs(F_new).max())
                if res_new <= res * (1.0 - 1e-4 * alpha) or res_new <= tol * scale:
                    t_int, w, F, res = t_new, w_new, F_new, res_new
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"newton step stalled at residual {res:.3e}", residual=res
            )
    if res > tol * scale:
        raise ConvergenceError(
            f"newton did not reach tolerance, residual {res:.3e}", residual=res
        )

    design = Design(
        points=tuple(float(x) for x in full_points(t_int)),
        weights=tuple(float(v) for v in w),
        interval=system.interval,
    )
    return PrincipalResult(
        design=design,
        residual_norm=res,
        lp_objective=float("nan"),
        newton_iterations=iterations,
        structure=structure,
    )


def default_probe(system: ChebyshevSystem) -> Callable:
    """Probe objective psi_{k-1}(x) * (x - A) / (B - A).

    For the regression systems in the catalog this coincides, up to a
    positive factor, with the quadratic-form augmentation of the
    complete-class argument, so the LP optimizer lands directly on the
    principal support.
    """
    last = system.basis[-1]
    a = system.interval.lower
    length = system.interval.length

    def probe(x):
        x = np.asarray(x, dtype=float)
        return _call_on_array(last, x) * (x - a) / length

    probe.__name__ = "psi_last_scaled_identity"
    return probe


def _monomial_probe(k: int) -> Callable:
    def probe(x):
        return np.asarray(x, dtype=float) ** k

    probe.__name__ = f"x_power_{k}"
    return probe


def check_structure(
    points: Sequence[float], interval: Interval, structure: RepresentationStructure, which: str
) -> None:
    """Refuse a support that breaks the principal structure."""
    a, b = interval.lower, interval.upper
    got = (len(points), points[0] == a, points[-1] == b)
    want = (structure.num_points, structure.includes_A, structure.includes_B)
    if got != want:
        raise DegeneracyError(
            f"the {which} representation has {got[0]} points (A: {got[1]}, B: {got[2]}); "
            f"its structure wants {want[0]} (A: {want[1]}, B: {want[2]})"
        )


def _shape_to_structure(
    atoms: List[Atom],
    structure: RepresentationStructure,
    tol: float,
    interval: Interval,
    which: str,
) -> List[Atom]:
    """Coerce LP atoms onto the structure, or raise DegeneracyError.

    An end atom within 10 * tol of an endpoint the structure contains
    snaps onto it, and the closest pairs merge until the count fits.
    Neither step moves an atom onto or off an endpoint otherwise.
    """
    a, b = interval.lower, interval.upper
    pts = [p for p, _ in atoms]
    ws = [w for _, w in atoms]
    if structure.includes_B and b - pts[-1] <= 10.0 * tol:
        pts[-1] = b
    if structure.includes_A and pts[0] - a <= 10.0 * tol:
        pts[0] = a
    while len(pts) > structure.num_points:
        i = int(np.argmin(np.diff(pts)))
        keep, weight = merge_pair((pts[i], ws[i]), (pts[i + 1], ws[i + 1]), a, b)
        pts[i : i + 2], ws[i : i + 2] = [keep], [weight]
    check_structure(pts, interval, structure, which)
    return list(zip(pts, ws))


def _gated_residual(system: ChebyshevSystem, c0: MomentPoint, points, weights) -> Optional[float]:
    """max_i |V w - c|_i, or None when a coordinate misses the gate
    |V w - c|_i <= 1e-9 * max(1, |c_i|) that every returned
    representation meets."""
    c = c0.array()
    gap = np.abs(basis_matrix(system, np.asarray(points, float)) @ np.asarray(weights, float) - c)
    if np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(c))):
        return float(gap.max())
    return None


def _principal(
    system: ChebyshevSystem,
    c0: MomentPoint,
    which: str,
    probe: Optional[Callable],
    grid_size: int,
    newton_tol: float,
) -> PrincipalResult:
    k = system.k
    interval = system.interval
    structure = (
        RepresentationStructure.upper(k) if which == "upper" else RepresentationStructure.lower(k)
    )
    sense = "max" if which == "upper" else "min"
    probes = [probe] if probe is not None else [default_probe(system), _monomial_probe(k)]
    cluster_tol = CLUSTER_SPACINGS * interval.length / (grid_size - 1)

    for omega in probes:
        value, atoms = grid_lp_extremum(system, c0, omega, sense=sense, grid_size=grid_size)
        merged = merge_runs(atoms, cluster_tol, interval.lower, interval.upper)
        if len(merged) < structure.num_points:
            # Degenerate (boundary) moment point: its representation is
            # unique with fewer atoms than the interior structure, and
            # the Newton system below would be singular.
            points, weights = zip(*merged)
            resid = _gated_residual(system, c0, points, weights)
            if resid is not None:
                design = Design(points=points, weights=weights, interval=interval)
                return PrincipalResult(design, resid, value, 0, structure)
        try:
            shaped = _shape_to_structure(merged, structure, cluster_tol, interval, which)
            result = refine_newton(system, c0, structure, shaped, newton_tol)
        except (ConvergenceError, DegeneracyError, SingularityError) as err:
            last_error = err
            continue
        out = result.design
        if _gated_residual(system, c0, out.points, out.weights) is not None:
            return replace(result, lp_objective=value)
        last_error = ConvergenceError(
            "refined design drifted off the moment point", residual=result.residual_norm
        )
    raise last_error


def upper_principal(
    system: ChebyshevSystem,
    c0: MomentPoint,
    probe: Optional[Callable] = None,
    grid_size: int = DEFAULT_GRID,
    newton_tol: float = NEWTON_TOL,
) -> PrincipalResult:
    """The representing measure maximizing every valid probe moment.

    Contains B among its support points, and A as well when k is even.
    """
    return _principal(system, c0, "upper", probe, grid_size, newton_tol)


def lower_principal(
    system: ChebyshevSystem,
    c0: MomentPoint,
    probe: Optional[Callable] = None,
    grid_size: int = DEFAULT_GRID,
    newton_tol: float = NEWTON_TOL,
) -> PrincipalResult:
    """The representing measure minimizing every valid probe moment.

    Avoids B; contains A when k is odd and avoids both endpoints when k
    is even.
    """
    return _principal(system, c0, "lower", probe, grid_size, newton_tol)
