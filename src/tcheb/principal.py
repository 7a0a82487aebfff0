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

With no probe, ``upper_principal``, ``lower_principal`` and
``reduce_design`` share one solver, ``_represent``, which starts Newton
from an LP-free seed (``_seeded``), in this order:

1. on a system whose evaluator is a ``_Monomials``, as
   ``polynomial_system``'s is, and a psi system's whose values
   ``models.psi_system`` finds to be the monomials (the catalog
   ``polynomial``'s), c0's Gauss, Radau or Lobatto rule (``_gauss_rule``),
   which is that representation up to round-off: within 6.1e-16 of a
   50-digit reference at k <= 8 on [-1, 1];
2. at k = 3, the one interior point as a scalar root on the LP grid
   (``_root_seed``);
3. the LP path below.

A seed is a numerical choice only: an interior c0 has exactly one
representation of each structure, which the moment equations and
``_result``'s gate fix whatever the seed.  No seed, a Newton failure from it, or a result with a weight at most
``ROUNDOFF_WEIGHT`` falls back to the LP path, so every error raised is
that path's.  ``PrincipalResult.path`` records the path taken, and
``reduce_design`` hands a Gauss-seeded result with an interior point
within one LP grid cell of an end to the LP path.  On the
benchmark's spread designs the seeds serve every ``michaelis_menten``,
``exponential`` and ``polynomial`` reduction (README "Numerical notes"
has the timings).  ``moments.classify_point`` takes its probe interval
from ``_seeded``'s two representations where both exist: by the
extremal property above, the probe's moments under them are the
interval's ends, with no grid LP.

The LP path is one path with one attempt, entered with a finite linear
program built on the fixed ``lp_grid``, with the caller's probe as
objective (x -> x^k when none is given, the augmentation of the
monomials) or, from ``reduce_design``, +-tr C22.  It locates the support
approximately (an optimal basic solution of a moment LP carries at most
k atoms).  The LP's atoms, plain (point, weight) pairs, merge where
discretization split one support point, take the shape the structure
fixed by k and the direction prescribes, and seed a damped Newton
iteration on the exact moment-matching equations, which removes the grid
bias and stays on supports that ``Design`` keeps unchanged.  Only the
result becomes a ``Design``, at one exit that gates that ``Design``'s own
moments to 1e-9 relative; the first failure is raised, with no retry.  A
boundary moment point has one representing measure, of index below k/2,
so no measure has either structure: when shaping or Newton fails on
merged LP atoms of index below k/2 whose atoms of weight above 1e-9 pass
that exit, the call raises DegeneracyError naming that measure."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .chebyshev import (
    ChebyshevSystem, Interval, _basis_matrix, _derivative_matrix, _evaluate, _Monomials, _stacked, check_reals,
    check_type, monomials,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegeneracyError,
    SingularityError,
    TchebError,
    UnboundedError,
)
from .moments import INGEST_WEIGHT_TOL, SNAP_REL, Atom, Design, MomentPoint, check_arguments, fsum_moments
from .moments import merge_pair, merge_runs, support_index
from .simplex import _solve_senses, solve_lp

NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50
# Points of the equispaced grid on which every moment LP runs.
DEFAULT_GRID = 2001
# Grid atoms closer than this many grid spacings are one true support
# point split by discretization.
CLUSTER_SPACINGS = 3.0
# A weight at most this is round-off, not a support point: a representation
# with one has a boundary moment point's support plus round-off.
ROUNDOFF_WEIGHT = 1e-9


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


# The structure of each direction's principal representation, by k.
STRUCTURES = {"upper": RepresentationStructure.upper, "lower": RepresentationStructure.lower}


@dataclass(frozen=True)
class PrincipalResult:
    """A principal representation, as ``refine_newton`` returns it: its
    ``design``, whose support has the ``structure``, the design's
    ``moments``, by fsum at its own weights, and their largest gap from c0,
    ``residual_norm``.  ``path`` names what seeded Newton: "gauss"
    (``_gauss_rule``), "root" (``_root_seed``), "lp" (the grid LP's atoms)
    or "given" (the caller's own, in a direct ``refine_newton`` call)."""

    design: Design
    residual_norm: float
    newton_iterations: int
    structure: RepresentationStructure
    moments: MomentPoint
    path: str = "given"


def lp_grid(interval: Interval) -> np.ndarray:
    """The ``DEFAULT_GRID``-point equispaced grid of every moment LP."""
    grid = np.linspace(interval.lower, interval.upper, DEFAULT_GRID)
    grid[0] = interval.lower  # A's own float: linspace starts a lower -0.0 at 0.0
    return grid


def _lp_arrays(system: ChebyshevSystem, objective: Optional[Callable] = None):
    """The grid of the interval, the basis V on it and the objective row;
    x -> x^k, the last row of ``monomials``' in-place products, when no
    objective is given."""
    grid = lp_grid(system.interval)
    k = system.k
    row = _stacked((objective,), "probe") if objective is not None else lambda x: monomials(x, k + 1)[k:]
    return grid, _basis_matrix(system, grid), _evaluate(row, 1, grid, "objective")[0]


def _solve_grid_lp(lp, c0: MomentPoint, senses: Sequence[str], feas_tol: Optional[float] = None):
    """``grid_lp_extremum`` on the (grid, V, objective row) triple ``lp``,
    once per sense in ``senses``: a list of (value, atoms) pairs.  One
    sense goes through ``solve_lp`` (the name bench/tracing.py wraps);
    several share one phase one."""
    grid, V, obj = lp
    try:
        if len(senses) == 1:
            results = [solve_lp(V, c0.array(), obj, sense=senses[0], feas_tol=feas_tol)]
        else:
            results = _solve_senses(V, c0.array(), obj, senses, feas_tol)
    except UnboundedError as err:  # psi_0 = 1 and w >= 0 bound the LP: this is round-off
        rows = np.abs(V).max(axis=1)
        raise ConvergenceError(
            f"round-off made the moment LP unbounded: its rows span {rows.min():.1e} to {rows.max():.1e}"
        ) from err
    pairs = []
    for result in results:
        pos = result.x > 1e-14
        pairs.append((float(result.value), list(zip(grid[pos].tolist(), result.x[pos].tolist()))))
    return pairs


def grid_lp_extremum(
    system: ChebyshevSystem,
    c0: MomentPoint,
    objective: Callable,
    sense: str = "max",
):
    """Extremize the objective moment over grid measures matching c0.

    Solves, by a dense two-phase simplex (Dantzig's rule with a Bland
    fallback), the program

        max/min  sum_g w_g * objective(x_g)
        s.t.     sum_g w_g * psi_i(x_g) = c_i   for i = 0..k-1,
                 w >= 0

    on the ``DEFAULT_GRID``-point equispaced grid of the interval, whose
    basis values and objective row are evaluated afresh on every call.
    Returns the optimal value and the atoms: the (point, weight) pairs of
    the grid points whose weight is above 1e-14, in increasing order, at
    most k of them.  The atoms are a warm start, not a validated design;
    their weights need not sum to 1 exactly.  A vertex that misses the
    moments or has a weight below ``solve_lp``'s default -feas_tol raises
    ConvergenceError, and so does a simplex that reports the LP unbounded.
    """
    check_arguments(system, c0)
    return _solve_grid_lp(_lp_arrays(system, objective), c0, (sense,))[0]


def _check_total_weight(c0: MomentPoint) -> None:
    """With psi_0 = 1, c0[0] is the total weight of every representing
    measure: one farther than ``INGEST_WEIGHT_TOL`` from 1 is refused."""
    c00 = c0.coordinates[0]
    if not abs(c00 - 1.0) <= INGEST_WEIGHT_TOL:
        raise ConfigurationError(f"zeroth moment c0[0] = {c00!r} is not 1, so no design represents c0")


def refine_newton(
    system: ChebyshevSystem,
    c0: MomentPoint,
    structure: RepresentationStructure,
    initial: Sequence[Atom],
) -> PrincipalResult:
    """Newton iteration on the moment-matching equations.

    ``initial`` holds the starting (point, weight) atoms in increasing
    order, with the structure's count and endpoint membership, each number
    passing ``check_reals`` ("initial atoms[i, j]").  Unknowns
    are the interior support points and all weights, exactly k of them by
    the structure invariant; the structure's endpoints stay fixed.  The
    residual is

        F(t, w)_i = sum_j w_j psi_i(t_j) - c_i .

    Each iterate, the initial one included, is a support that ``Design``
    keeps unchanged: positive weights, the structure's endpoints bit for
    bit and every other gap of [A, points, B] wider than ``SNAP_REL`` *
    (B - A).  An initial support outside that set raises
    ConfigurationError; steps are damped to stay in it and must not
    increase the residual norm.  Success means ||F||_inf <= NEWTON_TOL *
    max(1, ||c0||_inf) within ``NEWTON_MAX_ITER`` steps, then ``_result``'s
    gate on the returned ``Design`` (else ConvergenceError).  A Jacobian
    with a zero row or column, or a condition number above 1e14 once its
    rows, then its columns, are scaled to unit max-norm, raises
    SingularityError: no step depends on those scales.  The basis is
    evaluated once per iterate: the accepted trial's values serve the next
    Jacobian, the last ones the result's ``moments``.  c0[0] must be 1,
    and a ``structure`` that is not a RepresentationStructure is refused by
    ``check_type``.  The result's ``path`` is "given": the caller's own atoms.
    """
    check_arguments(system, c0)
    k = system.k
    a, b = system.interval.lower, system.interval.upper
    _check_total_weight(c0)
    check_type(structure, RepresentationStructure, "structure")
    if structure.free_unknowns != k:
        raise ConfigurationError("structure unknowns do not match the system dimension")
    atoms = check_reals(initial, "initial atoms")
    if atoms.shape != (structure.num_points, 2):
        raise ConfigurationError(f"initial atoms must have shape {(structure.num_points, 2)}, got {atoms.shape}")
    points, w = atoms.T.copy()
    ends = [structure.includes_A, structure.includes_B]
    free = slice(int(structure.includes_A), points.size - int(structure.includes_B))
    ni = structure.interior_points
    c = c0.array()
    tol = NEWTON_TOL * max(1.0, float(np.abs(c).max()))
    snap = SNAP_REL * system.interval.length
    gaps = slice(free.start, free.stop + 1)  # of [a, *points, b], less the structure's zero end gaps

    def feasible(pts: np.ndarray, ws: np.ndarray) -> bool:
        return bool(ws.min() > 0.0 and np.diff([a, *pts.tolist(), b])[gaps].min() > snap)

    if not feasible(points, w) or points[[0, -1]][ends].tobytes() != np.array([a, b])[ends].tobytes():
        raise ConfigurationError(f"initial support {points.tolist()} would move as a Design")

    V = _basis_matrix(system, points)
    F = V @ w - c
    res = float(np.abs(F).max())
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        if res <= tol:
            break
        J = np.empty((k, k))
        if ni:
            J[:, :ni] = _derivative_matrix(system, points[free]) * w[free]
        J[:, ni:] = V
        with np.errstate(all="ignore"):  # a zero row or column of J leaves a nan in R
            R = J / np.abs(J).max(axis=1, keepdims=True)
            R /= np.abs(R).max(axis=0)
        try:
            if not np.isfinite(R).all() or np.linalg.cond(R) > 1e14:
                raise SingularityError(
                    "moment Jacobian is numerically singular; the moment point "
                    "is degenerate for this structure"
                )
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as err:
            raise SingularityError(f"moment Jacobian not solvable: {err}") from err

        alpha = 1.0
        while alpha >= 1e-12:
            p_new = points.copy()
            p_new[free] += alpha * step[:ni]
            w_new = w + alpha * step[ni:]
            if feasible(p_new, w_new):
                V_new = _basis_matrix(system, p_new)
                F_new = V_new @ w_new - c
                res_new = float(np.abs(F_new).max())
                if res_new <= res * (1.0 - 1e-4 * alpha) or res_new <= tol:
                    points, w, V, F, res = p_new, w_new, V_new, F_new, res_new
                    break
            alpha *= 0.5
        else:
            raise ConvergenceError(f"newton step stalled at residual {res:.3e}")
    if res > tol:
        raise ConvergenceError(f"newton did not reach tolerance, residual {res:.3e}")

    result = _result(system, c0, structure, points, w, V, iterations)
    if result is None:
        raise ConvergenceError("refined design drifted off the moment point")
    return result


def _result(system: ChebyshevSystem, c0: MomentPoint, structure, points, weights, V, iterations):
    """The solver's one exit, for Newton results, and the test that names a
    boundary point's representation: the PrincipalResult of a support that
    ``Design`` keeps, V the basis at its ``points``, or None when a weight
    sum ``Design`` would refuse or a moment of the design, by fsum at its
    weights, misses |m_i - c_i| <= 1e-9 max(1, |c_i|)."""
    if not abs(math.fsum(weights) - 1.0) <= INGEST_WEIGHT_TOL:
        return None
    design = Design(tuple(map(float, points)), tuple(map(float, weights)), system.interval)
    moments = fsum_moments(system, V, design.weights)
    c = c0.array()
    gap = np.abs(moments.array() - c)
    if not np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(c))):
        return None
    return PrincipalResult(design, float(gap.max()), iterations, structure, moments)


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
) -> np.ndarray:
    """Coerce LP atoms onto the structure, as an (n, 2) float array of
    (point, weight) rows, or raise DegeneracyError.

    An end atom within 10 * tol of an endpoint the structure contains
    snaps onto it, and one on an endpoint the structure excludes moves
    1e-3 * tol inside, where Newton takes it: the grid cannot resolve an
    atom closer to the end than one spacing.  Then the closest pairs
    merge until the count fits.
    """
    a, b = interval.lower, interval.upper
    pts = [p for p, _ in atoms]
    ws = [w for _, w in atoms]
    if structure.includes_B and b - pts[-1] <= 10.0 * tol:
        pts[-1] = b
    elif pts[-1] == b:
        pts[-1] = b - 1e-3 * tol
    if structure.includes_A and pts[0] - a <= 10.0 * tol:
        pts[0] = a
    elif pts[0] == a:
        pts[0] = a + 1e-3 * tol
    while len(pts) > structure.num_points:
        i = int(np.argmin(np.diff(pts)))
        keep, weight = merge_pair((pts[i], ws[i]), (pts[i + 1], ws[i + 1]), a, b)
        pts[i : i + 2], ws[i : i + 2] = [keep], [weight]
    check_structure(pts, interval, structure, which)
    return np.array([pts, ws], dtype=float).T


def _principal(system: ChebyshevSystem, c0: MomentPoint, which: str, lp) -> PrincipalResult:
    """The principal representation of the direction ``which``, its moment
    LP run on ``lp``, the (grid, V, objective row) arrays, as ``refine_newton``
    returns it.  When shaping or Newton fails and the merged LP atoms have
    index below k/2 with their atoms above 1e-9 passing ``_result``, c0 is a
    boundary point, which no measure of the structure represents:
    DegeneracyError names its representation."""
    interval = system.interval
    structure = STRUCTURES[which](system.k)
    [(_, atoms)] = _solve_grid_lp(lp, c0, ("max" if which == "upper" else "min",))
    cluster_tol = CLUSTER_SPACINGS * interval.length / (DEFAULT_GRID - 1)
    merged = merge_runs(atoms, cluster_tol, interval.lower, interval.upper)
    try:
        shaped = _shape_to_structure(merged, structure, cluster_tol, interval, which)
        return dataclasses.replace(refine_newton(system, c0, structure, shaped), path="lp")
    except (DegeneracyError, ConvergenceError, SingularityError) as err:
        index = support_index([p for p, _ in merged], interval)
        if index >= system.k / 2:
            raise
        # c0[0] = 1 leaves an atom heavier than round-off.
        points, weights = zip(*[(p, w) for p, w in merged if w > ROUNDOFF_WEIGHT])
        V = _basis_matrix(system, np.asarray(points, float))
        if (result := _result(system, c0, structure, points, weights, V, 0)) is None:
            raise
        raise DegeneracyError(
            f"c0 is a boundary moment point: its LP atoms have index {index} < k/2 = {system.k / 2} and "
            f"{list(result.design.points)} represents it, so no representation has the {which} structure"
        ) from err


def _recurrence(m: List[float]):
    """The three-term recurrence coefficients that K moments m determine,
    alpha_j for 2j + 1 < K and beta_j for 2j < K, by the Chebyshev
    algorithm (Gautschi, 2004, section 2.1.7): the monic orthogonal
    polynomials of any measure with those moments satisfy
    pi_{j+1}(x) = (x - alpha_j) pi_j(x) - beta_j pi_{j-1}(x), beta_0 = m_0.
    Plain floats, so round-off gives inf or nan, not a warning; a zero
    divisor raises ZeroDivisionError."""
    alpha, beta = [], [m[0]]
    prev, sig = [0.0] * len(m), list(m)  # sigma_{j-1, l} and sigma_{j, l}, l = 0..K-1-j
    for j in range((len(m) + 1) // 2):
        if j:
            beta.append(sig[j] / prev[j - 1])
        if 2 * j + 1 >= len(m):
            break
        alpha.append(sig[j + 1] / sig[j] - (prev[j] / prev[j - 1] if j else 0.0))
        prev, sig = sig, [sig[i + 1] - alpha[j] * sig[i] - beta[j] * prev[i] for i in range(len(sig) - 1)]
    return alpha, beta


def _monic(x: float, alpha: List[float], beta: List[float]):
    """(pi_{n-1}(x), pi_n(x)), n = len(alpha), by the recurrence."""
    low, high = 0.0, 1.0
    for a_j, b_j in zip(alpha, beta):
        low, high = high, (x - a_j) * high - b_j * low
    return low, high


@np.errstate(all="ignore")
def _gauss_rule(
    system: ChebyshevSystem, c0: MomentPoint, structure: RepresentationStructure
) -> Optional[np.ndarray]:
    """The representation of c0 with the principal ``structure`` on
    ``polynomial_system``'s monomials as a Gauss-type rule, (point, weight)
    rows for ``refine_newton``, or None when the system's evaluator is not
    a ``_Monomials`` of its k or the rule breaks down.

    For the monomials 1, ..., x^(k-1) the principal representations are
    the Gauss, Radau and Lobatto rules of c0 (Karlin & Studden, 1966,
    Ch. IV), and the structure's ends pick the rule: none (lower at even
    k = 2n) is the n-point Gauss rule; one (odd k) is the Radau rule at
    that end, B upper or A lower, by Golub's change to the last alpha;
    both (upper at even k) is the Lobatto rule, by the 2 x 2 change to the
    last (alpha, beta) that makes pi_{n+1} vanish at A and B (Golub, SIAM
    Rev. 15, 1973).  The points are the eigenvalues of the Jacobi matrix,
    the structure's end points set to A and B bit for bit, and the weights
    are beta_0 v_0^2 (Golub & Welsch, 1969).  A beta that is not finite and
    positive, or a non-finite alpha, is a breakdown; ``refine_newton``
    checks the rest: increasing points strictly inside (A, B) and positive
    weights."""
    k = system.k
    if not isinstance(system.evaluator, _Monomials) or system.evaluator.k != k:
        return None
    a, b = system.interval.lower, system.interval.upper
    try:
        alpha, beta = _recurrence(list(c0.coordinates))
        n = len(alpha)
        if structure.includes_A != structure.includes_B:  # Radau: pi_{n+1} vanishes at the end the structure holds
            end = b if structure.includes_B else a
            low, high = _monic(end, alpha, beta)
            alpha.append(end - beta[n] * low / high)
        elif structure.includes_B:  # Lobatto: pi_{n+1} vanishes at a and b
            (la, ha), (lb, hb) = _monic(a, alpha, beta), _monic(b, alpha, beta)
            det = ha * lb - la * hb
            alpha.append((a * ha * lb - b * hb * la) / det)
            beta.append(ha * hb * (b - a) / det)
        if not (all(0.0 < v < math.inf for v in beta) and all(map(math.isfinite, alpha))):
            return None
        off = np.sqrt(beta[1:])
        points, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    except (ZeroDivisionError, np.linalg.LinAlgError):
        return None
    if structure.includes_A:
        points[0] = a
    if structure.includes_B:
        points[-1] = b
    return np.column_stack([points, beta[0] * vectors[0] ** 2])


@np.errstate(all="ignore")
def _root_seed(c0: MomentPoint, structure: RepresentationStructure, grid: np.ndarray, V: np.ndarray):
    """The representation of c0 with the principal ``structure`` at k = 3 as
    one scalar root, (point, weight) rows for ``refine_newton``, or None
    when the scan finds no bracket or more than one.

    The structure is one endpoint E (B upper, A lower) and one interior
    point t, and c0 lies in the span of psi(E) and psi(t) exactly where the
    residual r(t) = det[psi(E), psi(t), c0] vanishes: on ``grid``, V the
    basis there, r is the 3-vector c0 x psi(E) times V, with no pole
    (variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).
    A cell of the grid brackets a root when r changes sign over it, both
    its ends lie inside (A, B) and the weights w_E, w_t of c0 on psi(E),
    psi(t), solved from all three rows by least squares, are positive at
    both; no pair of rows alone need fix them.  An interior c0 of a
    Chebyshev system has exactly one representation of the structure, so
    exactly one such cell gives the seed: its regula falsi point, with both
    weights interpolated there.  Round-off on the way gives inf or nan,
    which no bracket keeps."""
    c = c0.array()
    end = -1 if structure.includes_B else 0
    u = V[:, end]
    # c0 x psi(E), written out: np.cross takes about 20 us on one pair.
    r = np.array([c[1] * u[2] - c[2] * u[1], c[2] * u[0] - c[0] * u[2], c[0] * u[1] - c[1] * u[0]]) @ V
    cells = np.flatnonzero((r[:-1] < 0.0) != (r[1:] < 0.0))
    uu, cu = u @ u, c @ u

    def weights(v):  # (w_t, w_E) at psi(t) = v, by the normal equations
        uv, cv, vv = u @ v, c @ v, v @ v
        return np.array([uu * cv - uv * cu, vv * cu - uv * cv]) / (uu * vv - uv * uv)

    brackets = []
    for i in cells[(cells > 0) & (cells < r.size - 2)]:
        w_i, w_next = weights(V[:, i]), weights(V[:, i + 1])
        if (w_i > 0.0).all() and (w_next > 0.0).all():
            brackets.append((i, w_i, w_next))
    if len(brackets) != 1:
        return None
    ((i, w_i, w_next),) = brackets
    s = r[i] / (r[i] - r[i + 1])
    t, (w, w_end) = grid[i] + s * (grid[i + 1] - grid[i]), w_i + s * (w_next - w_i)
    e = grid[end]
    return np.array([(t, w), (e, w_end)] if structure.includes_B else [(e, w_end), (t, w)])


def _seeded(system: ChebyshevSystem, c0: MomentPoint, which: str, lp) -> Optional[PrincipalResult]:
    """The principal representation of the direction ``which``, as
    ``refine_newton`` returns it from a seed found without the moment LP:
    ``_gauss_rule``'s on a ``_Monomials`` system, else at k = 3
    ``_root_seed``'s on the grid and basis of ``lp``, the (grid, V,
    objective row) arrays.  None where there is no seed, Newton raises from
    it or its result has a weight at most ``ROUNDOFF_WEIGHT``."""
    structure = STRUCTURES[which](system.k)
    seed, path = _gauss_rule(system, c0, structure), "gauss"
    if seed is None and system.k == 3:
        seed, path = _root_seed(c0, structure, *lp[:2]), "root"
    if seed is None:
        return None
    try:
        result = refine_newton(system, c0, structure, seed)
    except TchebError:
        return None
    if min(result.design.weights) <= ROUNDOFF_WEIGHT:
        return None
    return dataclasses.replace(result, path=path)


def _represent(system: ChebyshevSystem, c0: MomentPoint, which: str, lp=None) -> PrincipalResult:
    """``_seeded``'s representation of the direction ``which``, or where it
    gives None, ``_principal``'s from the LP on ``lp``, so every error
    raised is that path's.  ``lp`` None means ``_lp_arrays(system)``,
    evaluated at k = 3, for the root scan and the LP alike, and elsewhere
    only where the LP runs."""
    if lp is None and system.k == 3:
        lp = _lp_arrays(system)
    result = _seeded(system, c0, which, lp)
    if result is not None:
        return result
    return _principal(system, c0, which, _lp_arrays(system) if lp is None else lp)


def _entry(system: ChebyshevSystem, c0: MomentPoint, which: str, probe: Optional[Callable]) -> PrincipalResult:
    """``upper_principal`` and ``lower_principal``: ``_represent`` with no
    probe, the moment LP of the probe otherwise."""
    check_arguments(system, c0)
    _check_total_weight(c0)
    if probe is None:
        return _represent(system, c0, which)
    return _principal(system, c0, which, _lp_arrays(system, probe))


def upper_principal(
    system: ChebyshevSystem, c0: MomentPoint, probe: Optional[Callable] = None
) -> PrincipalResult:
    """The representing measure maximizing every valid probe moment.

    Contains B among its support points, and A as well when k is even.
    On ``polynomial_system`` with no probe, Newton starts from the Radau
    rule at B (odd k) or the Lobatto rule (even k) of c0, on any other
    system at k = 3 from the scalar root of its interior point, and falls
    back to the grid LP where that fails (see the module docstring).
    Otherwise ``probe`` seeds the one grid LP and must augment the system
    to a Chebyshev system; the default x -> x^k does so for the monomials
    and, by measurement only, for the catalog psi systems.  A ``system``
    that is not a ChebyshevSystem, a c0 that is not a MomentPoint or one
    of another size raises ConfigurationError first.  With psi_0 = 1,
    c0[0] is the total weight: one farther than ``INGEST_WEIGHT_TOL`` from
    1 raises ConfigurationError before any solve.  c0 must be an interior moment
    point: a boundary moment point raises DegeneracyError naming its
    unique representation.
    """
    return _entry(system, c0, "upper", probe)


def lower_principal(
    system: ChebyshevSystem, c0: MomentPoint, probe: Optional[Callable] = None
) -> PrincipalResult:
    """The representing measure minimizing every valid probe moment.

    Avoids B; contains A when k is odd and avoids both endpoints when k
    is even.  On ``polynomial_system`` with no probe, Newton starts from
    the Radau rule at A (odd k) or the Gauss rule (even k) of c0.  The
    k = 3 root, the fallback, ``probe``, the argument types, c0[0] and a
    boundary moment point are as for ``upper_principal``.
    """
    return _entry(system, c0, "lower", probe)
