"""Design reduction, Loewner domination and in-class optimization.

Given a model, a parameter guess and an arbitrary design, the reduction
replaces the design by one with the minimal support structure that
carries at least as much information in the Loewner order.  The
improving design reproduces the psi moments of the input and gains in
every quadratic direction Q of the trailing block, which makes the
information difference positive semidefinite.  For the upper direction
the improving design is the upper principal representation of the
input's moment point (it contains B, and A too when k is even); for the
lower direction it is the lower one.  Designs whose index is already
below k/2 have a unique representing measure, so they are returned
unchanged; their gain and information difference are exact zeros.

Both hypotheses are determinant conditions: the psi system, and the psi
system augmented by +psi_k^Q (upper) or -psi_k^Q (lower) for every
nonzero Q, must be Chebyshev systems.  ``run_gate`` decides them once
per key: ``gate_certified`` proves both from a catalog model's
closed-form determinant signs, and every other key runs the sampled
gate, ``gate_checks``, before any computation.  A failed check raises a
precondition error rather than producing an output whose domination
guarantee has no backing.  Whether an output dominates its input in the
Loewner order is judged in one place, ``verify_domination``; the
reduction refuses an output that fails it.

The principal representation comes from ``principal._represent``, the
solver the principal entries share: Newton from the Gauss-type rule of a
psi system whose values are the monomials (the catalog ``polynomial``'s),
from the scalar root at k = 3, and otherwise from the moment LP on the
gate entry's cached arrays.  An output seeded from a Gauss-type rule
with an interior point within one grid cell of an end goes to the LP
instead: the Loewner verdict on it is round-off.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .chebyshev import _evaluate, check_count, check_gate, check_real
from .errors import ConfigurationError, DegeneracyError, PreconditionError
from .models import (
    PsiSystem,
    RegressionModel,
    _check_theta,
    _information_matrix,
    information_matrix,
    psi_system,
)
from .moments import Design, MomentPoint, check_design, design_index, moment_point
from .principal import STRUCTURES, _principal, _represent, lp_grid

PSD_TOL = 1e-8
# Passing gate verdicts kept per (model, theta, direction, seed) key, each
# with its LP arrays, the grid, the k-row basis and the objective row:
# (k + 2) * principal.DEFAULT_GRID floats, so about 128 kB an entry at k = 6.
GATE_CACHE_SIZE = 8
# Nelder-Mead iterations per restart of optimize_in_class.
OPTIMIZE_MAX_ITER = 500


@dataclass(frozen=True)
class ReductionReport:
    input: Design
    output: Design
    direction: str  # "upper" or "lower"
    branch: str  # "Identity", "OddCase" or "EvenCase"
    input_index: float
    moments_in: MomentPoint
    moments_out: MomentPoint
    loewner_min_eigenvalue: float
    gain_spectrum: Tuple[float, ...]
    difference_spectrum: Tuple[float, ...]


@dataclass(frozen=True)
class DominationReport:
    difference_spectrum: Tuple[float, ...]
    dominates: bool
    tolerance: float
    loewner_min_eigenvalue: float


def _direction_sign(direction) -> float:
    """The sign of the augmenting +-psi_k^Q: +1.0 upper, -1.0 lower."""
    if direction not in ("upper", "lower"):
        raise ConfigurationError(f"direction must be 'upper' or 'lower', got {direction!r}")
    return 1.0 if direction == "upper" else -1.0


def gate_checks(psi: PsiSystem, direction: str, seed: int):
    """The determinant gate of a direction: (base, augmented, Q).

    ``check_gate`` judges the psi system, on the leading k points of each
    (k + 1)-tuple, and the psi system augmented by +psi_k^Q (upper) or
    -psi_k^Q (lower) for every nonzero Q, in one pass over one sample at
    ``seed``.  Q is the augmented witness direction, None on a pass.
    """
    return check_gate(psi.system, psi.with_tail, psi.p1, _direction_sign(direction), seed)


def gate_certified(model: RegressionModel, theta, direction: str) -> bool:
    """Whether the model's closed-form determinant signs at theta prove
    the gate of the direction, so that ``gate_checks`` cannot refuse it.

    ``model.determinant_signs`` gives the pair (s_k, s_{k+1}): the sign of
    every ordered collocation determinant of (psi_0, ..., psi_{k-1}), and
    of that system with h_tail^2 appended.  Both checks of the gate hold
    when s_k > 0 and s_{k+1} is +1 (upper) or -1 (lower), since the
    augmenting +-psi_k^Q is +-(Q h_tail)^2.  The pair comes from the
    leading Wronskians, an extended complete Chebyshev system (Karlin &
    Studden, 1966, Ch. XI), or from a generalized Vandermonde
    factorization (``michaelis_menten``).  A model without the signs, or
    whose signs are None at theta, is not certified.
    """
    sign = _direction_sign(direction)
    signs = None if model.determinant_signs is None else model.determinant_signs(model, theta)
    return signs is not None and signs[0] > 0 and signs[1] == sign


def run_gate(model: RegressionModel, theta, psi: PsiSystem, direction: str, seed):
    """The determinant gate ``reduce_design`` runs on a key: None where
    ``gate_certified`` proves it, otherwise ``gate_checks``' (base,
    augmented, Q) at ``seed``, psi the psi system at theta.  ``seed`` must
    be a nonnegative integer, checked first, so a certified key refuses a
    bad one too."""
    seed = check_count(seed, "seed", 0)
    if gate_certified(model, theta, direction):
        return None
    return gate_checks(psi, direction, seed)


def _cached_call(cached: Callable, *key):
    """cached(*key), or the function it memoises when a part of the key is
    unhashable."""
    try:
        hash(key)
    except TypeError:
        return cached.__wrapped__(*key)
    return cached(*key)


@functools.lru_cache(maxsize=GATE_CACHE_SIZE)
def _gated_psi(model: RegressionModel, theta_bytes: bytes, direction: str, seed: int):
    """The psi system at theta, once it passed the gate of the direction,
    and the arrays of that direction's moment LP: the grid of
    ``principal.lp_grid``, the basis V on it and the objective row +-tr C22.

    ``run_gate`` decides the gate; a sampled base refusal raises
    PreconditionError before an augmented one.  The gate and the LP arrays
    do not depend on the design, so they are memoised per key, the arrays
    read-only; a refusal is never cached.  The grid is evaluated once, psi
    over h_tail in one ``with_tail`` call, like the gate's sample, and the
    objective row in that evaluation, so its overflow raises
    EvaluationError.  theta is keyed by its bytes, which tell 0.0 from -0.0
    where floats do not; the seed must be checked before keying.
    """
    theta = np.frombuffer(theta_bytes)
    psi = psi_system(model, theta)
    checks = run_gate(model, theta, psi, direction, seed)
    if checks is not None:
        base, rep, Q = checks
        if not base.verified:
            raise PreconditionError(
                f"base psi system fails the determinant condition at tuple {base.witness}",
                witness=base.witness,
            )
        if not rep.verified:
            raise PreconditionError(
                f"augmented system for direction {direction!r} fails the determinant "
                f"condition at tuple {rep.witness} (Q = {Q})",
                witness=rep.witness,
                q_vector=Q,
            )

    # The representation maximizing the Q gains is the upper principal
    # one when every +psi_k^Q augments to a Chebyshev system, and the
    # lower one when every -psi_k^Q does (minimizing -psi_k^Q maximizes
    # the gain).  tr C22 = |h_tail|^2, a sum of such psi_k^Q, probes it.
    k, sign = psi.k, _direction_sign(direction)

    def lp_rows(xs):
        W = psi.with_tail(xs)
        W[k] = sign * (W[k:] ** 2).sum(axis=0)
        return W[: k + 1]

    grid = lp_grid(psi.system.interval)
    W = _evaluate(lp_rows, k + 1, grid, "basis")
    lp = grid, W[:k], W[k]
    for array in lp:
        array.flags.writeable = False
    return psi, lp


def _c22(psi: PsiSystem, design: Design) -> np.ndarray:
    """C22 = sum_j w_j h_tail(x_j) h_tail(x_j)^T, each entry by math.fsum."""
    T = psi.h_tail(design.points_array())
    w = design.weights_array()
    return np.array([[math.fsum(a * b * w) for b in T] for a in T])


def reduce_design(
    model: RegressionModel,
    theta,
    xi: Design,
    direction: str = "upper",
    *,
    seed: int = 0,
) -> ReductionReport:
    """Reduce a design to its dominating principal representation.

    Verifies the determinant hypotheses for the requested direction, the
    base system and its augmentation for every nonzero Q, by ``run_gate``
    (the gate ``tcheb check`` reports): by the model's determinant signs
    where ``gate_certified`` holds, otherwise in one sampled pass,
    computes the moment point, and returns either the design itself
    (branch Identity, when its index is below k/2) or the principal
    representation matching all k moments; theta passes ``check_reals``.
    Both branches build one report, which records ``gain_spectrum``, the eigenvalues of Delta C22
    = C22(output) - C22(input), whose quadratic form in Q is the gain in
    the Q^T C22 Q moment, and from ``verify_domination(model, theta,
    output, input)`` the spectrum of the information difference
    M(output) - M(input) and ``loewner_min_eigenvalue``, the whitened
    lambda_min in [-1, 1] that its verdict compares with -``PSD_TOL``;
    for Identity all are exact zeros.  An output that does not dominate
    its input at ``PSD_TOL`` raises DegeneracyError naming the direction
    and the whitened value.

    The gate depends on the model, theta, the direction and ``seed``, not
    on the design.  Passing verdicts are memoised per such key, up to
    ``GATE_CACHE_SIZE`` entries; a refusal is not, so every refused call
    runs the gate and raises afresh.  The model is keyed by its fields,
    which compare plain functions by identity, so a model whose callables
    change behaviour must be rebuilt as a new object with new callables,
    as ``make_model`` does.  A model with an unhashable field runs
    uncached.  ``seed`` must be a nonnegative integer, and is checked
    before the lookup.  Each entry also holds the moment LP's grid, its
    basis and the +-tr C22 row, so a repeated key evaluates no grid.
    """
    _direction_sign(direction)
    theta = _check_theta(model, theta)
    seed = check_count(seed, "seed", 0)
    check_design(xi, model.design_interval, "design")
    psi, lp = _cached_call(_gated_psi, model, theta.tobytes(), direction, seed)
    system = psi.system
    k = system.k

    c0 = moment_point(system, xi)
    idx = design_index(xi)
    if idx < k / 2.0:
        out, moments_out, branch = xi, c0, "Identity"
    else:
        result = _represent(system, c0, direction, lp)
        if result.path == "gauss":
            s, grid = result.structure, lp[0]
            inner = result.design.points_array()[int(s.includes_A) : s.num_points - int(s.includes_B)]
            if not np.all((inner >= grid[1]) & (inner <= grid[-2])):
                # An interior point within one grid cell of an end, where no
                # root bracket lies either: the information matrices of input
                # and output are nearly singular together there, and the
                # verdict below on such an output is round-off.  The LP decides.
                result = _principal(system, c0, direction, lp)
        out, moments_out = result.design, result.moments
        branch = "OddCase" if k % 2 else "EvenCase"
    dom = _domination(model, theta, out, xi, PSD_TOL)
    if not dom.dominates:
        raise DegeneracyError(
            f"the {direction} reduction does not dominate its input: whitened lambda_min "
            f"{dom.loewner_min_eigenvalue!r} < -PSD_TOL = {-PSD_TOL!r}"
        )
    gains = np.linalg.eigvalsh(_c22(psi, out) - _c22(psi, xi))
    return ReductionReport(
        input=xi,
        output=out,
        direction=direction,
        branch=branch,
        input_index=idx,
        moments_in=c0,
        moments_out=moments_out,
        loewner_min_eigenvalue=dom.loewner_min_eigenvalue,
        gain_spectrum=tuple(float(v) for v in gains),
        difference_spectrum=dom.difference_spectrum,
    )


def verify_domination(
    model: RegressionModel, theta, xi1: Design, xi2: Design, tolerance: float = PSD_TOL
) -> DominationReport:
    """Spectrum of M(xi1) - M(xi2) and the Loewner verdict M(xi1) >= M(xi2):
    the one place the library judges that order.

    The verdict does not change under a congruence M -> A M A^T.  With
    S = M(xi1) + M(xi2) and R = S^(-1/2) on the range of S (the
    eigenvalues above numpy's ``matrix_rank`` default tolerance), the
    report's ``loewner_min_eigenvalue`` is lambda_min(R^T (M(xi1) -
    M(xi2)) R), 0.0 when that range is empty, and xi1 dominates when it is
    >= -tolerance.  The whitened difference lies in [-1, 1], so a design
    that misses a direction the other sees reads -1 there at any scale of
    theta.  The tolerance must pass ``check_real``, and theta, as in
    ``information_matrix``, ``check_reals``; ``check_design`` refuses an
    ``xi1`` or ``xi2`` that is not a Design on the model's interval by its
    name.
    """
    tolerance = check_real(tolerance, "tolerance")
    theta = _check_theta(model, theta)
    check_design(xi1, model.design_interval, "xi1")
    check_design(xi2, model.design_interval, "xi2")
    return _domination(model, theta, xi1, xi2, tolerance)


def _domination(model: RegressionModel, theta: np.ndarray, xi1: Design, xi2: Design, tolerance: float):
    """``verify_domination`` at a checked theta and tolerance."""
    M1, M2 = _information_matrix(model, theta, xi1), _information_matrix(model, theta, xi2)
    diff = M1 - M2
    w, U = np.linalg.eigh(M1 + M2)
    keep = w > w[-1] * w.size * np.finfo(float).eps
    R = U[:, keep] / np.sqrt(w[keep])
    # An empty range (M(xi1) = M(xi2) = 0) has no direction to lose.
    low = float(np.linalg.eigvalsh(R.T @ diff @ R)[0]) if keep.any() else 0.0
    return DominationReport(
        difference_spectrum=tuple(float(v) for v in np.linalg.eigvalsh(diff)),
        dominates=bool(low >= -tolerance),
        tolerance=tolerance,
        loewner_min_eigenvalue=low,
    )


def criterion_value(model: RegressionModel, theta, design: Design, criterion: str = "d") -> float:
    """log det M for criterion "d", -trace(M^{-1}) for criterion "a", or
    -inf when M is singular.

    Rank is judged on S = M / sqrt(d_i d_j), d = diag(M), which does not
    depend on the scale of theta: M is singular when some d_i is 0 or
    lambda_min(S) <= 1e-13 p, so a too-small support leaks no float-noise
    determinant.  The value is M's own, from S's eigenpairs (lam, U):
    sum log d + sum log lam, or -sum_ij U_ij^2 / (d_i lam_j).
    """
    if criterion not in ("d", "a"):
        raise ConfigurationError(f"criterion must be 'd' or 'a', got {criterion!r}")
    M = information_matrix(model, theta, design)
    d = M.diagonal()
    if not d.all():
        return -math.inf
    s = np.sqrt(d)
    lam, U = np.linalg.eigh(M / np.outer(s, s))
    if lam[0] <= 1e-13 * d.size:
        return -math.inf
    if criterion == "d":
        return float(np.log(d).sum() + np.log(lam).sum())
    return -float(((U * U) @ (1.0 / lam) / d).sum())


def optimize_in_class(
    model: RegressionModel,
    theta,
    criterion: str = "d",
    direction: str = "upper",
    restarts: int = 20,
    seed: int = 0,
) -> Design:
    """Search the complete-class structure for a locally optimal design.

    Designs are parametrized by the principal-representation structure
    of the chosen direction: endpoint membership is fixed, free points
    are coordinates in [A, B] (kept sorted) and weights come from a
    softmax of logits.  Each of the ``restarts`` (an integer, at least 1)
    runs Nelder-Mead, bounded to [A, B] in the points, for at most
    ``OPTIMIZE_MAX_ITER`` iterations, from an initial simplex drawn from
    ``np.random.default_rng(seed)``: points uniform in [A, B], logits
    uniform in [-3, 3].  The best design over all restarts is returned,
    with exact ties broken lexicographically on the support points and
    weights.  The determinant hypothesis of the chosen direction is the
    caller's responsibility.  The bounds let a free point reach A or B
    exactly, so the optimum may lie on the closure of the class:
    ``exponential3`` lower under D at restarts 4, seed 0 returns
    (0, 0.8428, 3), though its structure excludes B.  Every trial is a
    valid design: scipy clips each vertex to the bounds, and softmax
    weights are nonnegative with the largest 1 before normalising.  A
    trial whose M is singular by ``criterion_value``'s scale-free rule
    scores a large finite penalty.
    """
    from scipy.optimize import minimize

    _direction_sign(direction)
    if criterion not in ("d", "a"):
        raise ConfigurationError(f"criterion must be 'd' or 'a', got {criterion!r}")
    seed, restarts = check_count(seed, "seed", 0), check_count(restarts, "restarts", 1)
    psi = psi_system(model, theta)
    k = psi.k
    structure = STRUCTURES[direction](k)
    a, b = model.design_interval.lower, model.design_interval.upper
    n_pts = structure.num_points
    n_free = structure.interior_points
    dim = n_free + (n_pts - 1)

    def assemble(z: np.ndarray) -> Design:
        pts = [a] * structure.includes_A + np.sort(z[:n_free]).tolist() + [b] * structure.includes_B
        logits = np.append(z[n_free:], 0.0)
        logits -= logits.max()
        w = np.exp(logits)
        w /= w.sum()
        return Design(points=pts, weights=w, interval=model.design_interval)

    # Singular matrices map to a large finite penalty; infinities would
    # poison Nelder-Mead's simplex comparisons.
    PENALTY = 1e300

    def objective(z: np.ndarray) -> float:
        val = criterion_value(model, theta, assemble(z), criterion)
        return -val if math.isfinite(val) else PENALTY

    if dim == 0:
        d = assemble(np.empty(0))
        if not math.isfinite(criterion_value(model, theta, d, criterion)):
            raise DegeneracyError("the structure admits no nonsingular design")
        return d

    rng = np.random.default_rng(seed)
    bounds = [(a, b)] * n_free + [(None, None)] * (n_pts - 1)
    candidates = []
    for _ in range(restarts):
        simplex = np.hstack([rng.uniform(a, b, (dim + 1, n_free)), rng.uniform(-3.0, 3.0, (dim + 1, n_pts - 1))])
        res = minimize(
            objective,
            x0=simplex[0],
            method="Nelder-Mead",
            bounds=bounds,
            options={
                "maxiter": OPTIMIZE_MAX_ITER,
                "initial_simplex": simplex,
                "xatol": 1e-10,
                "fatol": 1e-12,
            },
        )
        if res.fun < PENALTY:  # res.fun is the objective at res.x
            candidates.append((-res.fun, assemble(res.x)))
    if not candidates:
        raise DegeneracyError("every restart ended on a singular information matrix")
    candidates.sort(key=lambda t: (-t[0],) + t[1].points + t[1].weights)
    return candidates[0][1]
