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
unchanged.

Both hypotheses are determinant conditions on augmented systems and are
checked by sampling before any computation; a failed check raises a
precondition error rather than producing an output whose domination
guarantee has no backing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .chebyshev import check_chebyshev
from .errors import ConfigurationError, DegeneracyError, PreconditionError
from .models import (
    PsiSystem,
    RegressionModel,
    _check_theta,
    information_matrix,
    psi_k_Q,
    psi_system,
)
from .moments import Design, HalfIndex, MomentPoint, design_index, moment_point
from .principal import (
    DEFAULT_GRID,
    NEWTON_TOL,
    RepresentationStructure,
    check_structure,
    lower_principal,
    upper_principal,
)

PSD_TOL = 1e-8
NUM_Q_DIRECTIONS = 64
# Sampling effort of the per-call hypothesis check.  These equal the
# determinant checker's own defaults; a reduction runs one check per
# sampled Q direction, so they bound the gate's cost.
CHECK_GRID = 512
CHECK_TUPLES = 2000
# Passing gate verdicts kept per (model, theta, direction, sampling) key.
GATE_CACHE_SIZE = 64


@dataclass(frozen=True)
class ReductionReport:
    input: Design
    output: Design
    direction: str  # "upper" or "lower"
    branch: str  # "Identity", "OddCase" or "EvenCase"
    input_index: HalfIndex
    moments_in: MomentPoint
    moments_out: MomentPoint
    loewner_min_eigenvalue: float
    q_checks: List[Tuple[Tuple[float, ...], float]]
    difference_spectrum: Tuple[float, ...]


@dataclass(frozen=True)
class DominationReport:
    difference_spectrum: Tuple[float, ...]
    dominates: bool
    tolerance: float


@functools.lru_cache(maxsize=16)
def _sphere_directions(p1: int, count: int = NUM_Q_DIRECTIONS) -> Tuple[np.ndarray, ...]:
    """Deterministic unit directions: one for p1 = 1, a low-discrepancy
    sphere sample otherwise (the hypothesis is scale invariant in Q).
    Memoised, so the arrays are read-only."""
    if p1 == 1:
        out = [np.array([1.0])]
    else:
        from scipy.stats import norm, qmc

        sampler = qmc.Halton(d=p1, scramble=False)
        out = []
        while len(out) < count:
            u = sampler.random(4 * count)
            z = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
            for row in z:
                nrm = float(np.linalg.norm(row))
                if nrm > 1e-8:
                    out.append(row / nrm)
                    if len(out) == count:
                        break
    for Q in out:
        Q.flags.writeable = False
    return tuple(out)


def augmented_checks(psi, direction: str, qs, **check_kwargs):
    """Yield (Q, report) for the determinant check of the psi system
    augmented by +psi_k^Q (upper) or -psi_k^Q (lower), one per Q."""
    sign = 1.0 if direction == "upper" else -1.0
    for Q in qs:
        yield Q, check_chebyshev(psi.augmented(Q, sign), **check_kwargs)


def _check_direction(psi, direction: str, qs, seed: int, grid: int, tuples: int):
    kwargs = dict(num_random_tuples=tuples, grid_size=grid, seed=seed)
    base = check_chebyshev(psi.system, **kwargs)
    if not base.verified:
        raise PreconditionError(
            f"base psi system fails the determinant condition at tuple {base.witness}",
            witness=base.witness,
        )
    for Q, rep in augmented_checks(psi, direction, qs, **kwargs):
        if not rep.verified:
            raise PreconditionError(
                f"augmented system for direction {direction!r} fails the determinant "
                f"condition at tuple {rep.witness} (Q = {tuple(float(v) for v in Q)})",
                witness=rep.witness,
                q_vector=tuple(float(v) for v in Q),
            )


@functools.lru_cache(maxsize=GATE_CACHE_SIZE)
def _gated_psi(
    model: RegressionModel, theta_bytes: bytes, direction: str, seed: int, grid: int, tuples: int
) -> PsiSystem:
    """The psi system at theta, once it passed the gate of the direction.

    The gate does not depend on the design, so a passing verdict is
    memoised per key; a refusal raises and is never cached.  theta is
    keyed by its bytes, which tell 0.0 from -0.0 where floats do not.
    """
    psi = psi_system(model, np.frombuffer(theta_bytes))
    _check_direction(psi, direction, _sphere_directions(psi.p1), seed, grid, tuples)
    return psi


def _moment_gain(system, f, out: Design, inp: Design) -> float:
    def integral(design: Design) -> float:
        vals = np.atleast_1d(np.asarray(f(design.points_array()), dtype=float))
        return math.fsum(float(v) * w for v, w in zip(vals, design.weights))

    return integral(out) - integral(inp)


def reduce_design(
    model: RegressionModel,
    theta,
    xi: Design,
    direction: str = "upper",
    *,
    seed: int = 0,
    grid_size: int = DEFAULT_GRID,
    newton_tol: float = NEWTON_TOL,
    check_grid: int = CHECK_GRID,
    check_tuples: int = CHECK_TUPLES,
) -> ReductionReport:
    """Reduce a design to its dominating principal representation.

    Verifies the determinant hypotheses for the requested direction on
    sampled Q directions, computes the moment point, and returns either
    the design itself (branch Identity, when its index is below k/2) or
    the principal representation matching all k moments.  The report
    records the per-Q moment gains and the spectrum of the information
    difference M(output) - M(input).

    The gate depends on the model, theta, the direction, ``seed``,
    ``check_grid`` and ``check_tuples``, not on the design.  Passing
    verdicts are memoised per such key, up to ``GATE_CACHE_SIZE``
    entries; a refusal is not, so every refused call runs the gate and
    raises afresh.  The model is keyed by its fields, which compare plain
    functions by identity, so a model whose callables change behaviour
    must be rebuilt as a new object with new callables, as
    ``make_model`` does.
    """
    if direction not in ("upper", "lower"):
        raise ConfigurationError(f"direction must be 'upper' or 'lower', got {direction!r}")
    theta = _check_theta(model, theta)
    key = (model, theta.tobytes(), direction, seed, check_grid, check_tuples)
    try:
        hash(key)
    except TypeError:  # a model field or the seed is unhashable
        psi = _gated_psi.__wrapped__(*key)
    else:
        psi = _gated_psi(*key)
    system = psi.system
    k = system.k
    qs = _sphere_directions(psi.p1)

    c0 = moment_point(system, xi)
    idx = design_index(xi)
    p = model.p
    if idx.value < k / 2.0:
        return ReductionReport(
            input=xi,
            output=xi,
            direction=direction,
            branch="Identity",
            input_index=idx,
            moments_in=c0,
            moments_out=c0,
            loewner_min_eigenvalue=0.0,
            q_checks=[(tuple(float(v) for v in Q), 0.0) for Q in qs],
            difference_spectrum=tuple([0.0] * p),
        )

    # The representation maximizing the Q gains is the upper principal
    # one when +psi_k^Q augments to a Chebyshev system, and the lower
    # one when -psi_k^Q does (minimizing -psi_k^Q maximizes the gain).
    f0 = psi_k_Q(psi, qs[0])
    if direction == "upper":
        principal, probe = upper_principal, f0
    else:
        principal, probe = lower_principal, lambda x: -f0(x)
    result = principal(system, c0, probe=probe, grid_size=grid_size, newton_tol=newton_tol)
    out = result.design
    check_structure(out.points, out.interval, result.structure, direction)

    moments_out = moment_point(system, out)
    q_checks = []
    for Q in qs:
        gain = _moment_gain(system, psi_k_Q(psi, Q), out, xi)
        q_checks.append((tuple(float(v) for v in Q), float(gain)))

    diff = information_matrix(model, theta, out) - information_matrix(model, theta, xi)
    spectrum = np.linalg.eigvalsh(diff)
    return ReductionReport(
        input=xi,
        output=out,
        direction=direction,
        branch="OddCase" if k % 2 else "EvenCase",
        input_index=idx,
        moments_in=c0,
        moments_out=moments_out,
        loewner_min_eigenvalue=float(spectrum[0]),
        q_checks=q_checks,
        difference_spectrum=tuple(float(v) for v in spectrum),
    )


def verify_domination(
    model: RegressionModel, theta, xi1: Design, xi2: Design, tolerance: float = PSD_TOL
) -> DominationReport:
    """Spectrum of M(xi1) - M(xi2) and the PSD verdict.

    Dominates when the smallest eigenvalue is no smaller than
    -tolerance * max(1, spectral norm of the difference).
    """
    diff = information_matrix(model, theta, xi1) - information_matrix(model, theta, xi2)
    spectrum = np.linalg.eigvalsh(diff)
    spectral_norm = float(np.abs(spectrum).max())
    dominates = bool(spectrum[0] >= -tolerance * max(1.0, spectral_norm))
    return DominationReport(
        difference_spectrum=tuple(float(v) for v in spectrum),
        dominates=dominates,
        tolerance=float(tolerance),
    )


def criterion_value(model: RegressionModel, theta, design: Design, criterion: str = "d") -> float:
    """log det M for criterion "d", -trace(M^{-1}) for criterion "a".

    Returns -inf when the information matrix is singular.  Rank is judged
    from the eigenvalues: a rank-deficient M produced by a too-small
    support otherwise leaks float-noise determinants of either sign.
    """
    if criterion not in ("d", "a"):
        raise ConfigurationError(f"criterion must be 'd' or 'a', got {criterion!r}")
    M = information_matrix(model, theta, design)
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= 1e-13 * max(1.0, eigs[-1]):
        return -math.inf
    if criterion == "d":
        return float(np.sum(np.log(eigs)))
    return -float(np.sum(1.0 / eigs))


def _expit(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def optimize_in_class(
    model: RegressionModel,
    theta,
    criterion: str = "d",
    direction: str = "upper",
    restarts: int = 20,
    seed: int = 0,
    max_iter: int = 500,
) -> Design:
    """Search the complete-class structure for a locally optimal design.

    Designs are parametrized by the principal-representation structure
    of the chosen direction: endpoint membership is fixed, free points
    map through a logistic squashing (kept sorted) and weights through a
    softmax.  Each restart runs Nelder-Mead from a seeded
    low-discrepancy initial simplex; the best design over all restarts
    is returned, with exact ties broken lexicographically on the support
    points and weights.  The determinant hypothesis of the chosen
    direction is the caller's responsibility.
    """
    from scipy.optimize import minimize
    from scipy.stats import qmc

    if direction not in ("upper", "lower"):
        raise ConfigurationError(f"direction must be 'upper' or 'lower', got {direction!r}")
    if criterion not in ("d", "a"):
        raise ConfigurationError(f"criterion must be 'd' or 'a', got {criterion!r}")
    psi = psi_system(model, theta)
    k = psi.k
    structure = (
        RepresentationStructure.upper(k) if direction == "upper" else RepresentationStructure.lower(k)
    )
    a, b = model.design_interval.lower, model.design_interval.upper
    n_pts = structure.num_points
    n_free = structure.interior_points
    dim = n_free + (n_pts - 1)

    def assemble(z: np.ndarray) -> Optional[Design]:
        free = np.sort(_expit(z[:n_free])) * (b - a) + a if n_free else np.empty(0)
        pts: List[float] = []
        if structure.includes_A:
            pts.append(a)
        pts.extend(float(v) for v in free)
        if structure.includes_B:
            pts.append(b)
        logits = np.append(z[n_free:], 0.0)
        logits -= logits.max()
        w = np.exp(logits)
        w /= w.sum()
        try:
            return Design(points=tuple(pts), weights=tuple(w), interval=model.design_interval)
        except (ConfigurationError, ValueError):
            return None

    # Singular matrices map to a large finite penalty; infinities would
    # poison Nelder-Mead's simplex comparisons.
    PENALTY = 1e300

    def objective(z: np.ndarray) -> float:
        d = assemble(z)
        if d is None:
            return PENALTY
        val = criterion_value(model, theta, d, criterion)
        return -val if math.isfinite(val) else PENALTY

    if dim == 0:
        d = assemble(np.empty(0))
        if d is None or not math.isfinite(criterion_value(model, theta, d, criterion)):
            raise DegeneracyError("the structure admits no nonsingular design")
        return d

    sampler = qmc.Halton(d=dim, scramble=True, seed=seed)
    candidates = []
    for _ in range(restarts):
        simplex = 6.0 * sampler.random(dim + 1) - 3.0
        res = minimize(
            objective,
            x0=simplex[0],
            method="Nelder-Mead",
            options={
                "maxiter": max_iter,
                "initial_simplex": simplex,
                "xatol": 1e-10,
                "fatol": 1e-12,
            },
        )
        d = assemble(res.x)
        if d is None:
            continue
        val = criterion_value(model, theta, d, criterion)
        if math.isfinite(val):
            candidates.append((val, d))
    if not candidates:
        raise DegeneracyError("every restart ended on a singular information matrix")
    candidates.sort(key=lambda t: (-t[0],) + t[1].points + t[1].weights)
    return candidates[0][1]
