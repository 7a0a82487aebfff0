"""Designs, generalized moment points and the half-counted index.

A design is a finitely supported probability measure on the design
interval.  Its moment point with respect to a k-function system is the
vector of integrals of the basis functions.  The index of a design
counts interior support points fully and interval endpoints as 1/2; a
moment point is a boundary point of the moment space exactly when every
representing measure has index below k/2, in which case the
representation is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Tuple

import numpy as np

from .chebyshev import ChebyshevSystem, Interval, _basis_matrix, check_reals, check_type
from .errors import ConfigurationError, DomainError

# Points within this times (B - A) of an endpoint snap onto it before
# index counting, and support points that close to each other merge;
# the half-counting rule needs a deterministic boundary.
SNAP_REL = 1e-10
# |sum(weights) - 1| accepted at construction, after which the weights
# are renormalized so that math.fsum(weights) == 1.0 exactly.
INGEST_WEIGHT_TOL = 1e-9

# Relative tolerance on the gamma gap in classify_point.
CLASSIFY_TOL = 1e-9


def _exact_unit_sum(weights: list) -> list:
    """Scale weights to sum to 1, then absorb the fsum residual.

    The correction goes into the largest weight so the perturbation is
    relatively smallest; it loops because one adjustment may still leave
    a one-ulp residual.
    """
    total = math.fsum(weights)
    ws = [w / total for w in weights]
    for _ in range(10):
        residual = 1.0 - math.fsum(ws)
        if residual == 0.0:
            break
        ws[ws.index(max(ws))] += residual
    return ws


Atom = Tuple[float, float]  # (point, weight)


def merge_pair(left: Atom, right: Atom, a: float, b: float) -> Atom:
    """One atom from two: an endpoint atom absorbs its neighbour,
    otherwise the pair merges at its weighted centroid."""
    (p, v), (q, u) = left, right
    if p == a or p == b:
        keep = p
    elif q == a or q == b:
        keep = q
    else:
        keep = (p * v + q * u) / (v + u)
    return keep, v + u


def merge_runs(atoms: Iterable[Atom], tol: float, a: float, b: float) -> List[Atom]:
    """Merge sorted atoms lying within tol of the previous kept atom.

    One pass reaches the fixpoint: a merged atom never lies left of its
    left part, so the gaps between kept atoms only grow.
    """
    merged: List[Atom] = []
    for atom in atoms:
        if merged and atom[0] - merged[-1][0] <= tol:
            merged[-1] = merge_pair(merged[-1], atom, a, b)
        else:
            merged.append(atom)
    return merged


@dataclass(frozen=True)
class Design:
    """Finitely supported probability measure on its interval.

    Construction normalizes the support: points snap to nearby
    endpoints, near-coincident points merge with weights summed,
    zero-weight points drop, and weights are renormalized to sum to 1
    exactly under math.fsum.  Points and weights are flat sequences of one
    length, entries by ``check_reals`` ("design points[i]"); weight sums
    farther than 1e-9 from 1 and negative weights are rejected.
    """

    points: Tuple[float, ...]
    weights: Tuple[float, ...]
    interval: Interval

    def __post_init__(self):
        check_type(self.interval, Interval, "design interval")
        pts = check_reals(self.points, "design points")
        ws = check_reals(self.weights, "design weights")
        if pts.ndim != 1 or pts.shape != ws.shape:
            raise ConfigurationError("design points and weights must be flat sequences of one length")
        pts, ws = pts.tolist(), ws.tolist()
        if any(w < 0.0 for w in ws):
            raise ConfigurationError("design weights must be nonnegative")
        pairs = [(p, w) for p, w in zip(pts, ws) if w > 0.0]
        if not pairs:
            raise ConfigurationError("a design needs at least one point of positive weight")

        a, b = self.interval.lower, self.interval.upper
        tol = SNAP_REL * self.interval.length
        snapped = []
        for p, w in pairs:
            if abs(p - a) <= tol:
                p = a
            elif abs(p - b) <= tol:
                p = b
            if p < a or p > b:
                raise DomainError(f"design point {p!r} outside [{a}, {b}]")
            snapped.append((p, w))
        snapped.sort(key=lambda t: t[0])
        merged = merge_runs(snapped, tol, a, b)

        total = math.fsum(w for _, w in merged)
        if abs(total - 1.0) > INGEST_WEIGHT_TOL:
            raise ConfigurationError(f"design weights sum to {total!r}, expected 1")
        ws = _exact_unit_sum([w for _, w in merged])
        object.__setattr__(self, "points", tuple(p for p, _ in merged))
        object.__setattr__(self, "weights", tuple(ws))

    @property
    def size(self) -> int:
        return len(self.points)

    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def as_json_obj(self) -> dict:
        return {
            "points": list(self.points),
            "weights": list(self.weights),
            "interval": [self.interval.lower, self.interval.upper],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "Design":
        if not isinstance(obj, dict):
            raise ConfigurationError("design JSON must be an object")
        missing = {"points", "weights", "interval"} - set(obj)
        if missing:
            raise ConfigurationError(f"design JSON missing fields: {sorted(missing)}")
        interval = obj["interval"]
        if not isinstance(interval, (list, tuple)) or len(interval) != 2:
            raise ConfigurationError("design interval must be a pair [A, B]")
        return cls(points=obj["points"], weights=obj["weights"], interval=Interval(*interval))


@dataclass(frozen=True)
class MomentPoint:
    """Generalized moments, each by ``check_reals`` ("moment coordinate c0[i]"), and their system."""

    coordinates: Tuple[float, ...]
    system: ChebyshevSystem

    def __post_init__(self):
        if check_reals(self.coordinates, "moment coordinate c0").ndim != 1:
            raise ConfigurationError("moment coordinates must be a flat sequence")
        if self.k < 1:
            raise ConfigurationError("a moment point needs at least one coordinate")

    @property
    def k(self) -> int:
        return len(self.coordinates)

    def array(self) -> np.ndarray:
        return np.asarray(self.coordinates, dtype=float)


@dataclass(frozen=True)
class BoundaryReport:
    classification: str  # "Boundary" or "Interior"
    gamma_lower: float
    gamma_upper: float


def check_arguments(system, c0) -> None:
    """Refuse, by ``check_type``, a ``system`` that is not a ChebyshevSystem,
    then a ``c0`` that is not a MomentPoint, then, by ConfigurationError, a
    ``c0`` whose size is not the system's k: the first check of every entry
    that takes the pair, before any grid is evaluated."""
    check_type(system, ChebyshevSystem, "system")
    check_type(c0, MomentPoint, "c0")
    if c0.k != system.k:
        raise ConfigurationError("moment point dimension does not match the system")


def moment_point(system: ChebyshevSystem, design: Design) -> MomentPoint:
    """Moments c_i = sum_j w_j psi_i(x_j), accumulated with math.fsum.

    With psi_0 identically one the zeroth coordinate equals
    math.fsum(weights), which Design construction pins to exactly 1.0.
    A ``system`` that is not a ChebyshevSystem, then a ``design`` that is
    not a Design, is refused by ``check_type``.
    """
    check_type(system, ChebyshevSystem, "system")
    check_type(design, Design, "design")
    if design.interval != system.interval:
        raise DomainError("design and system live on different intervals")
    return fsum_moments(system, _basis_matrix(system, design.points_array()), design.weights)


def fsum_moments(system: ChebyshevSystem, V: np.ndarray, w) -> MomentPoint:
    """The moment point sum_j w_j V[:, j], V the basis at the support: each
    coordinate is math.fsum of its row of products V[i, j] * w[j], so it is
    the correctly rounded sum of those products, in any order."""
    coords = tuple(math.fsum(row) for row in (V * np.asarray(w, dtype=float)).tolist())
    return MomentPoint(coordinates=coords, system=system)


def support_index(points: Iterable[float], interval: Interval) -> float:
    """The half-counted index of a support: interior points count 1,
    points on an endpoint of the interval 1/2.  Counted in halves, so the
    float is exact."""
    a, b = interval.lower, interval.upper
    return sum(1 if p == a or p == b else 2 for p in points) / 2


def design_index(design: Design) -> float:
    """The half-counted index of the design's support; a ``design`` that is
    not a Design is refused by ``check_type``."""
    check_type(design, Design, "design")
    return support_index(design.points, design.interval)


def classify_point(
    system: ChebyshevSystem,
    c0: MomentPoint,
    probe: Callable,
) -> BoundaryReport:
    """Boundary or interior classification via the probe-moment interval.

    Maximizing and minimizing the probe moment over all measures with
    moment point c0 yields an interval [gamma_lower, gamma_upper]; the
    point is a boundary point exactly when that interval collapses,
    gamma_upper - gamma_lower <= CLASSIFY_TOL * max(1, |gamma_upper|), in
    which case its representing measure is unique.  The probe must
    augment the system to a Chebyshev system for the geometry to hold;
    that is the caller's obligation.  Both LPs are one ``_solve_grid_lp``
    call on one grid evaluation and one simplex phase one; each gamma is
    the value its own one-sense solve gives.
    """
    check_arguments(system, c0)
    # Imported here: principal builds on this module.
    from .principal import _lp_arrays, _solve_grid_lp

    # Boundary moment points sit within O(grid spacing^2) of the grid
    # moment body, so classification runs the LPs with a relaxed
    # feasibility acceptance.  Both senses share one grid evaluation and
    # one simplex phase one, which does not depend on the sense.
    slack = 1e-6 * max(1.0, float(np.max(np.abs(c0.array()))))
    lp = _lp_arrays(system, probe)
    (gamma_upper, _), (gamma_lower, _) = _solve_grid_lp(lp, c0, ("max", "min"), slack)
    gap = gamma_upper - gamma_lower
    boundary = gap <= CLASSIFY_TOL * max(1.0, abs(gamma_upper))
    return BoundaryReport(
        classification="Boundary" if boundary else "Interior",
        gamma_lower=float(gamma_lower),
        gamma_upper=float(gamma_upper),
    )
