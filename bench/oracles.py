"""Output checks that live on the benchmark side.

Every check recomputes what it needs from the model's own gradient (or
from monomials for the quadrature systems) with plain numpy.  None of
them reads a verdict the library put in its report: the report's
``moments_out``, ``loewner_min_eigenvalue``, ``branch`` or structure
are claims to be checked, never evidence.

An operation ends in one of four outcomes:

- ``ok``: it returned and every check passed;
- ``typed``: it raised a ``TchebError`` subclass;
- ``other``: it raised any other exception;
- ``silent``: it returned an output that fails a check.

The last three are failures; ``silent`` is the "never silently wrong"
count of the ROADMAP.
"""

from __future__ import annotations

import time

import numpy as np

# moments_out must match the input moments to this share of the largest
# input moment (the library's own Newton stop rule is 1e-11 relative;
# its unrefined fallbacks stop at 1e-6).
MOMENT_RTOL = 1e-8
# eigvalsh(M_out - M_in) >= -LOEWNER_RTOL * max|eig M_in| (ROADMAP item 1).
LOEWNER_RTOL = 1e-8
# optimize_in_class stops Nelder-Mead at fatol = 1e-12 on the criterion,
# which leaves the parameters O(sqrt(1e-12)) = O(1e-6) from the
# stationary point.  The equivalence-theorem excess is first order in
# that distance, so 1e-4 relative leaves a hundredfold margin.
KW_RTOL = 1e-4
# Dense grid for the equivalence check, plus the design's own points.
KW_GRID = 4001

class Silent(Exception):
    """Raised by a check: the operation returned a wrong output."""


def structure(k: int, direction: str):
    """(num_points, includes_A, includes_B) of a principal representation.

    Upper: k even -> k/2 + 1 points with both endpoints, k odd ->
    (k+1)/2 points with B only.  Lower: k even -> k/2 interior points,
    k odd -> (k+1)/2 points with A only.
    """
    if direction == "upper":
        return (k // 2 + 1, True, True) if k % 2 == 0 else ((k + 1) // 2, False, True)
    return (k // 2, False, False) if k % 2 == 0 else ((k + 1) // 2, True, False)


def half_index_twice(points, a: float, b: float) -> int:
    """Twice the design index: interior points count 2, endpoints 1."""
    return sum(1 if p in (a, b) else 2 for p in points)


def check_structure(points, k: int, direction: str, a: float, b: float):
    n, has_a, has_b = structure(k, direction)
    pts = list(points)
    if len(pts) != n:
        raise Silent(f"{len(pts)} support points, {direction} structure for k={k} wants {n}")
    if (pts[0] == a) != has_a or (pts[-1] == b) != has_b:
        raise Silent(
            f"endpoint pattern A={pts[0] == a} B={pts[-1] == b}, "
            f"{direction} structure for k={k} wants A={has_a} B={has_b}"
        )
    if any(not a <= p <= b for p in pts) or any(q <= p for p, q in zip(pts, pts[1:])):
        raise Silent("support points are not strictly increasing inside [A, B]")


def check_weights(weights):
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
        raise Silent("weights are not a probability vector")


def _gradients(model, theta, points) -> np.ndarray:
    return np.asarray(model.gradient(np.asarray(points, dtype=float), np.asarray(theta)), float)


def info(model, theta, points, weights) -> np.ndarray:
    """M = sum_j w_j g(x_j) g(x_j)^T from the model gradient."""
    G = _gradients(model, theta, points)
    return (G * np.asarray(weights, dtype=float)) @ G.T


def psi_blocks(model, theta, points, weights) -> np.ndarray:
    """Leading rows of C = P^-1 M P^-T: the C11 and C21 blocks.

    Their distinct non-constant entries are exactly the psi moments, so
    matching these blocks is matching the moment point, computed without
    the library's psi system.
    """
    Pinv = np.linalg.inv(np.asarray(model.p_matrix(np.asarray(theta)), dtype=float))
    H = Pinv @ _gradients(model, theta, points)
    C = (H * np.asarray(weights, dtype=float)) @ H.T
    r = model.p - model.p1
    return C[:, :r]


def check_moments(got: np.ndarray, want: np.ndarray):
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max())
    if not err <= MOMENT_RTOL * scale:
        raise Silent(f"moments differ by {err:.3e} (allowed {MOMENT_RTOL * scale:.3e})")


def check_reduction(case, theta, xi, report):
    """Checks for one reduce_design output against its input design."""
    a, b = case.interval
    out = report.output
    check_weights(out.weights)
    if report.branch == "Identity":
        if half_index_twice(xi.points, a, b) >= case.k:
            raise Silent("Identity branch on a design of index >= k/2")
        if out.points != xi.points or out.weights != xi.weights:
            raise Silent("Identity branch changed the design")
        return
    check_structure(out.points, case.k, case.direction, a, b)
    check_moments(
        psi_blocks(case.model, theta, out.points, out.weights),
        psi_blocks(case.model, theta, xi.points, xi.weights),
    )
    M_in = info(case.model, theta, xi.points, xi.weights)
    M_out = info(case.model, theta, out.points, out.weights)
    floor = -LOEWNER_RTOL * float(np.abs(np.linalg.eigvalsh(M_in)).max())
    low = float(np.linalg.eigvalsh(M_out - M_in)[0])
    if not low >= floor:
        raise Silent(f"Loewner deficit: min eig {low:.3e} below {floor:.3e}")


def monomial_moments(k: int, points, weights) -> np.ndarray:
    return np.vander(np.asarray(points, float), k, increasing=True).T @ np.asarray(weights, float)


def check_principal(k: int, direction: str, c0: np.ndarray, result, interval):
    """Checks for an upper/lower principal representation of c0."""
    d = result.design
    check_weights(d.weights)
    check_structure(d.points, k, direction, *interval)
    check_moments(monomial_moments(k, d.points, d.weights), c0)


def check_classification(report, expected: str):
    if report.classification != expected:
        raise Silent(f"classified {report.classification}, the measure is {expected}")
    if not report.gamma_lower <= report.gamma_upper:
        raise Silent("probe interval is empty")


def check_optimum(case, theta, design, criterion: str):
    """Kiefer-Wolfowitz equivalence check on a dense grid.

    D: max_x g^T M^-1 g <= p.  A: max_x g^T M^-2 g <= tr M^-1.
    """
    a, b = case.interval
    check_weights(design.weights)
    M = info(case.model, theta, design.points, design.weights)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise Silent("information matrix of the optimum is singular") from None
    xs = np.union1d(np.linspace(a, b, KW_GRID), design.points)
    G = _gradients(case.model, theta, xs)
    if criterion == "d":
        sens = np.einsum("in,ij,jn->n", G, Minv, G)
        bound = float(case.model.p)
    else:
        sens = np.einsum("in,ij,jn->n", G, Minv @ Minv, G)
        bound = float(np.trace(Minv))
    worst = float(sens.max())
    if not worst <= bound * (1.0 + KW_RTOL):
        raise Silent(f"equivalence check: max sensitivity {worst:.6g} > {bound:.6g}")


def run_op(op, error_type):
    """Time one operation's call, then check its output.

    Returns (latency_ns, outcome, detail).  Only the library call is
    timed; ``error_type`` is the library's typed base exception.
    """
    t0 = time.perf_counter_ns()
    try:
        result = op.call()
    except error_type as err:
        return time.perf_counter_ns() - t0, "typed", f"{type(err).__name__}: {err}"
    except Exception as err:  # noqa: BLE001 - counted as a failure, the run goes on
        return time.perf_counter_ns() - t0, "other", f"{type(err).__name__}: {err}"
    latency = time.perf_counter_ns() - t0
    try:
        op.check(result)
    except Silent as err:
        return latency, "silent", str(err)
    return latency, "ok", ""
