"""Workload inputs, made from a seed, and the operations that run them.

A workload's timed operations are an endless, deterministic stream:
operation ``i`` of seed ``s`` is always the same input.  Each operation
holds its generated input, a ``call`` that invokes the library and a
``check`` that runs the benchmark-side oracles on what the call
returned.  Calls look the library function up on its module at call
time, so a traced run that replaces the module attribute sees every
call.

Timed reductions run on spread designs, which the library handles.  The
adversarial sweep of ROADMAP item 1 (n points from {2..29}, Dirichlet(0.3)
weights, and in turn a cluster N(c, (1e-3 L)^2), uniform points, and
points within 1e-7 L of an endpoint) runs untimed in each run's census,
where the seed's known failures are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Optional, Tuple

import numpy as np

import oracles

# The census families of the ROADMAP sweep, and the timed family.
FAMILIES = ("cluster", "uniform", "endpoint")
TIMED_FAMILY = "spread"
N_RANGE = (2, 29)
# Dirichlet concentration per family.  The timed family is a spread
# design: one jittered point per stratum of [A, B] (gaps at least
# L / 2n) and flat weights, the well-posed inputs a user's own design
# usually is.
DIRICHLET_ALPHA = {"cluster": 0.3, "uniform": 0.3, "endpoint": 0.3, "spread": 1.0}
CLUSTER_SD = 1e-3
ENDPOINT_BAND = 1e-7

QUAD_KS = (4, 5, 6, 7, 8)
QUAD_CALLS = ("upper", "lower", "classify")
QUAD_INTERVAL = (-1.0, 1.0)


@dataclass(frozen=True)
class ReduceCase:
    name: str
    model_name: str
    theta: Tuple[float, ...]
    interval: Tuple[float, float]
    direction: str
    k: int
    # reduce_sweep draws theta[sweep_index] from sweep_range; None draws
    # the whole vector from N(0, 1) (the polynomial psi system does not
    # depend on theta, so a fixed range would mean nothing there).
    sweep_index: Optional[int]
    sweep_range: Tuple[float, float] = (0.0, 0.0)
    model: object = field(default=None, compare=False)


REDUCE_CASES = (
    ReduceCase("michaelis_menten", "michaelis_menten", (1.0, 1.0), (0.0, 10.0), "upper", 3,
               1, (0.5, 2.0)),
    ReduceCase("exponential", "exponential", (1.0, -1.0), (0.0, 3.0), "lower", 3,
               1, (-2.0, -0.5)),
    ReduceCase("exponential3", "exponential3", (1.0, 1.0, -1.0), (0.0, 3.0), "lower", 5,
               2, (-2.0, -0.5)),
    ReduceCase("polynomial", "polynomial", (1.0, 0.5, -0.5, 0.25), (-1.0, 1.0), "upper", 6,
               None),
)

# The polynomial of degree 2 joins the reduce cases in optimize only.
POLYNOMIAL2 = ReduceCase("polynomial2", "polynomial", (1.0, 0.5, -0.5), (-1.0, 1.0), "upper", 4,
                         None)
# (case name, criterion) pairs.  The degree-3 polynomial raises
# ConvergenceError in jacobi_spectrum, so it runs in the census only.
OPTIMIZE_CASES = tuple(
    (case, crit)
    for case in ("michaelis_menten", "exponential", "exponential3", "polynomial2")
    for crit in ("d", "a")
)
OPTIMIZE_CENSUS_CASES = (("polynomial", "d"), ("polynomial", "a"))


@dataclass
class Op:
    """One operation: a library call on a generated input and its checks."""

    call: Callable[[], object]
    check: Callable[[object], None]
    family: str
    key: tuple  # what the caller varies per call, e.g. (model, theta, direction)
    psi_key: tuple  # the part of the key the psi system depends on


def _bind_models(tcheb) -> dict:
    """Every case by name, with its catalog model built."""
    return {
        case.name: replace(
            case, model=tcheb.models.make_model(case.model_name, case.theta, case.interval)
        )
        for case in REDUCE_CASES + (POLYNOMIAL2,)
    }


def _spread_points(rng: np.random.Generator, n: int, a: float, b: float) -> np.ndarray:
    """One point per stratum of [a, b], jittered in its middle half."""
    return a + (np.arange(n) + rng.uniform(0.25, 0.75, n)) * ((b - a) / n)


def design_points(rng: np.random.Generator, family: str, a: float, b: float) -> np.ndarray:
    n = int(rng.integers(N_RANGE[0], N_RANGE[1] + 1))
    length = b - a
    if family == "cluster":
        c = rng.uniform(a, b)
        pts = np.clip(rng.normal(c, CLUSTER_SD * length, n), a, b)
    elif family == "uniform":
        pts = rng.uniform(a, b, n)
    elif family == TIMED_FAMILY:
        pts = _spread_points(rng, n, a, b)
    else:
        offset = rng.uniform(0.0, ENDPOINT_BAND * length, n)
        pts = np.where(rng.random(n) < 0.5, a + offset, b - offset)
    return pts


def _psi_key(case: ReduceCase, theta: Tuple[float, ...]) -> tuple:
    if case.sweep_index is None:
        return (case.name, case.direction)
    return (case.name, theta[case.sweep_index], case.direction)


def _reduce_op(tcheb, case: ReduceCase, theta, family: str, rng) -> Op:
    a, b = case.interval
    pts = design_points(rng, family, a, b)
    xi = tcheb.moments.Design(
        points=tuple(pts), weights=tuple(rng.dirichlet(np.full(pts.size, DIRICHLET_ALPHA[family]))),
        interval=case.model.design_interval,
    )
    reduction = tcheb.reduction

    def call():
        return reduction.reduce_design(case.model, theta, xi, case.direction)

    def check(report):
        oracles.check_reduction(case, theta, xi, report)

    return Op(call, check, family, (case.name, theta, case.direction), _psi_key(case, theta))


def _sweep_theta(case: ReduceCase, rng) -> tuple:
    if case.sweep_index is None:
        return tuple(float(v) for v in rng.normal(0.0, 1.0, len(case.theta)))
    theta = list(case.theta)
    theta[case.sweep_index] = float(rng.uniform(*case.sweep_range))
    return tuple(theta)


def reduce_ops(tcheb, rng, sweep: bool, families):
    """Endless stream: the four cases in turn, families cycling per case."""
    cases = _bind_models(tcheb)
    i = 0
    while True:
        case = cases[REDUCE_CASES[i % len(REDUCE_CASES)].name]
        family = families[(i // len(REDUCE_CASES)) % len(families)]
        theta = _sweep_theta(case, rng) if sweep else case.theta
        yield _reduce_op(tcheb, case, theta, family, rng)
        i += 1


def _interior_measure(rng, k: int):
    """A spread measure on k to 2k points: its index is at least k/2,
    so its moment point is interior, and well inside the moment space."""
    a, b = QUAD_INTERVAL
    n = int(rng.integers(k, 2 * k + 1))
    pts = _spread_points(rng, n, a, b)
    return pts, rng.dirichlet(np.full(n, DIRICHLET_ALPHA[TIMED_FAMILY]))


def quadrature_ops(tcheb, rng):
    """Endless stream: (k, call) pairs in turn over k=4..8 and the three calls."""
    interval = tcheb.chebyshev.Interval(*QUAD_INTERVAL)
    systems = {k: tcheb.chebyshev.polynomial_system(k, interval) for k in QUAD_KS}
    principal, moments = tcheb.principal, tcheb.moments
    i = 0
    while True:
        k = QUAD_KS[i % len(QUAD_KS)]
        which = QUAD_CALLS[(i // len(QUAD_KS)) % len(QUAD_CALLS)]
        pts, w = _interior_measure(rng, k)
        want = oracles.monomial_moments(k, pts, w)
        c0 = moments.MomentPoint(coordinates=tuple(float(v) for v in want), system=systems[k])
        system = systems[k]
        if which == "classify":
            def call(system=system, c0=c0, k=k):
                # x^k augments the monomials 1..x^(k-1) to a Chebyshev system.
                return moments.classify_point(system, c0, lambda x: np.asarray(x, float) ** k)

            def check(rep):
                oracles.check_classification(rep, "Interior")
        else:
            def call(system=system, c0=c0, which=which):
                fn = principal.upper_principal if which == "upper" else principal.lower_principal
                return fn(system, c0)

            def check(res, k=k, which=which, want=want):
                oracles.check_principal(k, which, want, res, QUAD_INTERVAL)
        yield Op(call, check, f"k{k}_{which}", (k, tuple(want)), (k,))
        i += 1


def optimize_ops(tcheb, rng, pairs, restarts: int = 20):
    """Endless stream: the (case, criterion) pairs in turn, a fresh search seed each.

    20 restarts is the library default.
    """
    cases = _bind_models(tcheb)
    reduction = tcheb.reduction
    i = 0
    while True:
        name, crit = pairs[i % len(pairs)]
        case = cases[name]
        search_seed = int(rng.integers(0, 2**31 - 1))

        def call(case=case, crit=crit, search_seed=search_seed):
            return reduction.optimize_in_class(
                case.model, case.theta, crit, case.direction, restarts, seed=search_seed
            )

        def check(design, case=case, crit=crit):
            oracles.check_optimum(case, case.theta, design, crit)

        yield Op(call, check, f"{name}_{crit}", (name, case.theta, crit), (name,))
        i += 1


def repeat_shares(tags) -> dict:
    """Share of operations whose key (and psi key) repeats an earlier one.

    ``tags`` holds (family, key, psi_key) per operation.
    """
    seen, seen_psi = set(), set()
    rep = rep_psi = 0
    for _, key, psi_key in tags:
        rep += key in seen
        rep_psi += psi_key in seen_psi
        seen.add(key)
        seen_psi.add(psi_key)
    n = max(1, len(tags))
    return {"key": rep / n, "psi_key": rep_psi / n}


def family_shares(tags) -> dict:
    counts: dict = {}
    for family, _, _ in tags:
        counts[family] = counts.get(family, 0) + 1
    return {k: v / len(tags) for k, v in sorted(counts.items())}


@dataclass(frozen=True)
class Workload:
    """How one workload makes its operation streams (each takes tcheb, seed).

    ``timed`` is endless; the closed loop runs it in whole cycles of
    ``cycle`` operations, so every run holds each case equally often.
    ``census`` is a fixed list, run once untimed, of the inputs the seed
    is known to fail on.  ``warmup`` is run before timing starts.  Why
    each workload exists is recorded in BENCHMARK.json.
    """

    cycle: int
    timed: Callable
    census: Callable
    warmup: Callable


def _rng(seed: int, workload: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, stream])


def _first(stream, n: int) -> list:
    return list(islice(stream, n))


# Census size: designs per (case, family); the ROADMAP sweep used 30.
CENSUS_PER_FAMILY = 10


def _reduce_workload(index: int, sweep: bool) -> Workload:
    n = len(REDUCE_CASES)
    return Workload(
        cycle=n,
        timed=lambda t, s: reduce_ops(t, _rng(s, index, 0), sweep, (TIMED_FAMILY,)),
        census=lambda t, s: _first(reduce_ops(t, _rng(s, index, 1), sweep, FAMILIES),
                                   CENSUS_PER_FAMILY * len(FAMILIES) * n),
        warmup=lambda t, s: _first(reduce_ops(t, _rng(s, index, 2), sweep, (TIMED_FAMILY,)), n),
    )


_QUAD_CYCLE = len(QUAD_KS) * len(QUAD_CALLS)

WORKLOADS = {
    "reduce_repeat": _reduce_workload(0, sweep=False),
    "reduce_sweep": _reduce_workload(1, sweep=True),
    "quadrature": Workload(
        cycle=_QUAD_CYCLE,
        timed=lambda t, s: quadrature_ops(t, _rng(s, 2, 0)),
        census=lambda t, s: [],
        warmup=lambda t, s: _first(quadrature_ops(t, _rng(s, 2, 2)), _QUAD_CYCLE),
    ),
    "optimize": Workload(
        cycle=len(OPTIMIZE_CASES),
        timed=lambda t, s: optimize_ops(t, _rng(s, 3, 0), OPTIMIZE_CASES),
        census=lambda t, s: _first(optimize_ops(t, _rng(s, 3, 1), OPTIMIZE_CENSUS_CASES),
                                   len(OPTIMIZE_CENSUS_CASES)),
        # One restart per case loads scipy.optimize and scipy.stats.
        warmup=lambda t, s: _first(optimize_ops(t, _rng(s, 3, 2), OPTIMIZE_CASES, 1),
                                   len(OPTIMIZE_CASES)),
    ),
}
