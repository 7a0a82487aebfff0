"""Metamorphic properties of reduce_design, which need no reference solver.

All follow from the uniqueness of the principal representation:

- reducing a reduced design returns it;
- the output does not move under the linear parameters: the matrix P
  absorbs them, so h = P^{-1} g and the psi system do not depend on them;
- the output does not depend on the probe that seeds the LP: the
  principal representation with the default probe x^k equals the one
  the reduction seeds with +-tr C22, so Newton reaches it from both warm
  starts.

Designs have 4 to 19 points and positive weights, the points either
spread (one jittered point per stratum of [A, B], as in the benchmark's
timed reductions) or uniform (independent points anywhere in [A, B]).
The k = 3 cases are also asked on the census families near the boundary
of the moment space: a cluster (normal, sd 1e-3 L, about a uniform
centre) and points within 1e-7 L of an endpoint.  Each property is
asked of every design whose first reduction returns; a design it
refuses with a typed error is no input for any.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from tcheb import Design, Interval, lower_principal, make_model, psi_system, reduce_design, upper_principal
from tcheb.errors import TchebError

# name -> (theta, interval, direction, indices of the linear parameters)
CASES = {
    "michaelis_menten": ((1.0, 1.0), (0.0, 10.0), "upper", (0,)),
    "exponential": ((1.0, -1.0), (0.0, 3.0), "lower", (0,)),
    "exponential3": ((1.0, 1.0, -1.0), (0.0, 3.0), "lower", (0, 1)),
    "polynomial": ((1.0, 0.5, -0.5, 0.25), (-1.0, 1.0), "upper", (0, 1, 2, 3)),
}
FAMILIES = ("spread", "uniform")
# exponential3 and polynomial return at most 2 of 100 cluster or endpoint
# designs, so only the k = 3 cases are asked there.
BOUNDARY_FAMILIES = ("cluster", "endpoint")
CELLS = [pytest.param(n, f, id=f"{n}-{f}") for n in CASES for f in FAMILIES] + [
    pytest.param(n, f, id=f"{n}-{f}") for n in ("michaelis_menten", "exponential") for f in BOUNDARY_FAMILIES
]
# Largest change measured over such designs: 1.2e-11 for idempotence and
# 2.1e-14 for invariance, relative to the interval length for points.
IDEMPOTENCE_TOL = 1e-9
INVARIANCE_TOL = 1e-11
# Largest change measured on the cluster and endpoint cells: 1.8e-8 for
# idempotence and 1.7e-8 for probe independence (michaelis_menten
# cluster designs): near the boundary the moments pin a representation
# less tightly, and the two solves start Newton from different LP atoms.
# Invariance stays within INVARIANCE_TOL there.
BOUNDARY_TOL = 1e-7

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=10)


@st.composite
def designs(draw, family, interval):
    a, b = interval
    n = draw(st.integers(4, 19))
    if family in BOUNDARY_FAMILIES:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if family == "cluster":
            u = np.clip(rng.normal(rng.uniform(), 1e-3, n), 0.0, 1.0)
        else:
            offset = rng.uniform(0.0, 1e-7, n)
            u = np.where(rng.random(n) < 0.5, offset, 1.0 - offset)
    else:
        u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if family == "spread":
        u = (np.arange(n) + 0.25 + 0.5 * u) / n
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return Design(points=tuple(a + (b - a) * u), weights=tuple(w / w.sum()), interval=Interval(a, b))


def _idempotence_tol(family):
    return BOUNDARY_TOL if family in BOUNDARY_FAMILIES else IDEMPOTENCE_TOL


def _reduce_or_reject(model, theta, xi, direction):
    try:
        return reduce_design(model, theta, xi, direction)
    except TchebError:
        reject()


def _assert_same_design(got, want, tol):
    length = want.interval.length
    assert got.size == want.size
    np.testing.assert_allclose(got.points, want.points, rtol=0.0, atol=tol * length)
    np.testing.assert_allclose(got.weights, want.weights, rtol=0.0, atol=tol)


@pytest.mark.parametrize("name,family", CELLS)
def test_reducing_a_reduced_design_returns_it(name, family):
    theta, iv, direction, _ = CASES[name]
    model = make_model(name, theta, iv)

    @PROPERTY
    @given(designs(family, iv))
    def prop(xi):
        first = _reduce_or_reject(model, theta, xi, direction).output
        second = reduce_design(model, theta, first, direction).output
        _assert_same_design(second, first, _idempotence_tol(family))

    prop()


@pytest.mark.parametrize("name,family", CELLS)
def test_output_does_not_move_under_the_linear_parameters(name, family):
    theta, iv, direction, linear = CASES[name]
    model = make_model(name, theta, iv)
    magnitudes = st.floats(0.1, 10.0)
    signs = st.sampled_from((1.0, -1.0))

    @PROPERTY
    @given(designs(family, iv), st.lists(st.tuples(magnitudes, signs), min_size=len(linear), max_size=len(linear)))
    def prop(xi, values):
        moved = np.array(theta)
        moved[list(linear)] = [m * s for m, s in values]
        want = _reduce_or_reject(model, theta, xi, direction).output
        got = reduce_design(model, moved, xi, direction).output
        _assert_same_design(got, want, INVARIANCE_TOL)

    prop()


@pytest.mark.parametrize("name,family", CELLS)
def test_representation_does_not_depend_on_the_probe(name, family):
    theta, iv, direction, _ = CASES[name]
    model = make_model(name, theta, iv)
    principal = upper_principal if direction == "upper" else lower_principal
    system = psi_system(model, theta).system

    @PROPERTY
    @given(designs(family, iv))
    def prop(xi):
        rep = _reduce_or_reject(model, theta, xi, direction)
        if rep.branch == "Identity":  # index below k/2: no probe was used
            reject()
        got = principal(system, rep.moments_in).design
        _assert_same_design(got, rep.output, _idempotence_tol(family))

    prop()
