import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tcheb.principal
from tcheb import (
    ChebyshevSystem,
    Design,
    Interval,
    RepresentationStructure,
    basis_matrix,
    grid_lp_extremum,
    lower_principal,
    make_model,
    moment_point,
    polynomial_system,
    psi_k_Q,
    psi_system,
    reduce_design,
    refine_newton,
    upper_principal,
)
from tcheb.errors import (
    ConfigurationError,
    ConvergenceError,
    DegeneracyError,
    EvaluationError,
    InfeasibleError,
    SingularityError,
    TchebError,
)
from tcheb.moments import MomentPoint, classify_point

UNIT = Interval(0.0, 1.0)
SYM = Interval(-1.0, 1.0)


def uniform_c0(k):
    """Moments of the uniform measure on [-1,1]: 0 for odd powers, 1/(i+1) even."""
    sys_k = polynomial_system(k, SYM)
    coords = tuple(0.0 if i % 2 else 1.0 / (i + 1) for i in range(k))
    return sys_k, MomentPoint(coordinates=coords, system=sys_k)


def boundary_c0():
    """The k = 4 monomials on [-1, 1] and the moments of {-1: 1/2, 1: 1/2},
    a boundary point: index 1 < k/2, so no seeded representation exists."""
    sys4 = polynomial_system(4, SYM)
    return sys4, MomentPoint(coordinates=(1.0, 0.0, 1.0, 0.0), system=sys4)


class TestStructure:
    def test_upper_counts(self):
        s = RepresentationStructure.upper(4)
        assert (s.num_points, s.includes_A, s.includes_B) == (3, True, True)
        s = RepresentationStructure.upper(3)
        assert (s.num_points, s.includes_A, s.includes_B) == (2, False, True)

    def test_lower_counts(self):
        s = RepresentationStructure.lower(4)
        assert (s.num_points, s.includes_A, s.includes_B) == (2, False, False)
        s = RepresentationStructure.lower(3)
        assert (s.num_points, s.includes_A, s.includes_B) == (2, True, False)

    def test_unknown_budget_is_k(self):
        for k in range(2, 9):
            for s in (RepresentationStructure.upper(k), RepresentationStructure.lower(k)):
                assert s.free_unknowns == k


class TestGridLP:
    def test_max_mean_half(self):
        sys2 = polynomial_system(2, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5), system=sys2)
        value, atoms = grid_lp_extremum(sys2, c0, lambda x: x**2, "max")
        assert value == pytest.approx(0.5, abs=1e-9)
        points, weights = zip(*atoms)
        assert points == pytest.approx((0.0, 1.0), abs=1e-9)
        assert weights == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_min_mean_half(self):
        sys2 = polynomial_system(2, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5), system=sys2)
        value, atoms = grid_lp_extremum(sys2, c0, lambda x: x**2, "min")
        assert value == pytest.approx(0.25, abs=1e-9)
        assert [p for p, _ in atoms] == pytest.approx([0.5], abs=1e-9)

    def test_min_quartic_moment(self):
        sys4, c0 = uniform_c0(4)
        value, atoms = grid_lp_extremum(sys4, c0, lambda x: x**4, "min")
        assert value == pytest.approx(1.0 / 9.0, abs=5e-5)
        # grid LP scatters the off-grid Gauss atoms onto neighbours
        assert len(atoms) <= 4
        g = 1.0 / np.sqrt(3.0)
        for p, _ in atoms:
            assert min(abs(p - g), abs(p + g)) < 2e-3

    def test_atom_count_bound(self):
        sys3 = polynomial_system(3, UNIT)
        d = Design(points=(0.1, 0.4, 0.5, 0.9), weights=(0.25,) * 4, interval=UNIT)
        c0 = moment_point(sys3, d)
        _, atoms = grid_lp_extremum(sys3, c0, lambda x: x**3, "max")
        assert len(atoms) <= 3

    def test_unknown_sense_is_a_configuration_error(self):
        sys2 = polynomial_system(2, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5), system=sys2)
        with pytest.raises(ConfigurationError, match="^sense must be 'max' or 'min', got 'maximum'$"):
            grid_lp_extremum(sys2, c0, lambda x: x**2, "maximum")

    def test_infeasible_moment_point(self):
        sys2 = polynomial_system(2, UNIT)
        outside = MomentPoint(coordinates=(1.0, 1.5), system=sys2)
        with pytest.raises(InfeasibleError):
            grid_lp_extremum(sys2, outside, lambda x: x**2, "max")


class TestNewton:
    def test_quadratic_upper_closed_form(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        initial = [(0.4, 0.7), (1.0, 0.3)]
        res = refine_newton(sys3, c0, RepresentationStructure.upper(3), initial)
        assert res.design.points == pytest.approx((1.0 / 3.0, 1.0), abs=1e-10)
        assert res.design.weights == pytest.approx((0.75, 0.25), abs=1e-10)
        assert res.residual_norm <= 1e-11

    def test_quadratic_lower_closed_form(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        initial = [(0.0, 0.3), (0.6, 0.7)]
        res = refine_newton(sys3, c0, RepresentationStructure.lower(3), initial)
        assert res.design.points == pytest.approx((0.0, 2.0 / 3.0), abs=1e-10)
        assert res.design.weights == pytest.approx((0.25, 0.75), abs=1e-10)

    def test_cubic_upper_lobatto(self):
        sys4, c0 = uniform_c0(4)
        initial = [(-1.0, 0.2), (0.1, 0.6), (1.0, 0.2)]
        res = refine_newton(sys4, c0, RepresentationStructure.upper(4), initial)
        assert res.design.points == pytest.approx((-1.0, 0.0, 1.0), abs=1e-9)
        assert res.design.weights == pytest.approx((1 / 6, 2 / 3, 1 / 6), abs=1e-9)

    def test_one_basis_evaluation_per_iterate(self, monkeypatch):
        """The accepted trial's basis values serve the next Jacobian: the
        basis is evaluated at the start and once per feasible line-search
        trial, never twice in a row at the same points."""
        sys4, c0 = uniform_c0(4)
        calls = []

        def spy(name):
            real = getattr(tcheb.principal, name)

            def record(system, xs):
                calls.append((name, np.array(xs, dtype=float)))
                return real(system, xs)

            monkeypatch.setattr(tcheb.principal, name, record)

        spy("_basis_matrix")
        spy("_derivative_matrix")
        full_steps = [(-1.0, 0.2), (0.1, 0.6), (1.0, 0.2)]
        damped = [(-1.0, 0.05), (0.9, 0.9), (1.0, 0.05)]
        for initial in (full_steps, damped):
            calls.clear()
            res = refine_newton(sys4, c0, RepresentationStructure.upper(4), initial)
            names = [name for name, _ in calls]
            values = [xs for name, xs in calls if name == "_basis_matrix"]
            steps = res.newton_iterations - 1
            assert names.count("_derivative_matrix") == steps >= 3
            np.testing.assert_array_equal(values[0], [p for p, _ in initial])
            assert not any(np.array_equal(u, v) for u, v in zip(values, values[1:]))
            if initial is full_steps:
                assert names == ["_basis_matrix"] + ["_derivative_matrix", "_basis_matrix"] * steps
            else:
                assert len(values) > 1 + steps

    @pytest.mark.parametrize("near", [1e-11, 0.0], ids=["exact", "snapped"])
    def test_newton_does_not_stop_inside_the_snap_distance(self, near):
        """The upper representation at k = 3 avoids A.  On the moments of
        {1e-11: 1/2, 1: 1/2}, exact or as the Design snaps them to
        {0: 1/2, 1: 1/2}, Newton would end within 1e-10 of A, where the
        Design snaps the point onto A: the call is refused, not returned
        with A."""
        sys3 = polynomial_system(3, UNIT)
        coords = (1.0, 0.5 * (1.0 + near), 0.5 * (1.0 + near * near))
        with pytest.raises(TchebError):
            upper_principal(sys3, MomentPoint(coordinates=coords, system=sys3))

    @pytest.mark.parametrize(
        "k, structure, initial",
        [
            (4, RepresentationStructure.upper(4), [(-0.0, 0.25), (0.5, 0.5), (1.0, 0.25)]),
            (3, RepresentationStructure.lower(3), [(-0.0, 0.5), (0.6, 0.5)]),
            (3, RepresentationStructure.upper(3), [(1e-12, 0.5), (1.0, 0.5)]),
            (3, RepresentationStructure.upper(3), [(1e-10, 0.5), (1.0, 0.5)]),
            (3, RepresentationStructure.lower(3), [(0.0, 0.5), (1.0 - 1e-11, 0.5)]),
            (5, RepresentationStructure.upper(5), [(0.3, 0.3), (0.3 + 5e-11, 0.3), (1.0, 0.4)]),
            (3, RepresentationStructure.upper(3), [(0.4, 0.0), (1.0, 1.0)]),
            (3, RepresentationStructure.upper(3), [(0.4, 1.1), (1.0, -0.1)]),
        ],
        ids=["signed_zero", "signed_zero_lower", "snapped", "at_snap", "snapped_b", "merged", "zero_weight", "negative"],
    )
    def test_refuses_an_initial_support_the_design_would_move(self, k, structure, initial):
        """Newton's feasible set is the supports that Design keeps: a start
        with an endpoint of the wrong sign, a point within SNAP_REL * L of
        an excluded endpoint or of its neighbour, or a weight that is not
        positive is refused before any step."""
        system = polynomial_system(k, UNIT)
        c0 = MomentPoint(coordinates=tuple(1.0 / (i + 1) for i in range(k)), system=system)
        with pytest.raises(ConfigurationError, match="would move as a Design$"):
            refine_newton(system, c0, structure, initial)

    @pytest.mark.parametrize(
        "k, which, initial",
        [
            (3, "upper", [(0.5, 0.5), (0.9, 0.5)]),
            (3, "lower", [(0.1, 0.5), (0.6, 0.5)]),
            (4, "upper", [(0.1, 0.25), (0.5, 0.5), (1.0, 0.25)]),
            (3, "upper", [(0.0, 0.5), (1.0, 0.5)]),
            (3, "lower", [(0.0, 0.5), (1.0, 0.5)]),
            (4, "lower", [(0.0, 0.5), (0.6, 0.5)]),
        ],
        ids=["included_B_off", "included_A_off", "included_A_off_even", "excluded_A_on", "excluded_B_on",
             "excluded_A_on_even"],
    )
    def test_a_start_whose_ends_break_the_structure_would_move(self, k, which, initial):
        """The feasibility test alone refuses a start whose ends break the
        structure: an end the structure includes must be A or B bit for
        bit, and one it excludes lies at a zero gap from A or B."""
        system = polynomial_system(k, UNIT)
        c0 = MomentPoint(coordinates=tuple(1.0 / (i + 1) for i in range(k)), system=system)
        message = f"initial support {[p for p, _ in initial]} would move as a Design"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            refine_newton(system, c0, tcheb.principal.STRUCTURES[which](k), initial)

    def test_accepts_a_start_just_outside_the_snap_distance(self):
        """2e-7 from an excluded A on [0, 1000] is twice SNAP_REL * L: a start."""
        sys3 = polynomial_system(3, Interval(0.0, 1000.0))
        c0 = MomentPoint(coordinates=(1.0, 500.0, 1e6 / 3.0), system=sys3)
        res = refine_newton(sys3, c0, RepresentationStructure.upper(3), [(2e-7, 0.7), (1000.0, 0.3)])
        assert res.design.points == pytest.approx((1000.0 / 3.0, 1000.0))

    @pytest.mark.parametrize("zero", ["row", "column"])
    def test_a_zero_jacobian_row_or_column_is_singular(self, zero):
        """The singularity test scales J's rows and columns to unit max-norm;
        a zero row (psi_2 = 0) or column (psi' = 0 at the interior point)
        has no such scaling, and is singular, with no floating-point
        warning on the way."""
        ones = np.ones_like
        if zero == "row":
            system = ChebyshevSystem(
                UNIT, 3, lambda xs: np.vstack([ones(xs), xs, 0.0 * xs]),
                lambda xs: np.vstack([0.0 * xs, ones(xs), 0.0 * xs]),
            )
            coords = (1.0, 0.5, 0.0)
        else:
            system = ChebyshevSystem(UNIT, 3, polynomial_system(3, UNIT).evaluator, lambda xs: np.zeros((3, xs.size)))
            coords = (1.0, 0.5, 1.0 / 3.0)
        c0 = MomentPoint(coordinates=coords, system=system)
        with pytest.raises(SingularityError, match="^moment Jacobian is numerically singular"):
            refine_newton(system, c0, RepresentationStructure.upper(3), [(0.3, 0.5), (1.0, 0.5)])

    def test_result_must_meet_the_moment_gate(self, monkeypatch):
        """refine_newton gates its own result: with the Newton tolerance
        loosened, a start 7.5e-5 off the moments passes Newton's test at
        once and is still not returned."""
        monkeypatch.setattr(tcheb.principal, "NEWTON_TOL", 1e-3)
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        with pytest.raises(ConvergenceError, match="^refined design drifted off the moment point$"):
            refine_newton(sys3, c0, RepresentationStructure.upper(3), [(1.0 / 3.0 + 1e-4, 0.75), (1.0, 0.25)])

    def test_structure_unknowns_must_be_k(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        with pytest.raises(ConfigurationError, match="^structure unknowns do not match the system dimension$"):
            refine_newton(sys3, c0, RepresentationStructure(2, True, True), [(0.0, 0.5), (1.0, 0.5)])

    def test_rejects_wrong_point_count(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        bad = [(0.2, 0.3), (0.5, 0.3), (1.0, 0.4)]
        with pytest.raises(ConfigurationError):
            refine_newton(sys3, c0, RepresentationStructure.upper(3), bad)

    def test_rejects_missing_endpoint(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        bad = [(0.2, 0.5), (0.5, 0.5)]
        with pytest.raises(ConfigurationError):
            refine_newton(sys3, c0, RepresentationStructure.upper(3), bad)


@st.composite
def near_endpoint_calls(draw):
    """A call on monomials, k = 3..6, at the moments of a principal
    structure whose support has a point 1e-12 * L to 1e-8 * L from an
    endpoint the structure excludes: ``upper_principal``,
    ``lower_principal``, or ``refine_newton`` from that support with the
    point 0.05 * L from the endpoint."""
    k = draw(st.integers(3, 6))
    a, b = draw(st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (2.0, 1002.0)]))
    length = b - a
    structure, at_a = draw(
        st.sampled_from(
            [
                (s, at_a)
                for s in (RepresentationStructure.upper(k), RepresentationStructure.lower(k))
                for at_a in (True, False)
                if not (s.includes_A if at_a else s.includes_B)
            ]
        )
    )
    offset = length * 10.0 ** draw(st.floats(-12.0, -8.0))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=structure.num_points, max_size=structure.num_points))
    weights = np.array(raw) / sum(raw)
    call = draw(st.sampled_from([upper_principal, lower_principal, refine_newton]))

    def support(gap):
        m = structure.interior_points
        interior = a + length * (np.arange(m) + 0.5) / m
        interior[0 if at_a else -1] = a + gap if at_a else b - gap
        return np.array([a] * structure.includes_A + interior.tolist() + [b] * structure.includes_B)

    system = polynomial_system(k, Interval(a, b))
    c0 = MomentPoint(coordinates=tuple(basis_matrix(system, support(offset)) @ weights), system=system)
    if call is refine_newton:
        return system, lambda: refine_newton(system, c0, structure, list(zip(support(0.05 * length), weights)))
    return system, lambda: call(system, c0)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(near_endpoint_calls())
def test_every_result_keeps_its_structure_and_basis(case):
    """Near an endpoint, every call ends in a typed error or in a result
    whose support has its structure and whose moments are its Design's
    moment point, bit for bit."""
    system, call = case
    try:
        result = call()
    except TchebError:
        return
    design = result.design
    tcheb.principal.check_structure(design.points, design.interval, result.structure, "returned")
    assert result.moments.array().tobytes() == moment_point(system, design).array().tobytes()


@st.composite
def low_index_measures(draw):
    """k = 3..6 and a measure on [0, 1] of index below k/2, endpoints
    allowed: its points and weights."""
    k = draw(st.integers(3, 6))
    ends = sorted(draw(st.sets(st.sampled_from((0.0, 1.0)), max_size=2)))
    most = (k - len(ends) + 1) // 2 - 1  # interior points that keep the index below k/2
    interior = draw(st.lists(st.floats(0.01, 0.99), min_size=0 if ends else 1, max_size=most, unique=True))
    points = tuple(ends + interior)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(points), max_size=len(points)))
    return k, points, tuple(w / sum(weights) for w in weights)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(low_index_measures())
@example((3, (0.3,), (1.0,)))
def test_low_index_moments_get_no_representation_without_its_structure(measure):
    """At a boundary moment point no measure has a principal structure:
    each direction raises a typed error or returns a design that has the
    structure its result carries."""
    k, points, weights = measure
    system = polynomial_system(k, UNIT)
    c0 = moment_point(system, Design(points=points, weights=weights, interval=UNIT))
    for build in (upper_principal, lower_principal):
        try:
            result = build(system, c0)
        except TchebError:
            continue
        design = result.design
        tcheb.principal.check_structure(design.points, design.interval, result.structure, "returned")


class TestPrincipal:
    def test_gauss_rule(self):
        sys4, c0 = uniform_c0(4)
        res = lower_principal(sys4, c0)
        g = 1.0 / np.sqrt(3.0)
        assert res.design.points == pytest.approx((-g, g), abs=1e-9)
        assert res.design.weights == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_lobatto_rule(self):
        sys4, c0 = uniform_c0(4)
        res = upper_principal(sys4, c0)
        assert res.design.points == pytest.approx((-1.0, 0.0, 1.0), abs=1e-9)
        assert res.design.weights == pytest.approx((1 / 6, 2 / 3, 1 / 6), abs=1e-9)

    def test_quadratic_pair(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5, 1.0 / 3.0), system=sys3)
        up = upper_principal(sys3, c0)
        lo = lower_principal(sys3, c0)
        assert up.design.points == pytest.approx((1 / 3, 1.0), abs=1e-9)
        assert lo.design.points == pytest.approx((0.0, 2 / 3), abs=1e-9)

    def test_linear_even_case(self):
        sys2 = polynomial_system(2, UNIT)
        c0 = MomentPoint(coordinates=(1.0, 0.5), system=sys2)
        up = upper_principal(sys2, c0)
        assert up.design.points == pytest.approx((0.0, 1.0), abs=1e-9)
        assert up.design.weights == pytest.approx((0.5, 0.5), abs=1e-9)
        lo = lower_principal(sys2, c0)
        assert lo.design.points == pytest.approx((0.5,), abs=1e-9)

    def test_moment_preservation_random_points(self):
        sys3 = polynomial_system(3, UNIT)
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = np.sort(rng.uniform(0.0, 1.0, 4))
            w = rng.dirichlet(np.ones(4))
            c0 = moment_point(sys3, Design(points=tuple(pts), weights=tuple(w), interval=UNIT))
            for res in (upper_principal(sys3, c0), lower_principal(sys3, c0)):
                back = moment_point(sys3, res.design)
                np.testing.assert_allclose(
                    back.coordinates, c0.coordinates, rtol=1e-9, atol=1e-9
                )

    def test_extremality_against_lp(self):
        sys3 = polynomial_system(3, UNIT)
        d = Design(points=(0.2, 0.5, 0.8), weights=(0.3, 0.4, 0.3), interval=UNIT)
        c0 = moment_point(sys3, d)
        probe = lambda x: x**3
        up = upper_principal(sys3, c0, probe=probe)
        lo = lower_principal(sys3, c0, probe=probe)
        vmax, _ = grid_lp_extremum(sys3, c0, probe, "max")
        vmin, _ = grid_lp_extremum(sys3, c0, probe, "min")
        up_val = float(np.dot(up.design.weights_array(), probe(up.design.points_array())))
        lo_val = float(np.dot(lo.design.weights_array(), probe(lo.design.points_array())))
        assert up_val == pytest.approx(vmax, abs=1e-6)
        assert lo_val == pytest.approx(vmin, abs=1e-6)

    def test_probe_independence(self):
        sys3 = polynomial_system(3, UNIT)
        d = Design(points=(0.15, 0.55, 0.85), weights=(0.25, 0.5, 0.25), interval=UNIT)
        c0 = moment_point(sys3, d)
        for build in (upper_principal, lower_principal):
            r3 = build(sys3, c0, probe=lambda x: x**3)
            r4 = build(sys3, c0, probe=lambda x: x**4)
            np.testing.assert_allclose(r3.design.points, r4.design.points, atol=1e-6)
            np.testing.assert_allclose(r3.design.weights, r4.design.weights, atol=1e-6)

    def test_boundary_point_unique_representation(self):
        """A Dirac moment point is on the moment-space boundary: its one
        representing measure has index 1 < 3/2, so no measure has either
        principal structure, and both directions name that measure."""
        sys3 = polynomial_system(3, UNIT)
        c0 = moment_point(sys3, Design(points=(0.3,), weights=(1.0,), interval=UNIT))
        for build in (upper_principal, lower_principal):
            with pytest.raises(DegeneracyError, match=r"^c0 is a boundary moment point: its LP atoms have index 1\.0 "
                               r"< k/2 = 1\.5 and \[0\.3\] represents it"):
                build(sys3, c0)

    def test_boundary_point_drops_a_round_off_atom(self):
        """The merged LP atoms of a boundary point can carry a third atom
        of weight about 2e-13 (at -0.833 here); it is not a support point,
        so neither direction names it."""
        theta = (1.0, 0.5, -0.5, 0.25)
        system = psi_system(make_model("polynomial", theta, (-1.0, 1.0)), theta).system
        xi = Design(points=(-1.0, 0.5), weights=(6 / 7, 1 / 7), interval=SYM)
        for build in (upper_principal, lower_principal):
            with pytest.raises(DegeneracyError, match=r"index 2\.5 < k/2 = 3\.0 and \[-1\.0, 0\.5[0-9]*\] represents it"):
                build(system, moment_point(system, xi))

    @pytest.mark.parametrize("build", [upper_principal, lower_principal])
    def test_boundary_point_without_the_structure_is_named(self, build):
        """The moments of {0: 1/2, 1: 1/2} on [0, 1] at k = 3: the merged LP
        atoms are as many as either structure wants, so Newton runs and
        fails, but they have index 1 < 3/2 and meet the gate, so the call
        names the boundary rather than Newton's stall."""
        sys3 = polynomial_system(3, UNIT)
        with pytest.raises(DegeneracyError, match=r"^c0 is a boundary moment point: its LP atoms have index 1\.0 "
                           r"< k/2 = 1\.5 and \[0\.0, 1\.0\] represents it") as err:
            build(sys3, MomentPoint(coordinates=(1.0, 0.5, 0.5), system=sys3))
        assert isinstance(err.value.__cause__, ConvergenceError)

    def test_boundary_point_with_a_round_off_atom_is_named_in_the_lower_direction(self):
        """The lower call on the moments of {-1: 6/7, 0.5: 1/7} keeps the
        round-off atom through the count, so Newton runs on a singular
        system; the merged atoms' index 2.5 < 3 and the gate on (-1, 0.5)
        name the boundary instead."""
        theta = (1.0, 0.5, -0.5, 0.25)
        system = psi_system(make_model("polynomial", theta, (-1.0, 1.0)), theta).system
        xi = Design(points=(-1.0, 0.5), weights=(6 / 7, 1 / 7), interval=SYM)
        with pytest.raises(DegeneracyError, match=r"index 2\.5 < k/2 = 3\.0 and \[-1\.0, 0\.5") as err:
            lower_principal(system, moment_point(system, xi))
        assert isinstance(err.value.__cause__, SingularityError)

    def test_boundary_refusal_on_a_signed_zero_end(self):
        """On [-0.0, 1] the grid starts at A's own -0.0, so the support a
        boundary refusal names keeps A's -0.0, in both directions."""
        sys4 = polynomial_system(4, Interval(-0.0, 1.0))
        c0 = MomentPoint(coordinates=(1.0, 0.25, 0.125, 0.0625), system=sys4)
        for build in (upper_principal, lower_principal):
            with pytest.raises(DegeneracyError, match=r"index 1\.5 < k/2 = 2\.0 and \[-0\.0, 0\.5\] represents it"):
                build(sys4, c0)

    def test_one_lp_per_call(self, monkeypatch):
        """No retry: a principal call solves at most one moment LP.  Given
        x^k, which seeds the lower representation of the exponential psi
        system, it solves one; with no probe the k = 3 scalar root seeds
        Newton and no LP runs, for the same representation."""
        theta = (1.0, -1.0)
        system = psi_system(make_model("exponential", theta, (0.0, 3.0)), theta).system
        xi = Design(
            points=tuple((i + 0.5) * 3 / 8 for i in range(8)), weights=(0.125,) * 8, interval=Interval(0.0, 3.0)
        )
        calls = []
        real = tcheb.principal._solve_grid_lp

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tcheb.principal, "_solve_grid_lp", spy)
        lo = lower_principal(system, moment_point(system, xi), lambda x: x * x * x)
        assert len(calls) == 1
        assert (lo.design.points, lo.path) == ((0.0, 1.3300912578617015), "lp")
        root = lower_principal(system, moment_point(system, xi))
        assert len(calls) == 1 and root.path == "root"
        np.testing.assert_allclose(root.design.points, lo.design.points, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(root.design.weights, lo.design.weights, rtol=0.0, atol=1e-9)

    def test_structure_compliance(self):
        rng = np.random.default_rng(41)
        for k in (3, 4, 5):
            sys_k = polynomial_system(k, SYM)
            pts = np.sort(rng.uniform(-1.0, 1.0, k + 2))
            w = rng.dirichlet(np.ones(k + 2))
            c0 = moment_point(sys_k, Design(points=tuple(pts), weights=tuple(w), interval=SYM))
            up = upper_principal(sys_k, c0)
            s = RepresentationStructure.upper(k)
            assert up.design.size == s.num_points
            assert (1.0 in up.design.points) == s.includes_B
            assert (-1.0 in up.design.points) == s.includes_A
            lo = lower_principal(sys_k, c0)
            s = RepresentationStructure.lower(k)
            assert lo.design.size == s.num_points
            assert (-1.0 in lo.design.points) == s.includes_A
            assert (1.0 in lo.design.points) == s.includes_B


# A spread measure on [-1, 1] of index 9, interior at every k below 18.
SPREAD = Design(
    points=(-0.95, -0.7, -0.4, -0.15, 0.05, 0.3, 0.5, 0.75, 0.9),
    weights=(0.05, 0.1, 0.15, 0.1, 0.2, 0.1, 0.1, 0.12, 0.08),
    interval=SYM,
)


def mp_representation(c0, structure, start):
    """The solution near ``start`` (a PrincipalResult) of the moment
    equations sum_j w_j x_j^i = c0_i of the structure on [-1, 1], by
    mpmath ``findroot`` at 50 digits on c0's doubles taken exactly: its
    points and weights as floats."""
    with mpmath.workdps(50):
        c = [mpmath.mpf(v) for v in c0.coordinates]
        lo, hi = [mpmath.mpf(-1)] * structure.includes_A, [mpmath.mpf(1)] * structure.includes_B
        free = slice(int(structure.includes_A), structure.num_points - int(structure.includes_B))
        n_inner = structure.interior_points

        def residual(*unknowns):
            points = lo + list(unknowns[:n_inner]) + hi
            weights = unknowns[n_inner:]
            return [mpmath.fsum(w * x**i for x, w in zip(points, weights)) - c_i for i, c_i in enumerate(c)]

        x0 = list(start.design.points[free]) + list(start.design.weights)
        root = mpmath.findroot(residual, [mpmath.mpf(v) for v in x0], tol=mpmath.mpf(10) ** -45)
        root = list(root) if isinstance(root, mpmath.matrix) else [root]
        points = [float(v) for v in lo + root[:n_inner] + hi]
        return points, [float(v) for v in root[n_inner:]]


class TestGaussSeed:
    """Without a probe, ``polynomial_system``'s principal representations
    start Newton from the Gauss, Radau or Lobatto rule of c0, and only a
    seed that breaks down, fails Newton or leaves a round-off weight
    reaches the moment LP."""

    @staticmethod
    def lp_calls(monkeypatch):
        calls = []
        real = tcheb.principal._solve_grid_lp

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tcheb.principal, "_solve_grid_lp", spy)
        return calls

    @pytest.mark.parametrize("measure", ["uniform", "spread"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_rules_match_a_50_digit_reference(self, k, measure):
        """Points and weights within 1e-12 of the mpmath solution of the
        moment equations with the structure, in both directions."""
        sys_k, c0 = uniform_c0(k)
        if measure == "spread":
            c0 = moment_point(sys_k, SPREAD)
        for which, build in (("upper", upper_principal), ("lower", lower_principal)):
            result = build(sys_k, c0)
            points, weights = mp_representation(c0, tcheb.principal.STRUCTURES[which](k), result)
            np.testing.assert_allclose(result.design.points, points, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(result.design.weights, weights, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k", range(4, 9))
    def test_no_probe_solves_no_lp(self, monkeypatch, k):
        calls = self.lp_calls(monkeypatch)
        sys_k = polynomial_system(k, SYM)
        for c0 in (uniform_c0(k)[1], moment_point(sys_k, SPREAD)):
            upper_principal(sys_k, c0)
            lower_principal(sys_k, c0)
        assert calls == []

    @pytest.mark.parametrize(
        "coords,error,message",
        [
            (
                (1.0, 0.25, 0.125, 0.0625),
                DegeneracyError,
                r"^c0 is a boundary moment point: its LP atoms have index 1\.5 < k/2 = 2\.0 and \[0\.0, 0\.5\] "
                r"represents it, so no representation has the {which} structure$",
            ),
            (
                (1.0, 0.5, 0.6, 0.5),
                InfeasibleError,
                r"^no nonnegative solution matches the constraints \(residual 1\.000e-01\)$",
            ),
        ],
        ids=["boundary", "infeasible"],
    )
    @pytest.mark.parametrize("route", ["seed", "probe", "replaced"])
    def test_the_lp_decides_what_the_seed_cannot(self, monkeypatch, route, coords, error, message):
        """A boundary or infeasible c0 on [0, 1] at k = 4 raises the LP
        path's error after one LP, whether the Gauss seed fails first, a
        probe is given, or ``dataclasses.replace`` gave the system another
        evaluator."""
        sys4 = polynomial_system(4, UNIT)
        probe = None
        if route == "probe":
            probe = lambda x: x**4  # noqa: E731 - the default objective, given
        elif route == "replaced":
            plain = sys4.evaluator
            sys4 = dataclasses.replace(sys4, evaluator=lambda xs: plain(xs))
        c0 = MomentPoint(coordinates=coords, system=sys4)
        for which, build in (("upper", upper_principal), ("lower", lower_principal)):
            calls = self.lp_calls(monkeypatch)
            with pytest.raises(error, match=message.format(which=which)):
                build(sys4, c0, probe)
            assert len(calls) == 1

    def test_a_seed_with_a_round_off_weight_goes_to_the_lp(self, monkeypatch):
        """At the boundary point of {-1: 1/2, 0.3: 1/2}, k = 4, Newton from
        the Lobatto rule meets the gate with about 4e-17 at B: a boundary
        support plus round-off, so the LP decides, as it did before the
        seed."""
        calls = self.lp_calls(monkeypatch)
        seeded = []
        real = tcheb.principal.refine_newton

        def spy(*args):
            seeded.append(real(*args))
            return seeded[-1]

        monkeypatch.setattr(tcheb.principal, "refine_newton", spy)
        sys4 = polynomial_system(4, SYM)
        c0 = moment_point(sys4, Design(points=(-1.0, 0.3), weights=(0.5, 0.5), interval=SYM))
        with pytest.raises(DegeneracyError, match=r"^c0 is a boundary moment point: its LP atoms have index 1\.5 "):
            upper_principal(sys4, c0)
        assert 0.0 < min(seeded[0].design.weights) <= tcheb.principal.ROUNDOFF_WEIGHT
        assert len(calls) == 1


# Probes whose evaluation on the LP grid of [0, 1] fails: numpy arithmetic
# that overflows, divides by zero or is invalid, and scalar-only math
# callables that raise OverflowError or ValueError themselves.
BAD_PROBES = {
    "overflow": (lambda x: np.exp(1000.0 * x), "overflow encountered in exp"),
    "divide": (lambda x: 1.0 / x, "divide by zero"),
    "log": (lambda x: np.log(x - 0.5), "(divide by zero|invalid value) encountered in log"),
    "math_overflow": (lambda x: math.exp(1000.0 * x), "math range error"),
    "math_domain": (lambda x: math.log(x - 0.5), "math domain error"),
}


@pytest.mark.parametrize("name", BAD_PROBES)
@pytest.mark.parametrize("call", ["upper_principal", "lower_principal", "classify_point"])
def test_a_failing_probe_is_an_evaluation_error(call, name):
    probe, message = BAD_PROBES[name]
    sys3 = polynomial_system(3, UNIT)
    c0 = moment_point(sys3, Design(points=(0.15, 0.55, 0.85), weights=(0.25, 0.5, 0.25), interval=UNIT))
    run = {"upper_principal": upper_principal, "lower_principal": lower_principal, "classify_point": classify_point}
    with pytest.raises(EvaluationError, match=f"^objective evaluation: {message}"):
        run[call](sys3, c0, probe)


def refine_newton_from_the_ends(system, c0):
    """Newton from the upper structure's two endpoint atoms."""
    a, b = system.interval.lower, system.interval.upper
    return refine_newton(system, c0, RepresentationStructure.upper(2), [(a, 0.5), (b, 0.5)])


@pytest.mark.parametrize("coords", [(1e-10, 0.0), (1e-10, 5e-11), (2.0, 1.0)])
@pytest.mark.parametrize("build", [upper_principal, lower_principal, refine_newton_from_the_ends])
def test_zeroth_moment_off_one_is_refused_before_the_lp(monkeypatch, build, coords):
    """psi_0 = 1 makes c0[0] the total weight of every representing
    measure; one farther than 1e-9 from 1 is refused by name, not after
    the LP and Newton as a weight sum the caller never gave."""
    system = polynomial_system(2, Interval(0.0, 1.0))
    monkeypatch.setattr(tcheb.principal, "_lp_arrays", None)
    monkeypatch.setattr(tcheb.principal, "_solve_grid_lp", None)
    with pytest.raises(ConfigurationError, match=rf"^zeroth moment c0\[0\] = {coords[0]!r} is not 1"):
        build(system, MomentPoint(coordinates=coords, system=system))


class TestGridCache:
    """The moment LP's grid, basis and objective row: ``reduce_design``
    takes them from its gate entry, which evaluates psi over h_tail on the
    grid once per key; every other call evaluates its grid afresh."""

    @staticmethod
    def grid_evaluations(monkeypatch):
        """Records the points of every grid-sized basis evaluation."""
        calls = []
        real = tcheb.principal._basis_matrix

        def record(system, xs):
            if np.size(xs) == tcheb.principal.DEFAULT_GRID:
                calls.append(np.array(xs))
            return real(system, xs)

        monkeypatch.setattr(tcheb.principal, "_basis_matrix", record)
        return calls

    @staticmethod
    def counting_model(name, theta, iv):
        """The catalog model, and the list of the sizes of its gradient's
        point sets: h is evaluated wherever the gradient is."""
        model = make_model(name, theta, iv)
        sizes = []
        gradient = model.gradient

        def counting(xs, th):
            sizes.append(np.size(xs))
            return gradient(xs, th)

        return dataclasses.replace(model, gradient=counting), sizes

    def test_repeat_key_makes_no_grid_evaluation(self, monkeypatch):
        calls = self.grid_evaluations(monkeypatch)
        model, sizes = self.counting_model("michaelis_menten", (1.0, 1.0), (0.0, 10.0))
        for points in ((1.0, 3.0, 5.0, 7.0, 9.0), (0.5, 2.0, 4.5, 8.0)):
            n = len(points)
            xi = Design(points=points, weights=(1.0 / n,) * n, interval=Interval(0.0, 10.0))
            assert reduce_design(model, (1.0, 1.0), xi, "upper").branch == "OddCase"
        assert sizes.count(tcheb.principal.DEFAULT_GRID) == 1
        assert calls == []

    @pytest.mark.parametrize(
        "name,theta,iv,direction",
        [("michaelis_menten", (1.0, 1.0), (0.0, 10.0), "upper"), ("exponential", (1.0, -1.0), (0.0, 3.0), "lower")],
    )
    def test_gate_entry_arrays_equal_a_fresh_evaluation(self, name, theta, iv, direction):
        """V and the objective row are basis_matrix's and +-psi_k^Q's at
        Q = (1,), p1 = 1, bit for bit."""
        model = make_model(name, theta, iv)
        psi, (grid, V, row) = tcheb.reduction._gated_psi(model, np.array(theta).tobytes(), direction, 0)
        assert grid.tobytes() == np.linspace(*iv, tcheb.principal.DEFAULT_GRID).tobytes()
        assert V.tobytes() == basis_matrix(psi.system, grid).tobytes()
        probe = psi_k_Q(psi, (1.0,))(grid)
        assert row.tobytes() == (probe if direction == "upper" else -probe).tobytes()

    def test_hit_equals_a_cold_call(self):
        model = make_model("exponential3", (1.0, 1.0, -1.0), (0.0, 3.0))
        xi = Design(points=tuple(np.linspace(0.1, 2.9, 8)), weights=(0.125,) * 8, interval=Interval(0.0, 3.0))
        cold = reduce_design(model, (1.0, 1.0, -1.0), xi, "lower")
        warm = reduce_design(model, (1.0, 1.0, -1.0), xi, "lower")
        assert tcheb.reduction._gated_psi.cache_info().hits == 1
        tcheb.reduction._gated_psi.cache_clear()
        again = reduce_design(model, (1.0, 1.0, -1.0), xi, "lower")
        assert cold.branch == "OddCase"

        def payload(r):
            # A cold entry's psi system holds new function objects.
            return r.output, r.moments_out.coordinates, r.gain_spectrum, r.difference_spectrum

        assert payload(warm) == payload(cold) == payload(again)

    def test_each_call_evaluates_its_grid(self, monkeypatch):
        """Principal calls keep no memo, so each call on a system with an
        unhashable evaluator evaluates its grid, the two LP-seeded designs
        are equal, and they match the Gauss-seeded design of the
        ``polynomial_system`` to 1e-9."""
        calls = self.grid_evaluations(monkeypatch)
        sys4, c0 = uniform_c0(4)

        class Evaluator:
            """Compares by value and so, lacking __hash__, is unhashable."""

            def __call__(self, xs):
                return sys4.evaluator(xs)

            def __eq__(self, other):
                return isinstance(other, Evaluator)

        unhashable = dataclasses.replace(sys4, evaluator=Evaluator())
        reps = [upper_principal(unhashable, c0) for _ in range(2)]
        assert len(calls) == 2
        assert reps[0].design == reps[1].design
        want = upper_principal(sys4, c0).design
        assert len(calls) == 2
        assert reps[0].design.points == pytest.approx(want.points, abs=1e-9)
        assert reps[0].design.weights == pytest.approx(want.weights, abs=1e-9)

    def test_a_raising_probe_raises_again(self):
        sys3 = polynomial_system(3, UNIT)
        c0 = moment_point(sys3, Design(points=(0.15, 0.55, 0.85), weights=(0.25, 0.5, 0.25), interval=UNIT))
        seen = []

        def probe(x):
            seen.append(1)
            return 1.0 / x

        for _ in range(2):
            with pytest.raises(EvaluationError, match="^objective evaluation: divide by zero"):
                upper_principal(sys3, c0, probe)
        assert len(seen) == 2

    def test_cached_arrays_are_read_only(self):
        model = make_model("michaelis_menten", (1.0, 1.0), (0.0, 10.0))
        xi = Design(points=(1.0, 4.0, 9.0), weights=(0.25, 0.5, 0.25), interval=Interval(0.0, 10.0))
        reduce_design(model, (1.0, 1.0), xi, "upper")
        _, arrays = tcheb.reduction._gated_psi(model, np.array([1.0, 1.0]).tobytes(), "upper", 0)
        assert tcheb.reduction._gated_psi.cache_info().hits == 1
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_classify_point_evaluates_the_grid_basis_once(self, monkeypatch):
        """At a boundary point, where no seeded representation exists, the
        LPs run on one grid evaluation of the basis and of the probe."""
        calls = self.grid_evaluations(monkeypatch)
        sys4, c0 = boundary_c0()
        probed = []

        def probe(x):
            probed.append(np.size(x))
            return np.asarray(x) ** 4

        for _ in range(2):
            calls.clear()
            probed.clear()
            assert classify_point(sys4, c0, probe).classification == "Boundary"
            assert len(calls) == 1
            assert probed == [tcheb.principal.DEFAULT_GRID]

    @pytest.mark.parametrize("k", range(4, 9))
    def test_an_interior_point_evaluates_no_grid(self, monkeypatch, k):
        """An interior c0 takes both gammas from ``_represent``'s two
        representations: no grid, no LP, one probe evaluation on both
        supports, and each gamma the fsum of probe times weight."""
        calls = self.grid_evaluations(monkeypatch)
        monkeypatch.setattr(tcheb.principal, "_solve_grid_lp", None)
        sys_k, c0 = uniform_c0(k)
        probed = []

        def probe(x):
            probed.append(np.size(x))
            return np.asarray(x) ** k

        rep = classify_point(sys_k, c0, probe)
        upper, lower = (tcheb.principal._represent(sys_k, c0, which).design for which in ("upper", "lower"))
        assert rep.classification == "Interior"
        assert calls == []
        assert probed == [upper.size + lower.size]
        for gamma, design in ((rep.gamma_upper, upper), (rep.gamma_lower, lower)):
            values = probe(design.points_array()).tolist()
            assert gamma == math.fsum(v * w for v, w in zip(values, design.weights))


K5 = (1.0, 0.0, 1.0 / 3.0, 0.0, 0.2)


# Every entry point that takes a moment point, as call(system, c0).
ENTRY_POINTS = pytest.mark.parametrize(
    "call",
    [
        lambda system, c0: grid_lp_extremum(system, c0, lambda x: x**4),
        upper_principal,
        lower_principal,
        lambda system, c0: classify_point(system, c0, lambda x: x**4),
        lambda system, c0: refine_newton(
            system, c0, RepresentationStructure.lower(4), [(-0.5, 0.5), (0.5, 0.5)]
        ),
    ],
    ids=["grid_lp_extremum", "upper_principal", "lower_principal", "classify_point", "refine_newton"],
)


@ENTRY_POINTS
def test_moment_point_of_the_wrong_dimension_is_refused(monkeypatch, call):
    """A k = 5 moment point on a k = 4 system is a ConfigurationError at
    every entry point, never a numpy shape error, and before any grid is
    evaluated: ``check_arguments`` holds the one size check."""
    sys4 = polynomial_system(4, SYM)
    monkeypatch.setattr(tcheb.principal, "_lp_arrays", None)
    with pytest.raises(ConfigurationError, match="^moment point dimension does not match the system$"):
        call(sys4, MomentPoint(coordinates=K5, system=polynomial_system(5, SYM)))


@ENTRY_POINTS
def test_moment_point_with_no_coordinates_is_refused(call):
    """An empty moment point is refused at construction, as a system with
    k = 0 is, so no entry point meets it as an IndexError or numpy error."""
    sys4 = polynomial_system(4, SYM)
    with pytest.raises(ConfigurationError, match="^a moment point needs at least one coordinate$"):
        call(sys4, MomentPoint(coordinates=(), system=sys4))


@ENTRY_POINTS
@pytest.mark.parametrize(
    "bad,message",
    [
        ("system", r"^system must be a ChebyshevSystem, got str$"),
        ("c0", r"^c0 must be a MomentPoint, got tuple$"),
        ("both", r"^system must be a ChebyshevSystem, got str$"),
    ],
)
def test_an_argument_of_the_wrong_type_is_refused_by_name(call, bad, message):
    """A system that is not a ChebyshevSystem, or a c0 that is not a
    MomentPoint (here its coordinates), is refused first, by name and
    type, never met as an AttributeError; the system is checked first."""
    sys4, c0 = uniform_c0(4)
    system = "sys4" if bad in ("system", "both") else sys4
    point = c0.coordinates if bad in ("c0", "both") else c0
    with pytest.raises(ConfigurationError, match=message):
        call(system, point)


class TestClassifyLP:
    """Where no seeded representation exists, as at a boundary point,
    classify_point solves its max and min moment LPs on one phase one."""

    def test_one_phase_one_and_the_one_sense_gammas(self, monkeypatch):
        sys4, c0 = boundary_c0()
        phases = []
        real = tcheb.simplex._phase_one

        def spy(*args):
            phases.append(args)
            return real(*args)

        monkeypatch.setattr(tcheb.simplex, "_phase_one", spy)
        rep = classify_point(sys4, c0, lambda x: x**4)
        assert len(phases) == 1
        _, V, obj = tcheb.principal._lp_arrays(sys4, lambda x: x**4)
        slack = 1e-6 * max(1.0, max(abs(v) for v in c0.coordinates))
        want = [tcheb.simplex.solve_lp(V, c0.array(), obj, sense, slack).value for sense in ("max", "min")]
        assert len(phases) == 3
        assert rep.classification == "Boundary"
        assert [rep.gamma_upper, rep.gamma_lower] == want

    def test_a_probe_that_reverses_the_representations_takes_the_lp(self):
        """-x^4 does not augment the monomials, so the upper representation
        minimizes its moment: gammas in the wrong order send classify_point
        to the LPs, which read the interval of x^4 negated, not a
        Boundary verdict from the reversed pair."""
        sys4, c0 = uniform_c0(4)
        plus = classify_point(sys4, c0, lambda x: x**4)
        minus = classify_point(sys4, c0, lambda x: -(x**4))
        _, V, obj = tcheb.principal._lp_arrays(sys4, lambda x: -(x**4))
        want = [tcheb.simplex.solve_lp(V, c0.array(), obj, sense, 1e-6).value for sense in ("max", "min")]
        assert minus.classification == "Interior"
        assert [minus.gamma_upper, minus.gamma_lower] == want
        assert want == pytest.approx([-plus.gamma_lower, -plus.gamma_upper], abs=1e-4)

    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_an_unbounded_sense_is_a_convergence_error(self, monkeypatch, sense):
        """psi_0 = 1 bounds every moment LP, so a simplex that reports one
        unbounded, in either sense, met round-off."""
        real = tcheb.simplex._phase_two

        def phase_two(tableau, A, b, c, which, feas_tol):
            if which == sense:
                raise tcheb.errors.UnboundedError("unbounded linear program")
            return real(tableau, A, b, c, which, feas_tol)

        monkeypatch.setattr(tcheb.simplex, "_phase_two", phase_two)
        sys4, c0 = boundary_c0()
        with pytest.raises(ConvergenceError, match="^round-off made the moment LP unbounded: its rows span "):
            classify_point(sys4, c0, lambda x: x**4)
