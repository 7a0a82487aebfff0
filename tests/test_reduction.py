import dataclasses
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigvalsh

import tcheb
from tcheb import (
    Design,
    Interval,
    criterion_value,
    information_matrix,
    make_model,
    optimize_in_class,
    reduce_design,
    verify_domination,
)
from tcheb.cli import _reduce_payload
from tcheb.errors import (
    ConfigurationError,
    ConvergenceError,
    DegeneracyError,
    PreconditionError,
    TchebError,
)
from tcheb.reduction import _sphere_directions

MM_IV = (0.0, 10.0)


def mm():
    return make_model("michaelis_menten", [1.0, 1.0], MM_IV)


def uniform(points, interval):
    n = len(points)
    return Design(points=tuple(points), weights=(1.0 / n,) * n, interval=Interval(*interval))


class TestReduce:
    def test_identity_branch_low_index(self):
        # one interior point: index 1 < k/2 = 1.5
        xi = Design(points=(2.0,), weights=(1.0,), interval=Interval(*MM_IV))
        rep = reduce_design(mm(), [1.0, 1.0], xi, "upper")
        assert rep.branch == "Identity"
        assert rep.output is rep.input
        assert rep.output.points == xi.points
        assert rep.output.weights == xi.weights
        assert all(g == 0.0 for _, g in rep.q_checks)

    def test_mm_eight_point_upper(self):
        xi = uniform(range(1, 9), MM_IV)
        rep = reduce_design(mm(), [1.0, 1.0], xi, "upper")
        assert rep.branch == "OddCase"
        assert rep.input_index.value == 8
        assert rep.output.size <= 2
        assert 10.0 in rep.output.points
        np.testing.assert_allclose(
            rep.moments_out.coordinates, rep.moments_in.coordinates, rtol=1e-8, atol=1e-10
        )
        M = information_matrix(mm(), [1.0, 1.0], xi)
        norm = float(np.max(np.abs(eigvalsh(M))))
        assert rep.loewner_min_eigenvalue >= -1e-8 * max(1.0, norm)
        assert all(g >= -1e-9 for _, g in rep.q_checks)

    def test_mm_lower_refused(self):
        # the negated last function breaks the determinant condition here
        xi = uniform(range(1, 9), MM_IV)
        with pytest.raises(PreconditionError):
            reduce_design(mm(), [1.0, 1.0], xi, "lower")

    def test_exponential_lower_contains_a(self):
        theta = [1.0, -1.0]
        model = make_model("exponential", theta, (0.0, 3.0))
        xi = uniform(np.linspace(0.2, 2.8, 6), (0.0, 3.0))
        rep = reduce_design(model, theta, xi, "lower")
        assert rep.branch == "OddCase"
        # k = 3 odd: lower representation has 2 points including A
        assert rep.output.size <= 2
        assert 0.0 in rep.output.points
        assert all(g >= -1e-9 for _, g in rep.q_checks)
        dom = verify_domination(model, theta, rep.output, xi)
        assert dom.dominates

    def test_exponential3_upper_positive_rate(self):
        theta = [1.0, 1.0, 1.0]
        model = make_model("exponential3", theta, (0.0, 3.0))
        xi = uniform(np.linspace(0.0, 3.0, 7), (0.0, 3.0))
        rep = reduce_design(model, theta, xi, "upper")
        assert rep.branch == "OddCase"
        assert rep.output.size <= 3
        assert 3.0 in rep.output.points
        np.testing.assert_allclose(
            rep.moments_out.coordinates, rep.moments_in.coordinates, rtol=1e-8, atol=1e-10
        )

    def test_exponential3_lower_negative_rate(self):
        theta = [1.0, 1.0, -1.0]
        model = make_model("exponential3", theta, (0.0, 3.0))
        xi = uniform(np.linspace(0.0, 3.0, 7), (0.0, 3.0))
        rep = reduce_design(model, theta, xi, "lower")
        assert rep.branch == "OddCase"
        assert rep.output.size <= 3
        assert 0.0 in rep.output.points
        dom = verify_domination(model, theta, rep.output, xi)
        assert dom.dominates

    def test_exponential3_upper_negative_rate_refused(self):
        """With a negative rate the augmented determinants are negative, so
        the upper branch must fail its precondition."""
        theta = [1.0, 1.0, -1.0]
        model = make_model("exponential3", theta, (0.0, 3.0))
        xi = uniform(np.linspace(0.0, 3.0, 7), (0.0, 3.0))
        with pytest.raises(PreconditionError):
            reduce_design(model, theta, xi, "upper")

    def test_polynomial_lower_refused(self):
        """-x^{2d} cannot be the last function of a positive-determinant
        system, so the lower branch is never valid for the polynomial model."""
        theta = [0.0, 1.0, 1.0]
        model = make_model("polynomial", theta, (-1.0, 1.0))
        xi = uniform(np.linspace(-1.0, 1.0, 6), (-1.0, 1.0))
        with pytest.raises(PreconditionError):
            reduce_design(model, theta, xi, "lower")

    def test_polynomial_upper_even_case(self):
        theta = [0.0, 1.0, 1.0]
        model = make_model("polynomial", theta, (-1.0, 1.0))
        xi = uniform(np.linspace(-1.0, 1.0, 6), (-1.0, 1.0))
        rep = reduce_design(model, theta, xi, "upper")
        assert rep.branch == "EvenCase"
        # k = 4 even: at most (k+2)/2 = 3 points, both endpoints in support
        assert rep.output.size <= 3
        assert -1.0 in rep.output.points
        assert 1.0 in rep.output.points

    def test_idempotence(self):
        xi = uniform(range(1, 9), MM_IV)
        first = reduce_design(mm(), [1.0, 1.0], xi, "upper")
        second = reduce_design(mm(), [1.0, 1.0], first.output, "upper")
        np.testing.assert_allclose(second.output.points, first.output.points, atol=1e-8)
        np.testing.assert_allclose(second.output.weights, first.output.weights, atol=1e-8)

    def test_direction_validation(self):
        xi = uniform(range(1, 9), MM_IV)
        with pytest.raises(ConfigurationError):
            reduce_design(mm(), [1.0, 1.0], xi, "sideways")

    @pytest.mark.parametrize(
        "points,weights",
        [
            ((2e-7, 5e-7, 10.0 - 3e-7), (0.3, 0.3, 0.4)),
            ((1e-7, 4e-7, 8e-7), (0.2, 0.3, 0.5)),
        ],
    )
    def test_output_keeps_structure_or_raises(self, points, weights):
        # Mass crowded at A: the principal solver can land on a support
        # that breaks the upper structure (2 points, B but not A).  Such
        # an output must be refused, not returned.
        xi = Design(points=points, weights=weights, interval=Interval(*MM_IV))
        try:
            out = reduce_design(mm(), [1.0, 1.0], xi, "upper").output
        except TchebError:
            return
        assert (out.size, out.points[0] == MM_IV[0], out.points[-1] == MM_IV[1]) == (2, False, True)

    def test_negative_lp_vertex_is_a_convergence_error(self):
        # An endpoint design from the reduce_repeat census at seed 7: the grid LP
        # ends on a vertex with a weight of -3.6e-6.  Wrapped in a Design,
        # that vertex raised "ConfigurationError: design weights sum to
        # 1.0000036...", an internal failure reported as bad input.
        model = make_model("exponential3", [1.0, 1.0, -1.0], (0.0, 3.0))
        xi = Design(
            points=(2.0113061511974405e-07, 2.9999997568690207, 2.9999998979261564),
            weights=(0.04061384375326558, 0.015307798923908681, 0.9440783573228257),
            interval=Interval(0.0, 3.0),
        )
        with pytest.raises(ConvergenceError, match="simplex vertex is negative"):
            reduce_design(model, [1.0, 1.0, -1.0], xi, "lower")

    def test_unrefined_cluster_support_is_refused(self):
        # A 21-point cluster design from the reduce_sweep census at seed 7
        # (30 designs per case and family).  Newton cannot refine its LP
        # support, which came back unrefined with moments 4.75e-7 off the
        # input's, silently wrong.
        theta = [1.0, 1.0, -0.6977809699133077]
        model = make_model("exponential3", theta, (0.0, 3.0))
        xi = Design(
            points=(
                0.35762533963061754, 0.35847080210969967, 0.35907998526127716,
                0.3594224447113318, 0.35959305160962407, 0.3601122049408114,
                0.3603343604750677, 0.3603981229331111, 0.3605193599636449,
                0.36093029469257726, 0.36145552759339333, 0.36171208781984787,
                0.36190599531035506, 0.36252224608951655, 0.36257690693043054,
                0.362685927072149, 0.36304859471601625, 0.3649471801965093,
                0.3653452627891988, 0.36614707592289997, 0.3683060821218851,
            ),
            weights=(
                0.00016317494821355995, 0.015341624648516485, 0.002643993038261281,
                0.001489625559967618, 0.007615928514714241, 0.004525956443043756,
                0.00010424684274015264, 0.002454816032865488, 0.012833185775430937,
                2.5534760941855274e-06, 0.049385196135999614, 0.045195730589974614,
                0.1012497318595053, 0.5094865777504166, 0.18313776932965548,
                0.042358802702057205, 0.00024535504940214443, 4.5656810652898024e-05,
                0.013227820547301731, 0.00848836943713322, 3.88450805353659e-06,
            ),
            interval=Interval(0.0, 3.0),
        )
        with pytest.raises(TchebError):
            reduce_design(model, theta, xi, "lower")

    def test_lp_vertex_is_not_validated_as_a_user_design(self):
        # A 14-point cluster design from the reduce_repeat census at seed 7.
        # Its grid-LP vertex has a weight of -1.2e-9; wrapped in a Design it
        # raised "ConfigurationError: design weights sum to
        # 1.0000000012348795", an internal failure reported as bad input.
        model = make_model("exponential3", [1.0, 1.0, -1.0], (0.0, 3.0))
        xi = Design(
            points=(
                0.5300717987266395, 0.5321072051627987, 0.5328150762716619,
                0.5350023437688594, 0.5357336134960322, 0.5378918280763965,
                0.5385018177588734, 0.5387486788356209, 0.53909590695261,
                0.539746348567629, 0.5404000683012042, 0.5407952242101265,
                0.5411782951818572, 0.5422536967689977,
            ),
            weights=(
                6.994200426171696e-06, 0.0038182263818298005, 0.0020862848631988855,
                0.023100882401203036, 0.007266392315661315, 0.03038169045610472,
                0.24254787185253493, 0.18325816273960727, 3.6846840287069347e-06,
                0.08561379500703231, 0.00022395189441846872, 0.0030510834357340066,
                0.41745276807417625, 0.0011882116940442372,
            ),
            interval=Interval(0.0, 3.0),
        )
        with pytest.raises(TchebError) as err:
            reduce_design(model, [1.0, 1.0, -1.0], xi, "lower")
        assert not isinstance(err.value, ConfigurationError)



@pytest.fixture
def checks(monkeypatch):
    """Records every determinant check that reduce_design's gate runs."""
    calls = []
    real = tcheb.reduction.check_chebyshev

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tcheb.reduction, "check_chebyshev", counting)
    return calls


class TestGateCache:
    """The gate (base check plus one augmented check at p1 = 1) runs once
    per (model, theta, direction, seed, check_grid, check_tuples) key."""

    def test_repeat_key_skips_the_gate(self, checks):
        model = mm()
        reduce_design(model, [1.0, 1.0], uniform(range(1, 9), MM_IV), "upper")
        assert len(checks) == 2
        rep = reduce_design(model, (1.0, 1.0), uniform([1.0, 4.0, 9.0], MM_IV), "upper")
        assert len(checks) == 2
        assert rep.branch == "OddCase"

    @pytest.mark.parametrize(
        "change",
        [
            {"model": mm()},
            {"theta": [1.0, float(np.nextafter(1.0, 2.0))]},
            {"seed": 1},
            {"check_grid": 256},
            {"check_tuples": 500},
        ],
        ids=["model", "theta", "seed", "check_grid", "check_tuples"],
    )
    def test_any_key_change_runs_the_gate(self, checks, change):
        model = mm()
        args = dict(model=model, theta=[1.0, 1.0], xi=uniform(range(1, 9), MM_IV), direction="upper")
        reduce_design(**args)
        checks.clear()
        reduce_design(**{**args, **change})
        assert len(checks) == 2

    def test_direction_is_part_of_the_key(self, checks):
        model = mm()
        xi = uniform(range(1, 9), MM_IV)
        reduce_design(model, [1.0, 1.0], xi, "upper")
        checks.clear()
        with pytest.raises(PreconditionError):
            reduce_design(model, [1.0, 1.0], xi, "lower")
        assert len(checks) == 2

    def test_theta_key_tells_signed_zeros_apart(self, checks):
        model = make_model("polynomial", [0.0, 1.0, 1.0], (-1.0, 1.0))
        xi = uniform(np.linspace(-1.0, 1.0, 6), (-1.0, 1.0))
        reduce_design(model, [0.0, 1.0, 1.0], xi, "upper")
        reduce_design(model, [-0.0, 1.0, 1.0], xi, "upper")
        assert len(checks) == 4

    @pytest.mark.parametrize(
        "name,theta,iv,direction",
        [
            ("polynomial", [0.0, 1.0, 1.0], (-1.0, 1.0), "lower"),
            ("exponential3", [1.0, 1.0, -1.0], (0.0, 3.0), "upper"),
        ],
    )
    def test_refusal_reruns_the_gate(self, checks, name, theta, iv, direction):
        model = make_model(name, theta, iv)
        xi = uniform(np.linspace(iv[0], iv[1], 7), iv)
        errors = []
        for _ in range(3):
            checks.clear()
            with pytest.raises(PreconditionError) as err:
                reduce_design(model, theta, xi, direction)
            assert len(checks) == 2
            errors.append(err.value)
        assert errors[0].witness is not None
        assert all(e.witness == errors[0].witness for e in errors)
        assert len({id(e) for e in errors}) == 3

    def test_unhashable_model_still_reduces(self, checks):
        base = mm()

        class Gradient:
            """Compares by value and so, lacking __hash__, is unhashable."""

            def __call__(self, x, th):
                return base.gradient(x, th)

            def __eq__(self, other):
                return isinstance(other, Gradient)

        model = dataclasses.replace(base, gradient=Gradient())
        with pytest.raises(TypeError):
            hash(model)
        xi = uniform(range(1, 9), MM_IV)
        reps = [reduce_design(model, [1.0, 1.0], xi, "upper") for _ in range(2)]
        assert len(checks) == 4
        want = reduce_design(base, [1.0, 1.0], xi, "upper")
        assert all(_reduce_payload(r) == _reduce_payload(want) for r in reps)

    @pytest.mark.parametrize(
        "name,theta,iv,direction",
        [
            ("michaelis_menten", [1.0, 1.0], MM_IV, "upper"),
            ("exponential", [1.0, -1.0], (0.0, 3.0), "lower"),
        ],
    )
    def test_hit_payload_equals_miss_payload(self, checks, name, theta, iv, direction):
        model = make_model(name, theta, iv)
        xi = uniform(np.linspace(iv[0] + 0.1, iv[1] - 0.1, 7), iv)
        miss = json.dumps(_reduce_payload(reduce_design(model, theta, xi, direction)), sort_keys=True)
        hit = json.dumps(_reduce_payload(reduce_design(model, theta, xi, direction)), sort_keys=True)
        assert len(checks) == 2
        assert hit == miss


@pytest.mark.parametrize("p1", [1, 2])
def test_sphere_directions_are_memoised_and_read_only(p1):
    qs = _sphere_directions(p1)
    assert _sphere_directions(p1) is qs
    assert len(qs) == (1 if p1 == 1 else tcheb.reduction.NUM_Q_DIRECTIONS)
    np.testing.assert_allclose([np.linalg.norm(q) for q in qs], 1.0, rtol=1e-15)
    with pytest.raises(ValueError):
        qs[0][0] = 2.0

class TestDomination:
    def test_identical_designs(self):
        xi = uniform(range(1, 9), MM_IV)
        rep = verify_domination(mm(), [1.0, 1.0], xi, xi)
        assert rep.dominates
        np.testing.assert_allclose(rep.difference_spectrum, 0.0, atol=1e-15)

    def test_reduction_output_dominates_input(self):
        xi = uniform(range(1, 9), MM_IV)
        red = reduce_design(mm(), [1.0, 1.0], xi, "upper")
        rep = verify_domination(mm(), [1.0, 1.0], red.output, xi)
        assert rep.dominates

    def test_rank_one_cannot_dominate(self):
        one = Design(points=(5.0,), weights=(1.0,), interval=Interval(*MM_IV))
        two = uniform([2.0, 8.0], MM_IV)
        rep = verify_domination(mm(), [1.0, 1.0], one, two)
        assert not rep.dominates

    def test_spectrum_is_sorted(self):
        xi = uniform(range(1, 9), MM_IV)
        red = reduce_design(mm(), [1.0, 1.0], xi, "upper")
        spec = red.difference_spectrum
        assert list(spec) == sorted(spec)


class TestOptimize:
    def test_mm_d_optimal(self):
        best = optimize_in_class(mm(), [1.0, 1.0], criterion="d", direction="upper")
        assert best.size == 2
        assert best.points[1] == pytest.approx(10.0)
        # classical result: interior point at B/(2 theta2/1 + ...) = 5/6 here
        assert best.points[0] == pytest.approx(10.0 / 12.0, abs=1e-4)
        assert best.weights == pytest.approx((0.5, 0.5), abs=1e-4)

    def test_linear_model_d_optimal(self):
        model = make_model("polynomial", [0.0, 1.0], (-1.0, 1.0))
        best = optimize_in_class(model, [0.0, 1.0], criterion="d", direction="upper")
        assert best.points == pytest.approx((-1.0, 1.0))
        assert best.weights == pytest.approx((0.5, 0.5), abs=1e-6)

    def test_exponential_negative_rate_class_optimum(self):
        theta = [1.0, -1.0]
        model = make_model("exponential", theta, (0.0, 3.0))
        best = optimize_in_class(model, theta, criterion="d", direction="upper")
        assert best.size == 2
        assert best.points[1] == pytest.approx(3.0)

    def test_a_criterion_runs(self):
        best = optimize_in_class(mm(), [1.0, 1.0], criterion="a", direction="upper", restarts=6)
        assert best.size == 2
        assert best.points[1] == pytest.approx(10.0)
        assert criterion_value(mm(), [1.0, 1.0], best, "a") > -np.inf

    def test_deterministic_in_seed(self):
        a = optimize_in_class(mm(), [1.0, 1.0], criterion="d", direction="upper", restarts=4, seed=9)
        b = optimize_in_class(mm(), [1.0, 1.0], criterion="d", direction="upper", restarts=4, seed=9)
        assert a.points == b.points
        assert a.weights == b.weights

    def test_optimum_not_improvable_by_reduction(self):
        best = optimize_in_class(mm(), [1.0, 1.0], criterion="d", direction="upper")
        rep = reduce_design(mm(), [1.0, 1.0], best, "upper")
        v0 = criterion_value(mm(), [1.0, 1.0], best, "d")
        v1 = criterion_value(mm(), [1.0, 1.0], rep.output, "d")
        assert abs(v1 - v0) <= 1e-6 * max(1.0, abs(v0))

    def test_lower_even_class_degenerate(self):
        """The lower class for the quadratic model has k/2 = 2 support
        points for p = 3 parameters; every information matrix in the class
        is singular."""
        theta = [0.0, 1.0, 1.0]
        model = make_model("polynomial", theta, (-1.0, 1.0))
        with pytest.raises(DegeneracyError):
            optimize_in_class(model, theta, criterion="d", direction="lower", restarts=3)


def test_hot_path_does_not_import_scipy():
    # scipy.optimize alone takes about half a second to import; the
    # reduction and the principal representations must not pay for it.
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        import tcheb
        from tcheb import Design, Interval, make_model, reduce_design
        from tcheb import MomentPoint, polynomial_system, upper_principal

        model = make_model("michaelis_menten", [1.0, 1.0], (0.0, 10.0))
        xi = Design(points=tuple(range(1, 9)), weights=(0.125,) * 8,
                    interval=Interval(0.0, 10.0))
        reduce_design(model, [1.0, 1.0], xi, "upper")
        system = polynomial_system(6, Interval(-1.0, 1.0))
        xs = np.linspace(-0.9, 0.9, 10)
        c0 = MomentPoint(coordinates=tuple(float(np.mean(xs**i)) for i in range(6)),
                         system=system)
        upper_principal(system, c0)
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(tcheb.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
