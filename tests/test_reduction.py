import dataclasses
import json
import math
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
    augment,
    check_chebyshev,
    criterion_value,
    information_matrix,
    make_model,
    moment_point,
    optimize_in_class,
    polynomial_system,
    psi_k_Q,
    psi_system,
    reduce_design,
    verify_domination,
)
from tcheb.cli import _reduce_payload
from tcheb.errors import (
    ConfigurationError,
    ConvergenceError,
    DegeneracyError,
    EvaluationError,
    PreconditionError,
    TchebError,
    UnboundedError,
)
from tcheb.reduction import gate_certified, gate_checks

MM_IV = (0.0, 10.0)


def mm():
    return make_model("michaelis_menten", [1.0, 1.0], MM_IV)


def sampled_mm():
    """mm() without its determinant signs: its upper gate is not
    certified, so reduce_design runs the sampled gate, which passes."""
    return dataclasses.replace(mm(), determinant_signs=None)


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
        assert all(g == 0.0 for g in rep.gain_spectrum)

    def test_mm_eight_point_upper(self):
        xi = uniform(range(1, 9), MM_IV)
        rep = reduce_design(mm(), [1.0, 1.0], xi, "upper")
        assert rep.branch == "OddCase"
        assert rep.input_index == 8
        assert rep.output.size <= 2
        assert 10.0 in rep.output.points
        np.testing.assert_allclose(
            rep.moments_out.coordinates, rep.moments_in.coordinates, rtol=1e-8, atol=1e-10
        )
        M = information_matrix(mm(), [1.0, 1.0], xi)
        norm = float(np.max(np.abs(eigvalsh(M))))
        assert rep.loewner_min_eigenvalue >= -1e-8 * max(1.0, norm)
        assert all(g >= -1e-9 for g in rep.gain_spectrum)

    def test_one_basis_evaluation_at_the_returned_support(self, monkeypatch):
        """Newton's last accepted basis values serve the 1e-9 moment gate and
        moments_out: with the gate cached, the returned support is evaluated
        once, and moments_out equals a fresh moment_point bit for bit."""
        model, xi = mm(), uniform(range(1, 9), MM_IV)
        reduce_design(model, [1.0, 1.0], xi, "upper")
        calls = []
        for module in (tcheb.principal, tcheb.moments):
            real = module._basis_matrix

            def record(system, xs, real=real):
                calls.append(np.array(xs, dtype=float))
                return real(system, xs)

            monkeypatch.setattr(module, "_basis_matrix", record)
        rep = reduce_design(model, [1.0, 1.0], xi, "upper")
        support = rep.output.points_array()
        assert sum(np.array_equal(xs, support) for xs in calls) == 1
        monkeypatch.undo()
        assert rep.moments_out.coordinates == moment_point(rep.moments_out.system, rep.output).coordinates

    def test_an_output_that_does_not_dominate_is_refused(self, shifted_solver):
        """A solver that returns the README output with its interior point
        moved +1.0, to (3.115..., 10.0), keeps the upper structure but not
        the information: the whitened lambda_min of M(output) - M(input) is
        -0.256, so the reduction raises rather than returning it."""
        model, xi = mm(), uniform(range(1, 9), MM_IV)
        message = r"^the upper reduction does not dominate its input: whitened lambda_min -0\.2555\d* < -PSD_TOL = -1e-08$"
        with pytest.raises(DegeneracyError, match=message):
            reduce_design(model, [1.0, 1.0], xi, "upper")
        assert shifted_solver[0].points == (pytest.approx(3.115255, abs=1e-6), 10.0)
        dom = verify_domination(model, [1.0, 1.0], shifted_solver[0], xi)
        assert not dom.dominates and dom.loewner_min_eigenvalue == pytest.approx(-0.2555, abs=1e-4)

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
        assert all(g >= -1e-9 for g in rep.gain_spectrum)
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

    def test_exponential3_upper_at_rate_10_is_not_singular(self):
        """A spread design under exponential3 at rate 10, whose Jacobian rows
        span e^0 to e^60: Newton's singularity test reads J with its rows
        and columns scaled to unit max-norm, so it reduces.  Unscaled,
        cond(J) passed 1e14 and the call raised SingularityError.  Checked
        here from the gradient alone: the upper structure at k = 5, the psi
        moments and M(output) - M(input) >= 0 up to 1e-8 of the largest
        eigenvalue of M(input)."""
        theta = (1.0, 1.0, 10.0)
        model = make_model("exponential3", theta, (0.0, 3.0))
        rng = np.random.default_rng(0)
        points = (np.arange(8) + rng.uniform(0.0, 1.0, 8)) * 3.0 / 8.0
        xi = Design(points=tuple(points), weights=tuple(rng.dirichlet(np.ones(8))), interval=Interval(0.0, 3.0))
        out = reduce_design(model, theta, xi, "upper").output
        assert out.size == 3 and out.points[-1] == 3.0 and out.points[0] > 0.0

        def psi_moments(design):
            x, w = design.points_array(), design.weights_array()
            e = np.exp(10.0 * x)
            return np.array([np.ones_like(x), e, x * e, e**2, x * e**2]) @ w

        def info(design):
            x, w = design.points_array(), design.weights_array()
            e = np.exp(10.0 * x)
            G = np.array([np.ones_like(x), e, x * e])
            return (G * w) @ G.T

        np.testing.assert_allclose(psi_moments(out), psi_moments(xi), rtol=1e-8)
        M_in = info(xi)
        assert eigvalsh(info(out) - M_in)[0] >= -1e-8 * eigvalsh(M_in)[-1]

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

    @pytest.mark.parametrize(
        "name,theta,iv,direction,points,weights,structure",
        [
            (
                "michaelis_menten", [1.0, 1.0], MM_IV, "upper",
                (1.8926418904418184e-07, 8.630944998388297e-07, 9.999999583454704),
                (0.007259594102315605, 0.08217348979210086, 0.9105669161055836),
                (2, False, True),
            ),
            (
                "exponential", [1.0, -1.0], (0.0, 3.0), "lower",
                (1.325454483810012e-07, 2.9999998656043436, 2.9999999274476945),
                (0.3836880103635447, 0.03265493227782713, 0.5836570573586282),
                (2, True, False),
            ),
        ],
        ids=["michaelis_menten", "exponential"],
    )
    def test_end_atom_leaves_an_excluded_endpoint(self, name, theta, iv, direction, points, weights, structure):
        # Endpoint designs from the reduce_repeat census at seed 7.  The
        # representation has an atom well inside one grid spacing of an
        # endpoint its structure excludes (near A for michaelis_menten
        # upper, near B for exponential lower); the grid LP put it on that
        # endpoint, and the reduction raised DegeneracyError.
        model = make_model(name, theta, iv)
        xi = Design(points=points, weights=weights, interval=Interval(*iv))
        rep = reduce_design(model, theta, xi, direction)
        out = rep.output
        assert (out.size, out.points[0] == iv[0], out.points[-1] == iv[1]) == structure
        c_in, c_out = np.array(rep.moments_in.coordinates), np.array(rep.moments_out.coordinates)
        assert np.all(np.abs(c_out - c_in) <= 1e-9 * np.maximum(1.0, np.abs(c_in)))
        M_in = information_matrix(model, theta, xi)
        low = np.linalg.eigvalsh(information_matrix(model, theta, out) - M_in)[0]
        assert low >= -1e-8 * np.abs(np.linalg.eigvalsh(M_in)).max()

    def test_unbounded_moment_lp_is_not_an_internal_bug(self, monkeypatch):
        # Found by the CLI robustness property: the monomial rows span 1 to
        # 1.6e41 on the grid, and the simplex called the bounded moment LP
        # unbounded, which UnboundedError reports as an internal bug.  The
        # Lobatto seed now reduces this design without the LP, so the seed
        # is switched off to reach it.
        iv = (-769799.7710313231, -643109.9014441306)
        theta = [1.0, 0.5, -0.5, 0.25, 1.0]
        xi = Design(
            points=(-654631.3411136859, -766079.9018081692, -733319.9300864545,
                    -682694.5137866827, -697488.3969317211),
            weights=(0.0032451046638759446, 0.9870195813444962, 0.0032451046638759446,
                     0.0032451046638759446, 0.0032451046638759446),
            interval=Interval(*iv),
        )
        model = make_model("polynomial", theta, iv)
        assert reduce_design(model, theta, xi, "upper").output.size == 5
        monkeypatch.setattr(tcheb.principal, "_gauss_rule", lambda *args: None)
        with pytest.raises(TchebError) as err:
            reduce_design(model, theta, xi, "upper")
        assert not isinstance(err.value, UnboundedError)


@pytest.fixture
def checks(monkeypatch):
    """Records every determinant check that reduce_design's gate runs."""
    calls = []

    def counting(real):
        def check(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        return check

    monkeypatch.setattr(tcheb.reduction, "check_gate", counting(tcheb.reduction.check_gate))
    return calls


class TestGateCache:
    """The gate (base check plus the augmented check for every Q, one
    check_gate call) runs once per (model, theta, direction, seed) key."""

    def test_repeat_key_skips_the_gate(self, checks):
        model = sampled_mm()
        reduce_design(model, [1.0, 1.0], uniform(range(1, 9), MM_IV), "upper")
        assert len(checks) == 1
        rep = reduce_design(model, (1.0, 1.0), uniform([1.0, 4.0, 9.0], MM_IV), "upper")
        assert len(checks) == 1
        assert rep.branch == "OddCase"

    @pytest.mark.parametrize(
        "change",
        [
            {"model": sampled_mm()},
            {"theta": [1.0, float(np.nextafter(1.0, 2.0))]},
            {"seed": 1},
        ],
        ids=["model", "theta", "seed"],
    )
    def test_any_key_change_runs_the_gate(self, checks, change):
        model = sampled_mm()
        args = dict(model=model, theta=[1.0, 1.0], xi=uniform(range(1, 9), MM_IV), direction="upper")
        reduce_design(**args)
        checks.clear()
        reduce_design(**{**args, **change})
        assert len(checks) == 1

    def test_direction_is_part_of_the_key(self, checks):
        model = sampled_mm()
        xi = uniform(range(1, 9), MM_IV)
        reduce_design(model, [1.0, 1.0], xi, "upper")
        checks.clear()
        with pytest.raises(PreconditionError):
            reduce_design(model, [1.0, 1.0], xi, "lower")
        assert len(checks) == 1

    def test_theta_key_tells_signed_zeros_apart(self, checks):
        """The polynomial's upper gate is certified, so no check_gate call
        stands for a miss: the cache counts two."""
        model = make_model("polynomial", [0.0, 1.0, 1.0], (-1.0, 1.0))
        xi = uniform(np.linspace(-1.0, 1.0, 6), (-1.0, 1.0))
        reduce_design(model, [0.0, 1.0, 1.0], xi, "upper")
        reduce_design(model, [-0.0, 1.0, 1.0], xi, "upper")
        assert tcheb.reduction._gated_psi.cache_info().misses == 2

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
            assert len(checks) == 1
            errors.append(err.value)
        assert errors[0].witness is not None
        assert all(e.witness == errors[0].witness for e in errors)
        assert len({id(e) for e in errors}) == 3

    @pytest.mark.parametrize("seed,warm", [(1.0, 1), (0.0, 0)], ids=["one", "zero"])
    def test_float_seed_is_refused_cold_and_warm(self, checks, seed, warm):
        """1.0 == 1 hash alike, so the seed is checked before the lookup:
        a float is refused whether or not its integer warmed the cache."""
        model, xi = sampled_mm(), uniform([1.0, 4.0, 6.0, 9.0], MM_IV)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="^seed must be an integer, got float$"):
                reduce_design(model, [1.0, 1.0], xi, "upper", seed=seed)
            reduce_design(model, [1.0, 1.0], xi, "upper", seed=warm)
        assert len(checks) == 1

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
        assert len(checks) == 2
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
        if name == "michaelis_menten":  # one key that runs the sampled gate
            model = dataclasses.replace(model, determinant_signs=None)
        xi = uniform(np.linspace(iv[0] + 0.1, iv[1] - 0.1, 7), iv)
        miss = json.dumps(_reduce_payload(reduce_design(model, theta, xi, direction)), sort_keys=True)
        hit = json.dumps(_reduce_payload(reduce_design(model, theta, xi, direction)), sort_keys=True)
        # The exponential's lower gate is certified and runs no check_gate.
        info = tcheb.reduction._gated_psi.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert len(checks) == (0 if name == "exponential" else 1)
        assert hit == miss


def test_a_repeated_key_checks_theta_once(monkeypatch):
    """On a cached key reduce_design reads theta through check_reals once;
    verify_domination's information matrices reuse the checked vector."""
    model, xi = mm(), uniform(range(1, 9), MM_IV)
    reduce_design(model, [1.0, 1.0], xi, "upper")
    names = []
    real = tcheb.models.check_reals

    def record(values, name):
        names.append(name)
        return real(values, name)

    monkeypatch.setattr(tcheb.models, "check_reals", record)
    reduce_design(model, [1.0, 1.0], xi, "upper")
    assert names == ["model michaelis_menten theta"]


def test_michaelis_menten_upper_runs_no_sampled_gate(checks):
    """michaelis_menten upper is certified at theta2 > 0, so reduce_design
    makes no check_gate call there; its lower gate still runs the sample,
    which refuses it."""
    model, xi = mm(), uniform(range(1, 9), MM_IV)
    for theta2 in (0.25, 1.0, 4.0):
        assert gate_certified(model, [1.0, theta2], "upper")
        assert reduce_design(model, [1.0, theta2], xi, "upper").branch == "OddCase"
    assert checks == []
    with pytest.raises(PreconditionError, match="^augmented system for direction 'lower'"):
        reduce_design(model, [1.0, 1.0], xi, "lower")
    assert len(checks) == 1


def _swept_keys():
    """(name, theta, interval, direction) of the reduce benchmark's four
    cases over the ranges its parameter sweep draws from."""
    for v in np.linspace(0.5, 2.0, 4):
        yield "michaelis_menten", (1.0, v), MM_IV, "upper"
    for v in np.linspace(-2.0, -0.5, 4):
        yield "exponential", (1.0, v), (0.0, 3.0), "lower"
        yield "exponential3", (1.0, 1.0, v), (0.0, 3.0), "lower"
    for theta in np.random.default_rng(0).normal(0.0, 1.0, (4, 4)):
        yield "polynomial", tuple(theta), (-1.0, 1.0), "upper"


def test_swept_keys_run_no_sampled_gate(checks):
    """Every swept key is certified, so reducing a spread design there
    makes no check_gate call."""
    for name, theta, iv, direction in _swept_keys():
        model = make_model(name, theta, iv)
        assert gate_certified(model, theta, direction)
        xi = uniform(np.linspace(*iv, 14)[1:-1].tolist(), iv)
        assert reduce_design(model, theta, xi, direction).branch != "Identity"
    assert checks == []


def _negated_h1_gradient(model):
    """The exponential's gradient with its x e entry negated."""

    def gradient(x, th):
        return model.gradient(x, th) * np.array([[1.0], [-1.0]])

    return gradient


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("field", ["gradient", "p_matrix"])
def test_a_replaced_gradient_or_p_matrix_is_not_certified(field, direction):
    """The exponential's certificate holds for the gradient and P it was
    derived for.  Negating the x e entry of g, or the second entry of P,
    makes psi_2 = -x e^2 and W_3 < 0: that model is not certified, and the
    sampled gate refuses its base system."""
    theta, iv = [1.0, -1.0], (0.0, 3.0)
    catalog = make_model("exponential", theta, iv)
    replacement = {
        "gradient": _negated_h1_gradient(catalog),
        "p_matrix": lambda th: np.diag([1.0, -th[0]]),
    }[field]
    model = dataclasses.replace(catalog, **{field: replacement})
    assert gate_certified(catalog, theta, "lower")
    assert model.determinant_signs(model, theta) is None
    assert not gate_certified(model, theta, direction)
    xi = uniform(np.linspace(0.1, 2.9, 7), iv)
    with pytest.raises(PreconditionError, match="^base psi system") as err:
        reduce_design(model, theta, xi, direction)
    assert len(err.value.witness) == 3


def _sampled_q_gate(psi, direction, count=64):
    """The augmented gate as first written, for p1 >= 2: check_chebyshev
    on the psi system augmented by +-psi_k^Q for each of ``count`` unit
    directions Q, a Halton sample on the sphere.  Returns (Q, report)
    pairs."""
    from scipy.stats import norm, qmc

    sampler = qmc.Halton(d=psi.p1, scramble=False)
    qs = []
    while len(qs) < count:
        z = norm.ppf(np.clip(sampler.random(4 * count), 1e-12, 1.0 - 1e-12))
        qs += [row / np.linalg.norm(row) for row in z if np.linalg.norm(row) > 1e-8]
    return [(Q, check_chebyshev(_augmented(psi, Q, direction))) for Q in qs[:count]]


def _augmented(psi, Q, direction):
    """The psi system with +psi_k^Q (upper) or -psi_k^Q (lower) appended."""
    f = psi_k_Q(psi, Q)
    return augment(psi.system, f if direction == "upper" else lambda xs: -f(xs))


# (model, base theta, interval, swept theta index, swept values) at p1 = 2.
P1_2_SWEEPS = [
    ("michaelis_menten", [1.0, 1.0], (0.0, 10.0), 1, (0.25, 1.0, 4.0)),
    ("exponential", [1.0, -1.0], (0.0, 3.0), 1, (-2.0, -0.5, 1.0)),
    ("exponential3", [1.0, 1.0, -1.0], (0.0, 3.0), 2, (-2.0, -0.5, 1.0)),
    ("polynomial", [1.0, 0.5, -0.5, 0.25], (-1.0, 1.0), 0, (-2.0, 0.0, 2.0)),
]


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("name,theta,iv,index,values", P1_2_SWEEPS, ids=[s[0] for s in P1_2_SWEEPS])
def test_exact_q_gate_matches_sampled_q_gate_at_p1_2(name, theta, iv, index, values, direction):
    """The augmented check for every Q at once refuses exactly when one of
    64 sampled directions does, and its witness Q refutes on its own."""
    model = make_model(name, theta, iv, p1=2)
    for value in values:
        th = np.array(theta)
        th[index] = value
        psi = psi_system(model, th)
        _, rep, Q = gate_checks(psi, direction, seed=0)
        sampled = _sampled_q_gate(psi, direction)
        assert rep.verified == all(r.verified for _, r in sampled)
        assert rep.tuples_checked == sampled[0][1].tuples_checked
        if rep.verified:
            assert Q is None
            continue
        assert len(Q) == 2 and np.linalg.norm(Q) == pytest.approx(1.0, rel=1e-12)
        assert max(Q, key=abs) > 0.0
        assert not check_chebyshev(_augmented(psi, Q, direction)).verified


def test_an_overflowing_gate_determinant_is_an_evaluation_error():
    theta = [1.0, 1.0, 40.0]
    psi = psi_system(make_model("exponential3", theta, (0.0, 3.0)), theta)
    with pytest.raises(EvaluationError, match="^determinant gate: overflow encountered in det$"):
        gate_checks(psi, "upper", 0)


def test_an_overflowing_lp_objective_is_an_evaluation_error():
    """h_tail = x^3 is 1e156 at B = 1e52, finite, but tr C22 = x^6 on the LP
    grid overflows: squared outside the evaluation's errstate it warned and
    reached the simplex as "LP c has a non-finite entry"."""
    theta = (1.0, 0.5, -0.5, 0.25)
    model = make_model("polynomial", theta, (0.0, 1e52))
    xi = Design(points=tuple((np.arange(8) + 0.5) * 1.25e51), weights=(0.125,) * 8, interval=model.design_interval)
    with pytest.raises(EvaluationError, match="^basis evaluation: overflow encountered in square$"):
        reduce_design(model, theta, xi, "upper")


@pytest.mark.parametrize("direction", ["sideways", None])
@pytest.mark.parametrize(
    "entry",
    [
        lambda d: gate_checks(psi_system(mm(), [1.0, 1.0]), d, 0),
        lambda d: gate_certified(make_model("exponential", [1.0, -1.0], (0.0, 3.0)), [1.0, -1.0], d),
        lambda d: reduce_design(mm(), [1.0, 1.0], uniform(range(1, 9), MM_IV), d),
        lambda d: optimize_in_class(mm(), [1.0, 1.0], "d", d, 1),
    ],
    ids=["gate_checks", "gate_certified", "reduce_design", "optimize_in_class"],
)
def test_an_unknown_direction_is_refused(entry, direction):
    """No entry that takes a direction reads an unknown one as "lower"."""
    with pytest.raises(ConfigurationError, match=f"^direction must be 'upper' or 'lower', got {direction!r}$"):
        entry(direction)


@pytest.mark.parametrize(
    "name, call",
    [
        ("seed", lambda: reduce_design(mm(), [1.0, 1.0], uniform(range(1, 9), MM_IV), "upper", seed=True)),
        ("seed", lambda: optimize_in_class(mm(), [1.0, 1.0], restarts=1, seed=True)),
        ("seed", lambda: check_chebyshev(polynomial_system(3, Interval(-1.0, 1.0)), seed=True)),
        ("restarts", lambda: optimize_in_class(mm(), [1.0, 1.0], restarts=True)),
        ("p1", lambda: make_model("michaelis_menten", [1.0, 1.0], MM_IV, p1=True)),
        ("k", lambda: polynomial_system(True, Interval(-1.0, 1.0))),
        ("grid_size", lambda: check_chebyshev(polynomial_system(1, Interval(-1.0, 1.0)), grid_size=True)),
        ("num_random_tuples", lambda: check_chebyshev(polynomial_system(3, Interval(-1.0, 1.0)), True)),
    ],
    ids=["reduce_seed", "optimize_seed", "check_seed", "restarts", "p1", "k", "grid_size", "num_random_tuples"],
)
def test_a_bool_is_not_a_count(name, call):
    """True == 1, but a bool is refused wherever an integer count is read."""
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got bool$"):
        call()


class TestDomination:
    def test_identical_designs(self):
        xi = uniform(range(1, 9), MM_IV)
        rep = verify_domination(mm(), [1.0, 1.0], xi, xi)
        assert rep.dominates
        np.testing.assert_allclose(rep.difference_spectrum, 0.0, atol=1e-15)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerance_is_refused(self, tolerance):
        # At inf every pair would dominate, and NaN or Infinity is no JSON.
        xi = uniform(range(1, 9), MM_IV)
        with pytest.raises(ConfigurationError, match="tolerance must be finite"):
            verify_domination(mm(), [1.0, 1.0], xi, xi, tolerance=tolerance)

    def test_reduction_output_dominates_input(self):
        xi = uniform(range(1, 9), MM_IV)
        red = reduce_design(mm(), [1.0, 1.0], xi, "upper")
        rep = verify_domination(mm(), [1.0, 1.0], red.output, xi)
        assert rep.dominates
        # The reduction reports the very numbers the verdict reads.
        assert (red.loewner_min_eigenvalue, red.difference_spectrum) == (
            rep.loewner_min_eigenvalue, rep.difference_spectrum
        )

    def test_an_empty_range_reads_zero(self):
        """The Michaelis-Menten gradient vanishes at x = 0, so {0: 1} has
        M = 0 and S = M1 + M2 has no range: the whitened value is 0.0, and
        the design, of index 1/2 < k/2, is its own reduction."""
        xi = Design(points=(0.0,), weights=(1.0,), interval=Interval(*MM_IV))
        dom = verify_domination(mm(), [1.0, 1.0], xi, xi)
        assert (dom.dominates, dom.loewner_min_eigenvalue) == (True, 0.0)
        rep = reduce_design(mm(), [1.0, 1.0], xi, "upper")
        assert (rep.branch, rep.loewner_min_eigenvalue) == ("Identity", 0.0)

    def test_rank_one_cannot_dominate(self):
        # At theta1 = 1e-4 the difference's negative eigenvalue is -1e-10,
        # inside an absolute 1e-8 bound; the verdict must not depend on it.
        one = Design(points=(5.0,), weights=(1.0,), interval=Interval(*MM_IV))
        two = uniform([2.0, 8.0], MM_IV)
        for theta in ([1.0, 1.0], [1e-3, 1.0], [1e-4, 1.0]):
            model = make_model("michaelis_menten", theta, MM_IV)
            rep = verify_domination(model, theta, one, two)
            # The direction that {5} does not see reads -1 at every scale.
            assert not rep.dominates, theta
            assert rep.loewner_min_eigenvalue == pytest.approx(-1.0, abs=1e-9), theta

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
        assert best.points == pytest.approx((0.0, 3.0))

    def test_optimum_on_the_closure_of_the_class(self):
        """The README's example: the lower structure of exponential3 at
        k = 5 is {A, x1, x2}, but the bounded search drives x2 onto B."""
        theta = (1.0, 1.0, -1.0)
        model = make_model("exponential3", theta, (0.0, 3.0))
        best = optimize_in_class(model, theta, "d", "lower", 4, seed=0)
        assert best.points == pytest.approx((0.0, 0.84281, 3.0), abs=1e-4)
        assert best.points[-1] == 3.0

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

    @pytest.mark.parametrize("seed", [-1, 1.5, np.random.default_rng(0)], ids=["negative", "float", "generator"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ConfigurationError):
            optimize_in_class(mm(), [1.0, 1.0], restarts=1, seed=seed)

    @pytest.mark.parametrize(
        "restarts,message",
        [(0, "at least 1, got 0"), (-2, "at least 1, got -2"), (1.5, "an integer, got float")],
    )
    def test_restarts_must_be_a_positive_integer(self, restarts, message):
        with pytest.raises(ConfigurationError, match=f"^restarts must be {message}$"):
            optimize_in_class(mm(), [1.0, 1.0], restarts=restarts)

    def test_optimum_not_improvable_by_reduction(self):
        best = optimize_in_class(mm(), [1.0, 1.0], criterion="d", direction="upper")
        rep = reduce_design(mm(), [1.0, 1.0], best, "upper")
        v0 = criterion_value(mm(), [1.0, 1.0], best, "d")
        v1 = criterion_value(mm(), [1.0, 1.0], rep.output, "d")
        assert abs(v1 - v0) <= 1e-6 * max(1.0, abs(v0))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"criterion": "e"}, "criterion must be 'd' or 'a', got 'e'"),
            ({"direction": "both"}, "direction must be 'upper' or 'lower', got 'both'"),
        ],
    )
    def test_bad_criterion_or_direction_is_refused(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            optimize_in_class(mm(), [1.0, 1.0], restarts=1, **kwargs)

    def test_criterion_value_refuses_a_bad_criterion(self):
        with pytest.raises(ConfigurationError, match="^criterion must be 'd' or 'a', got 'D'$"):
            criterion_value(mm(), [1.0, 1.0], uniform(range(1, 9), MM_IV), "D")

    @pytest.mark.parametrize("theta1", [1e-7, 1e-12])
    def test_rank_does_not_depend_on_the_scale_of_theta(self, theta1):
        """exponential's information matrix on {0, 1} is diag(1, theta1)
        M(1) diag(1, theta1): full rank at any theta1 != 0, so its D value
        is shifted by 2 log theta1, its A value is finite, a one-point
        design stays singular, and the search finds theta1 = 1's support."""
        model = make_model("exponential", [1.0, -1.0], (0.0, 3.0))
        xi, one = uniform([0.0, 1.0], (0.0, 3.0)), uniform([1.0], (0.0, 3.0))
        d1 = criterion_value(model, [1.0, -1.0], xi, "d")
        assert criterion_value(model, [theta1, -1.0], xi, "d") == pytest.approx(d1 + 2.0 * np.log(theta1), abs=1e-12)
        assert math.isfinite(criterion_value(model, [theta1, -1.0], xi, "a"))
        for criterion in ("d", "a"):
            assert criterion_value(model, [theta1, -1.0], one, criterion) == -math.inf
        best = optimize_in_class(model, [theta1, -1.0], "d", "lower", 4)
        want = optimize_in_class(model, [1.0, -1.0], "d", "lower", 4)
        assert best.points == pytest.approx(want.points, abs=1e-6)
        assert best.weights == pytest.approx(want.weights, abs=1e-6)

    def test_a_one_point_class_is_degenerate(self):
        """At p1 = p = 2 the psi system is the constant alone, k = 1: the
        upper class is the one design {B: 1}, with no free coordinate to
        search, and its rank-one information matrix is singular."""
        model = make_model("michaelis_menten", [1.0, 1.0], MM_IV, p1=2)
        with pytest.raises(DegeneracyError, match="^the structure admits no nonsingular design$"):
            optimize_in_class(model, [1.0, 1.0], restarts=1)

    def test_lower_even_class_degenerate(self):
        """The lower class for the quadratic model has k/2 = 2 support
        points for p = 3 parameters; every information matrix in the class
        is singular."""
        theta = [0.0, 1.0, 1.0]
        model = make_model("polynomial", theta, (-1.0, 1.0))
        with pytest.raises(DegeneracyError):
            optimize_in_class(model, theta, criterion="d", direction="lower", restarts=3)


def test_optimize_does_not_import_scipy_stats():
    code = (
        "import sys; from tcheb import make_model, optimize_in_class; "
        "m = make_model('michaelis_menten', [1.0, 1.0], (0.0, 10.0)); "
        "optimize_in_class(m, [1.0, 1.0], restarts=1); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(tcheb.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_hot_path_does_not_import_scipy():
    # scipy.optimize alone takes about half a second to import; the
    # reduction and the principal representations must not pay for it,
    # at p1 = 1 nor at p1 = 2, where the gate checks a plane of Q.
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

        from tcheb.errors import PreconditionError
        from tcheb.models import psi_system
        from tcheb.reduction import gate_checks
        theta = [1.0, 1.0, -1.0]
        model2 = make_model("exponential3", theta, (0.0, 3.0), p1=2)
        gate_checks(psi_system(model2, theta), "lower", seed=0)
        xi2 = Design(points=(0.5, 1.0, 1.5, 2.0, 2.5), weights=(0.2,) * 5,
                     interval=Interval(0.0, 3.0))
        try:
            reduce_design(model2, theta, xi2, "lower")
            raise SystemExit("the p1 = 2 reduction was not refused")
        except PreconditionError:
            pass

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
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(tcheb.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
