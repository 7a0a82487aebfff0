"""Acceptance checks, one per numbered criterion.

Every test prints a single PASS/FAIL line on the real terminal (bypassing
capture) before asserting, so the verdict of each criterion is visible in
any run's output.  Expected values come from independent oracles computed
inside the tests, never from the code under test.
"""

import math

import numpy as np

from tcheb import (
    Design,
    Interval,
    check_chebyshev,
    criterion_value,
    grid_lp_extremum,
    information_matrix,
    lower_principal,
    make_model,
    moment_point,
    optimize_in_class,
    polynomial_system,
    psi_system,
    reduce_design,
    upper_principal,
)
from tcheb.chebyshev import ChebyshevSystem
from tcheb.errors import PreconditionError
from tcheb.reduction import PSD_TOL
from tcheb.moments import MomentPoint

SYM = Interval(-1.0, 1.0)
UNIT = Interval(0.0, 1.0)


def verdict(capsys, num, name, ok):
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def uniform_moments_cubic():
    sys4 = polynomial_system(4, SYM)
    return sys4, MomentPoint(coordinates=(1.0, 0.0, 1.0 / 3.0, 0.0), system=sys4)


def test_criterion_01_gauss_quadrature_oracle(capsys):
    sys4, c0 = uniform_moments_cubic()
    res = lower_principal(sys4, c0)
    # oracle: 2-point Gauss-Legendre rule from Legendre-polynomial roots
    nodes, gl_weights = np.polynomial.legendre.leggauss(2)
    weights = gl_weights / 2.0  # probability normalization on [-1,1]
    ok = (
        np.allclose(res.design.points, nodes, atol=1e-8)
        and np.allclose(res.design.weights, weights, atol=1e-8)
    )
    verdict(capsys, 1, "lower principal reproduces Gauss rule", ok)
    assert ok


def test_criterion_02_lobatto_quadrature_oracle(capsys):
    sys4, c0 = uniform_moments_cubic()
    res = upper_principal(sys4, c0)
    pts = np.asarray(res.design.points)
    w = np.asarray(res.design.weights)
    ok = np.allclose(pts, [-1.0, 0.0, 1.0], atol=1e-8) and np.allclose(
        w, [1 / 6, 2 / 3, 1 / 6], atol=1e-8
    )
    # verify by substitution into all four moment equations
    for i in range(4):
        ok = ok and abs(float(w @ pts**i) - c0.coordinates[i]) <= 1e-8
    verdict(capsys, 2, "upper principal reproduces Lobatto rule", ok)
    assert ok


def test_criterion_03_extremal_values_bracket_all_designs(capsys):
    sys3 = polynomial_system(3, UNIT)
    probe = lambda x: x**3
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(20):
        pts = np.sort(rng.uniform(0.0, 1.0, 4))
        wts = rng.dirichlet(np.ones(4))
        base = Design(points=tuple(pts), weights=tuple(wts), interval=UNIT)
        c0 = moment_point(sys3, base)

        g_hi, _ = grid_lp_extremum(sys3, c0, probe, "max")
        g_lo, _ = grid_lp_extremum(sys3, c0, probe, "min")
        up = upper_principal(sys3, c0, probe=probe)
        lo = lower_principal(sys3, c0, probe=probe)
        n_hi = float(up.design.weights_array() @ probe(up.design.points_array()))
        n_lo = float(lo.design.weights_array() @ probe(lo.design.points_array()))
        ok = ok and abs(n_hi - g_hi) <= 1e-6 and abs(n_lo - g_lo) <= 1e-6

        # random measures with the same moment point: convex mixtures of
        # three designs that share it
        mix = rng.dirichlet(np.ones(3), size=50)
        for lam in mix:
            parts = []
            for coef, d in zip(lam, (base, up.design, lo.design)):
                parts += [(p, coef * w) for p, w in zip(d.points, d.weights)]
            value = math.fsum(w * probe(p) for p, w in parts)
            ok = ok and (n_lo - 1e-9 <= value <= n_hi + 1e-9)
    verdict(capsys, 3, "principal representations are extremal", ok)
    assert ok


def test_criterion_04_probe_independence(capsys):
    sys3 = polynomial_system(3, UNIT)
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(5):
        pts = np.sort(rng.uniform(0.0, 1.0, 4))
        wts = rng.dirichlet(np.ones(4))
        c0 = moment_point(sys3, Design(points=tuple(pts), weights=tuple(wts), interval=UNIT))
        for build in (upper_principal, lower_principal):
            r3 = build(sys3, c0, probe=lambda x: x**3)
            r4 = build(sys3, c0, probe=lambda x: x**4)
            ok = ok and np.allclose(r3.design.points, r4.design.points, atol=1e-6)
            ok = ok and np.allclose(r3.design.weights, r4.design.weights, atol=1e-6)
    verdict(capsys, 4, "result independent of the probe function", ok)
    assert ok


def test_criterion_05_mm_reduction_structure_and_domination(capsys):
    model = make_model("michaelis_menten", [1.0, 1.0], (0.0, 10.0))
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(50):
        n = int(rng.integers(5, 11))
        pts = np.sort(rng.uniform(0.0, 10.0, n))
        wts = rng.dirichlet(np.ones(n))
        xi = Design(points=tuple(pts), weights=tuple(wts), interval=Interval(0.0, 10.0))
        rep = reduce_design(model, [1.0, 1.0], xi, "upper")
        ok = ok and rep.output.size <= 2 and 10.0 in rep.output.points
        cin = np.asarray(rep.moments_in.coordinates)
        cout = np.asarray(rep.moments_out.coordinates)
        ok = ok and bool(np.all(np.abs(cout - cin) <= 1e-8 * np.maximum(1.0, np.abs(cin))))
        # Domination by an oracle outside the reduction, as criterion 06's
        # loewner_min, and the reduction's own whitened verdict.
        M = information_matrix(model, [1.0, 1.0], xi)
        norm = float(np.max(np.abs(np.linalg.eigvalsh(M))))
        gain = np.linalg.eigvalsh(information_matrix(model, [1.0, 1.0], rep.output) - M)[0]
        ok = ok and gain >= -1e-8 * norm
        ok = ok and rep.loewner_min_eigenvalue >= -PSD_TOL
    verdict(capsys, 5, "odd-case reduction structure and domination", ok)
    assert ok


def test_criterion_06_exponential3_upper_reduction(capsys):
    # No upper reduction exists at a negative rate.  The substitution
    # x -> -x maps rate t3 on [A, B] to rate -t3 on [-B, -A] and changes
    # the gradient only by the sign of its third entry, a congruence that
    # keeps the Loewner order; so the complete class at t3 < 0 mirrors the
    # one at t3 > 0 and holds three points including A, not B.  The
    # criterion checks (a) that the upper request is refused, (b) that the
    # refused class really loses information, by an oracle outside the
    # gate, and (c) that the lower branch delivers.
    theta = [1.0, 1.0, -1.0]
    model = make_model("exponential3", theta, (0.0, 3.0))
    system = psi_system(model, theta).system
    rng = np.random.default_rng(6)
    ok = True
    reason = ""
    for _ in range(20):
        n = int(rng.integers(5, 11))
        pts = np.sort(rng.uniform(0.0, 3.0, n))
        wts = rng.dirichlet(np.ones(n))
        xi = Design(points=tuple(pts), weights=tuple(wts), interval=Interval(0.0, 3.0))
        c0 = moment_point(system, xi)
        cin = np.asarray(c0.coordinates)
        M = information_matrix(model, theta, xi)
        norm = float(np.max(np.abs(np.linalg.eigvalsh(M))))

        def moments_match(design):
            cout = np.asarray(moment_point(system, design).coordinates)
            return bool(np.all(np.abs(cout - cin) <= 1e-8 * np.maximum(1.0, np.abs(cin))))

        def loewner_min(design):
            return float(np.linalg.eigvalsh(information_matrix(model, theta, design) - M)[0])

        # (a) the gate refuses, naming six increasing points of [0, 3]
        try:
            reduce_design(model, theta, xi, "upper")
        except PreconditionError as err:
            w = np.asarray(err.witness, dtype=float)
            ok = ok and w.shape == (6,) and bool(np.all(np.diff(w) > 0))
            ok = ok and 0.0 <= w[0] and w[-1] <= 3.0
        else:
            ok = False
            reason = "upper reduction at a negative rate was not refused"
            break
        # (b) the ungated upper representation matches the moments but
        # does not dominate: the refusal is right, not merely cautious
        up = upper_principal(system, c0).design
        ok = ok and up.size <= 3 and 3.0 in up.points and moments_match(up)
        ok = ok and loewner_min(up) < -1e-8 * norm
        # (c) the lower reduction holds the full guarantee
        lo = reduce_design(model, theta, xi, "lower").output
        ok = ok and lo.size <= 3 and 0.0 in lo.points and moments_match(lo)
        ok = ok and loewner_min(lo) >= -1e-8 * norm
    verdict(capsys, 6, "five-moment upper reduction at negative rate", ok)
    assert ok, reason or "refusal, information loss or lower branch failed"


def test_criterion_07_identity_branch_bit_unchanged(capsys):
    model = make_model("michaelis_menten", [1.0, 1.0], (0.0, 10.0))
    low_index = [
        Design(points=(2.0,), weights=(1.0,), interval=Interval(0.0, 10.0)),
        Design(points=(0.0, 10.0), weights=(0.3, 0.7), interval=Interval(0.0, 10.0)),
    ]
    ok = True
    for xi in low_index:
        rep = reduce_design(model, [1.0, 1.0], xi, "upper")
        ok = ok and rep.branch == "Identity"
        ok = ok and rep.output is xi
        ok = ok and rep.output.points == xi.points and rep.output.weights == xi.weights
    verdict(capsys, 7, "low-index designs returned unchanged", ok)
    assert ok


def test_criterion_08_reduction_idempotent(capsys):
    model = make_model("michaelis_menten", [1.0, 1.0], (0.0, 10.0))
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(10):
        n = int(rng.integers(4, 9))
        pts = np.sort(rng.uniform(0.0, 10.0, n))
        wts = rng.dirichlet(np.ones(n))
        xi = Design(points=tuple(pts), weights=tuple(wts), interval=Interval(0.0, 10.0))
        first = reduce_design(model, [1.0, 1.0], xi, "upper")
        second = reduce_design(model, [1.0, 1.0], first.output, "upper")
        ok = ok and len(first.output.points) == len(second.output.points)
        ok = ok and np.allclose(second.output.points, first.output.points, atol=1e-8)
        ok = ok and np.allclose(second.output.weights, first.output.weights, atol=1e-8)
    verdict(capsys, 8, "reducing a reduced design is idempotent", ok)
    assert ok


def test_criterion_09_d_optimality_brute_force_cross_check(capsys):
    model = make_model("michaelis_menten", [1.0, 1.0], (0.0, 10.0))
    best = optimize_in_class(model, [1.0, 1.0], criterion="d", direction="upper")
    found = criterion_value(model, [1.0, 1.0], best, "d")

    # oracle: equal weights are exact for two-point D-optimal designs
    # (det M = w(1-w) * cross-term^2), so sweep the free point on a 1e-3 grid
    brute = -math.inf
    for t in np.arange(0.001, 10.0, 0.001):
        d = Design(points=(float(t), 10.0), weights=(0.5, 0.5), interval=Interval(0.0, 10.0))
        M = information_matrix(model, [1.0, 1.0], d)
        sign, logdet = np.linalg.slogdet(M)
        if sign > 0:
            brute = max(brute, float(logdet))
    ok = abs(found - brute) <= 1e-5 * max(1.0, abs(brute))
    verdict(capsys, 9, "class-restricted search matches brute force", ok)
    assert ok


def test_criterion_10_falsification_and_vandermonde(capsys):
    flipped = ChebyshevSystem.from_functions(
        UNIT,
        (lambda x: np.ones_like(np.asarray(x, dtype=float)), lambda x: -x),
    )
    rep = check_chebyshev(flipped, num_random_tuples=200, grid_size=64, seed=10)
    ok = (not rep.verified) and rep.witness is not None
    for k in range(2, 7):
        sys_k = polynomial_system(k, SYM)
        rep_k = check_chebyshev(sys_k, num_random_tuples=2000, grid_size=512, seed=k)
        ok = ok and rep_k.verified and rep_k.witness is None
    verdict(capsys, 10, "sign flip caught, Vandermonde never rejected", ok)
    assert ok
