"""Self-test of the output oracles.

A clean output must pass, and each kind of wrong output must be flagged
as silent-wrong by the check that owns it: a moved support point, a
swapped weight pair, a design with a Loewner deficit, a non-optimal
design.  Raised errors must be told apart as typed or other.

    PYTHONPATH=src python3 bench/selftest.py

exits 0 when every case holds.  The benchmark also runs it, untimed,
in every measured run, and reports ``correct: false`` if it fails.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

import oracles
import workloads


def _expect(cases, name, fn, outcome, prefix=""):
    """Record whether fn ends in the expected outcome (and message prefix)."""
    try:
        fn()
        got, detail = "ok", ""
    except oracles.Silent as err:
        got, detail = "silent", str(err)
    cases.append((name, got == outcome and detail.startswith(prefix), f"{got}: {detail}"))


def run(tcheb) -> dict:
    """Run every case; returns {"ok": bool, "cases": [[name, passed, detail], ...]}."""
    Design = tcheb.moments.Design
    case = workloads._bind_models(tcheb)["michaelis_menten"]
    theta = case.theta
    interval = case.model.design_interval
    xi = Design(points=(1.0, 2.5, 4.0, 6.0, 8.0), weights=(0.1, 0.3, 0.2, 0.25, 0.15),
                interval=interval)
    report = tcheb.reduction.reduce_design(case.model, theta, xi, case.direction)
    out = report.output
    cases: list = []

    def with_output(points, weights, rep=report):
        d = Design(points=tuple(points), weights=tuple(weights), interval=interval)
        return dataclasses.replace(rep, output=d)

    def check(rep, c=case):
        return lambda: oracles.check_reduction(c, theta, xi, rep)

    _expect(cases, "reduce clean output passes", check(report), "ok")
    moved = (out.points[0] * 1.01,) + out.points[1:]
    _expect(cases, "reduce moved support point", check(with_output(moved, out.weights)),
            "silent", "moments differ")
    swapped = out.weights[::-1]
    _expect(cases, "reduce swapped weight pair", check(with_output(out.points, swapped)),
            "silent", "moments differ")
    # The lower representation of the same moment point matches every
    # moment but loses information where the upper one gains: checked as
    # a lower-direction reduction it has the right structure, so only
    # the Loewner rule can catch it.
    psi = tcheb.models.psi_system(case.model, theta)
    c0 = tcheb.moments.moment_point(psi.system, xi)
    lower = tcheb.principal.lower_principal(psi.system, c0).design
    lower_case = dataclasses.replace(case, direction="lower")
    _expect(cases, "reduce Loewner deficit",
            check(with_output(lower.points, lower.weights), lower_case),
            "silent", "Loewner deficit")
    identity = dataclasses.replace(report, branch="Identity", output=xi)
    _expect(cases, "reduce Identity branch above k/2", check(identity), "silent", "Identity")

    sys4 = tcheb.chebyshev.polynomial_system(4, tcheb.chebyshev.Interval(-1.0, 1.0))
    c_unif = np.array([1.0, 0.0, 1.0 / 3.0, 0.0])
    mp = tcheb.moments.MomentPoint(coordinates=tuple(c_unif), system=sys4)
    lobatto = tcheb.principal.upper_principal(sys4, mp)
    _expect(cases, "quadrature clean Lobatto rule passes",
            lambda: oracles.check_principal(4, "upper", c_unif, lobatto, (-1.0, 1.0)), "ok")
    shifted = dataclasses.replace(lobatto, design=Design(
        points=(-1.0, 0.05, 1.0), weights=lobatto.design.weights, interval=sys4.interval))
    _expect(cases, "quadrature moved support point",
            lambda: oracles.check_principal(4, "upper", c_unif, shifted, (-1.0, 1.0)),
            "silent", "moments differ")

    # Closed-form D-optimum for Michaelis-Menten on [0, B]: equal weights
    # on B * theta2 / (2 theta2 + B) and B.
    b = interval.upper
    t_star = b * theta[1] / (2.0 * theta[1] + b)
    d_opt = Design(points=(t_star, b), weights=(0.5, 0.5), interval=interval)
    _expect(cases, "optimize closed-form D-optimum passes",
            lambda: oracles.check_optimum(case, theta, d_opt, "d"), "ok")
    d_off = Design(points=(1.2 * t_star, b), weights=(0.5, 0.5), interval=interval)
    _expect(cases, "optimize off-optimum design", lambda: oracles.check_optimum(
        case, theta, d_off, "d"), "silent", "equivalence check")

    def raising(err):
        def call():
            raise err
        return workloads.Op(call, lambda r: None, "selftest", (), ())

    for name, err, outcome in (
        ("typed error", tcheb.errors.ConvergenceError("x"), "typed"),
        ("other error", ValueError("x"), "other"),
    ):
        _, got, detail = oracles.run_op(raising(err), tcheb.TchebError)
        cases.append((f"classify {name}", got == outcome, f"{got}: {detail}"))
    return {"ok": all(passed for _, passed, _ in cases), "cases": cases}


if __name__ == "__main__":
    import tcheb.chebyshev
    import tcheb.errors
    import tcheb.models
    import tcheb.moments
    import tcheb.principal
    import tcheb.reduction

    result = run(tcheb)
    for name, passed, detail in result["cases"]:
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    sys.exit(0 if result["ok"] else 1)
