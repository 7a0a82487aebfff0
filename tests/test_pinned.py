"""Outputs pinned to literals: ``reduce_design`` on the passing direction
of each gate case, and the principal representations and the
classification of monomial systems at k = 4..8.

The literals were printed by the code before the principal solver got
one entry, except ``GAMMA_PINS``: those are the probe moments of c0's
Gauss, Radau and Lobatto rules at 50 digits, which
``test_gamma_pins_are_the_50_digit_rules`` recomputes.  They are compared
as values to 1e-9, not as bytes, so they hold across BLAS builds.  Every
input is a spread interior design: the outputs on clustered and
endpoint-heavy inputs are meant to change.
"""

import mpmath
import numpy as np
import pytest

from tcheb import (
    Design,
    Interval,
    lower_principal,
    make_model,
    polynomial_system,
    reduce_design,
    upper_principal,
)
from tcheb.moments import classify_point, moment_point

CASES = {
    "michaelis_menten": ((1.0, 1.0), (0.0, 10.0), "upper"),
    "exponential": ((1.0, -1.0), (0.0, 3.0), "lower"),
    "exponential3": ((1.0, 1.0, -1.0), (0.0, 3.0), "lower"),
    "polynomial": ((1.0, 0.5, -0.5, 0.25), (-1.0, 1.0), "upper"),
}
# (points as fractions of the interval, weights) of the two input designs.
DESIGNS = (
    ((0.0625, 0.1875, 0.3125, 0.4375, 0.5625, 0.6875, 0.8125, 0.9375), (0.125,) * 8),
    ((0.1, 0.3, 0.45, 0.7, 0.9), (0.1, 0.25, 0.3, 0.2, 0.15)),
)

# (case, design): (branch, points, weights, moments_out, gain_spectrum).
REDUCE_PINS = {
    ("michaelis_menten", 0): (
        "OddCase",
        (1.6138796690324313, 10.0),
        (0.4799383059071212, 0.5200616940928788),
        (1.0, 0.10906863742381788, 0.612763213965547),
        (0.0040853809129387485,),
    ),
    ("michaelis_menten", 1): (
        "OddCase",
        (2.3989678365307356, 10.0),
        (0.564631255498195, 0.43536874450180496),
        (1.0, 0.1154607743237857, 0.6410764462809939),
        (0.0020339795461087537,),
    ),
    ("exponential", 0): (
        "OddCase",
        (0.0, 1.3300912578617015),
        (0.09943880981000579, 0.9005611901899943),
        (1.0, 0.1624199675354056, 0.08377068730056327),
        (0.03310401808651718,),
    ),
    ("exponential", 1): (
        "OddCase",
        (0.0, 1.3220610740796643),
        (0.05272335713317194, 0.9472766428668281),
        (1.0, 0.12004414199221813, 0.08900218913863661),
        (0.024344406071483318,),
    ),
    ("exponential3", 0): (
        "OddCase",
        (0.0, 0.6863945234666247, 2.2305093563013845),
        (0.05452389708027817, 0.4009750190946733, 0.5445010838250486),
        (1.0, 0.3148893431558516, 0.2690742934511807, 0.16241996753534857, 0.08377068730052584),
        (0.0008425032273458033,),
    ),
    ("exponential3", 1): (
        "OddCase",
        (0.0, 0.850322337157391, 2.171563137860068),
        (0.025281718203824036, 0.4841373284554164, 0.49058095334075963),
        (1.0, 0.2880684277586465, 0.29734495814951994, 0.12004414199221351, 0.08900218913863295),
        (0.0006509691321123778,),
    ),
    ("polynomial", 0): (
        "EvenCase",
        (-1.0, -0.4539074539420855, 0.4539074539420854, 1.0),
        (0.07688787185354691, 0.42311212814645305, 0.4231121281464531, 0.0768878718535469),
        (1.0, -1.3877787807814457e-17, 0.3281250000000003, -2.0816681711721685e-17, 0.1896972656250001, -1.5612511283791264e-17),
        (0.03338055277979654,),
    ),
    ("polynomial", 1): (
        "EvenCase",
        (-1.0, -0.35825874444449707, 0.45274549400908914, 1.0),
        (0.03873659237115195, 0.5353567267402882, 0.3752803449166984, 0.05062633597186144),
        (1.0, -0.009999999999969894, 0.234999999999989, 0.022100000000001598, 0.11395000000000902, 0.015868999999999845),
        (0.026347439161234693,),
    ),
}
# (k, direction): (points, weights).
PRINCIPAL_PINS = {
    (4, "upper"): (
        (-1.0, 0.18036529680367366, 1.0),
        (0.07479045776918271, 0.6986542961769595, 0.22655524605385782),
    ),
    (4, "lower"): (
        (-0.3841391565418907, 0.6508058232087163),
        (0.3604327309465862, 0.6395672690534138),
    ),
    (5, "upper"): (
        (-0.5183391285356211, 0.43138260679610263, 1.0),
        (0.2419880993998236, 0.6100160115970291, 0.14799588900314728),
    ),
    (5, "lower"): (
        (-1.0, -0.1387166473840476, 0.7269519415017145),
        (0.03874092009685413, 0.4324217759736566, 0.5288373039294894),
    ),
    (6, "upper"): (
        (-1.0, -0.290951062115302, 0.5469769292522805, 1.0),
        (0.025578324721620027, 0.31871545673508533, 0.5424240891303587, 0.11328212941293599),
    ),
    (6, "lower"): (
        (-0.6501856196853375, 0.12499999999945949, 0.7930427625419713),
        (0.1425609275375901, 0.4425287356324555, 0.41491033682995443),
    ),
    (7, "upper"): (
        (-0.7119039187130011, -0.028295014520471538, 0.6561516056118059, 1.0),
        (0.10254030790644388, 0.3616170745030414, 0.4546059148357672, 0.08123670275474755),
    ),
    (7, "lower"): (
        (-1.0, -0.45667894125133474, 0.26434561237625664, 0.8278261036825646),
        (0.015584479164909387, 0.2034509635031157, 0.42895948354788643, 0.3520050737840886),
    ),
    (8, "upper"): (
        (-1.0, -0.5390225529530522, 0.11954665046560724, 0.7153485132528443, 1.0),
        (0.01129667888351575, 0.15394443405241404, 0.371343744001838, 0.3988450732754616, 0.06457006978677068),
    ),
    (8, "lower"): (
        (-0.7771909420136747, -0.2176472638963207, 0.40269789512653414, 0.8588069774708806),
        (0.06667896169870403, 0.2525980290036041, 0.38984120698234326, 0.29088180231534855),
    ),
}
# k: (gamma_lower, gamma_upper) of the probe x^k, the x^k moments of the
# lower and upper principal representations of monomial_c0(k).
GAMMA_PINS = {
    4: (0.12258230452674891, 0.3020850949884435),
    5: (0.06859886811867592, 0.1480542527570033),
    6: (0.11398478916713169, 0.15358002812353602),
    7: (0.07739409127276421, 0.0955388576021392),
    8: (0.09522253800000015, 0.10431306185460848),
}


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("case,design", list(REDUCE_PINS), ids=[f"{c}-{d}" for c, d in REDUCE_PINS])
def test_reduce_design_is_pinned(case, design):
    theta, (a, b), direction = CASES[case]
    fractions, weights = DESIGNS[design]
    xi = Design(points=tuple(a + f * (b - a) for f in fractions), weights=weights, interval=Interval(a, b))
    report = reduce_design(make_model(case, theta, (a, b)), theta, xi, direction)
    branch, points, weights, moments_out, gains = REDUCE_PINS[case, design]
    assert report.branch == branch
    assert len(report.output.points) == len(points)
    close(report.output.points, points)
    close(report.output.weights, weights)
    close(report.moments_out.coordinates, moments_out)
    close(report.gain_spectrum, gains)


def monomial_c0(k):
    """The monomial system on [-1, 1] and the moments of k + 2 midpoints
    weighted 1, 2, ..., k + 2."""
    system = polynomial_system(k, Interval(-1.0, 1.0))
    n = k + 2
    w = np.arange(1.0, n + 1)
    points = tuple(-1.0 + (np.arange(n) + 0.5) * (2.0 / n))
    xi = Design(points=points, weights=tuple(w / w.sum()), interval=system.interval)
    return system, moment_point(system, xi)


@pytest.mark.parametrize("k,which", list(PRINCIPAL_PINS), ids=[f"k{k}-{w}" for k, w in PRINCIPAL_PINS])
def test_principal_representation_is_pinned(k, which):
    system, c0 = monomial_c0(k)
    result = (upper_principal if which == "upper" else lower_principal)(system, c0)
    points, weights = PRINCIPAL_PINS[k, which]
    assert len(result.design.points) == len(points)
    close(result.design.points, points)
    close(result.design.weights, weights)


@pytest.mark.parametrize("k", list(GAMMA_PINS))
def test_classification_is_pinned(k):
    system, c0 = monomial_c0(k)
    report = classify_point(system, c0, lambda x: np.asarray(x, float) ** k)
    assert report.classification == "Interior"
    close((report.gamma_lower, report.gamma_upper), GAMMA_PINS[k])


def orthogonal_roots(m, d):
    """The roots of the monic degree-d orthogonal polynomial of the
    moments m, its coefficients from the Hankel system of m."""
    if d == 0:
        return []
    H = mpmath.matrix([[m[i + j] for j in range(d)] for i in range(d)])
    a = mpmath.lu_solve(H, mpmath.matrix([-m[i + d] for i in range(d)]))
    roots = mpmath.polyroots([1] + [a[j] for j in reversed(range(d))], maxsteps=200, extraprec=200)
    return sorted(mpmath.re(r) for r in roots)


def mp_rule(m, a, b, which):
    """c0's principal representation on the monomials as a Gauss-type
    rule: the lower one at even k the Gauss rule of m, at odd k the Radau
    rule (B upper, A lower) and the upper one at even k the Lobatto rule,
    whose interior points are the Gauss points of the measure times
    B - x, x - A or (x - A)(B - x).  The weights solve the Vandermonde
    system of the first moments."""
    k, n = len(m), len(m) // 2
    if k % 2 == 0 and which == "lower":
        points = orthogonal_roots(m, n)
    elif k % 2:
        end, sign = (b, -1) if which == "upper" else (a, 1)
        inner = orthogonal_roots([sign * (m[i + 1] - end * m[i]) for i in range(k - 1)], n)
        points = inner + [b] if which == "upper" else [a] + inner
    else:
        inner = orthogonal_roots([(a + b) * m[i + 1] - m[i + 2] - a * b * m[i] for i in range(k - 2)], n - 1)
        points = [a] + inner + [b]
    vandermonde = mpmath.matrix([[p**i for p in points] for i in range(len(points))])
    weights = mpmath.lu_solve(vandermonde, mpmath.matrix(m[: len(points)]))
    return points, list(weights)


@pytest.mark.parametrize("k", list(GAMMA_PINS))
def test_gamma_pins_are_the_50_digit_rules(k):
    """Each pin is the x^k moment of c0's rules at 50 digits, on c0's
    doubles taken exactly, rounded once; each rule has positive weights
    and matches all k moments."""
    _, c0 = monomial_c0(k)
    with mpmath.workdps(50):
        m = [mpmath.mpf(c) for c in c0.coordinates]
        gammas = []
        for which in ("lower", "upper"):
            points, weights = mp_rule(m, mpmath.mpf(-1), mpmath.mpf(1), which)
            assert min(weights) > 0
            for i in range(k):
                assert abs(mpmath.fsum(w * p**i for p, w in zip(points, weights)) - m[i]) < mpmath.mpf(10) ** -45
            gammas.append(float(mpmath.fsum(w * p**k for p, w in zip(points, weights))))
    assert tuple(gammas) == GAMMA_PINS[k]
