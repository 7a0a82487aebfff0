"""Determinant checks on ordered function systems.

A system of k functions is usable for moment-space arguments when every
collocation determinant over increasing point tuples is positive.  The
check is falsifying: sampling can refute the property but never prove
it.  This script probes a few systems, including one whose sign is
deliberately broken and one whose validity depends on a model parameter.
"""

import numpy as np

from tcheb import (
    ChebyshevSystem,
    Interval,
    augment,
    basis_matrix,
    check_chebyshev,
    make_model,
    polynomial_system,
    psi_k_Q,
    psi_system,
)


def show(label, report):
    mark = "ok " if report.verified else "REJECTED"
    print(f"  {label:40s} {mark}  (min decisive det {report.min_determinant:.3e})")
    if report.witness is not None:
        print(f"    witness tuple: {np.round(report.witness, 4)}")


print("Monomial systems (positivity is the Vandermonde identity):")
for k in (2, 4, 6):
    rep = check_chebyshev(polynomial_system(k, Interval(-1.0, 1.0)), seed=0)
    show(f"{{1, x, ..., x^{k-1}}} on [-1, 1]", rep)

print("\nA broken system is caught immediately:")
flipped = ChebyshevSystem.from_functions(
    Interval(0.0, 1.0),
    (lambda x: np.ones_like(np.asarray(x, dtype=float)), lambda x: -x),
)
show("{1, -x} on [0, 1]", check_chebyshev(flipped, seed=0))

print("\nA custom system, from one callable per function or one evaluator:")
# t = x / (1 + x) increases on [0, 10], so {1, t, t^2} is Chebyshev there.
saturation = Interval(0.0, 10.0)
per_function = ChebyshevSystem.from_functions(
    saturation, (np.ones_like, lambda x: x / (1.0 + x), lambda x: (x / (1.0 + x)) ** 2)
)


def saturation_rows(xs):
    t = xs / (1.0 + xs)
    return np.vstack([np.ones_like(t), t, t * t])


as_a_whole = ChebyshevSystem(saturation, 3, saturation_rows)
show("{1, t, t^2}, t = x/(1+x), per function", check_chebyshev(per_function, seed=0))
show("{1, t, t^2}, t = x/(1+x), one evaluator", check_chebyshev(as_a_whole, seed=0))
xs = np.linspace(0.0, 10.0, 11)
assert np.allclose(basis_matrix(per_function, xs), basis_matrix(as_a_whole, xs))

print("\nExponential model, rate +1 versus -1 on [0, 3]:")
print("(the base system passes either way; the augmented system that")
print("justifies a reduction direction is sign-sensitive)")
for rate in (1.0, -1.0):
    theta = [1.0, rate]
    psi = psi_system(make_model("exponential", theta, (0.0, 3.0)), theta)
    f = psi_k_Q(psi, (1.0,))
    show(f"rate {rate:+.0f}: base system", check_chebyshev(psi.system, seed=0))
    show(
        f"rate {rate:+.0f}: augmented, upper direction",
        check_chebyshev(augment(psi.system, f), seed=0),
    )
    show(
        f"rate {rate:+.0f}: augmented, lower direction",
        check_chebyshev(augment(psi.system, lambda x: -f(x)), seed=0),
    )
