"""Classical quadrature rules recovered from moment matching.

The principal representations of a moment point are the measures with
the fewest support points that reproduce the first k moments.  For the
monomial system and the uniform measure on [-1, 1] they are exactly the
2-point Gauss rule (no endpoints) and the 3-point Lobatto rule (both
endpoints), so the solver can be checked against numbers known to
fifteen digits.

For ``polynomial_system`` with no probe the solver builds these rules
directly from the moments (the Chebyshev algorithm and the eigenvalues
of the Jacobi matrix) and polishes them by Newton; it solves the grid
moment LP only when that fails, so the printed rules agree with the
known ones to about 1e-16.
"""

import numpy as np

from tcheb import Interval, lower_principal, polynomial_system, upper_principal
from tcheb.moments import MomentPoint

sys4 = polynomial_system(4, Interval(-1.0, 1.0))
# moments of the uniform probability measure: 1, 0, 1/3, 0
c0 = MomentPoint(coordinates=(1.0, 0.0, 1.0 / 3.0, 0.0), system=sys4)

lo = lower_principal(sys4, c0)
up = upper_principal(sys4, c0)

print("moment point:", c0.coordinates)
print()
print("lower representation (interior points only):")
for p, w in zip(lo.design.points, lo.design.weights):
    print(f"  x = {p:+.15f}   w = {w:.15f}")
print(f"  versus +-1/sqrt(3) = {1/np.sqrt(3):.15f}, weights 1/2 (Gauss)")
print()
print("upper representation (both endpoints):")
for p, w in zip(up.design.points, up.design.weights):
    print(f"  x = {p:+.15f}   w = {w:.15f}")
print("  versus {-1: 1/6, 0: 2/3, 1: 1/6} (Lobatto)")
print()

print("both reproduce the moments they were built from:")
for name, res in (("lower", lo), ("upper", up)):
    pts = res.design.points_array()
    w = res.design.weights_array()
    back = [float(w @ pts**i) for i in range(4)]
    err = max(abs(b - c) for b, c in zip(back, c0.coordinates))
    print(f"  {name}: max moment error {err:.2e}, solver residual {res.residual_norm:.2e}")
