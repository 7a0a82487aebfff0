"""Reducing a saturation-curve design without losing information.

A Michaelis-Menten experiment spread uniformly over eight
concentrations is dominated by a two-point design: same first moments
of the induced function system, at least as much information in the
Loewner order, for every parameter estimate built on the information
matrix.  The reduction returns the dominating design and the evidence.
"""

import numpy as np

from tcheb import Design, Interval, make_model, reduce_design, verify_domination

theta = [1.0, 1.0]
model = make_model("michaelis_menten", theta, (0.0, 10.0))

xi = Design(
    points=tuple(float(v) for v in range(1, 9)),
    weights=(0.125,) * 8,
    interval=Interval(0.0, 10.0),
)
print("input design: uniform on {1, ..., 8}, interval [0, 10]")

rep = reduce_design(model, theta, xi, "upper")
print(f"branch: {rep.branch} (design index {rep.input_index})")
print("reduced design:")
for p, w in zip(rep.output.points, rep.output.weights):
    print(f"  x = {p:8.5f}   w = {w:.6f}")
print()

cin = np.asarray(rep.moments_in.coordinates)
cout = np.asarray(rep.moments_out.coordinates)
print(f"moment preservation: max |difference| = {np.max(np.abs(cout - cin)):.2e}")
print(f"matched-direction gain: {rep.gain_spectrum[0]:.6f} (must be >= 0)")
print(f"information difference spectrum: {np.round(rep.difference_spectrum, 9)}")
print()

dom = verify_domination(model, theta, rep.output, xi)
print(f"two points dominate eight: {dom.dominates}")
print()

print("the same input through the lower branch is refused:")
try:
    reduce_design(model, theta, xi, "lower")
except Exception as err:
    print(f"  {type(err).__name__}: {str(err)[:72]}...")
print("(negating the appended function breaks the determinant condition")
print(" for this model, so no lower-class guarantee exists here)")
