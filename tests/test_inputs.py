"""The one rule for the numbers a caller passes: every entry point reads
them through ``check_real`` or ``check_reals``, so a string, a bool, None
or a non-finite value ends in ConfigurationError naming the entry.  The
one rule for the objects: ``check_type`` refuses a model, design, system,
structure or psi system of the wrong type by name."""

import dataclasses
import math
import re

import numpy as np
import pytest

from tcheb import Design, Interval, MomentPoint, make_model, psi_k_Q, psi_system, solve_lp
from tcheb.chebyshev import (
    augment, basis_matrix, check_chebyshev, check_real, check_reals, derivative_matrix, evaluate_basis,
    polynomial_system,
)
from tcheb.errors import ConfigurationError, DomainError
from tcheb.models import c_matrix, information_matrix
from tcheb.moments import design_index, moment_point
from tcheb.principal import STRUCTURES, refine_newton
from tcheb.reduction import criterion_value, optimize_in_class, reduce_design, verify_domination

MM_IV = (0.0, 10.0)
MM = make_model("michaelis_menten", (1.0, 1.0), MM_IV)
XI = Design(points=(1.0, 5.0, 10.0), weights=(0.25, 0.25, 0.5), interval=Interval(*MM_IV))
SYS3 = polynomial_system(3, Interval(0.0, 1.0))
C0 = MomentPoint(coordinates=(1.0, 0.75, 0.625), system=SYS3)  # of {(0.5, 0.5), (1.0, 0.5)}
LP = {"A": [[1.0, 1.0]], "b": [1.0], "c": [1.0, 1.0]}

# Each entry: (the name its message gives, the call on one bad number v).
ENTRIES = {
    "interval": ("interval lower", lambda v: Interval(v, 1.0)),
    "make_model_theta": ("model michaelis_menten theta[1]", lambda v: make_model("michaelis_menten", (1.0, v), MM_IV)),
    "reduce_theta": ("model michaelis_menten theta[1]", lambda v: reduce_design(MM, (1.0, v), XI)),
    "information_theta": ("model michaelis_menten theta[0]", lambda v: information_matrix(MM, [v, 1.0], XI)),
    "psi_theta": ("model michaelis_menten theta[1]", lambda v: psi_system(MM, np.array([1.0, v], dtype=object))),
    "Q": ("Q[0]", lambda v: psi_k_Q(psi_system(MM, (1.0, 1.0)), (v,))),
    "design_points": ("design points[1]", lambda v: Design((1.0, v), (0.5, 0.5), Interval(*MM_IV))),
    "design_weights": ("design weights[1]", lambda v: Design((1.0, 2.0), (0.5, v), Interval(*MM_IV))),
    "moment_point": ("moment coordinate c0[1]", lambda v: MomentPoint((1.0, v, 0.3), SYS3)),
    "json_design": (
        "design weights[0]",
        lambda v: Design.from_json_obj({"points": [1.0], "weights": [v], "interval": [0.0, 10.0]}),
    ),
    "json_interval": (
        "interval upper",
        lambda v: Design.from_json_obj({"points": [0.5], "weights": [1.0], "interval": [0.0, v]}),
    ),
    "lp_A": ("LP A[0, 1]", lambda v: solve_lp([[1.0, v]], LP["b"], LP["c"])),
    "lp_b": ("LP b[0]", lambda v: solve_lp(LP["A"], [v], LP["c"])),
    "lp_c": ("LP c[1]", lambda v: solve_lp(LP["A"], LP["b"], (1.0, v))),
    "feas_tol": ("feas_tol", lambda v: solve_lp(LP["A"], LP["b"], LP["c"], feas_tol=v)),
    "tolerance": ("tolerance", lambda v: verify_domination(MM, (1.0, 1.0), XI, XI, tolerance=v)),
    "evaluate_basis": ("x", lambda v: evaluate_basis(SYS3, v)),
    "basis_matrix": ("xs[1]", lambda v: basis_matrix(SYS3, [0.5, v])),
    "derivative_matrix": ("xs[1]", lambda v: derivative_matrix(SYS3, np.array([0.5, v], dtype=object))),
    "refine_newton": (
        "initial atoms[1, 1]",
        lambda v: refine_newton(SYS3, C0, STRUCTURES["upper"](3), [(0.5, 0.5), (1.0, v)]),
    ),
}

BAD = {"numeric_str": "0.5", "str": "a", "none": None, "bool": True, "np_bool": np.bool_(True),
       "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_bad_number_is_refused_by_name(entry, bad):
    """Every entry refuses each bad number with a typed error naming it:
    numeric strings parsed, bools ran as 1.0 and other strings raised an
    untyped ValueError or TypeError, and a tolerance of True judged a
    whitened lambda_min of -1 to dominate."""
    if entry == "feas_tol" and bad == "none":
        pytest.skip("feas_tol=None asks for the default tolerance")
    name, call = ENTRIES[entry]
    value = BAD[bad]
    rule = f"finite, got {value!r}" if bad in ("nan", "inf") else rf"a real number, got {type(value).__name__}"
    with pytest.raises(DomainError if entry == "Q" else ConfigurationError, match=f"^{re.escape(name)} must be {rule}$"):
        call(value)


PSI = psi_system(MM, (1.0, 1.0))

# Each entry: (the argument's kind, the call on one bad object v).
OBJECT_ENTRIES = {
    "reduce_design_model": ("model", lambda v: reduce_design(v, (1.0, 1.0), XI)),
    "reduce_design_design": ("design", lambda v: reduce_design(MM, (1.0, 1.0), v)),
    "verify_domination": ("design", lambda v: verify_domination(MM, (1.0, 1.0), v, XI)),
    "information_matrix": ("design", lambda v: information_matrix(MM, (1.0, 1.0), v)),
    "c_matrix": ("design", lambda v: c_matrix(MM, (1.0, 1.0), v)),
    "criterion_value": ("design", lambda v: criterion_value(MM, (1.0, 1.0), v)),
    "design_index": ("design", design_index),
    "moment_point_system": ("system", lambda v: moment_point(v, XI)),
    "moment_point_design": ("design", lambda v: moment_point(PSI.system, v)),
    "psi_system": ("model", lambda v: psi_system(v, (1.0, 1.0))),
    "optimize_in_class": ("model", lambda v: optimize_in_class(v, (1.0, 1.0), restarts=1)),
    "refine_newton": ("structure", lambda v: refine_newton(SYS3, C0, v, [(0.5, 0.5), (1.0, 0.5)])),
    "basis_matrix": ("system", lambda v: basis_matrix(v, [0.5])),
    "derivative_matrix": ("system", lambda v: derivative_matrix(v, [0.5])),
    "evaluate_basis": ("system", lambda v: evaluate_basis(v, 0.5)),
    "check_chebyshev": ("system", check_chebyshev),
    "augment": ("system", lambda v: augment(v, lambda x: x)),
    "psi_k_Q": ("psi", lambda v: psi_k_Q(v, (1.0,))),
}

# The type each kind must have, and its data in another type.
KINDS = {
    "model": ("a RegressionModel", dict(vars(MM))),
    "design": ("a Design", XI.as_json_obj()),
    "system": ("a ChebyshevSystem", dict(vars(SYS3))),
    "structure": ("a RepresentationStructure", dataclasses.astuple(STRUCTURES["upper"](3))),
    "psi": ("a PsiSystem", dict(vars(PSI))),
}


@pytest.mark.parametrize("bad", ["none", "str", "data"])
@pytest.mark.parametrize("entry", OBJECT_ENTRIES)
def test_an_object_of_the_wrong_type_is_refused_by_name(entry, bad):
    """Every public entry refuses None, a string or the right data in
    another type with check_type's ConfigurationError: each ended in an
    untyped AttributeError at its first read of the argument."""
    kind, call = OBJECT_ENTRIES[entry]
    want, data = KINDS[kind]
    value = {"none": None, "str": "a", "data": data}[bad]
    with pytest.raises(ConfigurationError, match=f"^{kind} must be {want}, got {type(value).__name__}$"):
        call(value)


def test_a_tolerance_of_true_is_no_verdict():
    """The case that motivated the rule: a one-point design misses a
    direction the three-point one sees, and tolerance=True ran as 1.0."""
    one = Design(points=(10.0,), weights=(1.0,), interval=Interval(*MM_IV))
    three = Design(points=(1.0, 5.0, 10.0), weights=(1 / 3,) * 3, interval=Interval(*MM_IV))
    assert not verify_domination(MM, (1, 1), one, three).dominates
    with pytest.raises(ConfigurationError, match="^tolerance must be a real number, got bool$"):
        verify_domination(MM, (1, 1), one, three, tolerance=True)


@pytest.mark.parametrize(
    "value", [1, 2.5, np.float64(2.5), np.int64(3), np.float32(0.5)], ids=["int", "float", "float64", "int64", "float32"]
)
def test_check_real_takes_real_numbers(value):
    got = check_real(value, "v")
    assert type(got) is float and got == float(value)


@pytest.mark.parametrize(
    "values",
    [(1.0, 2.0), [1, 2.5], np.array([1, 2]), np.array([[1.0, 2.0]], order="F"), [np.float64(1.0)], 3.0, []],
    ids=["tuple", "list", "int_array", "2d_array", "float64_entries", "scalar", "empty"],
)
def test_check_reals_takes_real_arrays(values):
    got = check_reals(values, "v")
    want = np.asarray(values, dtype=float)
    assert got.dtype == np.float64 and got.shape == want.shape and got.tobytes() == want.tobytes()
    if isinstance(values, np.ndarray):
        assert got is not values


@pytest.mark.parametrize(
    "values, message",
    [
        ([[1.0, 2.0], [3.0]], r"^v\[0\] must be a real number, got list$"),
        ([1.0, [2.0]], r"^v\[1\] must be a real number, got list$"),
        ("ab", r"^v must be a real number, got str$"),
        (np.array([[1.0, 2.0], [3.0, np.nan]]), r"^v\[1, 1\] must be finite, got nan$"),
        (np.array([True, False]), r"^v\[0\] must be a real number, got bool$"),
        (np.array([1 + 1j]), r"^v\[0\] must be a real number, got complex$"),
        ((x for x in (1.0,)), r"^v must be a real number, got generator$"),
    ],
    ids=["ragged", "nested_entry", "string", "nan_2d", "bool_array", "complex", "generator"],
)
def test_check_reals_names_the_first_bad_entry(values, message):
    with pytest.raises(ConfigurationError, match=message):
        check_reals(values, "v")


THETA_FORMS = {
    "tuple": (1.0, 0.5, -0.5, 0.25),
    "list": [1.0, 0.5, -0.5, 0.25],
    "ndarray": np.array([1.0, 0.5, -0.5, 0.25]),
    "float64_entries": tuple(np.float64(v) for v in (1.0, 0.5, -0.5, 0.25)),
    "int_and_float": [1, 0.5, -0.5, 0.25],
}


def _report_bytes(report) -> bytes:
    fields = (report.input.points, report.input.weights, report.output.points, report.output.weights,
              report.branch, report.input_index, report.moments_in.coordinates, report.moments_out.coordinates,
              report.loewner_min_eigenvalue, report.gain_spectrum, report.difference_spectrum)
    return repr(fields).encode()


@pytest.mark.parametrize("form", THETA_FORMS)
def test_every_form_of_theta_gives_the_same_report(form):
    """theta as a tuple, a list, an ndarray or numpy scalars is one vector."""
    iv = Interval(-1.0, 1.0)
    xi = Design(points=tuple(np.linspace(-0.9, 0.9, 8)), weights=(0.125,) * 8, interval=iv)
    model = make_model("polynomial", THETA_FORMS[form], iv)
    want = _report_bytes(reduce_design(model, THETA_FORMS["tuple"], xi, "upper"))
    assert _report_bytes(reduce_design(model, THETA_FORMS[form], xi, "upper")) == want
