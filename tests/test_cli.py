import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcheb
from tcheb import Design, Interval, make_model, psi_system, reduce_design
from tcheb.chebyshev import INDETERMINATE_REL, basis_matrix
from tcheb.cli import main
from tcheb.errors import PreconditionError
from tcheb.reduction import gate_certified

MM_SPEC = {"model": "michaelis_menten", "theta": [1.0, 1.0], "interval": [0.0, 10.0]}
EXP_NEG_SPEC = {"model": "exponential", "theta": [1.0, -1.0], "interval": [0.0, 3.0]}
DESIGN8 = {
    "points": [1, 2, 3, 4, 5, 6, 7, 8],
    "weights": [0.125] * 8,
    "interval": [0.0, 10.0],
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "mm.json").write_text(json.dumps(MM_SPEC))
    (tmp_path / "expneg.json").write_text(json.dumps(EXP_NEG_SPEC))
    (tmp_path / "design8.json").write_text(json.dumps(DESIGN8))
    return tmp_path


def run(workdir, *args):
    return main([str(a) for a in args])


def test_moments_report(workdir):
    out = workdir / "moments.json"
    code = run(
        workdir, "moments", "--model", workdir / "mm.json",
        "--design", workdir / "design8.json", "--out", out,
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["k"] == 3
    assert rep["index"] == 8
    assert rep["moment_point"][0] == 1.0


def test_moments_single_point_index_one(workdir):
    d = workdir / "one.json"
    d.write_text(json.dumps({"points": [2.0], "weights": [1.0], "interval": [0.0, 10.0]}))
    out = workdir / "m1.json"
    assert run(workdir, "moments", "--model", workdir / "mm.json", "--design", d, "--out", out) == 0
    assert json.loads(out.read_text())["index"] == 1


def test_check_pass_and_fail(workdir):
    """michaelis_menten upper is certified, so its report is the
    certificate alone; exponential upper at a negative rate runs the
    sample, whose augmented check refuses."""
    out = workdir / "check.json"
    assert run(workdir, "check", "--model", workdir / "mm.json", "--out", out) == 0
    assert json.loads(out.read_text()) == {"certified": True, "direction": "upper", "k": 3}

    out2 = workdir / "check2.json"
    code = run(workdir, "check", "--model", workdir / "expneg.json",
               "--direction", "upper", "--out", out2)
    assert code == 2
    rep2 = json.loads(out2.read_text())
    assert rep2["augmented"]["verified"] is False
    assert "witness" in rep2["augmented"]


def test_reduce_report_and_csv(workdir):
    out = workdir / "reduce.json"
    code = run(
        workdir, "reduce", "--model", workdir / "mm.json",
        "--design", workdir / "design8.json", "--direction", "upper", "--out", out,
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["branch"] == "OddCase"
    assert len(rep["output"]["points"]) <= 2
    assert 10.0 in rep["output"]["points"]
    csv_lines = (workdir / "reduce.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "point,weight"
    assert len(csv_lines) == 1 + len(rep["output"]["points"])
    p, w = csv_lines[-1].split(",")
    assert float(p) == rep["output"]["points"][-1]
    assert float(w) == rep["output"]["weights"][-1]


def test_reduce_output_reingests(workdir):
    out = workdir / "reduce.json"
    run(
        workdir, "reduce", "--model", workdir / "mm.json",
        "--design", workdir / "design8.json", "--out", out,
    )
    reduced = json.loads(out.read_text())["output"]
    d2 = workdir / "reduced.json"
    d2.write_text(json.dumps(reduced))
    out2 = workdir / "dom.json"
    code = run(
        workdir, "dominate", "--model", workdir / "mm.json",
        "--design", d2, "--design2", workdir / "design8.json", "--out", out2,
    )
    assert code == 0
    rep = json.loads(out2.read_text())
    assert rep["dominates"] is True
    assert rep["difference_spectrum"] == sorted(rep["difference_spectrum"])


def test_dominate_reports_the_whitened_eigenvalue(workdir):
    """The number the verdict compares with -tol.psd: 0.0 for a design
    against itself, -1 for one point against two, and the library's own
    value to 15 digits."""
    one, two = workdir / "one.json", workdir / "two.json"
    one.write_text(json.dumps({"points": [5.0], "weights": [1.0], "interval": [0.0, 10.0]}))
    two.write_text(json.dumps({"points": [2.0, 8.0], "weights": [0.5, 0.5], "interval": [0.0, 10.0]}))
    out = workdir / "dom.json"
    model = make_model("michaelis_menten", [1.0, 1.0], (0.0, 10.0))
    for xi1, xi2 in ((workdir / "design8.json",) * 2, (one, two)):
        assert run(workdir, "dominate", "--model", workdir / "mm.json", "--design", xi1, "--design2", xi2, "--out", out) == 0
        rep = json.loads(out.read_text())
        designs = [Design.from_json_obj(json.loads(path.read_text())) for path in (xi1, xi2)]
        lib = tcheb.verify_domination(model, [1.0, 1.0], *designs)
        assert rep["loewner_min_eigenvalue"] == float(f"{lib.loewner_min_eigenvalue:.15g}")
        assert rep["dominates"] is (rep["loewner_min_eigenvalue"] >= -rep["tolerance"])
    assert rep["loewner_min_eigenvalue"] == pytest.approx(-1.0, abs=1e-9)


def test_a_reduction_that_does_not_dominate_exits_degenerate(workdir, shifted_solver):
    """An output that fails the Loewner check at PSD_TOL is refused, not
    written: here the solver's interior point is moved +1.0."""
    out = workdir / "reduce.json"
    assert run(workdir, "reduce", "--model", workdir / "mm.json", "--design", workdir / "design8.json", "--out", out) == 1
    error = json.loads(out.read_text())["error"]
    assert error["code"] == "degenerate"
    assert error["message"].startswith("the upper reduction does not dominate its input: whitened lambda_min -0.2555")
    assert not (workdir / "reduce.csv").exists()


def test_byte_identical_reports(workdir):
    a, b = workdir / "a.json", workdir / "b.json"
    for out in (a, b):
        run(
            workdir, "reduce", "--model", workdir / "mm.json",
            "--design", workdir / "design8.json", "--seed", 0, "--out", out,
        )
    assert a.read_bytes() == b.read_bytes()


def test_optimize_report(workdir):
    out = workdir / "opt.json"
    code = run(
        workdir, "optimize", "--model", workdir / "mm.json",
        "--criterion", "d", "--direction", "upper", "--out", out,
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["design"]["points"][-1] == 10.0
    assert rep["design"]["points"][0] == pytest.approx(10.0 / 12.0, abs=1e-3)
    assert rep["value"] == pytest.approx(-4.7307, abs=1e-3)
    assert (workdir / "opt.csv").exists()


def test_reduce_precondition_exit_two(workdir):
    spec = workdir / "e3neg.json"
    spec.write_text(
        json.dumps({"model": "exponential3", "theta": [1.0, 1.0, -1.0], "interval": [0.0, 3.0]})
    )
    d = workdir / "d7.json"
    pts = [0.5 * i for i in range(7)]
    d.write_text(json.dumps({"points": pts, "weights": [1 / 7] * 7, "interval": [0.0, 3.0]}))
    out = workdir / "r.json"
    code = run(workdir, "reduce", "--model", spec, "--design", d,
               "--direction", "upper", "--out", out)
    assert code == 2
    err = json.loads(out.read_text())["error"]
    assert err["code"] == "precondition"
    assert "witness" in err


def test_io_and_schema_errors(workdir):
    out = workdir / "x.json"
    assert run(workdir, "moments", "--model", workdir / "nope.json",
               "--design", workdir / "design8.json", "--out", out) == 1
    assert json.loads(out.read_text())["error"]["code"] == "io"

    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert run(workdir, "moments", "--model", bad,
               "--design", workdir / "design8.json", "--out", out) == 1

    wrong = workdir / "wrong.json"
    wrong.write_text(json.dumps({"model": "nope", "theta": [1.0], "interval": [0, 1]}))
    assert run(workdir, "moments", "--model", wrong,
               "--design", workdir / "design8.json", "--out", out) == 1
    assert json.loads(out.read_text())["error"]["code"] == "configuration"


def test_design_interval_must_match_model(workdir):
    d = workdir / "short.json"
    d.write_text(json.dumps({"points": [0.5], "weights": [1.0], "interval": [0.0, 1.0]}))
    out = workdir / "x.json"
    assert run(workdir, "moments", "--model", workdir / "mm.json",
               "--design", d, "--out", out) == 1


def test_usage_errors_exit_one(workdir, capsys):
    assert main(["moments", "--model", str(workdir / "mm.json")]) == 1
    assert main(["reduce", "--model", str(workdir / "mm.json"),
                 "--design", str(workdir / "design8.json"),
                 "--direction", "sideways", "--out", str(workdir / "x.json")]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_tolerance_override_flags(workdir):
    out = workdir / "r.json"
    assert main(["reduce", "--model", str(workdir / "mm.json"),
                 "--design", str(workdir / "design8.json"),
                 "--out", str(out), "--tol.unknown=1"]) == 1
    assert main(["reduce", "--model", str(workdir / "mm.json"),
                 "--design", str(workdir / "design8.json"),
                 "--out", str(out), "--tol.lp_feas=1e-9"]) == 1


def test_log_env_keeps_report_clean(workdir):
    out = workdir / "m.json"
    # A minimal environment, plus the import path this process took
    # tcheb from, so the child runs the same code installed or not; it
    # writes no bytecode into that tree.
    env = {
        "TCHEB_LOG": "debug",
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(tcheb.__file__).resolve().parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "tcheb.cli", "moments",
         "--model", str(workdir / "mm.json"),
         "--design", str(workdir / "design8.json"), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "INFO" in proc.stderr or "DEBUG" in proc.stderr
    json.loads(out.read_text())


def test_python_dash_m_tcheb_reduce_matches_main(tmp_path):
    """``python -m tcheb``, the package's __main__, runs the README's
    Michaelis-Menten reduction in a child process to the report that
    ``main`` writes in this one."""
    spec, design = tmp_path / "m.json", tmp_path / "d.json"
    spec.write_text(json.dumps({"model": "michaelis_menten", "theta": [1.0, 1.0], "interval": [0, 10]}))
    design.write_text(json.dumps({"points": [1, 2, 3, 4, 5, 6, 7, 8], "weights": [0.125] * 8, "interval": [0, 10]}))
    args = ["reduce", "--model", str(spec), "--design", str(design), "--direction", "upper", "--out"]
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(tcheb.__file__).resolve().parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "tcheb", *args, str(tmp_path / "child.json")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert main([*args, str(tmp_path / "main.json")]) == 0
    assert (tmp_path / "child.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_psd_tolerance_flag(workdir):
    out = workdir / "dom.json"
    code = run(
        workdir, "dominate", "--model", workdir / "mm.json", "--design", workdir / "design8.json",
        "--design2", workdir / "design8.json", "--out", out, "--tol.psd=0.5",
    )
    assert code == 0
    assert json.loads(out.read_text())["tolerance"] == 0.5


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_psd_tolerance_is_a_configuration_error(workdir, value):
    out = workdir / "dom.json"
    code = run(
        workdir, "dominate", "--model", workdir / "mm.json", "--design", workdir / "design8.json",
        "--design2", workdir / "design8.json", "--out", out, f"--tol.psd={value}",
    )
    assert code == 1
    assert json.loads(out.read_text())["error"]["code"] == "configuration"


@pytest.mark.parametrize("command", ["reduce", "check"])
@pytest.mark.parametrize(
    "spec",
    [
        {"model": "polynomial", "theta": [float("nan"), 0.5, -0.5, 0.25], "interval": [0.0, 10.0]},
        {"model": "michaelis_menten", "theta": [1.0, float("inf")], "interval": [0.0, 10.0]},
        {"model": "michaelis_menten", "theta": [float("nan"), 1.0], "interval": [0.0, 10.0]},
    ],
    ids=["polynomial_nan", "mm_infinity", "mm_nan"],
)
def test_non_finite_theta_is_a_configuration_error(workdir, command, spec):
    """The JSON literals NaN and Infinity parse as floats; a theta holding
    one exits 1 with code configuration, before any gate or reduction."""
    model = workdir / "bad.json"
    model.write_text(json.dumps(spec))
    out = workdir / "out.json"
    design = ["--design", workdir / "design8.json"] if command == "reduce" else []
    assert run(workdir, command, "--model", model, *design, "--out", out) == 1
    error = json.loads(out.read_text())["error"]
    assert error["code"] == "configuration"
    assert re.match(r"^model \w+ theta\[\d\] must be finite, got ", error["message"])


@pytest.mark.parametrize(
    "command,flags",
    [
        ("moments", ["--seed", "0"]),
        ("moments", ["--grid", "10"]),
        ("dominate", ["--grid", "10"]),
        ("dominate", ["--seed", "0"]),
        ("check", ["--grid", "10"]),
        ("optimize", ["--grid", "10"]),
        ("optimize", ["--tol.newton=1e-9"]),
        ("dominate", ["--tol.newton=1e-9"]),
        ("reduce", ["--tol.psd=1e-9"]),
        ("reduce", ["--tol=1e-9"]),
        ("dominate", ["--tol=1e-9"]),
        ("reduce", ["--tol.newton=1e-9"]),
        ("reduce", ["--grid", "10"]),
    ],
)
def test_flags_a_command_does_not_read_exit_one(workdir, capsys, command, flags):
    inputs = {
        "check": [],
        "moments": ["--design", workdir / "design8.json"],
        "reduce": ["--design", workdir / "design8.json"],
        "dominate": ["--design", workdir / "design8.json", "--design2", workdir / "design8.json"],
        "optimize": [],
    }[command]
    out = workdir / "x.json"
    assert run(workdir, command, "--model", workdir / "mm.json", *inputs, "--out", out, *flags) == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "configuration"


@pytest.mark.parametrize(
    "command,inputs",
    [("check", []), ("reduce", ["--design", "design8.json"]), ("optimize", [])],
)
def test_negative_seed_is_a_configuration_error(workdir, command, inputs):
    out = workdir / "x.json"
    inputs = [workdir / v if v.endswith(".json") else v for v in inputs]
    assert run(workdir, command, "--model", workdir / "mm.json", *inputs, "--seed", -1, "--out", out) == 1
    assert json.loads(out.read_text())["error"]["code"] == "configuration"


POLY_SPEC = {"model": "polynomial", "theta": [1.0, 0.5, -0.5, 0.25], "interval": [-1.0, 1.0]}
POLY_DESIGN = {"points": [-0.5, 0.0, 0.5], "weights": [0.25, 0.5, 0.25], "interval": [-1.0, 1.0]}


@pytest.mark.parametrize(
    "spec,design",
    [
        ({"theta": 1.0}, {}),
        ({"theta": "abc"}, {}),
        ({"theta": [1, None]}, {}),
        ({"interval": ["a", 10]}, {}),
        ({"p1": True}, {}),
        ({}, {"points": ["x"]}),
        ({}, {"points": 5}),
        ({}, {"weights": [0.5, None]}),
        ({}, {"interval": [0, "z"]}),
        ({}, {"points": [-0.5, float("nan"), 0.5]}),
    ],
    ids=[
        "theta_number", "theta_string", "theta_null", "model_interval_string", "p1_bool",
        "points_string", "points_number", "weights_null", "design_interval_string", "points_nan",
    ],
)
def test_wrong_typed_json_is_a_configuration_error(workdir, spec, design):
    model, xi, out = workdir / "spec.json", workdir / "xi.json", workdir / "x.json"
    model.write_text(json.dumps({**POLY_SPEC, **spec}))
    xi.write_text(json.dumps({**POLY_DESIGN, **design}))
    assert run(workdir, "moments", "--model", model, "--design", xi, "--out", out) == 1
    assert json.loads(out.read_text())["error"]["code"] == "configuration"


@pytest.mark.parametrize(
    "spec, message",
    [
        ([POLY_SPEC], "^model spec must be a JSON object$"),
        ({"model": "polynomial", "interval": [-1.0, 1.0]}, r"^model spec missing fields: \['theta'\]$"),
        (
            {**POLY_SPEC, "interval": [-1.0, 0.0, 1.0]},
            r"^interval must be an Interval or a pair \(A, B\) of numbers, got \[-1\.0, 0\.0, 1\.0\]$",
        ),
        # Finite ends, infinite length: the gradient was blamed at x = -inf.
        (
            {**POLY_SPEC, "interval": [-1e308, 1e308]},
            r"^interval length overflows double precision: \[-1e\+308, 1e\+308\]$",
        ),
    ],
    ids=["not_an_object", "missing_theta", "interval_triple", "interval_length_overflows"],
)
def test_a_malformed_model_spec_is_a_configuration_error(workdir, spec, message):
    model, xi, out = workdir / "spec.json", workdir / "xi.json", workdir / "x.json"
    model.write_text(json.dumps(spec))
    xi.write_text(json.dumps(POLY_DESIGN))
    assert run(workdir, "moments", "--model", model, "--design", xi, "--out", out) == 1
    error = json.loads(out.read_text())["error"]
    assert error["code"] == "configuration"
    assert re.match(message, error["message"])


def test_an_unwritable_out_sends_the_error_to_stdout(workdir, capsys):
    """When --out names a file in a missing directory, the report cannot be
    written, and neither can the error, which goes to standard output."""
    out = workdir / "missing" / "x.json"
    assert run(workdir, "moments", "--model", workdir / "mm.json", "--design", workdir / "design8.json", "--out", out) == 1
    assert not out.parent.exists()
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "io"
    assert "missing" in error["message"]


def test_a_bad_theta_is_refused_before_the_design_is_read(workdir):
    """make_model checks every catalog theta, so a polynomial NaN is a
    configuration error even when the design file does not exist."""
    model, out = workdir / "nan.json", workdir / "x.json"
    model.write_text(json.dumps({"model": "polynomial", "theta": [float("nan"), 1.0], "interval": [-1.0, 1.0]}))
    assert run(workdir, "reduce", "--model", model, "--design", workdir / "nope.json", "--out", out) == 1
    error = json.loads(out.read_text())["error"]
    assert error["code"] == "configuration"
    assert error["message"] == "model polynomial theta[0] must be finite, got nan"


# The benchmark's four reduce cases and the direction of each that the
# gate refuses; both directions run.
GATE_CASES = [
    ("michaelis_menten", [1.0, 1.0], [0.0, 10.0], "lower"),
    ("exponential", [1.0, -1.0], [0.0, 3.0], "upper"),
    ("exponential3", [1.0, 1.0, -1.0], [0.0, 3.0], "upper"),
    ("polynomial", [1.0, 0.5, -0.5, 0.25], [-1.0, 1.0], "lower"),
]


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("name,theta,iv,refused_direction", GATE_CASES, ids=[c[0] for c in GATE_CASES])
def test_check_reports_the_gate_reduce_runs(
    workdir, monkeypatch, name, theta, iv, refused_direction, direction
):
    """At seeds 0 and 1, tcheb check makes the check_gate calls that
    reduce_design makes, with the same reports, and exits by the same
    verdict: none where check reports "certified": true, and then the
    report is the certificate alone."""
    calls = []
    xs = np.linspace(iv[0], iv[1], 11)

    def recording(real):
        def check(system, evaluator, *args):
            result = real(system, evaluator, *args)
            # Systems and evaluators compare by their values at xs.
            key = (system.interval, basis_matrix(system, xs).tobytes(), evaluator(xs).tobytes(), args)
            calls.append((key, result))
            return result

        return check

    monkeypatch.setattr(tcheb.reduction, "check_gate", recording(tcheb.reduction.check_gate))
    spec, out = workdir / "spec.json", workdir / "check.json"
    spec.write_text(json.dumps({"model": name, "theta": theta, "interval": iv}))
    pts = np.linspace(iv[0], iv[1], 9)[1:-1]
    xi = Design(points=tuple(pts), weights=(1 / 7,) * 7, interval=Interval(*iv))
    k = psi_system(make_model(name, theta, iv), theta).k
    for seed in (0, 1):
        code = run(workdir, "check", "--model", spec, "--direction", direction, "--seed", seed, "--out", out)
        checked = calls[:]
        calls.clear()
        try:
            reduce_design(make_model(name, theta, iv), theta, xi, direction, seed=seed)
            refused = False
        except PreconditionError:
            refused = True

        assert refused == (direction == refused_direction)
        assert code == (2 if refused else 0)
        assert calls == checked
        calls.clear()
        report = json.loads(out.read_text())
        assert report["certified"] == (checked == []) == (direction != refused_direction)
        if report["certified"]:
            assert report == {"certified": True, "direction": direction, "k": k}
            continue
        (_, (base, aug, Q)), = checked
        assert report["augmented"].get("Q") == (None if Q is None else list(Q))
        assert (Q is None) == aug.verified
        for part, rep in (("base", base), ("augmented", aug)):
            assert report[part]["verified"] == rep.verified
            assert report[part]["tuples_checked"] == rep.tuples_checked
            assert report[part].get("witness") == (list(rep.witness) if rep.witness else None)


# Keys whose closed-form signs prove the gate while the sample at seed 0
# fails on them: exponential lower at rate -48 underflows to decisive zero
# determinants, and exponential3 upper at rate 40 overflows in det.
EXTREME_CERTIFIED = [
    ("exponential", [1.0, -48.0], "lower", 3),
    ("exponential3", [1.0, 1.0, 40.0], "upper", 5),
]


@pytest.mark.parametrize("name,theta,direction,k", EXTREME_CERTIFIED, ids=[c[0] for c in EXTREME_CERTIFIED])
def test_check_passes_a_certified_key_whose_sample_fails(workdir, name, theta, direction, k):
    """tcheb check reports the certificate that reduce_design runs on, not
    the sample's refusal or overflow."""
    assert gate_certified(make_model(name, theta, [0.0, 3.0]), theta, direction)
    spec, out = workdir / "spec.json", workdir / "check.json"
    spec.write_text(json.dumps({"model": name, "theta": theta, "interval": [0.0, 3.0]}))
    assert run(workdir, "check", "--model", spec, "--direction", direction, "--out", out) == 0
    assert json.loads(out.read_text()) == {"certified": True, "direction": direction, "k": k}


# Catalog models with a psi_order that orients the base system wrongly:
# no catalog base system is refused, so only these reach the base check.
WRONG_ORDER_CASES = [
    ("michaelis_menten", [1.0, 1.0], [0.0, 10.0], (0, 1)),
    ("exponential", [1.0, -1.0], [0.0, 3.0], (1, 0)),
    ("exponential3", [1.0, 1.0, -1.0], [0.0, 3.0], (0, 1, 2, 3)),
]


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("name,theta,iv,order", WRONG_ORDER_CASES, ids=[c[0] for c in WRONG_ORDER_CASES])
def test_base_refusal_names_a_k_tuple(workdir, monkeypatch, name, theta, iv, order, direction):
    """The base check, read off the leading k points of the gate's
    (k + 1)-tuples, refuses a wrongly oriented psi system in reduce and
    in check, with a k-tuple whose determinant is decisively nonpositive."""
    model = dataclasses.replace(make_model(name, theta, iv), psi_order=order)
    k = len(order) + 1
    xi = Design(points=tuple(np.linspace(iv[0], iv[1], 9)[1:-1]), weights=(1 / 7,) * 7, interval=Interval(*iv))
    assert not gate_certified(model, theta, direction)
    with pytest.raises(PreconditionError, match="^base psi system") as err:
        reduce_design(model, theta, xi, direction)
    witness = err.value.witness
    assert len(witness) == k and list(witness) == sorted(witness)
    V = basis_matrix(psi_system(model, theta).system, witness)
    assert np.linalg.det(V) < -INDETERMINATE_REL * np.prod(np.linalg.norm(V, axis=1))

    monkeypatch.setattr(tcheb.cli, "make_model", lambda *args: model)
    spec, out = workdir / "spec.json", workdir / "check.json"
    spec.write_text(json.dumps({"model": name, "theta": theta, "interval": iv}))
    assert run(workdir, "check", "--model", spec, "--direction", direction, "--out", out) == 2
    report = json.loads(out.read_text())
    assert report["certified"] is False
    base = report["base"]
    assert base["verified"] is False
    assert base["witness"] == list(witness)


@pytest.mark.parametrize("command", ["check", "moments", "reduce", "dominate"])
def test_overflow_is_an_evaluation_error(workdir, command):
    # exp(1000 x) overflows double precision on most of [0, 1000].
    spec, xi, out = workdir / "spec.json", workdir / "xi.json", workdir / "out.json"
    spec.write_text(json.dumps({"model": "exponential", "theta": [1.0, 1000.0], "interval": [0.0, 1000.0]}))
    xi.write_text(json.dumps({"points": [1.0, 500.0, 999.0], "weights": [0.25, 0.25, 0.5], "interval": [0.0, 1000.0]}))
    designs = {"moments": ["--design", xi], "reduce": ["--design", xi], "dominate": ["--design", xi, "--design2", xi]}
    assert run(workdir, command, "--model", spec, *designs.get(command, []), "--out", out) == 1
    assert json.loads(out.read_text())["error"]["code"] == "evaluation"


@pytest.mark.parametrize(
    "command, message",
    [
        ("check", "psi dedup table of exponential evaluation: overflow"),
        ("moments", "psi dedup table of exponential evaluation: overflow"),
        ("reduce", "psi dedup table of exponential evaluation: overflow"),
        ("optimize", "psi dedup table of exponential evaluation: overflow"),
        ("dominate", "information matrix of exponential: overflow"),
    ],
)
def test_overflow_after_the_gradient_names_the_products(workdir, command, message):
    """exp(400 x) is finite on [0, 1], but its square is not: the library's
    EvaluationError, not the CLI's floating-point trap, ends the run."""
    spec, xi, xi2, out = (workdir / f for f in ("spec.json", "xi.json", "xi2.json", "out.json"))
    spec.write_text(json.dumps({"model": "exponential", "theta": [1.0, 400.0], "interval": [0.0, 1.0]}))
    xi.write_text(json.dumps({"points": [0.5, 1.0], "weights": [0.5, 0.5], "interval": [0.0, 1.0]}))
    xi2.write_text(json.dumps({"points": [0.2, 1.0], "weights": [0.5, 0.5], "interval": [0.0, 1.0]}))
    designs = {"moments": ["--design", xi], "reduce": ["--design", xi], "dominate": ["--design", xi, "--design2", xi2]}
    assert run(workdir, command, "--model", spec, *designs.get(command, []), "--out", out) == 1
    error = json.loads(out.read_text())["error"]
    assert error["code"] == "evaluation"
    assert error["message"].startswith(message)


def test_an_overflowing_gate_determinant_is_the_librarys_evaluation_error(workdir):
    """exponential3 at rate 40 is finite on [0, 3], but its sampled gate's
    determinants are not; lower is not certified there, so it runs the
    sample."""
    spec, out = workdir / "spec.json", workdir / "out.json"
    spec.write_text(json.dumps({"model": "exponential3", "theta": [1.0, 1.0, 40.0], "interval": [0.0, 3.0]}))
    assert run(workdir, "check", "--model", spec, "--direction", "lower", "--out", out) == 1
    error = json.loads(out.read_text())["error"]
    assert error == {"code": "evaluation", "message": "determinant gate: overflow encountered in det"}


# Generated inputs for the robustness property: catalog model specs and
# designs on their interval, each number finite and at most 1e6 in
# magnitude.  Most are well formed; a drawn flaw breaks one field.
_NUM_PARAMS = {"michaelis_menten": 2, "exponential": 2, "exponential3": 3}
_NUMBERS = st.one_of(st.floats(-1e6, 1e6), st.integers(-1000, 1000))
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.just([1.0]))
_FLAWS = (None,) * 10 + ("model", "theta", "interval", "p1", "points")


@st.composite
def _cli_inputs(draw):
    """A model spec and two designs for it."""
    name = draw(st.sampled_from(("michaelis_menten", "exponential", "exponential3", "polynomial")))
    p = _NUM_PARAMS.get(name) or draw(st.integers(2, 5))
    a = draw(st.floats(-1e6, 1e6))
    b = a + draw(st.floats(1e-3, 1e6))
    spec = {
        "model": name,
        "theta": draw(st.lists(_NUMBERS, min_size=p, max_size=p)),
        "interval": [a, b],
        "p1": draw(st.integers(1, p)),
    }

    def design():
        u = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9))
        w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=len(u), max_size=len(u))))
        return {"points": [a + (b - a) * v for v in u], "weights": list(w / w.sum()), "interval": [a, b]}

    designs = [design(), design()]
    flaw = draw(st.sampled_from(_FLAWS))
    if flaw == "points":
        designs[0]["points"] = draw(st.lists(st.one_of(_NUMBERS, _JUNK), max_size=9))
    elif flaw is not None:
        spec[flaw] = draw(st.one_of(_JUNK, st.lists(st.one_of(_NUMBERS, _JUNK), max_size=4), _NUMBERS))
    return (spec, *designs)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_exits_with_a_json_payload_on_generated_input(tmp_path):
    """check, moments, reduce and dominate end with exit 0, 1 or 2 and a
    strict JSON report or error payload (no NaN or Infinity) on any
    generated model spec and design, and raise nothing."""
    spec_path, xi_path, xi2_path = tmp_path / "spec.json", tmp_path / "xi.json", tmp_path / "xi2.json"
    runs = {
        "check": [],
        "moments": ["--design", xi_path],
        "reduce": ["--design", xi_path],
        "dominate": ["--design", xi_path, "--design2", xi2_path],
    }

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(_cli_inputs())
    def prop(inputs):
        for path, obj in zip((spec_path, xi_path, xi2_path), inputs):
            path.write_text(json.dumps(obj))
        for command, flags in runs.items():
            out = tmp_path / f"{command}.json"
            out.unlink(missing_ok=True)
            code = main([command, "--model", str(spec_path), *map(str, flags), "--out", str(out)])
            payload = json.loads(out.read_text(), parse_constant=_refuse_constant)
            assert code in (0, 1, 2)
            if code != 2:  # check reports a refusal, reduce raises it
                assert ("error" in payload) == (code == 1)

    prop()
