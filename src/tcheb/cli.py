"""Command line front end.

Subcommands: check, moments, reduce, dominate, optimize.  Inputs are a
model-spec JSON and design JSONs; reports are written as JSON (with
design tables additionally emitted as CSV next to the report).  Each
subcommand accepts only the flags it reads: ``--seed`` on check, reduce
and optimize, ``--tol.psd=`` on dominate.  ``check`` reports every
determinant check of the sampled gate at the seed, and whether the
model's leading Wronskians certify the gate, in which case ``reduce``
skips that sample.
Exit status 0 on success, 2 when a determinant precondition fails, 1 on
I/O or schema errors.  All other library errors, and
arithmetic that overflows, divides by zero or is invalid (code
"evaluation"), also exit 1, with the error serialized as {"error":
{"code", "message"}}.

The environment variable TCHEB_LOG (debug or info) turns on diagnostics
on standard error; reports never mix with logs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .errors import ConfigurationError, EvaluationError, PreconditionError, TchebError
from .models import make_model, psi_system
from .moments import Design, design_index, moment_point
from .reduction import (
    PSD_TOL,
    criterion_value,
    gate_certified,
    gate_checks,
    optimize_in_class,
    reduce_design,
    verify_domination,
)

log = logging.getLogger("tcheb")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PRECONDITION = 2


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


def _setup_logging():
    level_name = os.environ.get("TCHEB_LOG", "").lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that status is
    # reserved here for determinant precondition failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    # No abbreviations: "--tol=" must not pick out "--tol.psd", the one
    # --tol.* flag.
    parser = _Parser(
        prog="tcheb",
        description="Complete-class reduction of experimental designs",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, designs=()):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--model", required=True, help="model-spec JSON path")
        for flag in designs:
            p.add_argument(flag, required=True, help="design JSON path")
        p.add_argument("--out", required=True, help="report JSON path")
        return p

    check = command("check", "determinant gate of the psi systems")
    command("moments", "moment point and index of a design", ["--design"])
    reduce = command("reduce", "reduce a design", ["--design"])
    dominate = command("dominate", "compare two designs", ["--design", "--design2"])
    optimize = command("optimize", "search the complete class")
    for p in (check, reduce, optimize):
        p.add_argument("--direction", choices=("upper", "lower"), default="upper")
        p.add_argument("--seed", type=int, default=0)
    dominate.add_argument("--tol.psd", dest="psd_tol", type=float, default=PSD_TOL)
    optimize.add_argument("--criterion", choices=("d", "a"), default="d")
    return parser


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_model(path: str):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ConfigurationError("model spec must be a JSON object")
    missing = {"model", "theta", "interval"} - set(obj)
    if missing:
        raise ConfigurationError(f"model spec missing fields: {sorted(missing)}")
    return make_model(obj["model"], obj["theta"], obj["interval"], obj.get("p1", 1)), obj["theta"]


def _load_design(path: str, model) -> Design:
    design = Design.from_json_obj(_load_json(path))
    if design.interval != model.design_interval:
        raise ConfigurationError("design interval differs from the model interval")
    return design


def _write_report(path: str, report: dict):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_design_csv(report_path: str, design: Design):
    csv_path = os.path.splitext(report_path)[0] + ".csv"
    lines = ["point,weight"]
    lines += [f"{p!r},{w!r}" for p, w in zip(design.points, design.weights)]
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_report(rep) -> dict:
    out = {
        "verified": rep.verified,
        "tuples_checked": rep.tuples_checked,
        "min_determinant": _sig15(rep.min_determinant),
    }
    if rep.witness is not None:
        out["witness"] = list(rep.witness)
    return out


def _cmd_check(args) -> int:
    model, theta = _load_model(args.model)
    psi = psi_system(model, theta)
    base, aug, Q = gate_checks(psi, args.direction, args.seed)
    augmented = _check_report(aug)
    if Q is not None:
        augmented["Q"] = list(Q)
    report = {
        "base": _check_report(base),
        "augmented": augmented,
        "certified": gate_certified(model, theta, args.direction),
        "direction": args.direction,
        "k": psi.k,
    }
    _write_report(args.out, report)
    return EXIT_OK if base.verified and aug.verified else EXIT_PRECONDITION


def _cmd_moments(args) -> int:
    model, theta = _load_model(args.model)
    design = _load_design(args.design, model)
    psi = psi_system(model, theta)
    point = moment_point(psi.system, design)
    report = {
        "moment_point": list(point.coordinates),
        "index": design_index(design),
        "k": psi.k,
    }
    _write_report(args.out, report)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    model, theta = _load_model(args.model)
    design = _load_design(args.design, model)
    report = reduce_design(model, theta, design, args.direction, seed=args.seed)
    _write_report(args.out, _reduce_payload(report))
    _write_design_csv(args.out, report.output)
    return EXIT_OK


def _reduce_payload(report) -> dict:
    return {
        "input": report.input.as_json_obj(),
        "output": report.output.as_json_obj(),
        "direction": report.direction,
        "branch": report.branch,
        "input_index": report.input_index,
        "moments_in": list(report.moments_in.coordinates),
        "moments_out": list(report.moments_out.coordinates),
        "loewner_min_eigenvalue": _sig15(report.loewner_min_eigenvalue),
        "gain_spectrum": list(report.gain_spectrum),
        "difference_spectrum": [_sig15(v) for v in report.difference_spectrum],
    }


def _cmd_dominate(args) -> int:
    model, theta = _load_model(args.model)
    xi1 = _load_design(args.design, model)
    xi2 = _load_design(args.design2, model)
    rep = verify_domination(model, theta, xi1, xi2, tolerance=args.psd_tol)
    payload = {
        "difference_spectrum": [_sig15(v) for v in rep.difference_spectrum],
        "dominates": rep.dominates,
        "tolerance": rep.tolerance,
        "loewner_min_eigenvalue": _sig15(rep.loewner_min_eigenvalue),
    }
    _write_report(args.out, payload)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    model, theta = _load_model(args.model)
    design = optimize_in_class(
        model, theta, criterion=args.criterion, direction=args.direction, seed=args.seed
    )
    value = criterion_value(model, theta, design, args.criterion)
    payload = {
        "design": design.as_json_obj(),
        "criterion": args.criterion,
        "direction": args.direction,
        "value": _sig15(value),
    }
    _write_report(args.out, payload)
    _write_design_csv(args.out, design)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "moments": _cmd_moments,
    "reduce": _cmd_reduce,
    "dominate": _cmd_dominate,
    "optimize": _cmd_optimize,
}


def _emit_error(out_path, code: str, message: str, **extra):
    """Write {"error": {"code", "message", **extra}} to out_path, or to
    standard output when there is no path or it cannot be written."""
    payload = {"error": {"code": code, "message": message, **extra}}
    try:
        if out_path:
            _write_report(out_path, payload)
            return
    except OSError:
        pass
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
    except ConfigurationError as err:
        _emit_error(None, err.code, str(err))
        return EXIT_ERROR
    out_path = getattr(args, "out", None)
    try:
        # Arithmetic that overflows double precision ends the run as an
        # evaluation error rather than as a warning and inf or NaN values.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = _COMMANDS[args.command](args)
        log.info("%s finished with exit code %d", args.command, code)
        return code
    except PreconditionError as err:
        log.info("precondition failure: %s", err)
        extra = {"witness": err.witness, "Q": err.q_vector}
        _emit_error(out_path, err.code, str(err), **{k: list(v) for k, v in extra.items() if v is not None})
        return EXIT_PRECONDITION
    except TchebError as err:
        _emit_error(out_path, err.code, str(err))
        return EXIT_ERROR
    except FloatingPointError as err:
        _emit_error(out_path, EvaluationError.code, f"floating-point error: {err}")
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError) as err:
        _emit_error(out_path, "io", str(err))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
