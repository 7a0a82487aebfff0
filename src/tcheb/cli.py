"""Command line front end.

Subcommands: check, moments, reduce, dominate, optimize.  Inputs are a
model-spec JSON and design JSONs; reports are written as JSON (with
design tables additionally emitted as CSV next to the report).  Exit
status 0 on success, 2 when a determinant precondition fails, 1 on I/O
or schema errors.  All other library errors also exit 1, with the error
serialized as {"error": {"code", "message"}}.

The environment variable TCHEB_LOG (debug or info) turns on diagnostics
on standard error; reports never mix with logs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .chebyshev import check_chebyshev
from .errors import ConfigurationError, PreconditionError, TchebError
from .models import make_model, psi_system
from .moments import Design, design_index, moment_point
from .principal import DEFAULT_GRID, NEWTON_TOL
from .reduction import (
    PSD_TOL,
    _sphere_directions,
    augmented_checks,
    criterion_value,
    optimize_in_class,
    reduce_design,
    verify_domination,
)

log = logging.getLogger("tcheb")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PRECONDITION = 2

# Tolerances the CLI can override via --tol.<name>=<value>.
TOL_NAMES = ("newton", "psd")


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


def _setup_logging():
    level_name = os.environ.get("TCHEB_LOG", "").lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def _split_tol_args(argv):
    """Peel --tol.<name>=<value> pairs off the raw argument list."""
    rest, tols = [], {}
    for arg in argv:
        if arg.startswith("--tol."):
            body = arg[len("--tol.") :]
            name, sep, value = body.partition("=")
            if not sep or name not in TOL_NAMES:
                raise ConfigurationError(
                    f"bad tolerance flag {arg!r}; known names: {', '.join(TOL_NAMES)}"
                )
            try:
                tols[name] = float(value)
            except ValueError as err:
                raise ConfigurationError(f"bad tolerance value in {arg!r}") from err
        else:
            rest.append(arg)
    return rest, tols


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that status is
    # reserved here for determinant precondition failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tcheb",
        description="Complete-class reduction of experimental designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, design=False, design2=False, direction=False, criterion=False):
        p.add_argument("--model", required=True, help="model-spec JSON path")
        if design:
            p.add_argument("--design", required=True, help="design JSON path")
        if design2:
            p.add_argument("--design2", required=True, help="second design JSON path")
        if direction:
            p.add_argument("--direction", choices=("upper", "lower"), default="upper")
        if criterion:
            p.add_argument("--criterion", choices=("d", "a"), default="d")
        p.add_argument("--out", required=True, help="report JSON path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--grid", type=int, default=DEFAULT_GRID)

    common(sub.add_parser("check", help="determinant condition of the psi systems"), direction=True)
    common(sub.add_parser("moments", help="moment point and index of a design"), design=True)
    common(sub.add_parser("reduce", help="reduce a design"), design=True, direction=True)
    common(sub.add_parser("dominate", help="compare two designs"), design=True, design2=True)
    common(sub.add_parser("optimize", help="search the complete class"), direction=True, criterion=True)
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
    name = obj["model"]
    theta = obj["theta"]
    interval = obj["interval"]
    p1 = obj.get("p1", 1)
    if not isinstance(name, str):
        raise ConfigurationError("model name must be a string")
    if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
        raise ConfigurationError("model interval must be a pair [A, B]")
    if not isinstance(p1, int):
        raise ConfigurationError("p1 must be an integer")
    model = make_model(name, theta, interval, p1)
    return model, list(float(t) for t in theta)


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


def _cmd_check(args, tols) -> int:
    model, theta = _load_model(args.model)
    psi = psi_system(model, theta)
    base = check_chebyshev(psi.system, grid_size=max(args.grid, psi.k), seed=args.seed)
    qs = _sphere_directions(psi.p1)
    grid = max(args.grid, psi.k + 1)
    aug_reports = list(augmented_checks(psi, args.direction, qs, grid_size=grid, seed=args.seed))
    worst = min((r for _, r in aug_reports), key=lambda r: (r.verified, r.min_determinant))
    augmented = _check_report(worst)
    augmented["q_directions"] = len(aug_reports)
    failing = [list(map(float, Q)) for Q, r in aug_reports if not r.verified]
    if failing:
        augmented["failing_Q"] = failing
    report = {
        "base": _check_report(base),
        "augmented": augmented,
        "direction": args.direction,
        "k": psi.k,
    }
    _write_report(args.out, report)
    ok = base.verified and all(r.verified for _, r in aug_reports)
    return EXIT_OK if ok else EXIT_PRECONDITION


def _cmd_moments(args, tols) -> int:
    model, theta = _load_model(args.model)
    design = _load_design(args.design, model)
    psi = psi_system(model, theta)
    point = moment_point(psi.system, design)
    report = {
        "moment_point": list(point.coordinates),
        "index": design_index(design).value,
        "k": psi.k,
    }
    _write_report(args.out, report)
    return EXIT_OK


def _cmd_reduce(args, tols) -> int:
    model, theta = _load_model(args.model)
    design = _load_design(args.design, model)
    report = reduce_design(
        model,
        theta,
        design,
        args.direction,
        seed=args.seed,
        grid_size=args.grid,
        newton_tol=tols.get("newton", NEWTON_TOL),
    )
    _write_report(args.out, _reduce_payload(report))
    _write_design_csv(args.out, report.output)
    return EXIT_OK


def _reduce_payload(report) -> dict:
    return {
        "input": report.input.as_json_obj(),
        "output": report.output.as_json_obj(),
        "direction": report.direction,
        "branch": report.branch,
        "input_index": report.input_index.value,
        "moments_in": list(report.moments_in.coordinates),
        "moments_out": list(report.moments_out.coordinates),
        "loewner_min_eigenvalue": _sig15(report.loewner_min_eigenvalue),
        "q_checks": [{"Q": list(q), "gain": g} for q, g in report.q_checks],
        "difference_spectrum": [_sig15(v) for v in report.difference_spectrum],
    }


def _cmd_dominate(args, tols) -> int:
    model, theta = _load_model(args.model)
    xi1 = _load_design(args.design, model)
    xi2 = _load_design(args.design2, model)
    rep = verify_domination(model, theta, xi1, xi2, tolerance=tols.get("psd", PSD_TOL))
    payload = {
        "difference_spectrum": [_sig15(v) for v in rep.difference_spectrum],
        "dominates": rep.dominates,
        "tolerance": rep.tolerance,
    }
    _write_report(args.out, payload)
    return EXIT_OK


def _cmd_optimize(args, tols) -> int:
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


def _emit_error(out_path, code: str, message: str):
    payload = {"error": {"code": code, "message": message}}
    try:
        if out_path:
            _write_report(out_path, payload)
            return
    except OSError:
        pass
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def main(argv=None) -> int:
    _setup_logging()
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        rest, tols = _split_tol_args(raw)
        args = _build_parser().parse_args(rest)
    except ConfigurationError as err:
        _emit_error(None, err.code, str(err))
        return EXIT_ERROR
    out_path = getattr(args, "out", None)
    try:
        code = _COMMANDS[args.command](args, tols)
        log.info("%s finished with exit code %d", args.command, code)
        return code
    except PreconditionError as err:
        log.info("precondition failure: %s", err)
        payload = {"error": {"code": err.code, "message": str(err)}}
        if err.witness is not None:
            payload["error"]["witness"] = list(err.witness)
        if err.q_vector is not None:
            payload["error"]["Q"] = list(err.q_vector)
        try:
            _write_report(out_path, payload)
        except OSError:
            sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return EXIT_PRECONDITION
    except TchebError as err:
        _emit_error(out_path, err.code, str(err))
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError) as err:
        _emit_error(out_path, "io", str(err))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
