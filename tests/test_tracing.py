"""The benchmark's tracer leaves every answer as it is.

``bench/tracing.py`` replaces library names by plain wrapper functions
on the modules that look them up, ``tcheb.reduction.Design`` and
``tcheb.principal.Design`` among them, so a type check against one of
those names fails only in a traced run.  Each call here runs once plain
and once traced, through the module attributes the benchmark calls, and
must give the same answer."""

import types
from pathlib import Path

import numpy as np

import tcheb
from tcheb import Design, Interval, make_model, moment_point, polynomial_system

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracer():
    """A ``Tracer`` of bench/tracing.py, whose source is read and run
    here, so no bytecode is written beside it."""
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module.Tracer()


def reduce_payload(report):
    """What a reduction returns, less the psi system inside its moment
    points: a cold gate entry holds new function objects."""
    return (
        report.output, report.branch, report.moments_out.coordinates, report.gain_spectrum,
        report.difference_spectrum, report.loewner_min_eigenvalue,
    )


def run_each(system):
    """A Michaelis-Menten reduction, cold, and the principal representations
    and the classification of one c0 of ``system``."""
    model = make_model("michaelis_menten", (1.0, 1.0), (0.0, 10.0))
    xi = Design(points=(1.0, 3.0, 5.0, 7.0, 9.0), weights=(0.2,) * 5, interval=Interval(0.0, 10.0))
    spread = Design(points=(-0.8, -0.3, 0.1, 0.4, 0.9), weights=(0.2,) * 5, interval=system.interval)
    c0 = moment_point(system, spread)
    tcheb.reduction._gated_psi.cache_clear()
    return (
        reduce_payload(tcheb.reduction.reduce_design(model, (1.0, 1.0), xi, "upper")),
        tcheb.principal.upper_principal(system, c0),
        tcheb.principal.lower_principal(system, c0),
        tcheb.moments.classify_point(system, c0, lambda x: np.asarray(x, float) ** 6),
    )


def test_a_traced_call_gives_the_untraced_answer():
    system = polynomial_system(6, Interval(-1.0, 1.0))
    plain = run_each(system)
    tracer = load_tracer()
    tracer.install()
    try:
        traced = run_each(system)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert not {"tcheb.reduction.Design", "tcheb.principal.Design"} & set(tracer.absent)
