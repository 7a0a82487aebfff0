"""One workload process: import, set up, warm up, then the timed loop.

    python3 bench/worker.py <workload> <seed> <seconds> <mode>

``mode`` is ``setup`` (stop once set up, to time set-up alone),
``measure`` (the timed loop, then the census and the oracle self-test)
or ``trace`` (the timed loop over half the time, then the same
operations again with every layer wrapped, then the census and
self-test).  run.py starts this in a fresh interpreter with ``src`` on
PYTHONPATH; the last stdout line is one JSON object.

Load is a closed loop with one caller: the next call starts when the
previous one returns.  Only the library call is on the clock; checks and
input generation run between calls with the clock stopped.  The loop
stops at the first cycle boundary after ``seconds`` of timed calls, so
every run holds each case of the workload equally often.  The
host-speed reference loop (hostspeed.py) runs, timed on its own, before
every cycle.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from array import array
from collections import Counter

import tcheb
import tcheb.chebyshev
import tcheb.models
import tcheb.moments
import tcheb.principal
import tcheb.reduction

import hostspeed
import oracles
import selftest
import tracing
import workloads


class Observed:
    """What the timed operations did: latencies per pass and outcomes.

    Operations themselves are kept only with ``keep`` (for the traced
    replay).  Otherwise their inputs are dropped once run and latencies
    take 8 bytes each, so peak memory measures the library, not how many
    operations the benchmark got through.
    """

    def __init__(self, cycle: int, keep: bool = False):
        self.cycle, self.keep = cycle, keep
        self.ops, self.passes, self.pass_ok, self.refs = [], [], [], []
        self.outcomes, self.first = Counter(), {}

    def run(self, op) -> int:
        latency, outcome, detail = oracles.run_op(op, tcheb.TchebError)
        if self.keep:
            self.ops.append(op)
        self.outcomes[outcome] += 1
        if outcome != "ok":
            self.first.setdefault(outcome, f"{op.family}: {detail}")
        return latency

    def step(self, op, latencies, refs):
        """Run one operation, after the reference loop if a cycle starts."""
        if len(latencies) % self.cycle == 0:
            refs.append(hostspeed.reference())
        latencies.append(self.run(op))

    def record(self, latencies, refs, ok_before: int):
        self.passes.append(latencies)
        self.refs.append(refs)
        self.pass_ok.append(self.outcomes["ok"] - ok_before)

    def timed_pass(self, stream, seconds: float):
        """Whole cycles of operations until ``seconds`` of calls have passed."""
        latencies, refs, busy, budget = array("q"), array("q"), 0, seconds * 1e9
        ok_before = self.outcomes["ok"]
        while busy < budget or len(latencies) % self.cycle:
            self.step(next(stream), latencies, refs)
            busy += latencies[-1]
        self.record(latencies, refs, ok_before)

    def replay(self, tracer):
        """Run the kept operations again, each inside a tracer span."""
        ops, self.ops, self.keep = self.ops, [], False
        latencies, refs = array("q"), array("q")
        ok_before = self.outcomes["ok"]
        for op in ops:
            traced = workloads.Op(tracer.span(tracing.OP, op.call), op.check, op.family,
                                  op.key, op.psi_key)
            self.step(traced, latencies, refs)
        self.record(latencies, refs, ok_before)


def census(ops) -> dict:
    """Outcomes of the known-failing inputs, per (case, family) group."""
    groups: dict = {}
    total = Counter()
    for op in ops:
        _, outcome, _ = oracles.run_op(op, tcheb.TchebError)
        group = groups.setdefault(f"{op.key[0]}/{op.family}", Counter())
        group[outcome] += 1
        total[outcome] += 1
    return {"attempted": len(ops), "outcomes": dict(total),
            "groups": {k: dict(v) for k, v in sorted(groups.items())}}


def blas_name() -> str:
    import numpy as np

    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


# Reference runs right after set-up, which set-up time is scaled by.
SETUP_REFERENCE_RUNS = 5


def main(argv) -> int:
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    spec = workloads.WORKLOADS[name]
    stream = spec.timed(tcheb, seed)
    for op in spec.warmup(tcheb, seed):
        oracles.run_op(op, tcheb.TchebError)
    first_op = next(stream)
    ready = time.monotonic()
    result = {"ready": ready, "tcheb_file": tcheb.__file__, "blas": blas_name(),
              "setup_ref_ns": [hostspeed.reference() for _ in range(SETUP_REFERENCE_RUNS)]}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    stream = itertools.chain([first_op], stream)
    observed = Observed(spec.cycle, keep=mode == "trace")
    observed.timed_pass(stream, seconds / 2 if mode == "trace" else seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
        try:
            observed.replay(tracer)
        finally:
            tracer.uninstall()
        result.update(layers=tracer.summary(len(observed.passes[-1])), absent=tracer.absent)
    result.update(
        passes_ns=[list(p) for p in observed.passes],
        passes_ok=observed.pass_ok,
        ref_ns=[list(r) for r in observed.refs],
        cycle=spec.cycle,
        outcomes=dict(observed.outcomes),
        first_failures=observed.first,
    )
    # The timed inputs again, generated but not run, for their properties.
    tags = [(op.family, op.key, op.psi_key)
            for op in itertools.islice(spec.timed(tcheb, seed), len(observed.passes[0]))]
    result.update(families=workloads.family_shares(tags), repeats=workloads.repeat_shares(tags))
    result["census"] = census(spec.census(tcheb, seed))
    result["selftest"] = selftest.run(tcheb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
