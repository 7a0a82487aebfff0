"""Workload properties: generator parameters, family shares, key repeats.

    PYTHONPATH=src python3 bench/describe.py > bench/workloads.json

For each workload: why it is there, the generator's parameters, the
share of operations per family in the timed stream and in the census,
and the share of timed operations whose (model, theta, direction) key,
and whose psi-system key, repeats an earlier one.  Shares are taken over
the first OPS timed operations of seeds 0..SEEDS-1, about one run's
worth; every run also prints its own.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import islice
from pathlib import Path

import tcheb
import tcheb.chebyshev
import tcheb.models
import tcheb.moments
import tcheb.principal
import tcheb.reduction

import workloads as w

OPS = {"reduce_repeat": 1200, "reduce_sweep": 1200, "quadrature": 3000, "optimize": 16}
SEEDS = 3


def _mean(rows):
    keys = sorted({k for r in rows for k in r})
    return {k: round(sum(r.get(k, 0.0) for r in rows) / len(rows), 4) for k in keys}


def generator() -> dict:
    cases = [
        {"case": c.name, "theta": c.theta, "interval": c.interval, "direction": c.direction,
         "k": c.k,
         "sweep": ("all of theta ~ N(0, 1)" if c.sweep_index is None
                   else f"theta[{c.sweep_index}] ~ U{c.sweep_range}")}
        for c in w.REDUCE_CASES
    ]
    return {
        "reduce_cases": cases,
        "n_points": w.N_RANGE,
        "dirichlet_alpha": w.DIRICHLET_ALPHA,
        "cluster_sd_share_of_L": w.CLUSTER_SD,
        "endpoint_band_share_of_L": w.ENDPOINT_BAND,
        "timed_family": w.TIMED_FAMILY,
        "census_families": w.FAMILIES,
        "census_per_case_and_family": w.CENSUS_PER_FAMILY,
        "quadrature_k": w.QUAD_KS,
        "quadrature_calls": w.QUAD_CALLS,
        "optimize_cases": w.OPTIMIZE_CASES,
        "optimize_census_cases": w.OPTIMIZE_CENSUS_CASES,
    }


def describe() -> dict:
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    why = {wl["name"]: wl["why"] for wl in bench["workloads"]}
    out = {"generator": generator(), "workloads": {}}
    for name, spec in w.WORKLOADS.items():
        timed, census = [], []
        for seed in range(SEEDS):
            tags = [(op.family, op.key, op.psi_key)
                    for op in islice(spec.timed(tcheb, seed), OPS[name])]
            timed.append((w.family_shares(tags), w.repeat_shares(tags)))
            ctags = [(f"{op.key[0]}/{op.family}", op.key, op.psi_key)
                     for op in spec.census(tcheb, seed)]
            census.append(w.family_shares(ctags) if ctags else {})
        out["workloads"][name] = {
            "why": why.get(name, "not in BENCHMARK.json"),
            "cycle": spec.cycle,
            "timed_ops_sampled": OPS[name],
            "timed_family_shares": _mean([t[0] for t in timed]),
            "timed_repeat_shares": _mean([t[1] for t in timed]),
            "census_group_shares": _mean(census),
        }
    return out


def dumps(obj) -> str:
    """Indented JSON with each list of scalars kept on one line."""
    text = json.dumps(obj, indent=1)
    return re.sub(r"\[[^\[\]{}]*\]", lambda m: " ".join(m.group(0).split()), text)


if __name__ == "__main__":
    sys.stdout.write(dumps(describe()) + "\n")
