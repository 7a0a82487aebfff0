"""The tcheb benchmark: one workload, end to end or layer by layer.

    python3 bench/run.py --workload reduce_repeat --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's own ``src``; the benchmark exits non-zero, printing no
result, when it is missing.

Each run starts fresh interpreters (bench/worker.py) one after another:
some that only set up, to time set-up, then one that runs the workload.
With ``--trace 0`` that one runs the timed loop with the host-speed
reference loop before every cycle (see hostspeed.py), and the result
holds the end-to-end metrics named in BENCHMARK.json, with times scaled
to the reference host speed.  With ``--trace 1`` it runs the loop and
then replays the same operations with each layer's functions wrapped
from the benchmark's side (see tracing.py); the result holds the
per-layer metrics, and the tracing overhead.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings are wall clock (time.perf_counter, time.monotonic) of the
benchmark's own processes; the end-to-end set-up times and latencies
are then scaled by the reference loop's wall clock around them.  No
kernel tracing, cache dropping or cgroup change is made.  BLAS and
OpenMP run one thread in the workload process.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 7  # fresh interpreters timed per run, the timed one included
IMPORT_SAMPLES = 5
P90_MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE_S = 170.0  # every interpreter a run starts must end by then


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args, deadline: float) -> tuple:
    """Run a fresh interpreter; return (start time, last stdout line as JSON).

    The interpreter is killed, and waited for, if it runs past ``deadline``
    (a time.monotonic value).
    """
    t0 = time.monotonic()
    timeout = max(deadline - t0, 0.001)
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=worker_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{args[0]} timed out after {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t0, json.loads(lines[-1])


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> tuple:
    t0, result = spawn([str(WORKER), workload, str(seed), str(seconds), mode], deadline)
    src = (ROOT / "src").resolve()
    if Path(result["tcheb_file"]).resolve().parent.parent != src:
        raise BenchError(f"tcheb was imported from {result['tcheb_file']}, not from {src}")
    return result["ready"] - t0, result


def cli_import_ms(deadline: float) -> float:
    """Median cold ``import tcheb.cli`` in fresh interpreters; 0 if it is gone."""
    code = ("import time; t = time.perf_counter(); import tcheb.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    try:
        return statistics.median(spawn(["-c", code], deadline)[1] for _ in range(IMPORT_SAMPLES))
    except BenchError:
        return 0.0


def shares(outcomes: dict) -> tuple:
    attempted = sum(outcomes.values())
    failed = attempted - outcomes.get("ok", 0)
    return attempted, failed, outcomes.get("silent", 0)


# Every end-to-end metric the run prints; BENCHMARK.json names the ones
# the result line carries (those that are never zero and hold steady).
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
             "fail_share": "share", "silent_share": "share", "peak_rss_mb": "MB"}


def timings(ok: int, lat_ns) -> dict:
    """Passed operations per second of calls, and latency percentiles."""
    lat_ms = [v / 1e6 for v in lat_ns]
    out = {"ops_per_s": ok / (sum(lat_ms) / 1e3), "p50_ms": statistics.median(lat_ms)}
    if len(lat_ms) >= P90_MIN_OPS:
        out["p90_ms"] = statistics.quantiles(lat_ms, n=10)[8]
    return out


def end_to_end(samples) -> tuple:
    """The metrics, with times scaled to the reference host speed; and
    the same timings in plain wall clock.

    ``samples`` holds (set-up seconds, worker result) per interpreter;
    the last one ran the timed loop.
    """
    result = samples[-1][1]
    lat_ns, ok = result["passes_ns"][0], result["passes_ok"][0]
    attempted, failed, silent = shares(result["outcomes"])
    out = {
        "setup_s": statistics.median(setup * hostspeed.factor(res["setup_ref_ns"])
                                     for setup, res in samples),
        **timings(ok, hostspeed.scale(lat_ns, result["ref_ns"][0], result["cycle"])),
        "fail_share": failed / attempted,
        "silent_share": silent / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    wall = {"setup_s": statistics.median(setup for setup, _ in samples), **timings(ok, lat_ns)}
    return out, wall


def per_layer(result, import_ms: float, wanted) -> dict:
    layers = result["layers"]
    out = {"cli.import_ms": import_ms}
    for span, row in layers.items():
        for key, value in row.items():
            out[f"{span}.{key}"] = value
    for m in wanted:
        # A counter of a known span that never fired (nothing raised, say).
        if m["name"] not in out and m["name"].rsplit(".", 1)[0] in layers:
            out[m["name"]] = 0.0
    out["principal.unrefined"] = sum(
        layers.get(f"principal.{which}_principal", {}).get("unrefined", 0.0)
        for which in ("upper", "lower")
    )
    # "op" is the span worker.py puts around each whole operation.
    out["trace.op_ms"] = layers["op"]["total_ms"]
    # Both passes scaled to the reference host speed, as in end_to_end.
    untraced, traced = (sum(hostspeed.scale(lat, ref, result["cycle"])) / 1e9
                        for lat, ref in zip(result["passes_ns"], result["ref_ns"]))
    n = len(result["passes_ns"][0])
    out["trace.ops_per_s_untraced"] = n / untraced
    out["trace.ops_per_s_traced"] = n / traced
    out["trace.overhead"] = traced / untraced - 1.0
    attempted, failed, silent = shares(result["census"]["outcomes"])
    out["census.fail_share"] = failed / attempted if attempted else 0.0
    out["census.silent_share"] = silent / attempted if attempted else 0.0
    return out


def print_record(args, result):
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    versions = {m: importlib.metadata.version(m) for m in ("numpy", "scipy")}
    print(f"record: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={versions['numpy']} scipy={versions['scipy']} blas={result['blas']} "
          + " ".join(f"{v}=1" for v in THREAD_VARS))
    print("timing: wall clock of the benchmark's own processes; no kernel tracing, "
          "cache dropping or cgroup changes")
    print("load: closed loop, one caller; only library calls are on the clock")


def print_outcomes(label: str, outcomes: dict):
    attempted, failed, silent = shares(outcomes)
    base = max(attempted, 1)
    print(f"{label}: fail_share = {failed / base:.4f} silent_share = {silent / base:.4f} "
          f"(of {attempted} ops: {json.dumps(outcomes, sort_keys=True)})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tcheb" / "__init__.py").is_file():
        print(f"no tcheb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mode = "trace" if args.trace else "measure"
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        samples = [run_worker(args.workload, args.seed, args.seconds, "setup", deadline)
                   for _ in range(SETUP_SAMPLES - 1)]
        samples.append(run_worker(args.workload, args.seed, args.seconds, mode, deadline))
        import_ms = cli_import_ms(deadline) if args.trace else 0.0
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    result = samples[-1][1]
    outcomes = result["outcomes"]

    print_record(args, result)
    print(f"setup_s samples, wall clock: {', '.join(f'{s:.4f}' for s, _ in samples)}")
    print_outcomes("timed", outcomes)
    print_outcomes("census (known-failing inputs, untimed)", result["census"]["outcomes"])
    for group, counts in result["census"]["groups"].items():
        print(f"  census {group}: {json.dumps(counts, sort_keys=True)}")
    for outcome, detail in result["first_failures"].items():
        print(f"first {outcome} failure: {detail}")
    print(f"families: {json.dumps(result['families'])}")
    print(f"key repeat shares: {json.dumps(result['repeats'])}")
    cases = result["selftest"]["cases"]
    selftest_ok = result["selftest"]["ok"]
    print(f"oracle self-test: {'passed' if selftest_ok else 'FAILED'} "
          f"({sum(1 for c in cases if c[1])}/{len(cases)})")

    if args.trace:
        print(f"absent wrap targets: {', '.join(result['absent']) or 'none'}")
        print_layers(result["layers"])
        wanted = spec["per_layer"]
        values = per_layer(result, import_ms, wanted)
    else:
        wanted = spec["end_to_end"]
        values, wall = end_to_end(samples)
        ref_ms = [v / 1e6 for v in result["ref_ns"][0]]
        print(f"host speed: reference loop median {statistics.median(ref_ms):.4f} ms "
              f"(nominal {hostspeed.NOMINAL_NS / 1e6:g} ms) over {len(ref_ms)} cycles")
        print("end to end (operation times scaled to the nominal host speed):")
        for name, unit in E2E_UNITS.items():
            if name in values:
                plain = f" (wall clock {wall[name]:.6g})" if name in wall else ""
                print(f"  {name} = {values[name]:.6g} {unit}{plain}")
            else:
                print(f"  {name} not reported: fewer than {P90_MIN_OPS} operations")
    # p90_ms is left out below P90_MIN_OPS operations; every other
    # metric BENCHMARK.json names must be there.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values or m["name"] != "p90_ms"}
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted, failed, _ = shares(outcomes)
    print(json.dumps({"correct": failed == 0 and selftest_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_layers(layers: dict):
    op_ms = layers["op"]["total_ms"]
    print(f"layer time per operation, share of the traced op time ({op_ms:.4f} ms):")
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"])
    for name, row in rows:
        print(f"  {name:30s} calls {row['calls']:10.2f}  self {row['self_ms']:9.4f} ms "
              f"{row['self_ms'] / op_ms:6.1%}  total {row['total_ms']:9.4f} ms "
              f"{row['total_ms'] / op_ms:6.1%}")


if __name__ == "__main__":
    sys.exit(main())
