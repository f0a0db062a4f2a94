"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload train_ideal --seed 0 --seconds 10 --trace 0

The program is imported from `src/` of the same checkout. BLAS and OpenMP
are pinned to one thread before numpy loads.

`--trace 0` sets up every case of the workload (timing each set-up), then
runs fixed units of work round-robin over the cases until `--seconds` have
passed, every case ran and the first case ran twice, then sets up the first
case again (timing it again), and prints the end-to-end metrics of
BENCHMARK.json. Every repeat of a case must reproduce its counts and quality
metrics exactly, and the second set-up its inputs.

`--trace 1` traces the set-up of the first case and then, alternating with
untraced units, its traced units, and prints the per-layer metrics.

Both print a line describing the run (seed, environment, quality metrics,
check failures) before the last line, which is the result object. Its
`attempted` and `failed` count the units or episodes of one unit of every
case, so they depend on the seed alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOOP_BLOCK = 1000          # loop periods per percentile block
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
QUALITY_UNITS = {"state_nrmse_pct": "%", "action_nrmse_pct": "%",
                 "msce": "norm2", "failed_frac": "fraction"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_units(unit, seconds, minimum):
    """Call unit(i) for i = 0, 1, ... until `seconds` have passed and it ran
    `minimum` times."""
    results = []
    t0 = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - t0 < seconds:
        results.append(unit(len(results)))
    return results


def timed_run(wl, seed, seconds):
    import numpy as np

    setup_s = []

    def set_up(case):
        t0 = time.perf_counter()
        state = wl.setup(seed, case)
        setup_s.append(time.perf_counter() - t0)
        return state

    states = [set_up(case) for case in range(wl.cases)]
    m = len(states)
    units = run_units(lambda i: wl.unit(states[i % m]), seconds, m + 1)
    # set up the first case again: one more timing, taken after the units,
    # and a check that the same seed gives the same inputs
    inputs_repeat = set_up(0).fingerprint == states[0].fingerprint

    by_case = [units[k::m] for k in range(m)]
    # a rollout that diverged in its first loop has no period; a unit that
    # stopped before its rollout has no rollout
    periods = [p for u in units for p in u.periods]
    timed = [[u.seconds for u in case if u.complete] for case in by_case]
    timed = [t for t in timed if t]
    if not any(p.size for p in periods) or not timed:
        raise RuntimeError("every unit failed before its work was done; "
                           "no time to report")
    periods_us = 1e6 * np.concatenate(periods)
    blocks = np.array_split(periods_us,
                            max(1, periods_us.size // LOOP_BLOCK))

    # percentile per block of consecutive loops, then the median over the
    # blocks: a burst of stalls on the machine moves a few blocks' figures,
    # not the run's
    def loop_us(pct):
        return statistics.median(float(np.percentile(b, pct)) for b in blocks)

    metrics = {
        "setup_s": statistics.median(setup_s),
        "pipeline_s": statistics.mean(statistics.median(t) for t in timed),
        "loop_p90_us": loop_us(90),
        "loop_p95_us": loop_us(95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    extra = {"cases": m, "timed_cases": len(timed),
             "inputs_repeat": inputs_repeat, "episodes": len(periods),
             "loop_samples": periods_us.size, "loop_blocks": len(blocks),
             "loop_p50_us": loop_us(50), "loop_p99_us": loop_us(99)}
    return metrics, by_case, [s.fingerprint for s in states], extra


def traced_run(layers, tracing, wl, seed, seconds):
    tracer = tracing.Tracer()
    with tracer.installed(layers.patches()):
        state = wl.setup(seed, 0)
    setup = (tracer.summary(), dict(tracer.counts))
    untraced, traced, unit_traces = [], [], []

    def pair(_):
        untraced.append(wl.unit(state))
        tr = tracing.Tracer()
        with tr.installed(layers.patches()):
            traced.append(wl.unit(state))
        unit_traces.append((tr.summary(), dict(tr.counts)))

    run_units(pair, seconds, 2)
    metrics = layers.layer_metrics(setup, unit_traces)
    metrics["trace.overhead_frac"] = (
        statistics.median(u.seconds for u in traced)
        / statistics.median(u.seconds for u in untraced) - 1.0)
    counts = [({k: v["calls"] for k, v in s.items()}, c)
              for s, c in unit_traces]
    extra = {"traced_units": len(traced),
             "trace_counts_repeat": all(c == counts[0] for c in counts)}
    return metrics, [untraced + traced], [state.fingerprint], extra


def quality_of(by_case):
    """Median over cases of each quality metric (cases where it is defined),
    and the failed share of one unit of every case. Repeats of a case are
    identical, so this does not depend on how many units the run fitted."""
    first = [case[0] for case in by_case]
    out = {}
    for key in first[0].quality:
        vals = [u.quality[key] for u in first if u.quality[key] is not None]
        out[key] = statistics.median(vals) if vals else None
    out["failed_frac"] = (sum(u.failed for u in first)
                          / sum(u.attempted for u in first))
    return out


def environment():
    import numpy as np

    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"               # must precede the numpy import
    src = ROOT / "src"
    if not (src / "koopcontrol" / "__init__.py").is_file():
        sys.exit(f"benchmark: program source not found under {src}")
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench import layers, tracing, workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]
    declared = spec["per_layer" if args.trace else "end_to_end"]

    if args.trace:
        metrics, by_case, fingerprints, extra = traced_run(
            layers, tracing, wl, args.seed, args.seconds)
    else:
        metrics, by_case, fingerprints, extra = timed_run(
            wl, args.seed, args.seconds)
    mismatch = set(metrics) ^ {m["name"] for m in declared}
    if mismatch:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {mismatch}")

    units = [u for case in by_case for u in case]
    # the operations are one unit of every case: its repeats must reproduce
    # it exactly (checked below), and counting them would make `attempted`
    # and `failed` hang on how many repeats the run fitted, not on the seed
    first = [case[0] for case in by_case]
    attempted = sum(u.attempted for u in first)
    failed = sum(u.failed for u in first)
    checks = [c for u in units for c in u.checks]
    repeat = (all(u.fingerprint == case[0].fingerprint
                  for case in by_case for u in case)
              and extra.get("trace_counts_repeat", True)
              and extra.get("inputs_repeat", True))
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "units": len(units), **extra,
        "quality": {k: {"value": v, "unit": QUALITY_UNITS[k]} for k, v in
                    quality_of(by_case).items()},
        "repeats_identical": repeat,
        "input_digests": fingerprints,
        "failed_checks": checks[:10],
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not checks and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
