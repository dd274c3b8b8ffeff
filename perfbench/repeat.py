#!/usr/bin/env python3
"""Repeat runner: runs each workload many times and summarizes every metric.

    python3 perfbench/repeat.py --runs 10 --trace-runs 2 --out perfbench/baseline.json

Run i uses seed first_seed + i. For every metric of every workload it prints
the median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json, so bounds
can be set from measured data. With --trace-runs k it also makes k traced
runs per workload and reports the tracing overhead two ways: the ratio of the
untraced ops_per_s median to the traced runs' trace.ops_per_s median, and the
median of trace.overhead, which each traced run measures on alternating
traced and untraced episodes and so is less exposed to machine drift.
With --out it writes every raw value and the summary as JSON.
"""

import argparse
import json
import statistics
import sys

import run


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def run_set(workload, seeds, seconds, trace):
    """Runs thincbench once per seed; returns {metric: [values]}."""
    values = {}
    for seed in seeds:
        code, out = run.run_bench(workload, seed, seconds, trace)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if code != 0 or result is None or not result["correct"]:
            sys.stderr.write(out)
            raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  {workload} seed {seed} trace {trace}: ok", file=sys.stderr)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=list(run.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if not run.build():
        return 1

    seeds = [args.first_seed + i for i in range(args.runs)]
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        raw = run_set(workload, seeds, seconds, 0)
        summary = {name: summarize(v) for name, v in raw.items()}
        entry = {"raw": raw, "summary": summary}
        print(f"\n{workload}: {len(seeds)} runs x {seconds:g} s")
        print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  > bound/3"
            print(f"  {name:<14} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {s['spread']:8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        if args.trace_runs > 0:
            traced = run_set(workload, seeds[:args.trace_runs], seconds, 1)
            entry["traced_raw"] = traced
            across = (summary["ops_per_s"]["median"] /
                      statistics.median(traced["trace.ops_per_s"]))
            within = statistics.median(traced["trace.overhead"])
            entry["tracing_overhead"] = {"across_runs": across,
                                         "within_runs": within}
            print(f"  tracing overhead (untraced/traced ops per second): "
                  f"{within:.3f} within runs, {across:.3f} across runs "
                  f"({args.trace_runs} traced runs)")
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
