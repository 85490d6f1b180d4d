#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark, by the acceptance arithmetic.

Runs the command of BENCHMARK.json on every workload, once per seed, and
prints for each end-to-end metric the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median, beside the metric's bound. With --sets 2 it does so twice and also
compares the two medians. With --trace it makes two traced runs per workload
on one seed and checks that every count metric is identical between them.

Run from the repository root:  python3 benchmark/spread.py [--seeds 10]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(spec, workload, seed, trace):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    started = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    took = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1, help="independent sets of runs")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="only these workloads")
    parser.add_argument("--trace", action="store_true", help="check the count metrics instead")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for workload in workloads:
            first, took = run(spec, workload, args.first_seed, 1)
            second, _ = run(spec, workload, args.first_seed, 1)
            missing = sorted(set(units) - set(first))
            moved = [n for n, u in units.items() if u == "count" and first.get(n) != second.get(n)]
            print(f"{workload}: traced run {took:.1f} s, {len(first)} metrics, "
                  f"missing {missing or 'none'}, counts that moved {moved or 'none'}")
            ok &= not missing and not moved
        sys.exit(0 if ok else 1)

    medians = {}
    for s in range(args.sets):
        for workload in workloads:
            seeds = range(args.first_seed + s * args.seeds, args.first_seed + (s + 1) * args.seeds)
            runs = [run(spec, workload, seed, 0) for seed in seeds]
            longest = max(took for _, took in runs)
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [values[name] for values, _ in runs]
                median = statistics.median(values)
                medians.setdefault((workload, name), []).append(median)
                share = spread(values)
                verdict = "ok" if share <= bound / 3 else ("WIDE" if share <= bound else "OVER")
                ok &= share <= bound
                print(f"set {s + 1} {workload:<18} {name:<18} median {median:<14.8g} "
                      f"min {min(values):<14.8g} max {max(values):<14.8g} "
                      f"spread {share:.4f} bound {bound} {verdict}")
            print(f"set {s + 1} {workload:<18} longest run {longest:.1f} s")
    for (workload, name), (first, *rest) in medians.items():
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)
        for later in rest:
            worse = later / first - 1  # every end-to-end metric is lower-is-better
            ok &= worse <= bound
            print(f"{workload:<18} {name:<18} second median {worse:+.4f} of the first (bound {bound})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
