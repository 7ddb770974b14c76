#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

Runs two sets of repetitions per workload, from the root of a checkout:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--seconds S]

Each set runs the BENCHMARK.json command once per seed, seeds
first-seed .. first-seed+runs-1; the second set repeats the seeds in
reverse order. For every end-to-end metric it prints each set's median
and quartiles and the spread (inter-quartile range over the median),
then says whether:

  * each set's spread is within the metric's bound (setup_s exempt),
    and within a third of it, the margin the benchmark is tuned for;
  * the second set's median is no worse than the first's by more than
    the bound;
  * every simulated (sim_*) metric and the eventHash are identical for
    the same seed in both sets;
  * the metric names and units equal BENCHMARK.json's.

Exits 1 if any check fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HASH_RE = re.compile(r"eventHash (0x[0-9a-f]+)")


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    match = HASH_RE.search(proc.stdout)
    return result, match.group(1) if match else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, first, second):
    """Share by which the second median is worse than the first."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return -change if metric["better"] == "higher" else change


def check_workload(spec, workload, seeds, seconds):
    metrics = spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in metrics}
    sets = []
    for order in (seeds, list(reversed(seeds))):
        runs = {}
        for seed in order:
            result, event_hash = run_once(spec, workload, seed, seconds)
            runs[seed] = (result, event_hash)
            print("  %s seed %d: %s" % (workload, seed,
                                        "ok" if result["correct"] else
                                        "INCORRECT"), file=sys.stderr)
        sets.append(runs)

    ok = True
    for runs in sets:
        for seed, (result, _) in runs.items():
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected or not result["correct"]:
                print("FAIL %s seed %d: correct=%s, metrics %s" %
                      (workload, seed, result["correct"], sorted(got)))
                ok = False
    for seed in seeds:
        (a, hash_a), (b, hash_b) = sets[0][seed], sets[1][seed]
        sim_a = {k: v["value"] for k, v in a["metrics"].items()
                 if k.startswith("sim_")}
        sim_b = {k: v["value"] for k, v in b["metrics"].items()
                 if k.startswith("sim_")}
        if hash_a is None or hash_a != hash_b or sim_a != sim_b:
            print("FAIL %s seed %d: simulated results differ between sets "
                  "(%s vs %s)" % (workload, seed, hash_a, hash_b))
            ok = False

    print("\n%s (%d seeds, %s s per run)" % (workload, len(seeds), seconds))
    print("%-20s %5s %14s %14s %14s %7s %7s %7s  %s" %
          ("metric", "set", "q1", "median", "q3", "spread", "bound",
           "worse", "verdict"))
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for index, runs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r, _ in runs.values()]
            q1, q2, q3 = quartiles(values)
            medians.append(q2)
            spread = (q3 - q1) / abs(q2) if q2 else float("inf")
            verdict = "ok"
            if name != "setup_s" and spread > bound:
                verdict, ok = "SPREAD > BOUND", False
            elif name != "setup_s" and spread > bound / 3:
                verdict = "spread > bound/3"
            worse = worse_by(metric, medians[0], q2) if index else 0.0
            if worse > bound:
                verdict, ok = "SHIFT > BOUND", False
            print("%-20s %5d %14.6g %14.6g %14.6g %7.3f %7.3f %7.3f  %s" %
                  (name, index + 1, q1, q2, q3, spread, bound, worse,
                   verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to check (default: all)")
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: run_seconds)")
    args = parser.parse_args()

    if not os.path.exists("BENCHMARK.json"):
        sys.exit("run from the root of a checkout (BENCHMARK.json not found)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    seconds = args.seconds or spec["run_seconds"]
    ok = all([check_workload(spec, w, seeds, seconds) for w in workloads])
    print("\nsteady: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
