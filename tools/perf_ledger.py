#!/usr/bin/env python3
"""Run perfbench on a checkout and append its results to the perf ledger.

Usage, from the root of a checkout:

    python3 tools/perf_ledger.py --seconds 10
    python3 tools/perf_ledger.py --checkout ../other --commit 7d8692d \\
        --workload single-replica-churn

For each workload it runs `python3 perfbench/run.py` unchanged inside
the checkout and appends one JSON row to the ledger
(bench/perf/ledger.jsonl next to this script by default):

    {"commit", "workload", "seed", "seconds", "host", "event_hash",
     "result"}

Every row is an untraced perfbench run (--trace 0) at seed 1. `result`
is perfbench's JSON result line as printed; `event_hash` is the
eventHash perfbench printed for the workload's trace; `host` names the
machine the row was measured on, since host metrics are only comparable
between rows from the same host. `--commit` defaults to
`git describe --always --dirty` of the checkout. Exits non-zero, and
appends nothing for that workload, when perfbench fails.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["single-replica-churn", "fleet256-jsq", "autoscale-fabric-step"]
SEED = 1
HASH_LINE = re.compile(r"eventHash (0x[0-9a-f]+)")


def describe(checkout):
    """The checkout's commit, or None outside a git work tree."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def host():
    """CPU model and count: what a host-metric row was measured on."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%s, %d CPUs" % (model, os.cpu_count() or 0)


def run(checkout, workload, args):
    """One perfbench run; (result dict, event hash) or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    hashes = HASH_LINE.findall(proc.stdout)
    return json.loads(lines[-1]), hashes[0] if hashes else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--commit", help="commit label for the rows")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all three")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ledger",
                        default=os.path.join(ROOT, "bench", "perf",
                                             "ledger.jsonl"))
    args = parser.parse_args()

    commit = args.commit or describe(args.checkout)
    if commit is None:
        parser.error("--checkout is not a git work tree; pass --commit")
    failed = 0
    for workload in args.workload or WORKLOADS:
        outcome = run(args.checkout, workload, args)
        if outcome is None:
            print("perf_ledger: perfbench failed on %s" % workload,
                  file=sys.stderr)
            failed += 1
            continue
        result, event_hash = outcome
        row = {"commit": commit, "workload": workload, "seed": SEED,
               "seconds": args.seconds, "host": host(),
               "event_hash": event_hash, "result": result}
        os.makedirs(os.path.dirname(os.path.abspath(args.ledger)),
                    exist_ok=True)
        with open(args.ledger, "a") as ledger:
            ledger.write(json.dumps(row, sort_keys=True) + "\n")
        metrics = result.get("metrics", {})
        rate = metrics.get("host_req_per_s", {}).get("value")
        print("%s %s: correct=%s host_req_per_s=%s eventHash %s"
              % (commit, workload, result.get("correct"), rate, event_hash))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
