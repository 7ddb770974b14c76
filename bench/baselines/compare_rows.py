#!/usr/bin/env python3
"""Check that a regenerated sweep baseline moved no old value.

Compares two BenchJson documents row by row: every column present in
both must hold the identical value (event_hash included), and columns
present in only one are listed. Run it after regenerating a baseline
whose column set changed, e.g.

    git show HEAD:bench/baselines/sweep_smoke.json > /tmp/old.json
    python3 bench/baselines/compare_rows.py /tmp/old.json \
        bench/baselines/sweep_smoke.json

Exits 0 when no shared value differs, 1 otherwise.
"""

import json
import sys


def main(old_path, new_path):
    old = json.load(open(old_path))["rows"]
    new = json.load(open(new_path))["rows"]
    if len(old) != len(new):
        print(f"row count differs: {len(old)} vs {len(new)}")
        return 1
    changed = hashes = 0
    added, removed = set(), set()
    for i, (a, b) in enumerate(zip(old, new)):
        added |= b.keys() - a.keys()
        removed |= a.keys() - b.keys()
        for key in a.keys() & b.keys():
            if a[key] != b[key]:
                changed += 1
                hashes += key == "event_hash"
                print(f"row {i}: {key}: {a[key]!r} -> {b[key]!r}")
    shared = len(old[0].keys() & new[0].keys()) if old else 0
    print(f"{len(old)} rows, {shared} shared columns: {changed} values "
          f"changed, {hashes} of them event_hash")
    print(f"columns only in {new_path}: {sorted(added) or 'none'}")
    print(f"columns only in {old_path}: {sorted(removed) or 'none'}")
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
