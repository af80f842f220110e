#!/usr/bin/env python3
"""Check that every committed BENCH_*.json matches BENCHMARK.json.

    python3 scripts/check_bench_files.py

Run from the root of a checkout.  Each ``BENCH_*.json`` there must hold
exactly the workloads ``BENCHMARK.json`` declares, and each workload exactly
its end-to-end metrics: the entries that carry ``parent`` and ``change``
statistics.  Prints one line per mismatch and exits 1 if there is any.
"""

import glob
import json
import os
import sys


def problems(bench: dict, spec: dict) -> list:
    """Mismatches between one BENCH file and the benchmark declaration."""
    want_workloads = {w["name"] for w in spec["workloads"]}
    want_metrics = {m["name"] for m in spec["end_to_end"]}
    workloads = bench.get("workloads")
    if not isinstance(workloads, dict):
        return ["no 'workloads' object"]
    out = []
    if set(workloads) != want_workloads:
        out.append(f"workloads {sorted(workloads)} != {sorted(want_workloads)}")
    for name, entry in sorted(workloads.items()):
        metrics = {k for k, v in entry.items()
                   if isinstance(v, dict) and "parent" in v and "change" in v}
        if metrics != want_metrics:
            out.append(f"{name}: end-to-end metrics {sorted(metrics)} "
                       f"!= {sorted(want_metrics)}")
    return out


def main(root: str = ".") -> int:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    failed = False
    for path in paths:
        with open(path) as f:
            found = problems(json.load(f), spec)
        for line in found:
            print(f"{os.path.basename(path)}: {line}")
        failed = failed or bool(found)
    if not failed:
        print(f"{len(paths)} BENCH file(s) match BENCHMARK.json")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
