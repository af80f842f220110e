"""One workload iteration in a fresh process, as a ``dendro`` CLI call would be.

Run by ``run.py``; not meant to be started by hand.  The process imports
dendro, builds the workload's inputs (set-up), runs the job list once and
writes one JSON result file.  With ``--trace 1`` the tracer wraps the dendro
modules before set-up and the result also carries the per-layer metrics.

Around every job the process times a fixed kernel that uses no dendro
code.  The host this runs on switches between a fast and a slow state
(about 1.6x apart) for seconds to minutes at a time; the kernel time taken
next to a job says which state the job ran in.

Times use ``time.monotonic``, which on Linux reads the system-wide
CLOCK_MONOTONIC, so the parent can subtract its own spawn instant from the
``setup_done`` stamp to get set-up time including interpreter start.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

import workloads
from tracer import Tracer, leftover_wrappers


def _kernel():
    # Small-Fraction arithmetic, then hashing, dict and frozenset building and
    # a keyed sort: the two parts each tracked one workload's time across host
    # states best, so the kernel has both.
    acc = Fraction(0)
    for i in range(1, 300):
        x = Fraction(i % 7 - 3, 5 ** (i % 8 + 1)) + Fraction(i % 97, 2 ** (i % 11))
        acc = acc + x if acc < 10 else acc - x
    table = {}
    for i in range(3000):
        key = (f"v{i % 700}", i % 7)
        table[key] = frozenset((i % 11, i % 13, key[0]))
    return acc, sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][0]))


def kernel_s(reps: int = 5) -> float:
    """Seconds of the fastest of ``reps`` runs of a fixed kernel.

    The kernel uses no dendro code, and the cyclic collector is off while it
    runs, so its time does not depend on the heap the program left behind and
    tracks only the speed the host gives this process at that moment.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda _name: nullcontext())
    if tracer:
        tracer.install()
    with span("perfbench.setup"):
        ctx = wl.setup(args.seed, args.workdir)
    setup_done = time.monotonic()

    jobs = []
    before = kernel_s()
    for job in wl.jobs:
        cpu0, t0 = time.process_time(), time.perf_counter()
        with span(f"perfbench.job.{job.name}"):
            try:
                out = {"name": job.name, "values": job.run(ctx)}
            except Exception as exc:  # a failing job is counted, not fatal
                out = {"name": job.name, "error": f"{type(exc).__name__}: {exc}"}
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = time.process_time() - cpu0
        after = kernel_s()
        out["kernel_s"] = (before + after) / 2
        before = after
        jobs.append(out)

    result = {
        "setup_done": setup_done,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["counts"] = tracer.counts()
    result["leftover_wrappers"] = leftover_wrappers()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
