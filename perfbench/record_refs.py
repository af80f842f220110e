"""Record the certified values every job must reproduce, into refs.json.

    PYTHONPATH=src python3 perfbench/record_refs.py

Run it from the root of a checkout whose outputs are trusted, and only when
the workloads or their sizes change: the benchmark compares every later
program against these values.  It runs each workload once per input set.
A job that raises here must have a fixed expectation in ``workloads.py``;
it is listed under ``known_failures``, and later runs may see it raise or
pass.  Any other job that raises in a later run makes that run incorrect.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def record() -> dict:
    out = {"input_sets": workloads.INPUT_SETS, "known_failures": {},
           "workloads": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for wl in workloads.WORKLOADS.values():
            per_set = out["workloads"][wl.name] = {}
            raised = set()
            for k in range(workloads.INPUT_SETS):
                ctx = wl.setup(k, workdir)
                values = {}
                for job in wl.jobs:
                    try:
                        got = job.run(ctx)
                    except Exception as exc:
                        if job.expect is None:
                            raise
                        print(f"{wl.name} set {k}: {job.name} raised "
                              f"{type(exc).__name__}: {exc}", file=sys.stderr)
                        got = job.expect
                        raised.add(job.name)
                    if job.expect is not None and got != job.expect:
                        raise SystemExit(f"{job.name} gave {got}, not {job.expect}")
                    values[job.name] = got
                per_set[str(k)] = json.loads(json.dumps(values))
                print(f"{wl.name} set {k} recorded", file=sys.stderr)
            if raised:
                out["known_failures"][wl.name] = sorted(raised)
    return out


if __name__ == "__main__":
    refs = record()
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
