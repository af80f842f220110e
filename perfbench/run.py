"""dendro benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload chaos-verdict --seed 0 --seconds 40 --trace 0

Run from the root of a checkout that holds ``src/dendro``.  Each iteration
is a fresh single-threaded process (``worker.py``) that imports dendro,
builds the workload's inputs from the seed and runs the job list once.
Iterations repeat until the next one would end past ``--seconds``; right
before each, a short reference process times the host's interpreter start,
which scales set-up time.  Every job's certified values are compared with
``refs.json``.

With ``--trace 0`` the last line of output reports the end-to-end metrics,
each the median over the iterations.  With ``--trace 1`` traced and untraced
iterations alternate and the last line reports the per-layer metrics.  The
lines before it are for people: every metric with its unit, quartiles, tail
percentile and iteration count, and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (needs HERE on sys.path; imports no dendro code)

MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
RUN_LIMIT_S = 170  # whole run, so the process ends within 180 s

# The fastest worker.kernel_s() time seen on the host the benchmark was
# defined on (2-vCPU Intel Xeon VM, CPython 3.11.7).  run_ref_s scales each
# job's wall time by REF_KERNEL_S / (kernel time next to that job).
REF_KERNEL_S = 0.0038

# A reference process for set-up: interpreter start, the standard-library
# imports the worker makes, and compiling three standard-library sources from
# text, as the worker compiles dendro.  It runs no dendro code.  setup_s
# scales set-up time by REF_START_S / (time of this process, started right
# before the iteration), with REF_START_S its fastest time seen on the host
# above.  Like the worker, it stamps its own end: the wait for a process with
# a timeout polls at up to 50 ms intervals.
START_REF_CODE = (
    "import argparse, csv, dataclasses, fractions, hashlib, inspect, json, "
    "random, resource, time\n"
    "for m in (argparse, dataclasses, fractions):\n"
    "    compile(inspect.getsource(m), m.__file__, 'exec')\n"
    "print(time.monotonic())\n"
)
REF_START_S = 0.097

# Per-job times; a run reports, per metric, the sum over jobs of each job's
# median over the iterations, so one job caught by a host-speed change in one
# iteration does not move the result.
JOB_TIMES = {
    "run_ref_s": lambda j: j["wall_s"] * REF_KERNEL_S / j["kernel_s"],
    "run_s": lambda j: j["wall_s"],
    "cpu_s": lambda j: j["cpu_s"],
}
# (name, unit, reported in the result line)
END_TO_END = (
    ("run_ref_s", "s", True),
    ("run_s", "s", False),
    ("cpu_s", "s", False),
    ("setup_s", "s", True),
    ("setup_raw_s", "s", False),
    ("start_ref_s", "s", False),
    ("peak_rss_mib", "MiB", True),
)


def worker_env() -> dict:
    """The environment of every worker and reference process.

    Bytecode caching is off, so every iteration compiles dendro from source
    whatever the caller's environment says, and nothing is written to src/.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_ref_s(env, deadline, reps: int = 2) -> float:
    """Seconds of the fastest of ``reps`` reference processes, spawn to exit."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", START_REF_CODE], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        best = min(best, float(proc.stdout) - t0)
    return best


def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 values above it."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10  # the k-th smallest value has n - k = 10 values beyond it
    return 100 * k / n, sorted(values)[k - 1]


class Iteration:
    """One worker process: its timings, job outcomes and optional trace."""

    def __init__(self, workload, seed, traced, workdir, deadline):
        out = os.path.join(workdir, "result.json")
        if os.path.exists(out):
            os.remove(out)
        env = worker_env()
        self.start_ref_s = start_ref_s(env, deadline)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", str(int(traced)), "--workdir", workdir, "--out", out,
        ]
        spawned = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        self.wall_s = time.monotonic() - spawned
        if proc.returncode != 0 or not os.path.exists(out):
            raise RuntimeError(
                f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        with open(out) as fh:
            r = json.load(fh)
        self.traced = traced
        self.jobs = r["jobs"]
        self.setup_raw_s = r["setup_done"] - spawned
        self.setup_s = self.setup_raw_s * REF_START_S / self.start_ref_s
        for name, time_of in JOB_TIMES.items():
            setattr(self, name, sum(time_of(j) for j in self.jobs))
        self.peak_rss_mib = r["peak_rss_mib"]
        self.layers = r.get("layers")
        self.counts = r.get("counts")
        self.leftover = r["leftover_wrappers"]


def check_jobs(it: Iteration, expected: dict, known_failures):
    """(failed, wrong) job names of one iteration.

    A job is wrong when it returns values other than the reference, or when
    it raises and is not one of the workload's known failures (jobs that
    raised in the checkout the references were recorded from).  A known
    failure may raise or pass.
    """
    failed, wrong = [], []
    for job in it.jobs:
        name = job["name"]
        if "error" in job:
            failed.append(name)
            if name not in known_failures:
                wrong.append(name)
        elif json.loads(json.dumps(job["values"])) != expected.get(name):
            failed.append(name)
            wrong.append(name)
    return failed, wrong


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dendro", "__init__.py")):
        print(f"error: no dendro sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "refs.json")) as fh:
        refs = json.load(fh)
    if args.workload not in refs["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    input_set = args.seed % refs["input_sets"]
    expected = refs["workloads"][args.workload][str(input_set)]
    known_failures = refs["known_failures"].get(args.workload, [])

    workroot = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(workroot, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        its = run_iterations(args, workdir)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:  # another run still uses it
            pass
    return report(args, its, input_set, expected, known_failures)


def run_iterations(args, workdir):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    minimum = MIN_TRACED_PAIRS * 2 if args.trace else MIN_ITERATIONS
    its = []
    while True:
        traced = bool(args.trace) and len(its) % 2 == 1
        its.append(Iteration(args.workload, args.seed, traced, workdir, deadline))
        elapsed = time.monotonic() - start
        if len(its) >= minimum and elapsed + its[-1].wall_s > args.seconds:
            return its
        if elapsed + its[-1].wall_s > RUN_LIMIT_S:
            raise RuntimeError("the minimum iteration count does not fit the run limit")


def summary(name, its) -> float:
    """The value a run reports for one end-to-end metric."""
    if name in JOB_TIMES:
        time_of = JOB_TIMES[name]
        return sum(
            statistics.median(time_of(it.jobs[k]) for it in its)
            for k in range(len(its[0].jobs))
        )
    return statistics.median(getattr(it, name) for it in its)


def describe(name, unit, value, values) -> str:
    """One line: the reported value, then the spread over the iterations."""
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    tail = tail_percentile(values)
    tail_txt = (f"p{tail[0]:.0f} {tail[1]:.4f}" if tail
                else "no percentile has 10 iterations beyond it")
    return (f"  {name:13s} {value:.4f} {unit}  per iteration: median {med:.4f}"
            f"  quartiles {q[0]:.4f}..{q[2]:.4f}  {tail_txt}  (n={len(values)})")


def report(args, its, input_set, expected, known_failures) -> int:
    attempted = failed = 0
    wrong, leftovers = set(), set()
    for it in its:
        f, w = check_jobs(it, expected, known_failures)
        attempted += len(it.jobs)
        failed += len(f)
        wrong.update(w)
        leftovers.update(it.leftover)
    plain = [it for it in its if not it.traced]
    traced = [it for it in its if it.traced]

    print(f"workload {args.workload}  seed {args.seed} (input set {input_set})  "
          f"iterations {len(plain)} untraced, {len(traced)} traced")
    for job in its[0].jobs:
        known = " (known failure)" if job["name"] in known_failures else ""
        print(f"  job {job['name']:24s} "
              + ("error: " + job["error"] + known if "error" in job else "ok"))
    if wrong:
        print(f"  WRONG (raised, or differs from refs.json): {sorted(wrong)}")
    if leftovers:
        print(f"  tracer wrappers left after a run: {sorted(leftovers)}")
    print(f"  fail_ratio    {failed / attempted:.6f} ratio  "
          f"({failed} of {attempted} jobs failed)")
    end_to_end = {}
    for name, unit, reported in END_TO_END:
        value = summary(name, plain)
        print(describe(name, unit, value, [getattr(it, name) for it in plain]))
        if reported:
            end_to_end[name] = {"value": value, "unit": unit}

    metrics = end_to_end
    if args.trace:
        metrics = layer_metrics(plain, traced)
        print("  ratio bases: " + json.dumps(traced[0].counts, sort_keys=True))
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")

    print(json.dumps({
        "correct": not wrong and not leftovers,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(plain, traced) -> dict:
    """Counts from the first traced iteration, times as medians."""
    first = traced[0].layers
    for it in traced[1:]:
        for key, val in it.layers.items():
            if not key.endswith("_s") and val != first[key]:
                print(f"  warning: {key} differs between traced iterations",
                      file=sys.stderr)
    metrics = {}
    for name, unit in tracer.layer_metric_units():
        if name == "trace.overhead_ratio":
            value = summary("run_ref_s", traced) / summary("run_ref_s", plain)
        elif unit == "s":
            value = statistics.median(it.layers[name] for it in traced)
        else:
            value = first[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
