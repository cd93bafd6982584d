"""charwave benchmark: one workload, one seed, one JSON result.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; charwave is imported from ./src.  The seed
generates the problem file (written under .bench_out/); charwave sees only
that file.  The workload runs in one fresh single-threaded child process
(see worker.py), which also times set-up in fresh interpreters and checks
every output.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1.  The lines above it give the same figures
for a reader, the machine, and per-run detail such as the CSV digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import problems

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
CHILD_TIMEOUT = 170.0
# Median time of worker.reference_seconds() on the 2-vCPU Xeon sandbox the
# bounds were set on.  The speed of a shared machine drifts by tens of
# percent over minutes, so times are rescaled by REFERENCE_S over the
# reference time measured at the same moment: run_s is the median over
# commands of wall time * REFERENCE_S / (mean of the reference times just
# before and just after the command); setup_s is the median set-up wall
# time * REFERENCE_S / the run's median reference time.  Both read as
# seconds at that machine's speed; the raw wall times are printed beside them.
REFERENCE_S = 0.110
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "user_nodes_per_s": "1/s",
    "max_err": "1",
    "pass_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "threads_pinned": {var: "1" for var in THREAD_VARS},
    }


def run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run the worker to completion.  It leads its own process group, so on
    a timeout the worker and any set-up probe it started are killed together."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    with subprocess.Popen(
        cmd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    deadline = started + CHILD_TIMEOUT

    if not os.path.isfile(os.path.join("src", "charwave", "__init__.py")):
        print("error: run from a charwave checkout (no src/charwave here)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    key = f"{args.workload}-seed{args.seed}"
    config, ref = problems.GENERATORS[args.workload](args.seed)
    problem = os.path.join(OUT_DIR, f"{key}.json")
    ref_path = os.path.join(OUT_DIR, f"{key}.ref.json")
    with open(problem, "w") as fh:
        json.dump(config, fh, indent=1)
    with open(ref_path, "w") as fh:
        json.dump(ref, fh, indent=1)

    try:
        done = run_child(
            [args.workload, problem, ref_path, OUT_DIR, repr(args.seconds), str(args.trace)],
            deadline,
        )
    except subprocess.TimeoutExpired as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"error: worker exited {done.returncode}:\n{done.stderr.strip()}", file=sys.stderr)
        return 1
    res = json.loads(done.stdout.strip().splitlines()[-1])

    times = res["run_times"]
    setup = res["setup_times"]
    correct = res["failed"] == 0 and len(times) > 0
    wall_s = statistics.median(times) if times else 0.0
    run_s = statistics.median(
        t * REFERENCE_S / ref for t, ref in zip(times, res["run_references"])
    ) if times else 0.0
    setup_wall_s = statistics.median(setup) if setup else 0.0
    setup_s = setup_wall_s * REFERENCE_S / statistics.median(res["reference_times"])
    if args.trace:
        metrics = res.get("traced") or {}
        correct = correct and bool(metrics)
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "user_nodes_per_s": res["user_nodes"] / run_s if run_s else 0.0,
            "max_err": res["max_err"] if res["max_err"] == res["max_err"] else 0.0,
            "pass_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
    units = END_TO_END_UNITS if not args.trace else {}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {**machine(), "numpy": res["numpy"]},
        "setup_wall_s": setup_wall_s,
        "run_wall_s": wall_s,
        "run_s_samples": times,
        "reference_s_samples": res["reference_times"],
        "setup_s_samples": setup,
        "user_nodes": res["user_nodes"],
        "fail_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "csv_sha256": res.get("csv_sha256"),
        "wall_s": time.monotonic() - started,
    }
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units.get(name, '')}")
    if not args.trace:
        print(f"{'setup_wall_s':36s} {setup_wall_s:.6g} s (median wall time, not rescaled)")
        print(f"{'run_wall_s':36s} {wall_s:.6g} s (median wall time, not rescaled)")
    print(f"{'fail_frac':36s} {detail['fail_frac']:.6g} ({res['failed']}/{res['attempted']} runs)")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name) or per_layer_unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
