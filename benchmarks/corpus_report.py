"""Traced one-off report over three corpus problems; it gates nothing.

    python3 benchmarks/corpus_report.py

Run from the repository root.  For each of configs/phi_step_general.json,
configs/mixed_forcing.json and configs/manufactured.json, with the grid set
to nt = 512, a fresh child process runs ``charwave solve ... -o out.csv`` and
``charwave verify ...`` through the CLI entry point with spans around the
layers (see spans.py), then one plain ``solve`` under tracemalloc.  The
table gives both side solves, the wedge, the CSV write, the verification
audit, the solve's tracemalloc peak and the child's peak RSS.  Single runs:
the figures are indicative, unlike the medians of run.py.  The result is
also written to .bench_out/corpus_report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc

import run
import spans
import worker

CORPUS = ("phi_step_general", "mixed_forcing", "manufactured")
NT = 512
COLUMNS = (
    ("side1", "cauchy.side1", "ms"),
    ("side2", "cauchy.side2", "ms"),
    ("wedge", "goursat.wedge", "ms"),
    ("CSV write", "cli.write_csv", "ms"),
    ("verify", "verify.check_definition1", "ms"),
    ("solve peak alloc", "solve_peak_alloc_mb", "MiB"),
    ("peak RSS", "peak_rss_mb", "MiB"),
)


def one(problem: str) -> dict:
    """Measure one problem file in this process."""
    cw = worker.import_charwave(os.getcwd())
    from charwave import cli

    csv = os.path.splitext(problem)[0] + ".csv"
    tracer = spans.Tracer()
    tracer.install()
    try:
        for run_id, argv in enumerate((["solve", problem, "-o", csv], ["verify", problem])):
            tracer.run_id = run_id
            idx = tracer.open("run")
            try:
                rc, _ = worker.quiet_main(cli, argv)
            finally:
                tracer.close(idx)
            if rc != 0:
                raise SystemExit(f"charwave {argv[0]} exited {rc}")
    finally:
        tracer.uninstall()
    os.remove(csv)
    incl = spans.inclusive_times(tracer.spans)
    # layer times of `solve -o`; the audit's time from `verify`, which solves again
    out = {name: 1e3 * incl[0].get(name, 0.0) for _, name, _ in COLUMNS[:4]}
    out["verify.check_definition1"] = 1e3 * incl[1]["verify.check_definition1"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spec, grid, picard = cli.load_config(problem)
    tracemalloc.start()
    try:
        cw.solve(spec, grid, picard)
        out["solve_peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / spans.MIB
    finally:
        tracemalloc.stop()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(one(args.one)))
        return 0
    os.makedirs(run.OUT_DIR, exist_ok=True)
    rows = {}
    for name in CORPUS:
        with open(os.path.join("configs", f"{name}.json")) as fh:
            config = json.load(fh)
        config["grid"]["nt"] = NT
        problem = os.path.join(run.OUT_DIR, f"corpus-{name}.json")
        with open(problem, "w") as fh:
            json.dump(config, fh, indent=1)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", problem],
            env=run.child_env(),
            capture_output=True,
            text=True,
            timeout=600,
        )
        if done.returncode != 0:
            print(f"error: {name}: {done.stderr.strip()}", file=sys.stderr)
            return 1
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"nt = {NT}; {json.dumps(run.machine())}")
    print("| config | " + " | ".join(f"{c} ({u})" for c, _, u in COLUMNS) + " |")
    print("| --- " * (len(COLUMNS) + 1) + "|")
    for name, row in rows.items():
        print(f"| {name} | " + " | ".join(f"{row[key]:.0f}" for _, key, _ in COLUMNS) + " |")
    with open(os.path.join(run.OUT_DIR, "corpus_report.json"), "w") as fh:
        json.dump({"nt": NT, "machine": run.machine(), "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
