"""Time one charwave command in fresh interpreters, alternating two checkouts.

usage: python3 tools/fresh.py OLD NEW [--runs N] [--workload W --seed S] -- ARG...

OLD and NEW are charwave checkouts.  Each run starts one fresh interpreter
per checkout, in alternating order (OLD first in odd runs, NEW first in
even ones), that imports charwave from ROOT/src and calls
``charwave.cli.main([ARG...])``; no bytecode is cached, so nothing is
written under either checkout.  With ``--workload W --seed S`` the
benchmark's problem generator of OLD writes workload W's problem for seed S
to a temporary file, and every ARG ``{problem}`` names that file, e.g.

    python3 tools/fresh.py old . --runs 6 --workload refine_study --seed 501 \\
        -- converge {problem} --levels 3

For each run it prints the wall time, interpreter start included, and the
``ru_minflt`` (minor page faults) and ``ru_maxrss`` that ``os.wait4``
reports; the last line is JSON with each side's [q1, median, q3] of the
three, the exit codes, and whether both checkouts printed the same bytes.
On Linux, ``os.wait4`` counts the faults of the command's process and of
every child it waited for, and gives the largest ``ru_maxrss`` among them,
not their sum.  A forked child's figures start from the parent's RSS at
the fork, since the pages they share count in both.  These are figures of
a fresh process, whose heap starts cold; the benchmark worker times each
command in a process that has run it before, where they differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

RUNNER = (
    "import sys; root = sys.argv[1]; sys.path.insert(0, root + '/src'); "
    "from charwave.cli import main; sys.exit(main(sys.argv[2:]))"
)


def run_once(root: str, args: list[str]) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", RUNNER, root, *args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    )
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "minflt": usage.ru_minflt,
        "maxrss_mib": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "stdout": out,
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--runs", type=int, default=6)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    if "--" not in argv:
        parser.error("give the charwave command after --")
    cut = argv.index("--")
    opts, args = parser.parse_args(argv[:cut]), argv[cut + 1 :]
    if (opts.workload is None) != (opts.seed is None):
        parser.error("--workload and --seed go together")
    roots = {"old": os.path.abspath(opts.old), "new": os.path.abspath(opts.new)}
    command = args
    with tempfile.TemporaryDirectory() as tmp:
        if opts.workload is not None:
            sys.path.insert(0, os.path.join(roots["old"], "benchmarks"))
            import problems

            path = os.path.join(tmp, f"{opts.workload}_{opts.seed}.json")
            with open(path, "w") as fh:
                json.dump(problems.GENERATORS[opts.workload](opts.seed)[0], fh, indent=1)
            args = [path if a == "{problem}" else a for a in args]
        runs = {"old": [], "new": []}
        for i in range(opts.runs):
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            for side in order:
                r = run_once(roots[side], args)
                runs[side].append(r)
                print(
                    f"run {i + 1} {side}: rc {r['rc']}  wall {r['wall_s']:.3f} s  "
                    f"minflt {r['minflt']}  maxrss {r['maxrss_mib']:.1f} MiB",
                    flush=True,
                )
    outs = {r["stdout"] for side in runs.values() for r in side}
    summary = {
        side: {
            "rc": sorted({r["rc"] for r in rs}),
            **{key: quartiles([r[key] for r in rs]) for key in ("wall_s", "minflt", "maxrss_mib")},
        }
        for side, rs in runs.items()
    }
    print(json.dumps({
        "command": command, "workload": opts.workload, "seed": opts.seed, "runs": opts.runs,
        "same_stdout": len(outs) == 1, **summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
