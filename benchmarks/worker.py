"""Benchmark child process: set up charwave once, then time one workload.

    python3 benchmarks/worker.py WORKLOAD PROBLEM REF OUT_DIR SECONDS TRACE

Repeats the workload's command for SECONDS of command time after one
warm-up, checks every output, and prints one JSON object as its last line.
Before each timed command two things are timed: a fresh interpreter that
imports charwave and loads the problem file (the set-up time), and a fixed
NumPy reference kernel that gauges the machine's speed at that moment; the
kernel runs once more after the last command.  Both are sampled across the
whole run because the speed of the machine drifts by tens of percent over
minutes.  With TRACE = 1
the time is split: half untraced, half with spans around charwave's layers,
then one more iteration with tracemalloc for per-span allocation peaks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import checks
import problems
import spans

MIN_ITERATIONS = 3
SETUP_PROBE = (
    "import sys, time\n"
    "from charwave import cli\n"
    "cli.load_config(sys.argv[1])\n"
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))\n"
)


def import_charwave(root: str):
    """charwave from ``root``/src, and from nowhere else."""
    import charwave

    want = os.path.realpath(os.path.join(root, "src", "charwave"))
    got = os.path.realpath(os.path.dirname(charwave.__file__))
    if got != want:
        raise SystemExit(f"charwave was imported from {got}, expected {want}")
    return charwave


def setup_seconds(problem: str) -> float:
    """From before a fresh interpreter starts until it has imported charwave
    and loaded ``problem`` (CLOCK_MONOTONIC is shared by all processes)."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, problem],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - t0


def reference_seconds() -> float:
    """Time of a fixed NumPy computation that charwave never runs: large
    elementwise and cumulative passes, like the solver's own."""
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 1 << 20)
    for _ in range(6):
        b = np.sin(a) * 1.5 + a
        a = np.cumsum(b) * 1e-6
    return time.perf_counter() - t0


def quiet_main(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# --------------------------------------------------------------------------
# Workloads: ``run`` is the timed command, ``check`` validates its output
# outside the timing and returns (failures, max_err).


class NonlinearVerify:
    """``solve`` then ``check_definition1``: the path of ``charwave verify``."""

    def __init__(self, cw, problem: str, config: dict, ref: dict, out_dir: str, key: str):
        self.cw = cw
        self.spec, self.grid, self.picard = cw.cli.load_config(problem)
        self.ref = ref
        self.tol = checks.err_tolerance(checks.NONLINEAR_ERR_COEFF, self.grid.T, self.grid.nt)
        T = self.grid.T
        self.probes = [(f * T, x) for f in (0.25, 0.5, 0.75, 1.0) for x in np.linspace(-2.5, 2.5, 101)]
        self.first_err = None
        self.user_nodes = 0

    def run(self):
        sol = self.cw.solve(self.spec, self.grid, self.picard)
        return sol, self.cw.check_definition1(sol)

    def check(self, out):
        sol, report = out
        fails = [f"verify {c.name} FAIL" for c in report.checks if not c.passed]
        g = sol.grid
        self.user_nodes = (g.nt + 1) * (g.n_left + g.n_right + 1)
        err = max(
            abs(self.cw.evaluate(sol, t, x)[0] - float(problems.travelling_wave(self.ref, t, x)))
            for t, x in self.probes
        )
        fails += checks.max_error("max_err", err, self.tol)
        if self.first_err is None:
            self.first_err = err
        elif err != self.first_err:
            fails.append("max_err differs between iterations of one seed")
        return fails, err


class LinearExport:
    """``charwave solve PROBLEM -o out.csv``."""

    def __init__(self, cw, problem: str, config: dict, ref: dict, out_dir: str, key: str):
        self.cw = cw
        self.problem = problem
        self.config = config
        self.ref = ref
        self.csv = os.path.join(out_dir, f"{key}.csv")
        self.digest_file = os.path.join(out_dir, "csv_digests.json")
        self.key = key
        self.digest = None
        self.err = float("nan")
        self.user_nodes = 0
        self.spec = cw.cli.load_config(problem)[0]

    def run(self):
        return quiet_main(self.cw.cli, ["solve", self.problem, "-o", self.csv])

    def check(self, out):
        rc, _ = out
        if rc != 0:
            return [f"charwave solve exited {rc}"], float("nan")
        digest = checks.sha256_file(self.csv)
        if self.digest is not None:
            if digest != self.digest:
                return ["CSV differs between iterations of one seed"], float("nan")
            return [], self.err
        # first output of the run: validate every node, then compare digests
        fails, info = checks.check_csv(self.csv, self.config, self.ref)
        self.user_nodes = info["rows"]
        if not fails:
            self.err = self.oracle_error()
            T, nt = self.config["window"]["T"], self.config["grid"]["nt"]
            tol = checks.err_tolerance(checks.LINEAR_ERR_COEFF, T, nt)
            fails += checks.max_error("max_err", self.err, tol)
        fails += self.compare_recorded(digest)
        self.digest = digest
        return fails, self.err

    def oracle_error(self) -> float:
        """Sup error of the CSV's u at fixed nodes against ``linear_oracle``."""
        nt = self.config["grid"]["nt"]
        grid = checks.read_csv(self.csv).reshape(nt + 1, -1, 6)
        n_left = int(np.count_nonzero(grid[0, :, 1] < self.config["x0"]))
        err = 0.0
        for iu, col in checks.csv_probe_nodes(nt, grid.shape[1], n_left):
            t, x, _, u = grid[iu, col, :4]
            err = max(err, abs(u - self.cw.linear_oracle(self.spec, float(t), float(x))))
        return err

    def compare_recorded(self, digest: str) -> list[str]:
        """Record the digest per seed; a later run of the seed must match."""
        try:
            with open(self.digest_file) as fh:
                recorded = json.load(fh)
        except (OSError, ValueError):
            recorded = {}
        if recorded.get(self.key, digest) != digest:
            return ["CSV digest differs from an earlier run of this seed"]
        recorded[self.key] = digest
        with open(self.digest_file, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
        return []


class RefineStudy:
    """``charwave converge PROBLEM --levels 3`` against ``linear_oracle``."""

    LEVELS = 3

    def __init__(self, cw, problem: str, config: dict, ref: dict, out_dir: str, key: str):
        self.cw = cw
        self.problem = problem
        self.config = config
        self.first = None
        spec = cw.cli.load_config(problem)[0]
        w = config["window"]
        self.user_nodes = 0
        for k in range(self.LEVELS):
            gp = cw.GridParams(T=w["T"], x_lo=w["xmin"], x_hi=w["xmax"], nt=config["grid"]["nt"] << k)
            g = cw.build_grid(spec, gp)
            self.user_nodes += (g.nt + 1) * (g.n_left + g.n_right + 1)

    def run(self):
        return quiet_main(self.cw.cli, ["converge", self.problem, "--levels", str(self.LEVELS), "--json"])

    def check(self, out):
        rc, text = out
        if rc != 0:
            return [f"charwave converge exited {rc}"], float("nan")
        try:
            study = json.loads(text)
        except ValueError:
            return ["converge printed no JSON"], float("nan")
        nt = self.config["grid"]["nt"]
        levels = [e["nt"] for e in study["entries"]]
        if levels != [nt << k for k in range(self.LEVELS)]:
            return [f"converge ran levels {levels}"], float("nan")
        fails = []
        if study["exact"]:
            fails.append("converge reported an exact solution")
        fails += checks.order_in_band(study["order"])
        err = study["entries"][-1]["err"]
        tol = checks.err_tolerance(checks.LINEAR_ERR_COEFF, self.config["window"]["T"], levels[-1])
        fails += checks.max_error("max_err", err, tol)
        if self.first is None:
            self.first = text
        elif text != self.first:
            fails.append("converge output differs between iterations of one seed")
        return fails, err


WORKLOADS = {
    "nonlinear_verify": NonlinearVerify,
    "linear_export": LinearExport,
    "refine_study": RefineStudy,
}


# --------------------------------------------------------------------------
# Timing loop


class Log:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.max_err = []

    def record(self, fails: list[str], err: float) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.extend(fails[:3])
        self.max_err.append(err)


def attempt(runner, log: Log, tracer=None) -> tuple[float, bool]:
    """One timed command plus its check: (command seconds, ran to the end)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = runner.run()
        else:
            idx = tracer.open("run")
            try:
                out = runner.run()
            finally:
                tracer.close(idx)
    except Exception as e:  # a failed run counts against fail_frac, the loop goes on
        log.record([f"{type(e).__name__}: {e}"], float("nan"))
        return time.perf_counter() - t0, False
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    try:
        fails, err = runner.check(out)
    finally:
        if tracer is not None:
            tracer.install()
    log.record(fails, err)
    return elapsed, True


def timed_loop(runner, log: Log, budget: float, before, tracer=None) -> dict[int, float]:
    """Repeat ``before()`` and the command until ``budget`` seconds of
    command time are spent.

    Returns {attempt number: seconds} of the attempts that ran to the end;
    with a tracer the attempt number is also the spans' run id.
    """
    times: dict[int, float] = {}
    spent = 0.0
    tries = 0
    while spent < budget or (len(times) < MIN_ITERATIONS and tries < 2 * MIN_ITERATIONS):
        if tracer is not None:
            tracer.run_id = tries
        before()
        elapsed, ok = attempt(runner, log, tracer)
        if ok:
            times[tries] = elapsed
        tries += 1
        spent += elapsed
    return times


def traced_metrics(tracer: spans.Tracer, runs: list[int], untraced: list[float], traced: list[float]) -> dict:
    n = len(runs)

    def mean(table, key):
        return sum(table[r].get(key, 0.0) for r in runs) / n

    layers = spans.layer_self_times(tracer.spans)
    incl = spans.inclusive_times(tracer.spans)
    counts = tracer.counts
    m = {
        "trace.run_s": mean(layers, "total"),
        "trace.untimed_s": mean(layers, "untimed"),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = mean(layers, layer)
    for name in (
        "cauchy.side1", "cauchy.side2", "cauchy.estimate_lipschitz", "cauchy.build_grid",
        "goursat.traces", "goursat.wedge", "expr.evaluate", "assembly.sample_user_grid",
        "assembly.evaluate", "cli.write_csv", "verify.check_definition1",
        "verify.linear_oracle",
    ):
        m[f"{name}_s"] = mean(incl, name)
    for name in (
        "cauchy.estimate_lipschitz", "expr.evaluate", "assembly.evaluate",
        "verify.linear_oracle", "geometry.classify_point",
    ):
        m[f"{name}_calls"] = mean(counts, f"{name}.calls")
    for key in ("cauchy.sweeps", "cauchy.strips", "goursat.sweeps", "expr.evaluated_elems",
                "cli.csv_bytes", "cli.csv_rows"):
        m[key] = mean(counts, key)
    for layer in ("cauchy", "goursat"):
        alloc = mean(counts, f"{layer}.alloc_nodes")
        m[f"{layer}.live_node_frac"] = mean(counts, f"{layer}.live_nodes") / alloc if alloc else 0.0
        m[f"{layer}.array_mb"] = mean(counts, f"{layer}.array_bytes") / spans.MIB
    calls = sum(counts[r].get("cli.load_config.calls", 0.0) for r in runs)
    m["cli.load_config_s"] = sum(incl[r].get("cli.load_config", 0.0) for r in runs) / calls if calls else 0.0
    for key in spans.ALLOC_SPANS.values():
        m[key] = tracer.peaks.get(key, 0.0)
    return m


def run(workload: str, problem: str, ref_path: str, out_dir: str, seconds: float, trace: bool) -> dict:
    cw = import_charwave(os.getcwd())
    import charwave.cli  # noqa: F401  (the workloads call cw.cli)

    with open(problem) as fh:
        config = json.load(fh)
    with open(ref_path) as fh:
        ref = json.load(fh)
    key = os.path.splitext(os.path.basename(problem))[0]
    runner = WORKLOADS[workload](cw, problem, config, ref, out_dir, key)
    log = Log()
    attempt(runner, log)  # warm-up: caches, lazy imports, first-touch pages
    budget = seconds / 2.0 if trace else seconds
    setup_times: list[float] = []
    reference_times: list[float] = []

    def probe():
        setup_times.append(setup_seconds(problem))
        reference_times.append(reference_seconds())

    timed = timed_loop(runner, log, budget, probe)
    reference_times.append(reference_seconds())  # the one after the last command
    untraced = list(timed.values())
    result = {
        "setup_times": setup_times,
        "reference_times": reference_times,
        "run_times": untraced,
        # machine speed around each command: the reference times just before and after it
        "run_references": [0.5 * (reference_times[k] + reference_times[k + 1]) for k in timed],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "user_nodes": runner.user_nodes,
        "numpy": np.__version__,
    }
    if trace:
        tracer = spans.Tracer()

        def setup():
            idx = tracer.open("setup")
            try:
                cw.cli.load_config(problem)
            finally:
                tracer.close(idx)

        tracer.install()
        try:
            traced = timed_loop(runner, log, budget, setup, tracer)
            # allocation peaks from one more iteration, kept out of the timings
            tracer.run_id = -1
            tracer.track_alloc = True
            tracemalloc.start()
            try:
                setup()
                attempt(runner, log, tracer)
            finally:
                tracemalloc.stop()
                tracer.track_alloc = False
        finally:
            tracer.uninstall()
        if traced and untraced:
            result["traced"] = traced_metrics(tracer, list(traced), untraced, list(traced.values()))
        with open(os.path.join(out_dir, f"{key}.spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    errs = [e for e in log.max_err if e == e]
    result.update(
        attempted=log.attempted,
        failed=log.failed,
        failures=log.failures[:20],
        max_err=max(errs) if errs else float("nan"),
    )
    if workload == "linear_export" and os.path.exists(runner.csv):
        result["csv_sha256"] = runner.digest
        os.remove(runner.csv)
    return result


def main(argv: list[str]) -> int:
    workload, problem, ref, out_dir, seconds, trace = argv
    result = run(workload, problem, ref, out_dir, float(seconds), trace == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
