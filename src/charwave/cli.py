"""Command-line front end.

Subcommands::

    charwave solve    problem.json -o out.csv
    charwave classify problem.json
    charwave verify   problem.json
    charwave converge problem.json --levels 3

Exit codes: 0 success (or all checks passed), 1 any other charwave error
(configuration or expression errors, including a problem file that is not
UTF-8, a wave speed or a Picard ``tol`` that is not a finite positive
number, an unwritable ``-o`` path, ``converge --levels`` below 2, a window
too narrow for any ``converge`` probe, ``verify`` at nt below 4, a grid whose
step or column count is not a finite positive number or whose arrays exceed
physical memory, not enough free memory for the grid, a Lipschitz estimate,
closed-form reference, audit measurement or audit tolerance that is not
finite, and geometry errors such as a query outside the window), 2
interior iteration failed to converge or its field left the floating-point
range, 3 verification failed.  Every error prints one ``error:`` line
instead of a traceback.

The problem file is strict JSON with exactly these keys::

    {
      "a": 1.0, "x0": 0.0, "A": 1.0,
      "phi1": "0", "phi2": "1",
      "psi1": "0", "psi2": "0",
      "F": "0", "f": "0",
      "lipschitz": 0.0,                      # optional
      "window": {"T": 1.5, "xmin": -3.0, "xmax": 3.0},
      "grid": {"nt": 128},
      "picard": {"tol": 1e-10, "max_iter": 64}   # optional
    }

Unknown keys anywhere are rejected.  CSV output has the header
``t,x,region,u,ut,ux`` with rows ordered by time then by x, every float
printed with 17 significant digits so repeated runs are byte-identical.  It
is written one time level at a time; a failed write exits 1 and may leave a
partial file.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import expr as ex
from .assembly import diagnose, sample_user_grid, solve
from .cauchy import GridParams, PicardParams, ProblemSpec
from .errors import CharwaveError, ConfigError, NonConvergence
from .verify import check_definition1, convergence_study

__all__ = ["main", "load_config", "write_csv"]


_TOP_KEYS = {
    "a", "x0", "A", "phi1", "phi2", "psi1", "psi2", "F", "f",
    "lipschitz", "window", "grid", "picard",
}
_REQUIRED = _TOP_KEYS - {"lipschitz", "picard"}
_WINDOW_KEYS = {"T", "xmin", "xmax"}
_GRID_KEYS = {"nt"}
_PICARD_KEYS = {"tol", "max_iter"}
_EXPR_KEYS = ("phi1", "phi2", "psi1", "psi2", "F", "f")


def _num(cfg: dict, key: str, where: str = "") -> float:
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"key {where}{key!r} must be a number, got {type(val).__name__}")
    return float(val)


def _int(cfg: dict, key: str, where: str = "") -> int:
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"key {where}{key!r} must be an integer, got {type(val).__name__}")
    return val


def _check_keys(cfg: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {', '.join(sorted(missing))}")


def load_config(path: str) -> tuple[ProblemSpec, GridParams, PicardParams]:
    """Parse and validate a UTF-8 problem file; raises ConfigError on any defect."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    _check_keys(cfg, _TOP_KEYS, _REQUIRED, "problem file")
    for key in _EXPR_KEYS:
        if not isinstance(cfg[key], str):
            raise ConfigError(f"key {key!r} must be an expression string")
    _check_keys(cfg["window"], _WINDOW_KEYS, _WINDOW_KEYS, "'window'")
    _check_keys(cfg["grid"], _GRID_KEYS, _GRID_KEYS, "'grid'")
    pic_cfg = cfg.get("picard", {})
    _check_keys(pic_cfg, _PICARD_KEYS, set(), "'picard'")

    lip = None
    if "lipschitz" in cfg:
        lip = _num(cfg, "lipschitz")
    spec = ProblemSpec.from_strings(
        a=_num(cfg, "a"),
        x0=_num(cfg, "x0"),
        A=_num(cfg, "A"),
        phi1=cfg["phi1"],
        phi2=cfg["phi2"],
        psi1=cfg["psi1"],
        psi2=cfg["psi2"],
        F=cfg["F"],
        f=cfg["f"],
        lipschitz=lip,
    )
    grid = GridParams(
        T=_num(cfg["window"], "T", "window."),
        x_lo=_num(cfg["window"], "xmin", "window."),
        x_hi=_num(cfg["window"], "xmax", "window."),
        nt=_int(cfg["grid"], "nt", "grid."),
    )
    defaults = PicardParams()
    picard = PicardParams(
        tol=_num(pic_cfg, "tol", "picard.") if "tol" in pic_cfg else defaults.tol,
        max_iter=_int(pic_cfg, "max_iter", "picard.") if "max_iter" in pic_cfg else defaults.max_iter,
    )
    return spec, grid, picard


def write_csv(sol, path: str) -> None:
    """Write the user-grid samples as CSV, one time level at a time.

    Each t and x is formatted once and each node's region code is baked into
    a per-(region, column) line tail, so a level is one template filled by
    one ``%`` with its u, u_t, u_x values.  Every OSError becomes a
    ConfigError; a failed write may leave a partial file.
    """
    times, xs, region, u, p, q = sample_user_grid(sol)
    vals = np.stack((u, p, q), axis=-1)
    xcells = ["%.17g" % x for x in xs.tolist()]
    tails = np.array(
        [[f",{x},{code},%.17g,%.17g,%.17g\n" for x in xcells] for code in (1, 2, 3)],
        dtype=object,
    )
    row_tails = tails[region - 1, np.arange(len(xcells))]
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("t,x,region,u,ut,ux\n")
            for i, t in enumerate(times.tolist()):
                ts = "%.17g" % t
                template = ts + ts.join(row_tails[i].tolist())
                fh.write(template % tuple(vals[i].ravel().tolist()))
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


# --------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args) -> int:
    spec, grid, picard = load_config(args.config)
    sol = solve(spec, grid, picard)
    write_csv(sol, args.output)
    iters = [max(sol.field1.report.iterations), max(sol.field2.report.iterations),
             max(sol.field3.report.iterations)]
    if args.json:
        print(json.dumps({
            "output": args.output,
            "case": sol.diagnostics.case.value,
            "iterations": iters,
            "lipschitz": sol.lipschitz,
        }))
    else:
        print(f"wrote {args.output}")
        print(f"case: {sol.diagnostics.case.value}")
        print(f"iterations (left, right, wedge): {iters[0]}, {iters[1]}, {iters[2]}")
    return 0


def _cmd_classify(args) -> int:
    spec, _, _ = load_config(args.config)
    d = diagnose(spec)
    if args.json:
        print(json.dumps({
            "case": d.case.value,
            "phi1_at_x0": d.phi1_at_x0,
            "phi2_at_x0": d.phi2_at_x0,
            "A": spec.A,
            "left_jump_constant": d.left_jump_constant,
            "right_jump_constant": d.right_jump_constant,
            "generalized_dalembert": d.generalized_dalembert,
        }))
    else:
        print(f"case: {d.case.value}")
        print(f"phi1(x0) = {d.phi1_at_x0:.17g}")
        print(f"phi2(x0) = {d.phi2_at_x0:.17g}")
        print(f"A = {spec.A:.17g}")
        print(f"left jump constant  (A - phi1(x0)) = {d.left_jump_constant:.17g}")
        print(f"right jump constant (phi2(x0) - A) = {d.right_jump_constant:.17g}")
        print(f"generalized d'Alembert: {'yes' if d.generalized_dalembert else 'no'}")
    return 0


def _cmd_verify(args) -> int:
    spec, grid, picard = load_config(args.config)
    sol = solve(spec, grid, picard)
    report = check_definition1(sol)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{c.name:16s} {status}  measured={c.measured:.6e}  tol={c.tolerance:.6e}")
        for name, val in report.info:
            print(f"{name:20s} (reported) {val:.6e}")
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 3


def _cmd_converge(args) -> int:
    spec, grid, picard = load_config(args.config)
    reference = None
    if args.reference is not None:
        exact = ex.parse(args.reference, ("t", "x"))
        reference = lambda t, x: ex.evaluate(exact, {"t": t, "x": x})
    study = convergence_study(
        spec, grid, picard, reference=reference, levels=args.levels
    )
    if args.json:
        print(json.dumps(study.to_dict()))
    else:
        for e in study.entries:
            print(f"nt={e.nt:6d}  h={e.h:.6e}  err={e.err:.6e}")
        print("order: exact" if study.exact else f"order: {study.order:.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="charwave",
        description="piecewise-classical solver for the 1-D quasilinear wave "
        "equation with initial data jumping at one point",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve and write the sampled field as CSV")
    p_solve.add_argument("config")
    p_solve.add_argument("-o", "--output", required=True, help="output CSV path")
    p_solve.add_argument("--json", action="store_true", help="machine-readable summary")
    p_solve.set_defaults(func=_cmd_solve)

    p_cls = sub.add_parser("classify", help="report the discontinuity case without solving")
    p_cls.add_argument("config")
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=_cmd_classify)

    p_ver = sub.add_parser("verify", help="solve and audit the defining conditions")
    p_ver.add_argument("config")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    p_con = sub.add_parser("converge", help="grid refinement study against a reference")
    p_con.add_argument("config")
    p_con.add_argument("--levels", type=int, default=3)
    p_con.add_argument(
        "--reference",
        default=None,
        help="expression in t,x used as the reference; defaults to the "
        "closed-form quadrature (requires f = 0)",
    )
    p_con.add_argument("--json", action="store_true")
    p_con.set_defaults(func=_cmd_converge)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergence as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CharwaveError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {str(e) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
