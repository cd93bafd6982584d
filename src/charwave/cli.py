"""Command-line front end.

Subcommands::

    charwave solve    problem.json -o out.csv
    charwave classify problem.json
    charwave verify   problem.json
    charwave converge problem.json --levels 3

Exit codes: 0 success (or all checks passed), 1 any other charwave error
(usage errors such as an unknown subcommand or flag, a missing ``-o`` or a
``--levels`` that is not an integer; configuration or expression errors,
including a problem file that is not UTF-8, a number outside the float
range, JSON that Python's decoder cannot hold, a wave speed or a Picard
``tol`` that is not a finite positive number, an unwritable ``-o`` path,
``converge --levels`` below 2, a window too narrow for any ``converge``
probe, ``verify`` at nt below 4, a grid whose step or column count is not a
finite positive number or whose arrays exceed physical memory, not enough
free memory for the grid, a Lipschitz estimate, closed-form reference, audit
measurement or audit tolerance that is not finite, and geometry errors such
as a query outside the window), 2 interior iteration failed to converge or
its field left the floating-point range, 3 verification failed.  Every error
prints one ``error:`` line instead of a traceback.

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

Unknown keys anywhere are rejected, and numbers must fit a float.  CSV
output has the header ``t,x,region,u,ut,ux`` with rows ordered by time then
by x, every float printed with 17 significant digits so repeated runs are
byte-identical.  It is written one time level at a time; a failed write
exits 1 and may leave a partial file.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import expr as ex
from .assembly import diagnose, sample_user_grid, solve
from .cauchy import _SLOT_VARS, GridParams, PicardParams, ProblemSpec
from .errors import CharwaveError, ConfigError, NonConvergence
from .geometry import _as_float
from .verify import check_definition1, convergence_study

__all__ = ["main", "load_config", "write_csv"]


# each key's type, or the schema of its object; _OPTIONAL keys may be left out
_SCHEMA = {
    "a": float, "x0": float, "A": float,
    **dict.fromkeys(_SLOT_VARS, str),
    "lipschitz": float,
    "window": {"T": float, "xmin": float, "xmax": float},
    "grid": {"nt": int},
    "picard": {"tol": float, "max_iter": int},
}
_OPTIONAL = {"lipschitz", "picard", "tol", "max_iter"}
_NOUNS = {int: "an integer", str: "an expression string"}


def _checked(cfg, schema: dict, prefix: str = "") -> dict:
    """``cfg`` with its keys and types checked against ``schema`` and every
    number converted to float; ``prefix`` is the dotted path of nested keys."""
    where = repr(prefix[:-1]) if prefix else "problem file"
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(cfg) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = set(schema) - _OPTIONAL - set(cfg)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {', '.join(sorted(missing))}")
    out = {}
    for key, val in cfg.items():
        kind = schema[key]
        if isinstance(kind, dict):
            out[key] = _checked(val, kind, f"{prefix}{key}.")
        elif kind is float:
            out[key] = _as_float(f"key {prefix}{key!r}", val)
        elif isinstance(val, bool) or not isinstance(val, kind):
            got = "" if kind is str else f", got {type(val).__name__}"
            raise ConfigError(f"key {prefix}{key!r} must be {_NOUNS[kind]}{got}")
        else:
            out[key] = val
    return out


def load_config(path: str) -> tuple[ProblemSpec, GridParams, PicardParams]:
    """Parse and validate a UTF-8 problem file; raises ConfigError on any defect."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8: {e}") from e
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, an integer of more than 4300 digits, or nesting too deep
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    cfg = _checked(raw, _SCHEMA)
    window, grid, picard = cfg.pop("window"), cfg.pop("grid"), cfg.pop("picard", {})
    spec = ProblemSpec.from_strings(**cfg)
    grid = GridParams(T=window["T"], x_lo=window["xmin"], x_hi=window["xmax"], **grid)
    return spec, grid, PicardParams(**picard)


def write_csv(sol, path: str) -> None:
    """Write the user-grid samples as CSV, reading each time level from the
    region fields as it writes it, so no whole-grid array is held.

    Each x is formatted once and each node's region code is baked into a
    per-(region, column) line tail, so a level is one template filled by one
    ``%`` with its u, u_t, u_x values.  Every OSError becomes a ConfigError;
    a failed write may leave a partial file.
    """
    xcells = ["%.17g" % x for x in sol.grid.user_xs().tolist()]
    tails = np.array(
        [[f",{x},{code},%.17g,%.17g,%.17g\n" for x in xcells] for code in (1, 2, 3)],
        dtype=object,
    )
    columns = np.arange(len(xcells))
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("t,x,region,u,ut,ux\n")
            for i in range(sol.grid.nt + 1):
                t, _, region, u, p, q = sample_user_grid(sol, i)
                ts = "%.17g" % t
                template = ts + ts.join(tails[region - 1, columns].tolist())
                fh.write(template % tuple(np.stack((u, p, q), axis=-1).ravel().tolist()))
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


class _Parser(argparse.ArgumentParser):
    """Usage errors are ConfigErrors: one ``error:`` line and exit 1, where
    argparse would print its usage block and exit 2."""

    def error(self, message):
        raise ConfigError(message)


_COMMANDS = (
    ("solve", _cmd_solve, "solve and write the sampled field as CSV"),
    ("classify", _cmd_classify, "report the discontinuity case without solving"),
    ("verify", _cmd_verify, "solve and audit the defining conditions"),
    ("converge", _cmd_converge, "grid refinement study against a reference"),
)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="charwave",
        description="piecewise-classical solver for the 1-D quasilinear wave "
        "equation with initial data jumping at one point",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, text in _COMMANDS:
        cmd = commands[name] = sub.add_parser(name, help=text)
        cmd.add_argument("config")
        cmd.add_argument("--json", action="store_true", help="machine-readable output")
        cmd.set_defaults(func=func)
    commands["solve"].add_argument("-o", "--output", required=True, help="output CSV path")
    commands["converge"].add_argument("--levels", type=int, default=3)
    commands["converge"].add_argument(
        "--reference",
        default=None,
        help="expression in t,x used as the reference; defaults to the "
        "closed-form quadrature (requires f = 0)",
    )

    try:
        args = parser.parse_args(argv)
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
