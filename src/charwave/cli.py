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
free memory for the grid, a Lipschitz estimate, ``converge`` reference
value, audit measurement or audit tolerance that is not finite, a standard
output closed before the command wrote to it, and geometry errors such as a
query outside the window), 2 interior iteration failed to converge or
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
by x, every float printed as Python's ``%.17g`` prints it, so repeated runs
are byte-identical and every value reads back to the same double.  The
u, u_t, u_x columns are formatted in numpy, a time level at a time, by an
exact re-implementation of ``%.17g`` for 1e-4 <= |v| < 1e16 (``_format17``);
zeros are "0" or "-0", and the few other values go through ``%.17g``
itself.  It is written one time level at a time, the second half of the
levels formatted by a child process where ``write_csv`` says; a failed
write exits 1 and may leave a partial file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import numpy.strings  # a lazy submodule: loaded here, not inside the first write

from . import _fork
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


_SPLITTER = 2.0**27 + 1


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v as high + low, each of at most 26 significant bits (Veltkamp's
    split, with Dekker's constant 2**27 + 1)."""
    big = _SPLITTER * v
    high = big - (big - v)
    return high, v - high


# 10**i as exact doubles, and split
_POW10 = np.array([float(10**i) for i in range(23)])
_POW10_HIGH, _POW10_LOW = _split(_POW10)
# "0000" to "9999" as 4-byte words, and the trailing '0's of each (4 for "0000")
_QUADS = sum(
    (d + ord("0")) << 8 * i for i, d in enumerate(np.ix_(*[np.arange(10, dtype=np.uint32)] * 4))
).ravel().astype("<u4")
_QUAD_ZEROS = np.cumprod(
    _QUADS.view(np.uint8).reshape(-1, 4)[:, ::-1] == ord("0"), axis=1, dtype=np.int8
).sum(axis=1, dtype=np.int8)
# row p is True on the bytes before byte p
_BEFORE = np.arange(28) < np.arange(28)[:, None]


def _digits17(y: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round(y * 10**(16 - k)) as int64, correctly rounded (ties to even),
    for y > 0 with 10**(16 - k) an exact double.  Dekker's two-product
    gives the product exactly as high + low, high an even integer once it
    passes 2**53, so rounding low rounds the sum."""
    p = 16 - k
    high = y * _POW10.take(p)
    yh, yl = _split(y)
    ph, pl = _POW10_HIGH.take(p), _POW10_LOW.take(p)
    low = yh * ph
    low -= high
    low += yh * pl
    low += yl * ph
    low += yl * pl
    return high.astype(np.int64) + np.rint(low, out=low).astype(np.int64)


def _format17(x: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` for each v of the 1-D float64 array ``x``, as a
    bytes array.

    For 1e-4 <= |v| < 1e16, %.17g prints the 17 significant digits n of v,
    correctly rounded, in positional notation with trailing fraction zeros
    and a bare point removed.  n = round(|v| * 10**(16 - k)) with
    k = floor(log10 |v|) is exact (``_digits17``), and k is stepped by one
    wherever n falls outside [10**16, 10**17): that fixes both log10's
    off-by-one and a round-up to 10**17.  The digits are laid out in a
    28-byte frame, seven '0's then n, the bytes from the point on are moved
    one up to make room for it, and the answer is one slice of the frame.
    +-0 give "0" and "-0"; every other value (subnormal, tiny, huge, inf,
    nan) goes through ``b"%.17g" %`` itself.

    Each temporary is dropped once used, so a call peaks near 150 bytes a
    value; ``write_csv`` formats a level per call.
    """
    a = np.abs(x)
    inside = (a >= 1e-4) & (a < 1e16)
    at = np.flatnonzero(inside)
    y = a.take(at)
    del a
    k = np.floor(np.log10(y)).astype(np.int64)
    n = _digits17(y, k)
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    while off.size:
        k[off] += np.where(n[off] >= 10**17, 1, -1)
        n[off] = _digits17(y[off], k[off])
        off = off[(n[off] < 10**16) | (n[off] >= 10**17)]
    del y
    # n's lead digit and four quads of digits (scalar divisors are fast)
    high = n // 10**8
    low = n - high * 10**8
    del n
    lead = high // 10**8
    quads = np.empty((at.size, 4), np.intp)
    quads[:, 0] = high // 10**4 - lead * 10**4
    quads[:, 1] = high % 10**4
    quads[:, 2] = low // 10**4
    quads[:, 3] = low % 10**4
    del high, low
    # trailing '0's of the 16 digits after the lead: a quad's count only if
    # every quad right of it is "0000"
    z = _QUAD_ZEROS.take(quads)
    last = quads == 0
    zeros = z[:, 3] + last[:, 3] * (z[:, 2] + last[:, 2] * (z[:, 1] + last[:, 1] * z[:, 0]))
    del z, last
    # the first byte is the lead, or for k < 0 the '0' of "0.000ddd"; the
    # point follows k + 1 digits; a minus sign takes the '0' before the start
    point = k + 8
    start = 7 + np.minimum(k, 0)
    minus = np.flatnonzero(np.signbit(x.take(at)))
    start[minus] -= 1
    fraction = 16 - k - zeros
    stop = np.where(fraction > 0, point + 1 + fraction, point)
    del k, zeros, fraction
    frame = np.empty((at.size, 7), "<u4")
    frame[:, [0, 6]] = 0x30303030
    frame[:, 1] = 0x30303030 + (lead.astype("<u4") << 24)  # byte 7 is the lead
    frame[:, 2:6] = _QUADS.take(quads)
    del quads, lead
    frame = frame.view(np.uint8)
    body = np.empty_like(frame)
    body[:, 1:] = frame[:, :-1]
    np.copyto(body, frame, where=_BEFORE.take(point, axis=0))
    del frame
    body[np.arange(at.size), point] = ord(".")
    body[minus, start[minus]] = ord("-")
    del point, minus
    digits = np.strings.slice(body.view("S28").ravel(), start, stop)
    del body, start, stop
    out = np.full(x.size, b"0", "S28")
    out[at] = digits
    del digits
    out[(x == 0) & np.signbit(x)] = b"-0"
    rest = np.flatnonzero(~inside & (x != 0))
    out[rest] = [b"%.17g" % v for v in x.take(rest).tolist()]
    return out


def _write_levels(sol, tails, levels: range, fh) -> None:
    """Write the rows of the user ``levels`` to the binary file ``fh``."""
    for i in levels:
        t, _, region, u, p, q = sample_user_grid(sol, i)
        # the columns of regions 1, 3 and 2 are three blocks in x order
        lo = np.count_nonzero(region == 1)
        hi = region.size - np.count_nonzero(region == 2)
        ts = b"%.17g" % t
        template = ts + ts.join(tails[0][:lo] + tails[2][lo:hi] + tails[1][hi:])
        values = _format17(np.stack((u, p, q), axis=-1).ravel())
        fh.write(template % tuple(values.tolist()))
    fh.flush()


def write_csv(sol, path: str) -> None:
    """Write the user-grid samples as CSV, reading each time level from the
    region fields as it writes it, so no whole-grid array is held.

    Each x is formatted once and each node's region code is baked into a
    per-(region, column) line tail, so a level is one bytes template, joined
    from three slices of the tails at the region boundaries and filled by
    one ``%`` with its u, u_t, u_x values, all formatted at once by
    ``_format17``: on linear_export seed 501 (1.78 M values, a 2-vCPU Xeon)
    that takes 0.59 s where one ``%.17g`` per value took 1.20 s.

    Where ``_fork.forks`` says a child process pays, the levels are written
    in two halves by ``_fork.both``: this process writes the header and the
    levels before (nt + 1) // 2, while a child formats the rest into a
    temporary file; the temporary file is then copied on, so the bytes are
    those of one pass.  It lies beside a regular output, on that disk
    rather than in memory, and in tempfile's directory for any other output
    (a pipe, say).  This process's half comes first, so its error is the one
    raised when both halves fail.  Every OSError becomes a ConfigError; a
    failed write may leave a partial file.
    """
    g = sol.grid
    xcells = [b"%.17g" % x for x in g.user_xs().tolist()]
    tails = [[b",%b,%d,%%b,%%b,%%b\n" % (x, code) for x in xcells] for code in (1, 2, 3)]
    try:
        with open(path, "wb") as fh:
            fh.write(b"t,x,region,u,ut,ux\n")
            if not _fork.forks(g.user_nodes):
                _write_levels(sol, tails, range(g.nt + 1), fh)
                return
            import shutil
            import stat
            import tempfile

            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            half = (g.nt + 1) // 2
            with tempfile.TemporaryFile(dir=(os.path.dirname(path) or ".") if regular else None) as rest:
                _fork.both(
                    g.user_nodes,
                    lambda: _write_levels(sol, tails, range(half), fh),
                    lambda: _write_levels(sol, tails, range(half, g.nt + 1), rest),
                )
                rest.seek(0)
                shutil.copyfileobj(rest, fh)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as e:
        # stdout's reader is gone: what is still buffered goes to devnull, so
        # that the flush at exit fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {e}", file=sys.stderr)
        return 1
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
