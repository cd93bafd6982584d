"""Correctness checks applied to every benchmark run's outputs.

Each check returns a list of failure messages; an empty list is a pass.
Error tolerances scale with h^2 (h = T / nt, the user time step) because the
solver is second order; the coefficients hold several times the error
measured on the generated problems.
"""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np

import problems

NONLINEAR_ERR_COEFF = 8.0  # max_err <= coeff * h^2 against the travelling wave
LINEAR_ERR_COEFF = 2.0  # |u|, |u_t|, |u_x| errors <= coeff * h^2 against the closed form
ORDER_BAND = (1.8, 2.2)  # fitted refinement order of a second-order method

CSV_HEADER = b"t,x,region,u,ut,ux"


def err_tolerance(coeff: float, T: float, nt: int) -> float:
    h = T / nt
    return coeff * h * h


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def max_error(name: str, err: float, tol: float) -> list[str]:
    if not math.isfinite(err) or err > tol:
        return [f"{name} {err:.3e} exceeds tolerance {tol:.3e}"]
    return []


def order_in_band(order) -> list[str]:
    lo, hi = ORDER_BAND
    if order is None or not math.isfinite(order) or not (lo <= order <= hi):
        return [f"fitted order {order} outside [{lo}, {hi}]"]
    return []


def read_csv(path: str) -> np.ndarray:
    """The CSV body as an (rows, 6) float array; ValueError if malformed."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, sep, body = data.partition(b"\n")
    if header != CSV_HEADER or not sep:
        raise ValueError(f"bad header {header[:40]!r}")
    if not body.endswith(b"\n"):
        raise ValueError("missing final newline")
    n_rows = body.count(b"\n")
    if body.count(b",") != 5 * n_rows:
        raise ValueError("a row does not have six fields")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fromstring warns on an unparsable token
        values = np.fromstring(body[:-1].replace(b"\n", b","), sep=",")
    if values.size != 6 * n_rows:
        raise ValueError("a field is not a number")
    return values.reshape(n_rows, 6)


def check_csv(path: str, config: dict, ref: dict) -> tuple[list[str], dict]:
    """Validate a ``charwave solve`` CSV of a linear problem node by node.

    Checks the layout (rows by time then x, the user time levels, a uniform
    x spacing covering the window), the region of every node, and u, u_t,
    u_x at every node against the closed-form solution.  Returns the
    failures and ``{"rows": ..., "u_err": ..., ...}``.
    """
    try:
        rows = read_csv(path)
    except (OSError, ValueError) as e:
        return [f"unreadable CSV: {e}"], {"rows": 0}
    a, x0 = config["a"], config["x0"]
    T = config["window"]["T"]
    nt = config["grid"]["nt"]
    dt = T / nt
    dx = a * dt
    info = {"rows": int(rows.shape[0])}
    if rows.shape[0] % (nt + 1):
        return [f"{rows.shape[0]} rows do not fill {nt + 1} time levels"], info
    grid = rows.reshape(nt + 1, -1, 6)
    t = grid[:, :, 0]
    x = grid[:, :, 1]
    region = grid[:, :, 2]
    fails = []
    if np.ptp(t, axis=1).max() > 0 or np.abs(t[:, 0] - dt * np.arange(nt + 1)).max() > 1e-12 * T:
        fails.append("time column is not the user time levels, row by row")
    if np.ptp(x, axis=0).max() > 0 or np.abs(np.diff(x[0]) - dx).max() > 1e-9 * dx:
        fails.append("x column is not one uniform grid repeated per level")
    win = config["window"]
    if x[0, 0] > win["xmin"] + 1e-9 or x[0, -1] < win["xmax"] - 1e-9:
        fails.append("x grid does not cover the window")
    if fails:
        return fails, info
    # integer node coordinates classify exactly, also on the characteristics
    iu = np.arange(nt + 1)[:, None]
    j = np.rint((x - x0) / dx)
    want = np.where(j < -iu, 1, np.where(j > iu, 2, 3))
    if np.any(region != want):
        bad = int(np.count_nonzero(region != want))
        fails.append(f"{bad} nodes carry the wrong region")
        return fails, info
    tol = err_tolerance(LINEAR_ERR_COEFF, T, nt)
    exact = problems.piecewise_polynomial(ref, t, x, region)
    for k, name in enumerate(("u", "ut", "ux")):
        err = float(np.max(np.abs(grid[:, :, 3 + k] - exact[k])))
        info[f"{name}_err"] = err
        fails += max_error(f"CSV {name} error", err, tol)
    return fails, info


def csv_probe_nodes(nt: int, n_cols: int, n_left: int) -> list[tuple[int, int]]:
    """Fixed (time level, column) probes at least two nodes from the
    characteristics, eight per level on four levels."""
    out = []
    for iu in (nt // 4, nt // 2, 3 * nt // 4, nt):
        for col in np.linspace(2, n_cols - 3, 8).astype(int):
            j = int(col) - n_left
            if abs(j + iu) > 2 and abs(j - iu) > 2:
                out.append((iu, int(col)))
    return out
