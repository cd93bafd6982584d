"""Seeded problem generators and exact references for the benchmark workloads.

Each generator maps ``(seed)`` to a problem file (the only thing charwave
sees) and a reference description (kept by the benchmark).  The seed moves
coefficients, phases, jump values and the vertex value ``A``; it never moves
the grid, the window or anything that sets the strip count, so every seed
asks for the same amount of work.

The coefficients that drive the discretisation and interpolation error stay
fixed or nearly so: phi'', psi' and F of the linear problems, and the
wavenumber of the travelling wave.  The measured error, like the work, then
stays the same size from seed to seed.
"""

from __future__ import annotations

import math
import random

import numpy as np

WORKLOADS = ("nonlinear_verify", "linear_export", "refine_study")

# f = C*sin(u) has the estimated Lipschitz constant 1.5*C, which plans 8
# strips of 102 levels at nt = 384; C is fixed so that the plan, and with it
# the work, does not move with the seed.
NONLINEAR_C = 1.0

_WINDOW = {"T": 1.5, "xmin": -3.0, "xmax": 3.0}
_PICARD = {"tol": 1e-10, "max_iter": 64}


def _rng(workload: str, seed: int) -> random.Random:
    # a string seed is hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


def _poly_x(coeffs) -> str:
    """Expression source of sum_k coeffs[k] * x^k."""
    terms = []
    for k, c in enumerate(coeffs):
        factor = "" if k == 0 else ("*x" if k == 1 else f"*x^{k}")
        terms.append(f"({c!r}){factor}")
    return " + ".join(terms)


def _poly_tx(mono: dict) -> str:
    """Expression source of sum c * t^m * x^n over mono[(m, n)] = c."""
    terms = []
    for (m, n), c in sorted(mono.items()):
        term = f"({c!r})"
        if m:
            term += "*t" if m == 1 else f"*t^{m}"
        if n:
            term += "*x" if n == 1 else f"*x^{n}"
        terms.append(term)
    return " + ".join(terms)


def nonlinear_verify(seed: int) -> tuple[dict, dict]:
    """f = C*sin(u) with F chosen so u* = sin(k(x - t) + theta) is exact.

    A travelling wave is annihilated by the wave operator, so F = f(u*).
    ``lipschitz`` is left out on purpose: the solve estimates it.
    """
    rng = _rng("nonlinear_verify", seed)
    theta = _u(rng, 0.0, 2.0 * math.pi)
    k = _u(rng, 2.99, 3.01)
    c = NONLINEAR_C
    wave = f"({k!r})*(x-t)+({theta!r})"
    config = {
        "a": 1.0,
        "x0": 0.0,
        "A": float(np.sin(np.float64(theta))),
        "phi1": f"sin(({k!r})*x+({theta!r}))",
        "phi2": f"sin(({k!r})*x+({theta!r}))",
        "psi1": f"({-k!r})*cos(({k!r})*x+({theta!r}))",
        "psi2": f"({-k!r})*cos(({k!r})*x+({theta!r}))",
        "F": f"({c!r})*sin(sin({wave}))",
        "f": f"({c!r})*sin(u)",
        "window": {"T": 1.0, "xmin": -3.0, "xmax": 3.0},
        "grid": {"nt": 384},
        "picard": dict(_PICARD),
    }
    ref = {"kind": "travelling_wave", "a": 1.0, "k": k, "theta": theta}
    return config, ref


def _linear_data(rng: random.Random, nt: int) -> tuple[dict, dict]:
    """Piecewise-quadratic phi/psi jumping at x0 = 0, quadratic F, f = 0,
    and a vertex value A away from the midpoint (a GeneralJump problem)."""
    p0 = _u(rng, -1.0, 1.0)
    jump = _sign(rng) * _u(rng, 0.5, 1.5)
    phi1 = [p0, _u(rng, -0.5, 0.5), 0.4]
    phi2 = [round(p0 + jump, 6), _u(rng, -0.5, 0.5), 0.4]
    psi1 = [_u(rng, -0.5, 0.5), 0.2, -0.3]
    psi2 = [_u(rng, -0.5, 0.5), -0.2, -0.3]
    w = rng.choice((_u(rng, 0.15, 0.35), _u(rng, 0.65, 0.85)))
    A = round(p0 + w * jump, 6)
    F = {(1, 1): 1.0, (0, 2): 0.5, (0, 0): 0.25}
    config = {
        "a": 1.0,
        "x0": 0.0,
        "A": A,
        "phi1": _poly_x(phi1),
        "phi2": _poly_x(phi2),
        "psi1": _poly_x(psi1),
        "psi2": _poly_x(psi2),
        "F": _poly_tx(F),
        "f": "0",
        "window": dict(_WINDOW),
        "grid": {"nt": nt},
    }
    ref = {
        "kind": "piecewise_polynomial",
        "a": 1.0,
        "x0": 0.0,
        "A": A,
        "phi1": phi1,
        "phi2": phi2,
        "psi1": psi1,
        "psi2": psi2,
        "F": [[m, n, c] for (m, n), c in sorted(F.items())],
    }
    return config, ref


def linear_export(seed: int) -> tuple[dict, dict]:
    return _linear_data(_rng("linear_export", seed), 384)


def refine_study(seed: int) -> tuple[dict, dict]:
    return _linear_data(_rng("refine_study", seed), 128)


GENERATORS = {
    "nonlinear_verify": nonlinear_verify,
    "linear_export": linear_export,
    "refine_study": refine_study,
}


# --------------------------------------------------------------------------
# Exact references


def travelling_wave(ref: dict, t, x) -> np.ndarray:
    return np.sin(ref["k"] * (np.asarray(x) - ref["a"] * np.asarray(t)) + ref["theta"])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)  # on [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def piecewise_polynomial(
    ref: dict, t, x, region=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (u, u_t, u_x) of the linear problem by d'Alembert's formula.

    ``region`` (1 left, 2 right, 3 wedge) picks the branch; without it the
    branch follows from (t, x).  Points on a characteristic belong to the
    wedge and take its one-sided limits, as the solver's closure does.  The forcing integrals are polynomial
    in the time variable, so an 8-point Gauss rule evaluates them exactly.
    """
    P = np.polynomial.polynomial
    a, x0, A = ref["a"], ref["x0"], ref["A"]
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    xm = x - a * t
    xp = x + a * t
    if region is None:
        left = xp < x0  # both feet left of x0
        right = xm > x0  # both feet right of x0
    else:
        left = np.asarray(region) == 1
        right = np.asarray(region) == 2
    phi_m = np.where(right, P.polyval(xm, ref["phi2"]), P.polyval(xm, ref["phi1"]))
    phi_p = np.where(left, P.polyval(xp, ref["phi1"]), P.polyval(xp, ref["phi2"]))
    d1 = P.polyder(ref["phi1"])
    d2 = P.polyder(ref["phi2"])
    dphi_m = np.where(right, P.polyval(xm, d2), P.polyval(xm, d1))
    dphi_p = np.where(left, P.polyval(xp, d1), P.polyval(xp, d2))
    psi_m = np.where(right, P.polyval(xm, ref["psi2"]), P.polyval(xm, ref["psi1"]))
    psi_p = np.where(left, P.polyval(xp, ref["psi1"]), P.polyval(xp, ref["psi2"]))
    I1 = P.polyint(ref["psi1"])
    I2 = P.polyint(ref["psi2"])
    psi_int = np.where(
        left,
        P.polyval(xp, I1) - P.polyval(xm, I1),
        np.where(
            right,
            P.polyval(xp, I2) - P.polyval(xm, I2),
            P.polyval(x0, I1) - P.polyval(xm, I1) + P.polyval(xp, I2) - P.polyval(x0, I2),
        ),
    )
    wedge = ~(left | right)
    vertex = A - 0.5 * (P.polyval(x0, ref["phi1"]) + P.polyval(x0, ref["phi2"]))
    u = 0.5 * (phi_m + phi_p) + psi_int / (2.0 * a) + np.where(wedge, vertex, 0.0)
    ut = 0.5 * a * (dphi_p - dphi_m) + 0.5 * (psi_p + psi_m)
    ux = 0.5 * (dphi_m + dphi_p) + (psi_p - psi_m) / (2.0 * a)
    # forcing: s on Gauss nodes of [0, t], rays y = x -/+ a (t - s)
    s = t[..., None] * _GL_NODES
    w = t[..., None] * _GL_WEIGHTS
    reach = a * (t[..., None] - s)
    yp = x[..., None] + reach
    ym = x[..., None] - reach
    tri = np.zeros_like(s)
    ray_p = np.zeros_like(s)
    ray_m = np.zeros_like(s)
    for m, n, c in ref["F"]:
        tri += c * s**m * (yp ** (n + 1) - ym ** (n + 1)) / (n + 1)
        ray_p += c * s**m * yp**n
        ray_m += c * s**m * ym**n
    u = u + (w * tri).sum(-1) / (2.0 * a)
    ut = ut + 0.5 * (w * (ray_p + ray_m)).sum(-1)
    ux = ux + (w * (ray_p - ray_m)).sum(-1) / (2.0 * a)
    return u, ut, ux
