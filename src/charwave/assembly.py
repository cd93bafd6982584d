"""Global solution assembly, point evaluation, and discontinuity bookkeeping.

The three region solves are stitched into one piecewise field.  A point query
is first classified (characteristics and the vertex belong to the wedge, as
do their grid nodes) and then interpolated bilinearly inside that region's
own closure, never across the characteristics, so the jump structure survives
evaluation.

The trichotomy of the data at x0 with one-sided limits p1 = phi1(x0),
p2 = phi2(x0) and assigned vertex value A:

* Continuous:   p1 = p2 = A — no jump, the solution is continuous;
* MidpointJump: p1 != p2 and A = (p1 + p2)/2 — jump, but the vertex value
  drops out of the assembled formula (the indicator term vanishes);
* GeneralJump:  anything else.

The jumps across the characteristics are constants in time:

    u(wedge side) - u(side 1)  =  A - p1    on x = x0 - a t,
    u(side 2) - u(wedge side)  =  p2 - A    on x = x0 + a t,

measured here by comparing the wedge boundary value with a second-order
one-sided extrapolation from three interior columns of the neighbouring
region (each region's own boundary samples are its one-sided limits; the
extrapolation keeps the measurement strictly one-sided even at shared nodes).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .cauchy import (
    GridParams,
    PicardParams,
    ProblemSpec,
    RegionField,
    SolverGrid,
    build_grid,
    plan_strips,
    resolve_lipschitz,
    solve_cauchy_region,
)
from .errors import ConfigError, OutOfWindow
from .geometry import Region, classify_point
from .goursat import GoursatTraces, goursat_traces, solve_goursat_region

__all__ = [
    "CaseKind",
    "Diagnostics",
    "Solution",
    "solve",
    "evaluate",
    "diagnose",
    "classify_case",
    "characteristic_jump",
    "sample_user_grid",
]


class CaseKind(enum.Enum):
    CONTINUOUS = "Continuous"
    MIDPOINT_JUMP = "MidpointJump"
    GENERAL_JUMP = "GeneralJump"


@dataclass(frozen=True)
class Diagnostics:
    """The data at the discontinuity and the case they fall in."""

    phi1_at_x0: float
    phi2_at_x0: float
    left_jump_constant: float  # A - phi1(x0)
    right_jump_constant: float  # phi2(x0) - A
    case: CaseKind
    generalized_dalembert: bool  # A is the midpoint of phi1(x0), phi2(x0)


@dataclass(frozen=True)
class Solution:
    spec: ProblemSpec
    grid: SolverGrid
    picard: PicardParams
    lipschitz: float  # declared in the spec, or estimated
    field1: RegionField
    field2: RegionField
    field3: RegionField
    traces: GoursatTraces
    diagnostics: Diagnostics


def diagnose(spec: ProblemSpec) -> Diagnostics:
    """One-sided limits of phi at x0, jump constants and case; comparisons
    are exact.  With A the midpoint the assembled formula has no indicator
    term (the generalized d'Alembert representation holds)."""
    p1 = float(ex.evaluate(spec.phi1, {"x": spec.x0}))
    p2 = float(ex.evaluate(spec.phi2, {"x": spec.x0}))
    midpoint = spec.A == 0.5 * (p1 + p2)
    if p1 == spec.A and p2 == spec.A:
        case = CaseKind.CONTINUOUS
    elif midpoint:
        case = CaseKind.MIDPOINT_JUMP
    else:
        case = CaseKind.GENERAL_JUMP
    return Diagnostics(
        phi1_at_x0=p1,
        phi2_at_x0=p2,
        left_jump_constant=spec.A - p1,
        right_jump_constant=p2 - spec.A,
        case=case,
        generalized_dalembert=midpoint,
    )


def classify_case(spec: ProblemSpec) -> CaseKind:
    """Assign the data to its case."""
    return diagnose(spec).case


def solve(
    spec: ProblemSpec, grid: GridParams, picard: PicardParams = PicardParams()
) -> Solution:
    """Run both side solves, build the traces, solve the wedge, assemble.

    The diagnostics, the Lipschitz constant and the strip plan are resolved
    once and shared by all three region solves.
    """
    diagnostics = diagnose(spec)
    sgrid = build_grid(spec, grid)
    L = resolve_lipschitz(spec, sgrid)
    strips = plan_strips(sgrid, L, picard)
    field1 = solve_cauchy_region(spec, 1, sgrid, strips, picard)
    field2 = solve_cauchy_region(spec, 2, sgrid, strips, picard)
    traces = goursat_traces(spec, field1, field2, diagnostics)
    field3 = solve_goursat_region(spec, traces, strips, picard)
    return Solution(
        spec=spec,
        grid=sgrid,
        picard=picard,
        lipschitz=L,
        field1=field1,
        field2=field2,
        field3=field3,
        traces=traces,
        diagnostics=diagnostics,
    )


# --------------------------------------------------------------------------
# Point evaluation


def _interp_wedge(sol: Solution, t: float, x: float) -> tuple[float, float, float]:
    g = sol.grid
    hc = 2.0 * g.a * g.dt
    d = x - g.x0
    # the same d -/+ a*t combinations the classifier tested, so s, r >= 0
    s_real = -(d - g.a * t) / hc
    r_real = (d + g.a * t) / hc
    m = g.n_levels
    s0 = min(int(math.floor(s_real)), m)
    r0 = min(int(math.floor(r_real)), m)
    fs = s_real - s0
    fr = r_real - r0
    out = []
    for arr in (sol.field3.u, sol.field3.p, sol.field3.q):
        v00 = arr[s0, r0]
        if s0 + r0 + 2 <= m:
            v10 = arr[s0 + 1, r0]
            v01 = arr[s0, r0 + 1]
            v11 = arr[s0 + 1, r0 + 1]
            out.append(
                v00 * (1 - fs) * (1 - fr)
                + v10 * fs * (1 - fr)
                + v01 * (1 - fs) * fr
                + v11 * fs * fr
            )
        elif s0 + r0 + 1 <= m:
            # cell straddles the top boundary t = T: linear on three corners
            v10 = arr[s0 + 1, r0]
            v01 = arr[s0, r0 + 1]
            out.append(v00 + fs * (v10 - v00) + fr * (v01 - v00))
        else:
            # s0 + r0 = n_levels forces fs = fr = 0 (query on the top corner)
            out.append(v00)
    return out[0], out[1], out[2]


def _interp_side(sol: Solution, side: int, t: float, x: float) -> tuple[float, float, float]:
    g = sol.grid
    field = sol.field1 if side == 1 else sol.field2
    ncols = field.u.shape[1]
    m = g.n_levels
    i_real = t / g.dt
    c_real = (x - g.x0) / g.dx - field.col_offset
    i0 = min(max(int(math.floor(i_real)), 0), m - 1)
    fi = i_real - i0
    # keep the 2x2 cell inside the sector at both rows i0 and i0+1; the
    # query may then sit one cell outside the clamped block (extrapolating
    # bilinear, still second order)
    c_lo = i0 + 1
    c_hi = ncols - i0 - 3
    c0 = min(max(int(math.floor(c_real)), c_lo), c_hi)
    fc = c_real - c0
    out = []
    for arr in (field.u, field.p, field.q):
        v00 = arr[i0, c0]
        v10 = arr[i0 + 1, c0]
        v01 = arr[i0, c0 + 1]
        v11 = arr[i0 + 1, c0 + 1]
        out.append(
            v00 * (1 - fi) * (1 - fc)
            + v10 * fi * (1 - fc)
            + v01 * (1 - fi) * fc
            + v11 * fi * fc
        )
    return out[0], out[1], out[2]


def evaluate(sol: Solution, t: float, x: float) -> tuple[float, float, float, Region]:
    """(u, u_t, u_x, region) at an arbitrary window point.

    Off-node points are interpolated bilinearly from nodes of the point's own
    region only; characteristics evaluate to the wedge field (closure
    convention).
    """
    g = sol.grid
    if not (0.0 <= t <= g.T) or not (g.x_lo <= x <= g.x_hi):
        raise OutOfWindow(
            f"(t={t}, x={x}) outside the solved window "
            f"[0, {g.T}] x [{g.x_lo}, {g.x_hi}]"
        )
    region = classify_point(g.a, g.x0, t, x)
    if region is Region.Q3_STAR:
        u, p, q = _interp_wedge(sol, t, x)
    else:
        u, p, q = _interp_side(sol, 1 if region is Region.Q1_STAR else 2, t, x)
    return float(u), float(p), float(q), region


# --------------------------------------------------------------------------
# Jumps across the characteristics


def _side_limit_at_char(field: RegionField, side: int, level: int):
    """One-sided (u, p, q) limits at the characteristic node of a level,
    by quadratic extrapolation from the three nearest interior columns."""
    g = field.grid
    c = g.char_col(side, level)
    step = -1 if side == 1 else 1
    cols = (c + step, c + 2 * step, c + 3 * step)
    out = []
    for arr in (field.u, field.p, field.q):
        out.append(3.0 * arr[level, cols[0]] - 3.0 * arr[level, cols[1]] + arr[level, cols[2]])
    return tuple(out)


def _jump_triple(sol: Solution, level: int, side: str) -> tuple[float, float, float]:
    """(u, p, q) jumps across a characteristic at an internal level,
    oriented as larger-x side minus smaller-x side."""
    if side == "left":
        u3 = sol.field3.u[level, 0]
        p3 = sol.field3.p[level, 0]
        q3 = sol.field3.q[level, 0]
        u1, p1, q1 = _side_limit_at_char(sol.field1, 1, level)
        return u3 - u1, p3 - p1, q3 - q1
    u3 = sol.field3.u[0, level]
    p3 = sol.field3.p[0, level]
    q3 = sol.field3.q[0, level]
    u2, p2, q2 = _side_limit_at_char(sol.field2, 2, level)
    return u2 - u3, p2 - p3, q2 - q3


def characteristic_jump(sol: Solution, t: float, side: str) -> float:
    """Jump of u across the characteristic x = x0 -/+ a t at time t > 0.

    ``side`` is "left" (x = x0 - a t, jump = wedge minus side 1) or "right"
    (x = x0 + a t, jump = side 2 minus wedge); both are oriented larger-x
    minus smaller-x.  ``t`` snaps to the nearest internal time level.
    """
    if side not in ("left", "right"):
        raise ConfigError(f"side must be 'left' or 'right', got {side!r}")
    g = sol.grid
    if not (0.0 < t <= g.T):
        raise OutOfWindow(f"t={t} outside (0, {g.T}]")
    level = min(max(int(round(t / g.dt)), 1), g.n_levels)
    return _jump_triple(sol, level, side)[0]


# --------------------------------------------------------------------------
# User-grid sampling (the CSV surface)


def sample_user_grid(sol: Solution):
    """Arrays (times, xs, region, u, p, q) over the user grid.

    ``region`` is int {1,2,3} per node with grid nodes on the characteristics
    assigned to the wedge, consistently with classify_point; the value arrays
    are read straight from the region fields (no interpolation).
    """
    g = sol.grid
    times = g.user_times()
    xs = g.user_xs()
    n_rows = g.nt + 1
    n_cols = xs.shape[0]
    d = 2 * np.arange(-g.n_left, g.n_right + 1)  # internal column offsets
    region = np.empty((n_rows, n_cols), dtype=np.int64)
    u = np.empty((n_rows, n_cols))
    p = np.empty((n_rows, n_cols))
    q = np.empty((n_rows, n_cols))
    for iu in range(n_rows):
        i = 2 * iu  # internal level
        m1 = d < -i
        m2 = d > i
        m3 = ~(m1 | m2)
        region[iu] = np.where(m1, 1, np.where(m2, 2, 3))
        c1 = d[m1] - g.j1_min
        c2 = d[m2]
        s3 = (i - d[m3]) // 2
        r3 = (i + d[m3]) // 2
        for out, f1, f2, f3 in (
            (u, sol.field1.u, sol.field2.u, sol.field3.u),
            (p, sol.field1.p, sol.field2.p, sol.field3.p),
            (q, sol.field1.q, sol.field2.q, sol.field3.q),
        ):
            row = out[iu]
            row[m1] = f1[i, c1]
            row[m2] = f2[i, c2]
            row[m3] = f3[s3, r3]
    return times, xs, region, u, p, q
