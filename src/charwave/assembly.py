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
from dataclasses import dataclass

import numpy as np

from . import _fork
from . import expr as ex
from .cauchy import (
    GridParams,
    PicardParams,
    ProblemSpec,
    RegionField,
    SolverGrid,
    _row_starts,
    build_grid,
    plan_strips,
    resolve_lipschitz,
    solve_cauchy_region,
)
from .errors import ConfigError, OutOfWindow
from .geometry import Region, classify_nodes, classify_point
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
    p1 = float(ex.evaluate_named("phi1", spec.phi1, {"x": spec.x0}))
    p2 = float(ex.evaluate_named("phi2", spec.phi2, {"x": spec.x0}))
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
    once and shared by all three region solves.  The two side solves share
    nothing, so they are the two parts of ``_fork.both``: side 1 solves here
    while side 2 solves into a shared anonymous mapping, in a child process
    when that pays (see ``_fork``), and only its PicardReport comes back.
    Side 1 is the caller's part, so its error is the one raised when both
    sides fail.
    """
    import mmap

    diagnostics = diagnose(spec)
    sgrid = build_grid(spec, grid)
    L = resolve_lipschitz(spec, sgrid)
    strips = plan_strips(sgrid, L, picard)
    buffer = mmap.mmap(-1, 3 * 8 * int(_row_starts(Region.Q2_STAR, sgrid)[-1]))
    w2 = np.frombuffer(buffer).reshape(3, -1)
    field1, report2 = _fork.both(
        sgrid.user_nodes,
        lambda: solve_cauchy_region(spec, 1, sgrid, strips, picard),
        lambda: solve_cauchy_region(spec, 2, sgrid, strips, picard, out=w2).report,
    )
    field2 = RegionField(region=Region.Q2_STAR, grid=sgrid, w=w2, report=report2)
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


def evaluate(sol: Solution, t: float, x: float) -> tuple[float, float, float, Region]:
    """(u, u_t, u_x, region) at an arbitrary window point.

    Off-node points are interpolated bilinearly from nodes of the point's own
    region only; characteristics evaluate to the wedge field (closure
    convention).  The point is classified as given, so at the rounded (t, x)
    of a user node on a characteristic, an ulp off it, this may read the
    adjacent side's field; ``sample_user_grid`` is the node-exact reader.
    """
    g = sol.grid
    if not (0.0 <= t <= g.T) or not (g.x_lo <= x <= g.x_hi):
        raise OutOfWindow(
            f"(t={t}, x={x}) outside the solved window "
            f"[0, {g.T}] x [{g.x_lo}, {g.x_hi}]"
        )
    region = classify_point(g.a, g.x0, t, x)
    field = {Region.Q1_STAR: sol.field1, Region.Q2_STAR: sol.field2, Region.Q3_STAR: sol.field3}
    u, p, q = field[region].interpolate(t, x)
    return float(u), float(p), float(q), region


# --------------------------------------------------------------------------
# Jumps across the characteristics


def _jump_triple(sol: Solution, levels, side: str) -> np.ndarray:
    """(u, p, q) jumps across a characteristic at internal ``levels``,
    oriented as larger-x side minus smaller-x side.  The side field's
    one-sided limit is extrapolated quadratically from its three nearest
    interior nodes."""
    field, step = (sol.field1, -1) if side == "left" else (sol.field2, 1)
    limit = (
        3.0 * field.at(levels, step * (levels + 1))
        - 3.0 * field.at(levels, step * (levels + 2))
        + field.at(levels, step * (levels + 3))
    )
    wedge = sol.field3.at(levels, step * levels)
    return wedge - limit if side == "left" else limit - wedge


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


def sample_user_grid(sol: Solution, levels=slice(None)):
    """Arrays (times, xs, region, u, p, q) over the user grid.

    ``levels`` picks user levels as numpy indexing does: the default gives
    (nt+1, cols) arrays, an int one level's rows and a slice those levels.
    ``region`` is the int64 code {1,2,3} of each node, from
    ``classify_nodes`` (nodes on the characteristics belong to the wedge);
    the value arrays are read straight from the region fields at their own
    nodes (no interpolation).  On one level the columns of regions 1, 3 and
    2 are three blocks in x order, so a level is read as a slice of each
    field's row.
    """
    g = sol.grid
    level = 2 * np.arange(g.nt + 1)[levels]
    offsets = g.user_offsets()
    region = classify_nodes(level[..., None], offsets)
    w = np.empty((3, *region.shape))
    rows = w.reshape(3, -1, offsets.size)
    for k, (lev, codes) in enumerate(zip(level.flat, region.reshape(-1, offsets.size))):
        n1, n2 = np.count_nonzero(codes == 1), np.count_nonzero(codes == 2)
        ends = (0, n1, offsets.size - n2, offsets.size)
        for field, a, b in zip((sol.field1, sol.field3, sol.field2), ends, ends[1:]):
            first = int(offsets[0]) + 2 * a
            rows[:, k, a:b] = field.at_level(int(lev), range(first, first + 2 * (b - a), 2))
    return g.user_times()[levels], g.user_xs(), region, w[0], w[1], w[2]
