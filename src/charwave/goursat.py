"""Goursat problem on the wedge between the two characteristics.

The wedge solution is pinned to the side solutions through prescribed jumps
across the characteristics through (0, x0): with phi1(x0), phi2(x0) the
one-sided limits of the data and A the assigned value at the vertex,

    u3(t, x0 - a t) = gamma1(t) = u1(t, x0 - a t) + A - phi1(x0),
    u3(t, x0 + a t) = gamma2(t) = u2(t, x0 + a t) + A - phi2(x0),

and both traces equal A at t = 0.  Interior values follow from the
characteristic parallelogram identity: writing xi = x - a t, eta = x + a t
and H = F - f(., ., u, u_t, u_x),

    u3(C) = gamma1(t_B) + gamma2(t_D) - A
            + 1/(4 a^2) * int_xi^x0 dy int_x0^eta dz H(y, z),

where B and D are the feet of the characteristics through C on the left and
right boundary lines (t_B = (x0 - xi)/(2a), t_D = (eta - x0)/(2a)).  This is
again a fixed-point problem in u3 and is iterated in Picard fashion.

Derivatives come from the Leibniz rule applied to the same identity, using
the exact trace derivatives along the characteristics

    gamma1'(t) = (u_t - a u_x) of side 1 at (t, x0 - a t),
    gamma2'(t) = (u_t + a u_x) of side 2 at (t, x0 + a t),

which the side fields provide directly.  With J_xi = int_xi^x0 H(y, eta) dy
and J_eta = int_x0^eta H(xi, z) dz:

    u_t = (gamma1' + gamma2')/2 + (J_xi + J_eta)/(4a),
    u_x = (gamma2' - gamma1')/(2a) + (J_xi - J_eta)/(4 a^2).

Discretisation: the wedge is the triangle s + r <= n_levels of the lattice
node(s, r) = (t, x) = ((s+r) dt, x0 + (r-s) dx); in (xi, eta) this is a
uniform grid of spacing hc = 2 a dt anchored at the vertex, so the double
integral is a separable 2-D composite trapezoid evaluated by running prefix
sums.  Bands of constant s + r are marched in time exactly like the cauchy
strips, and every band's boundary nodes reproduce the traces identically
(their integral prefix is empty).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import expr as ex
from .cauchy import (
    PicardParams,
    PicardReport,
    ProblemSpec,
    RegionField,
    SolverGrid,
    _cumtrapz_row,
    _picard,
)
from .errors import ConfigError
from .geometry import Region

if TYPE_CHECKING:  # assembly imports this module
    from .assembly import Diagnostics

__all__ = [
    "GoursatTraces",
    "goursat_traces",
    "solve_goursat_region",
    "picard_step_goursat",
]


@dataclass(frozen=True)
class GoursatTraces:
    """Boundary data of the wedge problem sampled at internal time levels.

    ``gamma1``/``gamma2`` are the prescribed wedge values on the left/right
    characteristic; ``dgamma1``/``dgamma2`` their time derivatives along the
    lines, read from the side fields' derivative samples.
    """

    grid: SolverGrid
    gamma1: np.ndarray
    gamma2: np.ndarray
    dgamma1: np.ndarray
    dgamma2: np.ndarray
    apex: float  # the common value gamma1(0) = gamma2(0) = A


def goursat_traces(
    spec: ProblemSpec, field1: RegionField, field2: RegionField, diagnostics: Diagnostics
) -> GoursatTraces:
    """Build the wedge boundary traces from the two solved side fields and
    the jump constants of ``diagnostics``."""
    grid = field1.grid
    if field2.grid != grid:
        raise ConfigError("side fields were solved on different grids")
    m = grid.n_levels
    levels = np.arange(m + 1)
    c1 = -levels - grid.j1_min
    c2 = levels
    u1c, p1c, q1c = field1.w[:, levels, c1]
    u2c, p2c, q2c = field2.w[:, levels, c2]
    arrays = (
        u1c + diagnostics.left_jump_constant,
        u2c - diagnostics.right_jump_constant,
        p1c - grid.a * q1c,
        p2c + grid.a * q2c,
    )
    for arr in arrays:
        arr.setflags(write=False)
    g1, g2, dg1, dg2 = arrays
    return GoursatTraces(
        grid=grid,
        gamma1=g1,
        gamma2=g2,
        dgamma1=dg1,
        dgamma2=dg2,
        apex=spec.A,
    )


def _wedge_map(spec: ProblemSpec, traces: GoursatTraces, b: int, block):
    """The parallelogram map on band (b, e] of the wedge, in place on
    ``block``, the (3, R, R) view of the lattice block [0..e]^2 of the
    stacked (u, u_t, u_x), R = e + 1.

    Returns ``sweep(feedback)``: the candidate (u, p, q) are built on the
    whole block, with the integrand H = F - f(., ., u, u_t, u_x) read from
    ``block``, or from the boundary part alone (integral dropped) when
    ``feedback`` is False.  F and f are evaluated only on the block's live
    triangle s + r <= e; H stays 0 past it, where the prefix sums of live
    nodes never reach.  Row s then writes its band nodes, the slice
    r in [max(b + 1 - s, 0), e - s].  The sweep returns the largest update
    over them.
    """
    g = traces.grid
    a = g.a
    hc = 2.0 * a * g.dt
    R = block.shape[1]
    k = np.arange(R)
    live = k[:, None] + k[None, :] < R
    s, r = np.nonzero(live)
    env = {"t": (s + r) * g.dt, "x": g.x0 + (r - s) * g.dx}
    F = ex.evaluate(spec.F, env)
    # f reads the coordinates and state planes it names, gathered per sweep
    reads = ex.free_vars(spec.f)
    env = {v: env[v] for v in ("t", "x") if v in reads}
    H = np.zeros((R, R))
    g1 = traces.gamma1[:R, None]
    g2 = traces.gamma2[None, :R]
    dg1 = traces.dgamma1[:R, None]
    dg2 = traces.dgamma2[None, :R]
    cand = np.empty((3, R, R))
    upd = np.zeros(R)

    def sweep(feedback: bool) -> float:
        u_c, p_c, q_c = cand
        np.add(g1, g2, out=u_c)
        u_c -= traces.apex
        np.add(dg1, dg2, out=p_c)
        p_c *= 0.5
        np.subtract(dg2, dg1, out=q_c)
        q_c /= 2.0 * a
        if feedback:
            env.update((v, block[i][live]) for i, v in enumerate(("u", "ut", "ux")) if v in reads)
            H[live] = F - ex.evaluate(spec.f, env)
            jrow = _cumtrapz_row(np.swapaxes(H, 0, 1), hc)
            jrow = np.swapaxes(jrow, 0, 1)  # int over y in [xi_s, x0] at fixed eta_r
            jcol = _cumtrapz_row(H, hc)  # int over z in [x0, eta_r] at fixed xi_s
            u_c += _cumtrapz_row(jrow, hc) / (4.0 * a * a)  # the full rectangle
            p_c += (jrow + jcol) / (4.0 * a)
            q_c += (jrow - jcol) / (4.0 * a * a)
        for s in range(R):
            band = slice(max(b + 1 - s, 0), R - s)
            new, old = cand[:, s, band], block[:, s, band]
            upd[s] = abs(new - old).max()
            old[...] = new
        return float(upd.max())

    return sweep


def solve_goursat_region(
    spec: ProblemSpec,
    traces: GoursatTraces,
    strips: Sequence[tuple[int, int]],
    picard: PicardParams,
) -> RegionField:
    """Solve the wedge problem by Picard iteration on the parallelogram map,
    marching the bands ``strips`` (levels s + r) of :func:`plan_strips`."""
    g = traces.grid
    n = g.n_levels + 1
    W = np.zeros((3, n, n))
    # vertex node: degenerate parallelogram, all integrals empty
    W[:, 0, 0] = (
        traces.gamma1[0],
        0.5 * (traces.dgamma1[0] + traces.dgamma2[0]),
        (traces.dgamma2[0] - traces.dgamma1[0]) / (2.0 * g.a),
    )

    all_norms = []
    for b, e in strips:
        # sweeps write only the band: the nodes below it are final, with their
        # boundary pinned, and the candidates are not valid above it
        sweep = _wedge_map(spec, traces, b, W[:, : e + 1, : e + 1])
        all_norms.append(_picard(sweep, spec.f_reads_state, picard, f"wedge band [{b}, {e}]"))
        # the converged candidates reproduce the traces only up to rounding
        # (they add and subtract the apex value); pin the boundary exactly
        ks = np.arange(b + 1, e + 1)
        W[0, ks, 0] = traces.gamma1[ks]
        W[0, 0, ks] = traces.gamma2[ks]

    report = PicardReport(strips=tuple(strips), update_norms=tuple(all_norms))
    return RegionField(region=Region.Q3_STAR, grid=g, w=W, report=report)


def picard_step_goursat(
    spec: ProblemSpec, traces: GoursatTraces, iterate: RegionField
) -> RegionField:
    """One global sweep of the parallelogram map reading (u,p,q) from ``iterate``.

    The sweep covers the whole triangle (band (-1, n_levels]); the nodes
    outside it keep the input's values.  A converged wedge field is a fixed
    point of this map up to the stopping tolerance.
    """
    W = iterate.w.copy()
    _wedge_map(spec, traces, -1, W)(True)
    return replace(iterate, w=W)
