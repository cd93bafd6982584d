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
(their integral prefix is empty).  The solve works in the packed rows that
the field it returns stores, as ``RegionField`` lays them out: row s holds
the nodes (s, r), r <= n_levels - s, and node (s, r) is entry
starts[s] + r of the row table ``starts``.

A sweep of band (b, e] costs O(band nodes): the prefix sums along s and r
of the nodes below the band are final, so each band resumes them from the
values on its bottom level b, carried over from the band below once that
band has converged and its boundary is pinned.  The sums run sequentially,
so the resumed prefixes have the bits of one-pass sums over the whole
block [0, e]^2.

When f reads no state one sweep of a band is its fixed point, and nothing
in it reads the iterate, so the sweep is marched in SUB_BANDS sub-bands,
each resuming from the prefixes of the one below: the same bits, with
temporaries that cover one sub-band's levels instead of the band's.  The
report and the errors name the planned bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import expr as ex
from .cauchy import (
    PicardParams,
    PicardReport,
    ProblemSpec,
    RegionField,
    SolverGrid,
    _cumtrapz_row,
    _picard,
    _row_starts,
)
from .errors import ConfigError
from .geometry import Region

if TYPE_CHECKING:  # assembly imports this module
    from .assembly import Diagnostics

__all__ = [
    "GoursatTraces",
    "goursat_traces",
    "solve_goursat_region",
]

# the number of sub-bands a band's single sweep is marched in when f reads
# no state
SUB_BANDS = 8


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
    levels = np.arange(grid.n_levels + 1)
    u1c, p1c, q1c = field1.at(levels, -levels)
    u2c, p2c, q2c = field2.at(levels, levels)
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


def _wedge_map(spec: ProblemSpec, traces: GoursatTraces, W: np.ndarray, b: int, e: int, base):
    """The parallelogram map on band (b, e] of the wedge, in place on ``W``,
    the stacked (u, u_t, u_x) of the whole triangle.

    The band's prefix sums run over its levels l = s + r as columns, in two
    skewed layouts: (s, l), where jcol and the double integral U (sums along
    r at fixed s) run along each row, and (r, l), where jrow (the sum along s
    at fixed r) does.  Column 0 is level b, which ``base`` carries in: H,
    jrow, jcol and U on the nodes (s, b - s) of level b, indexed by s.  Rows
    at most b resume their sums from it; the rows past b start theirs on the
    band, on its boundary nodes.

    Returns ``(sweep, carry)``.  ``sweep(feedback)`` builds the candidate
    (u, p, q) on the band's nodes, with the integrand
    H = F - f(., ., u, u_t, u_x) read from ``W`` on them, or from the boundary
    part alone (integral dropped) when ``feedback`` is False, writes them and
    returns the largest update.  F and f are evaluated on the band's nodes
    only.  ``carry()`` returns the four columns on level e, the next band's
    ``base``: when f reads state it evaluates H once on the band's final
    nodes, otherwise H does not depend on them and it returns the columns
    the last ``sweep(True)`` built.

    ``W`` is the solve's (3, n_live) array of packed rows.  The band's nodes
    are gathered from it and scattered back through one index, ``node``,
    in the order of ``band``'s True entries.
    """
    g = traces.grid
    a = g.a
    hc = 2.0 * a * g.dt
    R, nb = e + 1, e - b
    idx = np.arange(R)[:, None]
    lev = np.arange(b, e + 1)
    band = idx <= lev[1:]  # the band's nodes, columns 1..
    # no increment where a prefix starts (index == level: s = 0 for jrow,
    # r = 0 for jcol and U) or past the triangle
    skip = idx >= lev[1:]
    # (s, l) <-> (r, l): row c of column l takes row l - c; the rows past
    # the triangle keep their own
    flip = np.where(idx <= lev, lev - idx, idx) * (nb + 1) + np.arange(nb + 1)
    s, j = np.nonzero(band)
    r = b + 1 + j - s
    env = {"t": (s + r) * g.dt, "x": g.x0 + (r - s) * g.dx}
    # the entry of W at each band node (s, r)
    node = _row_starts(Region.Q3_STAR, g)[s] + r
    del s, j, r
    F = ex.evaluate(spec.F, env)
    # f reads the coordinates and state planes it names, gathered per sweep
    reads = ex.free_vars(spec.f)
    env = {v: env[v] for v in ("t", "x") if v in reads}

    def by_r(trace):  # a trace indexed by r, on the band's (s, l) layout
        return sliding_window_view(np.concatenate([np.zeros(nb), trace[:R]]), nb + 1)[::-1, 1:]

    g1, dg1 = traces.gamma1[:R, None], traces.dgamma1[:R, None]
    g2, dg2 = by_r(traces.gamma2), by_r(traces.dgamma2)
    H = np.zeros((R, nb + 1))
    H[: b + 1, 0] = base[0]
    starts = np.full((3, R), -0.0)
    starts[0, : b + 1] = base[1][::-1]  # jrow, by r
    starts[1:, : b + 1] = base[2:]
    starts[:, b] = -0.0  # the boundary node of level b: empty prefixes

    last = []  # level e's columns of the last sweep, when f reads no state

    def integrals():
        env.update((v, W[k][node]) for k, v in enumerate(("u", "ut", "ux")) if v in reads)
        H[:, 1:][band] = F - ex.evaluate(spec.f, env)
        # int over y in [xi_s, x0] at fixed eta_r
        jrow = np.take(_cumtrapz_row(np.take(H, flip), hc, starts[0], skip), flip)
        jcol = _cumtrapz_row(H, hc, starts[1], skip)  # int over z in [x0, eta_r] at fixed xi_s
        return jrow, jcol, _cumtrapz_row(jrow, hc, starts[2], skip)  # the full rectangle

    def sweep(feedback: bool) -> float:
        # each candidate plane is the boundary part plus the integral part,
        # written before the next one is formed
        upd = []

        def put(k, new):
            # through the row W[k]: a 1-D index is about twice as fast as W[k, node]
            new, w = new[band], W[k]
            d = w[node]
            np.subtract(new, d, out=d)
            upd.append(np.max(np.abs(d, out=d), initial=0.0))
            w[node] = new

        if feedback:
            sums = integrals()
            if not spec.f_reads_state:
                last[:] = (v[:, -1].copy() for v in (H, *sums))
            jrow, jcol, U = (v[:, 1:] for v in sums)
        new = g1 + g2
        new -= traces.apex
        if feedback:
            U /= 4.0 * a * a
            new += U
            del U
        put(0, new)
        new = dg1 + dg2
        new *= 0.5
        if feedback:
            jsum = jrow + jcol
            jsum /= 4.0 * a
            new += jsum
            del jsum
        put(1, new)
        new = dg2 - dg1
        new /= 2.0 * a
        if feedback:
            jrow -= jcol
            jrow /= 4.0 * a * a
            new += jrow
        put(2, new)
        return float(np.max(upd))

    def carry():
        if last:
            return tuple(last)
        return tuple(v[:, -1].copy() for v in (H, *integrals()))

    return sweep, carry


@np.errstate(over="ignore", invalid="ignore")  # as solve_cauchy_region
def solve_goursat_region(
    spec: ProblemSpec,
    traces: GoursatTraces,
    strips: Sequence[tuple[int, int]],
    picard: PicardParams,
) -> RegionField:
    """Solve the wedge problem by Picard iteration on the parallelogram map,
    marching the bands ``strips`` (levels s + r) of :func:`plan_strips`."""
    g = traces.grid
    starts = _row_starts(Region.Q3_STAR, g)
    W = np.zeros((3, starts[-1]))
    # vertex node: degenerate parallelogram, all integrals empty
    W[:, 0] = (
        traces.gamma1[0],
        0.5 * (traces.dgamma1[0] + traces.dgamma2[0]),
        (traces.dgamma2[0] - traces.dgamma1[0]) / (2.0 * g.a),
    )

    # the first band's base: H = F - f at the vertex, with empty prefixes
    zero = np.zeros(1)
    env = {"t": zero, "x": g.x0 + zero, "u": W[0, :1], "ut": W[1, :1], "ux": W[2, :1]}
    base = (ex.evaluate(spec.F, env) - ex.evaluate(spec.f, env), [-0.0], [-0.0], [-0.0])
    all_norms = []
    for b, e in strips:
        # without feedback the band's single sweep is marched in sub-bands
        edges = [b, e]
        if not spec.f_reads_state:
            edges = sorted({b + (e - b) * k // SUB_BANDS for k in range(SUB_BANDS + 1)})
        norms = []
        for lo, hi in zip(edges, edges[1:]):
            if lo > 0:
                base = carry()  # of the band below, taken after its boundary was pinned
            # sweeps write only the band: the nodes below it are final, and
            # the candidates are not valid above it
            sweep, carry = _wedge_map(spec, traces, W, lo, hi, base)
            norms += _picard(sweep, spec.f_reads_state, picard, f"wedge band [{b}, {e}]")
            # the converged candidates reproduce the traces only up to
            # rounding (they add and subtract the apex value); pin the
            # boundary exactly
            ks = np.arange(lo + 1, hi + 1)
            W[0, starts[ks]] = traces.gamma1[ks]  # nodes (ks, 0)
            W[0, ks] = traces.gamma2[ks]  # nodes (0, ks)
        # one entry per planned band: a sub-banded sweep's update is the
        # largest of its parts'
        all_norms.append(tuple(norms) if spec.f_reads_state else (max(norms),))

    report = PicardReport(strips=tuple(strips), update_norms=tuple(all_norms))
    return RegionField(region=Region.Q3_STAR, grid=g, w=W, report=report)
