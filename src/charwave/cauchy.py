"""Half-plane Cauchy solves for the mildly quasilinear wave equation.

The equation is  u_tt - a^2 u_xx + f(t, x, u, u_t, u_x) = F(t, x)  with data
u(0,x) = phi(x), u_t(0,x) = psi(x) that are smooth on each side of a single
abscissa x0.  Left and right of the characteristic fan through (0, x0) the
solution is determined by one-sided data alone, so each side is solved as an
ordinary Cauchy problem on the sector it determines:

* side 1: the sector left of both characteristics (x + a t < x0), using
  (phi1, psi1);
* side 2: the sector right of both (x - a t > x0), using (phi2, psi2).

The solution is the fixed point of the d'Alembert integral form

    u(t,x) = (phi(x-at) + phi(x+at))/2 + 1/(2a) * int_{x-at}^{x+at} psi(s) ds
             + 1/(2a) * int_0^t int_{x-a(t-s)}^{x+a(t-s)} G(s, y) dy ds,

    G = F - f(., ., u, u_t, u_x),

iterated in Picard fashion together with closed companion formulas for the
derivatives (obtained by the Leibniz rule, so the iterate is never
differentiated numerically):

    u_t = a/2 * (phi'(x+at) - phi'(x-at)) + (psi(x+at) + psi(x-at))/2
          + 1/2 * int_0^t [G(s, x+a(t-s)) + G(s, x-a(t-s))] ds,
    u_x = (phi'(x-at) + phi'(x+at))/2 + 1/(2a) * (psi(x+at) - psi(x-at))
          + 1/(2a) * int_0^t [G(s, x+a(t-s)) - G(s, x-a(t-s))] ds.

Discretisation
--------------

The grid couples the steps as dx = a*dt, so both characteristics through any
node pass through nodes and every integral above is sampled without
interpolation.  Internally the requested step is halved (dt = dt_user/2):
the wedge between the characteristics lives on a lattice of half-integer
multiples of the user step, and the halving puts all of its nodes, and the
characteristic boundary points it needs from the side solves, on internal
nodes.

All integrals are composite trapezoid sums.  The ray integrals satisfy the
per-level recurrences

    I+[i,c] = I+[i-1,c-1] + dt/2 * (G[i-1,c-1] + G[i,c])       (ray x - at = const)
    I-[i,c] = I-[i-1,c+1] + dt/2 * (G[i-1,c+1] + G[i,c])       (ray x + at = const)

and the triangle integral satisfies the diamond recurrence

    D[i,c] = D[i-1,c-1] + D[i-1,c+1] - D[i-2,c]
             + dt*dx*(G[i-1,c-1]/2 + G[i-1,c] + G[i-1,c+1]/2)

with D[0,.] = 0; both identities reproduce the direct trapezoid sum exactly
(in exact arithmetic), which the test suite checks to near rounding error.

Time stepping is strip-marched: [0, T] is cut into bands short enough that
the Picard map contracts at the rate STRIP_SAFETY; each band re-anchors the
representation at its bottom row, whose (u, u_t, u_x) samples play the role
of (phi, psi, phi').  With L = 0 there is a single band and the first sweep
is already exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import ConfigError, NonConvergence
from .geometry import Region, _check_speed

__all__ = [
    "ProblemSpec",
    "GridParams",
    "PicardParams",
    "SolverGrid",
    "PicardReport",
    "RegionField",
    "build_grid",
    "plan_strips",
    "estimate_lipschitz",
    "resolve_lipschitz",
    "solve_cauchy_region",
    "picard_step_cauchy",
]

_SLOT_VARS = {
    "phi1": {"x"},
    "phi2": {"x"},
    "psi1": {"x"},
    "psi2": {"x"},
    "F": {"t", "x"},
    "f": {"t", "x", "u", "ut", "ux"},
}


@dataclass(frozen=True)
class ProblemSpec:
    """Full datum of one discontinuous-data problem.

    ``phi1``/``psi1`` are the initial profiles left of ``x0``, ``phi2``/
    ``psi2`` right of it, ``A`` the assigned value of u(0, x0).  ``lipschitz``
    is the Lipschitz constant of ``f`` in its (u, ut, ux) arguments; ``None``
    requests the finite-difference estimate.
    """

    a: float
    x0: float
    A: float
    phi1: ex.Expr
    phi2: ex.Expr
    psi1: ex.Expr
    psi2: ex.Expr
    F: ex.Expr
    f: ex.Expr
    lipschitz: float | None = None

    def __post_init__(self):
        _check_speed(self.a)
        for name in ("x0", "A"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ConfigError(f"{name} must be a finite real number, got {v!r}")
        if self.lipschitz is not None:
            if not (math.isfinite(self.lipschitz) and self.lipschitz >= 0):
                raise ConfigError(f"lipschitz must be >= 0, got {self.lipschitz!r}")
        for name, allowed in _SLOT_VARS.items():
            extra = ex.free_vars(getattr(self, name)) - allowed
            if extra:
                raise ConfigError(
                    f"expression for {name} may only use {sorted(allowed)}, "
                    f"found {sorted(extra)}"
                )

    @classmethod
    def from_strings(
        cls,
        a: float,
        x0: float,
        A: float,
        phi1: str,
        phi2: str,
        psi1: str,
        psi2: str,
        F: str = "0",
        f: str = "0",
        lipschitz: float | None = None,
    ) -> "ProblemSpec":
        return cls(
            a=a,
            x0=x0,
            A=A,
            phi1=ex.parse(phi1, _SLOT_VARS["phi1"]),
            phi2=ex.parse(phi2, _SLOT_VARS["phi2"]),
            psi1=ex.parse(psi1, _SLOT_VARS["psi1"]),
            psi2=ex.parse(psi2, _SLOT_VARS["psi2"]),
            F=ex.parse(F, _SLOT_VARS["F"]),
            f=ex.parse(f, _SLOT_VARS["f"]),
            lipschitz=lipschitz,
        )

    @property
    def f_reads_state(self) -> bool:
        """Whether f reads u, ut or ux, i.e. the Picard map has feedback."""
        return bool(ex.free_vars(self.f) & {"u", "ut", "ux"})

    def phi(self, side: int) -> ex.Expr:
        return self.phi1 if side == 1 else self.phi2

    def psi(self, side: int) -> ex.Expr:
        return self.psi1 if side == 1 else self.psi2


@dataclass(frozen=True)
class GridParams:
    """Requested window and resolution; the solver snaps the window outward
    so x0 lands on a node and dx = a*dt holds exactly."""

    T: float
    x_lo: float
    x_hi: float
    nt: int

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ConfigError(f"T must be positive, got {self.T!r}")
        if not (isinstance(self.nt, int) and self.nt >= 2):
            raise ConfigError(f"nt must be an integer >= 2, got {self.nt!r}")
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi) and self.x_lo < self.x_hi):
            raise ConfigError(f"window must satisfy x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")


# contraction target of the Picard map per strip, in (0, 1)
STRIP_SAFETY = 0.5


@dataclass(frozen=True)
class PicardParams:
    tol: float = 1e-10
    max_iter: int = 64

    def __post_init__(self):
        if not (self.tol > 0):
            raise ConfigError("tol must be > 0")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ConfigError("max_iter must be an integer >= 1")


@dataclass(frozen=True)
class SolverGrid:
    """Concrete characteristic-aligned grid shared by all three region solves.

    User grid: nt steps of dt_user on [0, T], columns every dx_user = a*dt_user
    with x0 on a node.  Internal grid: everything halved (n_levels = 2*nt
    levels of dt = dt_user/2), which places the wedge lattice and all
    characteristic boundary points on nodes.

    Region storage convention (internal columns are offsets j from x0, so the
    node (level i, offset j) sits at (i*dt, x0 + j*dx)):

    * side 1 arrays have columns c = j - j1_min for j in [j1_min, 0]; at level
      i the sector occupies j in [j1_min + i, -i];
    * side 2 arrays have columns c = j for j in [0, j2_max]; at level i the
      sector occupies j in [i, j2_max - i].

    In both layouts the occupied slice at level i is [i, ncols - 1 - i]: the
    domain of dependence shaves one column per level per side.  j1_min and
    j2_max include the dependence margin of the window plus three columns
    beyond the characteristics for one-sided jump extrapolation.
    """

    a: float
    x0: float
    T: float
    nt: int
    dt_user: float
    dx_user: float
    n_left: int
    n_right: int
    x_lo: float
    x_hi: float
    n_levels: int
    dt: float
    dx: float
    j1_min: int
    j2_max: int

    @property
    def ncols1(self) -> int:
        return 1 - self.j1_min

    @property
    def ncols2(self) -> int:
        return self.j2_max + 1

    def user_times(self) -> np.ndarray:
        return self.dt_user * np.arange(self.nt + 1)

    def user_xs(self) -> np.ndarray:
        return self.x0 + self.dx_user * np.arange(-self.n_left, self.n_right + 1)

    def region_xcols(self, side: int) -> np.ndarray:
        if side == 1:
            return self.x0 + self.dx * (np.arange(self.ncols1) + self.j1_min)
        return self.x0 + self.dx * np.arange(self.ncols2)

    def char_col(self, side: int, level: int) -> int:
        """Array column of the node on the characteristic at internal level."""
        return -level - self.j1_min if side == 1 else level


@dataclass(frozen=True)
class PicardReport:
    strips: tuple[tuple[int, int], ...]
    update_norms: tuple[tuple[float, ...], ...]  # one per sweep, per strip

    @property
    def iterations(self) -> tuple[int, ...]:
        return tuple(len(norms) for norms in self.update_norms)


@dataclass(frozen=True)
class RegionField:
    """(u, u_t, u_x) samples over one region's closure.

    For the side regions the arrays are (n_levels+1, ncols) in (level,
    column) layout as described on SolverGrid; only the sector [i, ncols-1-i]
    of level i holds solution values, the entries outside it are left over
    from the band sweeps and mean nothing.  For the wedge region the arrays
    are indexed (s, r) with node (s, r) at t = (s+r)*dt, x = x0 + (r-s)*dx,
    valid for s + r <= n_levels.
    """

    region: Region
    grid: SolverGrid
    u: np.ndarray
    p: np.ndarray
    q: np.ndarray
    report: PicardReport
    col_offset: int = 0


# --------------------------------------------------------------------------
# Grid construction and strip planning


def build_grid(spec: ProblemSpec, params: GridParams) -> SolverGrid:
    if not (params.x_lo < spec.x0 < params.x_hi):
        raise ConfigError(
            f"x0={spec.x0} must lie strictly inside the window "
            f"[{params.x_lo}, {params.x_hi}]"
        )
    dt_user = params.T / params.nt
    dx_user = spec.a * dt_user
    # snap the window outward onto columns of the x0-anchored grid
    n_left = max(1, math.ceil((spec.x0 - params.x_lo) / dx_user - 1e-9))
    n_right = max(1, math.ceil((params.x_hi - spec.x0) / dx_user - 1e-9))
    n_levels = 2 * params.nt
    dt = dt_user / 2.0
    dx = spec.a * dt
    # dependence margin of the window, and >= 3 columns beyond the
    # characteristic at every level for one-sided extrapolation
    reach = max(2 * n_left + n_levels + 1, 2 * n_levels + 3)
    reach2 = max(2 * n_right + n_levels + 1, 2 * n_levels + 3)
    return SolverGrid(
        a=spec.a,
        x0=spec.x0,
        T=params.T,
        nt=params.nt,
        dt_user=dt_user,
        dx_user=dx_user,
        n_left=n_left,
        n_right=n_right,
        x_lo=spec.x0 - n_left * dx_user,
        x_hi=spec.x0 + n_right * dx_user,
        n_levels=n_levels,
        dt=dt,
        dx=dx,
        j1_min=-reach,
        j2_max=reach2,
    )


def plan_strips(grid: SolverGrid, L: float, picard: PicardParams) -> tuple[tuple[int, int], ...]:
    """Partition the internal levels into bands on which Picard contracts.

    Band height h_s = STRIP_SAFETY / (L * (1 + 1/a + 1/(2a)) + eps); with
    L = 0 a single band covers everything.  Raises NonConvergence when even
    one internal step exceeds h_s (L so large no grid band can contract).
    ``picard`` is not read: the plan depends on the grid and L alone.
    """
    n = grid.n_levels
    if L <= 0.0:
        return ((0, n),)
    h_s = STRIP_SAFETY / (L * (1.0 + 1.0 / grid.a + 1.0 / (2.0 * grid.a)) + 1e-12)
    per = int(math.floor(h_s / grid.dt))
    if per < 1:
        raise NonConvergence(
            f"internal step dt={grid.dt:.3e} exceeds the contraction band "
            f"height {h_s:.3e} for Lipschitz constant {L}; refine the grid"
        )
    if per >= n:
        return ((0, n),)
    edges = list(range(0, n, per))
    edges.append(n)
    return tuple((edges[k], edges[k + 1]) for k in range(len(edges) - 1))


def estimate_lipschitz(spec: ProblemSpec, grid: SolverGrid) -> float:
    """Finite-difference bound for the Lipschitz constant of f in (u, ut, ux).

    Samples the gradient over a coarse lattice of the window's (t, x) range
    crossed with [-R, R]^3, R = 1 + 2*max initial-data magnitude, and takes
    1.5x the largest l1 gradient norm.  Returns 0 when f reads none of
    u, ut, ux.
    """
    if not spec.f_reads_state:
        return 0.0
    fv = ex.free_vars(spec.f)
    # data magnitude over the dependence-widened window
    lo = grid.x0 + grid.j1_min * grid.dx
    hi = grid.x0 + grid.j2_max * grid.dx
    xs_l = np.linspace(lo, grid.x0, 33)
    xs_r = np.linspace(grid.x0, hi, 33)
    m = 0.0
    for e, xs in ((spec.phi1, xs_l), (spec.psi1, xs_l), (spec.phi2, xs_r), (spec.psi2, xs_r)):
        vals = np.abs(np.asarray(ex.evaluate(e, {"x": xs})))
        m = max(m, float(vals.max()))
    R = 1.0 + 2.0 * m
    ts = np.linspace(0.0, grid.T, 5)
    xs = np.linspace(lo, hi, 9)
    us = np.linspace(-R, R, 5)
    tt, xx, uu, pp, qq = np.meshgrid(ts, xs, us, us, us, indexing="ij")
    env = {
        "t": tt.ravel(),
        "x": xx.ravel(),
        "u": uu.ravel(),
        "ut": pp.ravel(),
        "ux": qq.ravel(),
    }
    h = 1e-4 * max(1.0, R)
    total = np.zeros(env["t"].shape)
    for name in ("u", "ut", "ux"):
        if name not in fv:
            continue
        up = dict(env)
        dn = dict(env)
        up[name] = env[name] + h
        dn[name] = env[name] - h
        g = (np.asarray(ex.evaluate(spec.f, up)) - np.asarray(ex.evaluate(spec.f, dn))) / (2 * h)
        total = total + np.abs(g)
    return 1.5 * float(total.max())


def resolve_lipschitz(spec: ProblemSpec, grid: SolverGrid) -> float:
    if spec.lipschitz is not None:
        return spec.lipschitz
    return estimate_lipschitz(spec, grid)


# --------------------------------------------------------------------------
# The band kernel (shared by the solver and the single-sweep map)


def _grid_eval(e: ex.Expr, shape: tuple[int, ...], **env) -> np.ndarray:
    """Evaluate on broadcast arrays, always returning a full-shape array."""
    out = ex.evaluate(e, env)
    arr = np.asarray(out, dtype=float)
    if arr.shape == shape:
        return arr
    return np.broadcast_to(arr, shape)


def _cumtrapz_row(values: np.ndarray, h: float) -> np.ndarray:
    """Running composite trapezoid along the last axis, starting at 0."""
    pads = list(values.shape)
    pads[-1] = 1
    inner = h * 0.5 * (values[..., 1:] + values[..., :-1])
    return np.concatenate([np.zeros(pads), np.cumsum(inner, axis=-1)], axis=-1)


def _dal_parts(a: float, dt: float, b: int, nb: int, Ub, Pb, Qb):
    """Homogeneous-part rows for a band anchored at level b.

    Row m holds the value at level b+m of the representation built from the
    band's bottom samples (Ub, Pb, Qb) standing in for (phi, psi, phi').
    Columns outside the sector stay zero.
    """
    ncols = Ub.shape[0]
    dx = a * dt
    u_dal = np.zeros((nb + 1, ncols))
    p_dal = np.zeros((nb + 1, ncols))
    q_dal = np.zeros((nb + 1, ncols))
    CPb = _cumtrapz_row(Pb, dx)
    for m in range(1, nb + 1):
        s0 = b + m
        s1 = ncols - 1 - (b + m)
        if s0 > s1:
            continue
        tc = slice(s0, s1 + 1)
        tl = slice(s0 - m, s1 - m + 1)
        tr = slice(s0 + m, s1 + m + 1)
        u_dal[m, tc] = 0.5 * (Ub[tl] + Ub[tr]) + (CPb[tr] - CPb[tl]) / (2.0 * a)
        p_dal[m, tc] = 0.5 * a * (Qb[tr] - Qb[tl]) + 0.5 * (Pb[tl] + Pb[tr])
        q_dal[m, tc] = 0.5 * (Qb[tl] + Qb[tr]) + (Pb[tr] - Pb[tl]) / (2.0 * a)
    return u_dal, p_dal, q_dal


def _char_integrals(G: np.ndarray, dt: float, dx: float):
    """Ray and triangle trapezoid integrals of G over a band.

    Returns (I+, I-, D): I+ integrates along x - at = const, I- along
    x + at = const, D over the dependence triangle; all anchored at the
    band's bottom row (row 0 of G).
    """
    nb = G.shape[0] - 1
    Ip = np.zeros_like(G)
    Im = np.zeros_like(G)
    D = np.zeros_like(G)
    half = 0.5 * dt
    for m in range(1, nb + 1):
        Ip[m, 1:] = Ip[m - 1, :-1] + half * (G[m - 1, :-1] + G[m, 1:])
        Im[m, :-1] = Im[m - 1, 1:] + half * (G[m - 1, 1:] + G[m, :-1])
        row = dt * dx * (0.5 * G[m - 1, :-2] + G[m - 1, 1:-1] + 0.5 * G[m - 1, 2:])
        if m == 1:
            D[1, 1:-1] = 0.5 * row
        else:
            D[m, 1:-1] = D[m - 1, :-2] + D[m - 1, 2:] - D[m - 2, 1:-1] + row
    return Ip, Im, D


def _band_map(
    spec: ProblemSpec, grid: SolverGrid, x_cols: np.ndarray, b: int, e: int, Ub, Pb, Qb
):
    """The fixed-point map on band [b, e], anchored at its bottom samples.

    Returns ``sweep(state)``, one application of the map to the band rows
    ``state`` = (u, ut, ux): the integrand G = F - f(., ., u, ut, ux) is read
    from them, or is F alone when ``state`` is None (f dropped).  Row 0 of the
    result is the bottom row (Ub, Pb, Qb) itself.
    """
    a, dt = grid.a, grid.dt
    u_dal, p_dal, q_dal = _dal_parts(a, dt, b, e - b, Ub, Pb, Qb)
    shape = (e - b + 1, x_cols.shape[0])
    t2 = (dt * np.arange(b, e + 1))[:, None]
    x2 = x_cols[None, :]
    Fg = _grid_eval(spec.F, shape, t=t2, x=x2)

    def sweep(state):
        G = Fg
        if state is not None:
            u, ut, ux = state
            G = Fg - _grid_eval(spec.f, shape, t=t2, x=x2, u=u, ut=ut, ux=ux)
        Ip, Im, D = _char_integrals(G, dt, a * dt)
        Un = u_dal + D / (2.0 * a)
        Pn = p_dal + 0.5 * (Ip + Im)
        Qn = q_dal + (Im - Ip) / (2.0 * a)
        Un[0] = Ub
        Pn[0] = Pb
        Qn[0] = Qb
        return Un, Pn, Qn

    return sweep


def _picard(sweep, block, live, write, feeds_back: bool, picard: PicardParams, where: str):
    """Iterate ``sweep`` in place on ``block`` = (u, ut, ux) views of a band.

    The warm start is ``sweep(None)`` (the f term dropped); each sweep then
    writes the map applied to the block back onto its nodes ``write`` and
    stops once the largest update over the nodes ``live`` is at most
    ``picard.tol``.  Without (u, ut, ux) feedback one sweep past the warm
    start is exact whatever its update.  Returns the update norms, or raises
    NonConvergence naming ``where``.
    """
    for dst, src in zip(block, sweep(None)):
        dst[write] = src[write]
    norms: list[float] = []
    for _ in range(picard.max_iter):
        new = sweep(block)
        norms.append(
            max(float(np.max(np.abs(n[live] - c[live]), initial=0.0)) for n, c in zip(new, block))
        )
        for dst, src in zip(block, new):
            dst[write] = src[write]
        del new  # the next sweep allocates in its place
        if norms[-1] <= picard.tol:
            break
    if feeds_back and norms[-1] > picard.tol:
        raise NonConvergence(
            f"Picard iteration stalled on {where} after {len(norms)} sweeps "
            f"(last update {norms[-1]:.3e} > tol {picard.tol:.1e})",
            last_update=norms[-1],
        )
    return tuple(norms)


def _side_initial_rows(spec: ProblemSpec, side: int, x_cols: np.ndarray):
    phi = spec.phi(side)
    psi = spec.psi(side)
    dphi = ex.differentiate(phi, "x")
    shape = x_cols.shape
    u0 = np.array(_grid_eval(phi, shape, x=x_cols))
    p0 = np.array(_grid_eval(psi, shape, x=x_cols))
    q0 = np.array(_grid_eval(dphi, shape, x=x_cols))
    return u0, p0, q0


def solve_cauchy_region(
    spec: ProblemSpec,
    side: int,
    grid: SolverGrid,
    strips: Sequence[tuple[int, int]],
    picard: PicardParams,
) -> RegionField:
    """Solve the one-sided Cauchy problem on sector ``side`` (1 left, 2 right)
    by Picard iteration, marching the bands ``strips`` of :func:`plan_strips`."""
    if side not in (1, 2):
        raise ConfigError(f"side must be 1 or 2, got {side!r}")
    x_cols = grid.region_xcols(side)
    U = np.zeros((grid.n_levels + 1, x_cols.shape[0]))
    P = np.zeros_like(U)
    Q = np.zeros_like(U)
    U[0], P[0], Q[0] = _side_initial_rows(spec, side, x_cols)
    cols = np.arange(x_cols.shape[0])[None, :]
    all_norms = []
    for b, e in strips:
        sweep = _band_map(spec, grid, x_cols, b, e, U[b], P[b], Q[b])
        # every sweep writes the whole band: the next band's bottom-row prefix
        # sums read its nodes outside the sector too; only the sector counts
        # towards the stopping test
        levels = np.arange(b, e + 1)[:, None]
        live = (levels > b) & (cols >= levels) & (cols < x_cols.shape[0] - levels)
        block = (U[b : e + 1], P[b : e + 1], Q[b : e + 1])
        all_norms.append(
            _picard(sweep, block, live, ..., spec.f_reads_state, picard, f"band [{b}, {e}]")
        )
    for arr in (U, P, Q):
        arr.setflags(write=False)
    report = PicardReport(strips=tuple(strips), update_norms=tuple(all_norms))
    return RegionField(
        region=Region.Q1_STAR if side == 1 else Region.Q2_STAR,
        grid=grid,
        u=U,
        p=P,
        q=Q,
        report=report,
        col_offset=grid.j1_min if side == 1 else 0,
    )


def picard_step_cauchy(spec: ProblemSpec, iterate: RegionField) -> RegionField:
    """One sweep of the integral-representation map applied to ``iterate``.

    Every band re-anchors at the input's own bottom row and reads the
    integrand (u, ut, ux) from the input, so a converged field is a fixed
    point of this map up to the stopping tolerance.
    """
    grid = iterate.grid
    x_cols = grid.region_xcols(iterate.region.value)
    U = np.zeros_like(iterate.u)
    P = np.zeros_like(U)
    Q = np.zeros_like(U)
    U[0], P[0], Q[0] = iterate.u[0], iterate.p[0], iterate.q[0]
    for b, e in iterate.report.strips:
        rows = (iterate.u[b : e + 1], iterate.p[b : e + 1], iterate.q[b : e + 1])
        sweep = _band_map(spec, grid, x_cols, b, e, *(arr[0] for arr in rows))
        for dst, src in zip((U, P, Q), sweep(rows)):
            dst[b + 1 : e + 1] = src[1:]
    for arr in (U, P, Q):
        arr.setflags(write=False)
    return replace(iterate, u=U, p=P, q=Q)
