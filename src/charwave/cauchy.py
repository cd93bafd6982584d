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
of (phi, psi, phi').  A sweep forms, and evaluates F and f, only on each
row's sector, and reads a row's G before writing the row (Jacobi order).
With L = 0 there is a single band and the first sweep is already exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import ConfigError, DomainError, NonConvergence
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
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError(f"tol must be a finite number > 0, got {self.tol!r}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ConfigError("max_iter must be an integer >= 1")


@dataclass(frozen=True)
class SolverGrid:
    """Concrete characteristic-aligned grid shared by all three region solves.

    User grid: nt steps of dt_user on [0, T], columns every dx_user = a*dt_user
    with x0 on a node.  Internal grid: everything halved (n_levels = 2*nt
    levels of dt = dt_user/2), which places the wedge lattice and all
    characteristic boundary points on nodes.

    Column convention: internal columns are offsets j from x0, so the node
    (level i, offset j) sits at (i*dt, x0 + j*dx).  Side 1 spans j in
    [j1_min, 0], side 2 spans j in [0, j2_max]; both bounds include the
    dependence margin of the window plus three columns beyond the
    characteristics for one-sided jump extrapolation.
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
    """Per strip, the update of each ``sweep(True)`` run (the warm start is
    not counted), so ``iterations`` is the number of full sweeps per strip."""

    strips: tuple[tuple[int, int], ...]
    update_norms: tuple[tuple[float, ...], ...]

    @property
    def iterations(self) -> tuple[int, ...]:
        return tuple(len(norms) for norms in self.update_norms)


@dataclass(frozen=True)
class RegionField:
    """(u, u_t, u_x) samples over one region's closure, stacked in the
    read-only array ``w`` of shape (3, rows, cols); ``u``, ``p`` and ``q`` are
    its planes.

    Side regions are indexed (level i, column c) with n_levels + 1 rows.
    Side 1 column c holds offset j = c + j1_min (``col_offset``), side 2
    column c holds j = c (see SolverGrid).  The domain of dependence shaves
    one column per level at each end, so only the sector [i, ncols - 1 - i]
    of level i holds solution values.

    The wedge region is indexed (s, r), node (s, r) at t = (s + r)*dt,
    x = x0 + (r - s)*dx, and holds the solution where s + r <= n_levels.

    ``live`` marks the nodes that hold the solution; every other node is 0,
    and neither the solvers nor the readers of a field read it.
    """

    region: Region
    grid: SolverGrid
    w: np.ndarray
    report: PicardReport
    col_offset: int = 0

    def __post_init__(self):
        self.w.setflags(write=False)

    @property
    def u(self) -> np.ndarray:
        return self.w[0]

    @property
    def p(self) -> np.ndarray:
        return self.w[1]

    @property
    def q(self) -> np.ndarray:
        return self.w[2]

    @property
    def live(self) -> np.ndarray:
        rows, cols = self.w.shape[1:]
        live = np.zeros((rows, cols), dtype=bool)
        for i in range(rows):
            if self.region is Region.Q3_STAR:
                live[i, : rows - i] = True
            else:
                live[i, i : cols - i] = True
        return live


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
    u, ut, ux.  Raises ConfigError, asking for a declared ``lipschitz``, when
    f is undefined somewhere on that sample.
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
        try:
            g = (np.asarray(ex.evaluate(spec.f, up)) - np.asarray(ex.evaluate(spec.f, dn))) / (2 * h)
        except DomainError as err:
            raise ConfigError(
                f"cannot estimate the Lipschitz constant of f ({err} for some "
                f"u, ut, ux in [{-R:.6g}, {R:.6g}]); declare lipschitz in the problem"
            ) from err
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


def _cumtrapz_row(values: np.ndarray, h: float, start=None, skip=None) -> np.ndarray:
    """Running composite trapezoid along the last axis: entry k adds the
    increment h*0.5*(values[..., k] + values[..., k-1]) to entry k-1.

    Entry 0 is ``start``, taken from an earlier result to resume from, or
    an empty prefix.  ``skip`` marks the entries 1.. that take no increment:
    each starts an empty prefix (or lies outside the domain) and reads 0.
    The sums run sequentially (``np.add.accumulate``), so a prefix resumed
    from a stored entry reproduces the bits of one taken in a single pass.
    An empty prefix runs as -0.0, the exact additive identity, so the entry
    after it equals its increment bit for bit, as in a fresh cumsum; a
    ``start`` must hold -0.0 where its prefix is empty.
    """
    out = np.empty_like(values)
    out[..., 0] = -0.0 if start is None else start
    np.add(values[..., 1:], values[..., :-1], out=out[..., 1:])
    out[..., 1:] *= h * 0.5
    if skip is not None:
        np.copyto(out[..., 1:], -0.0, where=skip)
    np.add.accumulate(out, axis=-1, out=out)
    if start is None:
        out[..., 0] = 0.0
    if skip is not None:
        np.copyto(out[..., 1:], 0.0, where=skip)
    return out


def _dal_parts(a: float, dt: float, b: int, nb: int, Wb: np.ndarray) -> np.ndarray:
    """Homogeneous-part rows for a band anchored at level b.

    Row m of each plane holds, on its sector, the value at level b+m of the
    representation built from the bottom sector's samples Wb = (u, u_t, u_x)
    standing in for (phi, psi, phi'); the psi prefix starts at column b.
    """
    Ub, Pb, Qb = Wb
    ncols = Ub.shape[0]
    dal = np.zeros((3, nb + 1, ncols))
    u_dal, p_dal, q_dal = dal
    CPb = np.zeros(ncols)
    CPb[b : ncols - b] = _cumtrapz_row(Pb[b : ncols - b], a * dt)
    for m in range(1, nb + 1):
        tc = slice(b + m, ncols - b - m)
        tl = slice(b, ncols - b - 2 * m)
        tr = slice(b + 2 * m, ncols - b)
        u_dal[m, tc] = 0.5 * (Ub[tl] + Ub[tr]) + (CPb[tr] - CPb[tl]) / (2.0 * a)
        p_dal[m, tc] = 0.5 * a * (Qb[tr] - Qb[tl]) + 0.5 * (Pb[tl] + Pb[tr])
        q_dal[m, tc] = 0.5 * (Qb[tl] + Qb[tr]) + (Pb[tr] - Pb[tl]) / (2.0 * a)
    return dal


def _band_map(spec: ProblemSpec, grid: SolverGrid, x_cols: np.ndarray, b: int, block):
    """The fixed-point map on the band whose rows at levels b..b+nb are
    ``block``, a (3, nb+1, cols) view of a region's stacked (u, u_t, u_x),
    anchored at its bottom row ``block[:, 0]``.

    Returns ``sweep(feedback)``, one application of the map in place on
    ``block``, on each row's sector [b+m, ncols-1-b-m] only: the recurrences
    for row m read rows m-1 and m-2 on their own sectors.  Row m's integrand
    G = F - f(., ., u, ut, ux) is read from the block's row m before that row
    is written (F alone when ``feedback`` is False), then the row is formed
    from the running I+, I- and D.  The sweep returns the largest update.
    """
    a, dt = grid.a, grid.dt
    nb = block.shape[1] - 1
    ncols = x_cols.shape[0]
    u_dal, p_dal, q_dal = _dal_parts(a, dt, b, nb, block[:, 0])
    # row m's sector c and its shifts l = c - 1, r = c + 1
    spans = [(b + m, ncols - b - m) for m in range(nb + 1)]
    cols = [(slice(lo - 1, hi - 1), slice(lo, hi), slice(lo + 1, hi + 1)) for lo, hi in spans]
    ts = dt * np.arange(b, b + nb + 1)
    Fg = np.zeros((nb + 1, ncols))
    for m, (_, c, _) in enumerate(cols):
        Fg[m, c] = ex.evaluate(spec.F, {"t": ts[m], "x": x_cols[c]})
    half, area, two_a = 0.5 * dt, dt * (a * dt), 2.0 * a
    # G and the running ray integrals keep rows m-1 and m, the triangle
    # integral rows m-2..m; upd[m] is row m's largest update
    G = np.zeros((2, ncols))
    Ip = np.zeros((2, ncols))
    Im = np.zeros((2, ncols))
    D = np.zeros((3, ncols))
    new = np.empty((3, ncols))
    upd = np.zeros(nb + 1)

    def integrand(m: int, feedback: bool) -> np.ndarray:
        if not feedback:
            return Fg[m]
        c = cols[m][1]
        u, ut, ux = block[:, m, c]
        env = {"t": ts[m], "x": x_cols[c], "u": u, "ut": ut, "ux": ux}
        g = G[m % 2]
        np.subtract(Fg[m, c], ex.evaluate(spec.f, env), out=g[c])
        return g

    def sweep(feedback: bool) -> float:
        Ip[0] = Im[0] = D[0] = 0.0
        g1 = integrand(0, feedback)
        for m in range(1, nb + 1):
            g0, g1 = g1, integrand(m, feedback)
            l, c, r = cols[m]
            ip, im, d, d1 = Ip[m % 2], Im[m % 2], D[m % 3], D[(m - 1) % 3]
            np.add(Ip[(m - 1) % 2, l], half * (g0[l] + g1[c]), out=ip[c])
            np.add(Im[(m - 1) % 2, r], half * (g0[r] + g1[c]), out=im[c])
            row = area * (0.5 * g0[l] + g0[c] + 0.5 * g0[r])
            if m == 1:
                np.multiply(0.5, row, out=d[c])
            else:
                np.add(d1[l] + d1[r] - D[(m - 2) % 3, c], row, out=d[c])
            np.add(u_dal[m, c], d[c] / two_a, out=new[0, c])
            np.add(p_dal[m, c], 0.5 * (ip[c] + im[c]), out=new[1, c])
            np.add(q_dal[m, c], (im[c] - ip[c]) / two_a, out=new[2, c])
            upd[m] = abs(new[:, c] - block[:, m, c]).max(initial=0.0)
            block[:, m, c] = new[:, c]
        return float(upd.max())

    return sweep


def _picard(sweep, feeds_back: bool, picard: PicardParams, where: str):
    """Iterate the in-place ``sweep`` of a band kernel to its fixed point.

    Without (u, ut, ux) feedback (``feeds_back`` False) the integrand does
    not depend on the iterate, so one ``sweep(True)`` is the fixed point
    whatever its update.  Otherwise the warm start is ``sweep(False)`` (the
    f term dropped), then ``sweep(True)`` repeats until the update it returns
    is at most ``picard.tol``.  Returns the updates of the ``sweep(True)``
    runs, one each (the warm start's is not one), or raises NonConvergence
    naming ``where``.
    """
    if not feeds_back:
        return (sweep(True),)
    sweep(False)
    norms: list[float] = []
    for _ in range(picard.max_iter):
        norms.append(sweep(True))
        if norms[-1] <= picard.tol:
            break
    if norms[-1] > picard.tol:
        raise NonConvergence(
            f"Picard iteration stalled on {where} after {len(norms)} sweeps "
            f"(last update {norms[-1]:.3e} > tol {picard.tol:.1e})",
            last_update=norms[-1],
        )
    return tuple(norms)


def _side_initial_rows(spec: ProblemSpec, side: int, x_cols: np.ndarray):
    """(phi, psi, phi') of ``side`` on the columns ``x_cols``."""
    phi = spec.phi(side)
    data = (phi, spec.psi(side), ex.differentiate(phi, "x"))
    return [_grid_eval(e, x_cols.shape, x=x_cols) for e in data]


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
    region = Region.Q1_STAR if side == 1 else Region.Q2_STAR
    x_cols = grid.region_xcols(side)
    W = np.zeros((3, grid.n_levels + 1, x_cols.shape[0]))
    W[:, 0] = _side_initial_rows(spec, side, x_cols)
    all_norms = [
        _picard(
            _band_map(spec, grid, x_cols, b, W[:, b : e + 1]),
            spec.f_reads_state, picard, f"band [{b}, {e}]",
        )
        for b, e in strips
    ]
    report = PicardReport(strips=tuple(strips), update_norms=tuple(all_norms))
    return RegionField(
        region=region,
        grid=grid,
        w=W,
        report=report,
        col_offset=grid.j1_min if side == 1 else 0,
    )


def picard_step_cauchy(spec: ProblemSpec, iterate: RegionField) -> RegionField:
    """One sweep of the integral-representation map applied to ``iterate``.

    Every band re-anchors at the input's own bottom row and reads the
    integrand (u, ut, ux) from the input, so a converged field is a fixed
    point of this map up to the stopping tolerance.  The bands are swept
    top-down on a copy, so each reads its rows before the band below it
    overwrites their bottom row.
    """
    grid = iterate.grid
    x_cols = grid.region_xcols(iterate.region.value)
    W = iterate.w.copy()
    for b, e in reversed(iterate.report.strips):
        _band_map(spec, grid, x_cols, b, W[:, b : e + 1])(True)
    return replace(iterate, w=W)
