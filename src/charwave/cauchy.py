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

Storage: a side computes each level's whole sector, the domain of dependence
of the window, but stores only its kept run: the window widened by the
audit's residual stencil, joined to the characteristic and the offsets
beyond it that the wedge traces and the jump extrapolation read.  The runs
are packed contiguously, level after level.  The row buffers of a sweep (G,
the ray and triangle integrals, the new row) are full-width and few.  Every
sweep stores each row it forms, its kept run and, for the band's top row,
the sector that anchors the next band; the last sweep of a band leaves its
fixed point.

Memory: when f reads no state every band is swept once, and the sweep forms
each row's d'Alembert part and F as it reaches the row, in row buffers, so
a side solve holds little more than its kept array.  A band swept many
times also keeps its rows between the anchor and the top in one reused
buffer of sector rows, which f reads, and forms their d'Alembert parts and
F once, one array per row.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import ConfigError, DomainError, NonConvergence
from .geometry import Region, _as_float, _check_speed

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
            if not math.isfinite(_as_float(name, v)):
                raise ConfigError(f"{name} must be a finite real number, got {v!r}")
        if self.lipschitz is not None:
            L = _as_float("lipschitz", self.lipschitz)
            if not (math.isfinite(L) and L >= 0):
                raise ConfigError(f"lipschitz must be >= 0, got {self.lipschitz!r}")
        for name, allowed in _SLOT_VARS.items():
            value = getattr(self, name)
            if not isinstance(value, ex.Expr):
                kind = type(value).__name__
                raise ConfigError(
                    f"{name} must be a parsed expression (from_strings parses strings), got {kind}"
                )
            extra = ex.free_vars(value) - allowed
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
        """Parse the six expression slots; an expression error names its slot."""
        sources = dict(phi1=phi1, phi2=phi2, psi1=psi1, psi2=psi2, F=F, f=f)
        exprs = {}
        for name, src in sources.items():
            if not isinstance(src, str):
                kind = type(src).__name__
                raise ConfigError(f"{name} must be an expression string, got {kind}")
            exprs[name] = ex.parse_named(name, src, _SLOT_VARS[name])
        return cls(a=a, x0=x0, A=A, lipschitz=lipschitz, **exprs)

    @property
    def f_reads_state(self) -> bool:
        """Whether f reads u, ut or ux, i.e. the Picard map has feedback."""
        return bool(ex.free_vars(self.f) & {"u", "ut", "ux"})


@dataclass(frozen=True)
class GridParams:
    """Requested window and resolution; the solver snaps the window outward
    so x0 lands on a node and dx = a*dt holds exactly."""

    T: float
    x_lo: float
    x_hi: float
    nt: int

    def __post_init__(self):
        if not (math.isfinite(_as_float("T", self.T)) and self.T > 0):
            raise ConfigError(f"T must be positive, got {self.T!r}")
        if isinstance(self.nt, int) and abs(self.nt) > sys.float_info.max:
            # T / nt would overflow, and such an integer may be too long to print
            raise ConfigError("nt is outside the float range")
        if not (isinstance(self.nt, int) and self.nt >= 2):
            raise ConfigError(f"nt must be an integer >= 2, got {self.nt!r}")
        x_lo, x_hi = _as_float("x_lo", self.x_lo), _as_float("x_hi", self.x_hi)
        if not (math.isfinite(x_lo) and math.isfinite(x_hi) and self.x_lo < self.x_hi):
            raise ConfigError(f"window must satisfy x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")


# contraction target of the Picard map per strip, in (0, 1)
STRIP_SAFETY = 0.5


@dataclass(frozen=True)
class PicardParams:
    tol: float = 1e-10
    max_iter: int = 64

    def __post_init__(self):
        tol = _as_float("tol", self.tol)
        if not (tol > 0 and math.isfinite(tol)):
            raise ConfigError(f"tol must be a finite number > 0, got {self.tol!r}")
        n = self.max_iter
        if isinstance(n, bool) or not (isinstance(n, int) and n >= 1):
            raise ConfigError("max_iter must be an integer >= 1")


@dataclass(frozen=True)
class SolverGrid:
    """Concrete characteristic-aligned grid shared by all three region solves.

    User grid: nt steps of dt_user on [0, T], columns every dx_user = a*dt_user
    with x0 on a node.  Internal grid: everything halved (n_levels = 2*nt
    levels of dt = dt_user/2), which places the wedge lattice and all
    characteristic boundary points on nodes.

    Node convention: the internal node (level, offset) sits at
    (level*dt, x0 + offset*dx), for integers level in [0, n_levels] and
    offset from x0.  Side 1 spans the offsets [j1_min, 0], side 2 spans
    [0, j2_max]; both bounds include the dependence margin of the window
    plus three columns beyond the characteristics for one-sided jump
    extrapolation; a side's field keeps only part of them (``_runs``).  The
    wedge holds the nodes with |offset| <= level and offset = level
    (mod 2).  Every region's field stores its nodes level by level, and
    ``RegionField`` reads them by these coordinates.
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

    def user_times(self) -> np.ndarray:
        return self.dt_user * np.arange(self.nt + 1)

    def user_xs(self) -> np.ndarray:
        return self.x0 + self.dx_user * np.arange(-self.n_left, self.n_right + 1)

    @property
    def user_nodes(self) -> int:
        """The number of user-grid nodes, (nt + 1) * (n_left + n_right + 1)."""
        return (self.nt + 1) * (self.n_left + self.n_right + 1)

    def user_offsets(self) -> np.ndarray:
        """The internal offset of each user column: column j is offset 2j."""
        return 2 * np.arange(-self.n_left, self.n_right + 1)

    def region_xcols(self, side: int) -> np.ndarray:
        """x of a side's offsets, in increasing order."""
        if side == 1:
            return self.x0 + self.dx * (np.arange(1 - self.j1_min) + self.j1_min)
        return self.x0 + self.dx * np.arange(self.j2_max + 1)


@dataclass(frozen=True)
class PicardReport:
    """Per strip, the update of each ``sweep(True)`` run (the warm start is
    not counted), so ``iterations`` is the number of full sweeps per strip."""

    strips: tuple[tuple[int, int], ...]
    update_norms: tuple[tuple[float, ...], ...]

    @property
    def iterations(self) -> tuple[int, ...]:
        return tuple(len(norms) for norms in self.update_norms)


# the row and column steps to the corners of a 2x2 cell
_ROW = np.array([[0, 0], [1, 1]])
_COL = np.array([[0, 1], [0, 1]])


def _bilinear(cell: np.ndarray, f0: float, f1: float) -> np.ndarray:
    """Blend of the (3, 2, 2) ``cell`` at fractions f0 along its rows and f1
    along its columns."""
    return (
        cell[:, 0, 0] * (1 - f0) * (1 - f1)
        + cell[:, 1, 0] * f0 * (1 - f1)
        + cell[:, 0, 1] * (1 - f0) * f1
        + cell[:, 1, 1] * f0 * f1
    )


# A side keeps, past the window, the offsets that the audit's residual
# stencil reaches (verify._FD_STEPS user steps: 4 internal offsets), and
# beyond its characteristic the offsets that the one-sided jump extrapolation
# reads (assembly._jump_triple: 3)
_STENCIL = 4
_BEYOND = 3


def _runs(region: Region, grid: SolverGrid) -> tuple[np.ndarray, np.ndarray]:
    """The kept run of each row of a region, the columns [first, stop).

    In every region row i is level i.  The wedge keeps every node: row i
    holds the i + 1 nodes at offsets -i, -i + 2, ..., i as its columns 0..i.
    A side's columns are the side's offsets in increasing order; its run
    reaches from the characteristic (offset -i or i) out to _STENCIL offsets
    past the window's edge, or to _BEYOND offsets past the characteristic
    where that is farther, inside the level's sector of columns
    [i, cols - 1 - i].
    """
    rows = np.arange(grid.n_levels + 1)
    if region is Region.Q3_STAR:
        return np.zeros_like(rows), rows + 1
    if region is Region.Q1_STAR:
        cols, n = 1 - grid.j1_min, grid.n_left
    else:
        cols, n = grid.j2_max + 1, grid.n_right
    # the run's far end, as a distance |offset| from x0
    far = np.minimum(cols - 1 - rows, np.maximum(2 * n + _STENCIL, rows + _BEYOND))
    if region is Region.Q1_STAR:
        return cols - 1 - far, cols - rows
    return rows, far + 1


def _row_starts(region: Region, grid: SolverGrid) -> np.ndarray:
    """The row table of a region's packed storage: row k's kept run is
    ``w[:, starts[k]:starts[k + 1]]``."""
    first, stop = _runs(region, grid)
    return np.concatenate(([0], np.cumsum(stop - first)))


@dataclass(frozen=True)
class RegionField:
    """(u, u_t, u_x) at the nodes one region keeps of its solve, stacked in
    the read-only array ``w`` of shape (3, n_kept).  Outside the two region
    solves, only this class reads ``w`` by position: everyone else names
    nodes (level, offset) as in SolverGrid, through ``at``, ``at_level``,
    ``nodes`` and ``interpolate``.

    Storage: ``w`` holds each row's kept run (``_runs``) contiguously, row
    after row, as the row table ``_row_starts`` lays them out.  In every
    region row i is level i: its column 0 sits at the region's origin, the
    offset j1_min on side 1, 0 on side 2 and -i in the wedge, and its columns
    step by 1 offset on a side and by 2 in the wedge.  A side's solve
    computes the level's whole sector but keeps only the run read
    afterwards, the window and 4 offsets past it joined to the
    characteristic and the 3 offsets beyond it, so a characteristic that
    leaves the window keeps its strip.  The wedge keeps every node: row i
    holds the offsets -i, -i + 2, ..., i.

    ``u``, ``p`` and ``q`` are the rectangles around the rows, (level,
    column), built on each call and 0 off the stored nodes.  Nothing in the
    package reads them; ``benchmarks/spans.py`` reads their shapes.
    """

    region: Region
    grid: SolverGrid
    w: np.ndarray
    report: PicardReport

    def __post_init__(self):
        if self.w.shape != (3, self._starts[-1]):
            raise ValueError(
                f"region {self.region.value} stores {self._starts[-1]} nodes, "
                f"not an array of shape {self.w.shape}"
            )
        self.w.setflags(write=False)

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        return _runs(self.region, self.grid)

    @cached_property
    def _starts(self) -> np.ndarray:
        return _row_starts(self.region, self.grid)

    @property
    def _frame(self) -> tuple[int, int, int]:
        """(origin, slope, step): row i's column 0 is the offset
        origin + slope * i, and its columns step by ``step`` offsets."""
        if self.region is Region.Q3_STAR:
            return 0, -1, 2
        return self.grid.j1_min if self.region is Region.Q1_STAR else 0, 0, 1

    def at(self, level, offset) -> np.ndarray:
        """(u, u_t, u_x) at the integer nodes (level, offset), shape (3,)
        plus the broadcast shape of the arguments.  Raises IndexError,
        naming the region and the node, at a node it does not store."""
        return self.w[:, self._index(*np.broadcast_arrays(level, offset))]

    def at_level(self, level: int, offsets: range) -> np.ndarray:
        """(u, u_t, u_x) at the nodes (level, o) for o in ``offsets``, a range
        of increasing offsets, shape (3, len(offsets)): a strided view of the
        level's row.  Raises IndexError as ``at`` does."""
        if not offsets:
            return self.w[:, :0]
        # the ends and the second node, which a step off the row's columns
        # does not store; a range of one node may have any step
        index = self._index(level, np.array([*offsets[:2], offsets[-1]]))
        return self.w[:, index[0] : index[-1] + 1 : offsets.step // self._frame[2] or 1]

    def _index(self, level, offset) -> np.ndarray:
        """The position in ``w`` of each node (level, offset), in the
        broadcast shape of the integer arguments; raises IndexError at a node
        the region does not store."""
        first, stop = self._runs
        origin, slope, step = self._frame
        # the row of a level in range; a level out of range is refused
        row = np.clip(level, 0, self.grid.n_levels)
        col, off_column = np.divmod(offset - origin - slope * row, step)
        stored = (row == level) & (off_column == 0) & (col >= first[row]) & (col < stop[row])
        if not np.all(stored):
            level, offset, stored = np.broadcast_arrays(level, offset, stored)
            k = np.flatnonzero(~stored)[0]
            raise IndexError(
                f"region {self.region.value} stores no node "
                f"(level={level.flat[k]}, offset={offset.flat[k]})"
            )
        return self._starts[row] + col - first[row]

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(level, offset) of every stored node, as integer arrays in the
        order of ``w``: ``at(*nodes())`` equals ``w``."""
        starts = self._starts
        row = np.repeat(np.arange(starts.size - 1), np.diff(starts))
        col = np.arange(starts[-1]) - starts[row] + self._runs[0][row]
        origin, slope, step = self._frame
        return row, origin + slope * row + step * col

    def _rectangle(self, k: int) -> np.ndarray:
        """Plane k (0 u, 1 u_t, 2 u_x) on the rectangle around the rows, 0
        off the stored nodes."""
        first, stop = self._runs
        width = first.size  # the wedge's square
        if self.region is not Region.Q3_STAR:
            width = self.grid.region_xcols(self.region.value).size
        col = np.arange(width)
        out = np.zeros((first.size, width))
        out[(col >= first[:, None]) & (col < stop[:, None])] = self.w[k]
        return out

    @property
    def u(self) -> np.ndarray:
        return self._rectangle(0)

    @property
    def p(self) -> np.ndarray:
        return self._rectangle(1)

    @property
    def q(self) -> np.ndarray:
        return self._rectangle(2)

    def interpolate(self, t: float, x: float) -> np.ndarray:
        """(u, u_t, u_x) at a point of the region's closure, bilinear on the
        region's own nodes."""
        g = self.grid
        m = g.n_levels
        if self.region is Region.Q3_STAR:
            hc = 2.0 * g.a * g.dt
            d = x - g.x0
            # the same d -/+ a*t combinations the classifier tested, so s, r >= 0
            s_real = -(d - g.a * t) / hc
            r_real = (d + g.a * t) / hc
            s0 = min(int(math.floor(s_real)), m)
            r0 = min(int(math.floor(r_real)), m)
            fs = s_real - s0
            fr = r_real - r0
            # node (s, r) is at level s + r and offset r - s
            level, offset = s0 + r0, r0 - s0
            if s0 + r0 + 2 <= m:
                return _bilinear(self.at(level + _ROW + _COL, offset + _COL - _ROW), fs, fr)
            v00 = self.at(level, offset)
            if s0 + r0 + 1 <= m:
                # cell straddles the top boundary t = T: linear on three corners
                v10 = self.at(level + 1, offset - 1)
                v01 = self.at(level + 1, offset + 1)
                return v00 + fs * (v10 - v00) + fr * (v01 - v00)
            # s0 + r0 = n_levels forces fs = fr = 0 (query on the top corner)
            return v00
        i_real = t / g.dt
        c_real = (x - g.x0) / g.dx - self._frame[0]
        i0 = min(max(int(math.floor(i_real)), 0), m - 1)
        fi = i_real - i0
        # keep the 2x2 cell inside the kept runs of both rows i0 and i0+1;
        # the query may then sit one cell outside the clamped block
        # (extrapolating bilinear, still second order)
        first, stop = self._runs
        c_lo = int(max(first[i0], first[i0 + 1]))
        c_hi = int(min(stop[i0], stop[i0 + 1])) - 2
        c0 = min(max(int(math.floor(c_real)), c_lo), c_hi)
        fc = c_real - c0
        return _bilinear(self.at(i0 + _ROW, self._frame[0] + c0 + _COL), fi, fc)


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
    dt = dt_user / 2.0
    dx = spec.a * dt
    if not all(0.0 < h < math.inf for h in (dx_user, dt, dx)):
        raise ConfigError(f"grid steps dt={dt_user!r}, dx={dx_user!r} must be finite and > 0")
    spans = ((spec.x0 - params.x_lo) / dx_user, (params.x_hi - spec.x0) / dx_user)
    if not all(map(math.isfinite, spans)):
        raise ConfigError(f"the window holds too many columns of width dx={dx_user!r}")
    # snap the window outward onto columns of the x0-anchored grid
    n_left, n_right = (max(1, math.ceil(v - 1e-9)) for v in spans)
    n_levels = 2 * params.nt
    # dependence margin of the window, and >= 3 columns beyond the
    # characteristic at every level for one-sided extrapolation
    reach = max(2 * n_left + n_levels + 1, 2 * n_levels + 3)
    reach2 = max(2 * n_right + n_levels + 1, 2 * n_levels + 3)
    # bytes of (3, rows, cols) float arrays over the two sides' rectangles and
    # the wedge's (level, column) square: they bound both the stored fields
    # and the u/p/q rectangles a reader can still ask for; an exact integer
    # that may pass any float (hence Decimal below)
    rows = n_levels + 1
    need = 24 * rows * (reach + 1 + reach2 + 1 + rows)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ConfigError(
            f"the grid's region arrays need {Decimal(need) / 2**30:.3g} GiB, more than "
            f"the {memory / 2**30:.3g} GiB of physical memory; coarsen the grid"
        )
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
    edges = list(range(0, n, per))
    edges.append(n)
    return tuple((edges[k], edges[k + 1]) for k in range(len(edges) - 1))


# an overflow is silent here: it shows as a non-finite sample or estimate,
# which is raised as ConfigError
@np.errstate(over="ignore", invalid="ignore")
def estimate_lipschitz(spec: ProblemSpec, grid: SolverGrid) -> float:
    """Finite-difference bound for the Lipschitz constant of f in (u, ut, ux).

    Samples the gradient over a coarse lattice of the window's (t, x) range
    crossed with [-R, R]^3, R = 1 + 2*max initial-data magnitude, and takes
    1.5x the largest l1 gradient norm.  Returns 0 when f reads none of
    u, ut, ux.  Raises ConfigError, asking for a declared ``lipschitz``, when
    f is undefined somewhere on that sample or the estimate is not finite.
    """
    if not spec.f_reads_state:
        return 0.0
    # data magnitude over the dependence-widened window
    lo = grid.x0 + grid.j1_min * grid.dx
    hi = grid.x0 + grid.j2_max * grid.dx
    xs_l = np.linspace(lo, grid.x0, 33)
    xs_r = np.linspace(grid.x0, hi, 33)
    data = (("phi1", xs_l), ("psi1", xs_l), ("phi2", xs_r), ("psi2", xs_r))
    values = (ex.evaluate_named(slot, getattr(spec, slot), {"x": xs}) for slot, xs in data)
    m = max(0.0, *(float(np.abs(v).max()) for v in values))
    R = 1.0 + 2.0 * m
    us = np.linspace(-R, R, 5)
    # an open mesh: each evaluation broadcasts over the axes f reads alone
    axes = np.ix_(np.linspace(0.0, grid.T, 5), np.linspace(lo, hi, 9), us, us, us)
    env = dict(zip(("t", "x", "u", "ut", "ux"), axes))
    h = 1e-4 * max(1.0, R)
    total = 0.0
    for name in ("u", "ut", "ux"):
        if name not in ex.free_vars(spec.f):
            continue
        try:
            up = ex.evaluate(spec.f, {**env, name: env[name] + h})
            dn = ex.evaluate(spec.f, {**env, name: env[name] - h})
        except DomainError as err:
            raise ConfigError(
                f"cannot estimate the Lipschitz constant of f ({err} for some "
                f"u, ut, ux in [{-R:.6g}, {R:.6g}]); declare lipschitz in the problem"
            ) from err
        total = total + np.abs((up - dn) / (2 * h))
    L = 1.5 * float(np.max(total))
    if not math.isfinite(L):
        raise ConfigError(
            f"cannot estimate the Lipschitz constant of f (the sample gives {L} for "
            f"u, ut, ux in [{-R:.6g}, {R:.6g}]); declare lipschitz in the problem"
        )
    return L


def resolve_lipschitz(spec: ProblemSpec, grid: SolverGrid) -> float:
    if spec.lipschitz is not None:
        return spec.lipschitz
    return estimate_lipschitz(spec, grid)


# --------------------------------------------------------------------------
# The band kernel


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


def _dal_rows(a: float, dt: float, Wb: np.ndarray):
    """Homogeneous part of a band, one row at a time.

    Returns ``row(m, out)``, which writes into ``out`` (3, k - 2m) row m's
    sector of the representation built from the bottom row's k sector
    samples Wb = (u, u_t, u_x), standing in for (phi, psi, phi'), and
    returns ``out``; the psi prefix starts at the sector's first node.
    """
    Ub, Pb, Qb = Wb
    k = Ub.shape[0]
    CPb = _cumtrapz_row(Pb, a * dt)

    def row(m: int, out: np.ndarray) -> np.ndarray:
        tl = slice(0, k - 2 * m)
        tr = slice(2 * m, k)
        out[0] = 0.5 * (Ub[tl] + Ub[tr]) + (CPb[tr] - CPb[tl]) / (2.0 * a)
        out[1] = 0.5 * a * (Qb[tr] - Qb[tl]) + 0.5 * (Pb[tl] + Pb[tr])
        out[2] = 0.5 * (Qb[tl] + Qb[tr]) + (Pb[tr] - Pb[tl]) / (2.0 * a)
        return out

    return row


def _band_map(spec: ProblemSpec, grid: SolverGrid, x_cols: np.ndarray, b: int, rows, kept):
    """The fixed-point map on the band of levels b..b+nb.  Row m of ``rows``
    is the (3, k) stacked (u, u_t, u_x) of level b+m's sector, the columns
    [b+m, ncols-1-b-m] of ``x_cols``, or None where the band holds no such
    row; the band is anchored at its bottom row ``rows[0]``, and its top row
    ``rows[nb]`` is the next band's anchor.  ``kept[m]`` is (dest, run):
    level b+m's kept run, the columns ``run``, is stored in the array
    ``dest``.

    Returns ``sweep(feedback)``, one application of the map on the rows
    1..nb: the recurrences for row m read rows m-1 and m-2 on their own
    sectors.  Row m's integrand G = F - f(., ., u, ut, ux) is read from
    ``rows[m]`` before that row is written (F alone when ``feedback`` is
    False), then the row is formed from its d'Alembert part and the running
    I+, I- and D.  The sweep returns the largest update over the sectors.

    One rule stores every row the sweep forms: its update is taken over its
    sector, against ``rows[m]`` when f reads state and against 0 otherwise,
    its kept run is written to ``dest``, and its sector to ``rows[m]``
    where the band holds one.  When f reads state the band is swept many
    times, ``rows`` holds every row, and the d'Alembert rows and F are
    formed once, one array per row.  Otherwise the band is swept once, only
    the top row is held, and each row's d'Alembert part and F are formed
    into row buffers as the sweep reaches the row.
    """
    a, dt = grid.a, grid.dt
    nb = len(rows) - 1
    ncols = x_cols.shape[0]
    dal = _dal_rows(a, dt, rows[0])
    # row m's sector c and its shifts l = c - 1, r = c + 1, in the columns
    # of the full-width row buffers
    spans = [(b + m, ncols - b - m) for m in range(nb + 1)]
    cols = [(slice(lo - 1, hi - 1), slice(lo, hi), slice(lo + 1, hi + 1)) for lo, hi in spans]
    ts = dt * np.arange(b, b + nb + 1)

    def forcing(m: int):
        return ex.evaluate_named("F", spec.F, {"t": ts[m], "x": x_cols[cols[m][1]]})

    iterated = spec.f_reads_state
    if iterated:
        # swept many times: form each row's d'Alembert part and F once
        planes = [dal(m, np.empty_like(row)) for m, row in enumerate(rows) if m]
        Fg = [forcing(m) for m in range(nb + 1)]
        dal = lambda m, out: planes[m - 1]
        forcing = lambda m: Fg[m]
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
        c = cols[m][1]
        g = G[m % 2]
        if not feedback:
            g[c] = forcing(m)
            return g
        env = {"t": ts[m], "x": x_cols[c]}
        if iterated:
            env.update(zip(("u", "ut", "ux"), rows[m]))
        np.subtract(forcing(m), ex.evaluate_named("f", spec.f, env), out=g[c])
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
            base = dal(m, new[:, c])
            np.add(base[0], d[c] / two_a, out=new[0, c])
            np.add(base[1], 0.5 * (ip[c] + im[c]), out=new[1, c])
            np.add(base[2], (im[c] - ip[c]) / two_a, out=new[2, c])
            sector = new[:, c]
            upd[m] = abs(sector - rows[m] if iterated else sector).max(initial=0.0)
            dest, run = kept[m]
            dest[...] = new[:, run]
            if rows[m] is not None:
                rows[m][...] = sector
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
    naming ``where``, also at the first sweep (warm start included) whose
    update is not finite: the field has left the floating-point range.
    """

    def run(feedback: bool) -> float:
        norm = sweep(feedback)
        if not math.isfinite(norm):
            raise NonConvergence(
                f"Picard iteration on {where} left the floating-point range "
                f"(update {norm})",
                last_update=norm,
            )
        return norm

    if not feeds_back:
        return (run(True),)
    run(False)
    norms: list[float] = []
    for _ in range(picard.max_iter):
        norms.append(run(True))
        if norms[-1] <= picard.tol:
            break
    if norms[-1] > picard.tol:
        raise NonConvergence(
            f"Picard iteration stalled on {where} after {len(norms)} sweeps "
            f"(last update {norms[-1]:.3e} > tol {picard.tol:.1e})",
            last_update=norms[-1],
        )
    return tuple(norms)


# an overflow is silent here: it shows as a non-finite update, which _picard
# turns into NonConvergence
@np.errstate(over="ignore", invalid="ignore")
def solve_cauchy_region(
    spec: ProblemSpec,
    side: int,
    grid: SolverGrid,
    strips: Sequence[tuple[int, int]],
    picard: PicardParams,
    out: np.ndarray | None = None,
) -> RegionField:
    """Solve the one-sided Cauchy problem on sector ``side`` (1 left, 2 right)
    by Picard iteration, marching the bands ``strips`` of :func:`plan_strips`.

    Each band's sweep stores the kept runs of the rows it forms and the
    sector of its top row, the next band's anchor, in one of two full-width
    anchor rows; when f reads state, the rows between a band's anchor and
    its top live in one band buffer that every band reuses.  ``out``, if
    given, is a zeroed float64 array of the field's shape,
    (3, ``_row_starts(region, grid)[-1]``), that the field is solved into."""
    if side not in (1, 2):
        raise ConfigError(f"side must be 1 or 2, got {side!r}")
    region = Region.Q1_STAR if side == 1 else Region.Q2_STAR
    x_cols = grid.region_xcols(side)
    ncols = x_cols.shape[0]
    first, stop = _runs(region, grid)
    starts = _row_starts(region, grid)
    W = np.zeros((3, starts[-1])) if out is None else out
    # level i's kept run: the columns first[i]:stop[i], stored in W
    kept = [(W[:, lo:hi], slice(c, e)) for lo, hi, c, e in zip(starts, starts[1:], first, stop)]
    # the bands' anchors, each level b's sector in the columns [b, ncols-1-b]
    # of a full-width row: two, as a band writes the next band's anchor
    anchors = np.empty((2, 3, ncols))
    phi, psi = f"phi{side}", f"psi{side}"
    data = {phi: getattr(spec, phi), psi: getattr(spec, psi)}
    data[phi + "'"] = ex.differentiate(data[phi], "x")
    for k, (name, e) in enumerate(data.items()):
        anchors[0, k] = ex.evaluate_named(name, e, {"x": x_cols})
    dest, run = kept[0]
    dest[...] = anchors[0][:, run]
    iterated = spec.f_reads_state
    # the lengths of each band's sector rows between its anchor and its top
    lengths = [ncols - 2 * np.arange(b + 1, e) for b, e in strips]
    if iterated:
        band = np.empty((3, max(n.sum() for n in lengths)))  # the band buffer
    all_norms = []
    for k, (b, e) in enumerate(strips):
        rows = [anchors[k % 2][:, b : ncols - b]]
        top = anchors[(k + 1) % 2][:, e : ncols - e]  # the next band's anchor
        if iterated:
            ends = np.cumsum([0, *lengths[k]])
            band[:, : ends[-1]] = top[...] = 0.0
            rows += [band[:, lo:hi] for lo, hi in zip(ends, ends[1:])]
        else:
            rows += [None] * (e - b - 1)
        sweep = _band_map(spec, grid, x_cols, b, [*rows, top], kept[b : e + 1])
        all_norms.append(_picard(sweep, iterated, picard, f"band [{b}, {e}]"))
        del sweep  # and its band-size planes, before the next band forms its own
    report = PicardReport(strips=tuple(strips), update_norms=tuple(all_norms))
    return RegionField(region=region, grid=grid, w=W, report=report)
