"""Independent correctness machinery.

Nothing here feeds back into the solver: the linear oracle evaluates the
assembled closed-form representation by direct quadrature (valid when the
lower-order term f is absent), the residual check takes second differences of
the solved nodes and substitutes them into the equation, and the audit walks
the defining conditions of the piecewise-classical solution:

  (i)   u(0, x) = phi(x) at the initial nodes, including u(0, x0) = A;
  (ii)  u_t(0, x) = psi(x) at the initial nodes except x0;
  (iii) the equation holds at interior user nodes of each region, by central
        differences whose stencils lie on that region's own nodes;
  (iv)  the wedge boundary values reproduce the characteristic traces;
  (v)   the jumps across both characteristics are the prescribed constants.

Derivative jumps across the characteristics are reported for information but
not asserted; constancy is only claimed for u itself.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import _fork
from . import expr as ex
from .assembly import Solution, _jump_triple, evaluate, sample_user_grid
from .cauchy import GridParams, PicardParams, ProblemSpec, RegionField, build_grid
from .errors import ConfigError, DomainError, NotLinear
from .geometry import Region, classify_nodes, classify_point
from .goursat import goursat_traces

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_definition1",
    "inject_fault",
    "linear_oracle",
    "probe_points",
    "ConvergenceEntry",
    "ConvergenceStudy",
    "convergence_study",
]


# --------------------------------------------------------------------------
# Reports and tolerances


# Audit tolerances: the initial-data one is absolute, the others are these
# coefficients times h^2 (h = dt_user) times the field or right-hand-side
# magnitude.  The residual's finite-difference step is _FD_STEPS * dt_user,
# taken at the user nodes on the user levels nearest _RESIDUAL_FRACS * T.
_INITIAL_TOL = 1e-9
_GOURSAT_COEFF = 20.0
_JUMP_COEFF = 20.0
_RESIDUAL_COEFF = 50.0
_FD_STEPS = 2.0
_RESIDUAL_FRACS = (0.3, 0.5, 0.7, 0.85)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    info: tuple[tuple[str, float], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """``passed``, then the fields in their order, ``info`` as an object."""
        return {"passed": self.passed, **asdict(self), "info": dict(self.info)}


# --------------------------------------------------------------------------
# Probe sets


def probe_points(
    a: float, x0: float, T: float, x_lo: float, x_hi: float, collar: float
) -> tuple[tuple[float, float], ...]:
    """Deterministic probe lattice, 13 abscissae at 4 times, keeping
    ``collar`` clear of the characteristics through (0, x0) and of the window
    edges; empty when the collar leaves no room in the window."""
    out = []
    lo, hi = x_lo + collar, x_hi - collar
    xs = np.linspace(lo, hi, 13) if lo <= hi else ()
    for frac in (0.2, 0.45, 0.7, 0.95):
        t = frac * T
        for x in xs:
            d = x - x0
            if abs(d + a * t) < collar or abs(d - a * t) < collar:
                continue
            out.append((float(t), float(x)))
    return tuple(out)


# --------------------------------------------------------------------------
# Definition audit


def _field_scale(sol: Solution) -> float:
    """max(1, max |u|) over the stored nodes of the three fields.

    A side stores only each level's kept run, the window with the residual
    stencil and the characteristic's strip, so the scale reads none of the
    dependence margin that the side solve computes and no check reads.  This
    tightens the goursat_traces and jump_constancy tolerances it sets: over
    the margin the scale was 1.79x larger on phi_sq, 1.59x on refine_study
    (nt 128), 1.37x on phi_kink_continuous and 1.29x on linear_export.
    Each u plane's largest and least entries give max |u| with no |u|
    temporary; a NaN anywhere gives NaN.
    """
    planes = [u for u, _, _ in (f.w for f in (sol.field1, sol.field2, sol.field3))]
    return _largest(1.0, *(u.max() for u in planes), *(-u.min() for u in planes))


def _second_difference(minus, mid, plus, step: float):
    """(plus - 2 mid + minus) / step^2, dividing twice so that a tiny step
    does not square to a zero divisor."""
    return (plus - 2.0 * mid + minus) / step / step


# an overflow is silent here: it shows as a residual that is not finite, which
# check_definition1 raises as DomainError
@np.errstate(over="ignore", invalid="ignore")
def _residuals(sol: Solution) -> tuple[float, int, float]:
    """The largest |u_tt - a^2 u_xx + f - F| over the residual nodes, their
    number, and max(1, |f|, |F|) over them.

    The residual nodes are the user nodes, on the user levels nearest
    _RESIDUAL_FRACS * T, whose five-point stencil of k = 2 * _FD_STEPS
    internal steps in level and in offset lies on their region's live nodes.
    The steps are h_fd in t and a * h_fd in x, so a d'Alembert part of the
    field cancels exactly in the differences.
    """
    g, spec = sol.grid, sol.spec
    k = int(2 * _FD_STEPS)
    levels = 2 * np.unique(np.rint(np.multiply(_RESIDUAL_FRACS, g.nt)).astype(int))
    levels = levels[(levels >= k) & (levels <= g.n_levels - k)]
    offsets = g.user_offsets()
    level, offset = levels[:, None], offsets[None, :]
    residuals, rhs, count = [0.0], [1.0], 0
    for field, inside in (
        (sol.field1, offset <= -level - k),
        (sol.field2, offset >= level + k),
        (sol.field3, np.abs(offset) <= level - k),
    ):
        rows, cols = np.nonzero(inside)
        if not rows.size:
            continue
        lv, off = levels[rows], offsets[cols]
        u, p, q = field.at(lv, off)
        u_tt = _second_difference(field.at(lv - k, off)[0], u, field.at(lv + k, off)[0], k * g.dt)
        u_xx = _second_difference(field.at(lv, off - k)[0], u, field.at(lv, off + k)[0], k * g.dx)
        t, x = lv * g.dt, g.x0 + off * g.dx
        f = ex.evaluate_named("f", spec.f, {"t": t, "x": x, "u": u, "ut": p, "ux": q})
        F = ex.evaluate_named("F", spec.F, {"t": t, "x": x})
        residuals.append(np.abs(u_tt - g.a * g.a * u_xx + f - F))
        rhs += [np.abs(f), np.abs(F)]
        count += lv.size
    return _largest(*residuals), count, _largest(*rhs)


def _tolerances(sol: Solution):
    """The largest residual, the number of residual nodes, and each check's
    tolerance.  Raises ConfigError when no residual node fits (nt < 4) and
    DomainError when a tolerance is not finite."""
    g = sol.grid
    h = g.dt_user
    h_fd = _FD_STEPS * h
    residual, count, rhs = _residuals(sol)
    if not count:
        raise ConfigError(
            f"the residual audit needs nt >= {2 * _FD_STEPS:g}, got nt={g.nt}; refine the grid"
        )
    scale = _field_scale(sol)
    # the residual tolerance scales with the right-hand sides, not the field,
    # so an injected field error cannot inflate its own tolerance
    tolerances = {
        "initial_u": _INITIAL_TOL,
        "initial_ut": _INITIAL_TOL,
        "pde_residual": _RESIDUAL_COEFF * (h * h + h_fd * h_fd) * rhs,
        "goursat_traces": _GOURSAT_COEFF * h * h * scale,
        "jump_constancy": _JUMP_COEFF * h * h * scale,
    }
    for name, tol in tolerances.items():
        if not math.isfinite(tol):
            raise DomainError(f"the {name} tolerance is {tol}; the field is too large to audit")
    return residual, count, tolerances


def _initial_errors(sol: Solution) -> tuple[float, float]:
    """Largest |u(0,x) - phi(x)| and |u_t(0,x) - psi(x)| over the user nodes,
    with |u(0,x0) - A| at the vertex; each data expression is evaluated once
    on its side's nodes."""
    spec = sol.spec
    _, xs, region, u, p, _ = sample_user_grid(sol, 0)
    err_u, err_p = np.abs(u[region == 3] - spec.A), 0.0
    for code in (1, 2):
        on_side = region == code
        env = {"x": xs[on_side]}
        phi, psi = f"phi{code}", f"psi{code}"
        err_u = _largest(err_u, np.abs(u[on_side] - ex.evaluate_named(phi, getattr(spec, phi), env)))
        err_p = _largest(err_p, np.abs(p[on_side] - ex.evaluate_named(psi, getattr(spec, psi), env)))
    return err_u, err_p


def _largest(*values) -> float:
    """The largest entry of ``values`` (numbers or arrays), NaN if any is NaN;
    the builtin ``max`` drops a NaN that is not its first argument."""
    return float(np.max([np.max(v) for v in values]))


# an overflow is silent here: it shows as a measurement that is not finite,
# which is raised as DomainError below
@np.errstate(over="ignore", invalid="ignore")
def check_definition1(sol: Solution) -> VerificationReport:
    """Audit the five defining conditions of the solved field.  Raises
    DomainError when a measurement is not finite: a field that close to the
    floating-point limit cannot be audited."""
    residual, count, tol = _tolerances(sol)
    # (i) u(0, .) = phi, with the assigned value at x0; (ii) u_t(0, .) = psi
    # away from x0
    err_u0, err_p0 = _initial_errors(sol)
    # (iv) wedge boundary vs traces, traces rebuilt from the side fields
    fresh = goursat_traces(sol.spec, sol.field1, sol.field2, sol.diagnostics)
    lv = np.arange(sol.grid.n_levels + 1)
    err_tr = _largest(
        np.abs(sol.field3.at(lv, -lv)[0] - fresh.gamma1),
        np.abs(sol.field3.at(lv, lv)[0] - fresh.gamma2),
    )
    # (v) jump constancy across both characteristics, above level 0
    ul, pl, ql = _jump_triple(sol, lv[1:], "left")
    ur, pr, qr = _jump_triple(sol, lv[1:], "right")
    err_jump = _largest(
        np.abs(ul - sol.diagnostics.left_jump_constant),
        np.abs(ur - sol.diagnostics.right_jump_constant),
    )

    # each check's measured value and detail, (iii) being the equation
    # residual at interior nodes of each region
    measured = {
        "initial_u": (err_u0, "u(0,x) vs phi on user nodes, and u(0,x0) vs A"),
        "initial_ut": (err_p0, "u_t(0,x) vs psi on user nodes except x0"),
        "pde_residual": (
            residual,
            f"max |u_tt - a^2 u_xx + f - F| over {count} interior nodes",
        ),
        "goursat_traces": (
            err_tr,
            "wedge boundary values vs traces recomputed from the side fields",
        ),
        "jump_constancy": (
            err_jump,
            "u-jumps across both characteristics vs A - phi1(x0), phi2(x0) - A",
        ),
    }
    info = {
        "max_ut_jump_left": _largest(np.abs(pl)),
        "max_ut_jump_right": _largest(np.abs(pr)),
        "max_ux_jump_left": _largest(np.abs(ql)),
        "max_ux_jump_right": _largest(np.abs(qr)),
    }
    values = {name: value for name, (value, _) in measured.items()} | info
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"the {name} audit measured {value}; the field is too large to audit")
    # plain float and bool, also when a numpy T makes the tolerances numpy scalars
    checks = tuple(
        CheckResult(name, value, float(tol[name]), bool(value <= tol[name]), detail)
        for name, (value, detail) in measured.items()
    )
    return VerificationReport(checks=checks, info=tuple(info.items()))


def _bumped(field: RegionField, k: int, bump) -> RegionField:
    """``field`` with ``bump(level, offset)`` of its stored nodes added to
    plane ``k`` (0 u, 1 u_t, 2 u_x)."""
    w = field.w.copy()
    w[k] += bump(*field.nodes())
    return replace(field, w=w)


def inject_fault(sol: Solution, check: str) -> Solution:
    """Perturb the field behind one audit check by 10x its tolerance.

    Used to demonstrate that no check passes vacuously; the returned Solution
    must fail ``check`` (and may legitimately trip related checks that read
    the same arrays).
    """
    tolerances = _tolerances(sol)[-1]
    if check not in tolerances:
        raise ValueError(f"unknown check name {check!r}")
    tol = tolerances[check]
    size = 10.0 * tol
    c = 5.0 * tol
    dt = sol.grid.dt
    # each check's fault: the regions whose fields it bumps, the plane (0 u,
    # 1 u_t, 2 u_x) and the bump of (level, offset)
    faults = {
        "initial_u": ((1,), 0, lambda level, j: size * (level == 0)),
        "initial_ut": ((1,), 1, lambda level, j: size * (level == 0)),
        # adding c*t^2 shifts u_tt by 2c everywhere, nothing else at order one
        "pde_residual": ((1, 2, 3), 0, lambda level, j: c * (dt * level) * (dt * level)),
        "goursat_traces": ((3,), 0, lambda level, j: size * (level >= 1)),
        # lift side 1 on its region-1 nodes at every level but 0
        "jump_constancy": ((1,), 0, lambda lv, j: size * ((lv >= 1) & (classify_nodes(lv, j) == 1))),
    }
    regions, k, bump = faults[check]
    bumped = {f"field{r}": _bumped(getattr(sol, f"field{r}"), k, bump) for r in regions}
    return replace(sol, **bumped)


# --------------------------------------------------------------------------
# Linear oracle (no fixed point needed when f is absent)


# trapezoid panels per dimension of the psi and F integrals
_QUAD_N = 1024


def _trapz_expr(spec: ProblemSpec, slot: str, lo: float, hi: float) -> float:
    if hi == lo:
        return 0.0
    ys = np.linspace(lo, hi, _QUAD_N + 1)
    vals = np.asarray(ex.evaluate_named(slot, getattr(spec, slot), {"x": ys}), dtype=float)
    if vals.ndim == 0:
        return float(vals) * (hi - lo)
    return float(np.trapezoid(vals, dx=(hi - lo) / _QUAD_N))


# tau-rows of the F lattice per tile: a tile's temporaries take 131 KiB and
# stay in cache, where a fresh process faulted the pages of 64 rows' 525 KiB
# in again and again (150 k minor faults in a fresh `converge --levels 3` on
# refine_study seed 501, against 30 k)
_TILE_ROWS = 16


def _row_trapezoids(F: ex.Expr, taus, lo, widths):
    """Row i: the trapezoid sum, with unit spacing, of F(taus[i], .) at
    taus.size equally spaced points from lo[i] to lo[i] + widths[i].

    The lattice is visited _TILE_ROWS rows at a time through two reused
    buffers.  Every element takes the operations of ``np.trapezoid`` on the
    whole lattice but its halving, and every row keeps its pairwise sum.
    The row sums are halved once, after the loop, where ``np.trapezoid``
    halves each pair: halving is exact in binary, so each pairwise partial
    sum is exactly twice the halved one, and the values equal the
    whole-lattice rule bit for bit, unless a half-pair is subnormal or a row
    sum lies within a factor 2 of overflow.
    """
    n = taus.size
    fracs = np.linspace(0.0, 1.0, n)
    out = np.empty(n)
    ys = np.empty((min(_TILE_ROWS, n), n))
    pairs = np.empty((ys.shape[0], n - 1))
    for s in range(0, n, _TILE_ROWS):
        e = min(s + _TILE_ROWS, n)
        y, pair = ys[: e - s], pairs[: e - s]
        np.multiply(widths[s:e, None], fracs, out=y)
        y += lo[s:e, None]
        v = np.broadcast_to(ex.evaluate_named("F", F, {"t": taus[s:e, None], "x": y}), y.shape)
        # np.trapezoid's steps; its factor 1.0 is exact
        np.add(v[:, 1:], v[:, :-1], out=pair)
        np.add.reduce(pair, axis=1, out=out[s:e])
    out /= 2.0
    return out


def _require_linear(spec: ProblemSpec) -> None:
    if not ex.is_zero(spec.f):
        raise NotLinear("the closed-form reference requires f to be literally 0")


# an overflow is silent here: it shows as a non-finite value, which is raised
# as DomainError below
@np.errstate(over="ignore", invalid="ignore")
def linear_oracle(spec: ProblemSpec, t: float, x: float, include_jump_term: bool = True) -> float:
    """Direct quadrature of the assembled closed form, valid only for f = 0.

    The region of (t, x) is ``classify_point``'s.  On a side: the average of
    that side's phi at x -/+ a t, plus its psi integral.  In the wedge: the
    average of phi1(x - a t) and phi2(x + a t), plus the psi integral split at
    x0, plus the indicator term A - (phi1(x0)+phi2(x0))/2.  Then the double
    integral of F over the dependence triangle with _QUAD_N^2 trapezoid
    cells, integrated in tiles of _TILE_ROWS tau-rows: a call on
    F = sin(3*x)*exp(-t) + t*x^2 allocates 0.85 MiB at its peak
    (tracemalloc) instead of the whole lattice's 32 MiB, and returns the
    whole-lattice rule's bits.
    ``include_jump_term=False`` evaluates the formula without the indicator
    (the version that is exact when A is the midpoint).
    Raises NegativeTime when t < 0, and DomainError, naming the probe, when
    the value is not finite or a data slot leaves its domain there.
    """
    _require_linear(spec)
    region = classify_point(spec.a, spec.x0, t, x)
    a, x0, A = spec.a, spec.x0, spec.A
    xm = x - a * t
    xp = x + a * t
    where = f"the closed-form reference at (t={t}, x={x})"

    def value(slot, at):
        return ex.evaluate_named(slot, getattr(spec, slot), {"x": at})

    try:
        if region is Region.Q3_STAR:
            # read the one-sided branches, so that on the wedge boundary the
            # formula still reproduces the characteristic traces
            u = 0.5 * (value("phi1", xm) + value("phi2", xp))
            if include_jump_term:
                u += A - 0.5 * (value("phi1", x0) + value("phi2", x0))
            s = _trapz_expr(spec, "psi1", xm, x0) + _trapz_expr(spec, "psi2", x0, xp)
        else:
            side = 1 if region is Region.Q1_STAR else 2
            u = 0.5 * (value(f"phi{side}", xm) + value(f"phi{side}", xp))
            s = _trapz_expr(spec, f"psi{side}", xm, xp)
        u += s / (2.0 * a)
        if not ex.is_zero(spec.F) and t > 0:
            taus = np.linspace(0.0, t, _QUAD_N + 1)
            widths = 2.0 * a * (t - taus)
            inner = _row_trapezoids(spec.F, taus, x - a * (t - taus), widths) * (widths / _QUAD_N)
            outer = float(np.trapezoid(inner, dx=t / _QUAD_N))
            u += outer / (2.0 * a)
    except DomainError as err:
        err.args = (f"{where}: {err}",)
        raise
    if not math.isfinite(u):
        raise DomainError(f"{where} is not finite ({u})")
    return float(u)


# --------------------------------------------------------------------------
# Convergence study


@dataclass(frozen=True)
class ConvergenceEntry:
    nt: int
    h: float
    err: float


@dataclass(frozen=True)
class ConvergenceStudy:
    entries: tuple[ConvergenceEntry, ...]
    order: float | None  # None when every error is at rounding level
    exact: bool

    def to_dict(self) -> dict:
        return asdict(self)


# errors at most this fraction of the study's scale, max(1, |reference|,
# |u|) over the probes and levels, are rounding: the study is exact
_EXACT_FLOOR = 1e-12


def convergence_study(
    spec: ProblemSpec,
    grid: GridParams,
    picard: PicardParams = PicardParams(),
    reference: Callable[[float, float], float] | None = None,
    levels: int = 3,
    probes: tuple[tuple[float, float], ...] | None = None,
) -> ConvergenceStudy:
    """Solve at nt, 2nt, 4nt, ... and fit the sup-error order at fixed probes.

    ``reference`` is a callable (t, x) -> u, or None for the linear oracle,
    which requires f = 0.  The probe set defaults to a lattice keeping one
    coarse cell clear of the characteristics, and is held fixed across
    levels.  Errors all at rounding level, relative to the reference and the
    field at the probes (``_EXACT_FLOOR``), are reported as exact (order None).

    The reference is evaluated at the probes in this process, so a callable
    reference sees the caller's state, and the levels keep only their values
    at the probes.  The reference comes first: its error is raised even when
    a solve fails too.  A DomainError names the probe, where a value is not
    finite or a given reference raised it.  The oracle costs about as much
    as the solves (on refine_study seed 501, 52 probes and nt 128 to 512,
    0.47 s against the levels' 0.48 s beside it: medians of 9 studies in a
    warm process, 2-vCPU Xeon), so it is the caller's part of
    ``_fork.both``, sized by the user-grid nodes of all the levels, and the
    levels solve in a forked child meanwhile when that pays, and set the
    call's wall time about as often as the oracle does; a forked child
    never forks, so there each level's ``solve`` runs its side 2 in
    process.  A given reference
    (an expression, say) is cheap next to the solves: it is evaluated before
    any solve, and the levels then solve in this process, each ``solve``
    forking its side 2 where that pays.  NotLinear (the oracle with
    f != 0), and the ConfigError of a level's grid that ``solve`` would
    reject, are raised before anything runs.  No child outlives the call.
    """
    # solve is looked up at call time, so that a wrapper installed on
    # assembly.solve (a tracer, say) is called; where the levels solve in a
    # forked child it runs there, and what it records is not sent back
    # (ROADMAP item 1)
    from .assembly import solve

    if levels < 2:
        raise ConfigError(f"a convergence study needs levels >= 2, got {levels}")
    if probes is None:
        collar = spec.a * grid.T / grid.nt + 1e-9  # one coarse cell
        probes = probe_points(spec.a, spec.x0, grid.T, grid.x_lo, grid.x_hi, collar)
    if not probes:
        raise ConfigError(
            f"no convergence probe fits in the window [{grid.x_lo}, {grid.x_hi}] "
            f"at nt={grid.nt}; widen the window or refine the grid"
        )
    oracle = reference is None
    if oracle:
        _require_linear(spec)
        reference = partial(linear_oracle, spec)
    grids = [replace(grid, nt=grid.nt * 2**k) for k in range(levels)]
    nodes = sum(build_grid(spec, gp).user_nodes for gp in grids)

    def at_probes():
        refs = []
        for t, x in probes:
            try:
                ref = float(reference(t, x))
            except DomainError as err:
                if not oracle:  # the oracle's own error names the probe
                    err.args = (f"the reference at (t={t}, x={x}): {err}",)
                raise
            if not math.isfinite(ref):
                raise DomainError(f"the reference at (t={t}, x={x}) is not finite ({ref})")
            refs.append(ref)
        return refs

    def solve_levels():
        solved = []  # (nt, u at each probe) of each level
        for gp in grids:
            sol = solve(spec, gp, picard)
            solved.append((gp.nt, [evaluate(sol, t, x)[0] for t, x in probes]))
            del sol  # free this level before the next, finer solve
        return solved

    if oracle:
        refs, solved = _fork.both(nodes, at_probes, solve_levels)
    else:
        refs, solved = at_probes(), solve_levels()
    scale = max([1.0, *map(abs, refs)])
    entries = []
    for nt_k, us in solved:
        err = 0.0
        for u, ref in zip(us, refs):
            err = max(err, abs(u - ref))
            scale = max(scale, abs(u))
        entries.append(ConvergenceEntry(nt=nt_k, h=grid.T / nt_k, err=err))
    if all(e.err <= _EXACT_FLOOR * scale for e in entries):
        return ConvergenceStudy(entries=tuple(entries), order=None, exact=True)
    hs = np.log([e.h for e in entries])
    es = np.log([max(e.err, 1e-300) for e in entries])
    slope = float(np.polyfit(hs, es, 1)[0])
    return ConvergenceStudy(entries=tuple(entries), order=slope, exact=False)
