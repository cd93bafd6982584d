"""Independent correctness machinery.

Nothing here feeds back into the solver: the linear oracle evaluates the
assembled closed-form representation by direct quadrature (valid when the
lower-order term f is absent), the residual check differentiates the solved
field numerically and substitutes it into the equation, and the audit walks
the defining conditions of the piecewise-classical solution:

  (i)   u(0, x) = phi(x) at the initial nodes, including u(0, x0) = A;
  (ii)  u_t(0, x) = psi(x) at the initial nodes except x0;
  (iii) the equation holds at interior probes of each region;
  (iv)  the wedge boundary values reproduce the characteristic traces;
  (v)   the jumps across both characteristics are the prescribed constants.

Derivative jumps across the characteristics are reported for information but
not asserted; constancy is only claimed for u itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from .assembly import Solution, _jump_triple, evaluate
from .cauchy import GridParams, PicardParams, ProblemSpec, RegionField
from .errors import ConfigError, NegativeTime, NotLinear, TooCloseToCharacteristic
from .geometry import Region, classify_point
from .goursat import goursat_traces

__all__ = [
    "CheckResult",
    "VerificationReport",
    "pde_residual",
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
# magnitude.  The residual's finite-difference step is _FD_STEPS * dt_user.
_INITIAL_TOL = 1e-9
_GOURSAT_COEFF = 20.0
_JUMP_COEFF = 20.0
_RESIDUAL_COEFF = 50.0
_FD_STEPS = 2.0


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
        return {
            "passed": bool(self.passed),
            "checks": [
                {
                    "name": c.name,
                    "measured": float(c.measured),
                    "tolerance": float(c.tolerance),
                    "passed": bool(c.passed),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "info": {k: float(v) for k, v in self.info},
        }


# --------------------------------------------------------------------------
# PDE residual


def pde_residual(sol: Solution, t: float, x: float, h_fd: float | None = None) -> float:
    """|u_tt - a^2 u_xx + f - F| at (t, x) by central differences of the field.

    The five-point stencil must stay inside one region (and the window);
    otherwise TooCloseToCharacteristic is raised.
    """
    g = sol.grid
    h = h_fd if h_fd is not None else _FD_STEPS * g.dt_user
    pts = ((t, x), (t + h, x), (t - h, x), (t, x + h), (t, x - h))
    regions = [classify_point(g.a, g.x0, *pt) for pt in pts]
    if len(set(regions)) != 1:
        raise TooCloseToCharacteristic(
            f"residual stencil at (t={t}, x={x}) with step {h} straddles a characteristic"
        )
    u0, p0, q0, _ = evaluate(sol, t, x)
    utp = evaluate(sol, t + h, x)[0]
    utm = evaluate(sol, t - h, x)[0]
    uxp = evaluate(sol, t, x + h)[0]
    uxm = evaluate(sol, t, x - h)[0]
    utt = (utp - 2.0 * u0 + utm) / (h * h)
    uxx = (uxp - 2.0 * u0 + uxm) / (h * h)
    f_val = ex.evaluate(sol.spec.f, {"t": t, "x": x, "u": u0, "ut": p0, "ux": q0})
    F_val = ex.evaluate(sol.spec.F, {"t": t, "x": x})
    return abs(utt - g.a * g.a * uxx + f_val - F_val)


# --------------------------------------------------------------------------
# Probe sets


def probe_points(
    a: float,
    x0: float,
    T: float,
    x_lo: float,
    x_hi: float,
    collar: float,
    nx: int = 13,
    t_fracs: tuple[float, ...] = (0.2, 0.45, 0.7, 0.95),
) -> tuple[tuple[float, float], ...]:
    """Deterministic probe lattice keeping ``collar`` clear of the
    characteristics through (0, x0) and of the window edges."""
    out = []
    xs = np.linspace(x_lo + collar, x_hi - collar, nx)
    for frac in t_fracs:
        t = frac * T
        for x in xs:
            d = x - x0
            if abs(d + a * t) < collar or abs(d - a * t) < collar:
                continue
            out.append((float(t), float(x)))
    return tuple(out)


def _residual_probes(sol: Solution, h: float):
    """Interior probes per region whose residual stencils stay put."""
    g = sol.grid
    collar = 2.0 * h * (1.0 + g.a) + 0.5 * g.dx_user
    pts = probe_points(
        g.a,
        g.x0,
        g.T,
        g.x_lo,
        g.x_hi,
        collar,
        nx=15,
        t_fracs=(0.3, 0.5, 0.7, 0.85),
    )
    grouped: dict[Region, list[tuple[float, float]]] = {r: [] for r in Region}
    for t, x in pts:
        if t - h < 0.0 or t + h > g.T:
            continue
        if x - h < g.x_lo or x + h > g.x_hi:
            continue
        stencil = ((t, x), (t + h, x), (t - h, x), (t, x + h), (t, x - h))
        regions = {classify_point(g.a, g.x0, *p) for p in stencil}
        if len(regions) != 1:
            continue
        grouped[next(iter(regions))].append((t, x))
    # cap per region, spread across the candidate list
    for r, lst in grouped.items():
        if len(lst) > 12:
            step = len(lst) / 12.0
            grouped[r] = [lst[int(k * step)] for k in range(12)]
    return grouped


# --------------------------------------------------------------------------
# Definition audit


def _field_scale(sol: Solution) -> float:
    """max(1, max |u|) over the live nodes: the sector [i, ncols-1-i] of level
    i on the sides, s + r <= n_levels in the wedge.  The side arrays hold
    meaningless values outside their sectors."""
    n = sol.grid.n_levels
    s = 1.0
    for i in range(n + 1):
        for f in (sol.field1, sol.field2):
            s = max(s, float(np.max(np.abs(f.u[i, i : f.u.shape[1] - i]))))
        s = max(s, float(np.max(np.abs(sol.field3.u[i, : n + 1 - i]))))
    return s


def _rhs_scale(sol: Solution, grouped) -> float:
    s = 1.0
    for pts in grouped.values():
        for t, x in pts:
            u0, p0, q0, _ = evaluate(sol, t, x)
            s = max(
                s,
                abs(ex.evaluate(sol.spec.F, {"t": t, "x": x})),
                abs(ex.evaluate(sol.spec.f, {"t": t, "x": x, "u": u0, "ut": p0, "ux": q0})),
            )
    return s


def _tolerances(sol: Solution):
    """The residual step, the residual probes, and each check's tolerance."""
    g = sol.grid
    h = g.dt_user
    h_fd = _FD_STEPS * h
    grouped = _residual_probes(sol, h_fd)
    scale = _field_scale(sol)
    # the residual tolerance scales with the right-hand sides, not the field,
    # so an injected field error cannot inflate its own tolerance
    tolerances = {
        "initial_u": _INITIAL_TOL,
        "initial_ut": _INITIAL_TOL,
        "pde_residual": _RESIDUAL_COEFF * (h * h + h_fd * h_fd) * _rhs_scale(sol, grouped),
        "goursat_traces": _GOURSAT_COEFF * h * h * scale,
        "jump_constancy": _JUMP_COEFF * h * h * scale,
    }
    return h_fd, grouped, tolerances


def _initial_errors(sol: Solution) -> tuple[float, float]:
    """Largest |u(0,x) - phi(x)| and |u_t(0,x) - psi(x)| over the user nodes
    except x0, each data expression evaluated once on its side's nodes."""
    g, spec = sol.grid, sol.spec
    j = np.arange(-g.n_left, g.n_right + 1)
    xs = g.user_xs()
    err_u = err_p = 0.0
    for field, on_side, cols, phi, psi in (
        (sol.field1, j < 0, 2 * j - g.j1_min, spec.phi1, spec.psi1),
        (sol.field2, j > 0, 2 * j, spec.phi2, spec.psi2),
    ):
        env = {"x": xs[on_side]}
        row = cols[on_side]
        err_u = max(err_u, float(np.max(np.abs(field.u[0, row] - ex.evaluate(phi, env)))))
        err_p = max(err_p, float(np.max(np.abs(field.p[0, row] - ex.evaluate(psi, env)))))
    return err_u, err_p


def check_definition1(sol: Solution) -> VerificationReport:
    """Audit the five defining conditions of the solved field."""
    g = sol.grid
    h_fd, grouped, tol = _tolerances(sol)
    checks: list[CheckResult] = []
    info: list[tuple[str, float]] = []

    def check(name: str, measured: float, detail: str) -> None:
        checks.append(CheckResult(name, measured, tol[name], measured <= tol[name], detail))

    # (i) u(0, .) = phi, with the assigned value at x0; (ii) u_t(0, .) = psi
    # away from x0
    err_u0, err_p0 = _initial_errors(sol)
    err_u0 = max(err_u0, abs(sol.field3.u[0, 0] - sol.spec.A))  # vertex
    check("initial_u", err_u0, "u(0,x) vs phi on user nodes, and u(0,x0) vs A")
    check("initial_ut", err_p0, "u_t(0,x) vs psi on user nodes except x0")

    # (iii) equation residual on interior probes
    res_max = 0.0
    n_probes = 0
    for pts in grouped.values():
        for t, x in pts:
            res_max = max(res_max, pde_residual(sol, t, x, h_fd))
            n_probes += 1
    check(
        "pde_residual",
        res_max,
        f"max |u_tt - a^2 u_xx + f - F| over {n_probes} interior probes",
    )

    # (iv) wedge boundary vs traces, traces rebuilt from the side fields
    fresh = goursat_traces(sol.spec, sol.field1, sol.field2, sol.diagnostics)
    m = g.n_levels
    lv = np.arange(m + 1)
    err_tr = max(
        float(np.max(np.abs(sol.field3.u[lv, 0] - fresh.gamma1))),
        float(np.max(np.abs(sol.field3.u[0, lv] - fresh.gamma2))),
    )
    check(
        "goursat_traces",
        err_tr,
        "wedge boundary values vs traces recomputed from the side fields",
    )

    # (v) jump constancy across both characteristics
    cl = sol.diagnostics.left_jump_constant
    cr = sol.diagnostics.right_jump_constant
    err_jump = 0.0
    pj_l = pj_r = qj_l = qj_r = 0.0
    for k in range(1, m + 1):
        ul, pl, ql = _jump_triple(sol, k, "left")
        ur, pr, qr = _jump_triple(sol, k, "right")
        err_jump = max(err_jump, abs(ul - cl), abs(ur - cr))
        pj_l = max(pj_l, abs(pl))
        pj_r = max(pj_r, abs(pr))
        qj_l = max(qj_l, abs(ql))
        qj_r = max(qj_r, abs(qr))
    check(
        "jump_constancy",
        err_jump,
        "u-jumps across both characteristics vs A - phi1(x0), phi2(x0) - A",
    )
    info.extend(
        [
            ("max_ut_jump_left", pj_l),
            ("max_ut_jump_right", pj_r),
            ("max_ux_jump_left", qj_l),
            ("max_ux_jump_right", qj_r),
        ]
    )

    return VerificationReport(checks=tuple(checks), info=tuple(info))


def _bumped(field: RegionField, attr: str, bump: np.ndarray | float) -> RegionField:
    arr = getattr(field, attr).copy()
    arr += bump
    arr.setflags(write=False)
    return replace(field, **{attr: arr})


def inject_fault(sol: Solution, check: str) -> Solution:
    """Perturb the field behind one audit check by 10x its tolerance.

    Used to demonstrate that no check passes vacuously; the returned Solution
    must fail ``check`` (and may legitimately trip related checks that read
    the same arrays).
    """
    tolerances = _tolerances(sol)[2]
    if check not in tolerances:
        raise ValueError(f"unknown check name {check!r}")
    tol = tolerances[check]
    g = sol.grid
    if check == "initial_u":
        row = np.zeros_like(sol.field1.u)
        row[0, :] = 10.0 * tol
        return replace(sol, field1=_bumped(sol.field1, "u", row))
    if check == "initial_ut":
        row = np.zeros_like(sol.field1.p)
        row[0, :] = 10.0 * tol
        return replace(sol, field1=_bumped(sol.field1, "p", row))
    if check == "pde_residual":
        # adding c*t^2 shifts u_tt by 2c everywhere, nothing else at order one
        c = 5.0 * tol
        t_side = (g.dt * np.arange(g.n_levels + 1))[:, None]
        idx = np.arange(g.n_levels + 1)
        t_wedge = g.dt * (idx[:, None] + idx[None, :])
        return replace(
            sol,
            field1=_bumped(sol.field1, "u", c * t_side * t_side),
            field2=_bumped(sol.field2, "u", c * t_side * t_side),
            field3=_bumped(sol.field3, "u", c * t_wedge * t_wedge),
        )
    if check == "goursat_traces":
        idx = np.arange(g.n_levels + 1)
        off_apex = (idx[:, None] + idx[None, :]) >= 1
        return replace(sol, field3=_bumped(sol.field3, "u", 10.0 * tol * off_apex))
    # jump_constancy
    bump = np.zeros_like(sol.field1.u)
    for level in range(1, g.n_levels + 1):
        c_char = g.char_col(1, level)
        bump[level, :c_char] = 10.0 * tol
    return replace(sol, field1=_bumped(sol.field1, "u", bump))


# --------------------------------------------------------------------------
# Linear oracle (no fixed point needed when f is absent)


def _trapz_expr(e: ex.Expr, lo: float, hi: float, n: int) -> float:
    if hi == lo:
        return 0.0
    ys = np.linspace(lo, hi, n + 1)
    vals = np.asarray(ex.evaluate(e, {"x": ys}), dtype=float)
    if vals.ndim == 0:
        return float(vals) * (hi - lo)
    return float(np.trapezoid(vals, dx=(hi - lo) / n))


def linear_oracle(
    spec: ProblemSpec,
    t: float,
    x: float,
    quad_n: int = 1024,
    include_jump_term: bool = True,
) -> float:
    """Direct quadrature of the assembled closed form, valid only for f = 0.

    Average of the piecewise phi at (x -/+ a t), plus the psi integral split
    at x0, plus (in the wedge) the indicator term A - (phi1(x0)+phi2(x0))/2,
    plus the double integral of F over the dependence triangle with quad_n^2
    trapezoid cells.  ``include_jump_term=False`` evaluates the formula
    without the indicator (the version that is exact when A is the midpoint).
    """
    if not ex.is_zero(spec.f):
        raise NotLinear("the closed-form reference requires f to be literally 0")
    if t < 0:
        raise NegativeTime(f"oracle evaluation requires t >= 0, got t={t}")
    a, x0, A = spec.a, spec.x0, spec.A
    xm = x - a * t
    xp = x + a * t
    d = x - x0
    in_wedge = (d + a * t >= 0.0) and (d - a * t <= 0.0)
    if in_wedge:
        # xm <= x0 <= xp: read the one-sided branches, so that on the wedge
        # boundary (xm or xp equal to x0) the formula still reproduces the
        # characteristic traces
        u = 0.5 * (
            ex.evaluate(spec.phi1, {"x": xm}) + ex.evaluate(spec.phi2, {"x": xp})
        )
        if include_jump_term:
            p1 = ex.evaluate(spec.phi1, {"x": x0})
            p2 = ex.evaluate(spec.phi2, {"x": x0})
            u += A - 0.5 * (p1 + p2)
    else:
        # both arguments fall strictly on one side
        phi = spec.phi1 if xp < x0 else spec.phi2
        u = 0.5 * (
            ex.evaluate(phi, {"x": xm}) + ex.evaluate(phi, {"x": xp})
        )
    # psi integral, split at x0 so each piece uses its own branch
    if xp <= x0:
        s = _trapz_expr(spec.psi1, xm, xp, quad_n)
    elif xm >= x0:
        s = _trapz_expr(spec.psi2, xm, xp, quad_n)
    else:
        s = _trapz_expr(spec.psi1, xm, x0, quad_n) + _trapz_expr(spec.psi2, x0, xp, quad_n)
    u += s / (2.0 * a)
    if not ex.is_zero(spec.F) and t > 0:
        taus = np.linspace(0.0, t, quad_n + 1)
        widths = 2.0 * a * (t - taus)
        fracs = np.linspace(0.0, 1.0, quad_n + 1)
        ys = (x - a * (t - taus))[:, None] + widths[:, None] * fracs[None, :]
        tt = np.broadcast_to(taus[:, None], ys.shape)
        vals = np.asarray(ex.evaluate(spec.F, {"t": tt, "x": ys}), dtype=float)
        if vals.ndim == 0:
            inner = float(vals) * widths
        else:
            vals = np.broadcast_to(vals, ys.shape)
            inner = np.trapezoid(vals, axis=1) * (widths / quad_n)
        outer = float(np.trapezoid(inner, dx=t / quad_n))
        u += outer / (2.0 * a)
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
        return {
            "entries": [{"nt": e.nt, "h": e.h, "err": e.err} for e in self.entries],
            "order": self.order,
            "exact": self.exact,
        }


_EXACT_FLOOR = 1e-12


def convergence_study(
    spec: ProblemSpec,
    grid: GridParams,
    picard: PicardParams = PicardParams(),
    reference: object = "oracle",
    levels: int = 3,
    probes: tuple[tuple[float, float], ...] | None = None,
    quad_n: int = 1024,
) -> ConvergenceStudy:
    """Solve at nt, 2nt, 4nt, ... and fit the sup-error order at fixed probes.

    ``reference`` is "oracle" (requires f = 0), an expression over {t, x},
    or a callable (t, x) -> u.  The probe set defaults to a lattice keeping
    one coarse cell clear of the characteristics, and is held fixed across
    levels.  Errors all at rounding level are reported as exact (order None).
    """
    from .assembly import solve  # local import: assembly imports this module's peers

    if levels < 2:
        raise ConfigError(f"a convergence study needs levels >= 2, got {levels}")
    if probes is None:
        collar = spec.a * grid.T / grid.nt + 1e-9  # one coarse cell
        probes = probe_points(spec.a, spec.x0, grid.T, grid.x_lo, grid.x_hi, collar)
    if reference == "oracle":
        refs = [linear_oracle(spec, t, x, quad_n=quad_n) for t, x in probes]
    elif isinstance(reference, (ex.Num, ex.Var, ex.Neg, ex.BinOp, ex.Call)):
        refs = [float(ex.evaluate(reference, {"t": t, "x": x})) for t, x in probes]
    elif callable(reference):
        refs = [float(reference(t, x)) for t, x in probes]
    else:
        raise ValueError(f"unsupported reference {reference!r}")
    entries = []
    for k in range(levels):
        nt_k = grid.nt * (2**k)
        gp = GridParams(T=grid.T, x_lo=grid.x_lo, x_hi=grid.x_hi, nt=nt_k)
        sol = solve(spec, gp, picard)
        err = 0.0
        for (t, x), ref in zip(probes, refs):
            err = max(err, abs(evaluate(sol, t, x)[0] - ref))
        entries.append(ConvergenceEntry(nt=nt_k, h=grid.T / nt_k, err=err))
    if all(e.err <= _EXACT_FLOOR for e in entries):
        return ConvergenceStudy(entries=tuple(entries), order=None, exact=True)
    hs = np.log([e.h for e in entries])
    es = np.log([max(e.err, 1e-300) for e in entries])
    slope = float(np.polyfit(hs, es, 1)[0])
    return ConvergenceStudy(entries=tuple(entries), order=slope, exact=False)
