import math
import tracemalloc

import numpy as np
import pytest

import charwave.expr as ex
from charwave.assembly import solve
from charwave.cauchy import (
    GridParams,
    PicardParams,
    ProblemSpec,
    _dal_parts,
    _grid_eval,
    build_grid,
    estimate_lipschitz,
    picard_step_cauchy,
    plan_strips,
    resolve_lipschitz,
    solve_cauchy_region,
)
from charwave.errors import ConfigError, InvalidSpeed, NonConvergence

from helpers import load_problem, solve_side, strip_plan


def make_spec(**kw):
    base = dict(
        a=1.0, x0=0.0, A=0.0,
        phi1="0", phi2="0", psi1="0", psi2="0", F="0", f="0",
    )
    base.update(kw)
    return ProblemSpec.from_strings(**base)


class TestSpecValidation:
    def test_rejects_nonpositive_speed(self):
        with pytest.raises(InvalidSpeed):
            make_spec(a=0.0)
        assert issubclass(InvalidSpeed, ConfigError)
        with pytest.raises(InvalidSpeed):
            make_spec(a=-2.0)

    def test_rejects_wrong_variables(self):
        from charwave.errors import UnknownVariable

        with pytest.raises(UnknownVariable):
            make_spec(phi1="t")  # initial data depend on x only
        with pytest.raises(UnknownVariable):
            make_spec(F="u")  # forcing cannot see the unknown
        # pre-parsed expressions are re-checked on construction
        bad = ex.parse("u", ("u",))
        zero = ex.parse("0", ())
        with pytest.raises(ConfigError):
            ProblemSpec(
                a=1.0, x0=0.0, A=0.0,
                phi1=bad, phi2=zero, psi1=zero, psi2=zero, F=zero, f=zero,
            )

    def test_f_sees_full_state(self):
        spec = make_spec(f="t + x + u + ut + ux")
        assert ex.free_vars(spec.f) == {"t", "x", "u", "ut", "ux"}

    def test_rejects_negative_lipschitz(self):
        with pytest.raises(ConfigError):
            make_spec(lipschitz=-1.0)


class TestGrid:
    def test_internal_refinement(self):
        g = build_grid(make_spec(a=2.0), GridParams(T=1.0, x_lo=-4.0, x_hi=4.0, nt=10))
        assert g.dt_user == pytest.approx(0.1)
        assert g.dt == pytest.approx(0.05)
        assert g.dx == pytest.approx(2.0 * g.dt)
        assert g.n_levels == 20

    def test_columns_reach_past_characteristics(self):
        g = build_grid(make_spec(), GridParams(T=1.0, x_lo=-1.0, x_hi=1.0, nt=8))
        # three spare columns beyond the characteristic at the top level
        assert -g.j1_min >= 2 * g.n_levels + 3
        assert g.j2_max >= 2 * g.n_levels + 3

    def test_char_col_sits_on_characteristic(self):
        g = build_grid(make_spec(x0=0.5), GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        for level in (0, 3, g.n_levels):
            c1 = g.char_col(1, level)
            x1 = g.region_xcols(1)[c1]
            assert x1 == pytest.approx(g.x0 - level * g.dx)
            c2 = g.char_col(2, level)
            x2 = g.region_xcols(2)[c2]
            assert x2 == pytest.approx(g.x0 + level * g.dx)

    def test_window_snaps_outward(self):
        g = build_grid(make_spec(), GridParams(T=1.0, x_lo=-1.05, x_hi=1.0, nt=8))
        assert g.x_lo <= -1.05 + 1e-12
        assert g.x_hi >= 1.0 - 1e-12
        assert g.user_xs()[0] == pytest.approx(g.x_lo)
        assert g.user_xs()[-1] == pytest.approx(g.x_hi)

    def test_x0_must_be_inside_window(self):
        with pytest.raises(ConfigError):
            build_grid(make_spec(x0=5.0), GridParams(T=1.0, x_lo=-1.0, x_hi=1.0, nt=8))

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            GridParams(T=0.0, x_lo=-1.0, x_hi=1.0, nt=8)
        with pytest.raises(ConfigError):
            GridParams(T=1.0, x_lo=1.0, x_hi=-1.0, nt=8)
        with pytest.raises(ConfigError):
            GridParams(T=1.0, x_lo=-1.0, x_hi=1.0, nt=1)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                PicardParams(tol=tol)


class TestRegionField:
    def test_live_nodes_and_views(self):
        sol = solve(make_spec(psi2="1"), GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        for field in (sol.field1, sol.field2):
            rows, ncols = field.w.shape[1:]
            # the sector [i, ncols-1-i] of level i
            assert field.live.sum() == sum(max(ncols - 2 * i, 0) for i in range(rows))
            assert field.live[0].all()
        n = sol.field3.w.shape[1]  # wedge nodes s + r <= n - 1
        assert sol.field3.live.sum() == n * (n + 1) // 2
        assert sol.field3.live[:, 0].all() and sol.field3.live[0, :].all()
        for field in (sol.field1, sol.field2, sol.field3):
            assert field.w.shape[0] == 3
            assert not field.w.flags.writeable
            for k, plane in enumerate((field.u, field.p, field.q)):
                assert np.shares_memory(plane, field.w)
                assert not plane.flags.writeable
                np.testing.assert_array_equal(plane, field.w[k])


class TestStripPlanning:
    def test_zero_lipschitz_single_band(self):
        g = build_grid(make_spec(), GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        assert plan_strips(g, 0.0, PicardParams()) == ((0, g.n_levels),)

    def test_bands_cover_contiguously(self):
        g = build_grid(make_spec(), GridParams(T=1.6, x_lo=-4.0, x_hi=4.0, nt=8))
        strips = plan_strips(g, 1.0, PicardParams())
        assert strips[0][0] == 0
        assert strips[-1][1] == g.n_levels
        for (b1, e1), (b2, e2) in zip(strips, strips[1:]):
            assert e1 == b2
        # a = 1: band height 0.5/(L*2.5) = 0.2 = 2 internal steps
        assert all(e - b <= 2 for b, e in strips)

    def test_unreachable_contraction_raises(self):
        g = build_grid(make_spec(), GridParams(T=1.5, x_lo=-4.0, x_hi=4.0, nt=8))
        with pytest.raises(NonConvergence):
            plan_strips(g, 50.0, PicardParams())


class TestLipschitzEstimate:
    def test_linear_in_u(self):
        spec = make_spec(f="2*u")
        g = build_grid(spec, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        L = estimate_lipschitz(spec, g)
        assert 2.0 <= L <= 4.0

    def test_state_independent_f_is_zero(self):
        spec = make_spec(f="t*x")
        g = build_grid(spec, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        assert estimate_lipschitz(spec, g) == 0.0

    def test_sine_nonlinearity(self):
        spec = make_spec(f="sin(u)")
        g = build_grid(spec, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        L = estimate_lipschitz(spec, g)
        assert 1.0 <= L <= 2.0

    def test_f_undefined_on_the_sample_asks_for_the_constant(self):
        spec = make_spec(A=2.0, phi1="2", phi2="2", f="log(u) - log(2)")
        g = build_grid(spec, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        with pytest.raises(ConfigError, match="declare lipschitz"):
            estimate_lipschitz(spec, g)

    def test_declared_constant_wins(self):
        spec = make_spec(f="sin(u)", lipschitz=7.0)
        g = build_grid(spec, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        assert resolve_lipschitz(spec, g) == 7.0


class TestClosedForms:
    def test_zero_problem_in_one_sweep(self):
        spec = make_spec()
        field = solve_side(spec, 2, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        assert np.all(field.u == 0.0)
        assert np.all(field.p == 0.0)
        assert np.all(field.q == 0.0)
        assert field.report.iterations == (1,)

    def test_quadratic_data_exact(self):
        # phi = x^2, psi = 0: u = x^2 + a^2 t^2, u_t = 2 a^2 t, u_x = 2 x
        a = 2.0
        spec = make_spec(a=a, phi2="x^2")
        field = solve_side(spec, 2, GridParams(T=1.0, x_lo=-4.0, x_hi=4.0, nt=8))
        g = field.grid
        xs = g.region_xcols(2)
        ts = g.dt * np.arange(g.n_levels + 1)
        uex = xs[None, :] ** 2 + a * a * ts[:, None] ** 2
        pex = 2.0 * a * a * ts[:, None] + 0.0 * xs[None, :]
        qex = 2.0 * xs[None, :] + 0.0 * ts[:, None]
        mask = field.live
        assert np.max(np.abs((field.u - uex)[mask])) < 1e-10
        assert np.max(np.abs((field.p - pex)[mask])) < 1e-10
        assert np.max(np.abs((field.q - qex)[mask])) < 1e-10

    def test_constant_forcing_exact(self):
        # F = 1 with zero data: u = t^2/2, u_t = t, u_x = 0
        spec = make_spec(F="1")
        field = solve_side(spec, 1, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        g = field.grid
        ts = g.dt * np.arange(g.n_levels + 1)
        mask = field.live
        uex = np.broadcast_to((ts * ts / 2.0)[:, None], field.u.shape)
        pex = np.broadcast_to(ts[:, None], field.p.shape)
        assert np.max(np.abs((field.u - uex)[mask])) < 1e-12
        assert np.max(np.abs((field.p - pex)[mask])) < 1e-12
        assert np.max(np.abs(field.q[mask])) < 1e-12

    def test_initial_rows_reproduce_data(self):
        spec = make_spec(phi2="sin(x)", psi2="cos(2*x)")
        field = solve_side(spec, 2, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        xs = field.grid.region_xcols(2)
        np.testing.assert_array_equal(field.u[0], np.sin(xs))
        np.testing.assert_array_equal(field.p[0], np.cos(2 * xs))
        np.testing.assert_array_equal(field.q[0], np.cos(xs))

    def test_psi_integral_matches_direct_trapezoid(self):
        # with f = F = 0 the scheme is the trapezoid rule on the data; check
        # one node against an independently coded sum
        spec = make_spec(psi2="cos(x)")
        field = solve_side(spec, 2, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        g = field.grid
        level, col = 10, 14  # interior sector node
        x = g.region_xcols(2)[col]
        t = level * g.dt
        lo, hi = x - g.a * t, x + g.a * t
        n_seg = 2 * level
        ys = np.linspace(lo, hi, n_seg + 1)
        vals = np.cos(ys)
        direct = (vals[0] / 2 + vals[1:-1].sum() + vals[-1] / 2) * (hi - lo) / n_seg
        expected = direct / (2.0 * g.a)
        assert field.u[level, col] == pytest.approx(expected, abs=1e-13)
        closed = (math.sin(hi) - math.sin(lo)) / (2.0 * g.a)
        assert field.u[level, col] == pytest.approx(closed, abs=5e-4)

    def test_forcing_quadrature_second_order(self):
        # F = t*x with zero data: u = x t^3 / 6
        spec = make_spec(F="t*x")

        def err(nt):
            field = solve_side(
                spec, 2, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=nt)
            )
            g = field.grid
            xs = g.region_xcols(2)
            ts = g.dt * np.arange(g.n_levels + 1)
            uex = xs[None, :] * ts[:, None] ** 3 / 6.0
            mask = field.live
            return np.max(np.abs((field.u - uex)[mask]))

        e1, e2 = err(8), err(16)
        assert e2 < e1
        assert e1 / e2 > 3.0  # clean second order halves the step -> /4


class TestNonlinear:
    def setup_method(self):
        self.spec = make_spec(
            phi2="sin(x)", psi2="-cos(x)", F="sin(sin(x-t))", f="sin(u)", lipschitz=1.0
        )
        self.grid = GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=32)

    def test_matches_manufactured_solution(self):
        field = solve_side(self.spec, 2, self.grid)
        g = field.grid
        xs = g.region_xcols(2)
        ts = g.dt * np.arange(g.n_levels + 1)
        uex = np.sin(xs[None, :] - ts[:, None])
        mask = field.live
        assert np.max(np.abs((field.u - uex)[mask])) < 2e-3

    def test_fixed_point_residual_small(self):
        picard = PicardParams(tol=1e-10)
        field = solve_side(self.spec, 2, self.grid, picard)
        again = picard_step_cauchy(self.spec, field)
        assert np.max(np.abs(again.u - field.u)) < 5e-10
        assert np.max(np.abs(again.p - field.p)) < 5e-10
        assert np.max(np.abs(again.q - field.q)) < 5e-10

    def test_single_sweep_is_identity_when_f_absent(self):
        spec = make_spec(phi2="sin(x)", psi2="cos(x)", F="exp(-x^2)")
        field = solve_side(spec, 2, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        again = picard_step_cauchy(spec, field)
        np.testing.assert_array_equal(again.u, field.u)
        np.testing.assert_array_equal(again.p, field.p)
        np.testing.assert_array_equal(again.q, field.q)

    def test_updates_contract(self):
        field = solve_side(self.spec, 2, self.grid, PicardParams(tol=1e-12))
        for norms in field.report.update_norms:
            for prev, cur in zip(norms[1:], norms[2:]):
                if prev > 1e-9:  # above this the ratio is rounding noise
                    assert cur / prev < 0.75

    def test_derivative_companions_consistent(self):
        # p and q are computed by closed formulas; they must agree with
        # difference quotients of u at second order
        def errs(nt):
            field = solve_side(
                self.spec, 2, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=nt)
            )
            g = field.grid
            inner = field.live
            inner[0, :] = inner[-1, :] = False
            inner[:, 0] = inner[:, -1] = False
            # shave one more ring so every stencil stays in the sector
            core = inner & np.roll(inner, 1, 0) & np.roll(inner, -1, 0)
            core = core & np.roll(inner, 1, 1) & np.roll(inner, -1, 1)
            dp = (field.u[2:, 1:-1] - field.u[:-2, 1:-1]) / (2 * g.dt) - field.p[1:-1, 1:-1]
            dq = (field.u[1:-1, 2:] - field.u[1:-1, :-2]) / (2 * g.dx) - field.q[1:-1, 1:-1]
            m = core[1:-1, 1:-1]
            return np.max(np.abs(dp[m])), np.max(np.abs(dq[m]))

        (p1, q1), (p2, q2) = errs(8), errs(16)
        assert p1 / p2 > 3.0
        assert q1 / q2 > 3.0

    def test_divergent_iteration_raises(self):
        # understate the Lipschitz constant so no strip refinement happens,
        # then starve the iteration
        spec = make_spec(phi2="1", f="5*u", lipschitz=1e-9)
        with pytest.raises(NonConvergence) as err:
            solve_side(
                spec, 2, GridParams(T=2.0, x_lo=-5.0, x_hi=5.0, nt=8),
                PicardParams(tol=1e-12, max_iter=3),
            )
        assert err.value.last_update > 0.0


class TestMirrorSymmetry:
    def test_sides_mirror(self):
        # v(t,x) = u(t,-x) swaps sides and flips psi's sign
        specL = make_spec(phi1="x^2", psi1="x")
        specR = make_spec(phi2="x^2", psi2="-x")
        gp = GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8)
        f1 = solve_side(specL, 1, gp)
        f2 = solve_side(specR, 2, gp)
        g = f1.grid
        for level in range(0, g.n_levels + 1, 4):
            for j in range(-g.n_levels, 1):
                if j > -level:
                    continue
                c1 = j - g.j1_min
                c2 = -j
                assert f1.u[level, c1] == pytest.approx(f2.u[level, c2], abs=1e-12)
                assert f1.p[level, c1] == pytest.approx(f2.p[level, c2], abs=1e-12)
                assert f1.q[level, c1] == pytest.approx(-f2.q[level, c2], abs=1e-12)


def _whole_band_step(spec, iterate):
    """One sweep of the side map in whole-band form: per band, the integrand
    G on every node, band-size I+, I- and D planes from the recurrences of the
    cauchy module docstring, then the three planes combined with the
    d'Alembert parts.  Rows 1.. of each band are written, row 0 is the
    input's."""
    g = iterate.grid
    a, dt = g.a, g.dt
    dx = a * dt
    x_cols = g.region_xcols(iterate.region.value)
    W = np.zeros_like(iterate.w)
    W[:, 0] = iterate.w[:, 0]
    for b, e in iterate.report.strips:
        nb = e - b
        rows = iterate.w[:, b : e + 1]
        u_dal, p_dal, q_dal = _dal_parts(a, dt, b, nb, rows[:, 0])
        shape = (nb + 1, x_cols.shape[0])
        t2 = (dt * np.arange(b, e + 1))[:, None]
        x2 = x_cols[None, :]
        u, ut, ux = rows
        G = _grid_eval(spec.F, shape, t=t2, x=x2) - _grid_eval(
            spec.f, shape, t=t2, x=x2, u=u, ut=ut, ux=ux
        )
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
        W[0, b + 1 : e + 1] = (u_dal + D / (2.0 * a))[1:]
        W[1, b + 1 : e + 1] = (p_dal + 0.5 * (Ip + Im))[1:]
        W[2, b + 1 : e + 1] = (q_dal + (Im - Ip) / (2.0 * a))[1:]
    return W


class TestBandKernel:
    @pytest.mark.parametrize("name, n_strips", [("manufactured", 6), ("mixed_forcing", 1)])
    def test_streamed_sweep_matches_whole_band_map(self, name, n_strips):
        spec, params, picard = load_problem(name)
        for side in (1, 2):
            field = solve_side(spec, side, params, picard)
            assert len(field.report.strips) == n_strips
            live = field.live
            step = picard_step_cauchy(spec, field).w
            np.testing.assert_array_equal(step[:, live], _whole_band_step(spec, field)[:, live])
            assert not np.any(step[:, ~live])

    def test_single_strip_side_solve_memory(self):
        # the band kernel keeps a few rows of temporaries, not band-size planes
        spec, params, picard = load_problem("mixed_forcing")
        grid = build_grid(spec, params)
        strips = strip_plan(spec, grid, picard)
        assert len(strips) == 1
        tracemalloc.start()
        try:
            field = solve_cauchy_region(spec, 1, grid, strips, picard)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * field.w.nbytes
