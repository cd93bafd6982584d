import numpy as np
import pytest

from charwave.assembly import diagnose
from charwave.cauchy import GridParams, PicardParams, ProblemSpec
from charwave.errors import ConfigError, NonConvergence
from charwave.goursat import goursat_traces, picard_step_goursat, solve_goursat_region

from conftest import solve_side, strip_plan


def make_spec(**kw):
    base = dict(
        a=1.0, x0=0.0, A=0.0,
        phi1="0", phi2="0", psi1="0", psi2="0", F="0", f="0",
    )
    base.update(kw)
    return ProblemSpec.from_strings(**base)


def solve_both_sides(spec, gp, picard=PicardParams()):
    f1 = solve_side(spec, 1, gp, picard)
    f2 = solve_side(spec, 2, gp, picard)
    return f1, f2


def solve_wedge(spec, gp, picard=PicardParams()):
    tr = goursat_traces(spec, *solve_both_sides(spec, gp, picard), diagnose(spec))
    return solve_goursat_region(spec, tr, strip_plan(spec, tr.grid, picard), picard), tr


class TestTraces:
    def test_step_data_gives_constant_traces(self):
        spec = make_spec(phi1="0", phi2="1", A=1.0)
        gp = GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8)
        tr = goursat_traces(spec, *solve_both_sides(spec, gp), diagnose(spec))
        np.testing.assert_allclose(tr.gamma1, 1.0)
        np.testing.assert_allclose(tr.gamma2, 1.0)
        np.testing.assert_allclose(tr.dgamma1, 0.0, atol=1e-14)
        np.testing.assert_allclose(tr.dgamma2, 0.0, atol=1e-14)

    def test_traces_start_at_assigned_value(self):
        for kw in (
            dict(phi1="0", phi2="1", A=0.25),
            dict(psi2="1"),
            dict(phi1="x^2", phi2="x^2", F="t*x"),
            dict(phi1="sin(x)", phi2="sin(x)", psi1="-cos(x)", psi2="-cos(x)",
                 F="sin(sin(x-t))", f="sin(u)", lipschitz=1.0),
        ):
            spec = make_spec(**kw)
            gp = GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8)
            tr = goursat_traces(spec, *solve_both_sides(spec, gp), diagnose(spec))
            assert tr.gamma1[0] == pytest.approx(spec.A, abs=1e-12)
            assert tr.gamma2[0] == pytest.approx(spec.A, abs=1e-12)

    def test_psi_step_trace_is_linear(self):
        # psi2 = 1: right-side solution is u = t on the right characteristic
        spec = make_spec(psi2="1")
        gp = GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8)
        tr = goursat_traces(spec, *solve_both_sides(spec, gp), diagnose(spec))
        g = tr.grid
        ts = g.dt * np.arange(g.n_levels + 1)
        np.testing.assert_allclose(tr.gamma2, ts, atol=1e-14)
        np.testing.assert_allclose(tr.gamma1, 0.0, atol=1e-14)

    def test_mismatched_grids_rejected(self):
        spec = make_spec()
        f1 = solve_side(spec, 1, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        f2 = solve_side(spec, 2, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=16))
        with pytest.raises(ConfigError):
            goursat_traces(spec, f1, f2, diagnose(spec))


class TestWedgeSolve:
    def test_step_case_constant_wedge(self):
        spec = make_spec(phi1="0", phi2="1", A=1.0)
        field, _ = solve_wedge(spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        tri = field.live
        assert np.max(np.abs(field.u[tri] - 1.0)) < 1e-13
        assert np.max(np.abs(field.p[tri])) < 1e-13
        assert np.max(np.abs(field.q[tri])) < 1e-13

    def test_psi_step_wedge_closed_form(self):
        # u = (x + a t)/2a in the wedge; on the lattice that is r*dt
        spec = make_spec(psi2="1")
        field, _ = solve_wedge(spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        g = field.grid
        n = g.n_levels
        idx = np.arange(n + 1)
        uex = g.dt * np.broadcast_to(idx[None, :], field.u.shape)
        tri = field.live
        assert np.max(np.abs((field.u - uex)[tri])) < 1e-13
        # u_t = 1/2, u_x = 1/(2a) inside
        assert np.max(np.abs(field.p[tri] - 0.5)) < 1e-12
        assert np.max(np.abs(field.q[tri] - 0.5)) < 1e-12

    def test_constant_forcing_wedge_exact(self):
        spec = make_spec(F="1")
        field, _ = solve_wedge(spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        g = field.grid
        n = g.n_levels
        idx = np.arange(n + 1)
        ts = g.dt * (idx[:, None] + idx[None, :])
        tri = field.live
        assert np.max(np.abs((field.u - ts * ts / 2.0)[tri])) < 1e-12
        assert np.max(np.abs((field.p - ts)[tri])) < 1e-12
        assert np.max(np.abs(field.q[tri])) < 1e-12

    def test_apex_carries_assigned_value(self):
        spec = make_spec(phi1="0", phi2="1", A=0.3, F="t*x")
        field, _ = solve_wedge(spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        assert field.u[0, 0] == pytest.approx(0.3, abs=1e-12)

    def test_boundary_rows_reproduce_traces_exactly(self):
        spec = make_spec(phi1="x", phi2="x^2", A=0.5, F="t*x", psi2="cos(x)")
        field, tr = solve_wedge(spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        n = field.grid.n_levels
        lv = np.arange(n + 1)
        np.testing.assert_array_equal(field.u[lv, 0], tr.gamma1)
        np.testing.assert_array_equal(field.u[0, lv], tr.gamma2)

    def test_rectangle_integral_against_direct_sum(self):
        # for f = 0 the interior formula is boundary terms plus the double
        # integral of F over the characteristic rectangle; rebuild that
        # integral with explicitly coded trapezoid weights
        a = 2.0
        spec = make_spec(a=a, F="t*x + 1")
        gp = GridParams(T=1.0, x_lo=-5.0, x_hi=5.0, nt=8)
        field, tr = solve_wedge(spec, gp)
        g = field.grid
        hc = 2.0 * a * g.dt
        for s, r in ((3, 5), (7, 2), (6, 6), (1, 1)):
            wi = np.ones(s + 1)
            wi[0] = wi[-1] = 0.5
            wj = np.ones(r + 1)
            wj[0] = wj[-1] = 0.5
            if s == 0:
                wi[:] = 0.0
            if r == 0:
                wj[:] = 0.0
            ii = np.arange(s + 1)[:, None]
            jj = np.arange(r + 1)[None, :]
            tt = g.dt * (ii + jj)
            xx = g.x0 + g.dx * (jj - ii)
            H = tt * xx + 1.0
            P = hc * hc * float(wi @ H @ wj)
            expected = tr.gamma1[s] + tr.gamma2[r] - spec.A + P / (4 * a * a)
            assert field.u[s, r] == pytest.approx(expected, abs=1e-12)


class TestNonlinearWedge:
    def setup_method(self):
        self.spec = make_spec(
            phi1="sin(x)", phi2="sin(x)", psi1="-cos(x)", psi2="-cos(x)",
            F="sin(sin(x-t))", f="sin(u)", lipschitz=1.0,
        )

    def wedge(self, nt, picard=PicardParams()):
        return solve_wedge(self.spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=nt), picard)

    def test_matches_manufactured_solution(self):
        field, _ = self.wedge(32)
        g = field.grid
        n = g.n_levels
        idx = np.arange(n + 1)
        ts = g.dt * (idx[:, None] + idx[None, :])
        xs = g.dx * (idx[None, :] - idx[:, None])
        tri = field.live
        err = np.max(np.abs((field.u - np.sin(xs - ts))[tri]))
        assert err < 2e-3

    def test_stalled_iteration_raises(self):
        # the sides converge as usual; one sweep cannot settle a wedge band
        gp = GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8)
        tr = goursat_traces(self.spec, *solve_both_sides(self.spec, gp), diagnose(self.spec))
        with pytest.raises(NonConvergence, match=r"wedge band \[0, \d+\]") as err:
            solve_goursat_region(
                self.spec, tr, strip_plan(self.spec, tr.grid), PicardParams(max_iter=1)
            )
        assert err.value.last_update > 0.0

    def test_fixed_point_residual_small(self):
        field, tr = self.wedge(16, PicardParams(tol=1e-11))
        again = picard_step_goursat(self.spec, tr, field)
        tri = field.live
        assert np.max(np.abs((again.u - field.u)[tri])) < 5e-10
        assert np.max(np.abs((again.p - field.p)[tri])) < 5e-10
        assert np.max(np.abs((again.q - field.q)[tri])) < 5e-10

    def test_derivative_companions_consistent(self):
        def errs(nt):
            field, _ = self.wedge(nt)
            g = field.grid
            n = g.n_levels
            u, p, q = field.u, field.p, field.q
            idx = np.arange(1, n)
            ss, rr = np.meshgrid(idx, idx, indexing="ij")
            keep = ss + rr <= n - 2  # diagonal neighbours stay in triangle
            # t-derivative along (s,r) -> (s+1, r+1): dt step 2*dt
            fd_p = (u[2:, 2:] - u[:-2, :-2]) / (4 * g.dt)
            # x-derivative along (s,r) -> (s-1, r+1): dx step 2*dx
            fd_q = (u[:-2, 2:] - u[2:, :-2]) / (4 * g.dx)
            ep = np.max(np.abs((fd_p - p[1:-1, 1:-1])[keep]))
            eq = np.max(np.abs((fd_q - q[1:-1, 1:-1])[keep]))
            return ep, eq

        (p1, q1), (p2, q2) = errs(8), errs(16)
        assert p1 / p2 > 3.0
        assert q1 / q2 > 3.0

    def test_continuous_data_make_wedge_smooth_continuation(self):
        # with continuous data the three pieces are one smooth field; the
        # wedge must agree with the global manufactured solution at the same
        # order as the side solves
        e8 = self._sup_err(8)
        e16 = self._sup_err(16)
        assert e8 / e16 > 3.0

    def _sup_err(self, nt):
        field, _ = self.wedge(nt)
        g = field.grid
        n = g.n_levels
        idx = np.arange(n + 1)
        ts = g.dt * (idx[:, None] + idx[None, :])
        xs = g.dx * (idx[None, :] - idx[:, None])
        tri = field.live
        return np.max(np.abs((field.u - np.sin(xs - ts))[tri]))
