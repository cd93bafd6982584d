import tracemalloc

import numpy as np
import pytest

import charwave.expr as ex
from charwave.assembly import diagnose, solve
from charwave.cauchy import GridParams, PicardParams, _picard
from charwave.errors import ConfigError, NonConvergence
from charwave.goursat import goursat_traces, solve_goursat_region

from helpers import load_problem, make_spec, solve_side, strip_plan


def solve_both_sides(spec, gp, picard=PicardParams()):
    f1 = solve_side(spec, 1, gp, picard)
    f2 = solve_side(spec, 2, gp, picard)
    return f1, f2


def solve_wedge(spec, gp, picard=PicardParams()):
    tr = goursat_traces(spec, *solve_both_sides(spec, gp, picard), diagnose(spec))
    return solve_goursat_region(spec, tr, strip_plan(spec, tr.grid, picard), picard), tr


def lattice(field):
    """(s, r) of each node the wedge ``field`` stores, in the order of
    ``field.w``: node (s, r) is at level s + r and offset r - s."""
    level, offset = field.nodes()
    return (level - offset) // 2, (level + offset) // 2


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
        u, p, q = field.w
        assert np.max(np.abs(u - 1.0)) < 1e-13
        assert np.max(np.abs(p)) < 1e-13
        assert np.max(np.abs(q)) < 1e-13

    def test_psi_step_wedge_closed_form(self):
        # u = (x + a t)/2a in the wedge; on the lattice that is r*dt
        spec = make_spec(psi2="1")
        field, _ = solve_wedge(spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        _, r = lattice(field)
        u, p, q = field.w
        assert np.max(np.abs(u - field.grid.dt * r)) < 1e-13
        # u_t = 1/2, u_x = 1/(2a) inside
        assert np.max(np.abs(p - 0.5)) < 1e-12
        assert np.max(np.abs(q - 0.5)) < 1e-12

    def test_constant_forcing_wedge_exact(self):
        spec = make_spec(F="1")
        field, _ = solve_wedge(spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        s, r = lattice(field)
        ts = field.grid.dt * (s + r)
        u, p, q = field.w
        assert np.max(np.abs(u - ts * ts / 2.0)) < 1e-12
        assert np.max(np.abs(p - ts)) < 1e-12
        assert np.max(np.abs(q)) < 1e-12

    def test_apex_carries_assigned_value(self):
        spec = make_spec(phi1="0", phi2="1", A=0.3, F="t*x")
        field, _ = solve_wedge(spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        assert field.at(0, 0)[0] == pytest.approx(0.3, abs=1e-12)

    def test_boundary_rows_reproduce_traces_exactly(self):
        spec = make_spec(phi1="x", phi2="x^2", A=0.5, F="t*x", psi2="cos(x)")
        field, tr = solve_wedge(spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        n = field.grid.n_levels
        lv = np.arange(n + 1)
        np.testing.assert_array_equal(field.at(lv, -lv)[0], tr.gamma1)  # nodes (lv, 0)
        np.testing.assert_array_equal(field.at(lv, lv)[0], tr.gamma2)  # nodes (0, lv)

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
            assert field.at(s + r, r - s)[0] == pytest.approx(expected, abs=1e-12)


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
        assert self._sup_err(field) < 2e-3

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
        picard = PicardParams(tol=1e-11)
        field, _ = self.wedge(16, picard)
        for norms in field.report.update_norms:
            # each band stops on a sweep that moved no node by more than tol
            assert norms[-1] <= picard.tol
            assert all(cur < prev for prev, cur in zip(norms, norms[1:]))

    def test_derivative_companions_consistent(self):
        def errs(nt):
            field, _ = self.wedge(nt)
            g = field.grid
            s, r = lattice(field)
            keep = (s >= 1) & (r >= 1) & (s + r <= g.n_levels - 2)  # neighbours stay in triangle
            s, r = s[keep], r[keep]
            level, offset = s + r, r - s
            _, p, q = field.at(level, offset)

            def u(dl, do):
                return field.at(level + dl, offset + do)[0]

            # t-derivative along (s,r) -> (s+1, r+1): dt step 2*dt
            fd_p = (u(2, 0) - u(-2, 0)) / (4 * g.dt)
            # x-derivative along (s,r) -> (s-1, r+1): dx step 2*dx
            fd_q = (u(0, 2) - u(0, -2)) / (4 * g.dx)
            ep = np.max(np.abs(fd_p - p))
            eq = np.max(np.abs(fd_q - q))
            return ep, eq

        (p1, q1), (p2, q2) = errs(8), errs(16)
        assert p1 / p2 > 3.0
        assert q1 / q2 > 3.0

    def test_continuous_data_make_wedge_smooth_continuation(self):
        # with continuous data the three pieces are one smooth field; the
        # wedge must agree with the global manufactured solution at the same
        # order as the side solves
        e8 = self._sup_err(self.wedge(8)[0])
        e16 = self._sup_err(self.wedge(16)[0])
        assert e8 / e16 > 3.0

    @staticmethod
    def _sup_err(field):
        g = field.grid
        s, r = lattice(field)
        ts = g.dt * (s + r)
        xs = g.dx * (r - s)
        return np.max(np.abs(field.w[0] - np.sin(xs - ts)))


def _cumtrapz_whole(values, h):
    """Running composite trapezoid along the last axis, starting at 0."""
    pads = list(values.shape)
    pads[-1] = 1
    inner = h * 0.5 * (values[..., 1:] + values[..., :-1])
    return np.concatenate([np.zeros(pads), np.cumsum(inner, axis=-1)], axis=-1)


def _whole_block_map(spec, traces, b, block):
    """One sweep of the wedge map in whole-block form on band (b, e], in place
    on ``block``, the (3, R, R) view of the lattice block [0..e]^2: H on the
    block's live triangle (0 past it), the three prefix sums and the
    candidates on the whole block, then each row s writes its band nodes
    r in [max(b + 1 - s, 0), e - s].  Returns ``sweep(feedback)``."""
    g = traces.grid
    a = g.a
    hc = 2.0 * a * g.dt
    R = block.shape[1]
    k = np.arange(R)
    live = k[:, None] + k[None, :] < R
    s, r = np.nonzero(live)
    env = {"t": (s + r) * g.dt, "x": g.x0 + (r - s) * g.dx}
    F = ex.evaluate(spec.F, env)
    H = np.zeros((R, R))
    g1 = traces.gamma1[:R, None]
    g2 = traces.gamma2[None, :R]
    dg1 = traces.dgamma1[:R, None]
    dg2 = traces.dgamma2[None, :R]

    def sweep(feedback):
        u_c = g1 + g2 - traces.apex
        p_c = (dg1 + dg2) * 0.5
        q_c = (dg2 - dg1) / (2.0 * a)
        if feedback:
            env.update(u=block[0][live], ut=block[1][live], ux=block[2][live])
            H[live] = F - ex.evaluate(spec.f, env)
            jrow = np.swapaxes(_cumtrapz_whole(np.swapaxes(H, 0, 1), hc), 0, 1)
            jcol = _cumtrapz_whole(H, hc)
            u_c = u_c + _cumtrapz_whole(jrow, hc) / (4.0 * a * a)
            p_c = p_c + (jrow + jcol) / (4.0 * a)
            q_c = q_c + (jrow - jcol) / (4.0 * a * a)
        cand = np.stack([u_c, p_c, q_c])
        upd = 0.0
        for s_ in range(R):
            band = slice(max(b + 1 - s_, 0), R - s_)
            upd = max(upd, abs(cand[:, s_, band] - block[:, s_, band]).max())
            block[:, s_, band] = cand[:, s_, band]
        return upd

    return sweep


def _whole_block_solve(spec, traces, strips, picard, feeds_back=None):
    """The wedge solve marched with whole-block sweeps: every sweep of band
    (b, e] rebuilds its prefix sums from the final nodes below the band.
    Returns the stacked (u, u_t, u_x) on the square (3, s, r), nodes
    s + r <= n_levels, and the update norms per band; ``feeds_back``
    overrides whether the Picard driver iterates."""
    if feeds_back is None:
        feeds_back = spec.f_reads_state
    g = traces.grid
    n = g.n_levels + 1
    W = np.zeros((3, n, n))
    W[:, 0, 0] = (
        traces.gamma1[0],
        0.5 * (traces.dgamma1[0] + traces.dgamma2[0]),
        (traces.dgamma2[0] - traces.dgamma1[0]) / (2.0 * g.a),
    )
    norms = []
    for b, e in strips:
        sweep = _whole_block_map(spec, traces, b, W[:, : e + 1, : e + 1])
        norms.append(_picard(sweep, feeds_back, picard, "reference band"))
        ks = np.arange(b + 1, e + 1)
        W[0, ks, 0] = traces.gamma1[ks]
        W[0, 0, ks] = traces.gamma2[ks]
    return W, tuple(norms)


def _at_nodes(W, field):
    """The square ``W`` (3, s, r) read at the nodes that the wedge ``field``
    stores, in the order of ``field.w``."""
    return W[(slice(None), *lattice(field))]


class TestWedgeKernel:
    @staticmethod
    def assert_matches_whole_block(sol):
        field = sol.field3
        ref, norms = _whole_block_solve(sol.spec, sol.traces, field.report.strips, sol.picard)
        # bit for bit, signed zeros included
        np.testing.assert_array_equal(field.w.view(np.uint64), _at_nodes(ref, field).view(np.uint64))
        assert field.report.update_norms == norms

    @pytest.mark.parametrize("name, n_strips", [("manufactured", 6), ("mixed_forcing", 1)])
    def test_carried_prefixes_match_whole_block_sweeps(self, solved, name, n_strips):
        assert len(solved[name].field3.report.strips) == n_strips
        self.assert_matches_whole_block(solved[name])

    def test_carry_reads_the_pinned_boundary(self):
        # with A far from 0 the converged candidates miss the traces by
        # rounding, so a base taken before the pinning would move the bits
        A = float(np.sin(1.0))
        spec = make_spec(
            A=A, phi1="sin(3*x + 1)", phi2="sin(3*x + 1)", psi1="-3*cos(3*x + 1)",
            psi2="-3*cos(3*x + 1)", F="sin(sin(3*(x - t) + 1))", f="sin(u)", lipschitz=1.0,
        )
        sol = solve(spec, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=24))
        assert len(sol.field3.report.strips) > 1
        self.assert_matches_whole_block(sol)

    def test_state_free_f_single_sweep_is_the_fixed_point(self):
        # f reads t and x only: iterated as if f fed back, the reference
        # stops on a sweep that moves nothing and ends on the solve's bits;
        # H = F - f is 1 at the vertex, so the first band's base counts
        spec = make_spec(
            phi1="sin(x)", phi2="cos(x) - 1", psi1="x", psi2="1",
            F="t*x + 1", f="sin(t*x)", lipschitz=1.0,
        )
        sol = solve(spec, GridParams(T=1.5, x_lo=-3.0, x_hi=3.0, nt=16))
        field = sol.field3
        assert len(field.report.strips) > 1
        ref, norms = _whole_block_solve(
            spec, sol.traces, field.report.strips, sol.picard, feeds_back=True
        )
        assert all(band[-1] == 0.0 for band in norms)
        np.testing.assert_array_equal(_at_nodes(ref, field).view(np.uint64), field.w.view(np.uint64))

    def test_state_free_single_band_is_sub_banded_with_its_bits(self):
        # f reads t and x only and L = 0: one planned band, one norm, its
        # sweep marched in sub-bands that keep the whole block's bits
        spec = make_spec(
            phi1="sin(x)", phi2="cos(x) - 1", psi1="x", psi2="1", F="t*x + 1", f="sin(t*x)",
        )
        sol = solve(spec, GridParams(T=1.5, x_lo=-3.0, x_hi=3.0, nt=16))
        report = sol.field3.report
        assert report.strips == ((0, 32),)
        assert len(report.update_norms) == 1 and report.iterations == (1,)
        self.assert_matches_whole_block(sol)

    def test_sub_banded_error_names_the_planned_band(self):
        # the first sub-band overflows; the error names the band of the plan
        gp = GridParams(T=10.0, x_lo=-1.0, x_hi=1.0, nt=8)
        spec = make_spec()
        traces = goursat_traces(spec, *solve_both_sides(spec, gp), diagnose(spec))
        with pytest.raises(NonConvergence, match=r"on wedge band \[0, 16\] left the floating-point"):
            solve_goursat_region(make_spec(F="1e308"), traces, ((0, 16),), PicardParams())

    def test_single_strip_wedge_solve_memory(self):
        # sub-bands keep temporaries over a few levels, not over the band;
        # the bound is on the packed triangle the solve works in and
        # returns; a solve in the (n, n) square fails it
        spec, params, picard = load_problem("mixed_forcing")
        f1 = solve_side(spec, 1, params, picard)
        f2 = solve_side(spec, 2, params, picard)
        traces = goursat_traces(spec, f1, f2, diagnose(spec))
        strips = strip_plan(spec, traces.grid, picard)
        assert len(strips) == 1
        tracemalloc.start()
        try:
            field = solve_goursat_region(spec, traces, strips, picard)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = traces.grid.n_levels + 1
        assert peak <= 2.3 * 3 * 8 * n * (n + 1) // 2

    def test_multi_strip_wedge_solve_memory(self):
        # sweeps keep band-size temporaries, not ones over the (e+1)^2 block;
        # the bound is on the packed triangle the solve works in
        spec, params, picard = load_problem("manufactured")
        f1 = solve_side(spec, 1, params, picard)
        f2 = solve_side(spec, 2, params, picard)
        traces = goursat_traces(spec, f1, f2, diagnose(spec))
        strips = strip_plan(spec, traces.grid, picard)
        assert len(strips) > 1
        tracemalloc.start()
        try:
            field = solve_goursat_region(spec, traces, strips, picard)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = traces.grid.n_levels + 1
        assert peak <= 3.0 * 3 * 8 * n * (n + 1) // 2
