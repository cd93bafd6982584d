import math
import os
import signal
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charwave import _fork, assembly
from charwave.assembly import (
    CaseKind,
    characteristic_jump,
    classify_case,
    diagnose,
    evaluate,
    sample_user_grid,
    solve,
)
from charwave.cauchy import GridParams, PicardParams, ProblemSpec, build_grid
from charwave.errors import (
    CharwaveError,
    ConfigError,
    DomainError,
    ExprSyntaxError,
    NonConvergence,
    OutOfWindow,
    UnknownVariable,
)
from charwave.geometry import Region, classify_nodes, classify_point
from charwave.verify import check_definition1, linear_oracle

from helpers import CORPUS_NAMES, bench_like, kept_offsets, load_problem, make_spec


GP = GridParams(T=1.5, x_lo=-3.0, x_hi=3.0, nt=16)


class TestClassification:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(phi1="1", phi2="1+x", A=1.0),
            dict(phi1="x^2", phi2="x^2", A=0.0),
        ],
    )
    def test_continuous(self, kw):
        assert classify_case(make_spec(**kw)) is CaseKind.CONTINUOUS

    @pytest.mark.parametrize(
        "kw",
        [
            dict(phi1="0", phi2="1", A=0.5),
            dict(phi1="x", phi2="x+2", A=1.0),
            dict(phi1="-1", phi2="1", A=0.0),
        ],
    )
    def test_midpoint(self, kw):
        assert classify_case(make_spec(**kw)) is CaseKind.MIDPOINT_JUMP

    @pytest.mark.parametrize(
        "kw",
        [
            dict(phi1="0", phi2="1", A=1.0),
            dict(phi1="0", phi2="1", A=0.25),
            dict(phi1="2", phi2="tanh(x)", A=7.0),
        ],
    )
    def test_general(self, kw):
        assert classify_case(make_spec(**kw)) is CaseKind.GENERAL_JUMP

    def test_comparisons_are_exact(self):
        spec = make_spec(phi1="0", phi2="1", A=0.5 + 1e-13)
        assert classify_case(spec) is CaseKind.GENERAL_JUMP

    def test_generalized_dalembert_iff_midpoint_or_continuous(self):
        assert diagnose(make_spec()).generalized_dalembert
        assert diagnose(make_spec(phi1="0", phi2="1", A=0.5)).generalized_dalembert
        assert not diagnose(make_spec(phi1="0", phi2="1", A=1.0)).generalized_dalembert

    def test_case_names(self):
        assert CaseKind.CONTINUOUS.value == "Continuous"
        assert CaseKind.MIDPOINT_JUMP.value == "MidpointJump"
        assert CaseKind.GENERAL_JUMP.value == "GeneralJump"


class TestSolveOrchestration:
    def test_fields_cover_their_regions(self):
        sol = solve(make_spec(), GP)
        assert sol.field1.region is Region.Q1_STAR
        assert sol.field2.region is Region.Q2_STAR
        assert sol.field3.region is Region.Q3_STAR

    def test_diagnostics_coherent(self):
        spec = make_spec(phi1="0", phi2="1", A=1.0)
        sol = solve(spec, GP)
        d = sol.diagnostics
        assert d.phi1_at_x0 == 0.0
        assert d.phi2_at_x0 == 1.0
        assert d.left_jump_constant == 1.0
        assert d.right_jump_constant == 0.0
        assert d.case is CaseKind.GENERAL_JUMP
        assert not d.generalized_dalembert
        assert sol.lipschitz == 0.0

    def test_solve_memory(self):
        # every region solves in the packed rows it stores, so a whole
        # solve peaks just above the stored bytes
        spec, params, picard = load_problem("mixed_forcing")
        tracemalloc.start()
        try:
            sol = solve(spec, params, picard)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(f.w.shape[1] for f in (sol.field1, sol.field2, sol.field3))
        assert peak <= 1.2 * 3 * 8 * stored

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_dead_nodes_are_zero(self, solved, name):
        # a field stores its kept nodes and no other: the kept run of
        # offsets on a side's level i, the triangle s + r <= n_levels in the
        # wedge; the rectangles built on demand are 0 off them
        sol = solved[name]
        rows = sol.grid.n_levels + 1
        for side, field in ((1, sol.field1), (2, sol.field2)):
            kept = sum(len(kept_offsets(sol.grid, side, i)) for i in range(rows))
            assert field.w.shape == (3, kept)
        assert sol.field3.w.shape == (3, rows * (rows + 1) // 2)
        for field in (sol.field1, sol.field2, sol.field3):
            assert field.live.sum() == field.w.shape[1]
            for plane in (field.u, field.p, field.q):
                assert not np.any(plane[~field.live])

    def test_state_free_f_solves_in_one_sweep_per_band(self):
        # f reads t and x only: each band's first full sweep is the fixed
        # point, and the solve runs no other
        spec = make_spec(
            phi1="sin(x)", phi2="cos(x) - 1", psi1="x", psi2="1",
            F="t*x", f="sin(t*x)", lipschitz=1.0,
        )
        sol = solve(spec, GP)
        for field in (sol.field1, sol.field2, sol.field3):
            bands = len(field.report.strips)
            assert bands > 1 and field.report.iterations == (1,) * bands

    def test_solution_carries_inputs(self):
        spec = make_spec()
        picard = PicardParams(tol=1e-9)
        sol = solve(spec, GP, picard)
        assert sol.spec is spec
        assert sol.picard is picard


class TestEvaluate:
    def test_step_routes_by_region(self):
        sol = solve(make_spec(phi1="0", phi2="1", A=1.0), GP)
        u, _, _, reg = evaluate(sol, 1.0, -2.0)
        assert (u, reg) == (0.0, Region.Q1_STAR)
        u, _, _, reg = evaluate(sol, 1.0, 2.0)
        assert (u, reg) == (1.0, Region.Q2_STAR)
        u, _, _, reg = evaluate(sol, 1.0, 0.0)
        assert (u, reg) == (1.0, Region.Q3_STAR)

    def test_initial_point_carries_assigned_value(self):
        sol = solve(make_spec(phi1="0", phi2="1", A=0.25), GP)
        u, _, _, reg = evaluate(sol, 0.0, 0.0)
        assert u == pytest.approx(0.25, abs=1e-12)
        assert reg is Region.Q3_STAR

    def test_out_of_window(self):
        sol = solve(make_spec(), GP)
        for t, x in ((-0.1, 0.0), (2.0, 0.0), (1.0, -3.5), (1.0, 3.5)):
            with pytest.raises(OutOfWindow):
                evaluate(sol, t, x)

    def test_quadratic_field_everywhere(self):
        a = 1.0
        sol = solve(make_spec(phi1="x^2", phi2="x^2"), GP)
        rng = np.random.default_rng(7)
        for _ in range(60):
            t = float(rng.uniform(0.0, 1.5))
            x = float(rng.uniform(-2.9, 2.9))
            u, p, q, _ = evaluate(sol, t, x)
            assert u == pytest.approx(x * x + a * a * t * t, abs=5e-3)
            assert p == pytest.approx(2 * a * a * t, abs=5e-3)
            assert q == pytest.approx(2 * x, abs=5e-3)

    def test_interpolation_second_order(self):
        spec = make_spec(phi1="x^2", phi2="x^2")
        pts = [(0.37, -1.234), (0.91, 0.05), (1.21, 1.456)]

        def err(nt):
            sol = solve(spec, GridParams(T=1.5, x_lo=-3.0, x_hi=3.0, nt=nt))
            return max(
                abs(evaluate(sol, t, x)[0] - (x * x + t * t)) for t, x in pts
            )

        assert err(8) / err(16) > 3.0

    def test_matches_node_values(self):
        sol = solve(make_spec(psi2="1"), GP)
        times, xs, region, u, p, q = sample_user_grid(sol)
        for i in (0, 5, 11, 16):
            for j in (0, 17, 32, 33, 34, 48, 64):
                got = evaluate(sol, float(times[i]), float(xs[j]))
                assert got[0] == pytest.approx(u[i, j], abs=1e-13)
                assert got[1] == pytest.approx(p[i, j], abs=1e-13)
                assert got[2] == pytest.approx(q[i, j], abs=1e-13)
                assert got[3].value == region[i, j]


class TestJumps:
    def test_step_jumps_at_all_times(self):
        sol = solve(make_spec(phi1="0", phi2="1", A=1.0), GP)
        for t in (0.1, 0.5, 0.75, 1.0, 1.5):
            assert characteristic_jump(sol, t, "left") == pytest.approx(1.0, abs=1e-12)
            assert characteristic_jump(sol, t, "right") == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_jumps_split_evenly(self):
        sol = solve(make_spec(phi1="0", phi2="1", A=0.5), GP)
        assert characteristic_jump(sol, 1.0, "left") == pytest.approx(0.5, abs=1e-12)
        assert characteristic_jump(sol, 1.0, "right") == pytest.approx(0.5, abs=1e-12)

    def test_bad_side_rejected(self):
        sol = solve(make_spec(), GP)
        with pytest.raises(ConfigError):
            characteristic_jump(sol, 1.0, "up")

    def test_time_must_be_positive_inside_window(self):
        sol = solve(make_spec(), GP)
        with pytest.raises(OutOfWindow):
            characteristic_jump(sol, 0.0, "left")
        with pytest.raises(OutOfWindow):
            characteristic_jump(sol, 2.0, "left")

    def test_smooth_problem_jump_vanishes_at_third_order(self):
        # continuous curved data: the measured jump is pure extrapolation
        # error of the one-sided limits and shrinks faster than h^2
        spec = make_spec(
            phi1="sin(x)", phi2="sin(x)", psi1="-cos(x)", psi2="-cos(x)",
            F="sin(sin(x-t))", f="sin(u)", lipschitz=1.0,
        )

        def jmax(nt):
            sol = solve(spec, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=nt))
            return max(
                abs(characteristic_jump(sol, t, s))
                for t in (0.25, 0.5, 1.0)
                for s in ("left", "right")
            )

        j8, j16 = jmax(8), jmax(16)
        assert j8 < 1e-3
        assert j8 / j16 > 3.0

    @pytest.mark.parametrize("f", ["0", "sin(u)/3"], ids=["one-band", "bands-with-feedback"])
    def test_characteristic_that_leaves_the_window(self, f):
        # the left characteristic leaves the window [-0.5, 3] at t = 0.5; side
        # 1 then keeps only its strip, which still solves, audits and gives
        # the jump at t = T
        spec = make_spec(A=0.5, phi1="sin(x)", phi2="1 + x^2", psi1="x", F="t*x", f=f)
        sol = solve(spec, GridParams(T=1.5, x_lo=-0.5, x_hi=3.0, nt=16))
        m = sol.grid.n_levels
        level, offset = sol.field1.nodes()
        np.testing.assert_array_equal(offset[level == m], np.arange(-m - 3, -m + 1))
        assert check_definition1(sol).passed
        for side in ("left", "right"):
            assert characteristic_jump(sol, 1.5, side) == pytest.approx(0.5, abs=1e-3)


class TestSampleUserGrid:
    def test_shapes_and_axes(self):
        sol = solve(make_spec(), GP)
        times, xs, region, u, p, q = sample_user_grid(sol)
        g = sol.grid
        assert times.shape == (g.nt + 1,)
        assert xs.shape == (g.n_left + g.n_right + 1,)
        for arr in (region, u, p, q):
            assert arr.shape == (times.size, xs.size)

    def test_region_codes_match_classifier(self):
        sol = solve(make_spec(x0=0.25), GridParams(T=1.0, x_lo=-2.0, x_hi=2.5, nt=12))
        times, xs, region, *_ = sample_user_grid(sol)
        g = sol.grid
        for i, t in enumerate(times):
            for j, x in enumerate(xs):
                assert region[i, j] == classify_point(g.a, g.x0, float(t), float(x)).value

    def test_initial_row_is_data(self):
        spec = make_spec(phi1="sin(x)", phi2="x^2", A=5.0)
        sol = solve(spec, GP)
        times, xs, region, u, p, q = sample_user_grid(sol)
        for j, x in enumerate(xs):
            if x < 0:
                assert u[0, j] == pytest.approx(np.sin(x), abs=1e-14)
            elif x > 0:
                assert u[0, j] == pytest.approx(x * x, abs=1e-14)
            else:
                assert u[0, j] == 5.0

    def test_wedge_values_read_from_wedge_field(self):
        sol = solve(make_spec(phi1="0", phi2="1", A=1.0), GP)
        times, xs, region, u, *_ = sample_user_grid(sol)
        inside = region == 3
        assert inside.any()
        np.testing.assert_allclose(u[inside], 1.0, atol=1e-13)

    # with a = 0.3 and this x0 the x of some characteristic user nodes rounds
    # to a point an ulp off the characteristic
    ULP_OFF = dict(a=0.3, x0=-1.6245616529030604, phi1="0", phi2="1", A=0.5)

    def _solve_at_nt16(self, name):
        if name == "ulp_off":
            spec = make_spec(**self.ULP_OFF)
            gp = GridParams(T=1.0, x_lo=-3.0, x_hi=0.0, nt=16)
        else:
            spec, gp, _ = load_problem(name)
            gp = replace(gp, nt=16)
        return solve(spec, gp)

    @pytest.mark.parametrize("name", ["ulp_off", "mixed_forcing", "manufactured", "phi_step_general"])
    def test_evaluate_at_the_csv_nodes(self, name):
        """``evaluate`` classifies a point as given, ``sample_user_grid`` a
        node exactly.  Off the characteristics they agree in region and u; on
        them ``evaluate`` may read the adjacent side's field at the node."""
        sol = self._solve_at_nt16(name)
        times, xs, region, u, *_ = sample_user_grid(sol)
        offsets = sol.grid.user_offsets()
        moved = []
        for i, t in enumerate(times):
            for j, x in enumerate(xs):
                got, _, _, reg = evaluate(sol, float(t), float(x))
                if reg.value == region[i, j]:
                    assert got == u[i, j]
                    continue
                level, offset = 2 * i, offsets[j]
                assert region[i, j] == 3 and level > 0
                side, on = (sol.field1, -level) if reg is Region.Q1_STAR else (sol.field2, level)
                assert offset == on
                assert got == side.at(level, offset)[0]
                moved.append((float(t), float(x)))
        if name == "ulp_off":
            assert len(moved) == 14
            assert (0.0625, -1.6433116529030605) in moved
        else:
            assert not moved

    @pytest.mark.parametrize("name", ["ulp_off", "mixed_forcing", "phi_step_general"])
    def test_levels_read_the_rows_of_the_whole_grid(self, name):
        # a level index reads exactly the bits of the whole-grid rows it
        # picks, on the characteristics too
        sol = self._solve_at_nt16(name)
        whole = sample_user_grid(sol)
        picks = [*range(sol.grid.nt + 1), slice(2, 5), -1]
        for levels in picks:
            want = (whole[0][levels], whole[1], *(a[levels] for a in whole[2:]))
            for got, ref in zip(sample_user_grid(sol, levels), want):
                got, ref = np.asarray(got), np.asarray(ref)
                assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


    @pytest.mark.parametrize("name", ["ulp_off", "mixed_forcing", "phi_step_general"])
    def test_levels_read_each_node_from_its_region(self, name):
        # the per-level slices and gathers hold, bit for bit, what
        # RegionField.at reads at each node from the region classify_nodes
        # gives it (the masked reader the slices replaced)
        sol = self._solve_at_nt16(name)
        times, xs, region, u, p, q = sample_user_grid(sol)
        level, offset = np.broadcast_arrays(
            2 * np.arange(sol.grid.nt + 1)[:, None], sol.grid.user_offsets()
        )
        assert region.tobytes() == classify_nodes(level, offset).tobytes()
        want = np.empty((3, *region.shape))
        for field in (sol.field1, sol.field2, sol.field3):
            on = region == field.region.value
            assert on.any()
            want[:, on] = field.at(level[on], offset[on])
        assert np.stack((u, p, q)).tobytes() == want.tobytes()

def _same_solution(a, b) -> None:
    for field in ("field1", "field2", "field3"):
        fa, fb = getattr(a, field), getattr(b, field)
        assert fa.w.tobytes() == fb.w.tobytes()
        assert fa.report == fb.report


class TestSideTwoInAChild:
    """``solve`` solves side 2 as the second part of ``_fork.both``: in a
    child process at ``_fork.FLOOR`` user nodes or more while no second
    thread runs, in this one otherwise; the two give the same bits."""

    @pytest.mark.parametrize("name", [*CORPUS_NAMES, "bench_like"])
    def test_forked_solve_is_the_in_process_solve(self, monkeypatch, forks, name):
        problem = bench_like() if name == "bench_like" else load_problem(name)
        sols = []
        for floor in (0, math.inf):
            monkeypatch.setattr(_fork, "FLOOR", floor)
            sols.append(solve(*problem))
        assert len(forks) == 1
        _same_solution(*sols)

    def test_forked_solve_with_sigchld_ignored(self, monkeypatch, forks, sigchld_ignored):
        # the kernel reaps the child; its whole outcome is still taken
        sols = []
        for floor in (0, math.inf):
            monkeypatch.setattr(_fork, "FLOOR", floor)
            sols.append(solve(*bench_like()))
        assert len(forks) == 1
        _same_solution(*sols)

    @pytest.mark.parametrize(
        "data, picard, error, message",
        [
            (dict(phi2="1", f="5*max(x, 0)*u", lipschitz=1e-9),
             PicardParams(tol=1e-12, max_iter=3), NonConvergence, "stalled"),
            (dict(psi2="sqrt(x - 0.5)"), PicardParams(), DomainError, "sqrt"),
        ],
        ids=["nonconvergence", "domain"],
    )
    def test_side2_error_is_raised_again(self, monkeypatch, forks, data, picard, error, message):
        # side 1 (x <= 0) solves, side 2 fails: in the child, then in-process
        raised = []
        for floor in (0, math.inf):
            monkeypatch.setattr(_fork, "FLOOR", floor)
            with pytest.raises(error, match=message) as err:
                solve(make_spec(**data), GP, picard)
            raised.append(err.value)
        assert len(forks) == 1
        forked, local = raised
        assert type(forked) is type(local)
        assert forked.args == local.args and vars(forked) == vars(local)
        if error is NonConvergence:
            assert forked.last_update == local.last_update > 0.0

    @pytest.mark.parametrize(
        "error",
        [UnknownVariable("y", 3), ExprSyntaxError("bad token", 2), MemoryError("no room"),
         NonConvergence("stalled", last_update=2.5)],
        ids=lambda e: type(e).__name__,
    )
    def test_join_raises_the_childs_error_again(self, monkeypatch, forks, error):
        # the error is rebuilt from its args and attributes, not its __init__
        def fail():
            raise error

        monkeypatch.setattr(_fork, "FLOOR", 0)
        with pytest.raises(type(error)) as err:
            _fork.both(0, lambda: None, fail)
        assert len(forks) == 1
        assert err.value.args == error.args and vars(err.value) == vars(error)
        assert str(err.value) == str(error)

    def test_an_error_that_cannot_be_pickled_is_named(self, monkeypatch, forks):
        # a locally defined class cannot be pickled back; its name and message
        # still reach the caller
        class Local(Exception):
            pass

        def fail():
            raise Local("the reference broke")

        monkeypatch.setattr(_fork, "FLOOR", 0)
        with pytest.raises(CharwaveError) as err:
            _fork.both(0, lambda: None, fail)
        assert len(forks) == 1
        assert type(err.value) is CharwaveError
        assert f"{Local.__qualname__}: the reference broke" in str(err.value)
        assert "pickle" in str(err.value)

    def test_child_killed_by_a_signal(self, monkeypatch, forks):
        real = assembly.solve_cauchy_region

        def side(spec, side, *args, **kwargs):
            if side == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec, side, *args, **kwargs)

        monkeypatch.setattr(assembly, "solve_cauchy_region", side)
        monkeypatch.setattr(_fork, "FLOOR", 0)
        with pytest.raises(CharwaveError, match="killed by signal 9"):
            solve(make_spec(), GP)
        assert len(forks) == 1

    def test_child_killed_with_sigchld_ignored(self, monkeypatch, forks, sigchld_ignored):
        # no wait status and no whole outcome: nothing tells what happened
        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(_fork, "FLOOR", 0)
        with pytest.raises(CharwaveError, match="reaped elsewhere"):
            _fork.both(0, lambda: None, die)
        assert len(forks) == 1

    @pytest.mark.parametrize("ignored", [False, True], ids=["default", "sigchld_ignored"])
    def test_error_here_after_the_child_ended(self, request, monkeypatch, forks, ignored):
        # the child has ended, and with SIGCHLD ignored has been reaped,
        # before the caller's part fails: the kill and the reap find nothing.
        # A reaped child's pid may be another process's by then, so no signal
        # goes by pid
        if ignored:
            request.getfixturevalue("sigchld_ignored")

        def late():
            time.sleep(0.5)
            raise NonConvergence("side 1 failed", last_update=1.0)

        def kill(pid, sig):
            raise AssertionError(f"signal {sig} sent to pid {pid}")

        monkeypatch.setattr(_fork, "FLOOR", 0)
        monkeypatch.setattr(os, "kill", kill)
        with pytest.raises(NonConvergence, match="side 1 failed"):
            _fork.both(0, late, lambda: 42)
        assert len(forks) == 1

    def test_a_child_never_forks(self, monkeypatch, forks):
        monkeypatch.setattr(_fork, "FLOOR", 0)
        assert _fork.both(0, lambda: None, lambda: _fork.forks(10**9)) == (None, False)
        assert len(forks) == 1
        assert _fork.forks(10**9)

    def test_side1_error_kills_the_child(self, monkeypatch, forks):
        # side 2 would take a minute; side 1's error stops and reaps it
        def side(spec, side, *args, **kwargs):
            if side == 2:
                time.sleep(60.0)
            raise NonConvergence("side 1 failed", last_update=1.0)

        monkeypatch.setattr(assembly, "solve_cauchy_region", side)
        monkeypatch.setattr(_fork, "FLOOR", 0)
        started = time.monotonic()
        with pytest.raises(NonConvergence, match="side 1 failed"):
            solve(make_spec(), GP)
        assert time.monotonic() - started < 30.0
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_no_fork_while_a_second_thread_runs(self, monkeypatch, forks):
        monkeypatch.setattr(_fork, "FLOOR", 0)
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            solve(make_spec(phi2="1"), GP)
        finally:
            release.set()
            worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert forks == []

    def test_no_fork_below_the_floor(self, forks):
        spec = make_spec(phi2="1")
        assert build_grid(spec, GP).user_nodes < _fork.FLOOR
        solve(spec, GP)
        assert forks == []


_HALVES = st.integers(-4, 4).map(lambda k: k / 2.0)
_COEFFS = st.lists(_HALVES, min_size=3, max_size=3)


def _quadratic(coeffs) -> str:
    return " + ".join(f"({c!r})*x^{k}" for k, c in enumerate(coeffs))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    a=st.sampled_from([0.5, 1.0, 2.0]),
    x0=st.integers(-2, 2).map(lambda k: k / 4.0),
    A=_HALVES,
    data=st.fixed_dictionaries({k: _COEFFS for k in ("phi1", "phi2", "psi1", "psi2")}),
    forcing=_COEFFS,
    nt=st.sampled_from([8, 16, 32]),
    points=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8),
)
def test_solve_matches_linear_oracle(a, x0, A, data, forcing, nt, points):
    """Piecewise-quadratic data, linear forcing and f = 0: solve plus
    evaluate stay within c*h^2 of the closed-form quadrature at any point off
    the characteristics (c = 1 per unit of total coefficient magnitude)."""
    f0, f1, f2 = forcing
    spec = ProblemSpec.from_strings(
        a=a, x0=x0, A=A, F=f"({f0!r}) + ({f1!r})*t + ({f2!r})*x",
        **{k: _quadratic(c) for k, c in data.items()},
    )
    sol = solve(spec, GridParams(T=1.0, x_lo=x0 - 2.0, x_hi=x0 + 2.0, nt=nt))
    g = sol.grid
    h = g.dt_user
    scale = 1.0 + sum(abs(c) for cs in data.values() for c in cs) + sum(map(abs, forcing))
    for ft, fx in points:
        t = ft * g.T
        x = min(max(g.x_lo + fx * (g.x_hi - g.x_lo), g.x_lo), g.x_hi)
        if min(abs(x - x0 - a * t), abs(x - x0 + a * t)) < 1e-9:
            continue  # u jumps across the characteristics
        err = abs(evaluate(sol, t, x)[0] - linear_oracle(spec, t, x))
        assert err <= h * h * scale, (t, x, err)
