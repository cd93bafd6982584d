import gc
import json
import math
import os
import select
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charwave.assembly as assembly
import charwave.expr as ex
import charwave.verify as verify
from charwave import _fork
from charwave.assembly import solve
from charwave.cauchy import GridParams, PicardParams, build_grid
from charwave.errors import ConfigError, DomainError, NegativeTime, NonConvergence, NotLinear
from charwave.geometry import Region, classify_point
from charwave.verify import (
    ConvergenceEntry,
    ConvergenceStudy,
    _field_scale,
    check_definition1,
    convergence_study,
    inject_fault,
    linear_oracle,
    probe_points,
)

from helpers import kept_offsets, load_problem, make_spec


def refine_like():
    """(spec, grid, picard) of a problem shaped like the benchmark's
    refine_study (piecewise-quadratic data jumping at x0, A off the
    midpoint, quadratic F, f = 0), at nt = 16."""
    spec = make_spec(
        A=0.55, phi1="0.3 + 0.1*x + 0.4*x^2", phi2="1.3 - 0.2*x + 0.4*x^2",
        psi1="0.1 + 0.2*x - 0.3*x^2", psi2="-0.2 - 0.2*x - 0.3*x^2", F="t*x + 0.5*x^2 + 0.25",
    )
    return spec, GridParams(T=1.5, x_lo=-3.0, x_hi=3.0, nt=16), PicardParams()


CHECK_NAMES = ("initial_u", "initial_ut", "pde_residual", "goursat_traces", "jump_constancy")


class TestLinearOracle:
    def test_psi_step_midpoint_value(self):
        spec = make_spec(psi2="1")
        assert linear_oracle(spec, 1.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_quadratic_data(self):
        spec = make_spec(phi1="x^2", phi2="x^2")
        assert linear_oracle(spec, 1.0, 2.0) == pytest.approx(5.0, abs=1e-12)

    def test_forcing_only(self):
        spec = make_spec(F="t*x")
        t, x = 0.8, 1.7
        assert linear_oracle(spec, t, x) == pytest.approx(x * t**3 / 6.0, abs=1e-6)

    def test_step_jump_term(self):
        spec = make_spec(phi1="0", phi2="1", A=1.0)
        # wedge point: the indicator term lifts the average to A
        assert linear_oracle(spec, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert linear_oracle(spec, 1.0, 0.0, include_jump_term=False) == pytest.approx(
            0.5, abs=1e-12
        )
        # outside the wedge the indicator does nothing
        assert linear_oracle(spec, 1.0, 2.5) == pytest.approx(1.0, abs=1e-12)
        assert linear_oracle(spec, 1.0, -2.5) == pytest.approx(0.0, abs=1e-12)

    def test_initial_point_is_assigned_value(self):
        spec = make_spec(phi1="0", phi2="1", A=0.25)
        assert linear_oracle(spec, 0.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_nonlinear(self):
        with pytest.raises(NotLinear):
            linear_oracle(make_spec(f="sin(u)"), 1.0, 0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(NegativeTime):
            linear_oracle(make_spec(), -0.5, 0.0)

    def test_speed_scaling(self):
        # a = 2, psi = 1 both sides: u = (1/2a) * 2at = t
        spec = make_spec(a=2.0, psi1="1", psi2="1")
        assert linear_oracle(spec, 0.7, 0.3) == pytest.approx(0.7, abs=1e-12)

    def test_point_just_left_of_the_characteristic_is_side_1(self):
        # (x - x0) + a*t < 0, so region 1, although x + a*t rounds to x0
        spec = make_spec(a=0.3, x0=-1.6245616529030604, phi1="0", phi2="1", A=0.5)
        t, x = 0.05669495304401262, -1.6415701388162642
        assert classify_point(spec.a, spec.x0, t, x) is Region.Q1_STAR
        assert linear_oracle(spec, t, x) == 0.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    a=st.sampled_from((0.3, 1.0, 2.5)),
    x0=st.floats(-2.0, 2.0),
    t=st.floats(0.0, 2.0, exclude_min=True),
    sign=st.sampled_from((-1, 1)),
    k=st.integers(-3, 3),
)
@example(a=0.3, x0=-1.6245616529030604, t=0.05669495304401262, sign=-1, k=0)
def test_oracle_region_near_characteristics_is_classify_points(a, x0, t, sign, k):
    # x within 3 ulps of the characteristic x = x0 + sign*a*t; the data make
    # the value name the region: phi1 on side 1, phi2 on side 2, A in the wedge
    x = x0 + sign * a * t
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    spec = make_spec(a=a, x0=x0, phi1="0", phi2="1", A=0.25)
    expected = {Region.Q1_STAR: 0.0, Region.Q2_STAR: 1.0, Region.Q3_STAR: 0.25}
    assert linear_oracle(spec, t, x) == expected[classify_point(a, x0, t, x)]


def whole_lattice_forcing(F, a, t, x, quad_n):
    """The F term of linear_oracle as one (quad_n + 1)^2 lattice: the rule
    the tiled integration must reproduce bit for bit."""
    taus = np.linspace(0.0, t, quad_n + 1)
    widths = 2.0 * a * (t - taus)
    fracs = np.linspace(0.0, 1.0, quad_n + 1)
    ys = (x - a * (t - taus))[:, None] + widths[:, None] * fracs[None, :]
    tt = np.broadcast_to(taus[:, None], ys.shape)
    vals = np.broadcast_to(ex.evaluate(F, {"t": tt, "x": ys}), ys.shape)
    inner = np.trapezoid(vals, axis=1) * (widths / quad_n)
    return float(np.trapezoid(inner, dx=t / quad_n)) / (2.0 * a)


class TestTiledForcing:
    # zero data, so that the oracle is its F term alone
    SPECS = {
        "t-and-x": make_spec(a=1.3, F="sin(3*x)*exp(-t) + t*x^2"),
        "t-only": make_spec(a=0.7, F="cos(2*t) + t^2"),
        "constant": make_spec(a=0.9, F="2.5"),
        "mixed_forcing": load_problem("mixed_forcing")[0],
    }

    # the oracle's panel count: 1025 tau-rows make a last tile of one row
    @pytest.mark.parametrize("quad_n", [1024])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_bits_equal_the_whole_lattice(self, name, quad_n):
        spec = self.SPECS[name]
        for t, x in ((0.8, 1.7), (1.35, -0.4), (0.3, 0.05)):
            want = whole_lattice_forcing(spec.F, spec.a, t, x, quad_n)
            assert linear_oracle(spec, t, x) == want

    # F of 1e300 and of 1e-300: the row sums are halved once, after the
    # tiles, where np.trapezoid halves each pair, and both stay clear of
    # where that moves a bit (a subnormal half-pair, a row sum within a
    # factor 2 of overflow)
    EXTREMES = {
        "huge": make_spec(a=1.3, F="1e300*(1+t)"),
        "tiny": make_spec(a=1.3, F="1e-300*(1+x^2)"),
    }

    # 1025 rows make a last tile of 1 row at 16 and 64 rows a tile, of 3 at
    # 7, and one tile holding the whole lattice at 1025
    @pytest.mark.parametrize("tile_rows", [1, 7, 16, 64, 1025])
    @pytest.mark.parametrize("name", [*SPECS, *EXTREMES])
    def test_tiling_keeps_the_bits(self, name, tile_rows, monkeypatch):
        spec = {**self.SPECS, **self.EXTREMES}[name]
        monkeypatch.setattr(verify, "_TILE_ROWS", tile_rows)
        for t, x in ((0.8, 1.7), (1.35, -0.4), (0.3, 0.05)):
            want = whole_lattice_forcing(spec.F, spec.a, t, x, verify._QUAD_N)
            assert linear_oracle(spec, t, x) == want

    def test_one_call_allocates_at_most_2_mib(self):
        # the whole 1025^2 lattice at once takes 32 MiB; tiles of 16 rows
        # peak at about 0.85 MiB, and tiles of 64 rows took 3.1 MiB
        spec = self.SPECS["t-and-x"]
        tracemalloc.start()
        try:
            linear_oracle(spec, 0.8, 1.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


def residual_check(sol):
    return next(c for c in check_definition1(sol).checks if c.name == "pde_residual")


class TestResidual:
    def test_zero_on_polynomial_field(self):
        sol = solve(make_spec(phi2="x^2", phi1="x^2"), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=16))
        assert residual_check(sol).measured <= 1e-9

    def test_small_on_nonlinear_field(self):
        spec = make_spec(
            phi1="sin(x)", phi2="sin(x)", psi1="-cos(x)", psi2="-cos(x)",
            F="sin(sin(x-t))", f="sin(u)", lipschitz=1.0,
        )
        check = residual_check(solve(spec, GridParams(T=1.0, x_lo=-3, x_hi=3, nt=32)))
        assert check.measured < 1e-3 and check.passed

    @pytest.mark.parametrize("f", ["0", "u^2/50"])
    def test_correct_solve_passes_at_every_resolution(self, f):
        # second differences of the bilinear interpolant used to measure
        # about 0.49 here at every nt, against tolerances of 0.06 to 0.004
        a = 1.5627276399228769
        spec = make_spec(
            a=a, x0=-0.5, A=a, phi1="sin(3*x)", phi2="exp(x)", psi1="x", F="1", f=f
        )
        measured = []
        for nt in (16, 32, 64):
            grid = GridParams(T=0.25, x_lo=-4.306619359109812, x_hi=0.10823537122278004, nt=nt)
            report = check_definition1(solve(spec, grid))
            assert report.passed, (nt, report.to_dict())
            measured.append(next(c.measured for c in report.checks if c.name == "pde_residual"))
        if f != "0":  # second order: about 4x per refinement
            assert measured[0] / measured[1] > 3.0 and measured[1] / measured[2] > 3.0

    def test_needs_nt_4(self):
        spec = make_spec(phi1="x^2", phi2="x^2")
        grid = GridParams(T=1.0, x_lo=-3, x_hi=3, nt=3)
        with pytest.raises(ConfigError, match="nt >= 4"):
            check_definition1(solve(spec, grid))
        assert residual_check(solve(spec, replace(grid, nt=4))).passed


class TestAudit:
    def test_corpus_passes(self, solved):
        for name, sol in solved.items():
            report = check_definition1(sol)
            assert report.passed, f"{name}: {report.to_dict()}"

    def test_overflowing_audit_is_an_error(self):
        # side 2 reaches about 1e308, so the extrapolated one-sided limits
        # at its characteristic overflow: no verdict, and no numpy warning
        spec = make_spec(a=0.25, x0=-0.5, psi2="-1e308*x", F="1")
        sol = solve(spec, GridParams(T=0.72, x_lo=-3.67, x_hi=0.144, nt=8))
        with pytest.raises(DomainError, match="too large to audit"):
            check_definition1(sol)

    def test_no_stencil_reads_a_dead_node(self, solved):
        # a field stores its kept nodes only, and reading any other node
        # raises IndexError, so every audit and every fault injection that
        # runs here read kept nodes alone; each fault fails its check
        for name, sol in solved.items():
            assert check_definition1(sol).passed, name
            for check in CHECK_NAMES:
                report = check_definition1(inject_fault(sol, check))
                assert not next(c for c in report.checks if c.name == check).passed, (name, check)

    def test_report_shape(self, solved):
        report = check_definition1(solved["psi_step"])
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        d = report.to_dict()
        json.dumps(d)  # serializable as-is
        assert d["passed"] is True
        # the JSON keys follow the dataclasses' field order
        assert list(d) == ["passed", "checks", "info"]
        for check in d["checks"]:
            assert list(check) == ["name", "measured", "tolerance", "passed", "detail"]
        assert list(d["info"]) == [
            "max_ut_jump_left", "max_ut_jump_right",
            "max_ux_jump_left", "max_ux_jump_right",
        ]
        entry = ConvergenceEntry(nt=8, h=0.125, err=0.5)
        d = ConvergenceStudy(entries=(entry,), order=2.0, exact=False).to_dict()
        assert list(d) == ["entries", "order", "exact"]
        assert [list(e) for e in d["entries"]] == [["nt", "h", "err"]]
        assert json.dumps(d) == (
            '{"entries": [{"nt": 8, "h": 0.125, "err": 0.5}], "order": 2.0, "exact": false}'
        )
        # a numpy T makes the tolerances numpy scalars; the report holds plain ones
        sol = solve(make_spec(), GridParams(T=np.float64(1.0), x_lo=-2.0, x_hi=2.0, nt=8))
        for check in check_definition1(sol).checks:
            assert type(check.tolerance) is float and type(check.passed) is bool

    def test_derivative_jumps_reported_not_asserted(self, solved):
        # psi-step: u_t and u_x genuinely jump by 1/2 across the fan, yet
        # the audit passes because only u-jump constancy is a condition
        report = check_definition1(solved["psi_step"])
        info = dict(report.info)
        assert info["max_ut_jump_left"] == pytest.approx(0.5, abs=1e-6)
        assert report.passed

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_fault_injection_flips_target(self, solved, name):
        sol = solved["psi_step"]
        clean = check_definition1(sol)
        assert clean.passed
        bad = inject_fault(sol, name)
        report = check_definition1(bad)
        target = next(c for c in report.checks if c.name == name)
        assert not target.passed, f"fault in {name} went unnoticed"

    def test_scale_reads_live_nodes_only(self, solved):
        # a field stores its live nodes only, and the scale is their maximum
        sol = solved["mixed_forcing"]
        fields = (sol.field1, sol.field2, sol.field3)
        assert all(f.w.shape[1] == f.nodes()[0].size for f in fields)
        live = max(1.0, *(float(np.max(np.abs(f.at(*f.nodes())[0]))) for f in fields))
        assert _field_scale(sol) == live
        h = sol.grid.dt_user
        tolerances = {c.name: c.tolerance for c in check_definition1(sol).checks}
        assert tolerances["goursat_traces"] == 20.0 * h * h * live
        assert tolerances["jump_constancy"] == 20.0 * h * h * live

    def test_scale_reads_the_kept_nodes(self, solved):
        # phi_sq: u = x^2 + t^2 on the sides is largest in the dependence
        # margin, which the sides compute but do not store; the goursat_traces
        # tolerance scales with max |u| over the nodes they keep
        sol = solved["phi_sq"]
        g = sol.grid
        kept = [sol.field3.w[0]]
        for side, field in ((1, sol.field1), (2, sol.field2)):
            for i in range(g.n_levels + 1):
                kept.append(field.at(i, np.array(kept_offsets(g, side, i)))[0])
        scale = max(1.0, float(np.max(np.abs(np.concatenate(kept)))))
        h = g.dt_user
        tolerances = {c.name: c.tolerance for c in check_definition1(sol).checks}
        assert tolerances["goursat_traces"] == 20.0 * h * h * scale
        # u at the margin's far end on level 0 is 1.79x that scale
        assert (g.x0 + g.j1_min * g.dx) ** 2 > 1.7 * scale

    def test_unknown_fault_name(self, solved):
        with pytest.raises(ValueError):
            inject_fault(solved["psi_step"], "nonsense")


class TestConvergence:
    def test_zero_problem_exact(self):
        study = convergence_study(
            make_spec(), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8), levels=3
        )
        assert study.exact
        assert study.order is None
        assert all(e.err <= 1e-12 for e in study.entries)
        assert [e.nt for e in study.entries] == [8, 16, 32]

    def test_quadratic_second_order(self):
        study = convergence_study(
            make_spec(phi1="x^2", phi2="x^2"),
            GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8),
            levels=3,
        )
        assert not study.exact
        assert 1.7 <= study.order <= 2.3
        errs = [e.err for e in study.entries]
        assert errs[0] > errs[1] > errs[2]

    def test_expression_reference(self):
        spec = make_spec(
            phi1="sin(x)", phi2="sin(x)", psi1="-cos(x)", psi2="-cos(x)",
            F="sin(sin(x-t))", f="sin(u)", lipschitz=1.0,
        )
        wave = ex.parse("sin(x - t)", ("t", "x"))
        study = convergence_study(
            spec,
            GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8),
            reference=lambda t, x: ex.evaluate(wave, {"t": t, "x": x}),
            levels=3,
        )
        assert 1.7 <= study.order <= 2.3

    def test_callable_reference(self):
        study = convergence_study(
            make_spec(F="1"),
            GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8),
            reference=lambda t, x: t * t / 2.0,
            levels=2,
        )
        # nodes are exact for constant forcing; probe error is interpolation
        assert study.exact or study.order > 1.7

    def test_oracle_requires_linear(self):
        with pytest.raises(NotLinear):
            convergence_study(
                make_spec(f="u"), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8)
            )

    def test_oracle_on_a_nonlinear_problem_fails_before_any_solve(self, monkeypatch, forks):
        # no solve, no fork and no oracle call: the study checks f itself
        solves, probes = [], []

        def oracle(*args, **kw):
            probes.append(args)
            return linear_oracle(*args, **kw)

        monkeypatch.setattr(assembly, "solve", lambda *args, **kw: solves.append(args))
        monkeypatch.setattr(verify, "linear_oracle", oracle)
        monkeypatch.setattr(_fork, "FLOOR", 0)
        with pytest.raises(NotLinear):
            convergence_study(make_spec(f="u"), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8))
        assert solves == [] and probes == [] and forks == []

    def test_each_level_is_freed_before_the_next_solve(self, monkeypatch):
        # the finest solve sets the peak memory; no coarser Solution may sit
        # under it
        solve_level = assembly.solve
        held = []

        def spy(*args, **kw):
            gc.collect()
            assert [ref() for ref in held] == [None] * len(held)
            sol = solve_level(*args, **kw)
            held.append(weakref.ref(sol))
            return sol

        monkeypatch.setattr(assembly, "solve", spy)
        convergence_study(
            make_spec(phi1="x^2", phi2="x^2"), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8), levels=3
        )
        assert len(held) == 3

    def test_reference_error_takes_precedence(self, monkeypatch):
        # the reference is the caller's part, so in process it is evaluated
        # before any solve: its error is raised and no level solves
        monkeypatch.setattr(_fork, "FLOOR", math.inf)
        solves = []

        def failing_solve(*args, **kw):
            solves.append(args)
            raise NonConvergence("a level failed", last_update=1.0)

        class ReferenceFailed(Exception):
            pass

        probes = ((0.5, 1.8), (0.75, -2.0))

        def reference(t, x):
            if (t, x) == probes[-1]:
                raise ReferenceFailed
            return 0.0

        monkeypatch.setattr(assembly, "solve", failing_solve)
        before = threading.active_count()
        with pytest.raises(ReferenceFailed):
            convergence_study(
                make_spec(phi1="x", phi2="x", f="sin(u)", lipschitz=1.0),
                GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8),
                PicardParams(max_iter=1),
                reference=reference,
                probes=probes,
                levels=2,
            )
        assert solves == []
        assert threading.active_count() == before

    def test_solve_error_when_the_reference_holds(self, monkeypatch, forks):
        before = threading.active_count()
        for floor in (math.inf, 0):
            monkeypatch.setattr(_fork, "FLOOR", floor)
            with pytest.raises(NonConvergence):
                convergence_study(
                    make_spec(phi1="x", phi2="x", f="sin(u)", lipschitz=1.0),
                    GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8),
                    PicardParams(max_iter=1),
                    reference=lambda t, x: 0.0,
                    levels=2,
                )
        # forked: the first level's side 2, since with a given reference the
        # levels solve here
        assert len(forks) == 1
        assert threading.active_count() == before

    def test_oracle_study_starts_no_thread(self):
        before = threading.active_count()
        study = convergence_study(
            make_spec(F="t*x"), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8), levels=2
        )
        assert not study.exact
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", ["refine_like", "manufactured"])
    def test_forked_study_is_the_in_process_study(self, monkeypatch, forks, name):
        # forked with the oracle: the levels in one child, which forks no
        # side 2, while the oracle runs here; with a given reference: the
        # levels here after it, each forking its side 2.  No thread runs
        # beside the solves either way (in the child the spy's
        # AssertionError would be raised again here)
        if name == "refine_like":
            spec, grid, picard = refine_like()
            reference = None
        else:
            spec, grid, picard = load_problem(name)
            grid = replace(grid, nt=16)
            wave = ex.parse("sin(x - t)", ("t", "x"))
            reference = lambda t, x: ex.evaluate(wave, {"t": t, "x": x})
        levels = 3
        grids = [replace(grid, nt=grid.nt * 2**k) for k in range(levels)]
        nodes = sum(build_grid(spec, gp).user_nodes for gp in grids)
        threads, solve_level, seen = threading.active_count(), assembly.solve, []

        def spy(*args, **kw):
            assert threading.active_count() == threads
            seen.append(os.getpid())
            return solve_level(*args, **kw)

        monkeypatch.setattr(assembly, "solve", spy)
        studies = []
        for floor in (0, nodes + 1):
            monkeypatch.setattr(_fork, "FLOOR", floor)
            studies.append(
                convergence_study(spec, grid, picard, reference=reference, levels=levels).to_dict()
            )
        forked, local = studies
        assert json.dumps(forked) == json.dumps(local)  # repr of each float: its bits
        if reference is None:
            assert len(forks) == 1
            assert seen == [os.getpid()] * levels  # the in-process study's; the child's stay there
        else:
            assert len(forks) == levels
            assert seen == [os.getpid()] * 2 * levels
        assert threading.active_count() == threads

    def test_forked_study_with_sigchld_ignored(self, monkeypatch, forks, sigchld_ignored):
        spec, grid, picard = refine_like()
        studies = []
        for floor in (0, math.inf):
            monkeypatch.setattr(_fork, "FLOOR", floor)
            studies.append(convergence_study(spec, grid, picard, levels=3).to_dict())
        assert json.dumps(studies[0]) == json.dumps(studies[1])
        assert len(forks) == 1

    @pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "given"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_reference_gives_no_verdict(self, monkeypatch, forks, oracle, bad):
        # builtin max would drop a NaN and report the study exact.  The
        # oracle fails while the levels solve in a child, which is killed; a
        # given reference fails before anything forks
        probes = ((0.5, 1.8), (0.75, -2.0))

        def value(t, x):
            return bad if (t, x) == probes[-1] else 0.0

        monkeypatch.setattr(verify, "linear_oracle", lambda spec, t, x: value(t, x))
        monkeypatch.setattr(_fork, "FLOOR", 0)
        with pytest.raises(DomainError, match=r"reference at \(t=0\.75, x=-2\.0\) is not finite"):
            convergence_study(
                make_spec(psi2="1"),
                GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8),
                reference=None if oracle else value,
                probes=probes,
                levels=2,
            )
        assert len(forks) == oracle

    def test_forked_reference_error_takes_precedence(self, monkeypatch, forks):
        # the first level's solve fails in the child before the oracle fails
        # here; the oracle's error is the one raised
        monkeypatch.setattr(_fork, "FLOOR", 0)
        read, write = os.pipe()

        def failing_solve(*args, **kw):
            os.write(write, b"!")
            raise NonConvergence("a level failed", last_update=1.0)

        def oracle(spec, t, x):
            assert select.select([read], [], [], 10.0)[0], "no solve failed"
            raise DomainError(f"no reference at (t={t}, x={x})")

        monkeypatch.setattr(assembly, "solve", failing_solve)
        monkeypatch.setattr(verify, "linear_oracle", oracle)
        try:
            with pytest.raises(DomainError, match="no reference") as err:
                convergence_study(
                    make_spec(phi1="x", phi2="x"),
                    GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8),
                    levels=2,
                )
            assert os.read(read, 8) == b"!"  # one level solved, and failed
        finally:
            os.close(read)
            os.close(write)
        assert err.value.__context__ is None
        assert len(forks) == 1  # the levels; the child forks no side 2

    def test_interrupted_reference_stops_the_solves(self, monkeypatch, forks):
        # the solves would take a minute; the interrupt kills and reaps
        # their child (the autouse no_child_left fixture checks that none is
        # left)
        def slow(*args, **kw):
            time.sleep(60.0)

        def oracle(spec, t, x):
            raise KeyboardInterrupt

        monkeypatch.setattr(assembly, "solve", slow)
        monkeypatch.setattr(verify, "linear_oracle", oracle)
        monkeypatch.setattr(_fork, "FLOOR", 0)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            convergence_study(make_spec(), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8))
        assert time.monotonic() - started < 30.0
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_interrupted_solve_is_raised_again(self, monkeypatch, forks):
        def interrupted(*args, **kw):
            raise KeyboardInterrupt

        # in the levels' child, beside the oracle
        monkeypatch.setattr(assembly, "solve", interrupted)
        monkeypatch.setattr(_fork, "FLOOR", 0)
        with pytest.raises(KeyboardInterrupt):
            convergence_study(make_spec(), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8))
        assert len(forks) == 1

    def test_explicit_probes(self):
        study = convergence_study(
            make_spec(psi2="1"),
            GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8),
            probes=((0.5, 1.8), (0.75, -2.0)),
            levels=2,
        )
        assert study.exact  # step data are reproduced exactly off the fan


class TestProbePoints:
    def test_keeps_clear_of_fan_and_edges(self):
        pts = probe_points(1.0, 0.0, 1.0, -3.0, 3.0, collar=0.2)
        assert pts
        for t, x in pts:
            assert -3.0 + 0.2 <= x <= 3.0 - 0.2
            assert abs(x + t) >= 0.2 and abs(x - t) >= 0.2

    def test_collar_wider_than_half_the_window_gives_no_points(self):
        assert probe_points(1.0, 0.0, 1.0, -0.3, 0.3, collar=0.75) == ()

    def test_deterministic(self):
        a = probe_points(1.0, 0.0, 1.0, -3.0, 3.0, collar=0.1)
        b = probe_points(1.0, 0.0, 1.0, -3.0, 3.0, collar=0.1)
        assert a == b

    def test_covers_all_regions(self):
        from charwave.geometry import classify_point

        pts = probe_points(1.0, 0.0, 1.5, -3.0, 3.0, collar=0.1)
        regions = {classify_point(1.0, 0.0, t, x).value for t, x in pts}
        assert regions == {1, 2, 3}
