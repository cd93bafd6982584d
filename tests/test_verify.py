import json
import math

import numpy as np
import pytest

import charwave.expr as ex
from charwave.assembly import solve
from charwave.cauchy import GridParams, PicardParams, ProblemSpec
from charwave.errors import NegativeTime, NotLinear, TooCloseToCharacteristic
from charwave.verify import (
    check_definition1,
    convergence_study,
    inject_fault,
    linear_oracle,
    pde_residual,
    probe_points,
)

CHECK_NAMES = ("initial_u", "initial_ut", "pde_residual", "goursat_traces", "jump_constancy")


def make_spec(**kw):
    base = dict(
        a=1.0, x0=0.0, A=0.0,
        phi1="0", phi2="0", psi1="0", psi2="0", F="0", f="0",
    )
    base.update(kw)
    return ProblemSpec.from_strings(**base)


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
        assert linear_oracle(spec, t, x, quad_n=1024) == pytest.approx(
            x * t**3 / 6.0, abs=1e-6
        )
        # quadrature error shrinks at second order in 1/quad_n
        e1 = abs(linear_oracle(spec, t, x, quad_n=64) - x * t**3 / 6.0)
        e2 = abs(linear_oracle(spec, t, x, quad_n=128) - x * t**3 / 6.0)
        assert e1 / e2 > 3.0

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


class TestResidual:
    def test_zero_on_polynomial_field(self):
        sol = solve(make_spec(phi2="x^2", phi1="x^2"), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=16))
        assert pde_residual(sol, 0.6, 1.9) < 1e-9

    def test_small_on_nonlinear_field(self):
        spec = make_spec(
            phi1="sin(x)", phi2="sin(x)", psi1="-cos(x)", psi2="-cos(x)",
            F="sin(sin(x-t))", f="sin(u)", lipschitz=1.0,
        )
        sol = solve(spec, GridParams(T=1.0, x_lo=-3, x_hi=3, nt=32))
        assert pde_residual(sol, 0.5, 1.8) < 1e-3
        assert pde_residual(sol, 0.5, 0.1) < 1e-3  # wedge interior

    def test_straddling_stencil_rejected(self):
        sol = solve(make_spec(), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=16))
        with pytest.raises(TooCloseToCharacteristic):
            pde_residual(sol, 0.75, 0.74)

    def test_step_override(self):
        sol = solve(make_spec(), GridParams(T=1.0, x_lo=-3, x_hi=3, nt=16))
        assert pde_residual(sol, 0.5, 2.0, h_fd=0.01) == pytest.approx(0.0, abs=1e-9)


class TestAudit:
    def test_corpus_passes(self, solved):
        for name, sol in solved.items():
            report = check_definition1(sol)
            assert report.passed, f"{name}: {report.to_dict()}"

    def test_report_shape(self, solved):
        report = check_definition1(solved["psi_step"])
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        d = report.to_dict()
        json.dumps(d)  # serializable as-is
        assert d["passed"] is True
        assert set(d["info"]) == {
            "max_ut_jump_left", "max_ut_jump_right",
            "max_ux_jump_left", "max_ux_jump_right",
        }

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
        # the side arrays hold leftover values outside their sectors, larger
        # than the field itself on this problem; they must not set the scale
        sol = solved["mixed_forcing"]
        n = sol.grid.n_levels
        live = 1.0
        for f in (sol.field1, sol.field2):
            for i in range(n + 1):
                live = max(live, float(np.max(np.abs(f.u[i, i : f.u.shape[1] - i]))))
        for s in range(n + 1):
            live = max(live, float(np.max(np.abs(sol.field3.u[s, : n + 1 - s]))))
        h = sol.grid.dt_user
        tolerances = {c.name: c.tolerance for c in check_definition1(sol).checks}
        assert tolerances["goursat_traces"] == 20.0 * h * h * live
        assert tolerances["jump_constancy"] == 20.0 * h * h * live

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
        study = convergence_study(
            spec,
            GridParams(T=1.0, x_lo=-3, x_hi=3, nt=8),
            reference=ex.parse("sin(x - t)", ("t", "x")),
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

    def test_deterministic(self):
        a = probe_points(1.0, 0.0, 1.0, -3.0, 3.0, collar=0.1)
        b = probe_points(1.0, 0.0, 1.0, -3.0, 3.0, collar=0.1)
        assert a == b

    def test_covers_all_regions(self):
        from charwave.geometry import classify_point

        pts = probe_points(1.0, 0.0, 1.5, -3.0, 3.0, collar=0.1)
        regions = {classify_point(1.0, 0.0, t, x).value for t, x in pts}
        assert regions == {1, 2, 3}
