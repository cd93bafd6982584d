import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charwave.assembly import (
    CaseKind,
    characteristic_jump,
    classify_case,
    diagnose,
    evaluate,
    sample_user_grid,
    solve,
)
from charwave.cauchy import GridParams, PicardParams, ProblemSpec, picard_step_cauchy
from charwave.errors import ConfigError, OutOfWindow
from charwave.geometry import Region, classify_point
from charwave.goursat import picard_step_goursat
from charwave.verify import linear_oracle

from helpers import CORPUS_NAMES


def make_spec(**kw):
    base = dict(
        a=1.0, x0=0.0, A=0.0,
        phi1="0", phi2="0", psi1="0", psi2="0", F="0", f="0",
    )
    base.update(kw)
    return ProblemSpec.from_strings(**base)


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

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_dead_nodes_are_zero(self, solved, name):
        sol = solved[name]
        for field in (sol.field1, sol.field2, sol.field3):
            assert not np.any(field.w[:, ~field.live])

    def test_state_free_f_solves_in_one_sweep_per_band(self):
        # f reads t and x only: each band's first full sweep is the fixed
        # point, so a further sweep of either map moves no live node
        spec = make_spec(
            phi1="sin(x)", phi2="cos(x) - 1", psi1="x", psi2="1",
            F="t*x", f="sin(t*x)", lipschitz=1.0,
        )
        sol = solve(spec, GP)
        fields = (sol.field1, sol.field2, sol.field3)
        steps = (
            picard_step_cauchy(spec, sol.field1),
            picard_step_cauchy(spec, sol.field2),
            picard_step_goursat(spec, sol.traces, sol.field3),
        )
        for field, step in zip(fields, steps):
            bands = len(field.report.strips)
            assert bands > 1 and field.report.iterations == (1,) * bands
            np.testing.assert_array_equal(step.w[:, field.live], field.w[:, field.live])

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
        err = abs(evaluate(sol, t, x)[0] - linear_oracle(spec, t, x, quad_n=256))
        assert err <= h * h * scale, (t, x, err)
