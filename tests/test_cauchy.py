import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charwave.expr as ex
from charwave.assembly import solve
from charwave.cauchy import (
    GridParams,
    PicardParams,
    ProblemSpec,
    _dal_rows,
    _picard,
    _row_starts,
    build_grid,
    estimate_lipschitz,
    plan_strips,
    resolve_lipschitz,
    solve_cauchy_region,
)
from charwave.errors import ConfigError, InvalidSpeed, NonConvergence
from charwave.geometry import Region

from helpers import kept_offsets, load_problem, make_spec, solve_side, strip_plan


def make_grid(**kw):
    return GridParams(**{**dict(T=1.0, x_lo=-1.0, x_hi=1.0, nt=8), **kw})


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

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: make_grid(T=10**400), ConfigError, "T is outside the float range"),
            (
                lambda: make_spec(a=10**400),
                InvalidSpeed,
                "wave speed is outside the float range",
            ),
            (lambda: make_spec(x0=10**400), ConfigError, "x0 is outside the float range"),
            (
                lambda: make_spec(lipschitz=10**400),
                ConfigError,
                "lipschitz is outside the float range",
            ),
            (lambda: PicardParams(tol=10**400), ConfigError, "tol is outside the float range"),
            (lambda: make_grid(T="1"), ConfigError, "T must be a number, got str"),
            (lambda: make_grid(x_lo=None), ConfigError, "x_lo must be a number, got NoneType"),
            (lambda: make_spec(lipschitz="1"), ConfigError, "lipschitz must be a number, got str"),
            (lambda: PicardParams(tol="x"), ConfigError, "tol must be a number, got str"),
            (lambda: make_grid(T=True), ConfigError, "T must be a number, got bool"),
            (lambda: make_spec(a=True), InvalidSpeed, "wave speed must be a number, got bool"),
            (lambda: make_spec(A=True), ConfigError, "A must be a number, got bool"),
            (
                lambda: make_spec(lipschitz=True),
                ConfigError,
                "lipschitz must be a number, got bool",
            ),
            (lambda: PicardParams(max_iter=True), ConfigError, "max_iter must be an integer >= 1"),
            (lambda: make_spec(phi1=5), ConfigError, "phi1 must be an expression string, got int"),
            (
                lambda: ProblemSpec(**{**vars(make_spec()), "F": "0"}),
                ConfigError,
                "F must be a parsed expression (from_strings parses strings), got str",
            ),
        ],
        ids=[
            "T-1e400", "a-1e400", "x0-1e400", "lipschitz-1e400", "tol-1e400",
            "T-str", "x_lo-None", "lipschitz-str", "tol-str",
            "T-bool", "a-bool", "A-bool", "lipschitz-bool", "max_iter-bool", "phi1-int",
            "F-str-unparsed",
        ],
    )
    def test_constructors_reject_what_the_cli_rejects(self, build, error, message):
        # each of these used to end in OverflowError or TypeError, or to be
        # accepted although the problem-file reader rejects it
        with pytest.raises(error) as err:
            build()
        assert type(err.value) is error
        assert str(err.value) == message


# values a library caller might pass for any parameter; 10**5000 is an int
# whose repr raises ValueError
_ANY_VALUE = st.one_of(
    st.floats(-10.0, 10.0),
    st.integers(-3, 100),
    st.builds(np.float64, st.floats(-10.0, 10.0)),
    st.builds(np.int64, st.integers(-3, 100)),
    st.sampled_from(
        (True, False, None, "1", "x", [], [1.0], math.nan, math.inf, -math.inf)
        + (10**400, -(10**400), 10**5000)
    ),
)
_VALID = {
    GridParams: dict(T=1.0, x_lo=-1.0, x_hi=1.0, nt=8),
    PicardParams: dict(tol=1e-10, max_iter=64),
    ProblemSpec.from_strings: dict(
        a=1.0, x0=0.0, A=0.0,
        phi1="0", phi2="0", psi1="0", psi2="0", F="0", f="0", lipschitz=None,
    ),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(build=st.sampled_from(list(_VALID)), data=st.data())
def test_no_value_breaks_the_constructors(build, data):
    # each argument keeps its valid value or takes any of _ANY_VALUE; the
    # call constructs, or raises a ConfigError of one short line
    kwargs = {
        key: data.draw(st.one_of(st.just(valid), _ANY_VALUE), key)
        for key, valid in _VALID[build].items()
    }
    try:
        build(**kwargs)
    except ConfigError as err:
        message = str(err)
        # an integer past the float range would print hundreds of digits
        assert message and "\n" not in message and len(message) < 200, message


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

    def test_window_snaps_outward(self):
        g = build_grid(make_spec(), GridParams(T=1.0, x_lo=-1.05, x_hi=1.0, nt=8))
        assert g.x_lo <= -1.05 + 1e-12
        assert g.x_hi >= 1.0 - 1e-12
        assert g.user_xs()[0] == pytest.approx(g.x_lo)
        assert g.user_xs()[-1] == pytest.approx(g.x_hi)

    def test_user_offsets(self):
        g = build_grid(make_spec(), GridParams(T=1.0, x_lo=-1.05, x_hi=1.0, nt=8))
        d = g.user_offsets()
        np.testing.assert_array_equal(d, 2 * np.arange(-g.n_left, g.n_right + 1))
        np.testing.assert_allclose(g.x0 + g.dx * d, g.user_xs(), rtol=0, atol=1e-12)

    def test_grid_past_physical_memory_is_rejected(self):
        # 6.4 EiB of region arrays, below numpy's size limit: rejected before
        # any array is allocated, naming both sizes
        spec = make_spec(a=5e-324)
        params = GridParams(T=1.7976931348623157e308, x_lo=-0.5, x_hi=0.5, nt=8)
        with pytest.raises(ConfigError, match=r"need 6\.\d+e\+9 GiB, more than the [\d.]+ GiB"):
            build_grid(spec, params)

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
    def test_nodes_round_trip(self, solved):
        for sol in solved.values():
            g = sol.grid
            levels = np.arange(g.n_levels + 1)
            for side, field in ((1, sol.field1), (2, sol.field2), (3, sol.field3)):
                # every stored node, read back by its (level, offset)
                level, offset = field.nodes()
                at = field.at(level, offset)
                np.testing.assert_array_equal(at.view(np.uint64), field.w.view(np.uint64))
                # the characteristics through (0, x0) hold stored nodes
                signs = {1: (-1,), 2: (1,), 3: (-1, 1)}[side]
                for sign in signs:
                    assert field.at(levels, sign * levels).shape == (3, levels.size)
                # every region stores level after level
                assert np.all(np.diff(level) >= 0)
                if side == 3:
                    continue
                # a side's offsets run along its columns, level 0 first; the
                # level keeps its run of them
                kept = np.array(kept_offsets(g, side, 0)) - (g.j1_min if side == 1 else 0)
                np.testing.assert_array_equal(
                    g.x0 + g.dx * offset[level == 0], g.region_xcols(side)[kept]
                )

    def test_wedge_rows_are_levels(self, solved):
        # row l of the wedge holds the l + 1 nodes of level l, offsets -l to
        # l in steps of 2, so the levels b+1..e of a band are one run of w
        for sol in solved.values():
            field = sol.field3
            starts = _row_starts(Region.Q3_STAR, sol.grid)
            level, offset = field.nodes()
            for b, e in ((0, sol.grid.n_levels), *field.report.strips, (3, 5)):
                run = slice(starts[b + 1], starts[e + 1])
                want = [(l, o) for l in range(b + 1, e + 1) for o in range(-l, l + 1, 2)]
                assert list(zip(level[run].tolist(), offset[run].tolist())) == want
                want_level, want_offset = np.array(want).T
                got = field.at(want_level, want_offset)
                assert got.tobytes() == field.w[:, run].tobytes()

    def test_at_refuses_a_node_it_does_not_store(self, solved):
        # one column outside level 5's sector at either end of a side, a
        # wedge node past the hypotenuse and one off the wedge's lattice
        sol = solved["mixed_forcing"]
        g = sol.grid
        m = g.n_levels
        dead = (
            (sol.field1, [(5, g.j1_min + 4), (5, -4)]),
            (sol.field2, [(5, 4), (5, g.j2_max - 4)]),
            (sol.field3, [(m + 1, m - 1), (1, 0)]),
        )
        for field, nodes in dead:
            for level, offset in nodes:
                node = rf"\(level={level}, offset={offset}\)"
                with pytest.raises(IndexError, match=rf"region {field.region.value} stores no node {node}"):
                    field.at(level, offset)
                # also among stored nodes: (0, 0) is stored by every region
                with pytest.raises(IndexError, match=node):
                    field.at(np.array([0, level]), np.array([0, offset]))

    def test_sides_store_their_kept_runs(self, solved):
        # a side stores, level by level, exactly the kept run of offsets
        for sol in solved.values():
            g = sol.grid
            for side, field in ((1, sol.field1), (2, sol.field2)):
                runs = [kept_offsets(g, side, i) for i in range(g.n_levels + 1)]
                level, offset = field.nodes()
                np.testing.assert_array_equal(level, np.repeat(np.arange(len(runs)), list(map(len, runs))))
                np.testing.assert_array_equal(offset, np.concatenate([np.array(r) for r in runs]))

    def test_at_refuses_a_margin_node(self, solved):
        # the sector nodes outside the kept run are computed but not stored
        sol = solved["mixed_forcing"]
        g = sol.grid
        for level in (0, 5, g.n_levels // 2):
            run1, run2 = kept_offsets(g, 1, level), kept_offsets(g, 2, level)
            margin = ((sol.field1, run1[0] - 1), (sol.field2, run2[-1] + 1))
            for field, offset in margin:
                assert g.j1_min + level <= offset <= g.j2_max - level  # in the sector
                node = rf"\(level={level}, offset={offset}\)"
                with pytest.raises(IndexError, match=rf"region {field.region.value} stores no node {node}"):
                    field.at(level, offset)
                with pytest.raises(IndexError, match=node):
                    field.at_level(level, range(offset, offset + 1))

    def test_at_level_reads_what_at_reads(self, solved):
        # a level's run of offsets read as one strided view of its row holds
        # the bits ``at`` reads node by node
        sol = solved["mixed_forcing"]
        g = sol.grid
        for level in (0, 1, 6, g.n_levels - 1, g.n_levels):
            lo1, hi2 = kept_offsets(g, 1, level)[0], kept_offsets(g, 2, level)[-1]
            runs = (
                (sol.field1, range(lo1, -level + 1), range(lo1, -level, 2)),
                (sol.field2, range(level, hi2 + 1), range(level + 2, hi2, 2)),
                (sol.field3, range(-level, level + 1, 2), range(2 - level, level, 4)),
            )
            for field, *ranges in runs:
                for offsets in (*ranges, range(0, 0)):
                    got = field.at_level(level, offsets)
                    want = field.at(np.full(len(offsets), level), np.array(offsets, np.int64))
                    assert got.shape == (3, len(offsets))
                    assert got.tobytes() == want.tobytes()
                    if offsets:
                        assert np.shares_memory(got, field.w)

    def test_at_level_refuses_a_node_it_does_not_store(self, solved):
        sol = solved["mixed_forcing"]
        g = sol.grid
        bad = (
            (sol.field1, 5, range(g.j1_min + 4, -5)),
            (sol.field1, 5, range(g.j1_min + 5, -3)),
            (sol.field2, 5, range(6, g.j2_max - 3)),
            (sol.field3, 5, range(-7, 7, 2)),
            (sol.field3, 4, range(-3, 4, 2)),
            (sol.field3, 4, range(-4, 5)),
        )
        for field, level, offsets in bad:
            with pytest.raises(IndexError, match=rf"region {field.region.value} stores no node"):
                field.at_level(level, offsets)
        # a step off the wedge's lattice names the first node it does not store
        with pytest.raises(IndexError, match=r"\(level=4, offset=-3\)"):
            sol.field3.at_level(4, range(-4, 5))
        # one stored node needs no step
        assert sol.field3.at_level(4, range(2, 3)).tobytes() == sol.field3.at(4, [2]).tobytes()

    def test_live_nodes_and_views(self):
        # the rectangles u, p and q around the rows, which the benchmark's
        # spans read: (level, column) with a side's columns its offsets and
        # the wedge's the nodes of the level, 0 off the stored nodes
        sol = solve(make_spec(psi2="1"), GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        g = sol.grid
        n = g.n_levels + 1
        for side, field in ((1, sol.field1), (2, sol.field2), (3, sol.field3)):
            level, offset = field.nodes()
            if side == 3:
                shape, col = (n, n), (level + offset) // 2
            else:
                shape, col = (n, g.region_xcols(side).size), offset - (g.j1_min if side == 1 else 0)
            live = np.zeros(shape, bool)
            live[level, col] = True
            assert field.w.shape == (3, live.sum())
            assert not field.w.flags.writeable
            # the rectangles are copies built on demand, 0 off the live nodes
            for k, plane in enumerate((field.u, field.p, field.q)):
                assert plane.shape == shape
                assert not np.shares_memory(plane, field.w)
                np.testing.assert_array_equal(plane[level, col], field.w[k])
                assert not np.any(plane[~live])
        # the wedge's nodes (level, r), r <= level
        np.testing.assert_array_equal(live, np.tril(np.ones((n, n), bool)))
        with pytest.raises(ValueError, match="region 1 stores"):
            replace(sol.field1, w=sol.field1.w[:, 1:])


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

    @pytest.mark.parametrize("L, per", [(0.19, 16), (0.011, 290)])
    def test_band_at_least_as_tall_as_the_grid_is_one_strip(self, L, per):
        # a = 1: band height 0.5/(L*2.5) is per internal steps of 1/16, and
        # the grid has 16 levels: the band fits the grid exactly, or exceeds it
        g = build_grid(make_spec(), GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        assert g.n_levels == 16
        assert math.floor(0.5 / (2.5 * L) / g.dt) == per
        assert plan_strips(g, L, PicardParams()) == ((0, 16),)

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

    @pytest.mark.parametrize(
        "data, f, x_hi",
        [
            ({"phi1": "1e308*x"}, "sin(u)", 1.0),  # R = 1 + 2*max|data| overflows
            ({"phi2": "1e308*x"}, "u^2/50", 1.0),  # R is finite, 2R is not
            ({}, "1e308*tanh(1e6*u)", 2.0),  # a difference quotient overflows
        ],
        ids=["R", "2R", "quotient"],
    )
    def test_overflowing_sample_asks_for_the_constant(self, data, f, x_hi):
        # no numpy warning on the way (the suite turns warnings into errors)
        spec = make_spec(f=f, **data)
        g = build_grid(spec, GridParams(T=0.5, x_lo=-1.0, x_hi=x_hi, nt=8))
        with pytest.raises(ConfigError, match="declare lipschitz"):
            estimate_lipschitz(spec, g)

    def test_declared_constant_wins(self):
        spec = make_spec(f="sin(u)", lipschitz=7.0)
        g = build_grid(spec, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        assert resolve_lipschitz(spec, g) == 7.0


class TestClosedForms:
    @pytest.mark.parametrize("side", [0, 3, "1"])
    def test_side_must_be_1_or_2(self, side):
        spec = make_spec()
        grid = build_grid(spec, GridParams(T=1.0, x_lo=-1.0, x_hi=1.0, nt=4))
        with pytest.raises(ConfigError, match=f"side must be 1 or 2, got {side!r}"):
            solve_cauchy_region(spec, side, grid, strip_plan(spec, grid), PicardParams())

    def test_zero_problem_in_one_sweep(self):
        spec = make_spec()
        field = solve_side(spec, 2, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        u, p, q = field.w
        assert np.all(u == 0.0)
        assert np.all(p == 0.0)
        assert np.all(q == 0.0)
        assert field.report.iterations == (1,)

    def test_quadratic_data_exact(self):
        # phi = x^2, psi = 0: u = x^2 + a^2 t^2, u_t = 2 a^2 t, u_x = 2 x
        a = 2.0
        spec = make_spec(a=a, phi2="x^2")
        field = solve_side(spec, 2, GridParams(T=1.0, x_lo=-4.0, x_hi=4.0, nt=8))
        g = field.grid
        level, offset = field.nodes()
        xs = g.region_xcols(2)[offset]  # side 2's column j is offset j
        ts = g.dt * level
        uex = xs**2 + a * a * ts**2
        pex = 2.0 * a * a * ts
        qex = 2.0 * xs
        u, p, q = field.w
        assert np.max(np.abs(u - uex)) < 1e-10
        assert np.max(np.abs(p - pex)) < 1e-10
        assert np.max(np.abs(q - qex)) < 1e-10

    def test_constant_forcing_exact(self):
        # F = 1 with zero data: u = t^2/2, u_t = t, u_x = 0
        spec = make_spec(F="1")
        field = solve_side(spec, 1, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        ts = field.grid.dt * field.nodes()[0]
        u, p, q = field.w
        assert np.max(np.abs(u - ts * ts / 2.0)) < 1e-12
        assert np.max(np.abs(p - ts)) < 1e-12
        assert np.max(np.abs(q)) < 1e-12

    def test_initial_rows_reproduce_data(self):
        spec = make_spec(phi2="sin(x)", psi2="cos(2*x)")
        field = solve_side(spec, 2, GridParams(T=1.0, x_lo=-2.0, x_hi=2.0, nt=8))
        xs = field.grid.region_xcols(2)
        # the data on every column, read on the kept run (side 2's column j
        # is offset j)
        offsets = np.array(kept_offsets(field.grid, 2, 0))
        u, p, q = field.at(0, offsets)
        np.testing.assert_array_equal(u, np.sin(xs)[offsets])
        np.testing.assert_array_equal(p, np.cos(2 * xs)[offsets])
        np.testing.assert_array_equal(q, np.cos(xs)[offsets])

    def test_psi_integral_matches_direct_trapezoid(self):
        # with f = F = 0 the scheme is the trapezoid rule on the data; check
        # one node against an independently coded sum
        spec = make_spec(psi2="cos(x)")
        field = solve_side(spec, 2, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
        g = field.grid
        level, col = 10, 14  # interior sector node; side 2's column j is offset j
        x = g.region_xcols(2)[col]
        t = level * g.dt
        lo, hi = x - g.a * t, x + g.a * t
        n_seg = 2 * level
        ys = np.linspace(lo, hi, n_seg + 1)
        vals = np.cos(ys)
        direct = (vals[0] / 2 + vals[1:-1].sum() + vals[-1] / 2) * (hi - lo) / n_seg
        expected = direct / (2.0 * g.a)
        u = field.at(level, col)[0]
        assert u == pytest.approx(expected, abs=1e-13)
        closed = (math.sin(hi) - math.sin(lo)) / (2.0 * g.a)
        assert u == pytest.approx(closed, abs=5e-4)

    def test_forcing_quadrature_second_order(self):
        # F = t*x with zero data: u = x t^3 / 6
        spec = make_spec(F="t*x")

        def err(nt):
            field = solve_side(
                spec, 2, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=nt)
            )
            g = field.grid
            level, offset = field.nodes()
            uex = g.region_xcols(2)[offset] * (g.dt * level) ** 3 / 6.0
            return np.max(np.abs(field.w[0] - uex))

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
        level, offset = field.nodes()
        uex = np.sin(g.region_xcols(2)[offset] - g.dt * level)
        assert np.max(np.abs(field.w[0] - uex)) < 2e-3

    def test_fixed_point_residual_small(self):
        picard = PicardParams(tol=1e-10)
        field = solve_side(self.spec, 2, self.grid, picard)
        for norms in field.report.update_norms:
            # each band stops on a sweep that moved no node by more than tol
            assert norms[-1] <= picard.tol
            assert all(cur < prev for prev, cur in zip(norms, norms[1:]))

    def test_single_sweep_is_identity_when_f_absent(self):
        # f absent from the state: the solve's one sweep is the fixed point
        for f in ("0", "sin(t*x)"):
            spec = make_spec(phi2="sin(x)", psi2="cos(x)", F="exp(-x^2)", f=f)
            field = solve_side(spec, 2, GridParams(T=1.0, x_lo=-3.0, x_hi=3.0, nt=8))
            assert field.report.iterations == (1,)
            # iterated as if f fed back, the reference stops on a sweep that
            # moves nothing and ends on the solve's bits
            W, norms = _whole_band_solve(
                spec, 2, field.grid, field.report.strips, PicardParams(), feeds_back=True
            )
            assert norms[0][-1] == 0.0
            np.testing.assert_array_equal(_at_nodes(W, field).view(np.uint64), field.w.view(np.uint64))

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
            # the stored nodes on side 2's (level, offset) rectangle
            inner = np.zeros((g.n_levels + 1, g.j2_max + 1), bool)
            inner[field.nodes()] = True
            inner[0, :] = inner[-1, :] = False
            inner[:, 0] = inner[:, -1] = False
            # shave one more ring so every stencil stays in the sector
            core = inner & np.roll(inner, 1, 0) & np.roll(inner, -1, 0)
            core = core & np.roll(inner, 1, 1) & np.roll(inner, -1, 1)
            level, offset = np.nonzero(core)
            _, p, q = field.at(level, offset)

            def u(dl, do):
                return field.at(level + dl, offset + do)[0]

            dp = (u(1, 0) - u(-1, 0)) / (2 * g.dt) - p
            dq = (u(0, 1) - u(0, -1)) / (2 * g.dx) - q
            return np.max(np.abs(dp)), np.max(np.abs(dq))

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


class TestNonFiniteField:
    @pytest.mark.parametrize(
        "feeds_back, updates",
        [
            (False, [math.nan]),  # the one sweep without feedback
            (True, [math.inf]),  # the warm start
            (True, [0.5, 0.25]),  # a later sweep: nan <= tol is False forever
        ],
        ids=["one-sweep", "warm-start", "loop"],
    )
    def test_picard_stops_at_a_non_finite_update(self, feeds_back, updates):
        it = iter(updates)
        with pytest.raises(NonConvergence, match=r"on band \[0, 4\] left the floating-point") as err:
            _picard(lambda feedback: next(it, math.nan), feeds_back, PicardParams(), "band [0, 4]")
        assert not math.isfinite(err.value.last_update)

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"psi2": "1", "F": "1e308"}, "band [0, 16]"),  # the side's u_t = F t overflows
            ({"psi2": "1", "F": "1e308", "f": "sin(u)", "lipschitz": 0.01}, "band [0, 16]"),
            ({"A": 1e308}, "wedge band [0, 16]"),  # the wedge's gamma1 + gamma2 overflows
        ],
        ids=["side", "side-with-feedback", "wedge"],
    )
    def test_solve_raises_without_warning(self, overrides, where):
        # warnings fail the suite, so an overflow warning would fail this too
        spec = make_spec(**overrides)
        with pytest.raises(NonConvergence, match=f"on {re.escape(where)} left the floating-point"):
            solve(spec, GridParams(T=10.0, x_lo=-1.0, x_hi=1.0, nt=8))


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
                u1, p1, q1 = f1.at(level, j)
                u2, p2, q2 = f2.at(level, -j)
                assert u1 == pytest.approx(u2, abs=1e-12)
                assert p1 == pytest.approx(p2, abs=1e-12)
                assert q1 == pytest.approx(-q2, abs=1e-12)


def _whole_band_map(spec, grid, x_cols, b, block):
    """The side map in whole-band form on the band whose rows are ``block``:
    the integrand G on every node of the band (F alone without feedback),
    band-size I+, I- and D planes from the recurrences of the cauchy module
    docstring, then the three planes combined with the d'Alembert parts.
    Returns ``sweep(feedback)``, which writes rows 1.. on their sectors and
    returns the largest update there."""
    a, dt = grid.a, grid.dt
    dx = a * dt
    nb = block.shape[1] - 1
    ncols = x_cols.shape[0]
    level = np.arange(b, b + nb + 1)[:, None]
    col = np.arange(ncols)[None, :]
    live = (col >= level) & (col < ncols - level)
    live[0] = False  # the anchor row is not written
    row = _dal_rows(a, dt, block[:, 0, b : ncols - b])
    u_dal, p_dal, q_dal = dal = np.zeros((3, nb + 1, ncols))
    for m in range(1, nb + 1):
        row(m, dal[:, m, b + m : ncols - b - m])

    def on_band(e, **env):  # e on every node of the band
        env.update(t=dt * level, x=x_cols[None, :])
        return np.broadcast_to(ex.evaluate(e, env), (nb + 1, ncols))

    F = on_band(spec.F)
    half = 0.5 * dt

    def sweep(feedback):
        G = F
        if feedback:
            u, ut, ux = block
            G = F - on_band(spec.f, u=u, ut=ut, ux=ux)
        Ip = np.zeros_like(G)
        Im = np.zeros_like(G)
        D = np.zeros_like(G)
        for m in range(1, nb + 1):
            Ip[m, 1:] = Ip[m - 1, :-1] + half * (G[m - 1, :-1] + G[m, 1:])
            Im[m, :-1] = Im[m - 1, 1:] + half * (G[m - 1, 1:] + G[m, :-1])
            row = dt * dx * (0.5 * G[m - 1, :-2] + G[m - 1, 1:-1] + 0.5 * G[m - 1, 2:])
            if m == 1:
                D[1, 1:-1] = 0.5 * row
            else:
                D[m, 1:-1] = D[m - 1, :-2] + D[m - 1, 2:] - D[m - 2, 1:-1] + row
        new = np.stack([
            u_dal + D / (2.0 * a),
            p_dal + 0.5 * (Ip + Im),
            q_dal + (Im - Ip) / (2.0 * a),
        ])
        upd = np.abs(new[:, live] - block[:, live]).max(initial=0.0)
        block[:, live] = new[:, live]
        return float(upd)

    return sweep


def _whole_band_solve(spec, side, grid, strips, picard, feeds_back=None):
    """The side solve marched with whole-band sweeps on the side's
    rectangle, the twin of test_goursat's ``_whole_block_solve``.  Returns
    the stacked (u, u_t, u_x) on the rectangle, (3, levels, cols), and the
    update norms per band; ``feeds_back`` overrides whether the Picard
    driver iterates."""
    if feeds_back is None:
        feeds_back = spec.f_reads_state
    x_cols = grid.region_xcols(side)
    W = np.zeros((3, grid.n_levels + 1, x_cols.shape[0]))
    phi, psi = (spec.phi1, spec.psi1) if side == 1 else (spec.phi2, spec.psi2)
    for k, e in enumerate((phi, psi, ex.differentiate(phi, "x"))):
        W[k, 0] = ex.evaluate(e, {"x": x_cols})
    norms = tuple(
        _picard(
            _whole_band_map(spec, grid, x_cols, b, W[:, b : e + 1]),
            feeds_back, picard, "reference band",
        )
        for b, e in strips
    )
    return W, norms


def _at_nodes(W, field):
    """A side's rectangle ``W`` (3, levels, cols) read at the nodes that
    ``field`` stores, in the order of ``field.w``."""
    level, offset = field.nodes()
    return W[:, level, offset - (field.grid.j1_min if field.region.value == 1 else 0)]


class TestBandKernel:
    @pytest.mark.parametrize("name, n_strips", [("manufactured", 6), ("mixed_forcing", 1)])
    def test_streamed_sweep_matches_whole_band_map(self, name, n_strips):
        spec, params, picard = load_problem(name)
        for side in (1, 2):
            field = solve_side(spec, side, params, picard)
            assert len(field.report.strips) == n_strips
            W, norms = _whole_band_solve(spec, side, field.grid, field.report.strips, picard)
            # bit for bit, signed zeros included
            np.testing.assert_array_equal(field.w.view(np.uint64), _at_nodes(W, field).view(np.uint64))
            assert field.report.update_norms == norms

    def test_streamed_rows_keep_f_of_t_and_x(self):
        # f reads t and x but no state: each band is swept once, each row's
        # d'Alembert part, F and f formed as the sweep reaches the row.  A
        # declared L plans 8 bands, and each band's top row, formed by its
        # sweep, anchors the next
        params = GridParams(T=1.5, x_lo=-3.0, x_hi=3.0, nt=16)
        picard = PicardParams()
        for lipschitz, n_strips in ((None, 1), (1.0, 8)):
            spec = make_spec(
                phi1="sin(x)", phi2="cos(x) - 1", psi1="x", psi2="1", F="t*x + 1", f="sin(t*x)",
                lipschitz=lipschitz,
            )
            for side in (1, 2):
                field = solve_side(spec, side, params, picard)
                assert len(field.report.strips) == n_strips
                assert field.report.iterations == (1,) * n_strips
                W, norms = _whole_band_solve(spec, side, field.grid, field.report.strips, picard)
                np.testing.assert_array_equal(field.w.view(np.uint64), _at_nodes(W, field).view(np.uint64))
                assert field.report.update_norms == norms
                # iterated as if f fed back, the reference moves nothing more
                W, norms = _whole_band_solve(
                    spec, side, field.grid, field.report.strips, picard, feeds_back=True
                )
                np.testing.assert_array_equal(field.w.view(np.uint64), _at_nodes(W, field).view(np.uint64))
                assert all(band[-1] == 0.0 for band in norms)

    def test_feedback_that_reads_zero_stores_the_same_bits(self):
        # f = 0 sweeps each band once; f = 0*u and 0*ut + 0*ux feed back and
        # iterate in the band buffer: all three store the same fields
        base = dict(
            x0=0.25, A=0.4, phi1="0.5*sin(2*x)", phi2="1 + 0.25*cos(3*x)",
            psi1="0.1*x", psi2="-0.2", F="t*x", lipschitz=1.0,
        )
        params = GridParams(T=1.5, x_lo=-3.0, x_hi=3.0, nt=16)
        sols = [solve(make_spec(**base, f=f), params) for f in ("0", "0*u", "0*ut + 0*ux")]
        assert len(sols[0].field1.report.strips) == 8
        assert [sol.spec.f_reads_state for sol in sols] == [False, True, True]
        for sol in sols[1:]:
            for name in ("field1", "field2", "field3"):
                assert np.array_equal(getattr(sol, name).w, getattr(sols[0], name).w)

    def test_single_strip_side_solve_memory(self):
        # one sweep forms each row as it goes: row buffers, no band-size
        # planes; the side stores its kept runs, half its rectangle here,
        # and never holds its sectors or the rectangle
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
        ncols = grid.region_xcols(1).size
        # the stored bytes, and 24 full-width (3, ncols) rows: the sweep's
        # row buffers, the anchors and the per-level views
        assert peak <= field.w.nbytes + 24 * 3 * 8 * ncols
        rectangle = 3 * 8 * (grid.n_levels + 1) * ncols
        assert peak <= 0.8 * rectangle

    def test_multi_strip_side_solve_memory(self):
        # bands with feedback iterate in one band buffer of sector rows and
        # store their kept runs: the stored bytes plus the band buffer, its
        # d'Alembert planes and F, not one buffer over the whole side
        spec, params, picard = load_problem("manufactured")
        grid = build_grid(spec, params)
        strips = strip_plan(spec, grid, picard)
        assert len(strips) > 1 and spec.f_reads_state
        tracemalloc.start()
        try:
            field = solve_cauchy_region(spec, 2, grid, strips, picard)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ncols = grid.region_xcols(2).size
        b, e = strips[0]  # the first band's rows are the widest
        band = 3 * 8 * sum(ncols - 2 * i for i in range(b + 1, e + 1))
        assert peak <= field.w.nbytes + 3 * band
