import contextlib
import copy
import errno
from fractions import Fraction
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charwave.cli as cli
from charwave import _fork
from charwave.assembly import sample_user_grid, solve
from charwave.cauchy import GridParams, PicardParams, build_grid
from charwave.errors import ConfigError, NegativeTime, NotLinear, OutOfWindow

from helpers import CORPUS_NAMES, bench_like, config_path


GOOD = {
    "a": 1.0, "x0": 0.0, "A": 0.0,
    "phi1": "0", "phi2": "0", "psi1": "0", "psi2": "1",
    "F": "0", "f": "0",
    "window": {"T": 1.0, "xmin": -3.0, "xmax": 3.0},
    "grid": {"nt": 8},
}

# a linear problem whose closed-form reference overflows once F or psi2 is
# scaled to 1e308
OVERFLOW_REFERENCE = {
    "A": 1.0, "phi2": "1", "psi2": "0", "window": {"T": 1.5, "xmin": -3.0, "xmax": 3.0},
}

# u = 1e307 at h = 1: the audit's trace and jump tolerances, 20 h^2 |u|,
# overflow
OVERFLOW_TOLERANCE = {
    "A": 1e307, "phi1": "1e307", "phi2": "1e307", "psi2": "0",
    "window": {"T": 8.0, "xmin": -40.0, "xmax": 40.0},
}


def write_cfg(tmp_path, name="prob.json", **overrides):
    cfg = json.loads(json.dumps(GOOD))
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:
    def test_good_file(self, tmp_path):
        spec, grid, picard = cli.load_config(write_cfg(tmp_path))
        assert spec.a == 1.0
        assert grid.nt == 8
        assert picard == PicardParams()

    def test_picard_overrides(self, tmp_path):
        path = write_cfg(tmp_path, picard={"tol": 1e-8, "max_iter": 10})
        _, _, picard = cli.load_config(path)
        assert picard.tol == 1e-8
        assert picard.max_iter == 10

    def test_lipschitz_optional(self, tmp_path):
        spec, _, _ = cli.load_config(write_cfg(tmp_path))
        assert spec.lipschitz is None
        spec, _, _ = cli.load_config(write_cfg(tmp_path, lipschitz=2.5))
        assert spec.lipschitz == 2.5

    @pytest.mark.parametrize(
        "overrides",
        [
            {"bogus": 1},
            {"phi1": None},
            {"window": {"T": 1.0, "xmin": -3.0}},
            {"window": {"T": 1.0, "xmin": -3.0, "xmax": 3.0, "extra": 0}},
            {"grid": {"nt": "8"}},
            {"grid": {"nt": 8, "nx": 4}},
            {"picard": {"tol": 1e-8, "other": 1}},
            {"a": "1.0"},
            {"A": True},
            {"phi1": 7},
            {"phi1": "2*)"},
            {"phi1": "q + 1"},
            {"window": {"T": -1.0, "xmin": -3.0, "xmax": 3.0}},
        ],
    )
    def test_defective_configs_rejected(self, tmp_path, overrides):
        path = write_cfg(tmp_path, **overrides)
        with pytest.raises(Exception) as err:
            cli.load_config(path)
        from charwave.errors import CharwaveError

        assert isinstance(err.value, CharwaveError)

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(ConfigError):
            cli.load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"a": 10**400}, "'a'"),
            ({"x0": -(10**400)}, "'x0'"),
            ({"A": 10**400}, "'A'"),
            ({"lipschitz": 10**400}, "'lipschitz'"),
            ({"window": {"T": 10**400, "xmin": -3.0, "xmax": 3.0}}, "window.'T'"),
            ({"picard": {"tol": 10**400}}, "picard.'tol'"),
        ],
    )
    def test_number_outside_the_float_range(self, tmp_path, overrides, key):
        # JSON integers have no size limit; the value itself is not printed
        with pytest.raises(ConfigError) as err:
            cli.load_config(write_cfg(tmp_path, **overrides))
        assert str(err.value) == f"key {key} is outside the float range"

    @pytest.mark.parametrize(
        "nt, message",
        [
            (10**400, "nt is outside the float range"),  # T / nt would overflow
            (-(10**400), "nt is outside the float range"),
            (1, "nt must be an integer >= 2, got 1"),
        ],
        ids=["1e400", "-1e400", "1"],
    )
    def test_grid_rejects_nt(self, nt, message):
        with pytest.raises(ConfigError) as err:
            GridParams(T=1.0, x_lo=-1.0, x_hi=1.0, nt=nt)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "old, new",
        [(b'"nt": 8', b'"nt": ' + b"9" * 5001), (b'"F": "0"', b'"F": ' + b"[" * 10**5 + b"]" * 10**5)],
        ids=["5001-digit-integer", "array-nested-100000-deep"],
    )
    def test_json_the_decoder_cannot_hold(self, tmp_path, old, new):
        # json.load raises ValueError and RecursionError, not JSONDecodeError
        path = pathlib.Path(write_cfg(tmp_path))
        path.write_bytes(path.read_bytes().replace(old, new))
        with pytest.raises(ConfigError, match=" is not valid JSON: "):
            cli.load_config(str(path))


class TestSolveCommand:
    def test_writes_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out.csv"
        assert cli.main(["solve", cfg, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,region,u,ut,ux"
        nrows = len(lines) - 1
        # 9 time rows x (2*24+1 = 49 columns): window snaps to dx_user = 1/8
        assert nrows == 9 * 49
        regions = {row.split(",")[2] for row in lines[1:]}
        assert regions == {"1", "2", "3"}

    def test_t_outer_x_inner_ordering(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out.csv"
        cli.main(["solve", cfg, "-o", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        ts = [float(r[0]) for r in rows]
        assert ts == sorted(ts)
        xs_first_block = [float(r[1]) for r in rows if float(r[0]) == 0.0]
        assert xs_first_block == sorted(xs_first_block)

    def test_17_significant_digits(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out.csv"
        cli.main(["solve", cfg, "-o", str(out)])
        # psi-step: u = t at wedge nodes off the fan; t = 1/3 nowhere, but
        # u = 0.0625... check a row that needs full precision: find any cell
        # whose repr round-trips
        for line in out.read_text().splitlines()[1:]:
            parts = line.split(",")
            for v in (parts[0], parts[1], parts[3], parts[4], parts[5]):
                assert float(v) == float(repr(float(v)))  # lossless round-trip

    def test_deterministic_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["solve", cfg, "-o", str(out1)])
        cli.main(["solve", cfg, "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o.csv"
        assert cli.main(["solve", cfg, "-o", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "Continuous"
        assert payload["output"] == str(out)

    def test_reserialized_config_same_csv(self, tmp_path):
        # writing the parsed JSON back out (different key order, formatting)
        # must not change the result
        cfg1 = write_cfg(tmp_path, name="one.json")
        blob = json.loads(pathlib.Path(cfg1).read_text())
        cfg2 = tmp_path / "two.json"
        cfg2.write_text(json.dumps(dict(reversed(list(blob.items()))), indent=4))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["solve", cfg1, "-o", str(out1)])
        cli.main(["solve", str(cfg2), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_golden_bytes(self, tmp_path, monkeypatch, name):
        # the per-node loop the writer replaced is the oracle for the format
        sols = []

        def spy(*args):
            sols.append(solve(*args))
            return sols[-1]

        monkeypatch.setattr(cli, "solve", spy)
        out = tmp_path / "out.csv"
        assert cli.main(["solve", str(config_path(name)), "-o", str(out)]) == 0
        assert len(sols) == 1
        times, xs, region, u, p, q = sample_user_grid(sols[0])
        assert set(np.unique(region).tolist()) == {1, 2, 3}
        lines = ["t,x,region,u,ut,ux"]
        for i in range(len(times)):
            for j in range(len(xs)):
                lines.append(
                    "%.17g,%.17g,%d,%.17g,%.17g,%.17g"
                    % (times[i], xs[j], region[i, j], u[i, j], p[i, j], q[i, j])
                )
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_write_memory(self, tmp_path, solved, name):
        # the writer reads one user level at a time, so it never holds a
        # whole-grid array: its peak stays below one (nt+1, cols) float64 plane
        sol = solved[name]
        g = sol.grid
        plane = 8 * (g.nt + 1) * g.user_offsets().size
        tracemalloc.start()
        try:
            cli.write_csv(sol, str(tmp_path / "out.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= plane


class TestCsvHalves:
    """``write_csv`` formats the levels from (nt + 1) // 2 on as the second
    part of ``_fork.both``: in a child process at ``_fork.FLOOR`` user nodes
    or more while no second thread runs, in this one otherwise."""

    @pytest.fixture
    def temporaries(self, monkeypatch):
        """The ``dir`` of each temporary file opened during the test."""
        dirs = []
        real = tempfile.TemporaryFile

        def spy(*args, dir=None, **kw):
            dirs.append(dir)
            return real(*args, dir=dir, **kw)

        monkeypatch.setattr(tempfile, "TemporaryFile", spy)
        return dirs

    @pytest.mark.parametrize("name", [*CORPUS_NAMES, "bench_like"])
    def test_forked_csv_is_the_in_process_csv(self, tmp_path, monkeypatch, solved, forks, name):
        sol = solve(*bench_like()) if name == "bench_like" else solved[name]
        forks.clear()
        out = []
        for floor in (0, math.inf):
            monkeypatch.setattr(_fork, "FLOOR", floor)
            path = tmp_path / "out.csv"
            cli.write_csv(sol, str(path))
            out.append(path.read_bytes())
        assert len(forks) == 1
        assert out[0] == out[1]

    def test_forked_csv_with_sigchld_ignored(self, tmp_path, monkeypatch, solved, forks, sigchld_ignored):
        sol = solved["psi_step"]
        out = []
        for floor in (0, math.inf):
            monkeypatch.setattr(_fork, "FLOOR", floor)
            path = tmp_path / "out.csv"
            cli.write_csv(sol, str(path))
            out.append(path.read_bytes())
        assert len(forks) == 1
        assert out[0] == out[1]

    def test_childs_error_is_raised_again(self, tmp_path, monkeypatch, solved, forks):
        sol = solved["zero"]
        half = (sol.grid.nt + 1) // 2
        real = cli.sample_user_grid

        def sample(sol, level):
            if level == half:
                raise MemoryError(f"no room for level {level}")
            return real(sol, level)

        monkeypatch.setattr(cli, "sample_user_grid", sample)
        monkeypatch.setattr(_fork, "FLOOR", 0)
        with pytest.raises(MemoryError, match=f"no room for level {half}$"):
            cli.write_csv(sol, str(tmp_path / "out.csv"))
        assert len(forks) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_stops_the_child(self, monkeypatch, solved, forks):
        # this process's first level fails to write; the child is killed and
        # reaped (the autouse no_child_left fixture checks the reaping)
        monkeypatch.setattr(_fork, "FLOOR", 0)
        with pytest.raises(ConfigError, match=os.strerror(errno.ENOSPC)):
            cli.write_csv(solved["zero"], "/dev/full")
        assert len(forks) == 1

    def test_appends_to_a_pipe(self, tmp_path, monkeypatch, solved, forks, temporaries):
        # the child's half waits in tempfile's directory, not beside the pipe;
        # the pipe is drained by another process, as a thread would stop the fork
        sol = solved["psi_step"]
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        cli.write_csv(sol, str(want))
        monkeypatch.setattr(_fork, "FLOOR", 0)
        forks.clear()
        temporaries.clear()
        drain = "import shutil, sys; shutil.copyfileobj(sys.stdin.buffer, open(sys.argv[1], 'wb'))"
        reader = subprocess.Popen([sys.executable, "-c", drain, str(got)], stdin=subprocess.PIPE)
        try:
            cli.write_csv(sol, f"/dev/fd/{reader.stdin.fileno()}")
        finally:
            reader.stdin.close()
            assert reader.wait(timeout=60.0) == 0
        assert got.read_bytes() == want.read_bytes()
        assert len(forks) == 1
        assert temporaries == [None]

    def test_childs_half_waits_beside_the_output(self, tmp_path, monkeypatch, solved, forks, temporaries):
        monkeypatch.setattr(_fork, "FLOOR", 0)
        cli.write_csv(solved["psi_step"], str(tmp_path / "out.csv"))
        assert len(forks) == 1
        assert temporaries == [str(tmp_path)]
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("why", ["thread", "floor"])
    def test_no_fork_with_a_thread_or_below_the_floor(self, tmp_path, monkeypatch, solved, forks, temporaries, why):
        sol = solved["zero"]
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        if why == "thread":
            monkeypatch.setattr(_fork, "FLOOR", 0)
            worker.start()
        else:
            monkeypatch.setattr(_fork, "FLOOR", sol.grid.user_nodes + 1)
        try:
            cli.write_csv(sol, str(tmp_path / "out.csv"))
        finally:
            release.set()
            if why == "thread":
                worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert forks == []
        assert temporaries == []


def _ref17(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, np.float64).tolist()]


def _neighbours(values, ulps: int) -> np.ndarray:
    """Each value and the doubles up to ``ulps`` steps either side of it."""
    values = np.asarray(values, np.float64)
    out = [values]
    for direction in (-np.inf, np.inf):
        v = values
        for _ in range(ulps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


def _halfway_cases() -> np.ndarray:
    """Doubles v, both signs, with v * 10**(16 - k) exactly halfway between
    two integers, for every exponent k the vector path formats: v = m / 2**(p+1)
    with m odd and m * 5**p / 2 in [10**16, 10**17), p = 16 - k."""
    rng = np.random.default_rng(2024)
    values = []
    for p in range(1, 21):
        # m < 2**53, so that m / 2**(p+1) is exact
        lo, hi = -(-2 * 10**16 // 5**p), min(2 * 10**17 // 5**p, 2**53)
        ms = [lo, hi - 1, *rng.integers(lo, hi, 60).tolist()]
        values += [(m | 1) / 2 ** (p + 1) for m in ms if m | 1 < hi]
    values = np.array(values)
    return np.concatenate([values, -values])


class TestFormat17:
    """``cli._format17`` is exactly ``b"%.17g" % v`` for every float64."""

    def test_halfway_cases_round_to_even(self):
        values = _halfway_cases()
        assert values.size > 2000
        # each is halfway at its 17th significant digit
        for v in values.tolist():
            scaled = abs(Fraction(v)) * Fraction(10) ** (16 - math.floor(math.log10(abs(v))))
            # log10 may round across a power of ten
            scaled *= 10 if scaled < 10**16 else Fraction(1, 10) if scaled > 10**17 else 1
            assert scaled.denominator == 2 and 10**16 < scaled < 10**17
        got = cli._format17(_neighbours(values, 1))
        assert got.tolist() == _ref17(_neighbours(values, 1))

    def test_powers_of_ten_and_the_range_ends(self):
        values = np.array([10.0**k for k in range(-6, 19)] + [1e-4, 1e16])
        values = _neighbours(np.concatenate([values, -values]), 2)
        assert cli._format17(values).tolist() == _ref17(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        assert cli._format17(values).tolist() == _ref17(values)

    def test_random_values_in_the_vector_range(self):
        # uniform bit patterns are mostly tiny or huge; these all take the
        # vector path: random mantissas over 1e-4 <= |v| < 1e16
        rng = np.random.default_rng(18)
        values = rng.uniform(1, 10, 10**6) * 10.0 ** rng.integers(-4, 16, 10**6)
        values *= rng.choice([-1.0, 1.0], values.size)
        assert cli._format17(values).tolist() == _ref17(values)

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(st.floats())
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072014e-308)
    @example(math.nan)
    @example(-math.inf)
    def test_any_float(self, v):
        assert cli._format17(np.array([v])).tolist() == [b"%.17g" % v]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), max_size=40))
    def test_any_mix(self, values):
        # zeros, fallback values and vector values side by side in one call
        assert cli._format17(np.array(values, np.float64)).tolist() == _ref17(values)


class TestClassifyCommand:
    def test_general_jump_text(self, capsys):
        rc = cli.main(["classify", str(config_path("phi_step_general"))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "case: GeneralJump" in out
        assert "generalized d'Alembert: no" in out
        assert "left jump constant" in out and "= 1" in out

    def test_midpoint_json(self, capsys):
        rc = cli.main(["classify", str(config_path("phi_step_midpoint")), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "MidpointJump"
        assert payload["generalized_dalembert"] is True
        assert payload["left_jump_constant"] == 0.5
        assert payload["right_jump_constant"] == 0.5

    def test_continuous(self, capsys):
        rc = cli.main(["classify", str(config_path("phi_kink_continuous")), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "Continuous"


class TestVerifyCommand:
    def test_passes_on_good_problem(self, tmp_path, capsys):
        rc = cli.main(["verify", write_cfg(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert out.count("PASS") >= 6

    def test_json_mode(self, tmp_path, capsys):
        rc = cli.main(["verify", write_cfg(tmp_path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 5

    @pytest.mark.parametrize(
        "f", ["log(u) - log(2)", "1/u - 0.5", "sqrt(u - 1.5) - sqrt(0.5)"]
    )
    def test_f_defined_only_near_the_solution(self, tmp_path, capsys, f):
        # u = 2 wherever the solution lives; each f is undefined at u = 0, the
        # value of every other node
        path = write_cfg(
            tmp_path, A=2.0, phi1="2", phi2="2", psi2="0", f=f, lipschitz=1.0,
            window={"T": 1.0, "xmin": -2.0, "xmax": 2.0}, grid={"nt": 16},
        )
        sol = solve(*cli.load_config(path))
        assert len(sol.field1.report.strips) > 1
        for field in (sol.field1, sol.field2, sol.field3):
            assert np.all(field.u[field.live] == 2.0)
        assert cli.main(["verify", path]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_overflowing_tolerance_is_1(self, tmp_path, capsys):
        # no verdict against an infinite tolerance
        assert cli.main(["verify", write_cfg(tmp_path, **OVERFLOW_TOLERANCE)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the goursat_traces tolerance is inf")
        assert captured.err.count("\n") == 1
        assert "PASS" not in captured.out

    def test_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        from charwave.verify import CheckResult, VerificationReport

        failing = VerificationReport(
            checks=(CheckResult("initial_u", 1.0, 1e-9, False),)
        )
        monkeypatch.setattr(cli, "check_definition1", lambda sol: failing)
        rc = cli.main(["verify", write_cfg(tmp_path)])
        assert rc == 3
        assert "overall: FAIL" in capsys.readouterr().out


class TestConvergeCommand:
    def test_oracle_reference(self, tmp_path, capsys):
        rc = cli.main(["converge", write_cfg(tmp_path), "--levels", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "order:" in out

    def test_json(self, tmp_path, capsys):
        rc = cli.main(["converge", write_cfg(tmp_path), "--levels", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["entries"]) == 2
        assert payload["entries"][1]["nt"] == 16

    def test_explicit_reference_expression(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            phi1="sin(x)", phi2="sin(x)", psi1="-cos(x)", psi2="-cos(x)",
            F="sin(sin(x-t))", f="sin(u)", lipschitz=1.0,
        )
        rc = cli.main(["converge", cfg, "--levels", "2", "--reference", "sin(x - t)", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"][0]["err"] < 1e-2

    def test_rounding_at_a_large_scale_is_exact(self, tmp_path, capsys):
        # linear data at the scale 1e307 are reproduced to rounding, about
        # 1e-16 of the field; no order can be fitted to such errors
        cfg = write_cfg(tmp_path, phi1="1e307*x", phi2="1e307", psi2="0", A=1e307)
        assert cli.main(["converge", cfg, "--levels", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(0.0 < e["err"] < 1e-15 * 1e307 for e in payload["entries"])
        assert payload["exact"] is True and payload["order"] is None

    @pytest.mark.parametrize(
        "overrides", [{"F": "1e308"}, {"psi2": "-1e308*x"}], ids=["F-1e308", "psi2--1e308x"]
    )
    def test_overflowing_reference_is_1(self, tmp_path, capsys, overrides):
        # the closed-form reference leaves the floating-point range at some
        # probe: one error line naming it, and no numpy warning on the way
        cfg = write_cfg(tmp_path, **{**OVERFLOW_REFERENCE, **overrides})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["converge", cfg, "--levels", "2"]) == 1
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert captured.err.startswith("error: the closed-form reference at (t=")
        assert captured.err.count("\n") == 1 and "Warning" not in captured.err
        assert "order" not in captured.out

    def test_oracle_with_nonlinear_f_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f="sin(u)", lipschitz=1.0)
        assert cli.main(["converge", cfg, "--levels", "2"]) == 1
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    # T = 1.5 at nt = 2 makes converge's probe collar wider than half the
    # window, and verify's residual stencils need nt >= 4
    NARROW = {"window": {"T": 1.5, "xmin": -0.3, "xmax": 0.3}, "grid": {"nt": 2}}

    @pytest.mark.parametrize(
        "argv, verdict",
        [(["converge", "--levels", "2"], "order"), (["verify"], "PASS")],
        ids=["converge", "verify"],
    )
    def test_window_without_probes_is_1(self, tmp_path, capsys, argv, verdict):
        cfg = write_cfg(tmp_path, **self.NARROW)
        assert cli.main([argv[0], cfg, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert verdict not in captured.out

    @pytest.mark.parametrize(
        "error",
        [
            OutOfWindow("(t=2, x=0) outside the solved window"),
            NotLinear("the closed-form reference requires f to be literally 0"),
            NegativeTime("t=-1"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_any_charwave_error_is_1(self, tmp_path, capsys, monkeypatch, error):
        def fail(spec):
            raise error

        monkeypatch.setattr(cli, "diagnose", fail)
        assert cli.main(["classify", write_cfg(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""

    def test_undefined_f_without_lipschitz_is_1(self, tmp_path, capsys):
        # the estimate samples f where the solution (u = 2) does not live
        cfg = write_cfg(tmp_path, A=2.0, phi1="2", phi2="2", psi2="0", f="log(u) - log(2)")
        out = tmp_path / "x.csv"
        assert cli.main(["solve", cfg, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "lipschitz" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"a": 5e-324},  # the user step dx underflows to 0
            {"window": {"T": 1e-320, "xmin": -3.0, "xmax": 3.0}},  # infinitely many columns
            {"a": 1e-300},  # a finite column count past physical memory
            {"grid": {"nt": 10**9}},  # the same at a plain step
        ],
        ids=["a-5e-324", "T-1e-320", "a-1e-300", "nt-1e9"],
    )
    def test_degenerate_grid_is_1(self, tmp_path, capsys, overrides):
        cfg = json.loads(config_path("phi_sq").read_text())
        cfg.update(overrides)
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(cfg))
        spec, grid, _ = cli.load_config(str(path))
        # rejected before any array is allocated
        with pytest.raises(ConfigError):
            build_grid(spec, grid)
        out = tmp_path / "x.csv"
        assert cli.main(["solve", str(path), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    def test_memory_error_is_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise MemoryError("Unable to allocate 2.62 TiB for an array")

        monkeypatch.setattr(cli, "solve", fail)
        out = tmp_path / "x.csv"
        assert cli.main(["solve", write_cfg(tmp_path), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory: Unable to allocate 2.62 TiB for an array\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "command, overrides, code",
        [
            ("classify", {"phi1": "1\u00b2"}, 1),
            ("solve", {"phi1": "1e308*(x-5)"}, 1),
            ("classify", {"phi1": "(" * 300 + "x" + ")" * 300}, 1),
            ("solve", {"phi1": "+".join(["x"] * 3000)}, 1),
            ("classify", None, 1),
            ("solve", {"F": "1e308", "window": {"T": 10.0, "xmin": -1.0, "xmax": 1.0}}, 2),
        ],
        ids=["non-ascii-digit", "overflow", "300-parentheses", "3000-term-sum", "utf16-file", "F-1e308"],
    )
    def test_bad_input_prints_one_error_line(self, tmp_path, capsys, command, overrides, code):
        if overrides is None:  # a problem file saved as UTF-16
            cfg = tmp_path / "utf16.json"
            cfg.write_bytes(b"\xff\xfe" + json.dumps(GOOD).encode("utf-16-le"))
            cfg = str(cfg)
        else:
            cfg = write_cfg(tmp_path, **overrides)
        out = tmp_path / "x.csv"
        argv = [command, cfg] + (["-o", str(out)] if command == "solve" else [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["converge", "CFG", "--levels", "abc"], "argument --levels: invalid int value: 'abc'"),
            (["solve", "CFG"], "the following arguments are required: -o/--output"),
            (["bogus", "CFG"], "argument command: invalid choice: 'bogus'"),
            (["classify", "CFG", "--bogus"], "unrecognized arguments: --bogus"),
        ],
        ids=["levels-abc", "solve-without-o", "unknown-subcommand", "unknown-flag"],
    )
    def test_usage_error_is_1(self, tmp_path, capsys, argv, message):
        # exit 2 means non-convergence, not argparse's usage error
        cfg = write_cfg(tmp_path)
        assert cli.main([cfg if a == "CFG" else a for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_is_0(self, capsys, argv):
        with pytest.raises(SystemExit) as done:
            cli.main(argv)
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: charwave")

    def test_config_error_is_1(self, tmp_path, capsys):
        assert cli.main(["solve", write_cfg(tmp_path, bogus=1), "-o", "x.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["phi1", "phi2", "psi1", "psi2", "F", "f"])
    def test_expression_error_names_its_key(self, tmp_path, capsys, key):
        assert cli.main(["classify", write_cfg(tmp_path, **{key: "1\u00b2"})]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {key}: unexpected character '\u00b2' (at offset 1)\n"
        assert captured.out == ""

    def test_expression_error_is_1(self, tmp_path, capsys):
        assert cli.main(["classify", write_cfg(tmp_path, phi2="((")]) == 1
        capsys.readouterr()

    def test_nonconvergence_is_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f="50*u", lipschitz=50.0)
        assert cli.main(["solve", cfg, "-o", str(tmp_path / "x.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_1(self, tmp_path, capsys):
        assert cli.main(["classify", str(tmp_path / "nope.json")]) == 1
        capsys.readouterr()

    def test_invalid_speed_is_1(self, tmp_path, capsys):
        assert cli.main(["classify", write_cfg(tmp_path, a=-1)]) == 1
        assert "error: wave speed" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["0", "1"])
    def test_converge_needs_two_levels(self, tmp_path, capsys, levels):
        assert cli.main(["converge", write_cfg(tmp_path), "--levels", levels]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "order" not in captured.out

    def test_infinite_tol_is_1(self, tmp_path, capsys):
        # json writes the float as Infinity, which the reader accepts
        cfg = write_cfg(tmp_path, picard={"tol": float("inf")})
        assert cli.main(["verify", cfg]) == 1
        captured = capsys.readouterr()
        assert "error: tol must be a finite number" in captured.err
        assert "PASS" not in captured.out

    def test_unwritable_output_is_1(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "out.csv"
        assert cli.main(["solve", write_cfg(tmp_path), "-o", str(out)]) == 1
        assert "error: cannot write" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_error_is_1(self, tmp_path, capsys):
        # /dev/full opens fine and fails every flush, so the error comes from
        # a write or the close after rows have been formatted
        assert cli.main(["solve", write_cfg(tmp_path), "-o", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert "error: cannot write /dev/full" in err
        assert os.strerror(errno.ENOSPC) in err


def _run_cli(argv, **kw):
    """``python *argv`` in a subprocess that imports the same charwave as
    this process, installed or not."""
    import charwave

    src = str(pathlib.Path(charwave.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, *argv], env={**os.environ, "PYTHONPATH": path}, **kw)


@pytest.mark.parametrize("command", ["solve", "classify", "verify", "converge"])
def test_closed_stdout_is_one_error_line(tmp_path, command):
    # the reader closes stdout before the command prints: exit 1 and one
    # error line, no traceback, also from the flush at exit
    argv = [command, write_cfg(tmp_path), "--json"]
    if command == "solve":
        argv += ["-o", str(tmp_path / "out.csv")]
    proc = _run_cli(["-m", "charwave.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err.splitlines() == [f"error: cannot write to stdout: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"]


def test_cli_under_a_parent_that_ignores_sigchld(tmp_path, monkeypatch):
    # SIGCHLD's ignored disposition survives execve: the forked side 2 and
    # CSV half are reaped by the kernel, and the CSV has the in-process bytes
    path = write_cfg(tmp_path, A=0.5, phi2="1", f="sin(u)", grid={"nt": 64})
    spec, grid, picard = cli.load_config(path)
    assert build_grid(spec, grid).user_nodes >= _fork.FLOOR
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    run = ("import os, signal, sys; signal.signal(signal.SIGCHLD, signal.SIG_IGN); "
           "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])")
    proc = _run_cli(["-c", run, "-m", "charwave.cli", "solve", path, "-o", str(got)],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert out.startswith(b"wrote ")
    monkeypatch.setattr(_fork, "FLOOR", math.inf)
    cli.write_csv(solve(spec, grid, picard), str(want))
    assert got.read_bytes() == want.read_bytes()


def test_module_entry_point(tmp_path):
    proc = _run_cli(["-m", "charwave.cli", "classify", write_cfg(tmp_path), "--json"],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert json.loads(out)["case"] == "Continuous"


# --------------------------------------------------------------------------
# Problem-file fuzz: valid problems from fixed ranges, then mutated.  Every
# grid these values make is either rejected by build_grid or under 1 MiB,
# so no example allocates a large array.

# t*x is the forcing in t and x: converge's closed-form reference integrates
# it over a 1025^2 lattice at each probe, the study's costliest reference
_POOLS = {
    "phi1": ("0", "1", "x", "x^2 - 1", "sin(3*x)", "abs(x)", "1e308*x"),
    "phi2": ("0", "1", "x", "cos(x)", "exp(x)", "2 - x"),
    "psi1": ("0", "1", "x", "sin(x)"),
    "psi2": ("0", "1", "-x", "-1e308*x"),
    "F": ("0", "1", "1e308", "t*x"),
    "f": ("0", "sin(u)", "u^2/50", "log(u)", "0.5*ut - ux", "t*x"),
}
_EXTREMES = (5e-324, 1e-300, 1e300)
# 10**400 is a valid JSON integer outside the float range
_BAD_NUMBERS = (math.nan, math.inf, -math.inf, 0.0, -1.0, *_EXTREMES, 10**400)
_WRONG_TYPES = (None, True, "1", [1.0], {"v": 1})
# characters of the expression grammar: digits, names, operators
_ALPHABET = "0123456789.eE+-*/^(), tuxsincoplgqrahbm_"
_DROP = object()
_NARROW = {"T": 0.5, "xmin": -1.0, "xmax": 1.0}


def _value(kind):
    """A mutation's new value for a key of ``kind``, or _DROP to delete it."""
    if kind == "number":
        values = st.sampled_from(_BAD_NUMBERS + _WRONG_TYPES)
    elif kind == "window":  # a window edge: huge, or next to x0 = 0
        values = st.sampled_from((-1e300, 1e300, -1e-300, 1e-300, math.nan) + _WRONG_TYPES)
    elif kind == "integer":
        values = st.sampled_from((0, 1, -3, 2.5, math.inf, 10**400) + _WRONG_TYPES)
    else:
        values = st.one_of(st.text(_ALPHABET, max_size=16), st.sampled_from(_WRONG_TYPES))
    return st.one_of(st.just(_DROP), values)


_PATHS = {
    **{(key,): "number" for key in ("a", "x0", "A", "lipschitz")},
    **{(key,): "expression" for key in _POOLS},
    ("window", "T"): "number",
    ("window", "xmin"): "window",
    ("window", "xmax"): "window",
    ("grid", "nt"): "integer",
    ("picard", "tol"): "number",
    ("picard", "max_iter"): "integer",
    ("window",): "expression",
    ("grid",): "number",
    ("picard",): "number",
}
_MUTATION = st.sampled_from(sorted(_PATHS)).flatmap(
    lambda path: st.tuples(st.just(path), _value(_PATHS[path]))
)


@st.composite
def problem_files(draw):
    """The bytes of a problem file: a valid problem, then up to two
    mutations (a dropped key, a wrong type, a bad or extreme number, a string
    of the grammar's characters), then possibly a byte that is not UTF-8."""
    x0 = draw(st.sampled_from((0.0, -0.5, 0.75)))
    cfg = {
        "a": draw(st.floats(0.25, 2.0)),
        "x0": x0,
        "A": draw(st.floats(-2.0, 2.0)),
        **{key: draw(st.sampled_from(pool)) for key, pool in _POOLS.items()},
        "window": {
            "T": draw(st.floats(0.25, 1.0)),
            "xmin": x0 - draw(st.floats(0.5, 4.0)),
            "xmax": x0 + draw(st.floats(0.5, 4.0)),
        },
        # verify's residual stencils need nt >= 4
        "grid": {"nt": draw(st.sampled_from((8, 7, 4, 2)))},
    }
    if draw(st.booleans()):
        cfg["lipschitz"] = draw(st.floats(0.0, 2.0))
    if draw(st.booleans()):
        cfg["picard"] = {"tol": 1e-10, "max_iter": draw(st.integers(1, 64))}
    for path, value in draw(st.lists(_MUTATION, max_size=2)):
        node = cfg
        for key in path[:-1]:
            node = node.get(key)
        if not isinstance(node, dict):
            continue
        if value is _DROP:
            node.pop(path[-1], None)
        else:  # a copy: a later mutation may write into it
            node[path[-1]] = copy.deepcopy(value)
    data = json.dumps(cfg).encode()
    if draw(st.sampled_from((False,) * 7 + (True,))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\xc3", b"\xe2\x82"))) + data[at:]
    return data


def _file(*bases, **overrides):
    cfg = dict(GOOD)
    for base in (*bases, overrides):
        cfg.update(base)
    return json.dumps(cfg).encode()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=problem_files(), command=st.sampled_from(("classify", "solve", "verify", "converge")))
@example(data=_file(OVERFLOW_REFERENCE, F="1e308"), command="converge")
@example(data=_file(OVERFLOW_REFERENCE, psi2="-1e308*x"), command="converge")
# the Lipschitz estimate's sample of u, or its difference quotient, overflows
@example(data=_file(phi1="1e308*x", f="sin(u)", window=_NARROW), command="solve")
@example(data=_file(phi2="1e308*x", f="u^2/50", window=_NARROW), command="solve")
@example(data=_file(f="1e308*tanh(1e6*u)"), command="solve")
# the audit's extrapolation at a side near 1e308 overflows
@example(
    data=_file(
        a=0.25, x0=-0.5, psi2="-1e308*x", F="1", window={"T": 0.72, "xmin": -3.67, "xmax": 0.144}
    ),
    command="verify",
)
# the audit's tolerances overflow
@example(data=_file(OVERFLOW_TOLERANCE), command="verify")
# dt^2 underflows to 0 (T = 1e-300) while u_tt = 2 a^2 overflows (a = 1e300)
@example(
    data=_file(a=1e300, phi1="x^2", phi2="x^2", window={"T": 1e-300, "xmin": -1.0, "xmax": 1.0}),
    command="verify",
)
# integers outside the float range, in the reader and in build_grid's T / nt
@example(data=_file(a=10**400), command="classify")
@example(data=_file(grid={"nt": 10**400}), command="solve")
# JSON that json.load cannot hold, which json.dumps cannot write either
@example(data=_file().replace(b'"nt": 8', b'"nt": ' + b"9" * 5001), command="classify")
@example(data=_file(F="@").replace(b'"@"', b"[" * 10**5 + b"]" * 10**5), command="classify")
def test_no_problem_file_breaks_the_cli(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "wb") as fh:
            fh.write(data)
        out = os.path.join(tmp, "out.csv")
        argv = {
            "solve": ["solve", path, "-o", out],
            "converge": ["converge", path, "--levels", "2"],
        }.get(command, [command, path])
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        err = stderr.getvalue()
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err and "Warning" not in err
        if code == 0:
            assert err == ""
            if command == "solve":
                values = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
                assert values.size and np.isfinite(values).all()
        elif code == 3:  # a verdict, not an error
            assert err == "" and "overall: FAIL" in stdout.getvalue()
        else:
            assert err.startswith("error:") and err.count("\n") == 1
