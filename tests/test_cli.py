import errno
import json
import os
import pathlib

import numpy as np
import pytest

import charwave.cli as cli
from charwave.assembly import sample_user_grid, solve
from charwave.cauchy import PicardParams
from charwave.errors import ConfigError, NegativeTime, OutOfWindow, TooCloseToCharacteristic

from helpers import config_path


GOOD = {
    "a": 1.0, "x0": 0.0, "A": 0.0,
    "phi1": "0", "phi2": "0", "psi1": "0", "psi2": "1",
    "F": "0", "f": "0",
    "window": {"T": 1.0, "xmin": -3.0, "xmax": 3.0},
    "grid": {"nt": 8},
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

    @pytest.mark.parametrize("name", ["phi_step_general", "manufactured"])
    def test_golden_bytes(self, tmp_path, monkeypatch, name):
        # the per-node loop the writer replaced is the oracle for the format
        sols = []

        def spy(sol):
            sols.append(sol)
            return sample_user_grid(sol)

        monkeypatch.setattr(cli, "sample_user_grid", spy)
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

    def test_oracle_with_nonlinear_f_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f="sin(u)", lipschitz=1.0)
        assert cli.main(["converge", cfg, "--levels", "2"]) == 1
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    # T = 1.5 at nt = 2 makes the probe collar wider than half the window
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
            TooCloseToCharacteristic("stencil straddles a characteristic"),
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

    def test_config_error_is_1(self, tmp_path, capsys):
        assert cli.main(["solve", write_cfg(tmp_path, bogus=1), "-o", "x.csv"]) == 1
        assert "error:" in capsys.readouterr().err

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


def test_module_entry_point(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys

    import charwave

    # the child imports the same charwave as this process, installed or not
    src = str(pathlib.Path(charwave.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    cfg = write_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "charwave.cli", "classify", cfg, "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["case"] == "Continuous"
