"""Tests of the benchmark itself: generators, span arithmetic, checks.

Run from the repository root:  python3 -m pytest benchmarks/tests -q
"""

import json
import math
import os

import numpy as np
import pytest

import charwave as cw
import checks
import problems
import run
import spans
import worker
from charwave.cauchy import estimate_lipschitz, plan_strips

# --------------------------------------------------------------------------
# Generators


@pytest.mark.parametrize("workload", problems.WORKLOADS)
def test_seed_gives_a_fixed_problem(workload):
    gen = problems.GENERATORS[workload]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_seed_zero_is_pinned():
    config, ref = problems.nonlinear_verify(0)
    assert config["f"] == "(1.0)*sin(u)"
    assert (ref["k"], ref["theta"]) == (3.007128, 1.776416)
    config, ref = problems.linear_export(0)
    assert config["A"] == 0.811394
    assert config["phi1"] == "(0.967387) + (-0.269413)*x + (0.4)*x^2"
    config, ref = problems.refine_study(0)
    assert config["A"] == 0.131411


@pytest.mark.parametrize("workload", problems.WORKLOADS)
def test_seed_changes_data_not_work(workload):
    """Grid, window and strip plan are the same for every seed."""
    plans = set()
    for seed in range(12):
        config, _ = problems.GENERATORS[workload](seed)
        spec = cw.ProblemSpec.from_strings(
            **{k: config[k] for k in ("a", "x0", "A", "phi1", "phi2", "psi1", "psi2", "F", "f")}
        )
        w = config["window"]
        grid = cw.build_grid(spec, cw.GridParams(T=w["T"], x_lo=w["xmin"], x_hi=w["xmax"], nt=config["grid"]["nt"]))
        strips = plan_strips(grid, estimate_lipschitz(spec, grid), cw.PicardParams())
        plans.add((grid.n_left, grid.n_right, grid.n_levels, len(strips)))
    assert len(plans) == 1
    if workload == "nonlinear_verify":
        assert plans.pop()[3] == 8


def test_linear_reference_matches_linear_oracle():
    config, ref = problems.linear_export(3)
    spec = cw.ProblemSpec.from_strings(
        **{k: config[k] for k in ("a", "x0", "A", "phi1", "phi2", "psi1", "psi2", "F", "f")}
    )
    for t, x in ((0.3, -2.0), (0.7, 0.2), (1.2, 2.5), (1.5, -0.4)):
        u = problems.piecewise_polynomial(ref, t, x)[0]
        assert abs(u - cw.linear_oracle(spec, t, x)) < 1e-5


# --------------------------------------------------------------------------
# Span arithmetic

# name, start, end, parent, run
TREE = [
    ["run", 0.0, 10.0, -1, 0],  # 0
    ["cauchy.side1", 1.0, 4.0, 0, 0],  # 1
    ["expr.evaluate", 2.0, 3.0, 1, 0],  # 2
    ["goursat.wedge", 5.0, 8.0, 0, 0],  # 3
    ["expr.evaluate", 8.5, 9.5, 0, 0],  # 4
    ["setup", 20.0, 21.0, -1, 0],  # 5: not under a "run" root
    ["cli.load_config", 20.0, 20.5, 5, 0],  # 6
]


def test_self_time_subtracts_covered_child_time():
    selfs = spans.self_times(TREE)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0, 0.5, 0.5])
    # overlapping children are covered once: 10 - |[1, 4] u [3, 6]|
    overlap = [["run", 0.0, 10.0, -1, 0], ["a.x", 1.0, 4.0, 0, 0], ["b.y", 3.0, 6.0, 0, 0]]
    assert spans.self_times(overlap)[0] == pytest.approx(5.0)


def test_layer_self_times_add_up_to_the_run():
    layers = spans.layer_self_times(TREE)[0]
    assert layers["cauchy"] == pytest.approx(2.0)
    assert layers["goursat"] == pytest.approx(3.0)
    assert layers["expr"] == pytest.approx(2.0)
    assert "cli" not in layers  # the setup tree is not part of the run
    assert layers["untimed"] == pytest.approx(3.0)
    parts = sum(v for k, v in layers.items() if k != "total")
    assert parts == pytest.approx(layers["total"]) == pytest.approx(10.0)


def test_tracer_records_nested_spans_and_restores_functions():
    from charwave import expr

    original = expr.evaluate
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_id = 0
        root = tracer.open("run")
        expr.evaluate(expr.parse("x + 1", ("x",)), {"x": np.arange(4.0)})
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert expr.evaluate is original
    assert [s[0] for s in tracer.spans] == ["run", "expr.evaluate"]
    assert tracer.spans[1][3] == 0
    assert tracer.counts[0]["expr.evaluated_elems"] == 4
    assert tracer.counts[0]["expr.evaluate.calls"] == 1


# --------------------------------------------------------------------------
# Output checks


def _small_linear(nt=16):
    config, ref = problems.linear_export(5)
    config["grid"]["nt"] = nt
    return config, ref


def _write_exact_csv(path, config, ref):
    """A CSV laid out as ``charwave solve`` writes it, holding the exact solution."""
    T, nt, a, x0 = config["window"]["T"], config["grid"]["nt"], config["a"], config["x0"]
    dt = T / nt
    dx = a * dt
    n_left = math.ceil((x0 - config["window"]["xmin"]) / dx - 1e-9)
    n_right = math.ceil((config["window"]["xmax"] - x0) / dx - 1e-9)
    iu = np.arange(nt + 1)[:, None]
    j = np.arange(-n_left, n_right + 1)[None, :]
    t = np.broadcast_to(dt * iu, (nt + 1, j.size))
    x = np.broadcast_to(x0 + dx * j, t.shape)
    region = np.where(j < -iu, 1, np.where(j > iu, 2, 3))
    u, ut, ux = problems.piecewise_polynomial(ref, t, x, region)
    lines = ["t,x,region,u,ut,ux"]
    for r in zip(t.ravel(), x.ravel(), region.ravel(), u.ravel(), ut.ravel(), ux.ravel()):
        lines.append("%.17g,%.17g,%d,%.17g,%.17g,%.17g" % r)
    path.write_text("\n".join(lines) + "\n")
    return lines


def test_exact_csv_passes(tmp_path):
    config, ref = _small_linear()
    path = tmp_path / "out.csv"
    lines = _write_exact_csv(path, config, ref)
    fails, info = checks.check_csv(str(path), config, ref)
    assert fails == []
    assert info["rows"] == len(lines) - 1


def _corrupt(fields, kind):
    f = list(fields)
    if kind == "value":
        f[3] = repr(float(f[3]) + 0.1)
    elif kind == "region":
        f[2] = "1" if f[2] != "1" else "2"
    elif kind == "text":
        f[3] = "u?"
    else:  # a field missing
        f = f[:5]
    return f


@pytest.mark.parametrize("kind", ["value", "region", "text", "short"])
def test_corrupted_csv_row_fails(tmp_path, kind):
    config, ref = _small_linear()
    path = tmp_path / "out.csv"
    lines = _write_exact_csv(path, config, ref)
    k = len(lines) // 2
    lines[k] = ",".join(_corrupt(lines[k].split(","), kind))
    path.write_text("\n".join(lines) + "\n")
    fails, _ = checks.check_csv(str(path), config, ref)
    assert fails


def test_missing_row_fails(tmp_path):
    config, ref = _small_linear()
    path = tmp_path / "out.csv"
    lines = _write_exact_csv(path, config, ref)
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_csv(str(path), config, ref)[0]


def test_wrong_reference_fails(tmp_path):
    config, ref = _small_linear()
    path = tmp_path / "out.csv"
    _write_exact_csv(path, config, ref)
    wrong = dict(ref, A=ref["A"] + 0.1)  # vertex value, so only the wedge moves
    fails, _ = checks.check_csv(str(path), config, wrong)
    assert any("u error" in f for f in fails)


def test_error_and_order_checks():
    tol = checks.err_tolerance(checks.NONLINEAR_ERR_COEFF, 1.0, 384)
    assert checks.max_error("max_err", 0.5 * tol, tol) == []
    assert checks.max_error("max_err", 2.0 * tol, tol)
    assert checks.max_error("max_err", float("nan"), tol)
    assert checks.order_in_band(1.99) == []
    for order in (1.2, 2.6, None, float("inf")):
        assert checks.order_in_band(order)


# --------------------------------------------------------------------------
# Result layout


def test_metrics_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(problems.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    traced = worker.traced_metrics(spans.Tracer(), [0], [1.0], [1.0])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.per_layer_unit(name) for name in traced
    }
