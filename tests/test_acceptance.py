"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL line (visible with -v via the test outcome, or with -s).

The guarantees:

 1. the all-zero problem is reproduced to rounding in under a second;
 2. every f = 0 corpus problem matches the independent closed-form quadrature
    at 1e-3 with observed order >= 1.7 under refinement (rounding-level
    errors count as exact);
 3. the step-data problem carries its prescribed jumps at every time level
    within 5e-3, improving at order >= 1.7;
 4. characteristic traces start at the assigned value A to 1e-12 and track
    the manufactured solution within 5e-3;
 5. the nonlinear manufactured problem: sup error <= 2e-3, order in
    [1.7, 2.3], at most 12 Picard sweeps per strip;
 6. the three-way discontinuity classification is exact on nine canonical
    problems and the midpoint case matches the indicator-free formula;
 7. the five defining-condition checks pass on the corpus and each one fails
    under a 10x injected fault (no vacuous checks);
 8. solving any corpus config twice through the CLI gives byte-identical CSV.
"""

import json
import time

import numpy as np
import pytest

import charwave as cw
import charwave.cli as cli
from charwave.verify import _EXACT_FLOOR

from helpers import CORPUS_NAMES, LINEAR_NAMES, config_path


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def order_ok(study) -> bool:
    return study.exact or study.order >= 1.7


class TestAcceptance:
    def test_criterion_1_zero_problem_exact_and_fast(self, corpus):
        spec, grid, picard = corpus["zero"]
        t0 = time.perf_counter()
        sol = cw.solve(spec, grid, picard)
        elapsed = time.perf_counter() - t0
        _, _, _, u, p, q = cw.sample_user_grid(sol)
        sup = max(np.max(np.abs(u)), np.max(np.abs(p)), np.max(np.abs(q)))
        report(
            "criterion 1 (zero problem)",
            sup <= 1e-12 and elapsed < 1.0,
            f"sup={sup:.2e} (<=1e-12), wall={elapsed * 1000:.0f} ms (<1000)",
        )

    @pytest.mark.parametrize("name", LINEAR_NAMES)
    def test_criterion_2_oracle_corpus(self, corpus, solved, name):
        spec, grid, picard = corpus[name]
        # sup against the quadrature oracle at the configured resolution
        collar = spec.a * grid.T / 64 + 1e-9
        probes = cw.probe_points(spec.a, spec.x0, grid.T, grid.x_lo, grid.x_hi, collar)
        sup = max(
            abs(cw.evaluate(solved[name], t, x)[0] - cw.linear_oracle(spec, t, x))
            for t, x in probes
        )
        study = cw.convergence_study(
            spec,
            cw.GridParams(T=grid.T, x_lo=grid.x_lo, x_hi=grid.x_hi, nt=64),
            picard,
            levels=3,
            probes=probes,
        )
        order = "exact" if study.exact else f"{study.order:.2f}"
        report(
            f"criterion 2 (oracle corpus: {name})",
            sup <= 1e-3 and order_ok(study),
            f"sup={sup:.2e} (<=1e-3), order={order} (>=1.7 or exact)",
        )

    def test_criterion_3_step_jumps_at_every_level(self, corpus):
        spec, grid, picard = corpus["phi_step_general"]
        worst = {}
        for nt in (64, 128, 256):
            sol = cw.solve(
                spec, cw.GridParams(T=grid.T, x_lo=grid.x_lo, x_hi=grid.x_hi, nt=nt), picard
            )
            dt_user = grid.T / nt
            err = 0.0
            for k in range(1, nt + 1):
                t = k * dt_user
                err = max(
                    err,
                    abs(cw.characteristic_jump(sol, t, "left") - 1.0),
                    abs(cw.characteristic_jump(sol, t, "right") - 0.0),
                )
            worst[nt] = err
        errs = np.array([worst[64], worst[128], worst[256]])
        if np.all(errs <= _EXACT_FLOOR):
            order = "exact"
            improving = True
        else:
            slope = np.polyfit(np.log([1 / 64, 1 / 128, 1 / 256]), np.log(np.maximum(errs, 1e-300)), 1)[0]
            order = f"{slope:.2f}"
            improving = slope >= 1.7
        report(
            "criterion 3 (prescribed jumps)",
            worst[128] <= 5e-3 and improving,
            f"worst jump error at nt=128: {worst[128]:.2e} (<=5e-3), order={order}",
        )

    def test_criterion_4_traces(self, solved):
        start_err = max(
            max(abs(sol.traces.gamma1[0] - sol.spec.A), abs(sol.traces.gamma2[0] - sol.spec.A))
            for sol in solved.values()
        )
        sol = solved["manufactured"]
        g = sol.grid
        ts = g.dt * np.arange(g.n_levels + 1)
        trace_err = max(
            float(np.max(np.abs(sol.traces.gamma1 - np.sin(-2.0 * ts)))),
            float(np.max(np.abs(sol.traces.gamma2 - 0.0))),
        )
        report(
            "criterion 4 (characteristic traces)",
            start_err <= 1e-12 and trace_err <= 5e-3,
            f"gamma(0)-A: {start_err:.2e} (<=1e-12) over corpus; "
            f"manufactured trace error {trace_err:.2e} (<=5e-3)",
        )

    def test_criterion_5_manufactured(self, corpus, solved):
        spec, grid, picard = corpus["manufactured"]
        sol = solved["manufactured"]
        times, xs, _, u, _, _ = cw.sample_user_grid(sol)
        uex = np.sin(xs[None, :] - times[:, None])
        sup = float(np.max(np.abs(u - uex)))
        iters = max(
            max(sol.field1.report.iterations),
            max(sol.field2.report.iterations),
            max(sol.field3.report.iterations),
        )
        study = cw.convergence_study(
            spec,
            cw.GridParams(T=grid.T, x_lo=grid.x_lo, x_hi=grid.x_hi, nt=64),
            picard,
            reference=lambda t, x: np.sin(x - t),
            levels=3,
        )
        ok = sup <= 2e-3 and 1.7 <= study.order <= 2.3 and iters <= 12
        report(
            "criterion 5 (manufactured nonlinear)",
            ok,
            f"sup={sup:.2e} (<=2e-3), order={study.order:.2f} (in [1.7,2.3]), "
            f"max sweeps/strip={iters} (<=12)",
        )

    def test_criterion_6_classification(self, corpus, solved):
        cases = {
            cw.CaseKind.CONTINUOUS: [
                dict(phi1="0", phi2="0", A=0.0),
                dict(phi1="1", phi2="1+x", A=1.0),
                dict(phi1="x^2", phi2="x^2", A=0.0),
            ],
            cw.CaseKind.MIDPOINT_JUMP: [
                dict(phi1="0", phi2="1", A=0.5),
                dict(phi1="x", phi2="x+2", A=1.0),
                dict(phi1="-1", phi2="1", A=0.0),
            ],
            cw.CaseKind.GENERAL_JUMP: [
                dict(phi1="0", phi2="1", A=1.0),
                dict(phi1="0", phi2="1", A=0.25),
                dict(phi1="2", phi2="tanh(x)", A=7.0),
            ],
        }
        n_right = 0
        for want, kws in cases.items():
            for kw in kws:
                spec = cw.ProblemSpec.from_strings(
                    a=1.0, x0=0.0, psi1="0", psi2="0", F="0", f="0", **kw
                )
                n_right += cw.classify_case(spec) is want
        spec_m, grid_m, _ = corpus["phi_step_midpoint"]
        collar = spec_m.a * grid_m.T / 64 + 1e-9
        probes = cw.probe_points(
            spec_m.a, spec_m.x0, grid_m.T, grid_m.x_lo, grid_m.x_hi, collar
        )
        mid_err = max(
            abs(
                cw.evaluate(solved["phi_step_midpoint"], t, x)[0]
                - cw.linear_oracle(spec_m, t, x, include_jump_term=False)
            )
            for t, x in probes
        )
        report(
            "criterion 6 (case classification)",
            n_right == 9 and mid_err <= 1e-3,
            f"{n_right}/9 specs classified exactly; midpoint case vs "
            f"indicator-free formula: {mid_err:.2e} (<=1e-3)",
        )

    def test_criterion_7_definition_audit(self, solved):
        failures = []
        for name, sol in solved.items():
            rep = cw.check_definition1(sol)
            if not rep.passed:
                failures.append(name)
        flipped = 0
        names = ("initial_u", "initial_ut", "pde_residual", "goursat_traces", "jump_constancy")
        for probe in ("psi_step", "manufactured"):
            for check in names:
                bad = cw.inject_fault(solved[probe], check)
                rep = cw.check_definition1(bad)
                target = next(c for c in rep.checks if c.name == check)
                flipped += not target.passed
        report(
            "criterion 7 (defining-condition audit)",
            not failures and flipped == 10,
            f"clean audits passed on all {len(solved)} corpus problems "
            f"(failures: {failures or 'none'}); {flipped}/10 injected faults caught",
        )

    def test_criterion_8_deterministic_csv(self, tmp_path):
        mismatched = []
        for name in CORPUS_NAMES:
            cfg = str(config_path(name))
            out1 = tmp_path / f"{name}_1.csv"
            out2 = tmp_path / f"{name}_2.csv"
            assert cli.main(["solve", cfg, "-o", str(out1)]) == 0
            assert cli.main(["solve", cfg, "-o", str(out2)]) == 0
            if out1.read_bytes() != out2.read_bytes():
                mismatched.append(name)
        report(
            "criterion 8 (byte-identical reruns)",
            not mismatched,
            f"all {len(CORPUS_NAMES)} configs reran identically"
            if not mismatched
            else f"mismatches: {mismatched}",
        )
