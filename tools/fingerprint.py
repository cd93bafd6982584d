"""Fingerprint of charwave's outputs, to show that a change moved no bit.

usage: python3 tools/fingerprint.py ROOT > fingerprint.json

ROOT is a charwave checkout.  The script imports charwave from ROOT/src and
the benchmark's problem generator from ROOT/benchmarks/problems.py, and
writes nothing under ROOT: problem files and CSVs go to a temporary
directory, and no bytecode is cached.  The problems are each
ROOT/configs/*.json, seed 501 of each benchmark workload and ``EXTREMES``
below, whose CSV holds exact zeros, values below 1e-4 and values at or above
1e16, which the CSV writer formats on separate paths.  For each one it
prints, as sorted JSON:

* the sha256 of each field's (u, u_t, u_x), read through ``at`` on a node
  set that does not depend on how the field is stored: the user nodes of
  the field's region, then on every level the characteristic's node and
  the 3 next to it on the field's side of the line (``_node_sha256``); and
  every ``report.update_norms`` of the solve;
* the solve's Lipschitz constant as ``float.hex`` and its strip plan
  (``field1.report.strips``, which all three regions march), so that a
  change to the estimate or to the plan shows even when no field bit moves;
* the sha256 of the CSV that ``charwave solve -o`` writes;
* the exit code and stdout of ``classify --json`` and ``verify --json``,
  and, for refine_study and every config whose f is 0, of
  ``converge --levels 3 --json`` and of ``linear_oracle`` at t = T/2 on
  both characteristics and 1 and 2 ulps of x to either side of them, where
  a change to the region rule would show;
* for each audit check, the same digests of the three fields of
  ``inject_fault(sol, check)`` and the JSON of ``check_definition1`` on it.

Run it on two checkouts and compare the outputs byte for byte, e.g.
``cmp <(python3 tools/fingerprint.py old) <(python3 tools/fingerprint.py .)``.
A full run takes about 25 s on a 2-vCPU machine.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

SEED = 501
CHECKS = ("initial_u", "initial_ut", "pde_residual", "goursat_traces", "jump_constancy")
# u = 0 on the left, u = 1e17 and u_t, u_x of order 1e-7 on the right
EXTREMES = {
    "a": 1.0, "x0": 0.0, "A": 5e16,
    "phi1": "0", "phi2": "1e17", "psi1": "0", "psi2": "1e-6*x", "F": "0", "f": "0",
    "window": {"T": 1.0, "xmin": -2.0, "xmax": 2.0},
    "grid": {"nt": 32},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _node_sha256(charwave, sol) -> list[str]:
    """The digest of each field's (u, u_t, u_x) at the user nodes of its
    region, in row-major order, then at the nodes (level, offset) with
    offset -level - k on side 1, level + k on side 2, and -level + 2k and
    level - 2k in the wedge, for k = 0..3 and every level, where the wedge
    has the node."""
    g = sol.grid
    user = np.broadcast_arrays(2 * np.arange(g.nt + 1)[:, None], g.user_offsets())
    region = charwave.geometry.classify_nodes(*user)
    level, k = np.arange(g.n_levels + 1)[:, None], np.arange(4)
    strips = {
        1: [(level, -level - k)],
        2: [(level, level + k)],
        3: [(level, -level + 2 * k), (level, level - 2 * k)],
    }
    digests = []
    for code, field in enumerate((sol.field1, sol.field2, sol.field3), 1):
        nodes = [(user[0][region == code], user[1][region == code])]
        for lv, off in strips[code]:
            lv, off = np.broadcast_arrays(lv, off)
            on = np.abs(off) <= lv if code == 3 else np.ones(lv.shape, bool)
            nodes.append((lv[on], off[on]))
        digests.append(_sha256(b"".join(field.at(lv, off).tobytes() for lv, off in nodes)))
    return digests


def _oracle_near_characteristics(charwave, spec, T: float) -> list[list[float]]:
    """[x, linear_oracle(spec, T/2, x)] for x on each characteristic at
    t = T/2 and 1 and 2 ulps to either side of it."""
    t = T / 2
    out = []
    for sign in (-1, 1):
        for k in (-2, -1, 0, 1, 2):
            x = spec.x0 + sign * spec.a * t
            for _ in range(abs(k)):
                x = math.nextafter(x, math.copysign(math.inf, k))
            out.append([x, charwave.linear_oracle(spec, t, x)])
    return out


def fingerprint(charwave, path: str, tmp: str, converge: bool) -> dict:
    cli = charwave.cli
    sol = charwave.solve(*cli.load_config(path))
    fields = (sol.field1, sol.field2, sol.field3)
    csv = os.path.join(tmp, "out.csv")
    _run(cli, ["solve", path, "-o", csv])
    with open(csv, "rb") as fh:
        csv_sha = _sha256(fh.read())
    os.remove(csv)
    result = {
        "node_sha256": _node_sha256(charwave, sol),
        "update_norms": [f.report.update_norms for f in fields],
        "lipschitz": float.hex(sol.lipschitz),
        "strips": sol.field1.report.strips,
        "csv_sha256": csv_sha,
        "classify": _run(cli, ["classify", path, "--json"]),
        "verify": _run(cli, ["verify", path, "--json"]),
        "faults": {},
    }
    for check in CHECKS:
        bad = charwave.inject_fault(sol, check)
        result["faults"][check] = {
            "node_sha256": _node_sha256(charwave, bad),
            "report": json.dumps(charwave.check_definition1(bad).to_dict()),
        }
    if converge:
        result["converge"] = _run(cli, ["converge", path, "--levels", "3", "--json"])
        result["oracle_near_characteristics"] = _oracle_near_characteristics(
            charwave, sol.spec, sol.grid.T
        )
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0])
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmarks")]
    import charwave.cli
    import problems

    want = os.path.join(root, "src", "charwave")
    if os.path.realpath(os.path.dirname(charwave.__file__)) != os.path.realpath(want):
        print(f"error: charwave was imported from {charwave.__file__}, not {want}", file=sys.stderr)
        return 1
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(glob.glob(os.path.join(root, "configs", "*.json"))):
            name = "configs/" + os.path.basename(path)
            linear = charwave.expr.is_zero(charwave.cli.load_config(path)[0].f)
            report[name] = fingerprint(charwave, path, tmp, converge=linear)
        for workload in problems.WORKLOADS:
            path = os.path.join(tmp, f"{workload}-seed{SEED}.json")
            with open(path, "w") as fh:
                json.dump(problems.GENERATORS[workload](SEED)[0], fh, indent=1)
            name = f"{workload}:{SEED}"
            report[name] = fingerprint(charwave, path, tmp, converge=workload == "refine_study")
        path = os.path.join(tmp, "extremes.json")
        with open(path, "w") as fh:
            json.dump(EXTREMES, fh)
        report["extremes"] = fingerprint(charwave, path, tmp, converge=False)
    print(json.dumps(report, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
