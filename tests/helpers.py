"""Shared helpers of the test modules: the problem corpus, a problem
builder, the grids and strip plans ``solve`` uses, and the offsets a side
field keeps.  A plain module rather than ``conftest``, so that test modules
import it by a name no other test directory shares (``benchmarks/tests``
has a conftest of its own and runs in the same session)."""

from __future__ import annotations

import pathlib

from charwave.cauchy import (
    GridParams,
    PicardParams,
    ProblemSpec,
    build_grid,
    plan_strips,
    resolve_lipschitz,
    solve_cauchy_region,
)
from charwave.cli import load_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

CORPUS_NAMES = (
    "zero",
    "psi_step",
    "phi_step_general",
    "phi_step_midpoint",
    "phi_kink_continuous",
    "phi_sq",
    "mixed_forcing",
    "manufactured",
)

# problems with f = 0, comparable against the closed-form quadrature
LINEAR_NAMES = tuple(n for n in CORPUS_NAMES if n != "manufactured")


def make_spec(**kw):
    """A problem with a = 1, x0 = 0 and every number and expression 0 but
    those given in ``kw``."""
    base = dict(
        a=1.0, x0=0.0, A=0.0,
        phi1="0", phi2="0", psi1="0", psi2="0", F="0", f="0",
    )
    base.update(kw)
    return ProblemSpec.from_strings(**base)


def bench_like():
    """(spec, grid, picard) of a problem shaped like the benchmark's
    nonlinear_verify (f = sin(u), L estimated, several strips), at nt = 64."""
    spec = make_spec(
        x0=0.25, A=0.4, phi1="0.5*sin(2*x)", phi2="1 + 0.25*cos(3*x)",
        psi1="0.1*x", psi2="-0.2", F="t*x", f="sin(u)",
    )
    return spec, GridParams(T=1.5, x_lo=-3.0, x_hi=3.0, nt=64), PicardParams(tol=1e-10)


def config_path(name: str) -> pathlib.Path:
    return CONFIG_DIR / f"{name}.json"


def strip_plan(spec, grid, picard=PicardParams()):
    """The strip plan ``solve`` hands to every region solve on ``grid``."""
    return plan_strips(grid, resolve_lipschitz(spec, grid), picard)


def solve_side(spec, side, params, picard=PicardParams()):
    """One side's Cauchy solve on the grid and strips ``solve`` would use."""
    grid = build_grid(spec, params)
    return solve_cauchy_region(spec, side, grid, strip_plan(spec, grid, picard), picard)


def load_problem(name: str):
    return load_config(str(config_path(name)))


def kept_offsets(grid, side, level) -> range:
    """The offsets a side field stores on ``level``, in increasing order:
    from the characteristic out past the window's edge by the residual
    stencil's 4 offsets, or by 3 offsets past the characteristic where that
    is farther, inside the level's sector."""
    if side == 1:
        lo = max(grid.j1_min + level, min(-2 * grid.n_left - 4, -level - 3))
        return range(lo, -level + 1)
    hi = min(grid.j2_max - level, max(2 * grid.n_right + 4, level + 3))
    return range(level, hi + 1)
