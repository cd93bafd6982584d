"""Shared helpers of the test modules: the problem corpus and the grids and
strip plans ``solve`` uses.  A plain module rather than ``conftest``, so
that test modules import it by a name no other test directory shares
(``benchmarks/tests`` has a conftest of its own and runs in the same
session)."""

from __future__ import annotations

import pathlib

from charwave.cauchy import (
    PicardParams,
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
