"""Classical solver for the 1-D mildly quasilinear wave equation with initial
data discontinuous at a single point.

The equation  u_tt - a^2 u_xx + f(t, x, u, u_t, u_x) = F(t, x)  is solved on a
space-time window by the method of characteristics: two one-sided Cauchy
solves (Picard iteration on the d'Alembert integral form), a Goursat solve on
the wedge between the characteristics through the discontinuity (Picard
iteration on the characteristic parallelogram identity), and assembly into a
piecewise-smooth global field with prescribed constant jumps across the
characteristics.

The package root lists what callers of the library use; everything else is
importable from its own submodule.
"""

from .assembly import (
    CaseKind,
    characteristic_jump,
    classify_case,
    evaluate,
    sample_user_grid,
    solve,
)
from .cauchy import GridParams, PicardParams, ProblemSpec, build_grid
from .errors import CharwaveError, ConfigError, DomainError, NonConvergence
from .verify import (
    check_definition1,
    convergence_study,
    inject_fault,
    linear_oracle,
    probe_points,
)

__version__ = "0.1.0"

__all__ = [
    "CaseKind",
    "characteristic_jump",
    "classify_case",
    "evaluate",
    "sample_user_grid",
    "solve",
    "GridParams",
    "PicardParams",
    "ProblemSpec",
    "build_grid",
    "check_definition1",
    "convergence_study",
    "inject_fault",
    "linear_oracle",
    "probe_points",
    "CharwaveError",
    "ConfigError",
    "DomainError",
    "NonConvergence",
]
