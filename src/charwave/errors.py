"""Exception types shared across the package.

All package errors derive from :class:`CharwaveError` so callers can catch
everything with one clause.  Expression failures have their own subtree under
:class:`ExpressionError`.
"""

from __future__ import annotations

__all__ = [
    "CharwaveError",
    "ExpressionError",
    "ExprSyntaxError",
    "UnknownVariable",
    "ArityError",
    "MissingBinding",
    "DomainError",
    "NotDifferentiable",
    "ConfigError",
    "InvalidSpeed",
    "NegativeTime",
    "OutOfWindow",
    "NonConvergence",
    "NotLinear",
]


class CharwaveError(Exception):
    """Base class for all errors raised by this package."""


class ExpressionError(CharwaveError):
    """Base class for formula parsing and evaluation failures."""


class ExprSyntaxError(ExpressionError):
    """Source text does not match the expression grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownVariable(ExpressionError):
    """An identifier is neither an allowed variable nor a builtin."""

    def __init__(self, name: str, position: int | None = None):
        where = f" (at offset {position})" if position is not None else ""
        super().__init__(f"unknown variable {name!r}{where}")
        self.name = name
        self.position = position


class ArityError(ExpressionError):
    """A builtin function was called with the wrong number of arguments."""


class MissingBinding(ExpressionError):
    """Evaluation environment lacks a value for a free variable."""


class DomainError(ExpressionError):
    """Evaluation left the real domain (log/sqrt of a negative, 1/0, ...)."""


class NotDifferentiable(ExpressionError):
    """Symbolic derivative requested through abs/min/max in the active variable."""


class ConfigError(CharwaveError):
    """A problem configuration file is malformed or inconsistent."""


class InvalidSpeed(ConfigError):
    """Wave speed must be a finite positive number."""


class NegativeTime(CharwaveError):
    """Geometry queries are defined on the closed upper half-plane only."""


class OutOfWindow(CharwaveError):
    """A query point lies outside the computed space-time window."""


class NonConvergence(CharwaveError):
    """Fixed-point iteration failed to reach tolerance.

    ``last_update`` carries the final sup-norm update when one is available.
    """

    def __init__(self, message: str, last_update: float | None = None):
        super().__init__(message)
        self.last_update = last_update


class NotLinear(CharwaveError):
    """A closed-form reference requires the semilinear term to be absent."""
