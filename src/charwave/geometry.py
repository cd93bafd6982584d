"""Characteristic geometry of the half-plane split by two lines through (0, x0).

For wave speed a > 0 the characteristics x - a t = x0 and x + a t = x0 divide
the open upper half-plane into three sectors:

* region 1, left of both lines (x + a t < x0),
* region 2, right of both lines (x - a t > x0),
* region 3, the wedge between them (x0 - a t <= x - x0 <= a t... i.e.
  x + a t >= x0 and x - a t <= x0).

``classify_point`` assigns every point with t >= 0 to exactly one of the three
closed-up regions; both characteristic rays and the apex (0, x0) belong to
region 3, the initial axis otherwise to regions 1/2.

Characteristic coordinates are xi = x - a t, eta = x + a t, in which region 3
is the quadrant xi <= x0 <= eta.
"""

from __future__ import annotations

import enum
import math

from .errors import ConfigError, InvalidSpeed, NegativeTime

__all__ = ["Region", "classify_point"]


class Region(enum.Enum):
    """The three sectors cut out by the characteristics through (0, x0)."""

    Q1_STAR = 1
    Q2_STAR = 2
    Q3_STAR = 3


def _as_float(name: str, value, error: type[ConfigError] = ConfigError) -> float:
    """``value`` as a float; raises ``error``, naming ``name``, unless it is an
    int or a float (a bool is not) inside the float range.  The value is not
    printed: the repr of an int of more than 4300 digits raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} is outside the float range") from None


def _check_speed(a: float) -> None:
    if not (math.isfinite(_as_float("wave speed", a, InvalidSpeed)) and a > 0):
        raise InvalidSpeed(f"wave speed must be a finite positive number, got {a!r}")


def classify_point(a: float, x0: float, t: float, x: float) -> Region:
    """Region of the point (t, x); characteristics and apex count as region 3.

    Comparisons are exact in floating point: the dividing lines are
    d + a t = 0 and d - a t = 0 with d = x - x0, evaluated in exactly that
    form so grid code using the same arithmetic classifies consistently.
    """
    _check_speed(a)
    if t < 0:
        raise NegativeTime(f"classification requires t >= 0, got t={t}")
    d = x - x0
    if d + a * t < 0:
        return Region.Q1_STAR
    if d - a * t > 0:
        return Region.Q2_STAR
    return Region.Q3_STAR

