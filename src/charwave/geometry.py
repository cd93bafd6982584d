"""Characteristic geometry of the half-plane split by two lines through (0, x0).

For wave speed a > 0 the characteristics x + a t = x0 and x - a t = x0 divide
the upper half-plane t >= 0 into three regions:

* region 1, left of both lines (x + a t < x0),
* region 2, right of both lines (x - a t > x0),
* region 3, the wedge x - a t <= x0 <= x + a t.

This module is the one place that decides which region owns a point or a
node, under one closure convention: both characteristic rays and the apex
(0, x0) belong to region 3, the rest of the initial axis to regions 1 and 2.
``classify_point`` applies it to a point (t, x), ``classify_nodes`` to grid
nodes named by their integer (level, offset), on which the characteristics
are offset = -level and offset = level.

Characteristic coordinates are xi = x - a t, eta = x + a t, in which region 3
is the quadrant xi <= x0 <= eta.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import ConfigError, InvalidSpeed, NegativeTime

__all__ = ["Region", "classify_nodes", "classify_point"]


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

    The dividing lines are tested as d + a t < 0 and d - a t > 0 with
    d = x - x0, in exactly that form, so that point code using the same
    arithmetic (``RegionField.interpolate``) stays inside the region it was
    given.  The point is classified as given: the rounded x of a node on a
    characteristic may lie an ulp off it, in a side region.  Grid nodes are
    classified exactly by ``classify_nodes``.
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


def classify_nodes(level, offset) -> np.ndarray:
    """Region value (int64, the CSV ``region`` code) of each grid node
    (level, offset), in the broadcast shape of the integer arguments.

    The node twin of ``classify_point``, with the same convention: the nodes
    offset = -level and offset = level lie on the characteristics and belong
    to region 3.  The test is exact on the integers; a float test on the
    node's (t, x) could misplace a node on a characteristic, since neither
    x0 + offset*dx - x0 nor a*(level*dt) is exact.
    """
    return np.where(offset < -level, 1, np.where(offset > level, 2, 3))
