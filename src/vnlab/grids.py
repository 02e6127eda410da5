"""Uniform grids and trapezoid quadrature.

All arrays in this package live on uniform 1-D grids; 2-D quantities use the
outer product of two of them with ``values[i, j]`` indexed as (first axis,
second axis). Quadrature is plain trapezoid throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolation

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``n`` nodes on the closed interval [lo, hi]."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.hi > self.lo:
            raise InvariantViolation(f"grid needs hi > lo, got [{self.lo}, {self.hi}]")
        if self.n < 2:
            raise InvariantViolation(f"grid needs n >= 2, got n={self.n}")

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.lo, self.hi, self.n)
        x.flags.writeable = False
        return x

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights."""
        w = np.full(self.n, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.flags.writeable = False
        return w

    def integrate(self, f: np.ndarray) -> float:
        return float(self.weights @ np.asarray(f))


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid: ``n`` nodes on [0, 2 pi), endpoint excluded."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InvariantViolation(f"periodic grid needs n >= 2, got n={self.n}")

    @property
    def h(self) -> float:
        return TWO_PI / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        x = self.h * np.arange(self.n)
        x.flags.writeable = False
        return x

    @cached_property
    def weights(self) -> np.ndarray:
        # On a periodic domain the rectangle rule is the trapezoid rule.
        w = np.full(self.n, self.h)
        w.flags.writeable = False
        return w

    def integrate(self, f: np.ndarray) -> float:
        return float(self.weights @ np.asarray(f))


def grid2d_integrate(xgrid: Grid1D, ygrid: Grid1D | PeriodicGrid, values: np.ndarray) -> float:
    """Trapezoid integral of ``values[i, j]`` over xgrid x ygrid."""
    return float(xgrid.weights @ values @ ygrid.weights)

