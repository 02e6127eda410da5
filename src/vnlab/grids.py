"""Uniform grids and trapezoid quadrature.

All arrays in this package live on uniform 1-D grids; 2-D quantities use the
outer product of two of them with ``values[i, j]`` indexed as (first axis,
second axis). Quadrature is plain trapezoid throughout.

Every value type of the package takes its arrays through ``_freeze`` here,
the module that every layer imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolation

TWO_PI = 2.0 * np.pi


class _Handover:
    """An array the package has just computed, handed to a value type's constructor.

    The constructor freezes it in place instead of copying it. Wrap only a
    result that nothing else refers to, never a caller's array or a view of one.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


def _freeze(a, dtype) -> np.ndarray:
    """A read-only C-contiguous array of ``a``'s values as ``dtype`` (None keeps ``a``'s).

    The one way a value type takes an array. Any array but a ``_Handover`` is
    copied, which keeps the value immutable: a view of the caller's array
    cannot write into it, and the caller's array stays writeable. A
    ``_Handover`` is frozen in place (converted only if its dtype or layout
    differ).
    """
    if isinstance(a, _Handover):
        a = np.ascontiguousarray(a.array, dtype=dtype)
    else:
        a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


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
        return _freeze(_Handover(np.linspace(self.lo, self.hi, self.n)), float)

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights."""
        w = np.full(self.n, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return _freeze(_Handover(w), float)

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
        return _freeze(_Handover(self.h * np.arange(self.n)), float)

    @cached_property
    def weights(self) -> np.ndarray:
        # On a periodic domain the rectangle rule is the trapezoid rule.
        return _freeze(_Handover(np.full(self.n, self.h)), float)

    def integrate(self, f: np.ndarray) -> float:
        return float(self.weights @ np.asarray(f))


def grid2d_integrate(xgrid: Grid1D, ygrid: Grid1D | PeriodicGrid, values: np.ndarray) -> float:
    """Trapezoid integral of ``values[i, j]`` over xgrid x ygrid."""
    return float(xgrid.weights @ values @ ygrid.weights)

