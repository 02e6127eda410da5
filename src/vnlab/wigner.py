"""Wigner representation of position-basis states and its diffusion dynamics.

The transform is the anti-diagonal Fourier integral of the density matrix,
W(q, p) = int dy exp(-i p y / hbar) rho(q + y/2, q - y/2), evaluated by
quadrature over the matrix anti-diagonals (y steps by twice the grid
spacing). The measurement channel multiplies the y-integrand by
exp(-tau * DeltaA(q, y)^2 / hbar^2) with DeltaA(q, y) = A(q+y/2) - A(q-y/2),
and the resulting family obeys a pseudo-differential diffusion equation in p
whose right-hand side is diagonal in the Fourier dual of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BasisMismatch, InsufficientSamples, InvariantViolation, ShapeMismatch
from .grids import Grid1D, grid2d_integrate
from .states import DensityOperator


@dataclass(frozen=True)
class WignerFunction:
    qgrid: Grid1D
    pgrid: Grid1D
    values: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.qgrid.n, self.pgrid.n):
            raise ShapeMismatch("Wigner values do not match the (q, p) grids")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def normalization(self) -> float:
        """int W dq dp / (2 pi hbar); equals 1 for a unit-trace state."""
        return grid2d_integrate(self.qgrid, self.pgrid, self.values) / (
            2.0 * np.pi * self.hbar
        )

    def q_marginal_density(self) -> np.ndarray:
        return (self.values @ self.pgrid.weights) / (2.0 * np.pi * self.hbar)

    def p_marginal_density(self) -> np.ndarray:
        return (self.qgrid.weights @ self.values) / (2.0 * np.pi * self.hbar)

    def validate(self) -> None:
        """Unit normalization within 1e-6."""
        n = self.normalization()
        if abs(n - 1.0) > 1e-6:
            raise InvariantViolation(f"Wigner normalization {n!r} deviates from 1")


@dataclass(frozen=True)
class WignerEvolutionSpec:
    """Measured observable A(x) (vectorized callable) and channel strength tau."""

    A: Callable[[np.ndarray], np.ndarray]
    tau: float

    def delta_A(self, q, y) -> np.ndarray:
        """A(q + y/2) - A(q - y/2); odd in y by construction."""
        q = np.asarray(q, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.A(q + 0.5 * y) - self.A(q - 0.5 * y)


def _antidiagonals(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D[m, i] = matrix[i + m', i - m'] for signed offsets m' = m - mmax.

    Entries falling outside the matrix are zero; offsets run over the full
    +-(n-1)//2 range.
    """
    n = matrix.shape[0]
    mmax = (n - 1) // 2
    offsets = np.arange(-mmax, mmax + 1)
    D = np.zeros((offsets.size, n), dtype=matrix.dtype)
    idx = np.arange(n)
    for row, m in enumerate(offsets):
        lo, hi = abs(m), n - abs(m)
        i = idx[lo:hi]
        D[row, i] = matrix[i + m, i - m]
    return offsets, D


def _wigner_from_antidiagonals(
    offsets: np.ndarray, D: np.ndarray, qgrid: Grid1D, pgrid: Grid1D, hbar: float
) -> WignerFunction:
    h = qgrid.h
    y = 2.0 * h * offsets
    phases = np.exp(-1j / hbar * np.outer(pgrid.nodes, y))  # (n_p, n_y)
    w = phases @ D  # (n_p, n_q); y-quadrature weight 2h applied below
    values = 2.0 * h * w.T
    imag_max = float(np.max(np.abs(values.imag)))
    if imag_max > 1e-10:
        raise InvariantViolation(f"Wigner transform has imaginary residue {imag_max:.3e}")
    return WignerFunction(qgrid, pgrid, values.real, hbar=hbar)


def wigner_transform(rho: DensityOperator, pgrid: Grid1D, hbar: float = 1.0) -> WignerFunction:
    """Wigner transform of a position-basis density operator."""
    if rho.grid is None:
        raise BasisMismatch("Wigner transform needs a position-grid state")
    offsets, D = _antidiagonals(rho.matrix / rho.grid.h)
    return _wigner_from_antidiagonals(offsets, D, rho.grid, pgrid, hbar)


def evolved_wigner(
    rho: DensityOperator, spec: WignerEvolutionSpec, pgrid: Grid1D, hbar: float = 1.0
) -> WignerFunction:
    """Wigner transform of the post-measurement reduced state.

    The channel damps the y-integrand by exp(-tau DeltaA^2 / hbar^2); for
    A(x) = x this is a Gaussian convolution in p of variance 2*tau.
    """
    if rho.grid is None:
        raise BasisMismatch("Wigner transform needs a position-grid state")
    offsets, D = _antidiagonals(rho.matrix / rho.grid.h)
    y = 2.0 * rho.grid.h * offsets
    dA = spec.delta_A(rho.grid.nodes[None, :], y[:, None])
    D = D * np.exp(-spec.tau * dA**2 / hbar**2)
    return _wigner_from_antidiagonals(offsets, D, rho.grid, pgrid, hbar)


def apply_wigner_generator(
    w: WignerFunction, spec: WignerEvolutionSpec, hbar: float = 1.0
) -> np.ndarray:
    """Right-hand side [(1/i hbar) DeltaA(q, i hbar d/dp)]^2 W.

    Evaluated in the Fourier dual of p, where the operator is multiplication
    by -DeltaA(q, y)^2 / hbar^2 (even in y, so the fft sign convention is
    immaterial).
    """
    n_p = w.pgrid.n
    y = 2.0 * np.pi * hbar * np.fft.fftfreq(n_p, d=w.pgrid.h)
    spectrum = np.fft.fft(w.values, axis=1)
    dA = spec.delta_A(w.qgrid.nodes[:, None], y[None, :])
    spectrum *= -(dA**2) / hbar**2
    return np.real(np.fft.ifft(spectrum, axis=1))


def wigner_pde_residual(
    wigners: Sequence[WignerFunction],
    taus: Sequence[float],
    spec: WignerEvolutionSpec,
    hbar: float = 1.0,
) -> float:
    """Max-norm residual of the diffusion equation along a tau-sampled family.

    Forward first-order differencing: for consecutive samples the residual is
    |(W_{k+1} - W_k)/dtau - generator(W_k)|; the return value is the max over
    pairs and grid nodes. First-order in dtau by construction.
    """
    if len(wigners) < 3:
        raise InsufficientSamples("need at least 3 tau samples")
    if len(wigners) != len(taus):
        raise ShapeMismatch("one tau per Wigner sample required")
    worst = 0.0
    for k in range(len(wigners) - 1):
        dtau = taus[k + 1] - taus[k]
        if dtau <= 0:
            raise InvariantViolation("tau samples must be increasing")
        lhs = (wigners[k + 1].values - wigners[k].values) / dtau
        rhs = apply_wigner_generator(wigners[k], spec, hbar=hbar)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
