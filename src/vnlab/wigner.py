"""Wigner representation of position-basis states, before and after the channel.

The transform is the anti-diagonal Fourier integral of the density matrix,
W(q, p) = int dy exp(-i p y / hbar) rho(q + y/2, q - y/2), evaluated by
quadrature over the matrix anti-diagonals (y steps by twice the grid
spacing). The measurement channel multiplies the y-integrand by
exp(-tau * DeltaA(q, y)^2 / hbar^2) with DeltaA(q, y) = A(q+y/2) - A(q-y/2).

The state must be Hermitian (max|rho - rho^H| <= 1e-12, checked on entry):
then the anti-diagonal at offset -m is the conjugate of the one at +m, and
the damping is even in y, so the integral folds onto m >= 0 as
W = sum_m w_m [cos(p y_m / hbar) Re D_m + sin(p y_m / hbar) Im D_m] with
w_0 = 1 and w_m = 2 times the quadrature weight. Both sums are real matrix
products of half the depth of the complex one, a quarter of its flops, done
as one stacked product, and W is real by construction.

Where only the momentum marginal is read, as in the 2*tau variance law,
``momentum_marginals`` takes the same quadrature with the sums in the other
order: each anti-diagonal is first summed over q with the q-grid weights,
and the resulting vector is then multiplied by the phase matrix. W is never
formed, so the cost falls from O(n^3) to O(n^2), and one gather and one phase
matrix serve the marginal before and after the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BasisMismatch, InvariantViolation, ShapeMismatch
from .grids import Grid1D, grid2d_integrate
from .states import HERMITIAN_TOLERANCE, DensityOperator


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
        # A read-only view, not a copy: the caller's array stays writeable.
        v = np.ascontiguousarray(v).view()
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


def _antidiagonals(rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """Separations y_m = 2hm and the anti-diagonals of rho for offsets m >= 0.

    D[0, m, i] + 1j * D[1, m, i] = rho.matrix[i + m, i - m] for
    m = 0 .. (n-1)//2, and zero where the index leaves the matrix. The
    negative offsets are not gathered: they are the conjugates of these, which
    holds only for a Hermitian state, so a state whose Hermitian residue
    exceeds HERMITIAN_TOLERANCE raises InvariantViolation carrying it.
    """
    if rho.grid is None:
        raise BasisMismatch("Wigner transform needs a position-grid state")
    residue = rho.hermitian_residue
    if residue > HERMITIAN_TOLERANCE:
        raise InvariantViolation(
            f"Wigner transform needs a Hermitian state: max|rho - rho^H| = {residue:.3e} "
            f"exceeds {HERMITIAN_TOLERANCE:.0e}"
        )
    n = rho.dim
    k = (n - 1) // 2 + 1
    flat = rho.matrix.ravel()
    D = np.zeros((2, k, n))
    for m in range(k):
        # rho[i + m, i - m] for i = m .. n-1-m: a strided run from rho[2m, 0].
        run = flat[2 * m * n::n + 1][: n - 2 * m]
        D[0, m, m:n - m] = run.real
        D[1, m, m:n - m] = run.imag
    return 2.0 * rho.grid.h * np.arange(k), D


def _phase_matrix(y: np.ndarray, pgrid: Grid1D, hbar: float) -> np.ndarray:
    """Stacked [cos; sin](p y_m / hbar), shape (2k, n_p), times the fold weights."""
    arg = np.outer(y, pgrid.nodes) / hbar
    trig = np.concatenate([np.cos(arg), np.sin(arg)])
    # y-quadrature weight 2h, times 1/h from the matrix convention, times 2
    # for the folded offsets m > 0.
    fold = np.full(y.size, 4.0)
    fold[0] = 2.0
    trig *= np.tile(fold, 2)[:, None]
    return trig


def _damp(
    D: np.ndarray, spec: WignerEvolutionSpec, qgrid: Grid1D, y: np.ndarray, hbar: float
) -> None:
    """Multiply the anti-diagonals in place by the channel's exp(-tau DeltaA^2 / hbar^2)."""
    dA = spec.delta_A(qgrid.nodes[None, :], y[:, None])
    D *= np.exp(-spec.tau * dA**2 / hbar**2)


def _wigner_from_antidiagonals(
    y: np.ndarray, D: np.ndarray, qgrid: Grid1D, pgrid: Grid1D, hbar: float
) -> WignerFunction:
    values = D.reshape(2 * y.size, qgrid.n).T @ _phase_matrix(y, pgrid, hbar)  # (n_q, n_p)
    return WignerFunction(qgrid, pgrid, values, hbar=hbar)


def wigner_transform(rho: DensityOperator, pgrid: Grid1D, hbar: float = 1.0) -> WignerFunction:
    """Wigner transform of a Hermitian position-basis density operator."""
    y, D = _antidiagonals(rho)
    return _wigner_from_antidiagonals(y, D, rho.grid, pgrid, hbar)


def evolved_wigner(
    rho: DensityOperator, spec: WignerEvolutionSpec, pgrid: Grid1D, hbar: float = 1.0
) -> WignerFunction:
    """Wigner transform of the post-measurement reduced state.

    The channel damps the y-integrand by exp(-tau DeltaA^2 / hbar^2); for
    A(x) = x this is a Gaussian convolution in p of variance 2*tau.
    """
    y, D = _antidiagonals(rho)
    _damp(D, spec, rho.grid, y, hbar)
    return _wigner_from_antidiagonals(y, D, rho.grid, pgrid, hbar)


def momentum_marginals(
    rho: DensityOperator, spec: WignerEvolutionSpec, pgrid: Grid1D, hbar: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """int W dq / (2 pi hbar) before and after the channel, without forming W.

    The quadrature of ``WignerFunction.p_marginal_density`` on
    ``wigner_transform`` and ``evolved_wigner``, summed over q first:
    P(p) = sum_m (sum_i w_i D[m, i]) trig[m, p] / (2 pi hbar). The q-sum of
    the plain anti-diagonals is taken, then they are damped in place and
    summed again, and both vectors share one product with the phase matrix.
    """
    y, D = _antidiagonals(rho)
    rows = D.reshape(2 * y.size, rho.dim)  # a view: the damping below reaches it
    before = rows @ rho.grid.weights
    _damp(D, spec, rho.grid, y, hbar)
    after = rows @ rho.grid.weights
    marginals = np.stack([before, after]) @ _phase_matrix(y, pgrid, hbar) / (2.0 * np.pi * hbar)
    return marginals[0], marginals[1]
