"""Wigner representation of position-basis states, before and after the channel.

The transform is the anti-diagonal Fourier integral of the density matrix,
W(q, p) = int dy exp(-i p y / hbar) rho(q + y/2, q - y/2), evaluated by
quadrature over the matrix anti-diagonals (y steps by twice the grid
spacing). The measurement channel multiplies the y-integrand by
exp(-tau * DeltaA(q, y)^2 / hbar^2) with DeltaA(q, y) = A(q+y/2) - A(q-y/2).

The state must be Hermitian (max|rho - rho^H| <= HERMITIAN_TOLERANCE, checked on entry):
then the anti-diagonal at offset -m is the conjugate of the one at +m, and
the damping is even in y, so the integral folds onto m >= 0 as
W = sum_m w_m [cos(p y_m / hbar) Re D_m + sin(p y_m / hbar) Im D_m] with
w_0 = 1 and w_m = 2 times the quadrature weight. Both sums are real matrix
products of half the depth of the complex one, a quarter of its flops, done
as one stacked product, and W is real by construction.

Where only the momentum marginal is read, as in the 2*tau variance law,
``momentum_marginals`` takes the same quadrature with the sums in the other
order: each anti-diagonal is first summed over q with the q-grid weights,
and W is never formed. The folded sums then meet the phases in blocks of
BLOCK momenta: with p_j = P_b + r h_p, exp(i p_j y_m / hbar) is the product
of exp(i P_b y_m / hbar) and exp(i r h_p y_m / hbar), so k (n_p / BLOCK +
BLOCK) complex exponentials replace the 2 k n_p cosines and sines of the
full phase matrix (k = (n - 1)//2 + 1: 98,304 against 4,194,304 at n = 2048). The
whole marginal costs O(n^2), and it agrees with the full product to rounding
(at most 2.7e-14 of max|P|; the tests hold it to 1e-13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BasisMismatch, InvariantViolation, ShapeMismatch
from .grids import Grid1D, _freeze, _Handover, grid2d_integrate
from .states import DensityOperator

# Momenta per block of ``momentum_marginals``' phase product.
BLOCK = 64


@dataclass(frozen=True)
class WignerFunction:
    qgrid: Grid1D
    pgrid: Grid1D
    values: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        v = _freeze(self.values, float)
        if v.shape != (self.qgrid.n, self.pgrid.n):
            raise ShapeMismatch("Wigner values do not match the (q, p) grids")
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

    def damping(self, q, y, hbar: float) -> np.ndarray:
        """The channel's factor exp(-tau DeltaA(q, y)^2 / hbar^2) on the y-integrand."""
        return np.exp(-self.tau * self.delta_A(q, y) ** 2 / hbar**2)


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
    rho.require_hermitian("Wigner transform needs a Hermitian state")
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


def _fold_weights(y: np.ndarray) -> np.ndarray:
    """The folded y-quadrature: weight 2h, times 1/h from the matrix convention,
    times 2 for the offsets m > 0, which stand for their conjugates at -m."""
    fold = np.full(y.size, 4.0)
    fold[0] = 2.0
    return fold


def _phase_matrix(y: np.ndarray, pgrid: Grid1D, hbar: float) -> np.ndarray:
    """Stacked [cos; sin](p y_m / hbar), shape (2k, n_p), times the fold weights."""
    arg = np.outer(y, pgrid.nodes) / hbar
    trig = np.concatenate([np.cos(arg), np.sin(arg)])
    trig *= np.tile(_fold_weights(y), 2)[:, None]
    return trig


def _wigner_from_antidiagonals(
    y: np.ndarray, D: np.ndarray, qgrid: Grid1D, pgrid: Grid1D, hbar: float
) -> WignerFunction:
    values = D.reshape(2 * y.size, qgrid.n).T @ _phase_matrix(y, pgrid, hbar)  # (n_q, n_p)
    return WignerFunction(qgrid, pgrid, _Handover(values), hbar=hbar)


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
    D *= spec.damping(rho.grid.nodes, y[:, None], hbar)
    return _wigner_from_antidiagonals(y, D, rho.grid, pgrid, hbar)


def momentum_marginals(
    rho: DensityOperator, spec: WignerEvolutionSpec, pgrid: Grid1D, hbar: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """int W dq / (2 pi hbar) before and after the channel, without forming W.

    The quadrature of ``WignerFunction.p_marginal_density`` on
    ``wigner_transform`` and ``evolved_wigner``, summed over q first: with
    C_m + i S_m = sum_i w_i (D[0, m, i] + i D[1, m, i]) and the fold weights
    f_m, P(p) = Re sum_m v_m exp(i p y_m / hbar) / (2 pi hbar), where
    v_m = (C_m - i S_m) f_m. The q-sum of the plain anti-diagonals is taken,
    then they are damped in place and summed again.

    The phases are blocked: p_j = P_b + r h_p, with P_b the first node of
    block b and r = 0 .. BLOCK-1, so P = Re[(v * E) @ F^T] with
    E[b, m] = exp(i P_b y_m / hbar) and F[r, m] = exp(i r h_p y_m / hbar).
    That is k (n_p / BLOCK + BLOCK) complex exponentials, not the 2 k n_p
    cosines and sines of ``_phase_matrix``. The two differ by rounding only:
    1.4e-15 of max|P| on evolve-qm's default grid, and at most 2.7e-14 at n up
    to 4096 with the p grid at pi hbar / (2h), where p y / hbar nears pi n / 2.
    """
    y, D = _antidiagonals(rho)
    rows = D.reshape(2 * y.size, rho.dim)  # a view: the damping below reaches it
    before = rows @ rho.grid.weights
    D *= spec.damping(rho.grid.nodes, y[:, None], hbar)
    after = rows @ rho.grid.weights
    sums = np.stack([before, after]).reshape(2, 2, y.size)  # (before/after, C/S, m)
    v = (sums[:, 0] - 1j * sums[:, 1]) * _fold_weights(y)
    E = np.exp(np.outer(pgrid.nodes[::BLOCK], 1j * y / hbar))  # (blocks, k)
    F = np.exp(np.outer(np.arange(BLOCK) * pgrid.h, 1j * y / hbar))  # (BLOCK, k)
    # (2, blocks, BLOCK) flattens to p order; the last block's overhang is cut.
    marginals = ((v[:, None, :] * E) @ F.T).real.reshape(2, -1)[:, :pgrid.n] / (2.0 * np.pi * hbar)
    return marginals[0], marginals[1]
