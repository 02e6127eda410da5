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

Where only the momentum marginal of a pure state is read, as in the 2*tau
variance law, ``pure_state_momentum_marginals`` reads the wavefunction and
forms neither rho nor W: for rho = h psi psi^H the q-sum of anti-diagonal m is
h^2 times lag 2m of psi's autocorrelation, every lag from one zero-padded FFT
(Wiener-Khinchin). The sums then meet the phases in blocks of BLOCK momenta:
exp(i (P_b + r h_p) y_m / hbar) = exp(i P_b y_m / hbar) exp(i r h_p y_m / hbar),
so k (n_p / BLOCK + BLOCK) complex exponentials replace the 2 k n_p cosines
and sines of the full phase matrix (98,304 against 4,194,304 at n = 2048).
Its oracle, the same sums over rho's gathered anti-diagonals for any A, is
``momentum_marginals`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BasisMismatch, InvariantViolation, ShapeMismatch
from .grids import Grid1D, _freeze, _Handover, grid2d_integrate
from .states import DensityOperator

# Momenta per block of ``pure_state_momentum_marginals``' phase product.
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


def pure_state_momentum_marginals(
    psi: np.ndarray, xgrid: Grid1D, spec: WignerEvolutionSpec, pgrid: Grid1D, hbar: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """int W dq / (2 pi hbar) of rho = h psi psi^H before and after the channel,
    psi L2-normalized on ``xgrid`` (``normalized_wavefunction``).

    Contract: A is affine in x, so DeltaA(q, y) does not depend on q and the
    channel's factor is one y-profile, ``spec.damping`` read at q = 0.

    ``WignerFunction.p_marginal_density``'s quadrature, summed over q first: with
    r_l = sum_j psi_{j+l} psi*_j, the trapezoid q-sum of anti-diagonal m is
    C_m + i S_m = h^2 r_{2m}, less h^2 (|psi_0|^2 + |psi_{n-1}|^2) / 2 at m = 0,
    the one run that reaches the grid ends. With the fold weights f_m,
    P(p) = Re sum_m v_m exp(i p y_m / hbar) / (2 pi hbar), v_m = (C_m - i S_m) f_m,
    by the blocked phases P = Re[(v * E) @ F^T], E[b, m] = exp(i P_b y_m / hbar)
    and F[r, m] = exp(i r h_p y_m / hbar). These differ from ``_phase_matrix`` by
    rounding: at most 2.7e-14 of max|P| at n up to 4096, at the p grid's Nyquist edge.
    """
    y = 2.0 * xgrid.h * np.arange((xgrid.n - 1) // 2 + 1)
    spectrum = np.fft.fft(psi, 2 * xgrid.n)
    sums = xgrid.h**2 * np.fft.ifft(spectrum * spectrum.conj())[: 2 * y.size : 2]
    sums[0] -= 0.5 * xgrid.h**2 * (abs(psi[0]) ** 2 + abs(psi[-1]) ** 2)
    v = sums.conj() * _fold_weights(y) * np.stack([np.ones(y.size), spec.damping(0.0, y, hbar)])
    E = np.exp(np.outer(pgrid.nodes[::BLOCK], 1j * y / hbar))  # (blocks, k)
    F = np.exp(np.outer(np.arange(BLOCK) * pgrid.h, 1j * y / hbar))  # (BLOCK, k)
    # (2, blocks, BLOCK) flattens to p order; the last block's overhang is cut.
    marginals = ((v[:, None, :] * E) @ F.T).real.reshape(2, -1)[:, :pgrid.n] / (2.0 * np.pi * hbar)
    return marginals[0], marginals[1]
