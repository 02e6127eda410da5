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
(Wiener-Khinchin). The sums then meet the phases exp(i p_j y_m / hbar) as a
chirp-z transform: p_j y_m / hbar = phi m + theta j m on the uniform grids, and
j m = (j^2 + m^2 - (j - m)^2) / 2 makes the sum over m one convolution with the
chirp exp(i theta n^2 / 2), three FFTs in place of the k n_p phase products.
Its oracle, the same sums over rho's gathered anti-diagonals for any A, is
``momentum_marginals`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvariantViolation
from .grids import Grid1D, _freeze, _Handover
from .states import DensityOperator


@dataclass(frozen=True)
class WignerFunction:
    qgrid: Grid1D
    pgrid: Grid1D
    values: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        v = _freeze(self.values, float)
        if v.shape != (self.qgrid.n, self.pgrid.n):
            raise InvariantViolation("Wigner values do not match the (q, p) grids")
        object.__setattr__(self, "values", v)


def damping(A: Callable[[np.ndarray], np.ndarray], tau: float, q, y, hbar: float) -> np.ndarray:
    """The channel's factor exp(-tau DeltaA(q, y)^2 / hbar^2) on the y-integrand,
    with DeltaA(q, y) = A(q + y/2) - A(q - y/2) for a vectorized callable A."""
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-tau * (A(q + 0.5 * y) - A(q - 0.5 * y)) ** 2 / hbar**2)


def _antidiagonals(rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """Separations y_m = 2hm and the anti-diagonals of rho for offsets m >= 0.

    D[0, m, i] + 1j * D[1, m, i] = rho.matrix[i + m, i - m] for
    m = 0 .. (n-1)//2, and zero where the index leaves the matrix. The
    negative offsets are not gathered: they are the conjugates of these, which
    holds only for a Hermitian state, so a state whose Hermitian residue
    exceeds HERMITIAN_TOLERANCE raises InvariantViolation carrying it.
    """
    if rho.grid is None:
        raise InvariantViolation("Wigner transform needs a position-grid state")
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


def evolved_wigner(rho: DensityOperator, A: Callable[[np.ndarray], np.ndarray], tau: float,
                   pgrid: Grid1D, hbar: float = 1.0) -> WignerFunction:
    """Wigner transform of the post-measurement reduced state.

    The channel damps the y-integrand by exp(-tau DeltaA^2 / hbar^2); for
    A(x) = x this is a Gaussian convolution in p of variance 2*tau.
    """
    y, D = _antidiagonals(rho)
    D *= damping(A, tau, rho.grid.nodes, y[:, None], hbar)
    return _wigner_from_antidiagonals(y, D, rho.grid, pgrid, hbar)


def _split(x):
    """Veltkamp's split of x into hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


# 2 pi as three floats: the first two have 25 significant bits, so that k times
# each is exact for integers k below 2^28 (Cody and Waite's reduction).
_TWO_PI_HI = float.fromhex("0x1.921fb5p+2")
_TWO_PI_MID = float.fromhex("0x1.110b46p-24")
_TWO_PI_LO = float.fromhex("0x1.1a62633145c07p-52")


def _reduced_phase(t: float, n: np.ndarray) -> np.ndarray:
    """t n modulo 2 pi, near [-pi, pi], within a few units of roundoff of 2 pi, for
    a float t and integers 0 <= n < 2^53 with |t n| below 2^28 turns.

    Dekker's two-product gives t n = a + b exactly; a less k 2 pi, in the three
    parts above, is exact but for the last part's rounding, and b is added last.
    """
    n = n.astype(float)  # exact below 2^53
    a = t * n
    t_hi, t_lo = _split(t)
    n_hi, n_lo = _split(n)
    b = ((t_hi * n_hi - a) + t_hi * n_lo + t_lo * n_hi) + t_lo * n_lo
    k = np.rint(a / (2.0 * np.pi))
    return (((a - k * _TWO_PI_HI) - k * _TWO_PI_MID) - k * _TWO_PI_LO) + b


def pure_state_momentum_marginals(
    psi: np.ndarray, xgrid: Grid1D, A: Callable[[np.ndarray], np.ndarray], tau: float,
    pgrid: Grid1D, hbar: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """int W dq / (2 pi hbar) of rho = h psi psi^H before and after the channel,
    psi L2-normalized on ``xgrid`` (``normalized_wavefunction``).

    Contract: A is affine in x, so DeltaA(q, y) does not depend on q and the
    channel's factor is one y-profile, ``damping`` read at q = 0.

    The trapezoid q-quadrature of ``wigner_transform``'s W, summed over q first: with
    r_l = sum_j psi_{j+l} psi*_j, the trapezoid q-sum of anti-diagonal m is
    C_m + i S_m = h^2 r_{2m}, less h^2 (|psi_0|^2 + |psi_{n-1}|^2) / 2 at m = 0,
    the one run that reaches the grid ends. With the fold weights f_m,
    P(p) = Re sum_m v_m exp(i p y_m / hbar) / (2 pi hbar), v_m = (C_m - i S_m) f_m.
    On the uniform grids p_j = p_0 + j h_p and y_m = 2 h m that sum is a chirp-z
    transform (Rabiner, Schafer and Rader 1969; Bluestein 1970): three FFTs of a
    power-of-2 length at least k + n_p - 1, O(n log n) time and O(n) memory. Each
    phase t n is reduced modulo 2 pi from its exact value (``_reduced_phase``), so
    that the chirps' large squares n^2 add no rounding of their own. The result
    differs from the oracle's blocked phases by rounding: at most 1.4e-14 of max|P|
    at n up to 4096, at the p grid's Nyquist edge (1.2e-13 without the reduction).
        """
    y = 2.0 * xgrid.h * np.arange((xgrid.n - 1) // 2 + 1)
    spectrum = np.fft.fft(psi, 2 * xgrid.n)
    sums = xgrid.h**2 * np.fft.ifft(spectrum * spectrum.conj())[: 2 * y.size : 2]
    sums[0] -= 0.5 * xgrid.h**2 * (abs(psi[0]) ** 2 + abs(psi[-1]) ** 2)
    v = sums.conj() * _fold_weights(y) * np.stack([np.ones(y.size), damping(A, tau, 0.0, y, hbar)])
    # p_j y_m / hbar = phi m + theta j m, with phi = 2 h p_0 / hbar and theta = 2 h h_p / hbar,
    # and j m = (j^2 + m^2 - (j - m)^2) / 2: a convolution with the chirp exp(i theta n^2 / 2).
    k, n_p = y.size, pgrid.n
    n = np.arange(max(k, n_p), dtype=np.int64)
    chirp = np.exp(1j * _reduced_phase(xgrid.h * pgrid.h / hbar, n * n))
    size = 1 << (k + n_p - 2).bit_length()  # a power of 2 >= k + n_p - 1: no wrap-around
    kernel = np.zeros(size, dtype=complex)  # the conjugate chirp at n = j - m, -k < n < n_p
    kernel[:n_p] = chirp[:n_p].conj()
    kernel[size - k + 1:] = chirp[k - 1:0:-1].conj()
    signal = np.zeros((2, size), dtype=complex)
    signal[:, :k] = v * (np.exp(1j * _reduced_phase(2.0 * xgrid.h * pgrid.lo / hbar, n[:k]))
                         * chirp[:k])
    np.fft.fft(signal, out=signal)  # in place: the transforms hold no second copy
    signal *= np.fft.fft(kernel, out=kernel)
    convolved = np.fft.ifft(signal, out=signal)[:, :n_p]
    marginals = (convolved * chirp[:n_p]).real / (2.0 * np.pi * hbar)
    return marginals[0], marginals[1]
