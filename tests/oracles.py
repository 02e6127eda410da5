"""Independent oracles: the pointer smear, the quadrature kernel, the Wigner
equation, the classical diffusions and the spline samplers as they were first
computed.

Each computes a quantity a second way, from its definition, so that the
package's closed forms and exact solves can be checked against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.interpolate import RectBivariateSpline
from scipy.ndimage import convolve1d

from vnlab import CouplingParams, ProbeSpec, SpectralObservable
from vnlab.grids import TWO_PI, Grid1D
from vnlab.states import AngleActionDensity, PhaseSpaceDensity, _Handover
from vnlab.wigner import WignerEvolutionSpec, WignerFunction


def pointer_density_loop(
    probe: ProbeSpec, Q: np.ndarray, values: np.ndarray, weights: np.ndarray, epsilon: float
) -> np.ndarray:
    """sum_k weights[k] * rho_pi(Q - epsilon * values[k]), one value at a time.

    The eigenvalue loop of the original pointer distribution: each term is
    the probe density at the shifted nodes, added in order of k. Oracle of
    ``ProbeSpec.pointer_density``, which computes the same terms in chunks.
    """
    out = np.zeros(np.shape(Q))
    for a_k, w_k in zip(values, weights):
        out += w_k * probe.position_density(Q - epsilon * a_k)
    return out


def decoherence_kernel_quadrature(
    obs: SpectralObservable,
    coupling: CouplingParams,
    hbar: float = 1.0,
) -> np.ndarray:
    """g_mn by direct quadrature of the probe-momentum Fourier integral.

    Trapezoid rule on 20001 nodes over +-12 sigma_P. Independent of the
    closed form of ``vnlab.qm.decoherence_kernel``; used as its oracle.
    """
    sigma_P = coupling.sigma_P
    a = obs.eigenvalues
    if sigma_P == 0.0:
        return np.ones((a.size, a.size))
    n = 20001
    P = np.linspace(-12.0 * sigma_P, 12.0 * sigma_P, n)
    w = np.full(n, P[1] - P[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    dens = np.exp(-0.5 * (P / sigma_P) ** 2) / np.sqrt(2.0 * np.pi * sigma_P**2)
    diff = (a[:, None] - a[None, :]).ravel()
    phases = np.exp(-1j * coupling.epsilon / hbar * np.outer(diff, P))
    g = phases @ (dens * w)
    return np.real(g).reshape(a.size, a.size)


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
    pairs and grid nodes. First-order in dtau by construction. Raises
    ValueError for fewer than 3 samples, one tau per sample missing, or taus
    that do not increase.
    """
    if len(wigners) < 3:
        raise ValueError("need at least 3 tau samples")
    if len(wigners) != len(taus):
        raise ValueError("one tau per Wigner sample required")
    worst = 0.0
    for k in range(len(wigners) - 1):
        dtau = taus[k + 1] - taus[k]
        if dtau <= 0:
            raise ValueError("tau samples must be increasing")
        lhs = (wigners[k + 1].values - wigners[k].values) / dtau
        rhs = apply_wigner_generator(wigners[k], spec, hbar=hbar)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def diffuse_rows_p_reference(values: np.ndarray, h_p: float, sigma: float) -> np.ndarray:
    """Gaussian smoothing of every row along p with width sigma, two ways by width.

    Kernels at least two grid steps wide are applied in real space: point-
    sampled out to 7 sigma, sum-normalized, with absorbing ends. Narrower ones
    multiply the unpadded p-spectrum by the Gaussian characteristic function.
    Oracle of the position-kind channel's Fourier-mode damping.
    """
    if sigma >= 2.0 * h_p:
        reach = int(np.ceil(7.0 * sigma / h_p))
        offsets = np.arange(-reach, reach + 1) * h_p
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
        kernel /= kernel.sum()
        return convolve1d(values, kernel, axis=-1, mode="constant", cval=0.0)
    k_fft = 2.0 * np.pi * np.fft.rfftfreq(values.shape[1], d=h_p)
    spectrum = np.fft.rfft(values, axis=-1)
    spectrum *= np.exp(-0.5 * (sigma * k_fft) ** 2)
    return np.fft.irfft(spectrum, n=values.shape[-1], axis=-1)


def angle_solve_reference(values: np.ndarray, rate: np.ndarray, tau: float) -> np.ndarray:
    """Damp angle mode m of row i by exp(-tau rate[i] m^2) through the complex FFT.

    The coefficients c_m of rho = sum_m c_m exp(i m theta) over the integer
    modes of the grid, and the real part of the damped sum. Oracle of the
    angle solver's Fourier-mode damping.
    """
    n = values.shape[1]
    c = np.fft.fft(values, axis=1) / n
    modes = np.rint(n * np.fft.fftfreq(n)).astype(int)
    damped = c * np.exp(-tau * np.asarray(rate)[:, None] * modes[None, :] ** 2)
    return np.real(np.fft.ifft(damped * n, axis=1))


def sample_phase_density_reference(rho: PhaseSpaceDensity, q_pts, p_pts) -> np.ndarray:
    """Cubic-spline samples of rho, 0 outside the grid's rectangle, clipped at zero.

    The original inline sampler, oracle of ``vnlab.states.sample_phase_density``.
    """
    sp = RectBivariateSpline(rho.qgrid.nodes, rho.pgrid.nodes, rho.values, kx=3, ky=3, s=0)
    q = np.asarray(q_pts, dtype=float)
    p = np.asarray(p_pts, dtype=float)
    out = sp.ev(q.ravel(), p.ravel()).reshape(q.shape)
    inside = (
        (q >= rho.qgrid.lo) & (q <= rho.qgrid.hi)
        & (p >= rho.pgrid.lo) & (p <= rho.pgrid.hi)
    )
    return np.clip(np.where(inside, out, 0.0), 0.0, None)


def from_angle_action_reference(
    aa: AngleActionDensity, qgrid: Grid1D, pgrid: Grid1D
) -> PhaseSpaceDensity:
    """The original inline inverse resampling, oracle of ``vnlab.states.from_angle_action``.

    A spline over the theta nodes padded periodically by 4 on each side, masked
    to 0 beyond xi_max, clipped at zero and renormalized.
    """
    qq, pp = np.meshgrid(qgrid.nodes, pgrid.nodes, indexing="ij")
    xi = 0.5 * (qq**2 + pp**2)
    theta = np.mod(np.arctan2(pp, qq), TWO_PI)
    pad = 4
    tnodes = aa.thetagrid.nodes
    text = np.concatenate([tnodes[-pad:] - TWO_PI, tnodes, tnodes[:pad] + TWO_PI])
    vext = np.concatenate([aa.values[:, -pad:], aa.values, aa.values[:, :pad]], axis=1)
    sp = RectBivariateSpline(aa.xigrid.nodes, text, vext, kx=3, ky=3, s=0)
    vals = sp.ev(xi.ravel(), theta.ravel()).reshape(xi.shape)
    vals = np.where(xi <= aa.xigrid.hi, vals, 0.0)
    return PhaseSpaceDensity(qgrid, pgrid, _Handover(np.clip(vals, 0.0, None))).normalized()
