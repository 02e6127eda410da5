"""Quantum measurement channel: pointer statistics, decoherence, conditioning.

The impulsive system-probe coupling imprints the measured observable on the
probe position. Averaging over the Gaussian probe momentum damps coherences
between eigenspaces by g_mn = exp(-tau (a_m - a_n)^2 / hbar^2); conditioning
on a sharp pointer reading selects one eigenspace. The exact channel is
evaluated in the observable's eigenbasis (elementwise kernel multiply); the
Lindblad right-hand side -[A,[A,rho]]/hbar^2 is kept as an independent
verification surface.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NegligibleProbability
from .grids import Grid1D, _Handover
from .observables import CouplingParams, ProbeSpec, SpectralObservable, require_hermitian
from .states import DensityOperator


def decoherence_kernel(obs: SpectralObservable, tau: float, hbar: float = 1.0) -> np.ndarray:
    """g_mn = exp(-tau (a_m - a_n)^2 / hbar^2) over eigenvalue index pairs, for a
    Gaussian probe momentum."""
    a = obs.eigenvalues
    diff = a[:, None] - a[None, :]
    return np.exp(-tau * diff**2 / hbar**2)


def born_weights(rho_s: DensityOperator, obs: SpectralObservable) -> np.ndarray:
    """p_s(a_n) = Tr(rho P_n) for every eigenvalue, in spectral order."""
    diag = np.real(np.diag(obs.to_eigenbasis(rho_s.matrix)))
    return np.bincount(obs.block_index, weights=diag, minlength=obs.n_eigenvalues)


def pointer_distribution(
    rho_s: DensityOperator,
    obs: SpectralObservable,
    probe: ProbeSpec,
    coupling: CouplingParams,
    Qgrid: Grid1D,
) -> np.ndarray:
    """Probe-position density after the interaction, sampled on Qgrid.

    The Born weights over the eigenvalues, smeared by the probe position
    density (``ProbeSpec.pointer_density``): sum_n p(a_n) rho_pi(Q - epsilon*a_n).
    Normalized on its own once the grid holds all peaks.
    """
    return probe.pointer_density(
        Qgrid.nodes, obs.eigenvalues, born_weights(rho_s, obs), coupling.epsilon
    )


def _kernel_channel(
    rho_s: DensityOperator, obs: SpectralObservable, block_factors: np.ndarray
) -> DensityOperator:
    """Scale the block pairs of rho_s in the eigenbasis, and conjugate back."""
    factors = block_factors[np.ix_(obs.block_index, obs.block_index)]
    out = obs.from_eigenbasis(factors * obs.to_eigenbasis(rho_s.matrix))
    return DensityOperator(_Handover(out), grid=rho_s.grid)


def reduced_state_post(
    rho_s: DensityOperator, obs: SpectralObservable, tau: float, hbar: float = 1.0
) -> DensityOperator:
    """Post-measurement reduced state at strength tau: sum_mn g_mn P_m rho P_n.

    Diagonal blocks in the eigenbasis are untouched (g_nn = 1), so the
    measured observable's outcome distribution is exactly preserved.
    """
    return _kernel_channel(rho_s, obs, decoherence_kernel(obs, tau, hbar))


def lueders_nonselective(rho_s: DensityOperator, obs: SpectralObservable) -> DensityOperator:
    """Pinching sum_n P_n rho P_n: the infinite-coupling limit of the channel."""
    return _kernel_channel(rho_s, obs, np.eye(obs.n_eigenvalues))


def lindblad_evolve(
    rho_s: DensityOperator, obs_matrix: np.ndarray, tau: float, hbar: float = 1.0
) -> DensityOperator:
    """Exact solution at strength tau of drho/dtau = -[A,[A,rho]]/hbar^2."""
    a = require_hermitian(obs_matrix)
    if a.shape != rho_s.matrix.shape:
        raise DimensionMismatch("observable and state dimensions differ")
    vals, vecs = np.linalg.eigh(a)
    diff = vals[:, None] - vals[None, :]
    g = np.exp(-tau * diff**2 / hbar**2)
    rot = vecs.conj().T @ rho_s.matrix @ vecs
    out = vecs @ (g * rot) @ vecs.conj().T
    return DensityOperator(_Handover(out), grid=rho_s.grid)


def lindblad_rhs(rho: DensityOperator, obs_matrix: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """-[A,[A,rho]]/hbar^2, the generator of the channel."""
    a = require_hermitian(obs_matrix)
    inner = a @ rho.matrix - rho.matrix @ a
    return -(a @ inner - inner @ a) / hbar**2


def conditional_state(
    rho_s: DensityOperator,
    obs: SpectralObservable,
    probe: ProbeSpec,
    coupling: CouplingParams,
    Q: float,
    hbar: float = 1.0,
) -> DensityOperator:
    """Reduced state conditioned on reading probe position Q.

    A Gaussian probe with sigma_Q sigma_P >= hbar/2 is a pure one, whose position
    wavefunction chi gives block pair (m, n) the factor chi(Q - eps a_m) chi(Q - eps a_n),
    plus independent momentum noise, which damps it by exp(-x (a_m - a_n)^2) with
    x = tau/hbar^2 - eps^2/(8 sigma_Q^2). Averaged over the pointer record, the states
    then give ``reduced_state_post``. Below hbar/2, x is taken as 0 (the pure probe).
    With a narrow probe and Q near epsilon*a_nu this collapses onto the
    selected eigenspace, P_nu rho P_nu / Tr(rho P_nu).
    """
    a = obs.eigenvalues
    weights = born_weights(rho_s, obs)
    chi = probe.position_wavefunction(Q - coupling.epsilon * a)
    denom = float(np.sum(weights * chi**2))
    if denom < 1e-12:
        raise NegligibleProbability(f"pointer value Q={Q} has probability {denom:.3e}")
    excess = max(coupling.tau / hbar**2 - coupling.epsilon**2 / (8.0 * probe.sigma_Q**2), 0.0)
    factors = np.outer(chi, chi) * np.exp(-excess * (a[:, None] - a[None, :]) ** 2)
    out = _kernel_channel(rho_s, obs, factors)
    return DensityOperator(_Handover(out.matrix / denom), grid=rho_s.grid)


def position_disturbance_scale(
    grid: Grid1D, density: np.ndarray, coupling: CouplingParams, hbar: float = 1.0
) -> float:
    """Reported disturbance scale (epsilon/hbar) * sigma_P * sqrt(var(x)), x ~ density.

    A scaling estimate only; nothing is asserted against it.
    """
    x = grid.nodes
    mean = grid.integrate(x * density)
    var = grid.integrate((x - mean) ** 2 * density)
    return coupling.epsilon / hbar * coupling.sigma_P * np.sqrt(var)
