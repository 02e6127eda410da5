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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, KernelMismatch, NegligibleProbability
from .grids import Grid1D, _freeze, _Handover
from .observables import CouplingParams, ProbeSpec, SpectralObservable, require_hermitian
from .states import DensityOperator


@dataclass(frozen=True)
class DecoherenceKernel:
    """Off-diagonal damping factors g_mn over eigenvalue index pairs."""

    gmn: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gmn", _freeze(self.gmn, float))
        object.__setattr__(self, "eigenvalues", _freeze(self.eigenvalues, float))


def decoherence_kernel(
    obs: SpectralObservable, coupling: CouplingParams, hbar: float = 1.0
) -> DecoherenceKernel:
    """g_mn = exp(-tau (a_m - a_n)^2 / hbar^2) for a Gaussian probe momentum."""
    a = obs.eigenvalues
    diff = a[:, None] - a[None, :]
    g = np.exp(-coupling.tau * diff**2 / hbar**2)
    return DecoherenceKernel(gmn=_Handover(g), eigenvalues=a)


def born_weights(rho_s: DensityOperator, obs: SpectralObservable) -> np.ndarray:
    """p_s(a_n) = Tr(rho P_n) for every eigenvalue, in spectral order."""
    diag = np.real(np.diag(obs.to_eigenbasis(rho_s.matrix)))
    return np.bincount(obs.block_index, weights=diag, minlength=obs.n_eigenvalues)


def auto_pointer_grid(
    obs: SpectralObservable,
    probe: ProbeSpec,
    coupling: CouplingParams,
    n: int = 1024,
    pad_sigmas: float = 8.0,
) -> Grid1D:
    """Q grid covering every shifted peak epsilon*a_n with Gaussian margins."""
    return probe.pointer_grid(obs.eigenvalues, coupling.epsilon, n, pad_sigmas)


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


def pointer_mean(
    rho_s: DensityOperator, obs: SpectralObservable, coupling: CouplingParams
) -> float:
    """<Q>' = epsilon * <A>, the mean pointer shift (probe mean is zero).

    <A> is the Born weights against the eigenvalues, so the dense matrix of A
    is never built: O(n) for a diagonal observable, one eigenbasis rotation
    (O(n^3), as in ``born_weights``) otherwise.
    """
    return coupling.epsilon * float(born_weights(rho_s, obs) @ obs.eigenvalues)


def _kernel_channel(
    rho_s: DensityOperator, obs: SpectralObservable, rot: np.ndarray, block_factors: np.ndarray
) -> DensityOperator:
    """Scale the block pairs of ``rot``, rho_s in the eigenbasis, and conjugate back."""
    factors = block_factors[np.ix_(obs.block_index, obs.block_index)]
    out = obs.from_eigenbasis(factors * rot)
    return DensityOperator(_Handover(out), grid=rho_s.grid)


def reduced_state_post(
    rho_s: DensityOperator, obs: SpectralObservable, kernel: DecoherenceKernel
) -> DensityOperator:
    """Post-measurement reduced state: sum_mn g_mn P_m rho P_n.

    Diagonal blocks in the eigenbasis are untouched (g_nn = 1), so the
    measured observable's outcome distribution is exactly preserved.
    """
    rot = obs.to_eigenbasis(rho_s.matrix)
    if kernel.gmn.shape != (obs.n_eigenvalues, obs.n_eigenvalues) or not np.array_equal(
        kernel.eigenvalues, obs.eigenvalues
    ):
        raise KernelMismatch("kernel was built for a different observable")
    return _kernel_channel(rho_s, obs, rot, kernel.gmn)


def lueders_nonselective(rho_s: DensityOperator, obs: SpectralObservable) -> DensityOperator:
    """Pinching sum_n P_n rho P_n: the infinite-coupling limit of the channel."""
    return _kernel_channel(rho_s, obs, obs.to_eigenbasis(rho_s.matrix), np.eye(obs.n_eigenvalues))


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
) -> DensityOperator:
    """Reduced state conditioned on reading probe position Q (pure Gaussian probe).

    With a narrow probe and Q near epsilon*a_nu this collapses onto the
    selected eigenspace, P_nu rho P_nu / Tr(rho P_nu).
    """
    weights = born_weights(rho_s, obs)
    chi = probe.position_wavefunction(Q - coupling.epsilon * obs.eigenvalues)
    denom = float(np.sum(weights * chi**2))
    if denom < 1e-12:
        raise NegligibleProbability(f"pointer value Q={Q} has probability {denom:.3e}")
    out = _kernel_channel(rho_s, obs, obs.to_eigenbasis(rho_s.matrix), np.outer(chi, chi))
    return DensityOperator(_Handover(out.matrix / denom), grid=rho_s.grid)


def position_disturbance_scale(
    rho_s: DensityOperator, coupling: CouplingParams, hbar: float = 1.0
) -> float:
    """Reported disturbance scale (epsilon/hbar) * sigma_P * sqrt(var(x)).

    A scaling estimate only; nothing is asserted against it.
    """
    if rho_s.grid is None:
        raise DimensionMismatch("disturbance scale is defined on a position grid")
    x = rho_s.grid.nodes
    dens = rho_s.position_density()
    mean = rho_s.grid.integrate(x * dens)
    var = rho_s.grid.integrate((x - mean) ** 2 * dens)
    return coupling.epsilon / hbar * coupling.sigma_P * np.sqrt(var)
