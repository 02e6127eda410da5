"""Independent oracles: the pointer smear, the quadrature kernel, the Wigner equation.

Each computes a quantity a second way, from its definition, so that the
package's closed forms and exact solves can be checked against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from vnlab import CouplingParams, ProbeSpec, SpectralObservable
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
