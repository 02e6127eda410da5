"""Trajectory-picture Monte Carlo: exact flow maps over sampled ensembles.

Instead of evolving densities, sample the initial product distribution and
push each (q0, p0, Q0, P0) quadruple through the exact final-time maps of the
impulsive coupling. For A = q: q and P are conserved, p' = p0 - eps*P0,
Q' = Q0 + eps*q0. For A(xi): xi and P are conserved, the angle advances by
-eps*(dA/dxi)*P0, and Q' = Q0 + eps*A(xi0). Histograms of the evolved samples
validate the density-picture solvers statistically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .grids import TWO_PI, Grid1D
from .observables import ClassicalObservable, CouplingParams, ProbeSpec
from .states import PhaseSpaceDensity

_SAMPLE_CHUNK = 8192


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sampled (q, p, Q, P) quadruples."""

    q: np.ndarray
    p: np.ndarray
    Q: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        n = self.q.size
        for name in ("p", "Q", "P"):
            if getattr(self, name).size != n:
                raise InvariantViolation("ensemble component lengths differ")


@dataclass(frozen=True)
class ActionEnsemble:
    """The same ensemble expressed in (xi, theta) for the system pair."""

    xi: np.ndarray
    theta: np.ndarray
    Q: np.ndarray
    P: np.ndarray


def sample_initial(
    rho_s: PhaseSpaceDensity, probe: ProbeSpec, n: int, seed: int
) -> TrajectoryEnsemble:
    """Draw n quadruples from rho_s(q, p) * rho_pi(Q, P), deterministically.

    System pairs come from inverse-CDF sampling: q from the q-marginal, then p
    from the conditional whose CDF is the two bracketing row CDFs blended
    linearly in q. Probe pairs are the independent Gaussians; sigma_P = 0
    yields exactly zero momenta. The counter-based Philox stream makes the
    draw schedule-independent for a given seed.

    The conditional draw binary-searches the blended CDF without building it:
    ceil(log2(n_p - 1)) steps per sample for n_p momentum nodes, each
    evaluating one blended entry, so N draws cost O(N log n_p) time, and
    working in chunks of ``_SAMPLE_CHUNK`` samples bounds the extra memory by
    the chunk. For non-negative values every row CDF, and so every blend of
    two, is non-decreasing in floating point (rounding is monotone), and the
    search lands on the first entry not below the target: the count of
    entries below it, clamped to [1, n_p - 1], as a linear scan gives. For a
    row that dips (values down to the admitted -1e-12) the search still ends
    on a crossing blend[k-1] < target <= blend[k], or at either end.
    """
    if n < 1:
        raise InvariantViolation("need at least one sample")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u_q = rng.random(n)
    u_p = rng.random(n)
    z_Q = rng.standard_normal(n)
    z_P = rng.standard_normal(n)

    qnodes = rho_s.qgrid.nodes
    pnodes = rho_s.pgrid.nodes
    h_q, h_p = rho_s.qgrid.h, rho_s.pgrid.h

    marg = rho_s.q_marginal()
    cdf_q = np.concatenate([[0.0], np.cumsum(0.5 * (marg[1:] + marg[:-1]) * h_q)])
    targets = u_q * cdf_q[-1]
    idx = np.clip(np.searchsorted(cdf_q, targets), 1, cdf_q.size - 1)
    span = np.maximum(cdf_q[idx] - cdf_q[idx - 1], 1e-300)
    frac = np.clip((targets - cdf_q[idx - 1]) / span, 0.0, 1.0)
    q = qnodes[idx - 1] + frac * h_q

    # Conditional p draw: invert the blend of the two bracketing row CDFs.
    m = rho_s.pgrid.n
    row_cdf = np.concatenate(
        [np.zeros((rho_s.qgrid.n, 1)), np.cumsum(0.5 * (rho_s.values[:, 1:] + rho_s.values[:, :-1]) * h_p, axis=1)],
        axis=1,
    ).ravel()
    h_node = pnodes[1] - pnodes[0]
    p = np.empty(n)
    for start in range(0, n, _SAMPLE_CHUNK):
        sl = slice(start, min(start + _SAMPLE_CHUNK, n))
        pos = np.clip((q[sl] - qnodes[0]) / h_q, 0.0, rho_s.qgrid.n - 1 - 1e-12)
        left = pos.astype(int)
        w = pos - left
        v = 1.0 - w
        row = left * m

        def blend(k):
            return v * row_cdf[row + k] + w * row_cdf[row + m + k]

        targets = u_p[sl] * blend(m - 1)
        # Search k in [1, m - 1]: blend[lo - 1] < target, blend[hi] >= target
        # wherever probed; lo passes hi only when blend[m - 1] < target.
        lo = np.ones(w.size, dtype=np.intp)
        hi = np.full(w.size, m - 1, dtype=np.intp)
        for _ in range((m - 2).bit_length()):
            mid = (lo + hi) // 2
            below = blend(mid) < targets
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        idx = np.minimum(lo, hi)
        c_lo = blend(idx - 1)
        span = np.maximum(blend(idx) - c_lo, 1e-300)
        frac = np.clip((targets - c_lo) / span, 0.0, 1.0)
        p[sl] = pnodes[idx - 1] + frac * h_node

    Q = probe.sigma_Q * z_Q
    P = probe.sigma_P * z_P
    return TrajectoryEnsemble(q=q, p=p, Q=Q, P=P)


# ---------------------------------------------------------------------------
# Flow maps (final time, G = 1)
# ---------------------------------------------------------------------------

def flow_position(ens: TrajectoryEnsemble, coupling: CouplingParams) -> TrajectoryEnsemble:
    """q' = q0, P' = P0 (conserved, untouched arrays); p' = p0 - eps*P0, Q' = Q0 + eps*q0."""
    eps = coupling.epsilon
    return TrajectoryEnsemble(
        q=ens.q,
        p=ens.p - eps * ens.P,
        Q=ens.Q + eps * ens.q,
        P=ens.P,
    )


def to_action_ensemble(ens: TrajectoryEnsemble) -> ActionEnsemble:
    """Canonical transform of the system pair: xi = (q^2 + p^2)/2, theta = atan2(p, q).

    The probe pair (Q, P) carries over unchanged.
    """
    xi = 0.5 * (ens.q**2 + ens.p**2)
    theta = np.mod(np.arctan2(ens.p, ens.q), TWO_PI)
    return ActionEnsemble(xi=xi, theta=theta, Q=ens.Q, P=ens.P)


def flow_action(
    ens: ActionEnsemble, obs: ClassicalObservable, coupling: CouplingParams
) -> ActionEnsemble:
    """xi' = xi0, P' = P0; theta' = theta0 - eps*(dA/dxi)|_xi0 * P0 mod 2pi; Q' = Q0 + eps*A(xi0).

    A Cartesian ensemble is refused: transform it with ``to_action_ensemble``.
    """
    if not isinstance(ens, ActionEnsemble):
        raise InvariantViolation(f"action flow takes an ActionEnsemble, not {type(ens).__name__}")
    if obs.dA_dxi is None or obs.A_of_xi is None:
        raise InvariantViolation("action flow needs A(xi) and dA/dxi")
    eps = coupling.epsilon
    theta = np.mod(ens.theta - eps * obs.dA_dxi(ens.xi) * ens.P, TWO_PI)
    return ActionEnsemble(
        xi=ens.xi,
        theta=theta,
        Q=ens.Q + eps * obs.A_of_xi(ens.xi),
        P=ens.P,
    )


# ---------------------------------------------------------------------------
# Histogram comparisons
# ---------------------------------------------------------------------------

def histogram_l1_distance(
    samples: np.ndarray, grid: Grid1D, density: np.ndarray, bins: int = 24
) -> float:
    """L1 distance between a sample histogram and bin-integrated model mass.

    The model density (given on ``grid``) is integrated over each bin through
    its cumulative trapezoid, so the comparison carries no binning bias.
    """
    edges = np.linspace(grid.lo, grid.hi, bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    outside = samples.size - counts.sum()
    empirical = counts / samples.size
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * grid.h)])
    model = np.diff(np.interp(edges, grid.nodes, cdf))
    return float(np.sum(np.abs(empirical - model)) + outside / samples.size)


def periodic_histogram_l1_distance(
    samples: np.ndarray, density_nodes: np.ndarray, density: np.ndarray, bins: int = 24
) -> float:
    """Same as above on [0, 2pi): samples wrapped mod 2pi, the density given on
    the n ``density_nodes`` of a periodic grid and closed by its first node at 2pi."""
    grid = Grid1D(0.0, TWO_PI, len(density_nodes) + 1)
    closed = np.concatenate([density, density[:1]])
    return histogram_l1_distance(np.mod(samples, TWO_PI), grid, closed, bins)
