"""Trajectory-picture Monte Carlo: exact flow maps over sampled ensembles.

Instead of evolving densities, sample the initial product distribution and
push each (q0, p0, Q0, P0) quadruple through the exact final-time maps of the
impulsive coupling. For A = q: q and P are conserved, p' = p0 - eps*P0,
Q' = Q0 + eps*q0. For A(xi): xi and P are conserved, the angle advances by
-eps*(dA/dxi)*P0, and Q' = Q0 + eps*A(xi0). Histograms of the evolved samples
validate the density-picture solvers statistically.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvariantViolation
from .grids import TWO_PI, Grid1D
from .observables import ClassicalObservable, CouplingParams, ProbeSpec
from .states import PhaseSpaceDensity

_SAMPLE_CHUNK = 8192


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

class _Ensemble:
    """One sample per entry: every component array has the same length."""

    def __post_init__(self):
        if len({getattr(self, f.name).size for f in fields(self)}) > 1:
            raise InvariantViolation("ensemble component lengths differ")


@dataclass(frozen=True)
class TrajectoryEnsemble(_Ensemble):
    """Sampled (q, p, Q, P) quadruples."""

    q: np.ndarray
    p: np.ndarray
    Q: np.ndarray
    P: np.ndarray


@dataclass(frozen=True)
class ActionEnsemble(_Ensemble):
    """The same ensemble expressed in (xi, theta) for the system pair."""

    xi: np.ndarray
    theta: np.ndarray
    Q: np.ndarray
    P: np.ndarray


def _guide(cdf_rows: np.ndarray) -> np.ndarray:
    """Guide table (Chen & Asau 1974) of each row of L non-decreasing CDF values.

    Entry j is the first index whose value reaches j/L of the row's last, for
    j = 0..L, clamped to [1, L - 1]. An all-zero row's entries are all L - 1,
    so that the lower of two rows' entries is its neighbour's.
    """
    L = cdf_rows.shape[1]
    levels = np.arange(L + 1) / L
    guide = np.full((len(cdf_rows), L + 1), L - 1, dtype=np.int32)
    for entries, cdf in zip(guide, cdf_rows):
        if cdf[-1] > 0.0:
            entries[:] = np.searchsorted(cdf, levels * cdf[-1])
    return np.clip(guide, 1, L - 1, out=guide)


def _bisect(cdf, t: np.ndarray, s, last: int) -> np.ndarray:
    """Bisect k in [1, last] for the samples ``s``, keeping cdf(lo - 1) < t and
    cdf(hi) >= t wherever probed; lo passes hi only when cdf(last) < t."""
    lo = np.ones(t.size, dtype=np.intp)
    hi = np.full(t.size, last, dtype=np.intp)
    for _ in range((last - 1).bit_length()):
        mid = (lo + hi) // 2
        below = cdf(mid, s) < t
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return np.minimum(lo, hi)


def _invert(cdf, t: np.ndarray, k: np.ndarray, finish):
    """The index k of each target t with cdf(k - 1) < t <= cdf(k), and those two values.

    ``cdf(k, s)`` evaluates the CDFs of the samples ``s`` at the indices k. From
    a guide start k at or before the crossing, two probes step forward while
    cdf(k) < t. The samples that then fail the crossing check take ``finish(s)``.
    """
    every = slice(None)
    for _ in range(2):
        k = k + (cdf(k, every) < t)
    lo, hi = cdf(k - 1, every), cdf(k, every)
    redo = np.flatnonzero((lo >= t) | (hi < t))
    if redo.size:
        k[redo] = finish(redo)
        lo[redo] = cdf(k[redo] - 1, redo)
        hi[redo] = cdf(k[redo], redo)
    return k, lo, hi


def _stream(seed: int, offset: int) -> np.random.Generator:
    """A generator on the Philox stream keyed by ``seed``, placed at its 64-bit draw ``offset``.

    Philox is counter-based (Salmon et al., SC'11): each counter step gives four
    draws, so any offset is reached directly, with no draw before it made.
    """
    bits = np.random.Philox(key=seed)
    bits.advance(offset // 4)
    bits.random_raw(offset % 4)
    return np.random.Generator(bits)


def sample_chunks(
    rho_s: PhaseSpaceDensity, probe: ProbeSpec, n: int, seed: int
) -> Iterator[tuple[slice, TrajectoryEnsemble]]:
    """Draw n quadruples from rho_s(q, p) * rho_pi(Q, P), deterministically, a chunk at a time.

    Yields ``(sl, chunk)`` for the samples ``sl`` of the ensemble, in order, in
    chunks of ``_SAMPLE_CHUNK``. The draws are those of one Philox stream keyed
    by ``seed``: the n uniforms of q, the n uniforms of p, then the normals of
    Q and of P. The counter-based stream is read from three places at once,
    offsets 0, n and 2n, so the draw is schedule-independent for a given seed.
    Q is drawn in full before the first chunk, as the normals' draw count sets
    where P starts: every chunk's Q is a view of that one array of n, and its
    q, p and P are the chunk's own. The sampler reads no chunk's Q after it
    yields it, so a caller may write over it.

    System pairs come from inverse-CDF sampling: q from the q-marginal, then p
    from the conditional whose CDF is the two bracketing row CDFs blended
    linearly in q. Probe pairs are the independent Gaussians; sigma_P = 0
    yields exactly zero momenta.

    Both searches start from a guide table (Chen & Asau 1974; Devroye 1986,
    III.2.4), one int32 entry per node: for q, the first node whose CDF
    reaches level j/n_q of the total; for p, the same per row of normalised
    row CDFs. A p draw reads the lower entry of its two bracketing rows, since
    the crossing of a convex blend of two normalised CDFs lies between theirs.
    Two probes then step forward, and the check cdf[k-1] < target <= cdf[k]
    accepts k. The samples that fail it (a guide bin wider than two nodes, or
    rounding) are finished by the search the draw used before: ``searchsorted``
    for q, and for p a bisection of ceil(log2(n_p - 1)) blended entries. So N
    draws cost O(N) time plus O(N log n_p) for the few that fail.

    The output is exact, not an approximation of the search. For non-negative
    values every row CDF, and so every blend of two, is non-decreasing in
    floating point (rounding is monotone), so exactly one k in [1, n - 1]
    passes the check, the first entry not below the target, which the
    searches also return; the guide only decides where probing starts. Each
    entry is the same floating-point expression the searches evaluate. Where
    a value dips below zero (down to the admitted -1e-12) a CDF may cross a
    target more than once; the check still accepts only a crossing.
    """
    if n < 1:
        raise InvariantViolation("need at least one sample")
    qnodes = rho_s.qgrid.nodes
    pnodes = rho_s.pgrid.nodes
    h_q, h_p = rho_s.qgrid.h, rho_s.pgrid.h
    n_q, m = rho_s.qgrid.n, rho_s.pgrid.n

    marg = rho_s.q_marginal()
    cdf_q = np.concatenate([[0.0], np.cumsum(0.5 * (marg[1:] + marg[:-1]) * h_q)])
    row_cdf = np.concatenate(
        [np.zeros((n_q, 1)), np.cumsum(0.5 * (rho_s.values[:, 1:] + rho_s.values[:, :-1]) * h_p, axis=1)],
        axis=1,
    )
    guide_q = _guide(cdf_q[None, :])[0]
    guide_p = _guide(row_cdf).ravel()
    row_cdf = row_cdf.ravel()
    h_node = pnodes[1] - pnodes[0]
    every = slice(None)

    uniform_q, uniform_p, normal = (_stream(seed, k * n) for k in range(3))
    Q = normal.standard_normal(n)
    Q *= probe.sigma_Q
    for start in range(0, n, _SAMPLE_CHUNK):
        sl = slice(start, min(start + _SAMPLE_CHUNK, n))
        size = sl.stop - start
        u = uniform_q.random(size)
        t_q = u * cdf_q[-1]
        k, lo, hi = _invert(lambda k, s: cdf_q[k], t_q, guide_q[(u * n_q).astype(np.intp)],
                            lambda s: np.clip(np.searchsorted(cdf_q, t_q[s]), 1, n_q - 1))
        q = qnodes[k - 1] + np.clip((t_q - lo) / np.maximum(hi - lo, 1e-300), 0.0, 1.0) * h_q

        # Conditional p draw: invert the blend of the two bracketing row CDFs.
        pos = np.clip((q - qnodes[0]) / h_q, 0.0, n_q - 1 - 1e-12)
        left = pos.astype(int)
        w = pos - left
        v = 1.0 - w
        row = left * m

        def blend(k, s):
            return v[s] * row_cdf[row[s] + k] + w[s] * row_cdf[row[s] + m + k]

        u = uniform_p.random(size)
        t_p = u * blend(m - 1, every)
        g = left * (m + 1) + (u * m).astype(np.intp)
        k, lo, hi = _invert(blend, t_p, np.minimum(guide_p[g], guide_p[g + m + 1]),
                            lambda s: _bisect(blend, t_p[s], s, m - 1))
        p = pnodes[k - 1] + np.clip((t_p - lo) / np.maximum(hi - lo, 1e-300), 0.0, 1.0) * h_node

        P = normal.standard_normal(size)
        P *= probe.sigma_P
        yield sl, TrajectoryEnsemble(q=q, p=p, Q=Q[sl], P=P)


def sample_initial(
    rho_s: PhaseSpaceDensity, probe: ProbeSpec, n: int, seed: int
) -> TrajectoryEnsemble:
    """The n quadruples of ``sample_chunks`` in four arrays: its chunks' q, p and P
    copied in, and its array of Q itself. The peak is the four arrays."""
    q, p, P = (np.empty(max(n, 0)) for _ in range(3))  # n < 1 is refused by the first chunk
    for sl, chunk in sample_chunks(rho_s, probe, n, seed):
        q[sl], p[sl], P[sl] = chunk.q, chunk.p, chunk.P
    return TrajectoryEnsemble(q=q, p=p, Q=chunk.Q.base, P=P)


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

class Histogram:
    """Counts of samples in ``bins`` equal bins over [lo, hi], added a chunk at a time.

    A bin holds its left edge, and the last one also hi, as in ``np.histogram``;
    a sample outside [lo, hi], or NaN, falls in no bin but counts in ``n``.
    ``np.histogram`` places each sample by itself, so the counts summed over
    chunks are those of the whole array.
    """

    def __init__(self, lo: float, hi: float, bins: int):
        self.edges = np.linspace(lo, hi, bins + 1)
        self.counts = np.zeros(bins, dtype=np.intp)
        self.n = 0

    def add(self, samples: np.ndarray) -> Histogram:
        self.counts += np.histogram(samples, bins=self.edges)[0]
        self.n += samples.size
        return self


def histogram_l1_distance(hist: Histogram, grid: Grid1D, density: np.ndarray) -> float:
    """L1 distance between a sample histogram over the grid's range and
    bin-integrated model mass.

    The model density (given on ``grid``) is integrated over each bin through
    its cumulative trapezoid, so the comparison carries no binning bias.
    """
    if hist.edges[0] != grid.lo or hist.edges[-1] != grid.hi:
        raise InvariantViolation("the histogram's range is not the grid's")
    outside = hist.n - hist.counts.sum()
    empirical = hist.counts / hist.n
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * grid.h)])
    model = np.diff(np.interp(hist.edges, grid.nodes, cdf))
    return float(np.sum(np.abs(empirical - model)) + outside / hist.n)


def periodic_histogram_l1_distance(
    hist: Histogram, density_nodes: np.ndarray, density: np.ndarray
) -> float:
    """Same as above on [0, 2pi]: a histogram of samples wrapped mod 2pi, the
    density given on the n ``density_nodes`` of a periodic grid and closed by
    its first node at 2pi."""
    grid = Grid1D(0.0, TWO_PI, len(density_nodes) + 1)
    closed = np.concatenate([density, density[:1]])
    return histogram_l1_distance(hist, grid, closed)
