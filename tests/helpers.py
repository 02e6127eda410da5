"""Shared test fixtures: seeded random states and small oracles."""

from __future__ import annotations

import numpy as np

from vnlab import (
    AngleActionDensity,
    DensityOperator,
    Grid1D,
    InvariantViolation,
    PeriodicGrid,
    PhaseSpaceDensity,
    SpectralObservable,
)
from vnlab.cm import ORDER_FLOW_PRODUCT, flow_map, pde_stability_bound
from vnlab.grids import grid2d_integrate
from vnlab.observables import require_hermitian
from vnlab.qm import born_weights
from vnlab.states import normalized_wavefunction, phase_density_from_values, sample_phase_density
from vnlab.wigner import WignerFunction

# Every command's tolerances and their defaults, as the runners declare them.
DEFAULT_TOLERANCES = {
    "run-scenario": {},
    "evolve-qm": {
        "pointer_normalization": 1e-8,
        "pointer_mean": 1e-8,
        "distribution_invariance": 1e-10,
        "variance_growth": 1e-4,
    },
    "evolve-cm": {
        "mass": 1e-6,
        "probe_mean": 1e-8,
        "q_marginal_drift": 1e-8,
        "variance_growth": 1e-4,
    },
    "mc-compare": {"l1_coefficient": 5.0},
    "table1-report": {
        "row1_expectation": 1e-8,
        "row2_uncertainty_qm": 1e-8,
        "row2_uncertainty_cm": 1e-6,
        "row3_variance": 1e-4,
        "row4_qm_derivative": 1e-3,
        "row4_cm_order": 0.6,
    },
}


# ---------------------------------------------------------------------------
# Validity checks and derived quantities of the value types. No program path
# reads them; each check raises InvariantViolation naming what failed.
# ---------------------------------------------------------------------------

# Largest mass that the outer 5% band of either axis may hold (``validate_phase_density``).
LEAKAGE_BUDGET = 1e-6


def edge_leakage(rho: PhaseSpaceDensity) -> float:
    """Mass inside the outer 5% of either axis."""
    q, p = rho.qgrid.nodes, rho.pgrid.nodes
    qspan, pspan = rho.qgrid.hi - rho.qgrid.lo, rho.pgrid.hi - rho.pgrid.lo
    inner_q = (q >= rho.qgrid.lo + 0.05 * qspan) & (q <= rho.qgrid.hi - 0.05 * qspan)
    inner_p = (p >= rho.pgrid.lo + 0.05 * pspan) & (p <= rho.pgrid.hi - 0.05 * pspan)
    interior = rho.values * inner_q[:, None] * inner_p[None, :]
    return rho.mass() - grid2d_integrate(rho.qgrid, rho.pgrid, interior)


def validate_phase_density(rho: PhaseSpaceDensity) -> None:
    """Non-negative to -1e-12, unit mass within 1e-8, edge leakage within LEAKAGE_BUDGET."""
    if float(rho.values.min(initial=0.0)) < -1e-12:
        raise InvariantViolation(f"density has negative values down to {rho.values.min():.3e}")
    m = rho.mass()
    if abs(m - 1.0) > 1e-8:
        raise InvariantViolation(f"density mass {m!r} deviates from 1 beyond 1e-08")
    leak = edge_leakage(rho)
    if leak > LEAKAGE_BUDGET:
        raise InvariantViolation(f"edge-band mass {leak:.3e} exceeds budget {LEAKAGE_BUDGET:.1e}")


def validate_density_operator(rho: DensityOperator) -> None:
    """Hermitian (``DensityOperator.require_hermitian``), unit trace within 1e-10,
    eigenvalues above -1e-10."""
    m = rho.matrix
    rho.require_hermitian("density matrix is not Hermitian")
    if abs(np.trace(m) - 1.0) > 1e-10:
        raise InvariantViolation(f"trace {np.trace(m)!r} deviates from 1")
    w = np.linalg.eigvalsh(m)
    if w.min() < -1e-10:
        raise InvariantViolation(f"minimum eigenvalue {w.min():.3e} below -1e-10")


def position_density(rho: DensityOperator) -> np.ndarray:
    """Diagonal of a position-grid state as a continuum density rho(x, x) on the nodes."""
    return np.real(np.diag(rho.matrix)) / rho.grid.h


def from_hermitian(matrix) -> SpectralObservable:
    """Spectral data of a Hermitian matrix (``require_hermitian``), grouping
    eigenvalues within 1e-9."""
    vals, vecs = np.linalg.eigh(require_hermitian(matrix))
    groups: list[list[int]] = [[0]]
    for k in range(1, len(vals)):
        if vals[k] - vals[groups[-1][0]] <= 1e-9:
            groups[-1].append(k)
        else:
            groups.append([k])
    eigenvalues = np.array([np.mean(vals[g]) for g in groups])
    block_index = np.empty(len(vals), dtype=int)
    for n, g in enumerate(groups):
        block_index[g] = n
    return SpectralObservable(eigenvalues, basis=vecs, block_index=block_index)


def observable_matrix(obs: SpectralObservable) -> np.ndarray:
    """The observable as a dense Hermitian matrix."""
    diag = obs.eigenvalues[obs.block_index]
    if obs.basis is None:
        return np.diag(diag.astype(complex))
    return (obs.basis * diag) @ obs.basis.conj().T


def projectors(obs: SpectralObservable) -> list[np.ndarray]:
    """The dense spectral projectors, in eigenvalue order."""
    out = []
    for n in range(obs.n_eigenvalues):
        cols = np.flatnonzero(obs.block_index == n)
        if obs.basis is None:
            p = np.zeros((obs.dim, obs.dim), dtype=complex)
            p[cols, cols] = 1.0
        else:
            v = obs.basis[:, cols]
            p = v @ v.conj().T
        out.append(p)
    return out


def validate_spectral_observable(obs: SpectralObservable) -> None:
    """The projectors resolve the identity and are orthogonal idempotents, within 1e-10."""
    projs = projectors(obs)
    total = sum(projs)
    if np.max(np.abs(total - np.eye(obs.dim))) > 1e-10:
        raise InvariantViolation("projectors do not sum to the identity")
    for m, pm in enumerate(projs):
        for n, pn in enumerate(projs):
            prod = pm @ pn
            ref = pn if m == n else 0.0
            if np.max(np.abs(prod - ref)) > 1e-10:
                raise InvariantViolation(f"projectors {m},{n} not orthogonal/idempotent")


def wigner_normalization(w: WignerFunction) -> float:
    """int W dq dp / (2 pi hbar); equals 1 for a unit-trace state."""
    return grid2d_integrate(w.qgrid, w.pgrid, w.values) / (2.0 * np.pi * w.hbar)


def p_marginal_density(w: WignerFunction) -> np.ndarray:
    """int W dq / (2 pi hbar), the momentum density, on the p grid."""
    return (w.qgrid.weights @ w.values) / (2.0 * np.pi * w.hbar)


def validate_wigner(w: WignerFunction) -> None:
    """Unit normalization within 1e-6."""
    n = wigner_normalization(w)
    if abs(n - 1.0) > 1e-6:
        raise InvariantViolation(f"Wigner normalization {n!r} deviates from 1")


# ---------------------------------------------------------------------------
# States, observables and oracles
# ---------------------------------------------------------------------------

def density_from_wavefunction(psi, grid: Grid1D) -> DensityOperator:
    """Pure state h psi psi^H from samples of psi(x) (``normalized_wavefunction``)."""
    psi = normalized_wavefunction(psi, grid)
    return DensityOperator(grid.h * np.outer(psi, psi.conj()), grid=grid)


def pointer_mean(rho_s: DensityOperator, obs: SpectralObservable, coupling) -> float:
    """<Q>' = epsilon <A>, the mean pointer shift: the Born weights against the eigenvalues."""
    return coupling.epsilon * float(born_weights(rho_s, obs) @ obs.eigenvalues)


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None, grid: Grid1D | None = None
) -> DensityOperator:
    """Mixture of Haar-like random pure states; on ``grid`` when one is given."""
    rank = rank or dim
    m = np.zeros((dim, dim), dtype=complex)
    weights = rng.random(rank)
    weights /= weights.sum()
    for w in weights:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return DensityOperator(m, grid=grid)


def random_spectral_observable(dim: int, rng: np.random.Generator) -> SpectralObservable:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return from_hermitian(g + g.conj().T)


def random_gaussian_mixture(
    qgrid: Grid1D, pgrid: Grid1D, rng: np.random.Generator, k: int = 2
) -> PhaseSpaceDensity:
    """Convex combination of k off-center Gaussians, safely inside the grid."""
    qq, pp = np.meshgrid(qgrid.nodes, pgrid.nodes, indexing="ij")
    vals = np.zeros_like(qq)
    weights = rng.random(k)
    weights /= weights.sum()
    for w in weights:
        cq = rng.uniform(0.25 * qgrid.lo, 0.25 * qgrid.hi)
        cp = rng.uniform(0.25 * pgrid.lo, 0.25 * pgrid.hi)
        sq = rng.uniform(0.6, 1.2)
        sp = rng.uniform(0.6, 1.2)
        vals += w * np.exp(-0.5 * ((qq - cq) / sq) ** 2 - 0.5 * ((pp - cp) / sp) ** 2) / (
            2.0 * np.pi * sq * sp
        )
    return phase_density_from_values(qgrid, pgrid, vals)


def angle_density_from_function(
    xigrid: Grid1D, thetagrid: PeriodicGrid, f, normalize: bool = True
) -> AngleActionDensity:
    """f(xi, theta) sampled on the (xi, theta) grids, clipped at zero."""
    xx, tt = np.meshgrid(xigrid.nodes, thetagrid.nodes, indexing="ij")
    v = np.clip(np.asarray(f(xx, tt), dtype=float), 0.0, None)
    rho = AngleActionDensity(xigrid, thetagrid, v)
    return rho.normalized() if normalize else rho


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    w = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(w)))


def density_variance(grid: Grid1D, density: np.ndarray) -> float:
    mass = grid.integrate(density)
    mean = grid.integrate(grid.nodes * density) / mass
    return grid.integrate((grid.nodes - mean) ** 2 * density) / mass


def reference_wigner(rho: DensityOperator, pgrid: Grid1D, hbar: float = 1.0, A=None,
                     tau: float = 0.0) -> np.ndarray:
    """Wigner values from every signed anti-diagonal and one complex-phase product.

    The unfolded transform, oracle for the Hermitian fold in ``vnlab.wigner``.
    With an observable A (a vectorized callable) the y-integrand is damped by
    exp(-tau DeltaA^2 / hbar^2), DeltaA(q, y) = A(q + y/2) - A(q - y/2), as
    ``evolved_wigner`` does.
    """
    matrix = rho.matrix / rho.grid.h
    n = matrix.shape[0]
    mmax = (n - 1) // 2
    offsets = np.arange(-mmax, mmax + 1)
    D = np.zeros((offsets.size, n), dtype=complex)
    idx = np.arange(n)
    for row, m in enumerate(offsets):
        i = idx[abs(m):n - abs(m)]
        D[row, i] = matrix[i + m, i - m]
    y = 2.0 * rho.grid.h * offsets
    if A is not None:
        q = rho.grid.nodes[None, :]
        dA = A(q + 0.5 * y[:, None]) - A(q - 0.5 * y[:, None])
        D = D * np.exp(-tau * dA**2 / hbar**2)
    phases = np.exp(-1j / hbar * np.outer(pgrid.nodes, y))  # (n_p, n_y)
    return (2.0 * rho.grid.h * (phases @ D).T).real


def reference_liouville_generator(values, qgrid: Grid1D, pgrid: Grid1D, obs) -> np.ndarray:
    """A_op f from ``np.gradient`` and coefficient fields built on every call.

    Oracle for ``vnlab.cm``'s generator, which folds 1/(2h) into the fields
    and takes the same stencil in place.
    """
    qq, pp = np.meshgrid(qgrid.nodes, pgrid.nodes, indexing="ij")
    df_dq = np.gradient(values, qgrid.h, axis=0, edge_order=2)
    df_dp = np.gradient(values, pgrid.h, axis=1, edge_order=2)
    return obs.dA_dq(qq, pp) * df_dp - obs.dA_dp(qq, pp) * df_dq


def reference_pde_evolve(rho: PhaseSpaceDensity, obs, tau: float) -> np.ndarray:
    """Explicit Euler on d rho/d tau = A_op^2 rho with the oracle generator.

    The step is the one ``vnlab.cm`` takes: the stability bound, shortened to
    divide ``tau`` evenly.
    """
    bound = pde_stability_bound(rho.qgrid, rho.pgrid, obs)
    n_steps = int(np.ceil(tau / min(bound, tau)))
    step = tau / n_steps
    values = rho.values
    for _ in range(n_steps):
        inner = reference_liouville_generator(values, rho.qgrid, rho.pgrid, obs)
        values = values + step * reference_liouville_generator(inner, rho.qgrid, rho.pgrid, obs)
    return values


def reference_joint_density(rho_s, probe, obs, coupling, Qgrid, Pgrid, ordering) -> np.ndarray:
    """rho'(q, p, Q, P) from a 4-axis probe-position array and one ``einsum``.

    Oracle for ``vnlab.cm.joint_state_post``, which fills the result one
    q-slice at a time and allocates no other 4-axis array.
    """
    eps = coupling.epsilon
    qn, pn, Qn, Pn = rho_s.qgrid.nodes, rho_s.pgrid.nodes, Qgrid.nodes, Pgrid.nodes
    qq, pp, PP = np.meshgrid(qn, pn, Pn, indexing="ij")
    fq, fp = flow_map(obs, qq, pp, eps * PP)
    system = sample_phase_density(rho_s, fq, fp)
    mom = probe.momentum_density(Pn)
    if ordering == ORDER_FLOW_PRODUCT:
        a = obs.eval(fq, fp)
        pos = probe.position_density(Qn[None, None, None, :] - eps * a[..., None])
        return np.einsum("ijl,ijlk,l->ijkl", system, pos, mom, optimize=True)
    a = obs.eval(*np.meshgrid(qn, pn, indexing="ij"))
    pos = probe.position_density(Qn[None, None, :] - eps * a[..., None])
    return np.einsum("ijl,ijk,l->ijkl", system, pos, mom, optimize=True)


def _inverse_cdf_rows(cdf_rows: np.ndarray, nodes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Invert one monotone CDF per row at one target per row by a linear count."""
    totals = cdf_rows[:, -1]
    targets = u * totals
    idx = np.minimum(
        np.sum(cdf_rows < targets[:, None], axis=1), cdf_rows.shape[1] - 1
    )
    idx = np.maximum(idx, 1)
    c_lo = np.take_along_axis(cdf_rows, (idx - 1)[:, None], axis=1)[:, 0]
    c_hi = np.take_along_axis(cdf_rows, idx[:, None], axis=1)[:, 0]
    span = np.maximum(c_hi - c_lo, 1e-300)
    frac = np.clip((targets - c_lo) / span, 0.0, 1.0)
    h = nodes[1] - nodes[0]
    return nodes[idx - 1] + frac * h


def reference_sample_initial(rho_s: PhaseSpaceDensity, probe, n: int, seed: int):
    """The O(N*n_p) sampler: blend both bracketing row CDFs in full, then count.

    Oracle for ``heisenberg.sample_initial``, which must return the same four
    arrays bit for bit: both evaluate the same floating-point expressions.
    """
    from vnlab.heisenberg import TrajectoryEnsemble

    chunk = 8192
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

    row_cdf = np.concatenate(
        [np.zeros((rho_s.qgrid.n, 1)), np.cumsum(0.5 * (rho_s.values[:, 1:] + rho_s.values[:, :-1]) * h_p, axis=1)],
        axis=1,
    )
    pos = np.clip((q - qnodes[0]) / h_q, 0.0, rho_s.qgrid.n - 1 - 1e-12)
    left = pos.astype(int)
    w = pos - left
    p = np.empty(n)
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        blend = (1.0 - w[sl, None]) * row_cdf[left[sl]] + w[sl, None] * row_cdf[left[sl] + 1]
        p[sl] = _inverse_cdf_rows(blend, pnodes, u_p[sl])

    return TrajectoryEnsemble(q=q, p=p, Q=probe.sigma_Q * z_Q, P=probe.sigma_P * z_P)
