"""Classical measurement channel: Liouville flow, diffusion, conditioning.

The impulsive coupling shifts the probe position by epsilon*A(q, p) and kicks
the system along the generator A_op = (dA/dq) d/dp - (dA/dp) d/dq. Averaging
over the Gaussian probe momentum turns the kick into the channel
exp(tau * A_op^2): momentum diffusion for A = q, angle diffusion for A(xi),
and a degenerate diffusion transverse to A's level sets in general. The first
two have an exact flow and damp Fourier mode k of the coordinate it moves by
exp(-tau c^2 k^2): c = 1 along p, c = dA/dxi along theta. The general kind
falls back to explicit stepping of the double-bracket PDE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, InvariantViolation, NegligibleProbability, UnsupportedObservable
from .grids import TWO_PI, Grid1D, _Handover, grid2d_integrate
from .observables import (
    KIND_ACTION,
    KIND_GENERAL,
    KIND_POSITION,
    ClassicalObservable,
    CouplingParams,
    ProbeSpec,
)
from .states import (
    AngleActionDensity,
    PhaseSpaceDensity,
    distribution_of_A,
    from_angle_action,
    sample_phase_density,
    to_angle_action,
)

# The most negative value a channel's output may reach before it is clipped, in
# units of its peak where the peak exceeds 1: FFT roundoff scales with the peak.
NEGATIVITY_MONITOR = -1e-10

# The position-kind damping of a sampled p Gaussian rings below NEGATIVITY_MONITOR
# when its diffused width sqrt(sigma_p^2 + 2 tau) spans fewer p steps than this
# (the sweep in CHANGES.md: failures up to 2.25 steps, at 2.5 a worst of -3e-13).
DIFFUSED_WIDTH_STEPS = 2.5


# ---------------------------------------------------------------------------
# The Liouville generator
# ---------------------------------------------------------------------------

def _liouville_operator(qgrid: Grid1D, pgrid: Grid1D, obs: ClassicalObservable):
    """A_op on one grid, as a function ``apply(values)``.

    The coefficient fields are built once, with the 1/(2h) of the centered
    difference folded in, and two difference buffers are reused by every
    call, so a call costs two in-place stencils and one output array. The
    stencil is that of ``np.gradient(edge_order=2)``: f[i+1] - f[i-1] inside,
    -3f0 + 4f1 - f2 and 3f[-1] - 4f[-2] + f[-3] at the ends, which need at
    least 3 nodes per axis.
    """
    for axis, grid in (("q", qgrid), ("p", pgrid)):
        if grid.n < 3:
            raise InvariantViolation(
                f"the Liouville generator needs >= 3 nodes per axis; the {axis} grid has {grid.n}"
            )
    qq, pp = np.meshgrid(qgrid.nodes, pgrid.nodes, indexing="ij")
    c_p = obs.dA_dq(qq, pp) / (2.0 * pgrid.h)
    c_q = obs.dA_dp(qq, pp) / (2.0 * qgrid.h)
    d_q = np.empty(qq.shape)
    d_p = np.empty(qq.shape)

    def apply(f: np.ndarray) -> np.ndarray:
        np.subtract(f[2:], f[:-2], out=d_q[1:-1])
        d_q[0] = 4.0 * f[1] - 3.0 * f[0] - f[2]
        d_q[-1] = 3.0 * f[-1] - 4.0 * f[-2] + f[-3]
        np.subtract(f[:, 2:], f[:, :-2], out=d_p[:, 1:-1])
        d_p[:, 0] = 4.0 * f[:, 1] - 3.0 * f[:, 0] - f[:, 2]
        d_p[:, -1] = 3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]
        np.multiply(c_p, d_p, out=d_p)
        np.multiply(c_q, d_q, out=d_q)
        return np.subtract(d_p, d_q)

    return apply


def apply_liouville_generator(
    values: np.ndarray, qgrid: Grid1D, pgrid: Grid1D, obs: ClassicalObservable
) -> np.ndarray:
    """A_op f = (dA/dq) df/dp - (dA/dp) df/dq on the grid.

    Coefficients come from the observable's supplied derivative maps; the
    operand derivatives are second-order centered differences, one-sided at
    the ends, so each axis needs at least 3 nodes (InvariantViolation
    otherwise). Builds the coefficient fields on every call: a solver that
    applies A_op repeatedly builds them once with ``_liouville_operator``.
    """
    return _liouville_operator(qgrid, pgrid, obs)(values)


def flow_map(obs: ClassicalObservable, q, p, s):
    """The map m_s with exp(s A_op) f = f o m_s.

    Characteristics: dq/ds = -dA/dp, dp/ds = +dA/dq. For A = q this is
    (q, p) -> (q, p + s); for A(xi) it advances the angle by s * dA/dxi at
    fixed xi. Signs are pinned by the A = q anchor.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if obs.kind == KIND_POSITION:
        return q + 0.0 * s, p + s
    if obs.kind == KIND_ACTION:
        xi = 0.5 * (q * q + p * p)
        theta = np.arctan2(p, q) + s * obs.dA_dxi(xi)
        r = np.sqrt(2.0 * xi)
        return r * np.cos(theta), r * np.sin(theta)
    raise UnsupportedObservable("no exact flow map for general observables")


# ---------------------------------------------------------------------------
# Joint system-probe state after the interaction
# ---------------------------------------------------------------------------

ORDER_FLOW_SYSTEM = "flow-system"     # flow applied to the system factor only
ORDER_FLOW_PRODUCT = "flow-product"   # flow applied to the full product


@dataclass(frozen=True)
class JointEvolvedState:
    """rho'(q, p, Q, P) as a materialized 4-axis array."""

    qgrid: Grid1D
    pgrid: Grid1D
    Qgrid: Grid1D
    Pgrid: Grid1D
    density: np.ndarray

    def values(self) -> np.ndarray:
        return self.density

    def mass(self) -> float:
        v = self.values()
        for g in (self.Pgrid, self.Qgrid, self.pgrid, self.qgrid):
            v = v @ g.weights if v.ndim == 1 else np.tensordot(v, g.weights, axes=([-1], [0]))
        return float(v)

    def probe_position_marginal(self) -> np.ndarray:
        v = np.tensordot(self.values(), self.Pgrid.weights, axes=([3], [0]))
        v = np.tensordot(self.qgrid.weights, v, axes=([0], [0]))
        return self.pgrid.weights @ v


def joint_state_post(
    rho_s: PhaseSpaceDensity,
    probe: ProbeSpec,
    obs: ClassicalObservable,
    coupling: CouplingParams,
    Qgrid: Grid1D,
    Pgrid: Grid1D,
    ordering: str = ORDER_FLOW_SYSTEM,
) -> JointEvolvedState:
    """Joint state after the kick, in either of the two commuting factorizations.

    ``flow-system`` evaluates [exp(eps*A_op*P) rho_s](q,p) * rho_pi(Q - eps*A(q,p), P);
    ``flow-product`` applies the flow to the whole bracketed product, i.e. the
    probe shift uses A evaluated at the flowed phase-space point. The two
    factors commute, so both orderings agree.

    Requires sigma_P > 0 (the P axis carries a density) and an observable kind
    with an exact flow map. The result is the only 4-axis allocation: the
    system-times-momentum weight and the probe shift are 3-axis, and the
    4-axis array is filled one q-slice at a time.
    """
    if obs.kind == KIND_GENERAL:
        raise UnsupportedObservable("joint evolution needs a position or action observable")
    if ordering not in (ORDER_FLOW_SYSTEM, ORDER_FLOW_PRODUCT):
        raise InvariantViolation(f"unknown ordering {ordering!r}")
    eps = coupling.epsilon
    qn, pn, Qn, Pn = rho_s.qgrid.nodes, rho_s.pgrid.nodes, Qgrid.nodes, Pgrid.nodes
    qq, pp, PP = np.meshgrid(qn, pn, Pn, indexing="ij")
    fq, fp = flow_map(obs, qq, pp, eps * PP)
    weight = sample_phase_density(rho_s, fq, fp) * probe.momentum_density(Pn)  # (nq, np, nP)
    if ordering == ORDER_FLOW_PRODUCT:
        shift = eps * obs.eval(fq, fp)[:, :, None, :]                          # (nq, np, 1, nP)
    else:
        shift = eps * obs.eval(*np.meshgrid(qn, pn, indexing="ij"))[:, :, None, None]
    dens = np.empty((qn.size, pn.size, Qn.size, Pn.size))
    for i in range(qn.size):
        dens[i] = probe.position_density(Qn[None, :, None] - shift[i]) * weight[i][:, None, :]
    return JointEvolvedState(rho_s.qgrid, rho_s.pgrid, Qgrid, Pgrid, density=dens)


# ---------------------------------------------------------------------------
# Probe marginals
# ---------------------------------------------------------------------------

def auto_probe_grid(
    rho_s,
    obs: ClassicalObservable,
    probe: ProbeSpec,
    coupling: CouplingParams,
    n: int = 1024,
    pad_sigmas: float = 8.0,
) -> Grid1D:
    """Q grid covering epsilon*A over the state's support, with Gaussian margins."""
    return probe.pointer_grid(distribution_of_A(rho_s, obs)[0], coupling.epsilon, n, pad_sigmas)


def probe_marginal_Q(
    rho_s,
    probe: ProbeSpec,
    obs: ClassicalObservable,
    coupling: CouplingParams,
    Qgrid: Grid1D,
) -> np.ndarray:
    """rho'_pi(Q) = int rho_s * rho_pi(Q - eps*A) over the system state.

    The distribution of A over the state (``states.distribution_of_A``, a
    1-D one for A = q and for A(xi) on an angle-action state), smeared by
    ``ProbeSpec.pointer_density`` as on the quantum side.
    """
    a, w = distribution_of_A(rho_s, obs)
    return probe.pointer_density(Qgrid.nodes, a, w, coupling.epsilon)


# ---------------------------------------------------------------------------
# Reduced system state: the exp(tau * A_op^2) channel
# ---------------------------------------------------------------------------

def _monitored_clip(values: np.ndarray, where: str) -> np.ndarray:
    low = float(values.min(initial=0.0))
    if low < NEGATIVITY_MONITOR * max(1.0, float(values.max(initial=0.0))):
        raise InvariantViolation(f"{where}: negative excursion {low:.3e} beyond monitor")
    return np.clip(values, 0.0, None)


def diffused_width(sigma_p: float, tau: float) -> float:
    """sqrt(sigma_p^2 + 2 tau): the momentum width of a Gaussian after the position-kind channel."""
    return float(np.hypot(sigma_p, np.sqrt(2.0 * tau)))


def require_diffusion_resolved(fields: str, sigma_p: float, tau: float, pgrid: Grid1D) -> None:
    """Refuse (ConfigInvalid, naming ``fields``) a p Gaussian of width sigma_p that the
    position-kind channel diffuses to fewer than DIFFUSED_WIDTH_STEPS steps of ``pgrid``."""
    width = diffused_width(sigma_p, tau)
    if width < DIFFUSED_WIDTH_STEPS * pgrid.h:
        raise ConfigInvalid(f"{fields}: the diffused momentum width sqrt(sigma_p^2 + 2 tau) = "
                            f"{width:.4g} spans {width / pgrid.h:.4g} p steps, fewer than "
                            f"{DIFFUSED_WIDTH_STEPS:g}, where the channel's damping rings negative")


def kernel_pad(tau: float, pgrid: Grid1D) -> int:
    """Nodes by which the position-kind channel zero-pads p: its kernel's reach of 7
    widths sqrt(2 tau), rounded up; InvariantViolation past the grid's n nodes."""
    sigma = np.sqrt(2.0 * tau)
    pad = int(np.ceil(7.0 * sigma / pgrid.h))
    if pad > pgrid.n:
        raise InvariantViolation(f"position-kind channel: 7 kernel widths sqrt(2*tau) = {sigma:.4g} "
                                 f"reach {pad} p steps, past the {pgrid.n} nodes of the p grid's "
                                 f"span {pgrid.hi - pgrid.lo:.4g}")
    return pad


def _damp_fourier_modes(values: np.ndarray, h: float, rate, tau: float, pad: int = 0):
    """Damp Fourier mode k of every row (node spacing h) by exp(-tau * rate * k^2).

    ``rate`` is c^2, one number or one per row. Rows are periodic, or with
    ``pad`` > 0 zero-padded by that many nodes, so that spill up to the pad
    does not wrap round; it is dropped with the pad.
    """
    n = values.shape[1]
    k = TWO_PI * np.fft.rfftfreq(n + pad, d=h)
    spectrum = np.fft.rfft(values, n=n + pad, axis=1)
    spectrum *= np.exp(-tau * np.multiply.outer(rate, k * k))
    return np.fft.irfft(spectrum, n=n + pad, axis=1)[:, :n]


def cm_diffusion_rhs(rho: PhaseSpaceDensity, obs: ClassicalObservable) -> np.ndarray:
    """[A, [A, rho]]_PB by nested centered differences; d^2/dp^2 for A = q."""
    a_op = _liouville_operator(rho.qgrid, rho.pgrid, obs)
    return a_op(a_op(rho.values))


def pde_stability_bound(
    qgrid: Grid1D, pgrid: Grid1D, obs: ClassicalObservable
) -> float:
    qq, pp = np.meshgrid(qgrid.nodes, pgrid.nodes, indexing="ij")
    aq2 = float(np.max(obs.dA_dq(qq, pp) ** 2))
    ap2 = float(np.max(obs.dA_dp(qq, pp) ** 2))
    rate = aq2 / pgrid.h**2 + ap2 / qgrid.h**2
    if rate == 0.0:
        return np.inf
    return 0.25 / rate


def _pde_evolve(rho: PhaseSpaceDensity, obs: ClassicalObservable, tau: float) -> PhaseSpaceDensity:
    """Explicit Euler on d rho/d tau = A_op^2 rho, at the stability bound.

    A_op's coefficient fields are built once per solve; each step then costs
    two generator applications (four in-place stencils) and four arrays the
    size of the grid. Both axes need at least 3 nodes.
    """
    step = min(pde_stability_bound(rho.qgrid, rho.pgrid, obs), tau)
    n_steps = int(np.ceil(tau / step))
    step = tau / n_steps
    a_op = _liouville_operator(rho.qgrid, rho.pgrid, obs)
    values = rho.values
    for _ in range(n_steps):
        values = values + step * a_op(a_op(values))
    return PhaseSpaceDensity(rho.qgrid, rho.pgrid, _Handover(values))


def reduced_state_post_cm(rho_s, obs: ClassicalObservable, tau: float):
    """Reduced system state exp(tau * A_op^2) rho_s.

    Dispatch by observable kind. A = q and A(xi) get one Fourier-mode damping:
    along p (a Gaussian of variance 2*tau, rows zero-padded by its 7-width
    reach, ``kernel_pad``, so mass leaving the p grid is lost; a reach beyond
    the grid raises InvariantViolation), or along theta (on an angle-action
    state, otherwise through the canonical transform and back). Anything else
    is explicit PDE stepping at the stability bound.
    """
    if tau < 0:
        raise InvariantViolation("tau must be >= 0")
    if tau == 0.0:
        return rho_s
    if isinstance(rho_s, AngleActionDensity):
        if obs.kind != KIND_ACTION:
            raise UnsupportedObservable("angle-action states pair with action observables")
        return angle_spectral_solve(rho_s, obs, tau)
    if obs.kind == KIND_POSITION:
        pad = kernel_pad(tau, rho_s.pgrid)
        values = _damp_fourier_modes(rho_s.values, rho_s.pgrid.h, 1.0, tau, pad)
        values = _monitored_clip(values, "position-kind channel")
        return PhaseSpaceDensity(rho_s.qgrid, rho_s.pgrid, _Handover(values))
    if obs.kind == KIND_ACTION:
        aa = to_angle_action(rho_s)
        solved = angle_spectral_solve(aa, obs, tau)
        return from_angle_action(solved, rho_s.qgrid, rho_s.pgrid)
    return _pde_evolve(rho_s, obs, tau)


# ---------------------------------------------------------------------------
# Angle diffusion: Fourier solver and the strong-coupling limit
# ---------------------------------------------------------------------------

def angle_spectral_solve(
    rho: AngleActionDensity, obs: ClassicalObservable, tau: float
) -> AngleActionDensity:
    """Damp angle mode m by exp(-m^2 (dA/dxi)^2 tau) at each xi.

    Every mode the theta grid represents is kept, so nothing is truncated.
    Mode 0 is untouched, so the xi-marginal is preserved exactly.
    """
    if obs.dA_dxi is None:
        raise UnsupportedObservable("angle solver needs dA/dxi")
    rate = obs.dA_dxi(rho.xigrid.nodes) ** 2
    values = _damp_fourier_modes(rho.values, rho.thetagrid.h, rate, tau)
    values = _monitored_clip(values, "angle spectral solver")
    return AngleActionDensity(rho.xigrid, rho.thetagrid, _Handover(values))


def strong_coupling_limit_cm(rho: AngleActionDensity) -> AngleActionDensity:
    """theta-average at each xi: the infinite-coupling (mode-0) limit."""
    avg = rho.values.mean(axis=1)
    values = np.repeat(avg[:, None], rho.thetagrid.n, axis=1)
    return AngleActionDensity(rho.xigrid, rho.thetagrid, _Handover(values))


# ---------------------------------------------------------------------------
# Selective (conditioned) classical measurement
# ---------------------------------------------------------------------------

def conditional_state_cm(
    rho_s: PhaseSpaceDensity,
    probe: ProbeSpec,
    obs: ClassicalObservable,
    coupling: CouplingParams,
    Q: float,
) -> PhaseSpaceDensity:
    """State conditioned on reading probe position Q, for A = q.

    Numerator: the tau-diffused density times rho_pi(Q - eps*q) row by row;
    denominator: int rho_s(q') rho_pi(Q - eps*q') dq'. With a narrow probe and
    Q = eps*q0 the q-marginal concentrates at q0 while the momentum profile is
    the diffused conditional at q0.
    """
    if obs.kind != KIND_POSITION:
        raise UnsupportedObservable("classical conditioning is implemented for A = q")
    eps = coupling.epsilon
    weight_q = probe.position_density(Q - eps * rho_s.qgrid.nodes)
    denom = float(rho_s.qgrid.weights @ (rho_s.q_marginal() * weight_q))
    if denom < 1e-12:
        raise NegligibleProbability(f"probe value Q={Q} has density {denom:.3e}")
    diffused = reduced_state_post_cm(rho_s, obs, coupling.tau)
    values = diffused.values * weight_q[:, None]
    norm = grid2d_integrate(rho_s.qgrid, rho_s.pgrid, values)
    return PhaseSpaceDensity(rho_s.qgrid, rho_s.pgrid, _Handover(values / norm))
