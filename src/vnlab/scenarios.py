"""Canned, parameterized demonstrations with self-reported checks.

Each scenario runs one worked configuration end to end and returns what a
command runner of ``cli`` returns, ``(checks, scalars, tables)``: its checks,
each carrying its tolerance and a provenance note ("analytic", "closed-form"
or "oracle"); its scalar outputs by name; and its CSV tables, each file name
mapped to its columns by header. Scenarios are pure functions of their
inputs, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cm import probe_marginal_Q, strong_coupling_limit_cm
from .errors import ConfigInvalid, InvariantViolation
from .grids import TWO_PI, Grid1D, PeriodicGrid, _Handover, grid2d_integrate
from .observables import (
    CouplingParams,
    ProbeSpec,
    SpectralObservable,
    position_observable,
    require_normal_square,
)
from .qm import lueders_nonselective, reduced_state_post
from .states import (
    AngleActionDensity,
    DensityOperator,
    build_gaussian_phase_density,
    delta_width,
    distribution_of_A,
    gaussian_wavepacket,
    phase_density_from_values,
    require_resolved,
    superposition_wavefunction,
    to_angle_action,
)

# Coupling strength of a scenario called without a coupling.
DEFAULT_EPSILON = 1.0


class Signed(float):
    """Annotates a real parameter of either sign, such as a position.

    The command line reads a parameter's admitted range from its annotation:
    ``float`` is positive, ``NonNegative`` may be zero, ``Signed`` may be
    negative, ``int`` is a size of at least 2.
    """


class NonNegative(float):
    """Annotates a real parameter that may be zero (a distance)."""


@dataclass(frozen=True)
class ScenarioCheck:
    description: str
    measured: float
    expected: float
    tolerance: float
    provenance: str

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.expected) <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "description": self.description,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "provenance": self.provenance,
            "passed": self.passed,
        }


def _count_peaks(values: np.ndarray) -> int:
    # Count each plateau once (an apex can fall between two equal samples)
    # and ignore roundoff ripples in the far tails.
    floor = 1e-12 * float(values.max())
    interior = values[1:-1]
    hits = (interior >= values[:-2]) & (interior > values[2:]) & (interior > floor)
    return int(np.sum(hits))


# ---------------------------------------------------------------------------
# Two-delta resolution demo
# ---------------------------------------------------------------------------

def scenario_two_delta(
    q0: Signed = 0.0,
    q1: Signed = 1.0,
    probe: ProbeSpec = ProbeSpec(sigma_Q=0.05, sigma_P=0.3),
    coupling: CouplingParams | None = None,
    n_q: int = 1024,
    n_Q: int = 2048,
):
    """Equal mixture of two sharp positions read through a finite-width probe.

    The deltas are represented as Gaussians two grid steps wide, so the probe
    marginal is a pair of Gaussians of variance sigma_Q^2 + (eps*w)^2. The
    bimodality verdict is compared against the resolution criterion
    sigma_Q/eps versus |q1 - q0|. Before the state is built, ConfigInvalid
    refuses an (eps*w)^2 past the floats, and, where the valley is checked, a
    Q grid with no node between the two peaks.
    """
    if coupling is None:
        coupling = CouplingParams.from_probe(DEFAULT_EPSILON, probe)
    eps = coupling.epsilon
    half = max(abs(q0), abs(q1)) + 4.0
    qgrid = Grid1D(-half, half, n_q)
    pgrid = Grid1D(-8.0, 8.0, 257)
    w = delta_width(qgrid)
    if not (eps * w) * (eps * w) < math.inf:
        raise ConfigInvalid(f"'q0', 'q1', 'n_q' and 'epsilon': the peaks' width epsilon * 2 h_q = "
                            f"{eps * w:.4g} overflows its square")
    span = max(abs(q0), abs(q1)) * eps + 8.0 * probe.sigma_Q + 8.0 * eps * w
    Qgrid = Grid1D(-span, span, n_Q)
    gap = abs(q1 - q0)
    resolution_ratio = probe.sigma_Q / eps / gap if gap > 0 else np.inf
    lo, hi = min(eps * q0, eps * q1), max(eps * q0, eps * q1)
    nodes_between = np.searchsorted(Qgrid.nodes, hi) - np.searchsorted(Qgrid.nodes, lo, "right")
    if resolution_ratio <= 0.2 and nodes_between < 1:
        raise ConfigInvalid(f"'q0', 'q1' and 'n_Q': no node of the Q grid (step {Qgrid.h:.4g}) "
                            f"lies between the peaks at {lo:.6g} and {hi:.6g}, where the valley "
                            "check reads its minimum")
    gq = np.exp(-0.5 * ((qgrid.nodes - q0) / w) ** 2) + np.exp(
        -0.5 * ((qgrid.nodes - q1) / w) ** 2
    )
    gp = np.exp(-0.5 * pgrid.nodes**2)
    rho_s = phase_density_from_values(qgrid, pgrid, np.outer(gq, gp))
    marg = probe_marginal_Q(rho_s, probe, position_observable(), coupling, Qgrid)

    sigma_eff = np.sqrt(probe.sigma_Q**2 + (eps * w) ** 2)
    reference = 0.5 * (
        np.exp(-0.5 * ((Qgrid.nodes - eps * q0) / sigma_eff) ** 2)
        + np.exp(-0.5 * ((Qgrid.nodes - eps * q1) / sigma_eff) ** 2)
    ) / np.sqrt(TWO_PI * sigma_eff**2)

    checks = [
        ScenarioCheck(
            "probe marginal mass", float(Qgrid.integrate(marg)), 1.0, 1e-6, "oracle"
        ),
        ScenarioCheck(
            "L1 distance to the two-Gaussian sum",
            float(Qgrid.integrate(np.abs(marg - reference))),
            0.0,
            1e-6,
            "analytic",
        ),
    ]
    n_peaks = _count_peaks(marg)
    if resolution_ratio <= 0.2:
        between = (Qgrid.nodes > lo) & (Qgrid.nodes < hi)
        valley_ratio = float(np.min(marg[between]) / np.max(marg))
        resolved = n_peaks == 2 and valley_ratio < 0.1
        checks.append(
            ScenarioCheck(
                "valley-to-peak ratio in the resolved regime",
                valley_ratio,
                0.0,
                0.1,
                "oracle",
            )
        )
    else:
        valley_ratio = np.nan
        resolved = n_peaks >= 2
        if resolution_ratio >= 1.0:
            checks.append(
                ScenarioCheck(
                    "peak count in the merged regime",
                    float(n_peaks),
                    1.0,
                    0.0,
                    "oracle",
                )
            )
    scalars = {"resolved": resolved, "n_peaks": n_peaks, "resolution_ratio": resolution_ratio,
               "valley_ratio": valley_ratio}
    tables = {"probe_marginal.csv": {"Q (probe position units)": Qgrid.nodes,
                                     "density (1/Q units)": marg}}
    return checks, scalars, tables


# ---------------------------------------------------------------------------
# Interference versus mixture
# ---------------------------------------------------------------------------

def scenario_interference(
    alpha: complex = 1.0 / np.sqrt(2.0),
    beta: complex = 1.0 / np.sqrt(2.0),
    separation: NonNegative = 2.0,
    probe: ProbeSpec = ProbeSpec(sigma_Q=0.1, sigma_P=0.3),
    coupling: CouplingParams | None = None,
    sigma_x: float = 1.0,
    n_x: int = 1024,
    n_Q: int = 1024,
):
    """Pointer record of a two-packet superposition against the matched mixture.

    The superposition position density carries a cross term; the classical
    mixture cannot. The interference residual is the L1 distance between the
    two pointer distributions.
    """
    if coupling is None:
        coupling = CouplingParams.from_probe(DEFAULT_EPSILON, probe)
    eps = coupling.epsilon
    require_normal_square("sigma_x", sigma_x)
    half = separation / 2.0 + 8.0 * sigma_x
    xgrid = Grid1D(-half, half, n_x)
    require_resolved("sigma_x", sigma_x, xgrid)
    psi1 = gaussian_wavepacket(xgrid, center=-separation / 2.0, sigma_x=sigma_x)
    psi2 = gaussian_wavepacket(xgrid, center=+separation / 2.0, sigma_x=sigma_x)
    try:
        psi = superposition_wavefunction(alpha, beta, psi1, psi2, xgrid)
    except InvariantViolation as exc:
        raise ConfigInvalid(f"'alpha' and 'beta' give no normalizable superposition: {exc}") from exc
    p_sup = np.abs(psi) ** 2

    # Nearly cancelling amplitudes keep the norm on the grid finite while
    # |alpha|^2 + |beta|^2 overflows: Python's ** raises, + returns inf.
    try:
        wsum = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        wsum = np.inf
    if not np.finfo(float).tiny <= wsum < np.inf:
        raise ConfigInvalid(f"'alpha' and 'beta' give |alpha|^2 + |beta|^2 = {wsum:.3e}, not a normal float")
    w1, w2 = abs(alpha) ** 2 / wsum, abs(beta) ** 2 / wsum
    p_mix = w1 * np.abs(psi1) ** 2 + w2 * np.abs(psi2) ** 2

    # Classical branch: a phase-space mixture whose q-marginal is p_mix. Its
    # distribution of A = q is over the same nodes, so the three records share
    # one stacked kernel, each row with its own bits.
    pgrid = Grid1D(-8.0, 8.0, 257)
    rho_cm = phase_density_from_values(
        xgrid, pgrid, np.outer(p_mix, np.exp(-0.5 * pgrid.nodes**2))
    )
    w_cm = distribution_of_A(rho_cm, position_observable())[1]
    Qgrid = probe.pointer_grid(xgrid.nodes, eps, n_Q, 8.0)
    pointer_sup, pointer_mix, pointer_cm = probe.pointer_density(
        Qgrid.nodes, xgrid.nodes, [xgrid.weights * p_sup, xgrid.weights * p_mix, w_cm], eps
    )

    residual_sup = float(Qgrid.integrate(np.abs(pointer_sup - pointer_mix)))
    residual_mix = float(Qgrid.integrate(np.abs(pointer_cm - pointer_mix)))

    checks = [
        ScenarioCheck(
            "pointer distributions normalized (superposition)",
            float(Qgrid.integrate(pointer_sup)),
            1.0,
            1e-8,
            "oracle",
        ),
        ScenarioCheck(
            "mixture pointer residual (classical branch)",
            residual_mix,
            0.0,
            1e-12,
            "analytic",
        ),
    ]
    if beta == 0 or alpha == 0:
        checks.append(
            ScenarioCheck(
                "single-component superposition has no cross term",
                residual_sup,
                0.0,
                1e-12,
                "analytic",
            )
        )
    else:
        # Clamped one-sided check: passes exactly when the residual >= 0.05.
        checks.append(
            ScenarioCheck(
                "interference residual at least 0.05 for overlapping packets",
                min(residual_sup, 0.05),
                0.05,
                0.0,
                "oracle",
            )
        )
    scalars = {"interference_residual": residual_sup, "mixture_residual": residual_mix}
    tables = {
        "position_density.csv": {"x (position units)": xgrid.nodes,
                                 "superposition (1/x units)": p_sup,
                                 "mixture (1/x units)": p_mix},
        "pointer.csv": {"Q (probe position units)": Qgrid.nodes,
                        "superposition (1/Q units)": pointer_sup,
                        "mixture (1/Q units)": pointer_mix},
    }
    return checks, scalars, tables


# ---------------------------------------------------------------------------
# Number-basis strong-coupling example
# ---------------------------------------------------------------------------

def _ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), k=1)


def number_basis_initial_state(
    fields: str, sigma_qbar: float, sigma_pbar: float, dim: int, hbar: float = 1.0
) -> DensityOperator:
    """exp of the quadratic form -(pbar^2/sigma_p^2 + qbar^2/sigma_q^2)/2, truncated.

    Ladder operators are built at dim+2 and the squared quadratures cut back
    to dim, so every retained matrix element is exact. The state is
    renormalized after truncation. Every refusal is a ConfigInvalid naming
    ``fields``, the caller's names for what set these arguments.

    Widths that cannot work are refused first, in logarithms so that nothing
    overflows. The state is a squeezed thermal state with mean occupation
    <n> = (coth(x) cosh(l) - 1) / 2, x = hbar / (2 sigma_pbar sigma_qbar) and
    l = log(sigma_qbar / sigma_pbar). A lower bound on <n> above dim is
    refused, then an x whose sinh overflows, and last more than 1e-10 of
    missing trace, or a trace that is not a number.
    """
    log_x = math.log(hbar / 2.0) - math.log(sigma_pbar) - math.log(sigma_qbar)
    squeeze = abs(math.log(sigma_qbar) - math.log(sigma_pbar))
    # log(cosh(l)) without overflow, plus log(coth(x)) >= log(max(1, 1/x)).
    log_occupation = (max(0.0, -log_x) + squeeze - math.log(2.0)
                      + math.log1p(math.exp(-2.0 * squeeze)))
    if log_occupation > math.log(2 * dim + 1):
        raise ConfigInvalid(f"{fields}: the mean occupation exceeds dim={dim}: "
                            f"log(2<n> + 1) >= {log_occupation:.4g}")
    if log_x > math.log(math.log(np.finfo(float).max)):
        raise ConfigInvalid(f"{fields}: hbar over twice the product of the widths, "
                            f"exp({log_x:.4g}), overflows its sinh in the normalization")
    a = _ladder(dim + 2)
    ad = a.T.conj()
    qbar = np.sqrt(hbar / 2.0) * (a + ad)
    pbar = 1j * np.sqrt(hbar / 2.0) * (ad - a)
    quad = 0.5 * (pbar @ pbar / sigma_pbar**2 + qbar @ qbar / sigma_qbar**2)
    quad = quad[:dim, :dim]
    vals, vecs = np.linalg.eigh(quad)
    prefactor = 2.0 * np.sinh(hbar / (2.0 * sigma_pbar * sigma_qbar))
    rho = prefactor * (vecs * np.exp(-vals)) @ vecs.conj().T
    trace = float(np.real(np.trace(rho)))
    if not abs(trace - 1.0) <= 1e-10:
        raise ConfigInvalid(f"{fields}: dim={dim} leaves |trace-1| = {abs(trace - 1.0):.3e} "
                            "before renormalization")
    return DensityOperator(_Handover(rho / trace))


def scenario_number_basis(
    sigma_qbar: float = 1.0,
    sigma_pbar: float = 1.0,
    dim: int = 64,
    coupling: CouplingParams = CouplingParams.from_sigma_P(DEFAULT_EPSILON, 3.0),
    hbar: float = 1.0,
):
    """Occupation statistics and the pinched strong-coupling state.

    The measured observable is (n + 1/2)*hbar with the number-basis spectral
    resolution. The pinched (infinite-coupling) state must be diagonal, i.e. a
    function of the measured observable alone, regardless of the initial
    anisotropy.
    """
    rho = number_basis_initial_state("'hbar', 'sigma_qbar', 'sigma_pbar' and 'dim'",
                                     sigma_qbar, sigma_pbar, dim, hbar=hbar)
    levels = hbar * (np.arange(dim) + 0.5)
    obs = SpectralObservable.from_diagonal(levels)
    p_n = np.real(np.diag(rho.matrix))

    pinched = lueders_nonselective(rho, obs)
    reduced = reduced_state_post(rho, obs, coupling.tau, hbar=hbar)

    off = rho.matrix - np.diag(np.diag(rho.matrix))
    initial_offdiag = float(np.max(np.abs(off)))
    pinched_offdiag = float(
        np.max(np.abs(pinched.matrix - np.diag(np.diag(pinched.matrix))))
    )
    checks = [
        ScenarioCheck(
            "occupation probabilities sum to one", float(p_n.sum()), 1.0, 1e-8, "analytic"
        ),
        ScenarioCheck(
            "pinched state is diagonal (max off-diagonal)",
            pinched_offdiag,
            0.0,
            1e-12,
            "analytic",
        ),
        ScenarioCheck(
            "pinched diagonal equals the occupation distribution",
            float(np.max(np.abs(np.real(np.diag(pinched.matrix)) - p_n))),
            0.0,
            1e-14,
            "analytic",
        ),
        ScenarioCheck(
            "occupation distribution untouched by the finite channel",
            float(np.max(np.abs(np.real(np.diag(reduced.matrix)) - p_n))),
            0.0,
            1e-12,
            "analytic",
        ),
    ]
    if sigma_qbar == sigma_pbar:
        scale = hbar / sigma_qbar**2
        geometric = 2.0 * np.sinh(scale / 2.0) * np.exp(-(np.arange(dim) + 0.5) * scale)
        checks.append(
            ScenarioCheck(
                "isotropic widths give geometric occupation weights",
                float(np.max(np.abs(p_n - geometric))),
                0.0,
                1e-10,
                "closed-form",
            )
        )
    else:
        checks.append(
            ScenarioCheck(
                "anisotropic widths give off-diagonal structure",
                min(initial_offdiag, 1e-6),
                1e-6,
                0.0,
                "oracle",
            )
        )
    tables = {"occupation.csv": {"level (action units)": levels, "probability": p_n}}
    return checks, {"initial_max_offdiagonal": initial_offdiag}, tables


# ---------------------------------------------------------------------------
# Gaussian-to-Bessel angle average
# ---------------------------------------------------------------------------

def transformed_gaussian_angle_values(
    sigma_qbar: float, sigma_pbar: float, xigrid: Grid1D, thetagrid: PeriodicGrid
) -> np.ndarray:
    """The anisotropic Gaussian written in (xi, theta): exact substitution."""
    ratio = (sigma_pbar / sigma_qbar) ** 2
    xx, tt = np.meshgrid(xigrid.nodes, thetagrid.nodes, indexing="ij")
    expo = -xx / sigma_pbar**2 * (1.0 + (ratio - 1.0) * np.cos(tt) ** 2)
    return np.exp(expo) / (TWO_PI * sigma_pbar * sigma_qbar)


def bessel_angle_average(
    sigma_qbar: float, sigma_pbar: float, xi: np.ndarray
) -> np.ndarray:
    """Closed form of the angle-averaged Gaussian: exponential times I0.

    exp(-b (r + 1)) I0(b (r - 1)) / (2 pi sigma_pbar sigma_qbar), b = xi / (2 sigma_pbar^2),
    r = (sigma_pbar / sigma_qbar)^2. With i0e(x) = exp(-|x|) I0(x) the exponentials
    combine into exp(-xi / max(sigma_qbar, sigma_pbar)^2) <= 1, so nothing overflows.
    """
    from scipy.special import i0e  # imported on use, as in ``states._sample``

    arg = xi / (2.0 * sigma_pbar**2) * ((sigma_pbar / sigma_qbar) ** 2 - 1.0)
    return (
        np.exp(-xi / max(sigma_qbar, sigma_pbar) ** 2)
        / (TWO_PI * sigma_pbar * sigma_qbar)
        * i0e(arg)
    )


def _i0e_quadrature(x) -> np.ndarray:
    """i0e(x) = exp(-x) I0(x), x >= 0, from I0(x) = mean of exp(x cos t) over the circle.

    The mean of exp(x (cos t - 1)) <= 1, by the spectrally accurate periodic
    trapezoid rule on 4096 nodes.
    """
    t = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    return np.exp(np.multiply.outer(np.asarray(x, dtype=float), np.cos(t) - 1.0)).mean(axis=-1)


def scenario_gaussian_bessel(
    sigma_qbar: float = 1.0,
    sigma_pbar: float = 2.0,
    xi_compare_max: float = 10.0,
    n_xi: int = 481,
    n_theta: int = 512,
):
    """Angle average of an anisotropic Gaussian against its Bessel closed form.

    The comparison density is the exact substitution of the Gaussian into
    (xi, theta), deliberately unnormalized so the check is pure angular
    quadrature against the closed form; a resampled route through the
    canonical transform is cross-checked at grid-scale accuracy.
    """
    # The resampling route's L1 depends on the width ratio alone and crosses its
    # budget 1e-3 at 20.07; within it, both widths also exceed its grid's step.
    if max(sigma_qbar, sigma_pbar) > 20.0 * min(sigma_qbar, sigma_pbar):
        raise ConfigInvalid(f"'sigma_qbar' and 'sigma_pbar' = {sigma_qbar!r}, {sigma_pbar!r}: "
                            "the width ratio exceeds 20, past which the canonical-transform "
                            "resampling misses its L1 budget")
    # In logarithms, before any width is squared: the resampling grid's squared
    # reach 64 max(sigma)^2 and the peak density 1/(2 pi sigma_qbar sigma_pbar)
    # must be normal floats, whose logarithms lie in (-708.4, 709.8).
    log_reach2 = math.log(64.0) + 2.0 * math.log(max(sigma_qbar, sigma_pbar))
    log_peak = -math.log(TWO_PI) - math.log(sigma_qbar) - math.log(sigma_pbar)
    if not (-708.0 < log_peak < 709.0 and log_reach2 < 709.0):
        raise ConfigInvalid(f"'sigma_qbar' and 'sigma_pbar' = {sigma_qbar!r}, {sigma_pbar!r}: the "
                            f"squared grid reach exp({log_reach2:.4g}) or the peak density "
                            f"exp({log_peak:.4g}) leaves the normal float range")
    # The resampling route samples both widths on one Cartesian grid.
    half = 8.0 * max(sigma_qbar, sigma_pbar)
    grid = Grid1D(-half, half, 512)
    # The closed form decreases in xi, so the window's edge holds its smallest
    # value; the relative error divides by it.
    edge = float(bessel_angle_average(sigma_qbar, sigma_pbar, xi_compare_max))
    if not edge >= np.finfo(float).tiny:
        raise ConfigInvalid(
            f"parameter 'xi_compare_max' = {xi_compare_max!r}: the Bessel closed form there "
            f"is {edge:.3e}, not a positive normal float"
        )
    xigrid = Grid1D(0.0, 1.2 * xi_compare_max, n_xi)
    thetagrid = PeriodicGrid(n_theta)
    exact = AngleActionDensity(xigrid, thetagrid, _Handover(
        transformed_gaussian_angle_values(sigma_qbar, sigma_pbar, xigrid, thetagrid)))
    averaged = strong_coupling_limit_cm(exact)
    numeric = averaged.values[:, 0]
    closed = bessel_angle_average(sigma_qbar, sigma_pbar, xigrid.nodes)
    window = xigrid.nodes <= xi_compare_max
    rel_err = float(np.max(np.abs(numeric[window] - closed[window]) / closed[window]))

    # i0e itself against its quadrature definition over the arguments in play.
    from scipy.special import i0e

    args = np.linspace(0.0, np.max(np.abs(xigrid.nodes / (2 * sigma_pbar**2) * ((sigma_pbar / sigma_qbar) ** 2 - 1))), 41)
    reference = _i0e_quadrature(args)
    i0_err = float(np.max(np.abs(i0e(args) - reference) / reference))

    # xi-marginal of the averaged state equals the input's.
    marg_drift = float(
        np.max(np.abs(averaged.xi_marginal() - exact.xi_marginal()))
    )

    # Resampling route: Cartesian Gaussian -> canonical transform -> compare.
    cart = build_gaussian_phase_density(grid, grid, sigma_qbar, sigma_pbar)
    resampled = to_angle_action(cart, n_xi=256, n_theta=256)
    analytic = transformed_gaussian_angle_values(
        sigma_qbar, sigma_pbar, resampled.xigrid, resampled.thetagrid
    )
    analytic /= grid2d_integrate(resampled.xigrid, resampled.thetagrid, analytic)
    resample_l1 = float(
        grid2d_integrate(
            resampled.xigrid, resampled.thetagrid, np.abs(resampled.values - analytic)
        )
    )

    checks = [
        ScenarioCheck(
            "angle average matches the Bessel closed form (max relative error)",
            rel_err,
            0.0,
            1e-6,
            "closed-form",
        ),
        ScenarioCheck(
            "I0 implementation against its quadrature definition",
            i0_err,
            0.0,
            1e-10,
            "oracle",
        ),
        ScenarioCheck(
            "xi-marginal preserved by the angle average",
            marg_drift,
            0.0,
            1e-8,
            "analytic",
        ),
        ScenarioCheck(
            "canonical-transform resampling consistency (L1)",
            resample_l1,
            0.0,
            1e-3,
            "oracle",
        ),
    ]
    tables = {"angle_average.csv": {"xi (action units)": xigrid.nodes,
                                    "numeric (1/xi units)": numeric,
                                    "closed_form (1/xi units)": closed}}
    return checks, {}, tables


SCENARIOS = {
    "two_delta": scenario_two_delta,
    "interference": scenario_interference,
    "number_basis": scenario_number_basis,
    "gaussian_bessel": scenario_gaussian_bessel,
}
