"""Quantum channel: pointer statistics, kernel, conditioning, Lindblad checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlab import (
    CouplingParams,
    DensityOperator,
    DimensionMismatch,
    Grid1D,
    NegligibleProbability,
    ProbeSpec,
    SpectralObservable,
    trace_with,
)
from vnlab.qm import (
    born_weights,
    conditional_state,
    decoherence_kernel,
    lindblad_evolve,
    lindblad_rhs,
    lueders_nonselective,
    pointer_distribution,
    position_disturbance_scale,
    reduced_state_post,
)
from vnlab.scenarios import number_basis_initial_state

from helpers import (
    density_from_wavefunction,
    from_hermitian,
    observable_matrix,
    pointer_mean,
    position_density,
    projectors,
    random_density_matrix,
    random_spectral_observable,
    trace_distance,
    validate_density_operator,
)
from oracles import decoherence_kernel_quadrature

TWO_LEVEL = SpectralObservable.from_diagonal(np.array([0.0, 1.0]))


def equal_superposition() -> DensityOperator:
    return DensityOperator(np.full((2, 2), 0.5, dtype=complex))


class TestPointerDistribution:
    def test_eigenstate_gives_single_shifted_gaussian(self):
        obs = SpectralObservable.from_diagonal(np.array([-1.0, 2.0]))
        rho = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
        probe = ProbeSpec(sigma_Q=0.1, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        grid = probe.pointer_grid(obs.eigenvalues, coupling.epsilon, 4001, 8.0)
        dist = pointer_distribution(rho, obs, probe, coupling, grid)
        expected = probe.position_density(grid.nodes - 2.0)
        assert np.max(np.abs(dist - expected)) < 1e-12
        assert grid.nodes[np.argmax(dist)] == pytest.approx(2.0, abs=grid.h)

    def test_two_level_peaks_resolved_for_narrow_probe(self):
        probe = ProbeSpec(sigma_Q=0.05, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        grid = probe.pointer_grid(TWO_LEVEL.eigenvalues, coupling.epsilon, 4001, 8.0)
        dist = pointer_distribution(equal_superposition(), TWO_LEVEL, probe, coupling, grid)
        between = (grid.nodes > 0.1) & (grid.nodes < 0.9)
        assert np.min(dist[between]) / np.max(dist) < 0.1
        assert abs(grid.integrate(dist) - 1.0) < 1e-8

    def test_wide_probe_merges_peaks(self):
        probe = ProbeSpec(sigma_Q=2.0, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        grid = probe.pointer_grid(TWO_LEVEL.eigenvalues, coupling.epsilon, 4001, 8.0)
        dist = pointer_distribution(equal_superposition(), TWO_LEVEL, probe, coupling, grid)
        oracle = 0.5 * (
            probe.position_density(grid.nodes) + probe.position_density(grid.nodes - 1.0)
        )
        assert grid.integrate(np.abs(dist - oracle)) < 1e-12
        interior = dist[1:-1]
        n_peaks = int(np.sum((interior > dist[:-2]) & (interior > dist[2:])))
        assert n_peaks == 1

    def test_dimension_mismatch(self):
        probe = ProbeSpec(sigma_Q=0.1, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        rho3 = DensityOperator(np.eye(3, dtype=complex) / 3.0)
        with pytest.raises(DimensionMismatch):
            pointer_distribution(rho3, TWO_LEVEL, probe, coupling, Grid1D(-1, 1, 8))

    @pytest.mark.parametrize("entry", ["born_weights", "reduced_state_post",
                                       "lueders_nonselective", "conditional_state"])
    @pytest.mark.parametrize("observable", ["diagonal", "dense"])
    def test_every_path_into_the_eigenbasis_checks_the_dimension(self, entry, observable):
        # A 3-level state against a 2-level observable.
        rho3 = DensityOperator(np.eye(3, dtype=complex) / 3.0)
        obs = TWO_LEVEL if observable == "diagonal" else random_spectral_observable(
            2, np.random.default_rng(5))
        probe = ProbeSpec(sigma_Q=0.1, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        calls = {
            "born_weights": lambda: born_weights(rho3, obs),
            "reduced_state_post": lambda: reduced_state_post(rho3, obs, coupling.tau),
            "lueders_nonselective": lambda: lueders_nonselective(rho3, obs),
            "conditional_state": lambda: conditional_state(rho3, obs, probe, coupling, 0.0),
        }
        with pytest.raises(DimensionMismatch):
            calls[entry]()


class TestPointerMean:
    def test_maximally_mixed_two_level(self):
        rho = DensityOperator(0.5 * np.eye(2, dtype=complex))
        coupling = CouplingParams.from_sigma_P(2.0, 0.5)
        assert pointer_mean(rho, TWO_LEVEL, coupling) == pytest.approx(1.0, abs=1e-12)

    def test_zero_eigenvalue_eigenstate(self):
        rho = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        coupling = CouplingParams.from_sigma_P(3.0, 0.5)
        assert pointer_mean(rho, TWO_LEVEL, coupling) == pytest.approx(0.0, abs=1e-14)

    def test_thermal_state_mean_occupation(self):
        # Isotropic widths: geometric weights, <n> = 1/(e^(hbar/sigma^2) - 1).
        sigma, hbar, eps = 1.0, 1.0, 1.3
        rho = number_basis_initial_state(sigma, sigma, dim=64, hbar=hbar)
        obs = SpectralObservable.from_diagonal(hbar * (np.arange(64) + 0.5))
        nbar = 1.0 / (np.exp(hbar / sigma**2) - 1.0)
        expected = eps * hbar * (nbar + 0.5)
        coupling = CouplingParams.from_sigma_P(eps, 0.4)
        assert pointer_mean(rho, obs, coupling) == pytest.approx(expected, abs=1e-8)

    def test_consistency_with_distribution_moment(self):
        rng = np.random.default_rng(42)
        probe = ProbeSpec(sigma_Q=0.3, sigma_P=0.4)
        coupling = CouplingParams.from_probe(1.5, probe)
        for _ in range(5):
            dim = int(rng.integers(2, 6))
            rho = random_density_matrix(dim, rng)
            obs = random_spectral_observable(dim, rng)
            grid = probe.pointer_grid(obs.eigenvalues, coupling.epsilon, 6001, 10)
            dist = pointer_distribution(rho, obs, probe, coupling, grid)
            moment = grid.integrate(grid.nodes * dist)
            assert abs(moment - pointer_mean(rho, obs, coupling)) < 1e-8

    def test_matches_dense_trace(self):
        # Oracle epsilon * Re Tr(rho A) with A built densely; bound 1e-12, a
        # few ulp of the dimension-6 sums. The degenerate observable groups
        # columns through block_index.
        rng = np.random.default_rng(8)
        coupling = CouplingParams.from_sigma_P(1.7, 0.4)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        unitary = np.linalg.qr(g)[0]
        spectrum = np.array([-1.0, -1.0, 0.5, 2.0, 2.0, 2.0])
        degenerate = from_hermitian((unitary * spectrum) @ unitary.conj().T)
        assert degenerate.n_eigenvalues == 3
        diagonal = SpectralObservable.from_diagonal(np.sort(rng.standard_normal(6)))
        rho = random_density_matrix(6, rng)
        for obs in (diagonal, degenerate):
            dense = coupling.epsilon * np.real(np.trace(rho.matrix @ observable_matrix(obs)))
            assert abs(pointer_mean(rho, obs, coupling) - dense) < 1e-12

    def test_trace_with_matches_matrix_product(self):
        rng = np.random.default_rng(9)
        rho = random_density_matrix(7, rng)
        op = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))  # not Hermitian
        assert abs(trace_with(rho, op) - np.trace(rho.matrix @ op)) < 1e-12


class TestDecoherenceKernel:
    def test_zero_coupling_gives_unit_kernel(self):
        coupling = CouplingParams.from_sigma_P(1.0, 0.0)
        k = decoherence_kernel(TWO_LEVEL, coupling.tau)
        assert np.all(k == 1.0)

    def test_diagonal_is_exactly_one(self):
        rng = np.random.default_rng(0)
        obs = random_spectral_observable(5, rng)
        k = decoherence_kernel(obs, CouplingParams.from_sigma_P(1.0, 0.8).tau)
        assert np.all(np.diag(k) == 1.0)
        assert np.array_equal(k, k.T)
        assert np.all((k > 0.0) & (k <= 1.0))

    def test_unit_exponent_matches_quadrature_oracle(self):
        # tau/hbar^2 = 1 and gap 1 damps the coherence by exactly 1/e.
        coupling = CouplingParams.from_sigma_P(1.0, np.sqrt(2.0))
        assert coupling.tau == pytest.approx(1.0)
        k = decoherence_kernel(TWO_LEVEL, coupling.tau)
        oracle = decoherence_kernel_quadrature(TWO_LEVEL, coupling)
        assert k[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert np.max(np.abs(k - oracle)) < 1e-10

    def test_closed_form_matches_direct_evaluation(self):
        rng = np.random.default_rng(9)
        obs = random_spectral_observable(6, rng)
        coupling = CouplingParams.from_sigma_P(0.7, 1.1)
        k = decoherence_kernel(obs, coupling.tau, hbar=0.8)
        diff = obs.eigenvalues[:, None] - obs.eigenvalues[None, :]
        direct = np.exp(-coupling.tau * diff**2 / 0.8**2)
        assert np.max(np.abs(k - direct)) < 1e-14


class TestReducedState:
    def test_commuting_state_unchanged(self):
        rng = np.random.default_rng(21)
        obs = random_spectral_observable(5, rng)
        weights = rng.random(5)
        weights /= weights.sum()
        basis, blocks = obs.basis, obs.block_index
        rho = DensityOperator((basis * weights[blocks]) @ basis.conj().T)
        out = reduced_state_post(rho, obs, CouplingParams.from_sigma_P(1.0, 1.2).tau)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_two_level_off_diagonal_damped_by_e(self):
        c = 0.3 + 0.1j
        rho = DensityOperator(np.array([[0.6, c], [np.conj(c), 0.4]]))
        coupling = CouplingParams.from_sigma_P(1.0, np.sqrt(2.0))  # tau = 1, gap 1
        out = reduced_state_post(rho, TWO_LEVEL, coupling.tau)
        oracle = decoherence_kernel_quadrature(TWO_LEVEL, coupling)[0, 1]
        assert out.matrix[0, 1] == pytest.approx(c * np.exp(-1.0), abs=1e-14)
        assert out.matrix[0, 1] == pytest.approx(c * oracle, abs=1e-10)
        validate_density_operator(out)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        tau1=st.floats(min_value=1e-5, max_value=1.0),
        tau2=st.floats(min_value=1e-5, max_value=1.0),
    )
    def test_semigroup_property(self, seed, tau1, tau2):
        # Bound 1e-12, that of TestLindblad.test_semigroup_composition for the
        # exact Lindblad solve of the same channel.
        rng = np.random.default_rng(seed)
        obs = random_spectral_observable(5, rng)
        rho = random_density_matrix(5, rng)

        def channel(state, tau):
            return reduced_state_post(state, obs, tau)

        two_step = channel(channel(rho, tau1), tau2)
        one_step = channel(rho, tau1 + tau2)
        assert np.max(np.abs(two_step.matrix - one_step.matrix)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.integers(min_value=2, max_value=7),
        tau=st.floats(min_value=0.0, max_value=3.0),
        hbar=st.floats(min_value=0.3, max_value=2.0),
    )
    def test_channel_keeps_a_valid_state_and_its_born_weights(self, seed, dim, tau, hbar):
        # validate_density_operator's bounds: Hermitian to HERMITIAN_TOLERANCE, unit
        # trace within 1e-10 and eigenvalues above -1e-10. The Born weights are the
        # eigenbasis diagonal blocks, which the kernel leaves untouched (g_nn = 1),
        # so only the rotation into the eigenbasis and back rounds them: a few ulp of
        # sums of at most 7 unit-bounded terms (1.4e-15 at worst over 300 draws).
        # Bound 1e-12.
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(dim, rng)
        obs = random_spectral_observable(dim, rng)
        out = reduced_state_post(rho, obs, tau, hbar)
        validate_density_operator(out)
        assert np.max(np.abs(born_weights(out, obs) - born_weights(rho, obs))) <= 1e-12

    def test_strong_coupling_matches_pinching(self):
        rng = np.random.default_rng(33)
        obs = random_spectral_observable(4, rng)
        gap = np.min(np.diff(obs.eigenvalues))
        tau = 50.0 / gap**2
        rho = random_density_matrix(4, rng)
        strong = reduced_state_post(rho, obs, tau)
        pinched = lueders_nonselective(rho, obs)
        assert np.max(np.abs(strong.matrix - pinched.matrix)) < 1e-12

    def test_zero_momentum_spread_is_identity_channel(self):
        rng = np.random.default_rng(17)
        obs = random_spectral_observable(6, rng)
        rho = random_density_matrix(6, rng)
        out = reduced_state_post(rho, obs, CouplingParams.from_sigma_P(2.0, 0.0).tau)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_channel_property_battery(self):
        # Hermiticity, trace and positivity over a thousand random channels.
        rng = np.random.default_rng(123)
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            rho = random_density_matrix(dim, rng)
            obs = random_spectral_observable(dim, rng)
            tau = float(rng.uniform(0.0, 3.0))
            out = reduced_state_post(rho, obs, tau)
            m = out.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert abs(np.trace(m) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(m).min() > -1e-10

    def test_outcome_distribution_invariance(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            rho = random_density_matrix(dim, rng)
            obs = random_spectral_observable(dim, rng)
            out = reduced_state_post(rho, obs, float(rng.uniform(0, 2)))
            worst = max(worst, np.max(np.abs(born_weights(out, obs) - born_weights(rho, obs))))
        assert worst < 1e-10

    def test_degenerate_block_preserved_whole(self):
        # With a rank-2 projector the whole block is untouched, not only the
        # diagonal: coherences inside an eigenspace survive decoherence.
        m = np.diag([1.0, 1.0, 3.0])
        obs = from_hermitian(m)
        rho = np.array(
            [[0.4, 0.2 + 0.1j, 0.1], [0.2 - 0.1j, 0.35, -0.05j], [0.1, 0.05j, 0.25]]
        )
        rho = DensityOperator(0.5 * (rho + rho.conj().T))
        out = reduced_state_post(rho, obs, 2.0)
        assert np.max(np.abs(out.matrix[:2, :2] - rho.matrix[:2, :2])) < 1e-12
        damp = np.exp(-2.0 * 4.0)
        assert np.max(np.abs(out.matrix[:2, 2] - damp * rho.matrix[:2, 2])) < 1e-12
        validate_density_operator(out)

    def test_kernel_limit_at_thirty(self):
        # tau * (min gap)^2 / hbar^2 = 30 already pins the channel to the
        # pinching within e^-30 in max norm.
        rng = np.random.default_rng(30)
        worst = 0.0
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            rho = random_density_matrix(dim, rng)
            obs = random_spectral_observable(dim, rng)
            tau = 30.0 / np.diff(obs.eigenvalues).min() ** 2
            strong = reduced_state_post(rho, obs, tau)
            pinched = lueders_nonselective(rho, obs)
            worst = max(worst, float(np.max(np.abs(strong.matrix - pinched.matrix))))
        assert worst <= np.exp(-30.0) + 1e-12

    def test_mixture_linearity(self):
        rng = np.random.default_rng(55)
        obs = random_spectral_observable(5, rng)
        a = random_density_matrix(5, rng)
        b = random_density_matrix(5, rng)
        mixed = DensityOperator(0.3 * a.matrix + 0.7 * b.matrix)
        lhs = reduced_state_post(mixed, obs, 0.7).matrix
        rhs = (
            0.3 * reduced_state_post(a, obs, 0.7).matrix
            + 0.7 * reduced_state_post(b, obs, 0.7).matrix
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestLindblad:
    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(8)
        rho = random_density_matrix(5, rng)
        a = np.diag(np.linspace(-1, 1, 5))
        out = lindblad_evolve(rho, a, 0.0)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_rhs_vanishes_for_commuting_state(self):
        a = np.diag([0.0, 1.0, 2.0])
        rho = DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex))
        assert np.max(np.abs(lindblad_rhs(rho, a))) == 0.0

    def test_semigroup_composition(self):
        rng = np.random.default_rng(31)
        rho = random_density_matrix(6, rng)
        g = rng.standard_normal((6, 6))
        a = (g + g.T) / 4.0
        one = lindblad_evolve(lindblad_evolve(rho, a, 0.4), a, 0.9)
        two = lindblad_evolve(rho, a, 1.3)
        assert np.max(np.abs(one.matrix - two.matrix)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.integers(min_value=2, max_value=7),
        tau=st.floats(min_value=0.0, max_value=3.0),
        hbar=st.floats(min_value=0.3, max_value=2.0),
        degenerate=st.booleans(),
    )
    def test_kernel_channel_is_the_exact_lindblad_solve(self, seed, dim, tau, hbar, degenerate):
        # The eigenbasis kernel channel against the exact solve of
        # d rho / d tau = -[A, [A, rho]] / hbar^2, its oracle, through tau and hbar.
        # A degenerate A repeats its lowest eigenvalue in a random basis, so that
        # from_hermitian groups a rank-2 block.
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(dim, rng)
        if degenerate:
            vals = rng.standard_normal(dim)
            vals[1] = vals[0]
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            vecs = np.linalg.qr(g)[0]
            obs = from_hermitian((vecs * vals) @ vecs.conj().T)
            assert obs.n_eigenvalues < dim
        else:
            obs = random_spectral_observable(dim, rng)
        channel = reduced_state_post(rho, obs, tau, hbar)
        exact = lindblad_evolve(rho, observable_matrix(obs), tau, hbar)
        assert np.max(np.abs(channel.matrix - exact.matrix)) < 1e-12

    def test_centered_difference_matches_rhs(self):
        # Relative error bounded by 10*dtau^2 for the centered stencil.
        rng = np.random.default_rng(62)
        rho = random_density_matrix(5, rng)
        g = rng.standard_normal((5, 5))
        a = g + g.T
        a = a / np.ptp(np.linalg.eigvalsh(a))  # unit spectral range
        dtau, tau0 = 1e-3, 0.3
        fd = (
            lindblad_evolve(rho, a, tau0 + dtau).matrix
            - lindblad_evolve(rho, a, tau0 - dtau).matrix
        ) / (2 * dtau)
        rhs = lindblad_rhs(lindblad_evolve(rho, a, tau0), a)
        rel = np.max(np.abs(fd - rhs)) / np.max(np.abs(rhs))
        assert rel < 10 * dtau**2

    def test_channel_matches_independent_ode_integration(self):
        # Dual route: the exact eigenbasis channel against scipy integration
        # of d rho / d tau = -[A, [A, rho]] / hbar^2 from the same start.
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng(71)
        dim = 6
        rho0 = random_density_matrix(dim, rng)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = (g + g.conj().T) / 2.0
        hbar, tau = 0.9, 0.4

        def rhs(_t, y):
            rho = (y[: dim * dim] + 1j * y[dim * dim :]).reshape(dim, dim)
            inner = a @ rho - rho @ a
            out = -(a @ inner - inner @ a) / hbar**2
            return np.concatenate([out.real.ravel(), out.imag.ravel()])

        y0 = np.concatenate([rho0.matrix.real.ravel(), rho0.matrix.imag.ravel()])
        sol = solve_ivp(rhs, (0.0, tau), y0, rtol=1e-11, atol=1e-12, dense_output=False)
        ode = (sol.y[: dim * dim, -1] + 1j * sol.y[dim * dim :, -1]).reshape(dim, dim)
        channel = lindblad_evolve(rho0, a, tau, hbar=hbar)
        assert np.max(np.abs(channel.matrix - ode)) < 1e-8

    def test_non_hermitian_observable_rejected(self):
        from vnlab import NonHermitianObservable

        rho = DensityOperator(0.5 * np.eye(2, dtype=complex))
        with pytest.raises(NonHermitianObservable):
            lindblad_evolve(rho, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


class TestLueders:
    def test_diagonal_state_unchanged(self):
        rho = DensityOperator(np.diag([0.7, 0.3]).astype(complex))
        out = lueders_nonselective(rho, TWO_LEVEL)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15

    def test_equal_superposition_pinches_to_uniform(self):
        out = lueders_nonselective(equal_superposition(), TWO_LEVEL)
        assert np.max(np.abs(out.matrix - 0.5 * np.eye(2))) < 1e-15

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        obs = random_spectral_observable(6, rng)
        rho = random_density_matrix(6, rng)
        once = lueders_nonselective(rho, obs)
        twice = lueders_nonselective(once, obs)
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-14

    def test_nondegenerate_case_is_diagonal_born_weights(self):
        rng = np.random.default_rng(13)
        obs = random_spectral_observable(5, rng)
        rho = random_density_matrix(5, rng)
        out = lueders_nonselective(rho, obs)
        rot = obs.to_eigenbasis(out.matrix)
        assert np.max(np.abs(rot - np.diag(np.diag(rot)))) < 1e-14
        assert np.max(np.abs(np.real(np.diag(rot)) - born_weights(rho, obs))) < 1e-12


def conditional_oracle(rho, obs, probe, coupling, Q):
    """Direct double sum over projectors, straight from the definition: the pure
    probe's chi_n chi_m, damped by the momentum noise past hbar/2 (hbar = 1)."""
    projs = projectors(obs)
    a = obs.eigenvalues
    chi = probe.position_wavefunction(Q - coupling.epsilon * a)
    excess = max(0.5 * (coupling.epsilon * probe.sigma_P) ** 2
                 - coupling.epsilon**2 / (8.0 * probe.sigma_Q**2), 0.0)
    num = np.zeros_like(rho.matrix)
    den = 0.0
    for n, pn in enumerate(projs):
        den += float(np.real(np.trace(rho.matrix @ pn))) * chi[n] ** 2
        for m, pm in enumerate(projs):
            noise = np.exp(-excess * (a[n] - a[m]) ** 2)
            num = num + chi[n] * chi[m] * noise * (pn @ rho.matrix @ pm)
    return num / den


class TestConditionalState:
    def test_single_outcome_state_unchanged(self):
        rho = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
        probe = ProbeSpec(sigma_Q=0.3, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        out = conditional_state(rho, TWO_LEVEL, probe, coupling, Q=1.0)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-13

    def test_sharp_probe_collapses_to_projector(self):
        probe = ProbeSpec(sigma_Q=0.01, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        out = conditional_state(equal_superposition(), TWO_LEVEL, probe, coupling, Q=1.0)
        target = DensityOperator(np.diag([0.0, 1.0]).astype(complex))
        assert trace_distance(out, target) < 1e-3
        validate_density_operator(out)

    def test_wide_probe_barely_disturbs(self):
        # A wide, pure probe (sigma_Q sigma_P = hbar/2): no momentum noise past the
        # minimum, so the coherence keeps exp(-1/800) of itself.
        probe = ProbeSpec(sigma_Q=10.0, sigma_P=0.05)
        coupling = CouplingParams.from_probe(1.0, probe)
        rho = equal_superposition()
        out = conditional_state(rho, TWO_LEVEL, probe, coupling, Q=1.0)
        oracle = conditional_oracle(rho, TWO_LEVEL, probe, coupling, 1.0)
        assert np.max(np.abs(out.matrix - oracle)) < 1e-12
        assert trace_distance(out, rho) < 0.05

    def test_momentum_noise_decoheres_whatever_the_reading(self):
        # sigma_Q 10, sigma_P 0.5: the wide probe's reading says little, but its
        # momentum spread damps the coherence by exp(-(tau - 1/800)), tau = 1/8.
        probe = ProbeSpec(sigma_Q=10.0, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        rho = equal_superposition()
        out = conditional_state(rho, TWO_LEVEL, probe, coupling, Q=1.0)
        oracle = conditional_oracle(rho, TWO_LEVEL, probe, coupling, 1.0)
        assert np.max(np.abs(out.matrix - oracle)) < 1e-12
        chi = probe.position_wavefunction(1.0 - np.array([0.0, 1.0]))
        coherence = chi[0] * chi[1] / (chi @ chi) * np.exp(-(0.125 - 1.0 / 800.0))
        assert abs(out.matrix[0, 1] - coherence) < 1e-14

    @pytest.mark.parametrize("sigma_P, hbar", [(1.0, 1.0), (2.0, 1.0), (4.0, 2.0)],
                             ids=["at-hbar-over-2", "product-1", "product-2-at-hbar-2"])
    def test_record_average_is_the_nonselective_channel(self, sigma_P, hbar):
        # Averaged over the pointer record p(Q), the selective states give the channel:
        # int p(Q) rho_Q dQ = sum_mn g_mn P_m rho P_n. Trapezoid over 4001 Q nodes on
        # [-3, 7], 6 sigma_Q past the outer peaks eps*0 and eps*4: each Gaussian's tail
        # past 6 widths holds 1e-9 of its mass, and the rule's own error on these
        # 200-node-wide Gaussians is far below that. Tolerance: 1e-8.
        rho = random_density_matrix(5, np.random.default_rng(5))
        obs = SpectralObservable.from_diagonal(np.arange(5.0))
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=sigma_P)
        coupling = CouplingParams.from_probe(1.0, probe)
        Qgrid = Grid1D(-3.0, 7.0, 4001)
        record = pointer_distribution(rho, obs, probe, coupling, Qgrid)
        states = [conditional_state(rho, obs, probe, coupling, Q, hbar=hbar).matrix
                  for Q in Qgrid.nodes]
        average = np.tensordot(Qgrid.weights * record, states, axes=1)
        channel = reduced_state_post(rho, obs, coupling.tau, hbar=hbar)
        assert np.max(np.abs(average - channel.matrix)) < 1e-8

    def test_matches_projector_oracle_generally(self):
        rng = np.random.default_rng(99)
        probe = ProbeSpec(sigma_Q=0.4, sigma_P=0.6)
        coupling = CouplingParams.from_probe(1.2, probe)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            rho = random_density_matrix(dim, rng)
            obs = random_spectral_observable(dim, rng)
            Q = float(coupling.epsilon * rng.choice(obs.eigenvalues))
            out = conditional_state(rho, obs, probe, coupling, Q)
            oracle = conditional_oracle(rho, obs, probe, coupling, Q)
            assert np.max(np.abs(out.matrix - oracle)) < 1e-11
            validate_density_operator(out)

    def test_negligible_probability_raises(self):
        probe = ProbeSpec(sigma_Q=0.01, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        with pytest.raises(NegligibleProbability):
            conditional_state(equal_superposition(), TWO_LEVEL, probe, coupling, Q=50.0)


class TestDisturbanceScale:
    def test_formula_reported_verbatim(self):
        g = Grid1D(-10.0, 10.0, 257)
        from vnlab import gaussian_wavepacket

        rho = density_from_wavefunction(gaussian_wavepacket(g, sigma_x=1.5), g)
        coupling = CouplingParams.from_sigma_P(2.0, 0.3)
        expected = 2.0 * 0.3 * 1.5
        scale = position_disturbance_scale(g, position_density(rho), coupling)
        assert scale == pytest.approx(expected, abs=1e-6)
