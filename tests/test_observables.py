"""Spectral and classical observables, probe and coupling parameter types."""

import numpy as np
import pytest

from vnlab import (
    CouplingParams,
    Grid1D,
    InvariantViolation,
    ProbeSpec,
    SpectralObservable,
    action_observable,
    general_observable,
    position_observable,
)


class TestSpectralObservable:
    def test_from_hermitian_passes_projector_suite(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        obs = SpectralObservable.from_hermitian(g + g.conj().T)
        obs.validate()
        assert np.all(np.diff(obs.eigenvalues) > 0)

    def test_degenerate_eigenvalues_collapse_to_one_projector(self):
        m = np.diag([1.0, 1.0, 3.0])
        obs = SpectralObservable.from_hermitian(m)
        assert obs.n_eigenvalues == 2
        assert np.trace(obs.projectors[0]).real == pytest.approx(2.0, abs=1e-12)
        obs.validate()

    def test_matrix_reconstruction(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((5, 5))
        m = g + g.T
        obs = SpectralObservable.from_hermitian(m)
        assert np.max(np.abs(obs.matrix() - m)) < 1e-12

    def test_from_diagonal_keeps_layout_lazy(self):
        obs = SpectralObservable.from_diagonal(np.linspace(-1, 1, 64))
        assert obs.basis is None
        assert obs.n_eigenvalues == 64
        p0 = obs.projectors[0]
        assert p0[0, 0] == 1.0 and np.sum(np.abs(p0)) == 1.0

    def test_caller_arrays_stay_writeable(self):
        values = np.array([0.0, 1.0])
        obs = SpectralObservable.from_diagonal(values)
        values[0] = -1.0  # raised ValueError while the observable froze the caller's array
        assert np.array_equal(obs.eigenvalues, [0.0, 1.0])
        assert not obs.eigenvalues.flags.writeable and not obs.block_index.flags.writeable

    def test_unsorted_eigenvalues_rejected(self):
        with pytest.raises(InvariantViolation):
            SpectralObservable.from_diagonal([1.0, 0.5])


class TestClassicalObservable:
    def test_position_kind_exact_fields(self):
        obs = position_observable()
        q = np.linspace(-2, 2, 9)
        p = np.linspace(-1, 1, 9)
        assert np.array_equal(obs.eval(q, p), q)
        assert np.all(obs.dA_dq(q, p) == 1.0)
        assert np.all(obs.dA_dp(q, p) == 0.0)

    def test_action_kind_depends_only_on_xi(self):
        obs = action_observable(lambda xi: xi**2, lambda xi: 2 * xi)
        rng = np.random.default_rng(2)
        q = rng.uniform(-2, 2, 50)
        p = rng.uniform(-2, 2, 50)
        xi = 0.5 * (q**2 + p**2)
        r, phi = np.sqrt(2 * xi), rng.uniform(0, 2 * np.pi, 50)
        rotated = obs.eval(r * np.cos(phi), r * np.sin(phi))
        assert np.max(np.abs(rotated - obs.eval(q, p))) < 1e-12

    @pytest.mark.parametrize(
        "obs",
        [
            position_observable(),
            action_observable(lambda xi: xi, lambda xi: np.ones_like(xi)),
            general_observable(
                lambda q, p: q**2 + 0.3 * p, lambda q, p: 2 * q + 0 * p, lambda q, p: 0.3 + 0 * q
            ),
        ],
    )
    def test_supplied_derivatives_match_finite_differences(self, obs):
        g = Grid1D(-4.0, 4.0, 401)
        qq, pp = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        a = obs.eval(qq, pp)
        dq = np.gradient(a, g.h, axis=0, edge_order=2)
        dp = np.gradient(a, g.h, axis=1, edge_order=2)
        scale = np.max(np.abs(a)) + 1.0
        assert np.max(np.abs(dq - obs.dA_dq(qq, pp))) / scale < 1e-6
        assert np.max(np.abs(dp - obs.dA_dp(qq, pp))) / scale < 1e-6

    def test_action_kind_requires_xi_derivative(self):
        with pytest.raises(InvariantViolation):
            from vnlab.observables import ClassicalObservable

            ClassicalObservable(
                kind="action",
                eval=lambda q, p: q,
                dA_dq=lambda q, p: q,
                dA_dp=lambda q, p: q,
            )


class TestProbeSpec:
    def test_width_constraints(self):
        with pytest.raises(InvariantViolation):
            ProbeSpec(sigma_Q=0.0, sigma_P=1.0)
        with pytest.raises(InvariantViolation):
            ProbeSpec(sigma_Q=1.0, sigma_P=-0.1)
        ProbeSpec(sigma_Q=1.0, sigma_P=0.0)  # zero momentum spread allowed

    def test_position_density_normalized(self):
        probe = ProbeSpec(sigma_Q=0.3, sigma_P=0.5)
        g = Grid1D(-3.0, 3.0, 2001)
        assert g.integrate(probe.position_density(g.nodes)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "Q",
        [
            np.linspace(-4.0, 4.0, 257),
            np.arange(-5, 6),
            np.array(0.7),
            -1.3,
        ],
        ids=["float array", "int array", "0-d array", "python float"],
    )
    def test_position_density_is_bitwise_the_plain_formula(self, Q):
        probe = ProbeSpec(sigma_Q=0.37, sigma_P=0.5)
        before = np.array(Q, copy=True)
        out = probe.position_density(Q)
        q = np.asarray(Q, dtype=float)
        s2 = 0.37**2
        assert np.array_equal(out, np.exp(-0.5 * q * q / s2) / np.sqrt(2.0 * np.pi * s2))
        assert np.shape(out) == np.shape(Q)
        assert np.array_equal(Q, before)

    def test_wavefunction_squares_to_density(self):
        probe = ProbeSpec(sigma_Q=0.7, sigma_P=0.5)
        x = np.linspace(-3, 3, 101)
        chi = probe.position_wavefunction(x)
        assert np.max(np.abs(chi**2 - probe.position_density(x))) < 1e-14

    def test_zero_momentum_width_has_no_density(self):
        probe = ProbeSpec(sigma_Q=1.0, sigma_P=0.0)
        with pytest.raises(InvariantViolation):
            probe.momentum_density(np.zeros(3))


class TestCouplingParams:
    def test_tau_from_probe_momentum_width(self):
        c = CouplingParams.from_sigma_P(2.0, 0.3)
        assert c.tau == 0.5 * (2.0 * 0.3) ** 2
        assert c.sigma_P == pytest.approx(0.3, abs=1e-15)

    def test_zero_momentum_width_means_zero_tau(self):
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.0)
        assert CouplingParams.from_probe(1.7, probe).tau == 0.0

    def test_zero_epsilon_only_with_zero_tau(self):
        CouplingParams(epsilon=0.0, tau=0.0)
        with pytest.raises(InvariantViolation):
            CouplingParams(epsilon=0.0, tau=0.1)

    def test_negative_parameters_rejected(self):
        with pytest.raises(InvariantViolation):
            CouplingParams(epsilon=-1.0, tau=0.0)
        with pytest.raises(InvariantViolation):
            CouplingParams(epsilon=1.0, tau=-1e-9)
