"""Spectral and classical observables, probe and coupling parameter types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vnlab import (
    ConfigInvalid,
    CouplingParams,
    Grid1D,
    InvariantViolation,
    ProbeSpec,
    SpectralObservable,
    action_observable,
    general_observable,
    position_observable,
)
from vnlab.observables import EXP_UNDERFLOW, _normal_density

from helpers import from_hermitian, observable_matrix, projectors, validate_spectral_observable


class TestSpectralObservable:
    def test_from_hermitian_passes_projector_suite(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        obs = from_hermitian(g + g.conj().T)
        validate_spectral_observable(obs)
        assert np.all(np.diff(obs.eigenvalues) > 0)

    def test_degenerate_eigenvalues_collapse_to_one_projector(self):
        m = np.diag([1.0, 1.0, 3.0])
        obs = from_hermitian(m)
        assert obs.n_eigenvalues == 2
        assert np.trace(projectors(obs)[0]).real == pytest.approx(2.0, abs=1e-12)
        validate_spectral_observable(obs)

    def test_matrix_reconstruction(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((5, 5))
        m = g + g.T
        obs = from_hermitian(m)
        assert np.max(np.abs(observable_matrix(obs) - m)) < 1e-12

    def test_from_diagonal_keeps_layout_lazy(self):
        obs = SpectralObservable.from_diagonal(np.linspace(-1, 1, 64))
        assert obs.basis is None
        assert obs.n_eigenvalues == 64
        p0 = projectors(obs)[0]
        assert p0[0, 0] == 1.0 and np.sum(np.abs(p0)) == 1.0

    def test_caller_arrays_stay_writeable(self):
        values = np.array([0.0, 1.0])
        obs = SpectralObservable.from_diagonal(values)
        values[0] = -1.0  # raised ValueError while the observable froze the caller's array
        assert np.array_equal(obs.eigenvalues, [0.0, 1.0])
        assert not obs.eigenvalues.flags.writeable and not obs.block_index.flags.writeable

    def test_caller_basis_stays_writeable_and_apart(self):
        basis = np.array([[0.0, 1.0], [1.0, 0.0]])
        obs = SpectralObservable([0.0, 1.0], basis=basis, block_index=[0, 1])
        basis[:] = 0.0
        assert np.array_equal(observable_matrix(obs), [[1.0, 0.0], [0.0, 0.0]])
        assert basis.flags.writeable and not obs.basis.flags.writeable

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

    @pytest.mark.parametrize("sigma_Q, refused", [
        (1e-300, True), (1.4e-154, True), (1.5e-154, False),
        (1.3e154, False), (1.4e154, True), (1e300, True),
    ])
    def test_width_whose_square_is_not_a_normal_float_is_a_config_refusal(self, sigma_Q,
                                                                           refused):
        # The square bounds are sqrt(tiny) = 1.49e-154 and sqrt(max) = 1.34e154.
        if refused:
            with pytest.raises(ConfigInvalid, match="'sigma_Q' .* is not a normal float"):
                ProbeSpec(sigma_Q=sigma_Q, sigma_P=0.3)
        else:
            ProbeSpec(sigma_Q=sigma_Q, sigma_P=0.3)

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
        # Both probe densities are the one in-buffer normal density. Neither width is
        # a power of two, so that a reordered formula rounds differently.
        probe = ProbeSpec(sigma_Q=0.37, sigma_P=0.53)
        before = np.array(Q, copy=True)
        q = np.asarray(Q, dtype=float)
        for density, width in ((probe.position_density, 0.37), (probe.momentum_density, 0.53)):
            out = density(Q)
            s2 = width**2
            assert np.array_equal(out, np.exp(-0.5 * q * q / s2) / np.sqrt(2.0 * np.pi * s2))
            assert np.shape(out) == np.shape(Q)
            assert np.array_equal(Q, before)

    @settings(max_examples=200, deadline=None)
    @given(s2=st.floats(1e-4, 1e4),
           exponents=hnp.arrays(float, st.integers(0, 200),
                                elements=st.floats(0.0, 800.0) | st.floats(700.0, 750.0)),
           raw=hnp.arrays(float, st.integers(0, 20)), seed=st.integers(0, 2**32 - 1))
    def test_normal_density_is_bitwise_the_plain_formula(self, s2, exponents, raw, seed):
        # Exponents -e over the normal results, the subnormal band (-745.13 < -e <
        # -708.4), the cut and the exact zeros, at both signs of x, shuffled among any
        # doubles (NaN and +-inf included), so that kept and skipped runs of every
        # length meet; and 0-d inputs, Python floats and 0-d arrays.
        rng = np.random.default_rng(seed)
        x = np.sqrt(2.0 * s2 * exponents) * rng.choice([-1.0, 1.0], exponents.size)
        x = rng.permutation(np.concatenate([x, raw, [np.nan, np.inf, -np.inf, 0.0, -0.0]]))
        with np.errstate(over="ignore"):  # a double past 1e154 squares to inf
            expected = np.exp(-0.5 * x * x / s2) / np.sqrt(2.0 * np.pi * s2)
            out = _normal_density(x, s2)
            zero_d = [_normal_density(v, s2) for v in x.tolist()[:8]]
            zero_d += [_normal_density(np.array(v), s2) for v in x[8:16]]
        assert np.array_equal(out, expected, equal_nan=True)
        assert not np.signbit(out[~np.isnan(out)]).any()  # +0.0 where exp is skipped
        for value, plain in zip(zero_d, expected):
            assert isinstance(value, np.float64) and np.shape(value) == ()
            assert np.array_equal(value, plain, equal_nan=True)
            assert np.isnan(value) or not np.signbit(value)

    def test_exp_is_exactly_zero_at_and_below_the_cut(self):
        # What lets _normal_density skip exp there: every exponent at or below the
        # cut rounds to +0.0, by the vector loop, its tails and the scalar path.
        below = np.concatenate([np.linspace(EXP_UNDERFLOW - 1.0, EXP_UNDERFLOW, 10001),
                                [np.nextafter(EXP_UNDERFLOW, -np.inf), -1e4, -1e300, -np.inf]])
        for values in (below, below[:3], below[::-1]):
            out = np.exp(values)
            assert np.array_equal(out, np.zeros(values.shape)) and not np.signbit(out).any()
        assert all(np.exp(v) == 0.0 for v in below[-5:])
        assert np.exp(EXP_UNDERFLOW + 1.0) > 0.0  # a cut within 1 of the last nonzero

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
