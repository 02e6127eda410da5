"""Wigner transform, the damped transform, and the momentum-diffusion PDE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlab import (
    DensityOperator,
    Grid1D,
    InvariantViolation,
    SpectralObservable,
    gaussian_wavepacket,
)
from vnlab.qm import reduced_state_post
from vnlab.wigner import (
    WignerFunction,
    _antidiagonals,
    _phase_matrix,
    damping,
    evolved_wigner,
    pure_state_momentum_marginals,
    wigner_transform,
)
from vnlab.states import normalized_wavefunction

from helpers import (
    DEFAULT_TOLERANCES,
    density_from_wavefunction,
    density_variance,
    p_marginal_density,
    position_density,
    random_density_matrix,
    reference_wigner,
    validate_wigner,
    wigner_normalization,
)
from oracles import momentum_marginals, wigner_pde_residual

XGRID = Grid1D(-8.0, 8.0, 256)
PGRID = Grid1D(-8.0, 8.0, 256)


def ground_state() -> DensityOperator:
    return density_from_wavefunction(
        gaussian_wavepacket(XGRID, sigma_x=1.0 / np.sqrt(2.0)), XGRID
    )


class TestWignerTransform:
    def test_ground_state_closed_form(self):
        w = wigner_transform(ground_state(), PGRID)
        qq, pp = np.meshgrid(XGRID.nodes, PGRID.nodes, indexing="ij")
        expected = 2.0 * np.exp(-(qq**2) - pp**2)
        assert np.max(np.abs(w.values - expected)) < 1e-4

    def test_normalization(self):
        psi = gaussian_wavepacket(XGRID, center=0.4, momentum=1.1, sigma_x=0.8)
        w = wigner_transform(density_from_wavefunction(psi, XGRID), PGRID)
        assert abs(wigner_normalization(w) - 1.0) < 1e-6
        validate_wigner(w)

    def test_marginals_match_state(self):
        psi = gaussian_wavepacket(XGRID, center=-0.3, sigma_x=0.9)
        rho = density_from_wavefunction(psi, XGRID)
        w = wigner_transform(rho, PGRID)
        q_marginal = (w.values @ w.pgrid.weights) / (2.0 * np.pi * w.hbar)
        assert np.max(np.abs(q_marginal - position_density(rho))) < 1e-6

    def test_linearity_over_mixtures(self):
        a = density_from_wavefunction(gaussian_wavepacket(XGRID, center=-1.0), XGRID)
        b = density_from_wavefunction(gaussian_wavepacket(XGRID, center=+1.0), XGRID)
        mix = DensityOperator(0.5 * a.matrix + 0.5 * b.matrix, grid=XGRID)
        w_mix = wigner_transform(mix, PGRID)
        w_a = wigner_transform(a, PGRID)
        w_b = wigner_transform(b, PGRID)
        assert np.max(np.abs(w_mix.values - 0.5 * (w_a.values + w_b.values))) < 1e-12

    def test_caller_array_stays_writeable(self):
        # A read-only copy of the n x n values: the caller's array stays writeable and apart.
        g = Grid1D(-1.0, 1.0, 3)
        values = np.zeros((3, 3))
        w = WignerFunction(g, g, values)
        values[1, 1] = 2.0
        assert w.values[1, 1] == 0.0
        assert not w.values.flags.writeable
        assert values.flags.writeable and wigner_normalization(w) == 0.0

    def test_number_basis_rejected(self):
        rho = DensityOperator(np.diag([0.6, 0.4]).astype(complex))
        with pytest.raises(InvariantViolation, match="needs a position-grid state"):
            wigner_transform(rho, PGRID)


class TestEvolvedWigner:
    def test_zero_strength_reduces_to_plain_transform(self):
        rho = ground_state()
        w0 = wigner_transform(rho, PGRID)
        w1 = evolved_wigner(rho, lambda x: x, 0.0, PGRID)
        assert np.max(np.abs(w0.values - w1.values)) < 1e-15

    def test_position_observable_grows_momentum_variance(self):
        rho = ground_state()
        tau = 0.35
        w = evolved_wigner(rho, lambda x: x, tau, PGRID)
        var = density_variance(PGRID, p_marginal_density(w))
        assert var == pytest.approx(0.5 + 2.0 * tau, abs=1e-4)

    def test_damping_is_even_in_y(self):
        # DeltaA(q, -y) = -DeltaA(q, y) bit for bit, so the factor is even in y:
        # the fold onto y >= 0 rests on it.
        A = lambda x: x**3 - x
        q = np.linspace(-2, 2, 11)[:, None]
        y = np.linspace(-3, 3, 13)[None, :]
        assert np.array_equal(damping(A, 0.1, q, y, 1.0), damping(A, 0.1, q, -y, 1.0))

    def test_strong_coupling_flattens_momentum_dependence(self):
        # The residual momentum dependence decays on the scale sqrt(4*tau),
        # so flatness to 1e-3 over the sampled p range needs tau >> 50.
        rho = ground_state()
        idx = [40, 90, 128, 170, 215]

        def spread(tau):
            w = evolved_wigner(rho, lambda x: x, tau, PGRID)
            slices = w.values[:, idx]
            return float(np.max(np.max(slices, axis=1) - np.min(slices, axis=1)))

        s50, s500, s10000 = spread(50.0), spread(500.0), spread(10000.0)
        assert s50 > s500 > s10000  # ever flatter in p
        assert s10000 < 1e-3

    def test_agrees_with_kernel_channel_on_discretized_position(self):
        grid = Grid1D(-8.0, 8.0, 128)
        pg = Grid1D(-8.0, 8.0, 128)
        rho = density_from_wavefunction(gaussian_wavepacket(grid, sigma_x=0.9), grid)
        tau = 0.25
        obs = SpectralObservable.from_diagonal(grid.nodes)
        via_channel = wigner_transform(reduced_state_post(rho, obs, tau), pg)
        via_damping = evolved_wigner(rho, lambda x: x, tau, pg)
        assert np.max(np.abs(via_channel.values - via_damping.values)) < 1e-12


OBSERVABLES = {"x": lambda x: x, "x**3 - x": lambda x: x**3 - x}


@st.composite
def position_states(draw) -> DensityOperator:
    """A random mixed state or an off-centre, boosted Gaussian packet, n >= 3 nodes."""
    n = draw(st.integers(3, 96))
    grid = Grid1D(-8.0, 8.0, n)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return random_density_matrix(n, rng, rank=draw(st.integers(1, n)), grid=grid)
    psi = gaussian_wavepacket(
        grid,
        center=draw(st.floats(-1.5, 1.5)),
        momentum=draw(st.floats(-2.0, 2.0)),
        sigma_x=draw(st.floats(0.5, 1.0)),
    )
    return density_from_wavefunction(psi, grid)


class TestHermitianFold:
    """The folded real products against the unfolded complex transform.

    Tolerance 1e-12 of max|W|: the two differ only in summation order (the
    largest difference seen at n = 2048 was 3.3e-15 of max|W|).
    """

    @settings(max_examples=60, deadline=None)
    @given(
        rho=position_states(),
        n_p=st.integers(3, 96),
        hbar=st.floats(0.5, 2.0),
        observable=st.sampled_from(sorted(OBSERVABLES)),
        tau=st.floats(0.0, 2.0),
    )
    def test_matches_unfolded_transform(self, rho, n_p, hbar, observable, tau):
        pgrid = Grid1D(-6.0, 6.0, n_p)
        A = OBSERVABLES[observable]
        for got, oracle in (
            (wigner_transform(rho, pgrid, hbar=hbar), reference_wigner(rho, pgrid, hbar=hbar)),
            (evolved_wigner(rho, A, tau, pgrid, hbar=hbar),
             reference_wigner(rho, pgrid, hbar=hbar, A=A, tau=tau)),
        ):
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(got.values - oracle)) <= 1e-12 * scale

    def test_non_hermitian_state_refused_with_its_residue(self):
        matrix = ground_state().matrix.copy()
        matrix[0, 1] += 1e-9
        rho = DensityOperator(matrix, grid=XGRID)
        assert rho.hermitian_residue == pytest.approx(1e-9, rel=1e-6)
        for transform in (
            lambda: wigner_transform(rho, PGRID),
            lambda: evolved_wigner(rho, lambda x: x, 0.1, PGRID),
        ):
            with pytest.raises(InvariantViolation, match=f"{rho.hermitian_residue:.3e}"):
                transform()


MARGINAL_OBSERVABLES = {"x": lambda x: x, "0.3 x**2": lambda x: 0.3 * x**2, "sin x": np.sin}


@st.composite
def boosted_mixtures(draw) -> DensityOperator:
    """An off-centre mixture of two boosted Gaussian packets on an odd or even grid."""
    grid = Grid1D(-8.0, 8.0, draw(st.integers(24, 160)))
    a, b = (
        density_from_wavefunction(
            gaussian_wavepacket(
                grid,
                center=draw(st.floats(-1.5, 1.5)),
                momentum=draw(st.floats(-2.0, 2.0)),
                sigma_x=draw(st.floats(0.5, 1.0)),
            ),
            grid,
        )
        for _ in range(2)
    )
    weight = draw(st.floats(0.1, 0.9))
    return DensityOperator(weight * a.matrix + (1.0 - weight) * b.matrix, grid=grid)


class TestMomentumMarginals:
    """The q-first oracle (``oracles.momentum_marginals``) against the folded and
    the unfolded transforms.

    Tolerance 1e-13 of max|P|: the three differ only in summation order (the
    largest difference seen over 24 random states was 1.7e-15 of max|P|).
    """

    @settings(max_examples=60, deadline=None)
    @given(
        rho=boosted_mixtures(),
        p_offset=st.integers(-20, 20).filter(bool),
        hbar=st.floats(0.5, 2.0),
        observable=st.sampled_from(sorted(MARGINAL_OBSERVABLES)),
        tau=st.floats(0.0, 2.0),
    )
    def test_matches_both_transforms(self, rho, p_offset, hbar, observable, tau):
        pgrid = Grid1D(-6.0, 6.0, rho.dim + p_offset)
        A = MARGINAL_OBSERVABLES[observable]
        before, after = momentum_marginals(rho, A, tau, pgrid, hbar=hbar)
        for got, folded, unfolded in (
            (before, wigner_transform(rho, pgrid, hbar=hbar),
             reference_wigner(rho, pgrid, hbar=hbar)),
            (after, evolved_wigner(rho, A, tau, pgrid, hbar=hbar),
             reference_wigner(rho, pgrid, hbar=hbar, A=A, tau=tau)),
        ):
            oracle = rho.grid.weights @ unfolded / (2.0 * np.pi * hbar)
            scale = np.max(np.abs(oracle))
            assert got.shape == (pgrid.n,)
            assert np.max(np.abs(got - p_marginal_density(folded))) <= 1e-13 * scale
            assert np.max(np.abs(got - oracle)) <= 1e-13 * scale

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [40, 64, 65, 2049])
    def test_blocked_phases_match_the_full_phase_matrix(self, n, hbar):
        # Block counts the strategy above never draws: one partial block, one
        # full block, a full block and one node, and 32 blocks and one node. The
        # p grid spans the Nyquist edge pi hbar / (2h), where the phase p y / hbar
        # is largest (about pi n / 2 rad). Tolerance 1e-13 of max|P|, as above:
        # the two round their phases differently (largest difference seen here
        # 2.1e-14 of max|P|, at n = 2049 and hbar = 2).
        grid = Grid1D(-8.0, 8.0, n)
        psi = gaussian_wavepacket(grid, center=0.4, momentum=1.0, sigma_x=0.8, hbar=hbar)
        rho = density_from_wavefunction(psi, grid)
        band = np.pi * hbar / (2.0 * grid.h)
        pgrid = Grid1D(-band, band, n)
        y, D = _antidiagonals(rho)
        half = 0.5 * y[:, None]
        damped = D * np.exp(-0.3 * (np.sin(grid.nodes + half) - np.sin(grid.nodes - half)) ** 2
                            / hbar**2)
        vecs = np.stack([d.reshape(2 * y.size, n) @ grid.weights for d in (D, damped)])
        oracle = vecs @ _phase_matrix(y, pgrid, hbar) / (2.0 * np.pi * hbar)
        for got, want in zip(momentum_marginals(rho, np.sin, 0.3, pgrid, hbar=hbar), oracle):
            assert got.shape == (n,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_non_hermitian_state_refused_with_its_residue(self):
        matrix = ground_state().matrix.copy()
        matrix[0, 1] += 1e-9
        rho = DensityOperator(matrix, grid=XGRID)
        with pytest.raises(InvariantViolation, match=f"{rho.hermitian_residue:.3e}"):
            momentum_marginals(rho, lambda x: x, 0.1, PGRID)


AFFINE_OBSERVABLES = {"x": lambda x: x, "1.5 x - 0.7": lambda x: 1.5 * x - 0.7}


class TestPureStateMarginals:
    """``pure_state_momentum_marginals``, the path ``evolve-qm`` takes, against
    the density-matrix oracle ``oracles.momentum_marginals``.

    Tolerance 1e-13 of max|P|: the two differ in summation order (the FFT
    autocorrelation and the chirp-z convolution against the gathered
    anti-diagonals' q-sums and the blocked phases) and in where the damping is
    read (once, at q = 0, against at every q). The largest difference seen over
    300 random draws of the range below was 2.9e-15 of max|P| on the +-6 p grid
    and 8.5e-15 at the Nyquist edge, and 1.4e-14 at the Nyquist edge up to n = 4096.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(3, 300),
        p_offset=st.integers(-20, 20),
        nyquist=st.booleans(),
        center=st.floats(-1.5, 1.5),
        sigma_x=st.floats(0.5, 1.0),
        momentum=st.floats(-2.0, 2.0),
        hbar=st.floats(0.5, 2.0),
        observable=st.sampled_from(sorted(AFFINE_OBSERVABLES)),
        tau=st.floats(0.0, 2.0),
    )
    def test_matches_the_density_matrix_oracle(
            self, n, p_offset, nyquist, center, sigma_x, momentum, hbar, observable, tau):
        # Odd and even n, most not a power of 2, and p grids of other sizes; the
        # Nyquist-edge grid spans pi hbar / (2h), where the phases p y / hbar are largest.
        grid = Grid1D(-8.0, 8.0, n)
        p_half = np.pi * hbar / (2.0 * grid.h) if nyquist else 6.0
        pgrid = Grid1D(-p_half, p_half, max(2, n + p_offset))
        psi = gaussian_wavepacket(grid, center=center, momentum=momentum, sigma_x=sigma_x,
                                  hbar=hbar)
        A = AFFINE_OBSERVABLES[observable]
        got = pure_state_momentum_marginals(normalized_wavefunction(psi, grid), grid, A, tau,
                                            pgrid, hbar=hbar)
        oracle = momentum_marginals(density_from_wavefunction(psi, grid), A, tau, pgrid,
                                    hbar=hbar)
        for g, want in zip(got, oracle):
            assert g.shape == (pgrid.n,)
            assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [40, 64, 65, 2049, 4096])
    def test_matches_the_oracle_at_the_nyquist_edge(self, n, hbar):
        # The p grid spans pi hbar / (2h), where the phases p y / hbar are largest,
        # and n reaches past evolve-qm's benchmark size. Same tolerance.
        grid = Grid1D(-8.0, 8.0, n)
        psi = gaussian_wavepacket(grid, center=0.4, momentum=1.0, sigma_x=0.8, hbar=hbar)
        band = np.pi * hbar / (2.0 * grid.h)
        pgrid = Grid1D(-band, band, n)
        A = lambda x: x
        got = pure_state_momentum_marginals(normalized_wavefunction(psi, grid), grid, A, 0.3,
                                            pgrid, hbar=hbar)
        oracle = momentum_marginals(density_from_wavefunction(psi, grid), A, 0.3, pgrid,
                                    hbar=hbar)
        for g, want in zip(got, oracle):
            assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))


class TestVarianceLaw:
    @settings(max_examples=40, deadline=None)
    @given(
        sigma_x=st.floats(0.6, 1.1),
        center=st.floats(-1.0, 1.0),
        tau=st.floats(0.0, 2.0),
    )
    def test_position_measurement_adds_two_tau(self, sigma_x, center, tau):
        """Var p after the channel is s^2 + 2 tau, s = hbar / (2 sigma_x).

        Grids as in ``evolve-qm``: 256 nodes on +-8, p range
        +-8 sqrt(s^2 + 2 tau). The tolerance is that command's
        ``variance_growth`` check.
        """
        tol = DEFAULT_TOLERANCES["evolve-qm"]["variance_growth"]
        rho = density_from_wavefunction(
            gaussian_wavepacket(XGRID, center=center, sigma_x=sigma_x), XGRID
        )
        s2 = (1.0 / (2.0 * sigma_x)) ** 2
        p_half = 8.0 * np.sqrt(s2 + 2.0 * tau)
        pgrid = Grid1D(-p_half, p_half, 256)
        w = evolved_wigner(rho, lambda x: x, tau, pgrid)
        var = density_variance(pgrid, p_marginal_density(w))
        assert abs(var - (s2 + 2.0 * tau)) <= tol

    @settings(max_examples=40, deadline=None)
    @given(
        sigma_x=st.floats(0.6, 1.1),
        center=st.floats(-1.0, 1.0),
        tau=st.floats(0.0, 2.0),
    )
    def test_momentum_marginals_add_two_tau(self, sigma_x, center, tau):
        """The same law through the q-first marginals: the oracle's, and
        ``pure_state_momentum_marginals``, the path ``evolve-qm`` takes.

        Grids and tolerance as in ``test_position_measurement_adds_two_tau``;
        the marginal before the channel has variance s^2.
        """
        tol = DEFAULT_TOLERANCES["evolve-qm"]["variance_growth"]
        psi = gaussian_wavepacket(XGRID, center=center, sigma_x=sigma_x)
        rho = density_from_wavefunction(psi, XGRID)
        s2 = (1.0 / (2.0 * sigma_x)) ** 2
        p_half = 8.0 * np.sqrt(s2 + 2.0 * tau)
        pgrid = Grid1D(-p_half, p_half, 256)
        A = lambda x: x
        psi = normalized_wavefunction(psi, XGRID)
        for before, after in (
            momentum_marginals(rho, A, tau, pgrid),
            pure_state_momentum_marginals(psi, XGRID, A, tau, pgrid),
        ):
            assert abs(density_variance(pgrid, before) - s2) <= tol
            assert abs(density_variance(pgrid, after) - (s2 + 2.0 * tau)) <= tol


class TestWignerPde:
    def _family(self, A, taus, rho=None, pgrid=PGRID):
        rho = rho or ground_state()
        return [evolved_wigner(rho, A, t, pgrid) for t in taus]

    def test_position_observable_residual_small(self):
        base = 0.8  # keeps the momentum profile broad, so d2W/dtau2 is mild
        dtau = 1e-3
        taus = [base, base + dtau, base + 2 * dtau]
        res = wigner_pde_residual(self._family(lambda x: x, taus), taus, lambda x: x)
        assert res < 1e-3

    def test_constant_observable_residual_vanishes(self):
        taus = [0.0, 0.1, 0.2]
        A = lambda x: np.full_like(np.asarray(x, dtype=float), 2.5)
        res = wigner_pde_residual(self._family(A, taus), taus, A)
        assert res < 1e-10

    def test_first_order_convergence_for_quadratic_observable(self):
        # Small base strength keeps the evolved state inside the p grid, so
        # the O(dtau) differencing term dominates the residual.
        A = lambda x: x**2
        base = 0.1

        def residual(dtau):
            taus = [base, base + dtau, base + 2 * dtau]
            return wigner_pde_residual(self._family(A, taus), taus, A)

        r1, r2 = residual(2e-3), residual(1e-3)
        assert r1 / r2 == pytest.approx(2.0, abs=0.4)

    def test_requires_three_samples(self):
        fam = self._family(lambda x: x, [0.1, 0.2])
        with pytest.raises(ValueError, match="at least 3"):
            wigner_pde_residual(fam, [0.1, 0.2], lambda x: x)
