"""States, grids, transforms and the quadrature primitives."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RectBivariateSpline

from vnlab import (
    ConfigInvalid,
    DensityOperator,
    Grid1D,
    InvariantViolation,
    PeriodicGrid,
    PhaseSpaceDensity,
    action_observable,
    build_gaussian_phase_density,
    expectation,
    from_angle_action,
    gaussian_wavepacket,
    general_observable,
    position_observable,
    to_angle_action,
    trace_with,
)
from vnlab.grids import TWO_PI
from vnlab.observables import (
    HERMITIAN_TOLERANCE,
    CouplingParams,
    SpectralObservable,
    hermitian_residue,
    require_hermitian,
)
from vnlab.qm import reduced_state_post
from vnlab import states
from vnlab.states import (
    AngleActionDensity,
    _bispev,
    _Handover,
    _sample,
    delta_width,
    phase_density_from_values,
    sample_phase_density,
    superposition_wavefunction,
)

from helpers import (
    density_from_wavefunction,
    density_variance,
    from_hermitian,
    position_density,
    random_gaussian_mixture,
    validate_density_operator,
    validate_phase_density,
)
from oracles import (
    from_angle_action_reference,
    sample_phase_density_reference,
    spline_sample_reference,
)


class TestGrids:
    def test_spacing_and_weights(self):
        g = Grid1D(-2.0, 2.0, 5)
        assert g.h == 1.0
        assert np.allclose(g.weights, [0.5, 1, 1, 1, 0.5])
        assert g.integrate(np.ones(5)) == pytest.approx(4.0)

    def test_invalid_grids_rejected(self):
        with pytest.raises(InvariantViolation):
            Grid1D(1.0, 1.0, 8)
        with pytest.raises(InvariantViolation):
            Grid1D(0.0, 1.0, 1)

    def test_periodic_grid_excludes_endpoint(self):
        g = PeriodicGrid(8)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] < TWO_PI
        assert g.weights @ np.ones(8) == pytest.approx(TWO_PI)

    def test_delta_width_is_two_spacings(self):
        g = Grid1D(0.0, 1.0, 11)
        assert delta_width(g) == pytest.approx(0.2)

    @pytest.mark.parametrize("grid", [Grid1D(-2.0, 2.0, 5), PeriodicGrid(8)],
                             ids=["Grid1D", "PeriodicGrid"])
    def test_nodes_and_weights_are_read_only(self, grid):
        for array in (grid.nodes, grid.weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert grid.nodes is grid.nodes and grid.weights is grid.weights  # computed once


class TestGaussianBuilder:
    def test_origin_value_matches_analytic(self):
        g = Grid1D(-8.0, 8.0, 257)  # odd count puts a node at the origin
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        assert rho.values[128, 128] == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-12)

    def test_unit_mass(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        assert abs(rho.mass() - 1.0) < 1e-8

    def test_q_marginal_variance(self):
        qg = Grid1D(-14.0, 14.0, 384)
        pg = Grid1D(-4.0, 4.0, 256)
        rho = build_gaussian_phase_density(qg, pg, 2.0, 0.5)
        assert density_variance(qg, rho.q_marginal()) == pytest.approx(4.0, abs=1e-6)

    def test_grid_too_narrow(self):
        g = Grid1D(-5.0, 5.0, 64)
        with pytest.raises(ConfigInvalid, match="'center_q' and 'sigma_q': the Gaussian's center"):
            build_gaussian_phase_density(g, g, 1.0, 1.0)  # 6 sigma > 5

    def test_state_values_are_a_read_only_copy(self):
        g = Grid1D(-1.0, 1.0, 3)
        values = np.ones((3, 3))
        rho = PhaseSpaceDensity(g, g, values)
        values[1, 1] = 5.0
        assert values.flags.writeable
        assert not rho.values.flags.writeable
        assert np.array_equal(rho.values, np.ones((3, 3)))

    def test_values_from_the_library_do_not_alias_the_callers(self):
        # phase_density_from_values clips into a new array, normalizes it in
        # place, and the state then keeps it without a copy.
        g = Grid1D(-1.0, 1.0, 3)
        values = np.ones((3, 3))
        rho = phase_density_from_values(g, g, values)
        values[1, 1] = 5.0
        assert values.flags.writeable
        assert not rho.values.flags.writeable
        assert np.array_equal(rho.values, np.full((3, 3), 0.25))  # ones over the area 4
        assert not rho.normalized().values.flags.writeable

    def test_validate_passes_for_constructed_state(self):
        g = Grid1D(-8.0, 8.0, 256)
        validate_phase_density(build_gaussian_phase_density(g, g, 1.0, 1.0))

    def test_leakage_monitor_triggers_on_wide_state(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.3, 1.3)
        leaky = rho.values + 1e-4  # uniform floor pushes mass into the edge band
        bad = phase_density_from_values(g, g, leaky)
        with pytest.raises(InvariantViolation, match="edge-band mass"):
            validate_phase_density(bad)


class TestAngleActionTransform:
    def test_isotropic_gaussian_maps_to_exponential(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        aa = to_angle_action(rho)
        # Compare as grid-normalized densities: the xi-trapezoid mass of
        # exp(-xi) carries an O(h^2) boundary term that renormalization
        # divides out of both sides.
        expected = np.exp(-aa.xigrid.nodes)[:, None] * np.ones(aa.thetagrid.n)
        from vnlab.grids import grid2d_integrate

        expected = expected / grid2d_integrate(aa.xigrid, aa.thetagrid, expected)
        assert np.max(np.abs(aa.values - expected)) < 1e-6
        spread = np.max(aa.values, axis=1) - np.min(aa.values, axis=1)
        assert np.max(spread) < 1e-7  # theta independent

    def test_output_mass_is_one(self):
        g = Grid1D(-8.0, 8.0, 256)
        rng = np.random.default_rng(7)
        rho = random_gaussian_mixture(g, g, rng)
        aa = to_angle_action(rho)
        assert abs(aa.mass() - 1.0) < 1e-6

    def test_anisotropic_gaussian_matches_closed_form(self):
        # Fine xi grid keeps the trapezoid renormalization shift below the
        # 1e-6 pointwise budget, so the raw closed form can be compared.
        g = Grid1D(-16.0, 16.0, 512)
        rho = build_gaussian_phase_density(g, g, 1.0, 2.0)
        aa = to_angle_action(rho, n_xi=6144, n_theta=256)
        ratio = 4.0  # (sigma_p / sigma_q)^2
        xx, tt = np.meshgrid(aa.xigrid.nodes, aa.thetagrid.nodes, indexing="ij")
        closed = np.exp(-xx / 4.0 * (1.0 + (ratio - 1.0) * np.cos(tt) ** 2)) / (
            TWO_PI * 2.0
        )
        assert np.max(np.abs(aa.values - closed)) < 1e-6

    def test_round_trip_within_interpolation_error(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.2, 0.9)
        aa = to_angle_action(rho, n_xi=256, n_theta=256)
        back = from_angle_action(aa, g, g)
        l1 = float(g.weights @ np.abs(back.values - rho.values) @ g.weights)
        assert l1 < 1e-4


class TestSplineSampler:
    """``_sample`` serves both resamplings, bit for bit as their original inline code.

    The references are ``tests/oracles.py``'s copies of that code. Random data
    makes the splines overshoot below zero, so the clip is exercised too.
    """

    @settings(max_examples=60, deadline=None)
    @given(n_q=st.integers(4, 40), n_p=st.integers(4, 40),
           q_lo=st.floats(-6.0, -0.1), q_hi=st.floats(0.1, 6.0),
           p_lo=st.floats(-6.0, -0.1), p_hi=st.floats(0.1, 6.0),
           seed=st.integers(0, 2**32 - 1))
    def test_sample_phase_density(self, n_q, n_p, q_lo, q_hi, p_lo, p_hi, seed):
        rng = np.random.default_rng(seed)
        rho = PhaseSpaceDensity(Grid1D(q_lo, q_hi, n_q), Grid1D(p_lo, p_hi, n_p),
                                rng.random((n_q, n_p)))
        # Points over twice each span, so that about half fall outside the grid,
        # and points on each edge and one ulp beyond it.
        q = rng.uniform(1.5 * q_lo - 0.5 * q_hi, 1.5 * q_hi - 0.5 * q_lo, 120)
        p = rng.uniform(1.5 * p_lo - 0.5 * p_hi, 1.5 * p_hi - 0.5 * p_lo, 120)
        edges_q = [q_lo, q_hi, np.nextafter(q_lo, -np.inf), np.nextafter(q_hi, np.inf)]
        edges_p = [p_lo, p_hi, np.nextafter(p_lo, -np.inf), np.nextafter(p_hi, np.inf)]
        q[:4], p[4:8] = edges_q, edges_p
        q, p = q.reshape(8, 15), p.reshape(8, 15)
        assert np.array_equal(sample_phase_density(rho, q, p),
                              sample_phase_density_reference(rho, q, p))

    @settings(max_examples=60, deadline=None)
    @given(n_xi=st.integers(4, 40), n_theta=st.integers(8, 48), reach=st.floats(0.5, 6.0),
           n_q=st.integers(4, 40), n_p=st.integers(4, 40),
           q_lo=st.floats(-1.6, -0.3), q_hi=st.floats(0.3, 1.6),
           p_lo=st.sampled_from([-1e-17, -0.0, 0.0]) | st.floats(-1.6, -0.3),
           p_hi=st.floats(0.3, 1.6), seed=st.integers(0, 2**32 - 1))
    def test_from_angle_action(self, n_xi, n_theta, reach, n_q, n_p, q_lo, q_hi, p_lo, p_hi,
                               seed):
        # Grids up to 1.6 times the xi disc's radius put nodes beyond xi_max. A p
        # grid from 0, -0 or -1e-17 puts a row on the theta seam: theta = 0 and pi
        # on either side of q = 0, and 2 pi - 1e-17 rounded to 2 pi.
        rng = np.random.default_rng(seed)
        aa = AngleActionDensity(Grid1D(0.0, 0.5 * reach**2, n_xi), PeriodicGrid(n_theta),
                                rng.random((n_xi, n_theta)))
        qgrid = Grid1D(q_lo * reach, q_hi * reach, n_q)
        pgrid = Grid1D(p_lo * reach, p_hi * reach, n_p)
        assert np.array_equal(from_angle_action(aa, qgrid, pgrid).values,
                              from_angle_action_reference(aa, qgrid, pgrid).values)

    @staticmethod
    def _nodes(rng, n, uniform, lo, span):
        if uniform:
            return np.linspace(lo, lo + span, n)
        steps = rng.uniform(0.05, 1.0, n - 1)
        return lo + span * np.concatenate([[0.0], np.cumsum(steps) / steps.sum()])

    @staticmethod
    def _points(rng, fixed, lo, hi, size=1500):
        """``fixed``, then points over [lo, hi] up to ``size``, in shuffled order."""
        return rng.permutation(np.concatenate([fixed, rng.uniform(lo, hi, size - len(fixed))]))

    @staticmethod
    def _edges(nodes):
        """Each end, one ulp past it, the non-finite values and both zeros."""
        lo, hi = nodes[0], nodes[-1]
        return [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                np.nan, np.inf, -np.inf, 0.0, -0.0]

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(4, 600), ny=st.integers(4, 600), uniform_x=st.booleans(),
           uniform_y=st.booleans(), chunk=st.sampled_from([5, states.SPLINE_CHUNK]),
           seed=st.integers(0, 2**32 - 1))
    def test_sampler_is_fitpacks_bit_for_bit(self, nx, ny, uniform_x, uniform_y, chunk, seed):
        # The vectorised recurrence against scipy's evaluation, on uniform and
        # non-uniform nodes, a grid from 0 among them, with points anywhere: the
        # raw spline (clamped outside) and the sampler, chunked in fives or not.
        rng = np.random.default_rng(seed)
        xn = self._nodes(rng, nx, uniform_x, 0.0, rng.uniform(0.5, 40.0))
        yn = self._nodes(rng, ny, uniform_y, rng.uniform(-9.0, 3.0), rng.uniform(0.5, 20.0))
        values = rng.random((nx, ny)) - 0.2  # negative samples are clipped
        spline = RectBivariateSpline(xn, yn, values, kx=3, ky=3, s=0)
        tx, ty, c = spline.tck
        # Over twice each span, so that about half fall outside, and on every knot and node.
        x = self._points(rng, np.concatenate([tx, xn, self._edges(xn)]),
                         1.5 * xn[0] - 0.5 * xn[-1], 1.5 * xn[-1] - 0.5 * xn[0])
        y = self._points(rng, np.concatenate([ty, yn, self._edges(yn)]),
                         1.5 * yn[0] - 0.5 * yn[-1], 1.5 * yn[-1] - 0.5 * yn[0])
        with mock.patch.object(states, "SPLINE_CHUNK", chunk):
            raw = _bispev(tx, ty, c, x, y)
            sampled = _sample(xn, yn, values, x[None], y[None])
        expected = spline.ev(x, y)
        assert np.array_equal(raw, expected, equal_nan=True)
        assert np.array_equal(np.signbit(raw), np.signbit(expected))
        assert np.array_equal(sampled, spline_sample_reference(xn, yn, values, x[None], y[None]))

    @settings(max_examples=30, deadline=None)
    @given(n_xi=st.integers(4, 600), n_theta=st.integers(4, 592), seed=st.integers(0, 2**32 - 1))
    def test_sampler_on_padded_theta_nodes_is_fitpacks_bit_for_bit(self, n_xi, n_theta, seed):
        # from_angle_action's theta nodes, padded by 4 across the seam on each side,
        # at angles over [0, 2 pi] and at every node, and xi inside and past xi_max.
        rng = np.random.default_rng(seed)
        xn = np.linspace(0.0, rng.uniform(0.5, 40.0), n_xi)
        tnodes = PeriodicGrid(n_theta).nodes
        yn = np.concatenate([tnodes[-4:] - TWO_PI, tnodes, tnodes[:4] + TWO_PI])
        values = rng.random((n_xi, yn.size))
        x = self._points(rng, np.concatenate([xn, self._edges(xn)]), 0.0, 1.5 * xn[-1])
        y = self._points(rng, np.concatenate([yn, tnodes, [TWO_PI, np.nan]]), 0.0, TWO_PI)
        x, y = x[:, None], y[:, None]
        assert np.array_equal(_sample(xn, yn, values, x, y),
                              spline_sample_reference(xn, yn, values, x, y))


class TestDensityOperator:
    def test_pure_state_invariants(self):
        g = Grid1D(-8.0, 8.0, 128)
        psi = gaussian_wavepacket(g, center=0.3, momentum=0.5)
        rho = density_from_wavefunction(psi, g)
        validate_density_operator(rho)
        assert complex(np.trace(rho.matrix)) == pytest.approx(1.0, abs=1e-12)

    def test_position_density_integrates_to_one(self):
        g = Grid1D(-8.0, 8.0, 128)
        rho = density_from_wavefunction(gaussian_wavepacket(g), g)
        assert g.integrate(position_density(rho)) == pytest.approx(1.0, abs=1e-10)

    def test_superposition_normalized(self):
        g = Grid1D(-10.0, 10.0, 256)
        psi1 = gaussian_wavepacket(g, center=-1.0)
        psi2 = gaussian_wavepacket(g, center=+1.0)
        psi = superposition_wavefunction(0.8, 0.6j, psi1, psi2, g)
        assert g.integrate(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "alpha, beta, center2",
        [(0.0, 0.0, 1.0), (1.0, -1.0, -1.0), (1e-200, 0.0, 1.0), (1e-160, 0.0, 1.0),
         (1e200, 0.0, 1.0)],
        ids=["zero", "cancelling", "underflowing", "subnormal", "overflowing"],
    )
    def test_unnormalizable_superposition_rejected(self, alpha, beta, center2):
        g = Grid1D(-10.0, 10.0, 256)
        psi1 = gaussian_wavepacket(g, center=-1.0)
        psi2 = gaussian_wavepacket(g, center=center2)
        with pytest.raises(InvariantViolation, match="norm"):
            superposition_wavefunction(alpha, beta, psi1, psi2, g)

    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 130])
    def test_hermitian_residue_is_max_entry_of_rho_minus_rho_dagger(self, dim):
        # The residue is swept in 64-row bands over the upper triangle; a
        # one-entry defect at any band edge, on either side of the diagonal,
        # must be found exactly.
        edges = sorted({k for k in (0, 63, 64, 127, 128, dim - 1) if k < dim})
        for i in edges:
            for j in edges:
                m = np.zeros((dim, dim), dtype=complex)
                m[i, j] = 3e-9 * np.exp(0.4j)
                naive = float(np.max(np.abs(m - m.conj().T)))
                assert DensityOperator(m).hermitian_residue == naive > 0.0

    def test_non_hermitian_state_fails_validation_with_its_residue(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 2e-12
        with pytest.raises(InvariantViolation, match="2.000e-12"):
            validate_density_operator(DensityOperator(m))

    @pytest.mark.parametrize("defect, refused", [(HERMITIAN_TOLERANCE, False), (2e-12, True)],
                             ids=["at-tolerance", "past-tolerance"])
    def test_state_and_observable_share_one_hermitian_rule(self, defect, refused):
        # One residue and one tolerance: a density matrix and an observable matrix
        # with the same defect read the same residue and are refused alike.
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = defect
        rho = DensityOperator(m)
        assert rho.hermitian_residue == hermitian_residue(m) == defect
        for check, message in ((lambda: validate_density_operator(rho), "max\\|rho - rho\\^H\\|"),
                               (lambda: require_hermitian(m), "not Hermitian within 1e-12")):
            if refused:
                with pytest.raises(InvariantViolation, match=message):
                    check()
            else:
                check()

    @pytest.mark.parametrize("entries, value", [
        ([(0, 0)], np.nan),
        ([(100, 100)], np.nan),
        ([(3, 120), (120, 3)], np.inf),
    ], ids=["nan-band-1", "nan-band-2", "inf-off-diagonal"])
    def test_non_finite_entry_refused_by_every_hermitian_check(self, entries, value):
        # A NaN compares false with every tolerance, and the symmetric inf pair
        # differences to NaN, so the residue itself must refuse them, in any band.
        m = np.eye(130, dtype=complex) / 130
        for entry in entries:
            m[entry] = value
        assert hermitian_residue(m) == np.inf
        with pytest.raises(InvariantViolation, match="not Hermitian within 1e-12"):
            require_hermitian(m)
        with pytest.raises(InvariantViolation, match="not Hermitian within 1e-12"):
            from_hermitian(m)
        with pytest.raises(InvariantViolation, match="not Hermitian"):
            validate_density_operator(DensityOperator(m))

    def test_shape_mismatch_rejected(self):
        g = Grid1D(-1.0, 1.0, 4)
        with pytest.raises(InvariantViolation, match="does not match the position grid"):
            DensityOperator(np.eye(3) / 3.0, grid=g)

    def test_earlier_view_cannot_write_into_the_state(self):
        base = np.eye(2, dtype=complex) / 2
        alias = base[:]
        rho = DensityOperator(base)
        residue = rho.hermitian_residue
        alias[0, 1] = 1.0
        assert np.array_equal(rho.matrix, np.eye(2) / 2)
        assert rho.hermitian_residue == residue == 0.0
        assert float(np.max(np.abs(rho.matrix - rho.matrix.conj().T))) == 0.0
        assert base.flags.writeable
        assert not rho.matrix.flags.writeable

    def test_handed_over_array_is_frozen_in_place(self):
        matrix = np.eye(2, dtype=complex) / 2
        rho = DensityOperator(_Handover(matrix))
        assert rho.matrix is matrix
        assert not matrix.flags.writeable

    def test_library_states_are_read_only_and_apart_from_their_inputs(self):
        g = Grid1D(-8.0, 8.0, 64)
        psi = gaussian_wavepacket(g, center=0.3, sigma_x=0.9)
        rho = density_from_wavefunction(psi, g)
        obs = SpectralObservable.from_diagonal(g.nodes)
        post = reduced_state_post(rho, obs, 0.2)
        assert psi.flags.writeable
        for state in (rho, post):
            assert not state.matrix.flags.writeable
        assert not np.shares_memory(post.matrix, rho.matrix)


class TestMarginalsExpectations:
    def test_centered_gaussian_position_mean_is_zero(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        assert abs(expectation(rho, position_observable())) < 1e-10

    def test_trace_with_identity(self):
        g = Grid1D(-8.0, 8.0, 64)
        rho = density_from_wavefunction(gaussian_wavepacket(g, sigma_x=0.8), g)
        assert trace_with(rho, np.eye(64)) == pytest.approx(1.0, abs=1e-10)

    def test_q_squared_expectation(self):
        qg = Grid1D(-14.0, 14.0, 384)
        pg = Grid1D(-4.0, 4.0, 128)
        rho = build_gaussian_phase_density(qg, pg, 2.0, 0.5)
        q_squared = general_observable(
            lambda q, p: q**2 + 0.0 * p, lambda q, p: 2.0 * q + 0.0 * p, lambda q, p: 0.0 * q
        )
        assert expectation(rho, q_squared) == pytest.approx(4.0, abs=1e-6)

    def test_marginals_normalize(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        assert g.integrate(rho.q_marginal()) == pytest.approx(1.0, abs=1e-10)
        assert g.integrate(rho.p_marginal()) == pytest.approx(1.0, abs=1e-10)

    def test_refusals(self):
        g = Grid1D(-8.0, 8.0, 64)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        aa = AngleActionDensity(Grid1D(0.0, 4.0, 16), PeriodicGrid(8), np.ones((16, 8)))
        scalar = general_observable(lambda q, p: 1.0, lambda q, p: 0.0, lambda q, p: 0.0)
        with pytest.raises(InvariantViolation, match="unsupported state type"):
            expectation(density_from_wavefunction(gaussian_wavepacket(g), g), position_observable())
        with pytest.raises(InvariantViolation, match="do not match"):
            expectation(rho, scalar)
        with pytest.raises(InvariantViolation, match="A\\(xi\\)"):
            expectation(aa, position_observable())


XI = action_observable(lambda xi: xi, lambda xi: np.ones_like(xi))
QP = general_observable(lambda q, p: q * p, lambda q, p: p, lambda q, p: q)

# Cartesian states: centres within +-2 and widths up to 1.2 on grids reaching
# +-12 or beyond leave every edge at least 8.3 widths out, so the truncated
# tail moves the moments by less than 1e-13, and with a step of at most
# width / 1.8 the trapezoid's aliasing term 2 exp(-2 pi^2 (width / step)^2)
# is below 1e-27. The q and p grids differ, so that no mix-up of the axes
# passes.
# What is left is roundoff: a sum of K <= 256^2 terms is within
# (K - 1) u sum_k |w_k a_k| of exact (Higham, Accuracy and Stability, 4.2),
# 65536 * 1.1e-16 * <|A|> with <|A|> <= 5.5 here, i.e. 4e-11; twice that,
# for the normalization, rounds up to 1e-10.
CARTESIAN_TOLERANCE = 1e-10


class TestExpectationClosedForms:
    """<A> from the one distribution of A, and the pointer mean over epsilon,
    against closed forms on off-centre states of both classical types."""

    @settings(max_examples=30, deadline=None)
    @given(centre_q=st.floats(-2.0, 2.0), centre_p=st.floats(-2.0, 2.0),
           sigma_q=st.floats(0.5, 1.2), sigma_p=st.floats(0.5, 1.2),
           n_q=st.integers(97, 256), n_p=st.integers(97, 256), epsilon=st.floats(0.3, 2.0))
    def test_cartesian_gaussian(self, centre_q, centre_p, sigma_q, sigma_p, n_q, n_p, epsilon):
        qgrid, pgrid = Grid1D(-12.0, 12.0, n_q), Grid1D(-12.5, 13.5, n_p)
        rho = build_gaussian_phase_density(qgrid, pgrid, sigma_q, sigma_p, centre_q, centre_p)
        coupling = CouplingParams.from_sigma_P(epsilon, 0.5)
        closed = {
            "q": (position_observable(), centre_q),
            "xi": (XI, (sigma_q**2 + sigma_p**2 + centre_q**2 + centre_p**2) / 2.0),
            "qp": (QP, centre_q * centre_p),
        }
        for name, (obs, expected) in closed.items():
            assert abs(expectation(rho, obs) - expected) <= CARTESIAN_TOLERANCE, name
            mean = coupling.epsilon * expectation(rho, obs) / epsilon
            assert abs(mean - expected) <= CARTESIAN_TOLERANCE, name

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(0.3, 3.0), n_xi=st.integers(512, 4097), n_theta=st.integers(8, 64),
           ripple=st.floats(0.0, 0.9))
    def test_angle_action_exponential(self, s, n_xi, n_theta, ripple):
        # rho = exp(-xi/s) (1 + ripple cos theta) / (2 pi s) has <xi> = s. The
        # periodic rule integrates the ripple out exactly, and the trapezoid
        # sum over the infinite xi grid of step h is s (x / sinh x)^2 with
        # x = h / (2 s), which is s - h^2 / (12 s) + O(h^4). Cutting the grid
        # at 40 s drops 41 s e^-40 < 2e-16 s; the sum of n_xi terms rounds
        # within n_xi u <xi> < 5e-13 s. Hence 1e-12 s.
        xigrid = Grid1D(0.0, 40.0 * s, n_xi)
        thetagrid = PeriodicGrid(n_theta)
        xx, tt = np.meshgrid(xigrid.nodes, thetagrid.nodes, indexing="ij")
        aa = AngleActionDensity(
            xigrid, thetagrid, np.exp(-xx / s) * (1.0 + ripple * np.cos(tt)) / (TWO_PI * s)
        )
        x = xigrid.h / (2.0 * s)
        trapezoid = s * (x / np.sinh(x)) ** 2
        coupling = CouplingParams.from_sigma_P(1.3, 0.5)
        assert abs(expectation(aa, XI) - trapezoid) <= 1e-12 * s
        assert abs(coupling.epsilon * expectation(aa, XI) / 1.3 - trapezoid) <= 1e-12 * s
        assert abs(trapezoid - s) <= xigrid.h**2 / (12.0 * s)


class TestAngleActionDensityType:
    def test_xi_grid_must_start_at_zero(self):
        with pytest.raises(InvariantViolation):
            AngleActionDensity(Grid1D(1.0, 2.0, 8), PeriodicGrid(8), np.ones((8, 8)))

    def test_periodic_continuation(self):
        # Values built from a periodic function agree across the seam.
        xig = Grid1D(0.0, 4.0, 16)
        tg = PeriodicGrid(64)
        xx, tt = np.meshgrid(xig.nodes, tg.nodes, indexing="ij")
        vals = np.exp(-xx) * (1.0 + 0.5 * np.cos(tt))
        aa = AngleActionDensity(xig, tg, vals)
        assert np.allclose(aa.values[:, 0], np.exp(-xig.nodes) * 1.5)

    def test_state_values_are_a_read_only_copy(self):
        values = np.ones((8, 8))
        aa = AngleActionDensity(Grid1D(0.0, 1.0, 8), PeriodicGrid(8), values)
        values[1, 1] = 5.0
        assert values.flags.writeable
        assert not aa.values.flags.writeable
        assert np.array_equal(aa.values, np.ones((8, 8)))
