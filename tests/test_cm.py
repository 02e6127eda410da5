"""Classical channel: flow, probe marginals, diffusion, angle solver, conditioning."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vnlab import (
    CouplingParams,
    Grid1D,
    InvariantViolation,
    NegligibleProbability,
    PeriodicGrid,
    ProbeSpec,
    UnsupportedObservable,
    action_observable,
    build_gaussian_phase_density,
    expectation,
    general_observable,
    position_observable,
)
from vnlab.cm import (
    NEGATIVITY_MONITOR,
    ORDER_FLOW_PRODUCT,
    ORDER_FLOW_SYSTEM,
    _monitored_clip,
    _pde_evolve,
    angle_spectral_solve,
    apply_liouville_generator,
    cm_diffusion_rhs,
    conditional_state_cm,
    joint_state_post,
    probe_marginal_Q,
    reduced_state_post_cm,
    strong_coupling_limit_cm,
)
from vnlab.grids import TWO_PI, grid2d_integrate
from vnlab.states import (
    AngleActionDensity,
    phase_density_from_values,
    sample_phase_density,
)

from helpers import (
    DEFAULT_TOLERANCES,
    angle_density_from_function,
    density_variance,
    random_gaussian_mixture,
    reference_joint_density,
    reference_liouville_generator,
    reference_pde_evolve,
)
from oracles import angle_solve_reference, diffuse_rows_p_reference

POSITION = position_observable()
ACTION_LINEAR = action_observable(lambda xi: xi, lambda xi: np.ones_like(xi))
# A(xi) = xi written as a general observable, so that it takes the PDE path.
GENERAL_XI = general_observable(
    lambda q, p: 0.5 * (q**2 + p**2),
    lambda q, p: q + 0.0 * p,
    lambda q, p: p + 0.0 * q,
)
GENERATOR_OBSERVABLES = {"A = q": POSITION, "A(xi)": ACTION_LINEAR, "general xi": GENERAL_XI}

# Channel strengths for the semigroup properties. On the p grid of
# TestReducedChannel.test_semigroup_property (step h = 28/383) the position
# kernel width sqrt(2*tau) is two grid steps at tau = 2h^2 = 0.0107, inside
# this range, so kernels narrower and wider than the grid scale both occur.
TAUS = st.floats(min_value=1e-5, max_value=1.0)
# Log-uniform strengths from 1e-6 to 1: on the grids of TestFourierModeDamping
# (n from 128 to 300 nodes over +-8 sqrt(sigma_p^2 + 2 tau)) the kernel width
# sqrt(2*tau) falls below two grid steps for tau below 0.002 to 0.07.
LOG_TAUS = st.floats(min_value=-6.0, max_value=0.0).map(lambda e: 10.0**e)


def self_annihilation_residual(obs, grid: Grid1D) -> float:
    """max |A_op A| on grid x grid; zero analytically."""
    qq, pp = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    return float(np.max(np.abs(apply_liouville_generator(obs.eval(qq, pp), grid, grid, obs))))


class TestLiouvilleGenerator:
    def test_self_annihilation_position(self):
        assert self_annihilation_residual(POSITION, Grid1D(-4.0, 4.0, 128)) < 1e-8

    def test_self_annihilation_linear_action(self):
        assert self_annihilation_residual(ACTION_LINEAR, Grid1D(-4.0, 4.0, 128)) < 1e-8

    def test_self_annihilation_general_quadratic(self):
        obs = general_observable(
            lambda q, p: q**2 + 0.5 * p**2,
            lambda q, p: 2.0 * q + 0.0 * p,
            lambda q, p: p + 0.0 * q,
        )
        assert self_annihilation_residual(obs, Grid1D(-4.0, 4.0, 128)) < 1e-8

    def test_product_rule(self):
        g = Grid1D(-6.0, 6.0, 256)
        qq, pp = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        f = np.exp(-0.5 * (qq**2 + pp**2))
        h = np.exp(-0.5 * ((qq - 0.5) ** 2 + 0.8 * pp**2))
        obs = general_observable(
            lambda q, p: q**2 + 0.3 * p,
            lambda q, p: 2.0 * q + 0.0 * p,
            lambda q, p: 0.3 + 0.0 * q,
        )

        def a_op(values):
            return apply_liouville_generator(values, g, g, obs)

        # Finite-difference scale: the stencil obeys the product rule to O(h^2).
        assert np.max(np.abs(a_op(f * h) - a_op(f) * h - f * a_op(h))) < 1e-3

    def test_first_order_term_integrates_to_zero(self):
        # Compactly supported density: the double integral of A_op F vanishes
        # up to boundary decay, which the centered stencil telescopes away.
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.0, 0.8, center_q=0.4, center_p=-0.3)
        obs = general_observable(
            lambda q, p: q**2 + p, lambda q, p: 2 * q + 0 * p, lambda q, p: 1.0 + 0 * q
        )
        out = apply_liouville_generator(rho.values, g, g, obs)
        assert abs(grid2d_integrate(g, g, out)) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        n_q=st.integers(3, 40),
        n_p=st.integers(3, 40),
        lo_q=st.floats(-6.0, 2.0),
        lo_p=st.floats(-6.0, 2.0),
        h_q=st.floats(1e-3, 1.0),
        h_p=st.floats(1e-3, 1.0),
        name=st.sampled_from(sorted(GENERATOR_OBSERVABLES)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_gradient_oracle(self, n_q, n_p, lo_q, lo_p, h_q, h_p, name, seed):
        # 1e-14 of max|A_op f|: both sides take the same stencil and differ
        # only in where 1/(2h) is applied and in the order of the end-stencil
        # terms, a few ulps of the largest term per entry.
        assume(n_q != n_p)
        qgrid = Grid1D(lo_q, lo_q + h_q * (n_q - 1), n_q)
        pgrid = Grid1D(lo_p, lo_p + h_p * (n_p - 1), n_p)
        obs = GENERATOR_OBSERVABLES[name]
        f = np.random.default_rng(seed).standard_normal((n_q, n_p))
        expected = reference_liouville_generator(f, qgrid, pgrid, obs)
        out = apply_liouville_generator(f, qgrid, pgrid, obs)
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_pde_evolve_matches_gradient_euler_loop(self):
        # 1e-13 of the peak: about a hundred Euler steps, each within a few
        # ulps of the oracle's step, and explicit Euler at the stability
        # bound does not amplify the difference.
        g = Grid1D(-8.0, 8.0, 32)
        rho = build_gaussian_phase_density(g, g, 1.1, 1.2, center_q=0.4, center_p=-0.3)
        out = _pde_evolve(rho, GENERAL_XI, 0.05)
        expected = reference_pde_evolve(rho, GENERAL_XI, 0.05)
        assert np.max(np.abs(out.values - expected)) <= 1e-13 * float(rho.values.max())

    @pytest.mark.parametrize("n_q, n_p", [(2, 5), (5, 2)])
    def test_two_node_axis_rejected_with_its_length(self, n_q, n_p):
        qgrid, pgrid = Grid1D(-1.0, 1.0, n_q), Grid1D(-1.0, 1.0, n_p)
        values = np.ones((n_q, n_p))
        with pytest.raises(InvariantViolation, match="grid has 2"):
            apply_liouville_generator(values, qgrid, pgrid, GENERAL_XI)
        rho = phase_density_from_values(qgrid, pgrid, values)
        with pytest.raises(InvariantViolation, match="grid has 2"):
            reduced_state_post_cm(rho, GENERAL_XI, 0.1)


# The joint-state properties: state centres in [-1, 1]^2 and widths in
# [1.2, 1.4], so +-6 sigma fits the +-10 (q, p) grids; the probe and the
# coupling of the benchmark's joint-state operations. The Q grids hold eps*A
# wherever the state has mass, with margins of at least 5 sigma_Q.
JOINT_STATES = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(1.2, 1.4), st.floats(1.2, 1.4)
)
JOINT_CASES = {
    "position": (POSITION, (-12.0, 12.0)),
    "action": (ACTION_LINEAR, (-6.0, 40.0)),
}
JOINT_PROBE = ProbeSpec(sigma_Q=1.0, sigma_P=0.6)
JOINT_COUPLING = CouplingParams.from_probe(0.7, JOINT_PROBE)


def _joint_inputs(state, kind, n_q, n_p, n_Q, n_P):
    cq, cp, sq, sp = state
    obs, (Q_lo, Q_hi) = JOINT_CASES[kind]
    qg, pg = Grid1D(-10.0, 10.0, n_q), Grid1D(-10.0, 10.0, n_p)
    rho = build_gaussian_phase_density(qg, pg, sq, sp, center_q=cq, center_p=cp)
    return rho, obs, Grid1D(Q_lo, Q_hi, n_Q), Grid1D(-3.8, 3.8, n_P)


class TestJointState:
    @settings(max_examples=60, deadline=None)
    @given(
        state=JOINT_STATES,
        kind=st.sampled_from(sorted(JOINT_CASES)),
        n_q=st.integers(5, 24),
        n_p=st.integers(5, 24),
        n_Q=st.integers(5, 24),
        n_P=st.integers(5, 24),
    )
    def test_matches_reference_construction(self, state, kind, n_q, n_p, n_Q, n_P):
        assume(n_Q != n_P)
        rho, obs, Qg, Pg = _joint_inputs(state, kind, n_q, n_p, n_Q, n_P)
        joint = {}
        for ordering in (ORDER_FLOW_SYSTEM, ORDER_FLOW_PRODUCT):
            dens = joint_state_post(rho, JOINT_PROBE, obs, JOINT_COUPLING, Qg, Pg, ordering).values()
            expected = reference_joint_density(rho, JOINT_PROBE, obs, JOINT_COUPLING, Qg, Pg, ordering)
            # 1e-14 of the peak: the same products of the same factors, in a
            # different association, a few ulps apart.
            assert np.max(np.abs(dens - expected)) <= 1e-14 * np.max(expected)
            # Exactly non-negative: a product of clipped samples and Gaussians.
            assert dens.min() >= 0.0
            joint[ordering] = dens
        # 1e-10, the bound of test_ordering_equivalence.
        assert np.max(np.abs(joint[ORDER_FLOW_SYSTEM] - joint[ORDER_FLOW_PRODUCT])) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        state=JOINT_STATES,
        kind=st.sampled_from(sorted(JOINT_CASES)),
        ordering=st.sampled_from([ORDER_FLOW_SYSTEM, ORDER_FLOW_PRODUCT]),
        n_q=st.integers(44, 52),
        n_p=st.integers(44, 52),
        n_Q=st.integers(48, 56),
        n_P=st.integers(14, 24),
    )
    def test_unit_mass_on_resolved_grids(self, state, kind, ordering, n_q, n_p, n_Q, n_P):
        # 1e-6, the bound of test_joint_state_total_mass_and_probe_marginal.
        # Unit mass needs every axis to resolve its Gaussian: the trapezoid
        # rule needs a step at most about one width, and the spline of the
        # flowed state one of about a third of the state's width. A 5-node
        # axis has neither, so the sizes here start where both hold.
        rho, obs, Qg, Pg = _joint_inputs(state, kind, n_q, n_p, n_Q, n_P)
        joint = joint_state_post(rho, JOINT_PROBE, obs, JOINT_COUPLING, Qg, Pg, ordering)
        assert abs(joint.mass() - 1.0) < 1e-6

    def test_position_kind_matches_hand_composition(self):
        g = Grid1D(-8.0, 8.0, 192)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.4, sigma_P=0.5)
        coupling = CouplingParams.from_probe(0.8, probe)
        Qg = Grid1D(-3.0, 3.0, 17)
        Pg = Grid1D(-2.0, 2.0, 15)
        joint = joint_state_post(rho, probe, POSITION, coupling, Qg, Pg)
        qq3, pp3, PP3 = np.meshgrid(g.nodes, g.nodes, Pg.nodes, indexing="ij")
        shifted = sample_phase_density(rho, qq3, pp3 + 0.8 * PP3)  # (nq, np, nP)
        pos = probe.position_density(
            Qg.nodes[None, None, :] - 0.8 * g.nodes[:, None, None]
        )  # (nq, 1 -> np broadcast, nQ)
        expected = (
            shifted[:, :, None, :]
            * pos[:, :, :, None]
            * probe.momentum_density(Pg.nodes)[None, None, None, :]
        )
        assert np.max(np.abs(joint.values() - expected)) < 1e-10

    def test_zero_coupling_gives_product(self):
        g = Grid1D(-8.0, 8.0, 96)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.4, sigma_P=0.5)
        coupling = CouplingParams(epsilon=0.0, tau=0.0)
        Qg = Grid1D(-2.0, 2.0, 9)
        Pg = Grid1D(-2.0, 2.0, 9)
        joint = joint_state_post(rho, probe, POSITION, coupling, Qg, Pg)
        product = (
            rho.values[:, :, None, None]
            * probe.position_density(Qg.nodes)[None, None, :, None]
            * probe.momentum_density(Pg.nodes)[None, None, None, :]
        )
        assert np.max(np.abs(joint.values() - product)) < 1e-12

    @pytest.mark.parametrize("obs", [POSITION, ACTION_LINEAR])
    def test_ordering_equivalence(self, obs):
        g = Grid1D(-8.0, 8.0, 64)
        rng = np.random.default_rng(17)
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.6)
        coupling = CouplingParams.from_probe(0.7, probe)
        Qg = Grid1D(-2.5, 2.5, 12)
        Pg = Grid1D(-2.5, 2.5, 12)
        worst = 0.0
        for _ in range(50):
            rho = random_gaussian_mixture(g, g, rng)
            a = joint_state_post(rho, probe, obs, coupling, Qg, Pg, ordering=ORDER_FLOW_PRODUCT)
            b = joint_state_post(rho, probe, obs, coupling, Qg, Pg, ordering=ORDER_FLOW_SYSTEM)
            worst = max(worst, float(np.max(np.abs(a.values() - b.values()))))
        assert worst < 1e-10

    def test_general_kind_rejected(self):
        g = Grid1D(-8.0, 8.0, 64)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.4, sigma_P=0.5)
        obs = general_observable(lambda q, p: q * p, lambda q, p: p, lambda q, p: q)
        with pytest.raises(UnsupportedObservable):
            joint_state_post(rho, probe, obs, CouplingParams(1.0, 0.1),
                             Grid1D(-1, 1, 4), Grid1D(-1, 1, 4))

    def test_joint_state_total_mass_and_probe_marginal(self):
        # Grids wide enough to hold the full joint state: unit mass, and
        # tracing out the system reproduces the direct probe marginal.
        g = Grid1D(-8.0, 8.0, 40)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.6)
        coupling = CouplingParams.from_probe(0.7, probe)
        Qg = Grid1D(-10.0, 10.0, 80)
        Pg = Grid1D(-3.8, 3.8, 48)
        joint = joint_state_post(rho, probe, POSITION, coupling, Qg, Pg)
        assert joint.mass() == pytest.approx(1.0, abs=1e-6)
        assert joint.values().min() >= 0.0
        direct = probe_marginal_Q(rho, probe, POSITION, coupling, Qg)
        assert np.max(np.abs(joint.probe_position_marginal() - direct)) < 1e-6


class TestProbeMarginal:
    def test_constant_observable_is_pure_shift(self):
        g = Grid1D(-8.0, 8.0, 128)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.5, probe)
        c = 0.8
        obs = general_observable(
            lambda q, p: np.full_like(q, c), lambda q, p: 0.0 * q, lambda q, p: 0.0 * q
        )
        Qg = Grid1D(-4.0, 6.0, 512)
        out = probe_marginal_Q(rho, probe, obs, coupling, Qg)
        expected = probe.position_density(Qg.nodes - 1.5 * c)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_gaussian_system_gaussian_probe_convolution(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        Qg = Grid1D(-9.0, 9.0, 1024)
        out = probe_marginal_Q(rho, probe, POSITION, coupling, Qg)
        var = 1.0 + 0.25
        expected = np.exp(-0.5 * Qg.nodes**2 / var) / np.sqrt(TWO_PI * var)
        assert np.max(np.abs(out - expected)) < 1e-8
        assert abs(Qg.integrate(out) - 1.0) < 1e-6

    def test_position_fast_path_matches_general_path(self):
        g = Grid1D(-8.0, 8.0, 128)
        rng = np.random.default_rng(23)
        rho = random_gaussian_mixture(g, g, rng)
        probe = ProbeSpec(sigma_Q=0.4, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        Qg = Grid1D(-9.0, 9.0, 256)
        fast = probe_marginal_Q(rho, probe, POSITION, coupling, Qg)
        slow = probe_marginal_Q(
            rho,
            probe,
            general_observable(lambda q, p: q + 0 * p, lambda q, p: 1 + 0 * q, lambda q, p: 0 * q),
            coupling,
            Qg,
        )
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_mean_symmetric_state_is_zero(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        assert abs(expectation(rho, POSITION)) < 1e-10

    def test_mean_shifted_state(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0, center_q=0.5)
        coupling = CouplingParams.from_sigma_P(2.0, 0.3)
        assert coupling.epsilon * expectation(rho, POSITION) == pytest.approx(1.0, abs=1e-8)

    def test_action_observable_mean_on_exponential_state(self):
        # Isotropic unit Gaussian in (xi, theta) is exp(-xi)/(2pi): <xi> = 1.
        xig = Grid1D(0.0, 36.0, 4097)
        tg = PeriodicGrid(64)
        aa = angle_density_from_function(
            xig, tg, lambda xi, th: np.exp(-xi) / TWO_PI, normalize=False
        )
        coupling = CouplingParams.from_sigma_P(1.0, 0.5)
        assert coupling.epsilon * expectation(aa, ACTION_LINEAR) == pytest.approx(1.0, abs=1e-4)
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        Qg = Grid1D(-5.0, 42.0, 2048)
        out = probe_marginal_Q(aa, probe, ACTION_LINEAR, coupling, Qg)
        moment = Qg.integrate(Qg.nodes * out)
        assert moment == pytest.approx(coupling.epsilon * expectation(aa, ACTION_LINEAR), abs=1e-8)


class TestReducedChannel:
    def test_zero_strength_is_identity(self):
        g = Grid1D(-8.0, 8.0, 128)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        assert reduced_state_post_cm(rho, POSITION, 0.0) is rho

    def test_position_diffusion_grows_p_variance_only(self):
        qg = Grid1D(-8.0, 8.0, 256)
        pg = Grid1D(-12.0, 12.0, 256)
        rho = build_gaussian_phase_density(qg, pg, 1.0, 1.0)
        tau = 0.3
        out = reduced_state_post_cm(rho, POSITION, tau)
        assert density_variance(pg, out.p_marginal()) == pytest.approx(1.0 + 2 * tau, abs=1e-4)
        assert np.max(np.abs(out.q_marginal() - rho.q_marginal())) < 1e-8
        assert abs(out.mass() - 1.0) < 1e-6
        assert out.values.min() >= 0.0

    def test_small_tau_spectral_path(self):
        qg = Grid1D(-8.0, 8.0, 256)
        pg = Grid1D(-12.0, 12.0, 256)
        rho = build_gaussian_phase_density(qg, pg, 1.0, 1.0)
        tau = 1e-4  # kernel narrower than two grid steps
        out = reduced_state_post_cm(rho, POSITION, tau)
        assert density_variance(pg, out.p_marginal()) == pytest.approx(1.0 + 2 * tau, abs=1e-6)
        assert np.max(np.abs(out.q_marginal() - rho.q_marginal())) < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(tau1=TAUS, tau2=TAUS)
    def test_semigroup_property(self, tau1, tau2):
        # Bound 1e-8, that of the pinned (0.4, 0.6) pair this property replaces.
        qg = Grid1D(-8.0, 8.0, 256)
        pg = Grid1D(-14.0, 14.0, 384)
        rng = np.random.default_rng(3)
        rho = random_gaussian_mixture(qg, pg, rng)
        two_step = reduced_state_post_cm(reduced_state_post_cm(rho, POSITION, tau1), POSITION, tau2)
        one_step = reduced_state_post_cm(rho, POSITION, tau1 + tau2)
        assert np.max(np.abs(two_step.values - one_step.values)) < 1e-8

    def test_mixture_linearity(self):
        qg = Grid1D(-8.0, 8.0, 192)
        pg = Grid1D(-10.0, 10.0, 192)
        rng = np.random.default_rng(8)
        a = random_gaussian_mixture(qg, pg, rng)
        b = random_gaussian_mixture(qg, pg, rng)
        mixed = phase_density_from_values(
            qg, pg, 0.4 * a.values + 0.6 * b.values, normalize=False
        )
        tau = 0.5
        lhs = reduced_state_post_cm(mixed, POSITION, tau).values
        rhs = (
            0.4 * reduced_state_post_cm(a, POSITION, tau).values
            + 0.6 * reduced_state_post_cm(b, POSITION, tau).values
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_isotropic_action_state_is_fixed_point(self):
        xig = Grid1D(0.0, 24.0, 256)
        tg = PeriodicGrid(128)
        aa = angle_density_from_function(xig, tg, lambda xi, th: np.exp(-xi) / TWO_PI)
        out = reduced_state_post_cm(aa, ACTION_LINEAR, 0.8)
        assert np.max(np.abs(out.values - aa.values)) < 1e-12

    def test_action_kind_on_cartesian_state(self):
        # Anisotropic Gaussian, A(xi) = xi, strong coupling: the result is the
        # angle-averaged (Bessel) profile expressed back in (q, p).
        from vnlab.scenarios import bessel_angle_average

        half = 8.0 * 1.5
        g = Grid1D(-half, half, 384)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.5)
        out = reduced_state_post_cm(rho, ACTION_LINEAR, 60.0)
        assert abs(out.mass() - 1.0) < 1e-4
        qq, pp = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        xi = 0.5 * (qq**2 + pp**2)
        expected = bessel_angle_average(1.0, 1.5, xi)
        inside = xi <= 18.0
        assert np.max(np.abs(out.values - expected)[inside]) < 2e-3

    def test_semigroup_across_kernel_widths(self):
        # A kernel narrower than two grid steps composed with a wide one
        # still matches the single wide-kernel application.
        qg = Grid1D(-8.0, 8.0, 256)
        pg = Grid1D(-14.0, 14.0, 384)
        rho = build_gaussian_phase_density(qg, pg, 1.0, 1.0)
        tiny, big = 5e-4, 0.5
        two_step = reduced_state_post_cm(
            reduced_state_post_cm(rho, POSITION, tiny), POSITION, big
        )
        one_step = reduced_state_post_cm(rho, POSITION, tiny + big)
        assert np.max(np.abs(two_step.values - one_step.values)) < 1e-8

    def test_general_kind_pde_conserves_mass(self):
        qg = Grid1D(-9.0, 9.0, 160)
        pg = Grid1D(-9.0, 9.0, 160)
        rho = build_gaussian_phase_density(qg, pg, 1.0, 1.0)
        obs = general_observable(
            lambda q, p: 0.5 * q**2, lambda q, p: q + 0 * p, lambda q, p: 0.0 * q
        )
        out = reduced_state_post_cm(rho, obs, 0.05)
        assert abs(out.mass() - 1.0) < 1e-6
        assert out.values.min() > -1e-10  # monitored, not guaranteed

    @pytest.mark.parametrize("peak, low, refused", [
        (0.5, 2.0 * NEGATIVITY_MONITOR, True),
        (1.0, 2.0 * NEGATIVITY_MONITOR, True),
        (1.6e6, -1.861e-10, False),
        (1.6e6, 1.0001 * 1.6e6 * NEGATIVITY_MONITOR, True),
    ], ids=["below-one", "at-one", "roundoff-on-1.6e6", "past-relative"])
    def test_negativity_monitor_is_relative_above_a_peak_of_one(self, peak, low, refused):
        # Up to a peak of 1 the monitor is the absolute NEGATIVITY_MONITOR; above it the
        # monitor scales with the peak, since FFT roundoff does (-1.861e-10 is what
        # evolve-cm reads at sigma_q 1e-7, peak 1.6e6).
        values = np.array([[peak, low], [0.0, 0.25 * peak]])
        if refused:
            with pytest.raises(InvariantViolation, match="beyond monitor"):
                _monitored_clip(values, "test")
        else:
            assert np.array_equal(_monitored_clip(values, "test"),
                                  [[peak, 0.0], [0.0, 0.25 * peak]])

    def test_general_kind_matches_position_solution_for_A_eq_q(self):
        # A = q expressed as a general observable must agree with the exact path.
        qg = Grid1D(-8.0, 8.0, 192)
        pg = Grid1D(-10.0, 10.0, 192)
        rho = build_gaussian_phase_density(qg, pg, 1.0, 1.0)
        obs = general_observable(
            lambda q, p: q + 0 * p, lambda q, p: 1.0 + 0 * q, lambda q, p: 0.0 * q
        )
        tau = 0.1
        pde = reduced_state_post_cm(rho, obs, tau)
        exact = reduced_state_post_cm(rho, POSITION, tau)
        assert np.max(np.abs(pde.values - exact.values)) < 5e-4

    def test_pde_path_matches_spectral_solution(self):
        # Dual route: A(xi) = xi written as a general observable and stepped
        # through the PDE against the exact Fourier-damped solution.
        half = 8.0
        g = Grid1D(-half, half, 128)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.3)
        tau = 0.05
        pde = reduced_state_post_cm(rho, GENERAL_XI, tau)
        exact = reduced_state_post_cm(rho, ACTION_LINEAR, tau)
        scale = float(rho.values.max())
        assert np.max(np.abs(pde.values - exact.values)) / scale < 5e-3
        assert abs(pde.mass() - 1.0) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        sigma_q=st.floats(0.5, 1.1),
        sigma_p=st.floats(0.5, 1.5),
        center_q=st.floats(-1.0, 1.0),
        center_p=st.floats(-2.0, 2.0),
        tau=st.floats(0.0, 2.0),
    )
    def test_position_measurement_adds_two_tau(self, sigma_q, sigma_p, center_q, center_p, tau):
        """Var p after the position-kind channel is sigma_p^2 + 2 tau; the q-marginal stays.

        Grids as in ``evolve-cm``: 256 nodes on q in +-8, and 256 on a p range
        of +-8 sqrt(sigma_p^2 + 2 tau) around the centre. The tolerances are
        that command's ``variance_growth`` and ``q_marginal_drift`` checks.
        """
        tol = DEFAULT_TOLERANCES["evolve-cm"]
        qg = Grid1D(-8.0, 8.0, 256)
        p_half = 8.0 * np.sqrt(sigma_p**2 + 2.0 * tau)
        pg = Grid1D(center_p - p_half, center_p + p_half, 256)
        rho = build_gaussian_phase_density(
            qg, pg, sigma_q, sigma_p, center_q=center_q, center_p=center_p
        )
        out = reduced_state_post_cm(rho, POSITION, tau)
        var = density_variance(pg, out.p_marginal())
        assert abs(var - (sigma_p**2 + 2.0 * tau)) <= tol["variance_growth"]
        drift = np.max(np.abs(out.q_marginal() - rho.q_marginal()))
        assert drift <= tol["q_marginal_drift"]

    def test_negative_tau_rejected(self):
        g = Grid1D(-8.0, 8.0, 64)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        from vnlab import InvariantViolation

        with pytest.raises(InvariantViolation):
            reduced_state_post_cm(rho, POSITION, -0.1)


class TestFourierModeDamping:
    """Both exact channels as one Fourier-mode damping, against reference solvers.

    The references are ``tests/oracles.py``'s real-space p convolution (with
    its unpadded spectral branch below two grid steps) and complex-FFT angle
    solver. The 1e-11 of the peak bounds the reference's own kernel cut at
    7 sigma, whose tail is exp(-24.5) = 2e-11 of the kernel's peak; the
    marginal and variance bounds are roundoff of the transforms.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        n_q=st.integers(24, 64),
        n_p=st.integers(128, 300),
        sigma_q=st.floats(0.5, 1.1),
        sigma_p=st.floats(0.6, 1.5),
        center_q=st.floats(-1.0, 1.0),
        center_p=st.floats(-2.0, 2.0),
        tau=LOG_TAUS,
    )
    def test_position_kind(self, n_q, n_p, sigma_q, sigma_p, center_q, center_p, tau):
        qg = Grid1D(-8.0, 8.0, n_q)
        p_half = 8.0 * np.sqrt(sigma_p**2 + 2.0 * tau)
        pg = Grid1D(center_p - p_half, center_p + p_half, n_p)
        rho = build_gaussian_phase_density(
            qg, pg, sigma_q, sigma_p, center_q=center_q, center_p=center_p
        )
        out = reduced_state_post_cm(rho, POSITION, tau)
        reference = diffuse_rows_p_reference(rho.values, pg.h, np.sqrt(2.0 * tau))
        peak = float(reference.max())
        assert np.max(np.abs(out.values - reference)) <= 1e-11 * peak
        q_before = rho.q_marginal()
        assert np.max(np.abs(out.q_marginal() - q_before)) <= 1e-12 * float(q_before.max())
        var_before = density_variance(pg, rho.p_marginal())
        var_after = density_variance(pg, out.p_marginal())
        assert abs(var_after - var_before - 2.0 * tau) <= 1e-12 * var_after

    @settings(max_examples=60, deadline=None)
    @given(
        n_xi=st.integers(16, 48),
        n_theta=st.integers(160, 321),
        sigma_q=st.floats(0.6, 1.2),
        sigma_p=st.floats(0.6, 1.2),
        center_q=st.floats(-1.5, 1.5),
        center_p=st.floats(-1.5, 1.5),
        tau=LOG_TAUS,
        rate=st.sampled_from(["constant", "linear"]),
    )
    def test_action_kind(self, n_xi, n_theta, sigma_q, sigma_p, center_q, center_p, tau, rate):
        # An off-centre Gaussian written in (xi, theta), out to 6 widths past its
        # centre. From 160 theta nodes the arc step at that reach is below 0.6 of
        # the narrower width, so the damped samples ring below zero by less than
        # roundoff and the clip moves nothing (at 64 nodes it moved 1e-12).
        reach = np.hypot(center_q, center_p) + 6.0 * max(sigma_q, sigma_p)
        xig = Grid1D(0.0, 0.5 * reach**2, n_xi)
        tg = PeriodicGrid(n_theta)

        def gaussian(xi, th):
            r = np.sqrt(2.0 * xi)
            return np.exp(
                -0.5 * ((r * np.cos(th) - center_q) / sigma_q) ** 2
                - 0.5 * ((r * np.sin(th) - center_p) / sigma_p) ** 2
            )

        aa = angle_density_from_function(xig, tg, gaussian)
        obs = ACTION_LINEAR if rate == "constant" else action_observable(
            lambda xi: 0.5 * xi**2, lambda xi: xi
        )
        out = angle_spectral_solve(aa, obs, tau)
        reference = angle_solve_reference(aa.values, obs.dA_dxi(xig.nodes) ** 2, tau)
        assert np.max(np.abs(out.values - reference)) <= 1e-11 * float(reference.max())
        xi_before = aa.xi_marginal()
        assert np.max(np.abs(out.xi_marginal() - xi_before)) <= 1e-12 * float(xi_before.max())

    def test_kernel_wider_than_the_p_grid_refused(self):
        # 16 p nodes, so a missing refusal would transform rows of only
        # 16 + pad nodes. The kernel reaches ceil(7 sqrt(2 tau) / h) nodes:
        # 16 runs, 17 is refused, naming sqrt(2*tau) and the grid's span.
        # At 16 the uniform state spills 11% of its mass, which is lost at
        # both ends as in the reference's absorbing convolution (a periodic
        # transform would keep it and differ by 0.4 of the peak).
        qg = Grid1D(-1.0, 1.0, 8)
        pg = Grid1D(-4.0, 4.0, 16)
        rho = phase_density_from_values(qg, pg, np.ones((8, 16)))

        def tau_reaching(nodes):
            return 0.5 * ((nodes - 0.5) * pg.h / 7.0) ** 2

        out = reduced_state_post_cm(rho, POSITION, tau_reaching(16)).values
        reference = diffuse_rows_p_reference(rho.values, pg.h, np.sqrt(2.0 * tau_reaching(16)))
        assert np.max(np.abs(out - reference)) <= 1e-11 * float(reference.max())
        with pytest.raises(InvariantViolation, match=r"sqrt\(2\*tau\) = 1\.257 .*span 8\b"):
            reduced_state_post_cm(rho, POSITION, tau_reaching(17))


class TestDiffusionRhs:
    def test_position_matches_analytic_second_derivative(self):
        qg = Grid1D(-6.0, 6.0, 256)
        pg = Grid1D(-12.0, 12.0, 256)
        rho = build_gaussian_phase_density(qg, pg, 1.0, 2.0)
        rhs = cm_diffusion_rhs(rho, POSITION)
        qq, pp = np.meshgrid(qg.nodes, pg.nodes, indexing="ij")
        analytic = rho.values * (pp**2 / 16.0 - 0.25)
        assert np.max(np.abs(rhs - analytic)) < 1e-4

    def test_constant_density_gives_zero(self):
        g = Grid1D(-2.0, 2.0, 64)
        rho = phase_density_from_values(g, g, np.ones((64, 64)), normalize=False)
        assert np.max(np.abs(cm_diffusion_rhs(rho, POSITION))) == 0.0

    def test_finite_difference_of_channel_matches_rhs(self):
        qg = Grid1D(-8.0, 8.0, 384)
        pg = Grid1D(-12.0, 12.0, 384)
        rho = build_gaussian_phase_density(qg, pg, 1.0, 2.0)
        tau0, dtau = 0.25, 1e-3
        plus = reduced_state_post_cm(rho, POSITION, tau0 + dtau)
        minus = reduced_state_post_cm(rho, POSITION, tau0 - dtau)
        fd = (plus.values - minus.values) / (2 * dtau)
        rhs = cm_diffusion_rhs(reduced_state_post_cm(rho, POSITION, tau0), POSITION)
        assert np.max(np.abs(fd - rhs)) < 1e-3


class TestAngleSpectralSolver:
    def test_single_mode_damps_exactly(self):
        xig = Grid1D(0.0, 20.0, 128)
        tg = PeriodicGrid(128)
        f = np.exp(-xig.nodes)
        vals = f[:, None] * (1.0 + np.cos(tg.nodes))[None, :] / TWO_PI
        aa = AngleActionDensity(xig, tg, vals)
        tau = 0.7
        out = angle_spectral_solve(aa, ACTION_LINEAR, tau)
        expected = f[:, None] * (1.0 + np.exp(-tau) * np.cos(tg.nodes))[None, :] / TWO_PI
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_strong_coupling_isotropizes(self):
        xig = Grid1D(0.0, 20.0, 128)
        tg = PeriodicGrid(128)
        vals = np.exp(-xig.nodes)[:, None] * (1.0 + 0.8 * np.cos(tg.nodes) + 0.3 * np.sin(2 * tg.nodes))
        aa = AngleActionDensity(xig, tg, vals / TWO_PI)
        out = angle_spectral_solve(aa, ACTION_LINEAR, 40.0)
        uniform = np.mean(aa.values, axis=1)
        assert np.max(np.abs(out.values - uniform[:, None])) < 1e-10

    def test_uniform_input_unchanged(self):
        xig = Grid1D(0.0, 20.0, 64)
        tg = PeriodicGrid(64)
        aa = angle_density_from_function(xig, tg, lambda xi, th: np.exp(-xi) / TWO_PI)
        out = angle_spectral_solve(aa, ACTION_LINEAR, 1.3)
        assert np.max(np.abs(out.values - aa.values)) < 1e-14

    def test_xi_marginal_preserved(self):
        xig = Grid1D(0.0, 20.0, 96)
        tg = PeriodicGrid(96)
        vals = np.exp(-xig.nodes)[:, None] * (1.0 + 0.5 * np.cos(3 * tg.nodes))
        aa = AngleActionDensity(xig, tg, vals / TWO_PI)
        out = angle_spectral_solve(aa, ACTION_LINEAR, 0.9)
        assert np.max(np.abs(out.xi_marginal() - aa.xi_marginal())) < 1e-10

    def test_high_mode_is_damped_not_dropped(self):
        # Every mode the theta grid holds is kept: m = 70 of 256 nodes is
        # damped by exp(-70^2 tau), to the bound of test_single_mode_damps_exactly.
        xig = Grid1D(0.0, 10.0, 32)
        tg = PeriodicGrid(256)
        f = np.exp(-xig.nodes)
        aa = AngleActionDensity(xig, tg, f[:, None] * (1.0 + 0.5 * np.cos(70 * tg.nodes)) / TWO_PI)
        tau = 1e-4
        out = angle_spectral_solve(aa, ACTION_LINEAR, tau)
        damp = np.exp(-(70**2) * tau)
        expected = f[:, None] * (1.0 + 0.5 * damp * np.cos(70 * tg.nodes)) / TWO_PI
        assert np.max(np.abs(out.values - expected)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(tau1=TAUS, tau2=TAUS)
    def test_semigroup_property(self, tau1, tau2):
        # Bound 1e-12, that of test_single_mode_damps_exactly: each mode is
        # damped by a closed-form factor, so only roundoff separates the paths.
        xig = Grid1D(0.0, 20.0, 128)
        tg = PeriodicGrid(128)
        vals = np.exp(-xig.nodes)[:, None] * (1.0 + 0.8 * np.cos(tg.nodes) + 0.3 * np.sin(2 * tg.nodes))
        aa = AngleActionDensity(xig, tg, vals / TWO_PI)
        two_step = angle_spectral_solve(angle_spectral_solve(aa, ACTION_LINEAR, tau1), ACTION_LINEAR, tau2)
        one_step = angle_spectral_solve(aa, ACTION_LINEAR, tau1 + tau2)
        assert np.max(np.abs(two_step.values - one_step.values)) < 1e-12

    def test_xi_dependent_rate(self):
        # dA/dxi = xi damps the m-th mode by exp(-m^2 xi^2 tau) at each xi.
        xig = Grid1D(0.0, 4.0, 64)
        tg = PeriodicGrid(64)
        obs = action_observable(lambda xi: 0.5 * xi**2, lambda xi: xi)
        vals = np.outer(np.exp(-xig.nodes), 1.0 + 0.6 * np.cos(tg.nodes)) / TWO_PI
        aa = AngleActionDensity(xig, tg, vals)
        tau = 0.5
        out = angle_spectral_solve(aa, obs, tau)
        damp = np.exp(-xig.nodes**2 * tau)
        expected = (
            np.exp(-xig.nodes)[:, None]
            * (1.0 + 0.6 * damp[:, None] * np.cos(tg.nodes)[None, :])
            / TWO_PI
        )
        assert np.max(np.abs(out.values - expected)) < 1e-12


class TestStrongCouplingLimit:
    def test_uniform_is_fixed_point(self):
        xig = Grid1D(0.0, 12.0, 48)
        tg = PeriodicGrid(48)
        aa = angle_density_from_function(xig, tg, lambda xi, th: np.exp(-xi) / TWO_PI)
        out = strong_coupling_limit_cm(aa)
        assert np.max(np.abs(out.values - aa.values)) < 1e-15

    def test_matches_quadrature_average(self):
        xig = Grid1D(0.0, 12.0, 48)
        tg = PeriodicGrid(256)
        vals = np.exp(-xig.nodes)[:, None] * np.exp(0.7 * np.cos(tg.nodes))[None, :]
        aa = AngleActionDensity(xig, tg, vals / TWO_PI)
        out = strong_coupling_limit_cm(aa)
        oracle = (aa.values @ tg.weights) / TWO_PI
        assert np.max(np.abs(out.values[:, 0] - oracle)) < 1e-14


class TestConditionalState:
    def test_q_marginal_concentrates_at_selected_position(self):
        qg = Grid1D(-8.0, 8.0, 1281)
        pg = Grid1D(-10.0, 10.0, 192)
        rho = build_gaussian_phase_density(qg, pg, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.05, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        q0 = 0.5
        out = conditional_state_cm(rho, probe, POSITION, coupling, Q=coupling.epsilon * q0)
        window = np.abs(qg.nodes - q0) <= 3 * probe.sigma_Q / coupling.epsilon
        masked = np.where(window[:, None], out.values, 0.0)
        assert grid2d_integrate(qg, pg, masked) > 0.99

    def test_zero_strength_momentum_profile_unchanged(self):
        qg = Grid1D(-8.0, 8.0, 641)
        pg = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(qg, pg, 1.0, 1.2)
        probe = ProbeSpec(sigma_Q=0.05, sigma_P=0.0)
        coupling = CouplingParams.from_probe(1.0, probe)
        out = conditional_state_cm(rho, probe, POSITION, coupling, Q=0.3)
        profile = out.p_marginal()
        profile /= pg.integrate(profile)
        expected = np.exp(-0.5 * (pg.nodes / 1.2) ** 2) / np.sqrt(TWO_PI * 1.2**2)
        assert np.max(np.abs(profile - expected)) < 1e-6

    def test_momentum_variance_grows_by_2tau(self):
        qg = Grid1D(-8.0, 8.0, 641)
        pg = Grid1D(-12.0, 12.0, 256)
        rho = build_gaussian_phase_density(qg, pg, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.05, sigma_P=0.8)
        coupling = CouplingParams.from_probe(1.0, probe)
        out = conditional_state_cm(rho, probe, POSITION, coupling, Q=0.0)
        var = density_variance(pg, out.p_marginal())
        assert var == pytest.approx(1.0 + 2 * coupling.tau, abs=1e-4)

    def test_negligible_probability_raises(self):
        qg = Grid1D(-8.0, 8.0, 128)
        rho = build_gaussian_phase_density(qg, qg, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.05, sigma_P=0.5)
        coupling = CouplingParams.from_probe(1.0, probe)
        with pytest.raises(NegligibleProbability):
            conditional_state_cm(rho, probe, POSITION, coupling, Q=7.9)

    def test_non_position_observable_rejected(self):
        qg = Grid1D(-8.0, 8.0, 64)
        rho = build_gaussian_phase_density(qg, qg, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.1, sigma_P=0.5)
        with pytest.raises(UnsupportedObservable):
            conditional_state_cm(rho, probe, ACTION_LINEAR, CouplingParams(1.0, 0.1), Q=0.0)
