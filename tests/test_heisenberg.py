"""Trajectory ensembles: sampling, flow maps, picture equivalence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlab import (
    CouplingParams,
    Grid1D,
    InvariantViolation,
    ProbeSpec,
    action_observable,
    build_gaussian_phase_density,
    position_observable,
    to_angle_action,
)
from vnlab.cm import probe_marginal_Q, reduced_state_post_cm
from vnlab.heisenberg import (
    ActionEnsemble,
    TrajectoryEnsemble,
    flow_action,
    flow_position,
    histogram_l1_distance,
    periodic_histogram_l1_distance,
    sample_initial,
    to_action_ensemble,
)
from vnlab.states import phase_density_from_values

from helpers import random_gaussian_mixture, reference_sample_initial

QGRID = Grid1D(-8.0, 8.0, 256)
PGRID = Grid1D(-12.0, 12.0, 256)


def standard_state():
    return build_gaussian_phase_density(QGRID, PGRID, 1.0, 1.0)


@st.composite
def sampling_densities(draw):
    """Non-negative densities: a Gaussian mixture, a compact bump whose outer
    rows and columns are exactly zero, or spikes of one or two nodes per axis
    with exact-zero rows between them; grids from 2 nodes per axis."""
    qgrid = Grid1D(-6.0, 6.0, draw(st.integers(2, 300)))
    pgrid = Grid1D(-6.0, 6.0, draw(st.integers(2, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["mixture", "bump", "spikes"]))
    if family == "mixture":
        return random_gaussian_mixture(qgrid, pgrid, rng, k=int(rng.integers(1, 4)))
    if family == "spikes":
        # The guide's worst case: each row CDF is flat over most of the row,
        # so a guide bin spans many nodes and the finishing searches run.
        values = np.zeros((qgrid.n, pgrid.n))
        for _ in range(int(rng.integers(1, 6))):
            iq, ip = rng.integers(qgrid.n), rng.integers(pgrid.n)
            values[iq:iq + rng.integers(1, 3), ip:ip + rng.integers(1, 3)] += rng.uniform(0.1, 1.0)
        return phase_density_from_values(qgrid, pgrid, values)
    # Centred on a node, so at least one value is positive.
    cq = qgrid.nodes[rng.integers(qgrid.n)]
    cp = pgrid.nodes[rng.integers(pgrid.n)]
    rq, rp = rng.uniform(0.3, 6.0, size=2)
    qq, pp = np.meshgrid(qgrid.nodes, pgrid.nodes, indexing="ij")
    return phase_density_from_values(qgrid, pgrid, 1.0 - ((qq - cq) / rq) ** 2 - ((pp - cp) / rp) ** 2)


class TestSampling:
    def test_sample_variance_close_to_unity(self):
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        ens = sample_initial(standard_state(), probe, 100000, seed=7)
        assert 0.97 < np.var(ens.q) < 1.03
        assert 0.97 < np.var(ens.p) < 1.03

    def test_determinism_for_fixed_seed(self):
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        a = sample_initial(standard_state(), probe, 2000, seed=123)
        b = sample_initial(standard_state(), probe, 2000, seed=123)
        for name in ("q", "p", "Q", "P"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_zero_momentum_width_gives_exact_zeros(self):
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.0)
        ens = sample_initial(standard_state(), probe, 1000, seed=3)
        assert np.all(ens.P == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        rho=sampling_densities(),
        n=st.sampled_from([1, 8191, 8192, 8193, 20000]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_full_blend_bitwise(self, rho, n, seed):
        # Exact: the guided probes and the finishing searches evaluate the same
        # floating-point expressions as the full blend and, on a non-decreasing
        # row, land on its count.
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        got = sample_initial(rho, probe, n, seed)
        want = reference_sample_initial(rho, probe, n, seed)
        for name in ("q", "p", "Q", "P"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_peak_allocation_bounded_by_chunk(self):
        # mc-compare's position grid at 1e6 samples. Peak traced allocation in
        # units of 8N bytes: 4.1 when q and p are drawn in one chunk loop into
        # their own uniforms and the normals are drawn after it (the four
        # output arrays); 10.1 with the four draws made up front and q searched
        # over the whole ensemble at once; 22.2 when the p search is too. The
        # bound 5 separates them.
        rho = build_gaussian_phase_density(QGRID, PGRID, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.4, sigma_P=0.6)
        n = 1_000_000
        sample_initial(rho, probe, 10, seed=0)  # fill cached grid nodes
        tracemalloc.start()
        try:
            sample_initial(rho, probe, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * n

    def test_correlated_state_sampling(self):
        # A two-bump mixture: conditional momentum depends on position.
        qg = Grid1D(-8.0, 8.0, 256)
        pg = Grid1D(-8.0, 8.0, 256)
        qq, pp = np.meshgrid(qg.nodes, pg.nodes, indexing="ij")
        vals = np.exp(-0.5 * ((qq + 2) ** 2 + (pp + 1.5) ** 2)) + np.exp(
            -0.5 * ((qq - 2) ** 2 + (pp - 1.5) ** 2)
        )
        rho = phase_density_from_values(qg, pg, vals)
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        ens = sample_initial(rho, probe, 60000, seed=11)
        right = ens.q > 0
        # Overlap across q = 0 pulls the conditional mean below 1.5:
        # E[p | q > 0] = 1.5 * (Phi(2) - Phi(-2)) / 1 with Phi the unit CDF.
        from math import erf

        phi2 = 0.5 * (1.0 + erf(2.0 / np.sqrt(2.0)))
        expected = 1.5 * (2.0 * phi2 - 1.0)
        sem = np.std(ens.p[right]) / np.sqrt(right.sum())
        assert abs(np.mean(ens.p[right]) - expected) < 4 * sem
        assert abs(np.mean(ens.p[~right]) + expected) < 4 * sem


class TestEnsembles:
    @pytest.mark.parametrize("ensemble", [TrajectoryEnsemble, ActionEnsemble])
    def test_component_lengths_must_agree(self, ensemble):
        arrays = [np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3)]
        with pytest.raises(InvariantViolation, match="lengths differ"):
            ensemble(*arrays)
        ensemble(*arrays[:2], np.zeros(3), arrays[3])


class TestFlowPosition:
    def test_zero_coupling_is_identity(self):
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        ens = sample_initial(standard_state(), probe, 500, seed=1)
        out = flow_position(ens, CouplingParams(epsilon=0.0, tau=0.0))
        assert np.array_equal(out.p, ens.p)
        assert np.array_equal(out.Q, ens.Q)

    def test_conserved_components_untouched(self):
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=1.0)
        ens = sample_initial(standard_state(), probe, 500, seed=2)
        out = flow_position(ens, CouplingParams.from_probe(1.0, probe))
        assert out.q is ens.q
        assert out.P is ens.P

    def test_momentum_variance_addition(self):
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=1.0)
        n = 100000
        ens = sample_initial(standard_state(), probe, n, seed=5)
        out = flow_position(ens, CouplingParams.from_probe(1.0, probe))
        var = np.var(out.p)
        bound = 3.0 * np.sqrt(2.0 / n) * 2.0  # 3 sigma for a variance estimate
        assert abs(var - 2.0) < bound

    def test_pointer_histogram_matches_density(self):
        probe = ProbeSpec(sigma_Q=0.4, sigma_P=0.6)
        coupling = CouplingParams.from_probe(1.0, probe)
        n = 100000
        ens = flow_position(sample_initial(standard_state(), probe, n, seed=9), coupling)
        Qg = Grid1D(-10.0, 10.0, 1024)
        density = probe_marginal_Q(standard_state(), probe, position_observable(), coupling, Qg)
        l1, counts = histogram_l1_distance(ens.Q, Qg, density, bins=24)
        assert l1 < 5.0 / np.sqrt(n)
        assert np.array_equal(counts, np.histogram(ens.Q, bins=np.linspace(-10.0, 10.0, 25))[0])


class TestFlowAction:
    OBS = action_observable(lambda xi: xi, lambda xi: np.ones_like(xi))

    def test_zero_coupling_is_identity(self):
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        ens = to_action_ensemble(sample_initial(standard_state(), probe, 500, seed=4))
        out = flow_action(ens, self.OBS, CouplingParams(epsilon=0.0, tau=0.0))
        assert np.array_equal(out.theta, ens.theta)
        assert np.array_equal(out.Q, ens.Q)

    def test_cartesian_ensemble_refused(self):
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        ens = sample_initial(standard_state(), probe, 10, seed=4)
        with pytest.raises(InvariantViolation, match="ActionEnsemble, not TrajectoryEnsemble"):
            flow_action(ens, self.OBS, CouplingParams.from_probe(1.0, probe))

    def test_conserved_components_untouched(self):
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.7)
        ens = to_action_ensemble(sample_initial(standard_state(), probe, 500, seed=6))
        out = flow_action(ens, self.OBS, CouplingParams.from_probe(1.0, probe))
        assert out.xi is ens.xi
        assert out.P is ens.P

    def test_angle_histogram_matches_spectral_solver(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.3)
        probe = ProbeSpec(sigma_Q=0.4, sigma_P=0.6)
        coupling = CouplingParams.from_probe(1.0, probe)
        n = 100000
        ens0 = to_action_ensemble(sample_initial(rho, probe, n, seed=12))
        ens = flow_action(ens0, self.OBS, coupling)
        aa = to_angle_action(rho, n_xi=256, n_theta=256)
        solved = reduced_state_post_cm(aa, self.OBS, coupling.tau)
        l1 = periodic_histogram_l1_distance(
            ens.theta, solved.thetagrid.nodes, solved.theta_marginal(), bins=24
        )
        assert l1 < 5.0 / np.sqrt(n)

    def test_mean_pointer_shift_tracks_mean_action(self):
        g = Grid1D(-8.0, 8.0, 256)
        rho = build_gaussian_phase_density(g, g, 1.0, 1.0)
        probe = ProbeSpec(sigma_Q=0.4, sigma_P=0.6)
        coupling = CouplingParams.from_probe(1.0, probe)
        n = 100000
        ens0 = sample_initial(rho, probe, n, seed=13)
        out = flow_action(to_action_ensemble(ens0), self.OBS, coupling)
        xi0 = 0.5 * (ens0.q**2 + ens0.p**2)
        mc_mean = np.mean(out.Q) / coupling.epsilon
        sem = np.std(out.Q) / coupling.epsilon / np.sqrt(n)
        assert abs(mc_mean - np.mean(xi0)) < 3.0 * sem


class TestUncertaintyDisturbance:
    def test_momentum_kick_scale_from_trajectories(self):
        probe = ProbeSpec(sigma_Q=0.3, sigma_P=0.7)
        coupling = CouplingParams.from_probe(1.4, probe)
        n = 100000
        ens = sample_initial(standard_state(), probe, n, seed=21)
        out = flow_position(ens, coupling)
        kick = np.std(out.p - ens.p) / coupling.epsilon
        bound = 3.0 * 0.7 / np.sqrt(2.0 * n)
        assert abs(kick - 0.7) < bound
