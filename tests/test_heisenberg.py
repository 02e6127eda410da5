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
from vnlab.cli import execute
from vnlab.grids import TWO_PI
from vnlab.heisenberg import (
    ActionEnsemble,
    Histogram,
    TrajectoryEnsemble,
    flow_action,
    flow_position,
    histogram_l1_distance,
    periodic_histogram_l1_distance,
    sample_chunks,
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

    @settings(max_examples=40, deadline=None)
    @given(
        rho=sampling_densities(),
        n=st.sampled_from([1, 3, 8191, 8193, 2 * 8192 + 5]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_streamed_chunks_match_full_blend_bitwise(self, rho, n, seed):
        # The three positioned Philox streams (offsets 0, n and 2n) read the
        # draws of one stream, also where n is not a multiple of 4 or of the chunk.
        probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.5)
        chunks = list(sample_chunks(rho, probe, n, seed))
        assert [sl.start for sl, _ in chunks] == list(range(0, n, 8192))
        assert chunks[-1][0].stop == n
        want = reference_sample_initial(rho, probe, n, seed)
        for name in ("q", "p", "Q", "P"):
            got = np.concatenate([getattr(chunk, name) for _, chunk in chunks])
            assert np.array_equal(got, getattr(want, name)), name

    def test_fewer_than_one_sample_refused(self):
        for n in (0, -1):
            with pytest.raises(InvariantViolation, match="at least one sample"):
                sample_initial(standard_state(), ProbeSpec(sigma_Q=0.5, sigma_P=0.5), n, seed=0)

    @pytest.mark.parametrize("branch, n, bound", [("position", 1_000_000, 2.0),
                                                  ("action", 3_200_000, 1.5)])
    def test_mc_compare_peak_is_one_array(self, tmp_path, branch, n, bound):
        # mc-compare flows and bins each chunk as it is drawn: its traced peak
        # is the sampler's array of Q plus fixed costs, in units of 8N 1.36 on
        # the position branch at 1e6 samples and 1.38 on the action branch at
        # 3.2e6, which writes Q' over Q and squares its deviations there. Holding
        # the ensembles took 6 x 8N; a second array of n for Q', or np.std's
        # temporary, reaches 2.1 x 8N on the action branch.
        config = {"command": "mc-compare", "parameters": {"n_samples": n, "branch": branch}}
        execute({**config, "parameters": {"n_samples": 10, "branch": branch}}, tmp_path / "w")
        tracemalloc.start()
        try:
            execute(config, tmp_path / "o")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * n

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


class TestHistogram:
    EDGES = np.linspace(-2.0, 3.0, 11)

    def edge_samples(self, rng):
        """Every edge and its neighbours one ulp either side, points out of
        range, NaN and infinities, among uniform draws, shuffled."""
        near = np.concatenate([self.EDGES, np.nextafter(self.EDGES, -np.inf),
                               np.nextafter(self.EDGES, np.inf)])
        odd = np.array([np.nan, np.inf, -np.inf, -1e300, 1e300, -2.5, 3.5, np.nan])
        samples = np.concatenate([near, odd, rng.uniform(-3.0, 4.0, 20000)])
        return rng.permutation(samples)

    @pytest.mark.parametrize("chunk", [1, 7, 4096, 10**6])
    def test_chunk_sums_are_the_whole_arrays_counts(self, chunk):
        samples = self.edge_samples(np.random.default_rng(chunk))
        hist = Histogram(-2.0, 3.0, 10)
        for start in range(0, samples.size, chunk):
            hist.add(samples[start:start + chunk])
        assert hist.n == samples.size
        assert np.array_equal(hist.edges, self.EDGES)
        assert np.array_equal(hist.counts, np.histogram(samples, bins=self.EDGES)[0])

    def test_l1_from_summed_counts_is_the_whole_arrays(self):
        rng = np.random.default_rng(3)
        grid = Grid1D(-2.0, 3.0, 200)
        density = np.exp(-0.5 * (grid.nodes - 0.3) ** 2)
        samples = np.concatenate([self.edge_samples(rng), rng.normal(0.3, 1.0, 30000)])
        hist = Histogram(grid.lo, grid.hi, 10)
        for start in range(0, samples.size, 8192):
            hist.add(samples[start:start + 8192])
        whole = Histogram(grid.lo, grid.hi, 10).add(samples)
        assert histogram_l1_distance(hist, grid, density) == histogram_l1_distance(
            whole, grid, density)
        assert np.array_equal(hist.counts, whole.counts)

    def test_periodic_l1_from_summed_counts_is_the_whole_arrays(self):
        rng = np.random.default_rng(4)
        nodes = np.arange(64) * TWO_PI / 64
        density = (1.0 + 0.5 * np.cos(nodes)) / TWO_PI
        samples = np.concatenate([rng.uniform(-10.0, 10.0, 30000),
                                  [0.0, -0.0, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0.0), np.nan]])
        hist = Histogram(0.0, TWO_PI, 24)
        for start in range(0, samples.size, 8192):
            hist.add(np.mod(samples[start:start + 8192], TWO_PI))
        whole = Histogram(0.0, TWO_PI, 24).add(np.mod(samples, TWO_PI))
        assert (periodic_histogram_l1_distance(hist, nodes, density)
                == periodic_histogram_l1_distance(whole, nodes, density))

    def test_range_other_than_the_grids_refused(self):
        hist = Histogram(-1.0, 1.0, 4).add(np.zeros(3))
        with pytest.raises(InvariantViolation, match="range"):
            histogram_l1_distance(hist, Grid1D(-1.0, 2.0, 5), np.ones(5))


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
        hist = Histogram(Qg.lo, Qg.hi, 24).add(ens.Q)
        assert histogram_l1_distance(hist, Qg, density) < 5.0 / np.sqrt(n)
        assert np.array_equal(hist.counts,
                              np.histogram(ens.Q, bins=np.linspace(-10.0, 10.0, 25))[0])


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
            Histogram(0.0, TWO_PI, 24).add(np.mod(ens.theta, TWO_PI)),
            solved.thetagrid.nodes, solved.theta_marginal()
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
