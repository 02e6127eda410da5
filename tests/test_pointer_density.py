"""The pointer record: one smear of the distribution of A for both theories.

``ProbeSpec.pointer_density`` computes sum_k w_k rho_pi(Q - eps a_k) in
chunks of at most 2^16 kernel values. It is checked against the one-value-at-
a-time loop in ``oracles.py`` and, over off-centre random states, for the two
properties Table 1 row 1 rests on: unit mass and mean eps <A>.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlab import CouplingParams, Grid1D, ProbeSpec, SpectralObservable
from vnlab.cm import auto_probe_grid, probe_marginal_Q
from vnlab.observables import general_observable, position_observable
from vnlab.qm import pointer_distribution
from vnlab.states import build_gaussian_phase_density, expectation, gaussian_wavepacket

from helpers import density_from_wavefunction, pointer_mean
from oracles import pointer_density_loop

UNIT = np.finfo(float).eps

# C1's tolerance (evolve-qm's "pointer_normalization" and "pointer_mean").
RECORD_TOLERANCE = 1e-8


def summation_bound(probe, Q, values, weights, epsilon):
    """How far two summation orders of the same K terms can differ, pointwise.

    Each order is within (K - 1) u sum_k |w_k rho_k| of the exact sum (Higham,
    Accuracy and Stability, 4.2), so two orders are within twice that.
    """
    magnitude = pointer_density_loop(probe, Q, values, np.abs(weights), epsilon)
    return 2.0 * len(values) * UNIT * magnitude


class TestKernelAgainstLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_values=st.integers(1, 600),
        n_Q=st.integers(1, 700),
        sigma_Q=st.floats(0.05, 2.0),
        epsilon=st.floats(0.0, 3.0),
    )
    def test_matches_the_loop_within_summation_error(self, seed, n_values, n_Q, sigma_Q, epsilon):
        rng = np.random.default_rng(seed)
        probe = ProbeSpec(sigma_Q=sigma_Q, sigma_P=0.5)
        values = rng.uniform(-3.0, 3.0, n_values)
        weights = rng.normal(size=n_values)  # signed: the bound must not rely on cancellation-free sums
        Q = np.sort(rng.uniform(-12.0, 12.0, n_Q))
        out = probe.pointer_density(Q, values, weights, epsilon)
        ref = pointer_density_loop(probe, Q, values, weights, epsilon)
        assert out.shape == (n_Q,)
        assert np.all(np.abs(out - ref) <= summation_bound(probe, Q, values, weights, epsilon))

    @pytest.mark.parametrize(
        "n_values, n_Q",
        [(2**16 + 3, 5), (1000, 200), (2**16, 3)],
        ids=["more-values-than-a-chunk", "ragged-last-chunk", "one-row-chunks"],
    )
    def test_chunk_edges(self, n_values, n_Q):
        # 2^16 + 3 and 2^16 values leave one Q row per chunk; 1000 values give
        # 65-row chunks, so 200 rows end in a chunk of 5.
        rng = np.random.default_rng(n_values)
        probe = ProbeSpec(sigma_Q=0.3, sigma_P=0.5)
        values = rng.uniform(-2.0, 2.0, n_values)
        weights = rng.random(n_values) / n_values
        Q = np.linspace(-4.0, 4.0, n_Q)
        out = probe.pointer_density(Q, values, weights, 1.3)
        ref = pointer_density_loop(probe, Q, values, weights, 1.3)
        assert np.all(np.abs(out - ref) <= summation_bound(probe, Q, values, weights, 1.3))

    def test_stacked_weights_give_each_vector_its_own_bits(self):
        rng = np.random.default_rng(5)
        probe = ProbeSpec(sigma_Q=0.2, sigma_P=0.5)
        values = np.linspace(-1.0, 1.0, 300)
        stack = rng.random((3, 300))
        Q = np.linspace(-3.0, 3.0, 777)
        records = probe.pointer_density(Q, values, stack, 0.8)
        assert records.shape == (3, 777)
        for record, w in zip(records, stack):
            assert np.array_equal(record, probe.pointer_density(Q, values, w, 0.8))


CENTRES = st.floats(-2.0, 2.0)
WIDTHS = st.floats(0.5, 1.2)
EPSILONS = st.floats(0.3, 2.0)
PROBE_WIDTHS = st.floats(0.2, 1.0)


class TestRecordMassAndMean:
    """Over off-centre states the record has mass 1 and mean eps <A> (C1's 1e-8)."""

    @settings(max_examples=25, deadline=None)
    @given(centre=CENTRES, momentum=st.floats(-2.0, 2.0), sigma_x=WIDTHS,
           sigma_Q=PROBE_WIDTHS, epsilon=EPSILONS)
    def test_quantum_record(self, centre, momentum, sigma_x, sigma_Q, epsilon):
        xgrid = Grid1D(-10.0, 10.0, 256)
        psi = gaussian_wavepacket(xgrid, center=centre, momentum=momentum, sigma_x=sigma_x)
        rho = density_from_wavefunction(psi, xgrid)
        obs = SpectralObservable.from_diagonal(xgrid.nodes)
        probe = ProbeSpec(sigma_Q=sigma_Q, sigma_P=0.5)
        coupling = CouplingParams.from_probe(epsilon, probe)
        Qgrid = probe.pointer_grid(obs.eigenvalues, coupling.epsilon, 1024, 8.0)
        record = pointer_distribution(rho, obs, probe, coupling, Qgrid)
        assert abs(Qgrid.integrate(record) - 1.0) <= RECORD_TOLERANCE
        mean_over_eps = Qgrid.integrate(Qgrid.nodes * record) / epsilon
        assert abs(mean_over_eps - pointer_mean(rho, obs, coupling) / epsilon) <= RECORD_TOLERANCE

    @settings(max_examples=25, deadline=None)
    @given(centre_q=CENTRES, centre_p=CENTRES, sigma_q=WIDTHS, sigma_p=WIDTHS,
           sigma_Q=PROBE_WIDTHS, epsilon=EPSILONS, general=st.booleans())
    def test_classical_record(self, centre_q, centre_p, sigma_q, sigma_p, sigma_Q, epsilon,
                              general):
        grid = Grid1D(-10.0, 10.0, 128)
        rho = build_gaussian_phase_density(grid, grid, sigma_q, sigma_p, centre_q, centre_p)
        obs = (general_observable(lambda q, p: q + 0.5 * p, lambda q, p: 1.0 + 0.0 * q,
                                  lambda q, p: 0.5 + 0.0 * q)
               if general else position_observable())
        probe = ProbeSpec(sigma_Q=sigma_Q, sigma_P=0.5)
        coupling = CouplingParams.from_probe(epsilon, probe)
        Qgrid = auto_probe_grid(rho, obs, probe, coupling)
        record = probe_marginal_Q(rho, probe, obs, coupling, Qgrid)
        assert abs(Qgrid.integrate(record) - 1.0) <= RECORD_TOLERANCE
        mean_over_eps = Qgrid.integrate(Qgrid.nodes * record) / epsilon
        assert abs(mean_over_eps - expectation(rho, obs)) <= RECORD_TOLERANCE
