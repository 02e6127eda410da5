"""The canned demonstrations: each runs green and reproduces its numbers."""

import math
import warnings

import numpy as np
import pytest

from vnlab import ProbeSpec, scenarios
from vnlab.errors import ConfigInvalid
from vnlab.grids import TWO_PI
from vnlab.scenarios import (
    SCENARIOS,
    bessel_angle_average,
    number_basis_initial_state,
    scenario_gaussian_bessel,
    scenario_interference,
    scenario_number_basis,
    scenario_two_delta,
)

from helpers import validate_density_operator


def failed(checks) -> list[dict]:
    """The checks that fail, as dicts, for an assertion's message."""
    return [c.as_dict() for c in checks if not c.passed]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_returns_checks_scalars_and_tables(name):
    # What execute writes: scalars into checks.json, each table into one CSV.
    checks, scalars, tables = SCENARIOS[name]()
    assert checks and not failed(checks), failed(checks)
    for key, value in scalars.items():
        assert isinstance(value, (bool, int, float)), (key, type(value))
    assert tables
    for filename, columns in tables.items():
        assert filename.endswith(".csv") and columns
        assert all(np.ndim(c) == 1 for c in columns.values()), filename
        assert len({len(c) for c in columns.values()}) == 1, filename


class TestTwoDelta:
    def test_defaults_resolve_two_positions(self):
        checks, scalars, _ = scenario_two_delta()
        assert not failed(checks), failed(checks)
        assert scalars["resolved"] is True
        assert scalars["n_peaks"] == 2

    def test_wide_probe_merges(self):
        probe = ProbeSpec(sigma_Q=2.0, sigma_P=0.3)
        checks, scalars, _ = scenario_two_delta(probe=probe)
        assert not failed(checks)
        assert scalars["n_peaks"] == 1
        assert scalars["resolved"] is False

    def test_coincident_positions_give_single_gaussian(self):
        checks, scalars, _ = scenario_two_delta(q0=0.4, q1=0.4)
        assert not failed(checks)
        assert scalars["n_peaks"] == 1

    def test_coincident_positions_run_the_merged_regime_checks(self):
        # A zero gap has resolution ratio inf >= 1: one peak, nothing resolved.
        checks, scalars, _ = scenario_two_delta(q0=0.4, q1=0.4)
        assert [c.description for c in checks] == [
            "probe marginal mass",
            "L1 distance to the two-Gaussian sum",
            "peak count in the merged regime",
        ]
        assert not failed(checks)
        assert scalars["resolution_ratio"] == np.inf
        assert scalars["resolved"] is False
        assert np.isnan(scalars["valley_ratio"])

    def test_deterministic_reruns(self):
        checks_a, _, tables_a = scenario_two_delta()
        checks_b, _, tables_b = scenario_two_delta()
        column = "density (1/Q units)"
        assert np.array_equal(tables_a["probe_marginal.csv"][column],
                              tables_b["probe_marginal.csv"][column])
        assert [c.as_dict() for c in checks_a] == [c.as_dict() for c in checks_b]


class TestInterference:
    def test_overlapping_packets_show_interference(self):
        checks, scalars, _ = scenario_interference()
        assert not failed(checks), failed(checks)
        assert scalars["interference_residual"] > 0.05
        assert scalars["mixture_residual"] <= 1e-12

    def test_single_component_has_no_cross_term(self):
        checks, scalars, _ = scenario_interference(alpha=1.0, beta=0.0)
        assert not failed(checks)
        assert scalars["interference_residual"] <= 1e-12

    def test_relative_phase_moves_the_pattern(self):
        checks_plus, _, plus = scenario_interference(alpha=1 / np.sqrt(2), beta=1 / np.sqrt(2))
        checks_minus, _, minus = scenario_interference(alpha=1 / np.sqrt(2), beta=-1 / np.sqrt(2))
        assert not failed(checks_plus) and not failed(checks_minus)
        # Opposite phases suppress opposite regions; the records differ.
        column = "superposition (1/Q units)"
        diff = np.max(np.abs(plus["pointer.csv"][column] - minus["pointer.csv"][column]))
        assert diff > 0.01


# The caller's field names that every number-basis refusal opens with.
FIELDS = "'sigma_qbar', 'sigma_pbar', 'dim' and 'hbar'"


class TestNumberBasis:
    def test_isotropic_widths_geometric(self):
        checks, _, tables = scenario_number_basis(sigma_qbar=1.0, sigma_pbar=1.0, dim=64)
        assert not failed(checks), failed(checks)
        p = tables["occupation.csv"]["probability"]
        ratios = p[1:10] / p[:9]
        assert np.max(np.abs(ratios - np.exp(-1.0))) < 1e-10

    def test_anisotropic_widths_off_diagonal_then_pinched(self):
        checks, scalars, _ = scenario_number_basis(sigma_qbar=1.0, sigma_pbar=1.6, dim=96)
        assert not failed(checks), failed(checks)
        assert scalars["initial_max_offdiagonal"] > 1e-6

    def test_occupations_sum_to_one(self):
        _, _, tables = scenario_number_basis(sigma_qbar=1.2, sigma_pbar=0.9, dim=96)
        assert abs(tables["occupation.csv"]["probability"].sum() - 1.0) < 1e-8

    def test_truncation_guard(self):
        with pytest.raises(ConfigInvalid, match=f"^{FIELDS}: dim=16 leaves \\|trace-1\\|"):
            number_basis_initial_state(FIELDS, 2.0, 2.0, dim=16)

    def test_initial_state_is_valid_density(self):
        rho = number_basis_initial_state(FIELDS, 1.0, 1.5, dim=64)
        validate_density_operator(rho)

    def test_mean_occupation_is_the_squeezed_thermal_one(self):
        # The closed form whose lower bound the width refusal uses:
        # <n> = (coth(x) cosh(l) - 1) / 2, x = hbar / (2 sigma_pbar sigma_qbar),
        # l = log(sigma_qbar / sigma_pbar); 1e-8 covers the truncated tail.
        sigma_qbar, sigma_pbar, hbar, dim = 1.2, 0.7, 0.8, 96
        rho = number_basis_initial_state(FIELDS, sigma_qbar, sigma_pbar, dim=dim, hbar=hbar)
        x = hbar / (2.0 * sigma_pbar * sigma_qbar)
        expected = (math.cosh(math.log(sigma_qbar / sigma_pbar)) / math.tanh(x) - 1.0) / 2.0
        occupation = float(np.real(np.diag(rho.matrix)) @ np.arange(dim))
        assert occupation == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize(
        "sigma_qbar, sigma_pbar, hbar, match",
        [
            (1e-300, 1.0, 1.0, "the mean occupation exceeds dim=64"),
            (1e-200, 1e200, 1.0, "the mean occupation exceeds dim=64"),
            (1e200, 1e200, 1.0, "the mean occupation exceeds dim=64"),
            (1e-3, 1e-3, 1.0, "hbar over twice the product of the widths, .* overflows its sinh"),
            (1.0, 1.0, 1e300, "hbar over twice the product of the widths, .* overflows its sinh"),
        ],
        ids=["squeezed", "squeezed-beyond-range", "hot", "sinh-overflow", "sinh-overflow-hbar"],
    )
    def test_widths_refused_before_any_array_overflows(self, sigma_qbar, sigma_pbar, hbar,
                                                        match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigInvalid, match=f"^{FIELDS}: {match}"):
                number_basis_initial_state(FIELDS, sigma_qbar, sigma_pbar, dim=64, hbar=hbar)


class TestGaussianBessel:
    @pytest.mark.parametrize("sigma_pbar", [0.5, 1.0, 2.0])
    def test_width_ratios(self, sigma_pbar):
        checks, _, _ = scenario_gaussian_bessel(sigma_qbar=1.0, sigma_pbar=sigma_pbar)
        assert not failed(checks), failed(checks)

    def test_underflowing_closed_form_refused_before_averaging(self, monkeypatch):
        # exp(-3000 / 2^2) underflows to 0, so the relative error would divide by it.
        def never(*args, **kwargs):
            raise AssertionError("the angle average ran before xi_compare_max was checked")

        monkeypatch.setattr(scenarios, "strong_coupling_limit_cm", never)
        with pytest.raises(ConfigInvalid, match="'xi_compare_max'"):
            scenario_gaussian_bessel(xi_compare_max=3000.0)

    def test_equal_widths_reduce_to_exponential(self):
        sigma = 1.3
        xi = np.linspace(0.0, 10.0, 101)
        closed = bessel_angle_average(sigma, sigma, xi)
        expected = np.exp(-xi / sigma**2) / (TWO_PI * sigma**2)
        assert np.max(np.abs(closed - expected)) < 1e-14

    def test_deterministic_reruns(self):
        column = "numeric (1/xi units)"
        a = scenario_gaussian_bessel()[2]["angle_average.csv"][column]
        b = scenario_gaussian_bessel()[2]["angle_average.csv"][column]
        assert np.array_equal(a, b)
