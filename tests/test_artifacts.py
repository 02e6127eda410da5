"""The numeric artifact comparison of tests/artifacts.py, on evolve-qm runs."""

import math

import pytest

from vnlab.cli import execute

from artifacts import compare

# sigma_x one ulp above 1 moves evolve-qm's artifacts by at most 4.7e-15 of their
# scale (checks.json; 1.2e-15 in momentum_density.csv), yet changes the digests.
ROUNDOFF_BOUND = 1e-13


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    configs = {
        "default": {},
        "rerun": {},
        "sigma_x-ulp": {"sigma_x": 1.0 + 2.0**-52},
        "sigma_P": {"sigma_P": 0.61},
    }
    for name, params in configs.items():
        execute({"command": "evolve-qm", "parameters": params}, root / name)
    return root


def test_rerun_compares_to_zero(runs):
    differences = compare(runs / "default", runs / "rerun")
    assert set(differences) == {"checks.json", "momentum_density.csv", "pointer_distribution.csv"}
    assert all(d == 0.0 for d in differences.values())


def test_one_ulp_in_sigma_x_stays_at_roundoff_scale(runs):
    differences = compare(runs / "default", runs / "sigma_x-ulp")
    assert 0.0 < max(differences.values()) <= ROUNDOFF_BOUND


def test_changed_sigma_P_is_seen(runs):
    differences = compare(runs / "default", runs / "sigma_P")
    assert differences["momentum_density.csv"] > 1e-3
    assert differences["checks.json"] > 1e-3


def test_a_missing_file_is_infinitely_far(runs, tmp_path):
    (tmp_path / "checks.json").write_text((runs / "default" / "checks.json").read_text())
    differences = compare(runs / "default", tmp_path)
    assert differences["checks.json"] == 0.0
    assert differences["momentum_density.csv"] == math.inf
