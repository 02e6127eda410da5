"""The numeric artifact comparison of tests/artifacts.py, on evolve-qm runs."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vnlab.cli import execute

from artifacts import compare, same_bytes

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


def test_bytes_tell_a_rerun_from_a_roundoff_change(runs, tmp_path):
    files = {"checks.json", "momentum_density.csv", "pointer_distribution.csv"}
    assert same_bytes(runs / "default", runs / "rerun") == dict.fromkeys(files, True)
    ulp = same_bytes(runs / "default", runs / "sigma_x-ulp")
    assert set(ulp) == files and not all(ulp.values())
    (tmp_path / "checks.json").write_bytes((runs / "default" / "checks.json").read_bytes())
    missing = same_bytes(runs / "default", tmp_path)
    assert missing == {"checks.json": True, "momentum_density.csv": False,
                       "pointer_distribution.csv": False}


def _command_line(*args):
    script = Path(__file__).with_name("artifacts.py")
    return subprocess.run([sys.executable, str(script), *map(str, args)],
                          capture_output=True, text=True)


@pytest.mark.parametrize("other, status", [("rerun", 0), ("missing", 1)])
def test_command_line_prints_each_file_and_fails_on_inf(runs, tmp_path, other, status):
    other_dir = runs / other if other == "rerun" else tmp_path  # tmp_path has no artifacts
    proc = _command_line(runs / "default", other_dir)
    assert proc.returncode == status, proc.stdout + proc.stderr
    expected = "0, bytes identical" if status == 0 else "inf, bytes differ"
    assert proc.stdout.splitlines() == [
        f"{name}: {expected}"
        for name in ("checks.json", "momentum_density.csv", "pointer_distribution.csv")]


@pytest.mark.parametrize("other, status", [("rerun", 0), ("sigma_x-ulp", 1)])
def test_bytes_mode_fails_on_any_byte_difference(runs, other, status):
    # One ulp in sigma_x passes the numeric comparison, and fails the byte one.
    assert _command_line(runs / "default", runs / other).returncode == 0
    proc = _command_line("--bytes", runs / "default", runs / other)
    assert proc.returncode == status, proc.stdout + proc.stderr
    assert ("bytes differ" in proc.stdout) == bool(status)


def test_job_subdirectories_are_compared_by_relative_path(runs, tmp_path):
    # Two suites of job directories, as the benchmark writes them: every file
    # is matched by its path under the suite, and each manifest.json is left out.
    for suite, job in (("a", "default"), ("a", "sigma_P"), ("b", "rerun"), ("b", "sigma_P")):
        shutil.copytree(runs / job, tmp_path / suite / ("one" if job != "sigma_P" else "two"))
    files = {"checks.json", "momentum_density.csv", "pointer_distribution.csv"}
    differences = compare(tmp_path / "a", tmp_path / "b")
    assert set(differences) == {f"{job}/{name}" for job in ("one", "two") for name in files}
    assert all(d == 0.0 for d in differences.values())
    assert all(same_bytes(tmp_path / "a", tmp_path / "b").values())
    assert _command_line("--bytes", tmp_path / "a", tmp_path / "b").returncode == 0
    shutil.rmtree(tmp_path / "b" / "two")
    assert compare(tmp_path / "a", tmp_path / "b")["two/checks.json"] == math.inf
    assert _command_line(tmp_path / "a", tmp_path / "b").returncode == 1


def _text_cell(text):
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, "text" + first[first.index(","):], rest])


def _short_row(text):
    return text.rstrip("\n").rsplit(",", 1)[0] + "\n"


@pytest.mark.parametrize("name, mutate", [
    ("checks.json", lambda text: text + "appended line\n"),
    ("momentum_density.csv", _text_cell),
    ("pointer_distribution.csv", _short_row),
])
def test_a_malformed_file_is_infinitely_far(runs, tmp_path, name, mutate):
    # Text that does not parse is a difference, not a crash: the command line
    # still prints every file's line and exits 1, with no traceback.
    shutil.copytree(runs / "default", tmp_path / "copy")
    path = tmp_path / "copy" / name
    path.write_text(mutate(path.read_text()))
    assert compare(runs / "default", tmp_path / "copy")[name] == math.inf
    proc = _command_line(runs / "default", tmp_path / "copy")
    assert proc.returncode == 1 and proc.stderr == ""
    assert f"{name}: inf, bytes differ" in proc.stdout.splitlines()
    assert len(proc.stdout.splitlines()) == 3
