"""The command-line front end: configs, artifacts, exit codes, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vnlab
from vnlab import cli
from vnlab.cli import (
    COUPLING_PAIR,
    DEFAULT_PARAMETERS,
    DEFAULT_TOLERANCES,
    SCENARIO_PARAMETERS,
    Choice,
    Seed,
    execute,
    main,
    normalize_config,
    resolve_tolerances,
)
from vnlab.errors import ConfigInvalid
from vnlab.scenarios import NonNegative, Signed


class TestConfigValidation:
    def test_defaults_fill_in(self):
        cfg = normalize_config("evolve-qm", None)
        assert cfg["parameters"]["n_x"] == 256
        assert cfg["parameters"]["tau"] == pytest.approx(0.18)

    def test_unknown_parameter_named(self):
        with pytest.raises(ConfigInvalid, match="bogus"):
            normalize_config("evolve-qm", {"parameters": {"bogus": 1}})

    def test_both_tau_and_sigma_P_rejected(self):
        with pytest.raises(ConfigInvalid, match="tau"):
            normalize_config("evolve-cm", {"parameters": {"tau": 0.1, "sigma_P": 0.2}})

    def test_tau_derives_sigma_P(self):
        cfg = normalize_config(
            "evolve-cm", {"parameters": {"tau": 0.5, "sigma_P": None, "epsilon": 2.0}}
        )
        assert cfg["parameters"]["sigma_P"] == pytest.approx(0.5)

    def test_user_tau_displaces_default_sigma_P(self):
        cfg = normalize_config("evolve-cm", {"parameters": {"tau": 0.5, "epsilon": 2.0}})
        assert cfg["parameters"]["tau"] == 0.5
        assert cfg["parameters"]["sigma_P"] == pytest.approx(0.5)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ConfigInvalid, match="tau"):
            normalize_config(
                "evolve-cm", {"parameters": {"tau": 0.5, "sigma_P": 99.0, "epsilon": 2.0}}
            )

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ConfigInvalid, match="sigma_Q"):
            normalize_config("evolve-qm", {"parameters": {"sigma_Q": 0.0}})

    def test_command_mismatch_rejected(self):
        with pytest.raises(ConfigInvalid, match="command"):
            normalize_config("evolve-qm", {"command": "evolve-cm"})

    def test_unknown_tolerance_rejected(self):
        cfg = normalize_config("evolve-qm", None)
        with pytest.raises(ConfigInvalid, match="nope"):
            resolve_tolerances("evolve-qm", cfg, {"nope": 1.0})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigInvalid, match="scenario"):
            normalize_config("run-scenario", {"parameters": {"scenario": "flying"}})

    def test_scenario_defaults_come_from_its_signature(self):
        params = normalize_config("run-scenario", {"parameters": {"scenario": "interference"}})[
            "parameters"
        ]
        assert params["n_x"] == 1024 and params["separation"] == 2.0
        assert params["sigma_Q"] == 0.1 and params["epsilon"] == 1.0
        assert params["alpha_re"] == pytest.approx(2**-0.5) and params["beta_im"] == 0.0
        # The command line's probe momentum width, not number_basis's own 3.0.
        nb = normalize_config("run-scenario", {"parameters": {"scenario": "number_basis"}})
        assert nb["parameters"]["sigma_P"] == 0.3 and nb["parameters"]["tau"] == 0.045

    def test_integral_float_accepted_for_integer_field(self):
        cfg = normalize_config("evolve-qm", {"parameters": {"n_x": 128.0}})
        assert cfg["parameters"]["n_x"] == 128 and isinstance(cfg["parameters"]["n_x"], int)

    def test_seed_override_validated(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="seed"):
            execute({"command": "mc-compare"}, tmp_path / "o", seed=-1)
        with pytest.raises(ConfigInvalid, match="seed"):
            execute({"command": "evolve-qm"}, tmp_path / "o", seed=3)
        assert not (tmp_path / "o").exists()


def _spec_fields():
    """(command, fixed parameters, field, default) for every command and scenario field."""
    fields = [
        (command, {}, name, default)
        for command, spec in DEFAULT_PARAMETERS.items()
        if command != "run-scenario"
        for name, default in spec.items()
    ]
    fields.append(("run-scenario", {}, "scenario", DEFAULT_PARAMETERS["run-scenario"]["scenario"]))
    for scenario, spec in SCENARIO_PARAMETERS.items():
        fields += [("run-scenario", {"scenario": scenario}, name, default)
                   for name, default in spec.items()]
    return fields


def _out_of_range(name, default):
    """Values outside the range that the field's default type admits."""
    finite = {"allow_nan": False, "allow_infinity": False}
    if name in COUPLING_PAIR or isinstance(default, NonNegative):
        return st.floats(max_value=0.0, exclude_max=True, **finite)
    if isinstance(default, Choice):
        return st.text(max_size=8).filter(lambda v: v not in default.options)
    if isinstance(default, Seed):
        return st.integers(max_value=-1) | st.integers(min_value=2**128 - 1)
    if isinstance(default, int):
        non_integral = st.floats(**finite).filter(lambda v: v != int(v))
        return st.integers(max_value=1) | non_integral
    if isinstance(default, Signed):
        return st.nothing()
    return st.floats(max_value=0.0, **finite)


def _bad_values(name, default):
    wrong_type = st.text(max_size=8) | st.lists(st.integers(), max_size=2) | st.dictionaries(
        st.text(max_size=3), st.integers(), max_size=2
    )
    if isinstance(default, Choice):
        wrong_type = wrong_type.filter(lambda v: v not in default.options) | st.floats()
    if name not in COUPLING_PAIR:  # None asks for the pair member derived from the other
        wrong_type |= st.none()
    nonfinite = st.sampled_from([math.inf, -math.inf, math.nan])
    return wrong_type | st.booleans() | nonfinite | _out_of_range(name, default)


class TestParameterSpec:
    """Every field of every command and scenario refuses what its spec does not admit."""

    @pytest.mark.parametrize(
        "command, fixed, name, default",
        _spec_fields(),
        ids=[f"{f.get('scenario', c)}.{n}" for c, f, n, _ in _spec_fields()],
    )
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_bad_value_raises_config_invalid_naming_field(self, command, fixed, name, default, data):
        value = data.draw(_bad_values(name, default), label=name)
        with pytest.raises(ConfigInvalid) as info:
            normalize_config(command, {"parameters": {**fixed, name: value}})
        assert repr(name) in str(info.value)

    @pytest.mark.parametrize(
        "command, name",
        [(c, n) for c, tol in DEFAULT_TOLERANCES.items() for n in tol],
    )
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_bad_tolerance_raises_config_invalid_naming_it(self, command, name, data):
        cfg = normalize_config(command, {"tolerances": {name: data.draw(
            _bad_values(name, NonNegative(0.0)), label=name)}})
        with pytest.raises(ConfigInvalid) as info:
            resolve_tolerances(command, cfg, {})
        assert repr(name) in str(info.value)


class TestExecution:
    def test_evolve_qm_artifacts(self, tmp_path):
        cfg = normalize_config("evolve-qm", {"parameters": {"n_x": 128}})
        manifest = execute(cfg, tmp_path / "out")
        assert manifest["all_passed"]
        for name in ("manifest.json", "checks.json", "pointer_distribution.csv"):
            assert (tmp_path / "out" / name).exists()
        checks = json.loads((tmp_path / "out" / "checks.json").read_text())
        assert checks["all_passed"]
        header = (tmp_path / "out" / "pointer_distribution.csv").read_text().splitlines()[0]
        assert "Q (probe position units)" in header

    def test_evolve_cm_artifacts(self, tmp_path):
        cfg = normalize_config("evolve-cm", {"parameters": {"n_q": 128, "n_p": 192}})
        manifest = execute(cfg, tmp_path / "out")
        assert manifest["all_passed"]
        assert (tmp_path / "out" / "probe_marginal.csv").exists()

    def test_run_scenario_two_delta(self, tmp_path):
        cfg = normalize_config(
            "run-scenario",
            {"parameters": {"scenario": "two_delta", "sigma_Q": 0.05, "sigma_P": 0.3}},
        )
        manifest = execute(cfg, tmp_path / "out")
        assert manifest["all_passed"]
        checks = json.loads((tmp_path / "out" / "checks.json").read_text())
        assert checks["scalars"]["resolved"] is True

    def test_digests_recorded(self, tmp_path):
        import hashlib

        cfg = normalize_config("evolve-qm", {"parameters": {"n_x": 96}})
        manifest = execute(cfg, tmp_path / "out")
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_byte_stable_rerun(self, tmp_path):
        cfg = normalize_config("evolve-cm", {"parameters": {"n_q": 96, "n_p": 96}})
        m1 = execute(cfg, tmp_path / "a")
        m2 = execute(cfg, tmp_path / "b")
        assert m1["outputs"] == m2["outputs"]
        # Manifests agree apart from the timestamps.
        a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        for doc in (a, b):
            doc.pop("started_utc")
            doc.pop("finished_utc")
        assert a == b

    def test_seed_override_recorded(self, tmp_path):
        cfg = normalize_config(
            "mc-compare",
            {"parameters": {"n_samples": 4000, "branch": "position", "bins": 12}},
        )
        manifest = execute(cfg, tmp_path / "out", seed=99)
        assert manifest["seed"] == 99
        assert manifest["config"]["parameters"]["seed"] == 99

    def test_manifest_config_reruns_bit_identically(self, tmp_path):
        configs = [
            ("evolve-qm", {"n_x": 96}),
            # Its manifest echoes every scenario field, the complex amplitudes as parts.
            ("run-scenario", {"scenario": "interference", "n_x": 256, "n_Q": 128,
                              "alpha_im": 0.25, "tau": 0.02}),
        ]
        for command, params in configs:
            cfg = normalize_config(command, {"parameters": params})
            first = execute(cfg, tmp_path / command / "a")
            replay = execute(first["config"], tmp_path / command / "b")
            assert replay["outputs"] == first["outputs"]
            assert replay["config"] == first["config"]

    def test_action_expected_A_is_the_cartesian_mean(self, tmp_path):
        # <A> = <(q^2 + p^2)/2> = (sigma_q^2 + sigma_p^2)/2 for the centred
        # Gaussian, which the Cartesian grid resolves to roundoff.
        cfg = normalize_config("mc-compare", {"parameters": {
            "n_samples": 2000, "bins": 16, "sigma_q": 0.7, "sigma_p": 1.3, "branch": "action"}})
        execute(cfg, tmp_path / "out")
        scalars = json.loads((tmp_path / "out" / "checks.json").read_text())["scalars"]
        assert abs(scalars["action_expected_A"] - (0.7**2 + 1.3**2) / 2.0) <= 1e-9

    def test_table1_rows_carry_pass_flags(self, tmp_path):
        cfg = normalize_config("table1-report", {"parameters": {"n_x": 128}})
        execute(cfg, tmp_path / "out")
        checks = json.loads((tmp_path / "out" / "checks.json").read_text())
        rows = checks["scalars"]["rows"]
        assert [r["row"] for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert row["qm_passed"] is True and row["cm_passed"] is True
            assert "qm_measured" in row and "cm_measured" in row


def test_cli_import_leaves_ndimage_and_signal_unloaded():
    # In a child process, so that no other test's imports count.
    package_root = str(Path(vnlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = ("import sys, vnlab.cli; "
             "print(sorted(m for m in ('scipy.ndimage', 'scipy.signal') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _declared_console_script(name):
    """The ``[project.scripts]`` target of ``name`` in the repo's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"{pyproject} declares no {name!r} console script"
    return scripts[name]


def _assert_evolve_cm_runs(command, tmp_path, env=None):
    out = tmp_path / "o"
    proc = subprocess.run(
        [*command, "evolve-cm", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "checks passed" in proc.stdout
    assert (out / "manifest.json").exists()


class TestMainEntryPoint:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"parameters": {"sigma_Q": -1}}))
        code = main(["evolve-qm", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "sigma_Q" in capsys.readouterr().out

    def test_failing_tolerance_exits_1(self, tmp_path, capsys):
        code = main(
            [
                "evolve-qm",
                "--out",
                str(tmp_path / "o"),
                "--tolerance",
                "variance_growth=1e-300",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "tolerance exceeded" in out

    def test_malformed_tolerance_exits_2(self, tmp_path):
        assert main(["evolve-qm", "--out", str(tmp_path / "o"), "--tolerance", "x"]) == 2

    @pytest.mark.parametrize(
        "command, config, extra, named",
        [
            ("evolve-cm", {"parameters": {"n_q": "abc"}}, [], "'n_q'"),
            ("evolve-qm", {"parameters": None}, [], "'parameters'"),
            ("evolve-qm", [1, 2], [], "config must be a JSON object; got list"),
            ("mc-compare", {"parameters": {"seed": -1}}, [], "'seed'"),
            ("mc-compare", None, ["--seed", "-1"], "'seed'"),
            ("evolve-qm", {"parameters": {"epsilon": "1"}}, [], "'epsilon'"),
            ("evolve-qm", {"parameters": {"sigma_Q": math.inf}}, [], "'sigma_Q'"),
            ("evolve-qm", {"parameters": {"n_x": True}}, [], "'n_x'"),
            ("run-scenario", {"parameters": {"scenario": "two_delta", "dim": 3}}, [], "'dim'"),
            ("run-scenario", {"parameters": {"scenario": "gaussian_bessel", "sigma_P": -5}},
             [], "'sigma_P'"),
            # L1 budget 5/sqrt(2) = 3.5 >= 2, the largest L1 distance: a vacuous check.
            ("mc-compare", {"parameters": {"n_samples": 2, "branch": "position"}}, [],
             "'n_samples'"),
            # Superpositions whose squared norm on the grid is 0, subnormal or infinite.
            ("run-scenario", {"parameters": {"scenario": "interference", "alpha_re": 0.0,
                                             "alpha_im": 0.0, "beta_re": 0.0, "beta_im": 0.0}},
             [], "'alpha' and 'beta'"),
            ("run-scenario", {"parameters": {"scenario": "interference", "alpha_re": 1.0,
                                             "beta_re": -1.0, "separation": 0.0}},
             [], "'alpha' and 'beta'"),
            ("run-scenario", {"parameters": {"scenario": "interference", "alpha_re": 1e-200,
                                             "alpha_im": 0.0, "beta_re": 0.0, "beta_im": 0.0}},
             [], "'alpha' and 'beta'"),
            ("run-scenario", {"parameters": {"scenario": "interference", "alpha_re": 1e-160,
                                             "alpha_im": 0.0, "beta_re": 0.0, "beta_im": 0.0}},
             [], "'alpha' and 'beta'"),
            ("run-scenario", {"parameters": {"scenario": "interference", "alpha_re": 1e200}},
             [], "'alpha' and 'beta'"),
            ("run-scenario", {"parameters": {"scenario": "interference", "alpha_re": 2e154,
                                             "beta_re": -2e154, "separation": 0.001}},
             [], "'alpha' and 'beta'"),
            ("run-scenario", {"parameters": {"scenario": "interference", "alpha_re": 1.2e154,
                                             "beta_re": -1.2e154, "separation": 0.001}},
             [], "'alpha' and 'beta'"),
            # System widths below the step of the grid they are sampled on.
            ("evolve-qm", {"parameters": {"sigma_x": 1e-300}}, [], "'sigma_x'"),
            ("evolve-qm", {"parameters": {"sigma_x": 1e-160}}, [], "'sigma_x'"),
            ("table1-report", {"parameters": {"sigma_x": 1e-300}}, [], "'sigma_x'"),
            ("evolve-cm", {"parameters": {"sigma_q": 1e-300}}, [], "'sigma_q'"),
            ("evolve-cm", {"parameters": {"sigma_p": 1e-300}}, [], "'sigma_p'"),
            ("mc-compare", {"parameters": {"sigma_q": 1e-300}}, [], "'sigma_q'"),
            ("run-scenario", {"parameters": {"scenario": "interference", "sigma_x": 1e-300}},
             [], "'sigma_x'"),
            ("run-scenario", {"parameters": {"scenario": "gaussian_bessel", "sigma_qbar": 1e-300}},
             [], "'sigma_qbar'"),
            # Below the step 32/511 of the 512-node Cartesian grid of the resampling route.
            ("run-scenario", {"parameters": {"scenario": "gaussian_bessel", "sigma_qbar": 0.05}},
             [], "'sigma_qbar'"),
            # Squeezed beyond 64 levels (the trace used to come out NaN); the refusal names
            # the three fields that set it.
            ("run-scenario", {"parameters": {"scenario": "number_basis", "sigma_qbar": 1e-300}},
             [], "'sigma_qbar', 'sigma_pbar' and 'dim'"),
            # The Bessel closed form underflows to 0 at the comparison window's edge.
            ("run-scenario", {"parameters": {"scenario": "gaussian_bessel",
                                             "xi_compare_max": 3000.0}},
             [], "'xi_compare_max'"),
            # Widths whose squares overflow a float.
            ("run-scenario", {"parameters": {"scenario": "gaussian_bessel",
                                             "sigma_qbar": 1e200, "sigma_pbar": 1e200}},
             [], "'sigma_qbar' and 'sigma_pbar'"),
            # hbar whose square under- or overflows (it used to end in NaN checks or a
            # traceback), and one the 48-level number basis of row 4 cannot hold.
            ("evolve-qm", {"parameters": {"hbar": 1e-170}}, [], "'hbar'"),
            ("evolve-qm", {"parameters": {"hbar": 1e200}}, [], "'hbar'"),
            ("table1-report", {"parameters": {"hbar": 1e-170}}, [], "'hbar'"),
            ("table1-report", {"parameters": {"hbar": 1e200}}, [], "'hbar'"),
            ("table1-report", {"parameters": {"hbar": 0.3}}, [], "'hbar'"),
            # Probe momentum spreads the p grid cannot hold once diffused.
            ("evolve-cm", {"parameters": {"sigma_P": 3.0}}, [], "'sigma_P' and 'tau'"),
            ("mc-compare", {"parameters": {"sigma_P": 20.0, "branch": "position"}}, [],
             "'sigma_P' and 'tau'"),
        ],
        ids=["string-int", "null-parameters", "array-config", "negative-seed",
             "negative-seed-flag", "string-epsilon", "infinite-width", "boolean-int",
             "foreign-scenario-field", "field-of-no-scenario", "vacuous-l1-budget",
             "zero-amplitudes", "cancelling-amplitudes", "underflowing-amplitude",
             "subnormal-norm", "overflowing-amplitude", "overflowing-weight-square",
             "overflowing-weight-sum", "sub-step-sigma_x", "sub-step-sigma_x-overflow",
             "sub-step-table1-sigma_x", "sub-step-sigma_q", "sub-step-sigma_p",
             "sub-step-mc-sigma_q", "sub-step-interference-sigma_x",
             "sub-step-gaussian_bessel-sigma_qbar", "sub-step-gaussian_bessel-sigma_qbar-0.05",
             "nan-trace-number_basis", "underflowing-closed-form-gaussian_bessel",
             "overflowing-widths-gaussian_bessel", "underflowing-hbar-evolve-qm",
             "overflowing-hbar-evolve-qm", "underflowing-hbar-table1",
             "overflowing-hbar-table1", "row4-truncated-hbar-table1",
             "spilling-sigma_P-evolve-cm", "wide-sigma_P-mc-compare"],
    )
    def test_bad_config_exits_2_naming_field(self, tmp_path, capsys, command, config, extra, named):
        argv = [command, "--out", str(tmp_path / "o"), *extra]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "widths",
        [{"sigma_qbar": 1e-300}, {"sigma_qbar": 1e-200, "sigma_pbar": 1e200}],
        ids=["narrow", "narrow-and-wide"],
    )
    def test_number_basis_refuses_before_any_overflow(self, tmp_path, widths):
        # In a child process, so that any numpy RuntimeWarning reaches stderr.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"parameters": {"scenario": "number_basis", **widths}}))
        package_root = str(Path(vnlab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "vnlab.cli", "run-scenario", "--config", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "'sigma_qbar', 'sigma_pbar' and 'dim'" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_evolve_cm_kernel_wider_than_the_p_grid_names_its_cause(self, tmp_path, capsys):
        # sigma_P = 50 at epsilon = 1: the diffused spread 6 sqrt(1 + 2500) =
        # 300.1 leaves the +-12 p grid, so the config is refused before any run.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"parameters": {"sigma_P": 50.0}}))
        assert main(["evolve-cm", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        out = capsys.readouterr().out
        assert "+ 2 tau) = 300.1" in out and "half-width 12" in out

    def test_mc_compare_refuses_both_branches_before_sampling(self, tmp_path, capsys, monkeypatch):
        # sigma_q = 0.07 is above the position branch's step 16/255 and below
        # the action branch's 30.4/383: the refusal comes before any sampling.
        def never(*args, **kwargs):
            raise AssertionError("sample_initial ran before the widths were checked")

        monkeypatch.setattr(cli, "sample_initial", never)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"parameters": {"sigma_q": 0.07, "sigma_p": 1.9}}))
        assert main(["mc-compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "'sigma_q'" in capsys.readouterr().out

    def test_l1_budget_below_two_runs(self, tmp_path):
        # 5/sqrt(7) = 1.89 < 2: admitted, whether or not its checks pass.
        cfg = normalize_config("mc-compare", {"parameters": {"n_samples": 7, "branch": "position"}})
        assert execute(cfg, tmp_path / "o")["config"]["parameters"]["n_samples"] == 7

    def test_small_mc_compare_passes(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "command": "mc-compare",
                    "parameters": {"n_samples": 20000, "bins": 16, "branch": "position"},
                }
            )
        )
        code = main(["mc-compare", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "all" in capsys.readouterr().out

    def test_run_scenario_gaussian_bessel(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "command": "run-scenario",
                    "parameters": {"scenario": "gaussian_bessel", "sigma_pbar": 0.5},
                }
            )
        )
        code = main(["run-scenario", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "angle_average.csv").exists()

    def test_console_script_installed(self, tmp_path):
        # Runs the declared entry point the way pip's generated wrapper does,
        # so the check needs no install step.
        entry = _declared_console_script("vnlab")
        assert entry == "vnlab.cli:main"
        module, _, attr = entry.partition(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        # The child imports the same vnlab package as this process, from any
        # working directory, installed or not.
        package_root = str(Path(vnlab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        _assert_evolve_cm_runs([sys.executable, "-c", wrapper], tmp_path, env=env)

    @pytest.mark.skipif(shutil.which("vnlab") is None, reason="vnlab console script not installed")
    def test_console_script_on_path(self, tmp_path):
        _assert_evolve_cm_runs([shutil.which("vnlab")], tmp_path)

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = normalize_config("evolve-qm", {"parameters": {"n_x": 96}})
        execute(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "pointer_distribution.csv").read_text().splitlines()
        q, dens = np.loadtxt(
            (tmp_path / "out" / "pointer_distribution.csv"), delimiter=",", skiprows=1
        ).T
        # 17 significant digits reproduce the doubles exactly.
        first = float(lines[1].split(",")[1])
        assert first == dens[0]
