"""The command-line front end: configs, artifacts, exit codes, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vnlab
from vnlab import cli, qm, wigner
from vnlab.cli import (
    COUPLING_PAIR,
    RUNNERS,
    Choice,
    Seed,
    execute,
    main,
    normalize_config,
    resolve_tolerances,
)
from vnlab.cm import (DIFFUSED_WIDTH_STEPS, diffused_width, probe_marginal_Q,
                      reduced_state_post_cm)
from vnlab.errors import ConfigInvalid, InvariantViolation, VnLabError
from vnlab.grids import Grid1D
from vnlab.observables import CouplingParams, ProbeSpec, position_observable
from vnlab.scenarios import SCENARIOS, NonNegative, Signed
from vnlab.states import build_gaussian_phase_density
from vnlab.states import DensityOperator

from helpers import DEFAULT_TOLERANCES


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

    def test_tolerances_are_the_runners_keyword_only_defaults(self):
        # Every command's tolerance names and defaults, in declaration order: 15 in all.
        assert list(DEFAULT_TOLERANCES) == list(RUNNERS)
        assert sum(len(tol) for tol in DEFAULT_TOLERANCES.values()) == 15
        for command, tol in DEFAULT_TOLERANCES.items():
            resolved = resolve_tolerances(command, {}, {})
            assert list(resolved.items()) == list(tol.items()), command
            assert all(type(value) is float for value in resolved.values()), command

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
        # number_basis's own coupling default, sigma_P 3 (tau 4.5), as its signature says.
        nb = normalize_config("run-scenario", {"parameters": {"scenario": "number_basis"}})
        assert nb["parameters"]["sigma_P"] == 3.0 and nb["parameters"]["tau"] == 4.5

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
    fields = [(command, {}, name, default)
              for command in RUNNERS
              for name, default in cli._spec(command, {})[2].items()
              if command != "run-scenario" or name == "scenario"]
    for scenario in SCENARIOS:
        fixed = {"scenario": scenario}
        fields += [("run-scenario", fixed, name, default)
                   for name, default in cli._spec("run-scenario", fixed)[2].items()
                   if name != "scenario"]
    return fields


# Each command's fields, defaults and admitted-range types as they stood in the
# hand-written table that the runner signatures replaced.
TABLE_DEFAULTS = {
    "evolve-qm": {
        "n_x": 256, "grid_halfwidth": 8.0, "sigma_x": 1.0, "center_x": Signed(0.25),
        "sigma_Q": 0.2, "epsilon": 1.0, "sigma_P": 0.6, "tau": None, "hbar": 1.0,
    },
    "evolve-cm": {
        "n_q": 256, "n_p": 256, "grid_halfwidth_q": 8.0, "grid_halfwidth_p": 12.0,
        "sigma_q": 1.0, "sigma_p": 1.0, "center_q": Signed(0.25),
        "sigma_Q": 0.2, "epsilon": 1.0, "sigma_P": 0.6, "tau": None,
    },
    "mc-compare": {
        "n_samples": 100000, "seed": Seed(20240801), "bins": 24, "sigma_q": 1.0,
        "sigma_p": 1.0, "sigma_Q": 0.4, "epsilon": 1.0, "sigma_P": 0.6, "tau": None,
        "branch": Choice("both", ("position", "action", "both")),
    },
    "table1-report": {
        "n_x": 256, "grid_halfwidth": 8.0, "sigma_x": 1.0, "center": Signed(0.25),
        "sigma_Q": 0.25, "epsilon": 2.0, "sigma_P": 0.3, "tau": None, "hbar": 1.0,
    },
}


class TestSignatureSpec:
    """A job's parameters are its function's arguments; these pin what they must say."""

    @pytest.mark.parametrize("command", sorted(TABLE_DEFAULTS))
    def test_command_fields_keep_their_defaults_and_ranges(self, command):
        spec = cli._spec(command, {})[2]
        assert spec.keys() == TABLE_DEFAULTS[command].keys()
        for name, default in TABLE_DEFAULTS[command].items():
            assert type(spec[name]) is type(default), name
            assert spec[name] == default, name
            if isinstance(default, Choice):
                assert spec[name].options == default.options

    def test_probe_and_coupling_defaults_agree_on_sigma_P(self):
        # _fields lets a coupling default's sigma_P win over the probe's, so a
        # disagreement between the two would change a default unseen.
        coupled = []
        for job, args in cli._SIGNATURES.items():
            couplings = [a.default for a in args
                         if cli._is_coupling(a.annotation) and a.default is not None]
            if not couplings:
                continue
            coupled.append(job)
            declared = {a.default.sigma_P for a in args if a.annotation is ProbeSpec}
            fields = {f: d for a in args for f, d in cli._fields(a).items()}
            assert declared | {couplings[0].sigma_P} == {fields["sigma_P"]}, job
        assert sorted(coupled) == ["number_basis", "table1-report"]


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


# The eight jobs at their default configs: the four commands and the four scenarios.
DEFAULT_JOBS = [(command, {}) for command in RUNNERS if command != "run-scenario"] + [
    ("run-scenario", {"scenario": name}) for name in SCENARIOS]
DEFAULT_JOB_IDS = [params.get("scenario", command) for command, params in DEFAULT_JOBS]


def _extremes(name, default):
    """The admitted extremes of one field: a real at 1e-300 and 1e300, a signed one
    also at -1e300, a non-negative one also at 0, a size at 2; no seed or choice."""
    if isinstance(default, (Choice, Seed)):
        return []
    if isinstance(default, int):
        return [2]
    return [1e-300, 1e300, *([-1e300] if isinstance(default, Signed) else []),
            *([0.0] if name in COUPLING_PAIR or isinstance(default, NonNegative) else [])]


# One field at a time at an admitted extreme, every other field at its default.
EXTREME_CASES = [(command, fixed, name, value) for command, fixed, name, default in _spec_fields()
                 for value in _extremes(name, default)]


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

    @pytest.mark.parametrize("command, params", DEFAULT_JOBS, ids=DEFAULT_JOB_IDS)
    def test_byte_stable_rerun(self, tmp_path, command, params):
        cfg = normalize_config(command, {"parameters": params})
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

    def test_evolve_qm_reads_no_kernel_channel(self, tmp_path, monkeypatch):
        # The outcome distribution is read from the Wigner channel's factor at
        # y = 0; the n x n kernel and post-channel matrix are never formed. 65 is
        # the smallest n_x whose band pi hbar / (2h) = 6.28 holds the default p grid
        # (+-6.25).
        def never(*args, **kwargs):
            raise AssertionError("evolve-qm formed the kernel channel")

        for name in ("decoherence_kernel", "reduced_state_post"):
            monkeypatch.setattr(cli, name, never, raising=False)
            monkeypatch.setattr(qm, name, never)
        cfg = normalize_config("evolve-qm", {"parameters": {"n_x": 65}})
        assert execute(cfg, tmp_path / "out")["all_passed"]

    def test_evolve_qm_forms_no_density_matrix(self, tmp_path, monkeypatch):
        # The pointer record, <A>, the invariance check and the momentum marginals
        # all read the wavefunction: no state is built, by the CLI or by any layer
        # it calls, and no k x n anti-diagonals are gathered.
        def never(*args, **kwargs):
            raise AssertionError("evolve-qm formed an n x n state")

        monkeypatch.setattr(DensityOperator, "__post_init__", never)
        monkeypatch.setattr(wigner, "_antidiagonals", never)
        cfg = normalize_config("evolve-qm", {"parameters": {"n_x": 65}})
        assert execute(cfg, tmp_path / "out")["all_passed"]

    def test_table1_report_forms_no_n_x_state(self, tmp_path, monkeypatch):
        # Rows 1 and 3 read the wavepacket's Born weights and wavefunction: no
        # state of dimension n_x is built, by the CLI or by any layer it calls.
        # Rows 2 and 4 still build their 2 x 2 and 48 x 48 states, which shows
        # that the wrap sees every construction.
        n_x, dims = 128, []
        post_init = DensityOperator.__post_init__

        def checked(self):
            post_init(self)
            dims.append(self.dim)
            if self.dim == n_x:
                raise AssertionError("table1-report formed an n_x x n_x state")

        monkeypatch.setattr(DensityOperator, "__post_init__", checked)
        cfg = normalize_config("table1-report", {"parameters": {"n_x": n_x}})
        assert execute(cfg, tmp_path / "out")["all_passed"]
        assert {2, 48} <= set(dims) and n_x not in dims

    def test_outcome_invariance_check_is_not_vacuous(self, tmp_path, monkeypatch):
        # A(q + y/2) + A(q - y/2) is 2q at y = 0, so the broken channel damps
        # the Born weights and the check must see it.
        def broken(A, tau, q, y, hbar):
            q, y = np.asarray(q, dtype=float), np.asarray(y, dtype=float)
            return np.exp(-tau * (A(q + 0.5 * y) + A(q - 0.5 * y)) ** 2 / hbar**2)

        monkeypatch.setattr(cli, "damping", broken)
        cfg = normalize_config("evolve-qm", {"parameters": {"n_x": 65}})
        checks = {c["description"]: c for c in execute(cfg, tmp_path / "out")["checks"]}
        invariance = checks["outcome distribution invariance (max drift)"]
        assert not invariance["passed"] and invariance["measured"] > 1e-3

    def test_table1_row1_cm_record_is_the_probe_marginal(self):
        # Row 1's two records share one stacked kernel; the CM row keeps the
        # bits of probe_marginal_Q, which builds the kernel for it alone.
        _, scalars, tables = cli.run_table1_report(n_x=128)
        table = tables["table1_row1_pointer.csv"]
        xgrid = Grid1D(-8.0, 8.0, 128)
        rho = build_gaussian_phase_density(xgrid, Grid1D(-12.0, 12.0, 128), 1.0, 1.0,
                                           center_q=0.25)
        Qgrid = Grid1D(table["Q (probe position units)"][0],
                       table["Q (probe position units)"][-1], 2048)
        coupling = CouplingParams.from_sigma_P(2.0, 0.3)
        want = probe_marginal_Q(rho, ProbeSpec(sigma_Q=0.25, sigma_P=0.3), position_observable(),
                                coupling, Qgrid)
        assert np.array_equal(table["cm_density (1/Q units)"], want)

    def test_table1_rows_carry_pass_flags(self, tmp_path):
        cfg = normalize_config("table1-report", {"parameters": {"n_x": 128}})
        execute(cfg, tmp_path / "out")
        checks = json.loads((tmp_path / "out" / "checks.json").read_text())
        rows = checks["scalars"]["rows"]
        assert [r["row"] for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert row["qm_passed"] is True and row["cm_passed"] is True
            assert "qm_measured" in row and "cm_measured" in row

    def test_table1_rows_are_read_from_their_two_checks(self, tmp_path):
        # Row 2's CM tolerance at 0 fails that check alone, so the row's two
        # flags differ and each must follow its own check.
        cfg = normalize_config("table1-report", {"parameters": {"n_x": 128},
                                                 "tolerances": {"row2_uncertainty_cm": 0.0}})
        execute(cfg, tmp_path / "out")
        checks = json.loads((tmp_path / "out" / "checks.json").read_text())
        rows = checks["scalars"]["rows"]
        assert len(checks["checks"]) == 2 * len(rows) == 8
        for row, qm, cm in zip(rows, checks["checks"][::2], checks["checks"][1::2]):
            assert qm["description"].startswith(f"row {row['row']} (QM)")
            assert cm["description"].startswith(f"row {row['row']} (CM)")
            assert (row["qm_measured"], row["qm_passed"]) == (qm["measured"], qm["passed"])
            assert (row["cm_measured"], row["cm_passed"]) == (cm["measured"], cm["passed"])
        assert rows[1]["qm_passed"] and not rows[1]["cm_passed"]


def test_cli_quantum_path_loads_no_scipy(tmp_path):
    # In a child process, so that no other test's imports count: importing the
    # CLI, a refused config (exit 2) and a small evolve-qm (exit 0) leave every
    # scipy module unloaded.
    package_root = str(Path(vnlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from vnlab.cli import main\n"
        "out = Path(sys.argv[1])\n"
        "codes = []\n"
        "for name, params in (('refused', {'n_x': 64}), ('small', {'n_x': 64, 'grid_halfwidth': 6.5})):\n"
        "    (out / f'{name}.json').write_text(json.dumps({'parameters': params}))\n"
        "    codes.append(main(['evolve-qm', '--config', str(out / f'{name}.json'),\n"
        "                       '--out', str(out / name)]))\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'codes': codes, 'scipy': loaded}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [2, 0], "scipy": []}


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


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3000), loc=st.floats(-1e6, 1e6), scale=st.floats(1e-300, 1e6),
       seed=st.integers(0, 2**32 - 1))
def test_mean_std_in_place_is_numpys_bitwise(n, loc, scale, seed):
    # mc-compare's action branch reads the mean and standard deviation of its
    # n-length Q' without a second array of n: the same bits as np.mean and np.std.
    values = np.random.default_rng(seed).normal(loc, scale, n)
    want = (np.mean(values), np.std(values))
    got = cli._mean_std(values.copy())
    assert np.array_equal(np.array(got), np.array(want)), (got, want)


class TestMainEntryPoint:
    @pytest.mark.parametrize(
        "command, fixed, name, value",
        EXTREME_CASES,
        ids=[f"{f.get('scenario', c)}.{n}={v:g}" for c, f, n, v in EXTREME_CASES],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_admitted_extreme_exits_with_a_status(self, tmp_path, command, fixed, name, value):
        # Refused (2), failing (1) or passing (0): never a traceback or a RuntimeWarning.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"parameters": {**fixed, name: value}}))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) in (0, 1, 2)

    def test_table1_number_basis_refusal_names_only_hbar(self, tmp_path, capsys):
        # Row 4's number basis has fixed widths: of its fields the command has only 'hbar'.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"parameters": {"hbar": 3000.0}}))
        assert main(["table1-report", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        out = capsys.readouterr().out
        assert "'hbar'" in out and "sigma_qbar" not in out and "sigma_pbar" not in out

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

    @pytest.mark.parametrize("source", ["override", "config"])
    def test_run_scenario_refuses_any_tolerance(self, tmp_path, capsys, source):
        # run-scenario has no tolerances: a name that another command admits is
        # refused before the scenario runs.
        path = tmp_path / "cfg.json"
        config = {"parameters": {"scenario": "two_delta"}}
        extra = ["--tolerance", "variance_growth=1e-4"]
        if source == "config":
            config["tolerances"], extra = {"variance_growth": 1e-4}, []
        path.write_text(json.dumps(config))
        code = main(["run-scenario", "--config", str(path), "--out", str(tmp_path / "o"), *extra])
        assert code == 2
        assert ("unknown tolerance 'variance_growth' for command 'run-scenario'"
                in capsys.readouterr().out)
        assert not (tmp_path / "o").exists()

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
            # Below the step 32/511 of the 512-node Cartesian grid of the resampling route;
            # at sigma_pbar 2 the width ratio is 40, so the ratio rule refuses it first.
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
            # x = hbar / (2 * 1.4) past log(709.8): row 4's sinh overflows. It used to
            # name 'sigma_qbar' and 'sigma_pbar', which the command does not have.
            ("table1-report", {"parameters": {"hbar": 3000.0}}, [], "'hbar'"),
            # Probe momentum spreads the p grid cannot hold once diffused.
            ("evolve-cm", {"parameters": {"sigma_P": 3.0}}, [], "'sigma_P' and 'tau'"),
            ("mc-compare", {"parameters": {"sigma_P": 20.0, "branch": "position"}}, [],
             "'sigma_P' and 'tau'"),
            # Diffused momentum widths below DIFFUSED_WIDTH_STEPS p steps, where the
            # position-kind damping rings negative: at 1.51, 1.70, 1.19 and 1.19 steps
            # they used to exit 1 with "negative excursion" -5.9e-8, -2.8e-9, -3.66e-5
            # and -3.66e-5 "beyond monitor".
            ("evolve-cm", {"parameters": {"n_p": 32}}, [], "'sigma_p', 'sigma_P', 'tau', 'n_p'"),
            ("evolve-cm", {"parameters": {"n_p": 36}}, [], "'sigma_p', 'sigma_P', 'tau', 'n_p'"),
            ("evolve-cm", {"parameters": {"sigma_p": 0.1, "sigma_P": 0.05}}, [],
             "'sigma_p', 'sigma_P', 'tau', 'n_p'"),
            ("mc-compare", {"parameters": {"sigma_p": 0.1, "sigma_P": 0.05, "branch": "position"}},
             [], "'sigma_p', 'sigma_P' and 'tau'"),
            # 2.2 steps with the q peak of sigma_q 0.0627 on 2048 p nodes: -1.65e-10.
            ("evolve-cm", {"parameters": {"n_q": 64, "grid_halfwidth_q": 0.5, "sigma_q": 0.0627,
                                          "center_q": 0.0, "n_p": 2048, "sigma_p": 0.018218,
                                          "tau": 0.000166713}},
             [], "'sigma_p', 'sigma_P', 'tau', 'n_p'"),
            # Wigner momentum grids past pi hbar / (2h), where the folded transform
            # aliases: the marginal came out flat (variance 7.68 against 0.36), and
            # row 3 (QM) read 959.8 against 36.25.
            ("evolve-qm", {"parameters": {"hbar": 0.01}}, [],
             "'hbar', 'n_x', 'grid_halfwidth' and 'sigma_P'"),
            ("table1-report", {"parameters": {"sigma_P": 3.0}}, [],
             "'hbar', 'n_x', 'grid_halfwidth' and 'sigma_P'"),
            # Gaussians whose center +- 6 widths leave their grid (they used to exit 1
            # with "run failed: ... grid does not contain ...").
            ("evolve-cm", {"parameters": {"sigma_q": 2.0}}, [], "'center_q', 'sigma_q'"),
            ("evolve-cm", {"parameters": {"center_q": 5.0}}, [], "'center_q', 'sigma_q'"),
            ("evolve-qm", {"parameters": {"sigma_x": 2.0}}, [], "'center_x', 'sigma_x'"),
            ("evolve-qm", {"parameters": {"center_x": 5.0}}, [], "'center_x', 'sigma_x'"),
            ("mc-compare", {"parameters": {"sigma_q": 2.0}}, [], "'sigma_q'"),
            ("mc-compare", {"parameters": {"sigma_p": 2.1, "branch": "position"}}, [],
             "'sigma_p'"),
            ("table1-report", {"parameters": {"sigma_x": 2.0}}, [], "'center', 'sigma_x'"),
            ("table1-report", {"parameters": {"center": 3.0}}, [], "'center', 'sigma_x'"),
            # Row 4's width-1 q Gaussian needs a half-width of 6; it used to name sigma_q.
            ("table1-report", {"parameters": {"grid_halfwidth": 5.0, "sigma_x": 0.5}}, [],
             "'grid_halfwidth'"),
            # Width ratio 25: the resampling route's L1 reads 2.75e-3 against its 1e-3 budget.
            ("run-scenario", {"parameters": {"scenario": "gaussian_bessel", "sigma_qbar": 1.0,
                                             "sigma_pbar": 25.0}},
             [], "'sigma_qbar' and 'sigma_pbar'"),
            # A Q step of 9.8e11 leaves no node between peaks 1 apart: the valley
            # check took the minimum of an empty slice (ValueError).
            ("run-scenario", {"parameters": {"scenario": "two_delta", "q0": 1e15,
                                             "q1": 1e15 + 1}},
             [], "'q0', 'q1' and 'n_Q'"),
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
             "sinh-overflow-hbar-table1",
             "spilling-sigma_P-evolve-cm", "wide-sigma_P-mc-compare",
             "unresolved-n_p-32-evolve-cm", "unresolved-n_p-36-evolve-cm",
             "unresolved-sigma_p-evolve-cm", "unresolved-sigma_p-mc-compare",
             "unresolved-2.2-steps-evolve-cm",
             "aliasing-hbar-evolve-qm", "aliasing-sigma_P-table1",
             "wide-sigma_q-evolve-cm", "off-centre-evolve-cm", "wide-sigma_x-evolve-qm",
             "off-centre-evolve-qm", "wide-sigma_q-mc-compare", "wide-sigma_p-mc-compare",
             "wide-sigma_x-table1", "off-centre-table1", "narrow-grid-row4-table1",
             "width-ratio-25-gaussian_bessel", "no-Q-node-between-peaks-two_delta"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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

    @pytest.mark.parametrize(
        "command, sizes, named",
        [
            ("evolve-qm", {"n_x": 10**8}, "'n_x'"),
            ("table1-report", {"n_x": 10**6}, "'n_x'"),
            ("evolve-cm", {"n_q": 10**6, "n_p": 10**6}, "'n_q' and 'n_p'"),
            ("mc-compare", {"n_samples": 10**12}, "'n_samples' and 'bins'"),
            ("mc-compare", {"bins": 10**12}, "'n_samples' and 'bins'"),
            ("run-scenario", {"scenario": "two_delta", "n_q": 10**10}, "'n_q' and 'n_Q'"),
            ("run-scenario", {"scenario": "two_delta", "n_Q": 10**12}, "'n_q' and 'n_Q'"),
            ("run-scenario", {"scenario": "interference", "n_x": 10**10}, "'n_x' and 'n_Q'"),
            ("run-scenario", {"scenario": "interference", "n_Q": 10**12}, "'n_x' and 'n_Q'"),
            ("run-scenario", {"scenario": "number_basis", "dim": 10**6}, "'dim'"),
            ("run-scenario", {"scenario": "gaussian_bessel", "n_xi": 10**6, "n_theta": 10**6},
             "'n_xi' and 'n_theta'"),
        ],
        ids=["evolve-qm", "table1-report", "evolve-cm", "mc-compare", "mc-compare-bins",
             "two_delta-n_q", "two_delta-n_Q", "interference-n_x", "interference-n_Q",
             "number_basis", "gaussian_bessel"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_memory_guard_refuses_before_running(self, tmp_path, capsys, monkeypatch, command,
                                                  sizes, named):
        # The estimate alone refuses: the job itself must never start at these sizes.
        def never(*args, **arguments):
            raise AssertionError(f"{command} ran at {sizes}")

        job = sizes.get("scenario", command)
        monkeypatch.setitem(cli.SCENARIOS if job in SCENARIOS else cli.RUNNERS, job, never)
        assert cli.PEAK_BYTES[job][1](normalize_config(command, {"parameters": sizes})
                                      ["parameters"]) > 1000 * cli.MEMORY_BUDGET
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"parameters": sizes}))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert named in captured.out and "budget of 4 GiB" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_memory_guard_boundary(self):
        # 0.5 B x n_x^2 crosses 4 GiB between n_x 92681 and 92682; only the estimate runs.
        cli._require_memory("evolve-qm", {"n_x": 92681})
        with pytest.raises(ConfigInvalid, match="'n_x'"):
            cli._require_memory("evolve-qm", {"n_x": 92682})

    def test_evolve_cm_memory_guard_boundary(self):
        # 28 B x n_q x n_p crosses 4 GiB between 12385^2 and 12386^2 nodes.
        cli._require_memory("evolve-cm", {"n_q": 12385, "n_p": 12385})
        with pytest.raises(ConfigInvalid, match="'n_q' and 'n_p'"):
            cli._require_memory("evolve-cm", {"n_q": 12386, "n_p": 12386})

    def test_scenario_memory_guard_boundary(self):
        # 113 B x dim^2 crosses 4 GiB between dim 6165 and 6166; run-scenario's
        # estimate is read from the scenario field.
        cli._require_memory("run-scenario", {"scenario": "number_basis", "dim": 6165})
        with pytest.raises(ConfigInvalid, match="'dim'"):
            cli._require_memory("run-scenario", {"scenario": "number_basis", "dim": 6166})

    @pytest.mark.parametrize(
        "command, base, fields, unit, sizes",
        [
            ("evolve-qm", {}, ("n_x",), ("n_x", "n_x"), (1024, 2048)),
            ("table1-report", {}, ("n_x",), ("n_x", "n_x"), (1024, 2048)),
            # Per n_q x n_p node on square grids and along each axis: the linear
            # terms in n_q and n_p show in the slope along the other's short axis.
            ("evolve-cm", {}, ("n_q", "n_p"), ("n_q", "n_p"), (1024, 2048)),
            ("evolve-cm", {"n_p": 128}, ("n_q",), ("n_q", "n_p"), (65536, 131072)),
            ("evolve-cm", {"n_q": 20}, ("n_p",), ("n_q", "n_p"), (131072, 262144)),
            # The default branch "both": its two branches sample one after the other.
            ("mc-compare", {}, ("n_samples",), ("n_samples",), (200_000, 400_000)),
            # bins at few samples, where the histograms set the peak's growth.
            ("mc-compare", {"n_samples": 2000}, ("bins",), ("bins",), (400_000, 800_000)),
        ],
        ids=["evolve-qm", "table1-report", "evolve-cm", "evolve-cm-n_q", "evolve-cm-n_p",
             "mc-compare", "mc-compare-bins"],
    )
    def test_memory_estimate_is_the_traced_slope_rounded_up(self, tmp_path, command, base,
                                                             fields, unit, sizes):
        # The traced peak's slope per unit of size (the product of the ``unit``
        # fields) as ``fields`` go from one size to the other: in n_x^2 between 1024
        # and 2048, where table1-report's size-independent part (about 14 MB at 512)
        # no longer sets the peak, in n_q x n_p, in n_samples, and in bins. The
        # estimate's slope between the same two configs may not fall below it, nor
        # round it up by a whole 2 B. Warmed up first: the first call may trace an
        # import.
        execute({"command": command, "parameters": base}, tmp_path / "warm")
        peaks, estimates, units = [], [], []
        for n in sizes:
            config = normalize_config(command, {"parameters": {**base, **dict.fromkeys(fields, n)}})
            estimates.append(cli.PEAK_BYTES[command][1](config["parameters"]))
            units.append(math.prod(config["parameters"][field] for field in unit))
            tracemalloc.start()
            try:
                execute(config, tmp_path / str(n))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        scale = units[1] - units[0]
        slope = (peaks[1] - peaks[0]) / scale
        assert slope <= (estimates[1] - estimates[0]) / scale < slope + 2.0

    @pytest.mark.parametrize(
        "scenario, base, field, sizes",
        [
            ("two_delta", {}, "n_q", (2048, 4096)),
            # n_Q on a 64-node q grid, past the sizes where the pointer record's
            # fixed kernel chunks (about 2 MB) set the peak.
            ("two_delta", {"n_q": 64}, "n_Q", (45056, 53248)),
            ("interference", {}, "n_x", (2048, 4096)),
            ("interference", {"n_x": 64}, "n_Q", (36864, 45056)),
            ("number_basis", {}, "dim", (256, 512)),
            ("gaussian_bessel", {"n_theta": 1024}, "n_xi", (1024, 2048)),
        ],
        ids=["two_delta-n_q", "two_delta-n_Q", "interference-n_x", "interference-n_Q",
             "number_basis-dim", "gaussian_bessel-n_xi"],
    )
    def test_scenario_memory_estimate_is_the_traced_slope_rounded_up(
            self, tmp_path, scenario, base, field, sizes):
        # Between two sizes the estimate grows by the traced peak's growth, rounded
        # up by less than 5%. Warmed up first: the first call may trace an import.
        config = normalize_config("run-scenario", {"parameters": {"scenario": scenario, **base}})
        execute(config, tmp_path / "warm")
        peaks, estimates = [], []
        for n in sizes:
            params = {**config["parameters"], field: n}
            estimates.append(cli.PEAK_BYTES[scenario][1](params))
            tracemalloc.start()
            try:
                execute({"command": "run-scenario", "parameters": params}, tmp_path / str(n))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        traced = peaks[1] - peaks[0]
        assert traced <= estimates[1] - estimates[0] < 1.05 * traced

    def test_memory_guard_admits_the_default_and_benchmark_sizes(self):
        sizes = {"evolve-qm": {"n_x": 2048}, "table1-report": {"n_x": 2048},
                 "evolve-cm": {"n_q": 1024, "n_p": 1024}, "mc-compare": {"n_samples": 10**6}}
        for command, fields in sizes.items():
            for params in ({}, fields):
                config = normalize_config(command, {"parameters": params})
                assert cli.PEAK_BYTES[command][1](config["parameters"]) < cli.MEMORY_BUDGET / 10
        for scenario in SCENARIOS:
            config = normalize_config("run-scenario", {"parameters": {"scenario": scenario}})
            assert cli.PEAK_BYTES[scenario][1](config["parameters"]) < cli.MEMORY_BUDGET / 10

    def test_evolve_cm_kernel_wider_than_the_p_grid_names_its_cause(self, tmp_path, capsys):
        # sigma_P = 50 at epsilon = 1: the diffused spread 6 sqrt(1 + 2500) =
        # 300.1 leaves the +-12 p grid, so the config is refused before any run.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"parameters": {"sigma_P": 50.0}}))
        assert main(["evolve-cm", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        out = capsys.readouterr().out
        assert "'sigma_p', 'sigma_P' and 'tau'" in out
        assert "[-300.1, 300.1]" in out and "grid [-12, 12]" in out

    @pytest.mark.parametrize("nodes, refused", [(256, False), (257, True)],
                             ids=["reach-n", "reach-n-plus-1"])
    def test_kernel_reach_is_the_solvers_rule_in_mc_compare(self, tmp_path, nodes, refused):
        # The kernel reaches ceil(7 sqrt(2 tau) / h) nodes of mc-compare's 256-node p
        # grid: 256 runs and 257 is refused, through the command and the solver alike.
        # At 256, sqrt(2 tau) = 3.436 lies in (3.4286, 3.4420], which a rule of 7 widths
        # against the span used to refuse in the command alone.
        qgrid, pgrid = Grid1D(-8.0, 8.0, 256), Grid1D(-12.0, 12.0, 256)
        tau = 0.5 * ((nodes - 0.5) * pgrid.h / 7.0) ** 2
        rho = build_gaussian_phase_density(qgrid, pgrid, 1.0, 1.0)
        config = {"command": "mc-compare", "parameters": {
            "tau": tau, "branch": "position", "n_samples": 2000, "bins": 8}}
        if refused:
            with pytest.raises(InvariantViolation, match="reach 257 p steps"):
                reduced_state_post_cm(rho, position_observable(), tau)
            with pytest.raises(ConfigInvalid, match="'sigma_P' and 'tau': .*reach 257 p steps"):
                execute(config, tmp_path / "o")
        else:
            reduced_state_post_cm(rho, position_observable(), tau)
            assert execute(config, tmp_path / "o")["config"]["parameters"]["tau"] == tau

    @pytest.mark.parametrize("shrink, refused", [(1.0, False), (1.0 - 1e-12, True)],
                             ids=["six-widths", "past-six-widths"])
    def test_evolve_cm_diffused_spread_edge(self, tmp_path, shrink, refused):
        # sigma_p 1.2 and tau 1.28 diffuse to width 2 (a 3-4-5 triangle): a p grid of
        # half-width 6 widths holds it, one a hair narrower is refused.
        sigma_p, tau = 1.2, 1.28
        config = {"command": "evolve-cm", "parameters": {
            "n_q": 64, "sigma_p": sigma_p, "tau": tau,
            "grid_halfwidth_p": 6.0 * diffused_width(sigma_p, tau) * shrink}}
        if refused:
            with pytest.raises(ConfigInvalid, match=r"'sigma_p', 'sigma_P' and 'tau' \(the diffused"):
                execute(config, tmp_path / "o")
        else:
            assert execute(config, tmp_path / "o")["all_passed"]

    @pytest.mark.parametrize("factor, refused", [(1.0 + 1e-9, False), (1.0 - 1e-9, True)],
                             ids=["just-above", "just-below"])
    def test_evolve_cm_diffused_width_steps_edge(self, tmp_path, factor, refused):
        # 64 p nodes on +-12 and sigma_P 0.6 (2 tau = 0.36): sigma_p is set so that the
        # diffused width sqrt(sigma_p^2 + 2 tau) lies a hair either side of
        # DIFFUSED_WIDTH_STEPS p steps. Just above, the run passes every check.
        width = factor * DIFFUSED_WIDTH_STEPS * Grid1D(-12.0, 12.0, 64).h
        config = {"command": "evolve-cm", "parameters": {
            "n_q": 64, "n_p": 64, "sigma_p": math.sqrt(width**2 - 0.36)}}
        if refused:
            with pytest.raises(ConfigInvalid, match="'sigma_p', 'sigma_P', 'tau', 'n_p'"):
                execute(config, tmp_path / "o")
        else:
            assert execute(config, tmp_path / "o")["all_passed"]

    def test_evolve_cm_narrow_state_passes_the_relative_monitor(self, tmp_path):
        # sigma_q 1e-7 puts the density's peak at 1.6e6; the position-kind damping's
        # FFT roundoff on it reaches -1.861e-10, past the absolute monitor -1e-10 but
        # within 1e-10 of the peak, so the run completes and passes every check.
        config = {"command": "evolve-cm", "parameters": {
            "grid_halfwidth_q": 1e-6, "sigma_q": 1e-7, "center_q": 0.0}}
        assert execute(config, tmp_path / "o")["all_passed"]

    def test_evolve_cm_narrow_state_passes_the_relative_drift(self, tmp_path):
        # sigma_q 1e-10 puts the q marginal's peak at about 4e9; the channel's
        # roundoff moves it by 1.43e-6, past the absolute 1e-8 but 3.6e-16 of the peak.
        config = {"command": "evolve-cm", "parameters": {
            "grid_halfwidth_q": 1e-9, "sigma_q": 1e-10, "center_q": 0.0}}
        manifest = execute(config, tmp_path / "o")
        drift = next(c for c in manifest["checks"]
                     if c["description"] == "q-marginal invariance (max drift)")
        assert drift["passed"] and manifest["all_passed"]

    def test_mc_compare_refuses_both_branches_before_sampling(self, tmp_path, capsys, monkeypatch):
        # sigma_q = 0.07 is above the position branch's step 16/255 and below
        # the action branch's 30.4/383: the refusal comes before any sampling.
        def never(*args, **kwargs):
            raise AssertionError("sample_chunks ran before the widths were checked")

        monkeypatch.setattr(cli, "sample_chunks", never)
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

    @pytest.mark.parametrize("sigma_qbar, sigma_pbar", [(1.0, 20.0), (2.0, 0.1)],
                             ids=["wide-p", "narrow-p"])
    def test_gaussian_bessel_at_width_ratio_20_passes(self, tmp_path, sigma_qbar, sigma_pbar):
        # The largest ratio admitted; its resampling L1 reads 9.84e-4 against 1e-3.
        config = {"command": "run-scenario", "parameters": {
            "scenario": "gaussian_bessel", "sigma_qbar": sigma_qbar, "sigma_pbar": sigma_pbar}}
        manifest = execute(config, tmp_path / "o")
        assert manifest["all_passed"]
        l1 = [c for c in manifest["checks"] if "resampling" in c["description"]]
        assert l1 and 9e-4 < l1[0]["measured"] < 1e-3

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

    def test_csv_bytes_of_special_values(self, tmp_path):
        # 17 significant digits, so every double reads back exactly; nan, inf and -0
        # as Python's format spec spells them, subnormals included.
        path = tmp_path / "t.csv"
        cli.write_table(path, {"x": np.array([0.1, -0.0, 1e-300, 5e-324]),
                               "y (units)": np.array([np.nan, np.inf, -np.inf, 2.0**-1030])})
        assert path.read_bytes() == (b"x,y (units)\n"
                                     b"0.10000000000000001,nan\n"
                                     b"-0,inf\n"
                                     b"1e-300,-inf\n"
                                     b"4.9406564584124654e-324,8.6916947597937554e-311\n")

    @pytest.mark.parametrize(
        "columns",
        [
            {"x": np.array([0.0, -0.0, 1e-310, 5e-324, np.nan, np.inf, -np.inf, -1.5e300]),
             "y (units)": np.array([1.0, 2.0**-1030, -np.nan, 0.1, -0.0, 7.0, 1e22, -3.0])},
            {"one column": np.array([0.25, -0.0, np.nan, 1e-320])},
            {"a": np.zeros(0), "b": np.zeros(0)},
            # Three blocks, the last one partial, over every kind of value.
            {"a": np.random.default_rng(5).standard_normal(2 * cli.TABLE_BLOCK + 3),
             "b": np.resize([np.nan, -0.0, 1e-310, np.inf], 2 * cli.TABLE_BLOCK + 3),
             "c": np.arange(2 * cli.TABLE_BLOCK + 3) * 1e300},
        ],
        ids=["special values", "one column", "zero rows", "three blocks"],
    )
    def test_csv_bytes_are_savetxts(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        cli.write_table(path, columns)
        with (tmp_path / "savetxt.csv").open("w", newline="\n") as fh:
            np.savetxt(fh, np.column_stack(list(columns.values())), fmt="%.17g", delimiter=",",
                       header=",".join(columns), comments="")
        assert path.read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_table_columns_of_unequal_length_refused(self, tmp_path):
        with pytest.raises(VnLabError, match="share a length"):
            cli.write_table(tmp_path / "t.csv", {"a": np.zeros(3), "b": np.zeros(4)})
        assert not (tmp_path / "t.csv").exists()

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
