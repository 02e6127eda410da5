"""Command-line front end: configured runs, CSV/JSON artifacts, manifests.

Commands
--------
run-scenario   one of the canned demonstrations, by name
evolve-qm      quantum channel on a position-grid Gaussian: pointer record,
               occupation invariance, momentum-variance growth
evolve-cm      classical channel on a phase-space Gaussian: probe marginal,
               marginal invariance, momentum-variance growth
mc-compare     trajectory Monte Carlo against the density-picture solvers
table1-report  the four quantum/classical correspondence rows as executed
               checks

A command's parameters, with their defaults and admitted ranges, are its
``DEFAULT_PARAMETERS`` entry; a scenario's are read from its function's
signature (``SCENARIO_PARAMETERS``). ``normalize_config`` refuses every other
name and every value outside a field's range with ``ConfigInvalid``.

Every run writes ``manifest.json`` (config echo, version, seed, timestamps,
check results, output digests), ``checks.json`` and one CSV per array output.
Outputs are byte-stable under rerun with the same config; the manifest differs
only in its timestamps. Exit status is 0 exactly when every check passes.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import inspect
import json
import math
import numbers
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .cm import (
    auto_probe_grid,
    cm_diffusion_rhs,
    diffused_width,
    kernel_pad,
    probe_marginal_Q,
    probe_mean_Q,
    reduced_state_post_cm,
    require_diffusion_resolved,
)
from .errors import ConfigInvalid, InvariantViolation, TruncationTooSmall, VnLabError
from .grids import Grid1D, _Handover
from .heisenberg import (
    flow_action,
    flow_position,
    histogram_l1_distance,
    periodic_histogram_l1_distance,
    sample_initial,
    to_action_ensemble,
)
from .observables import (
    CouplingParams,
    ProbeSpec,
    SpectralObservable,
    action_observable,
    position_observable,
)
from .qm import (
    auto_pointer_grid,
    lindblad_evolve,
    lindblad_rhs,
    pointer_distribution,
    pointer_mean,
    position_disturbance_scale,
)
from .scenarios import (
    DEFAULT_EPSILON,
    SCENARIOS,
    NonNegative,
    ScenarioCheck,
    Signed,
    number_basis_initial_state,
)
from .states import (
    DensityOperator,
    build_gaussian_phase_density,
    delta_width,
    density_from_wavefunction,
    expectation,
    gaussian_wavepacket,
    phase_density_from_values,
    require_fits,
    require_resolved,
    to_angle_action,
)
from .wigner import WignerEvolutionSpec, momentum_marginals

SCHEMA_VERSION = 1

COMMANDS = ("run-scenario", "evolve-qm", "evolve-cm", "mc-compare", "table1-report")

# The top-level fields of a config document.
CONFIG_FIELDS = ("schema_version", "command", "parameters", "tolerances")

# The coupling's two descriptions: give one, the other is derived through epsilon.
COUPLING_PAIR = ("tau", "sigma_P")


class Seed(int):
    """A seed default: it keys the Philox streams ``seed`` and ``seed + 1``."""


class Choice(str):
    """A string default together with every value the field admits."""

    def __new__(cls, default: str, options):
        choice = super().__new__(cls, default)
        choice.options = tuple(options)
        return choice


# What a numeric field admits, by the type of its default.
RANGES = {
    int: (lambda v: v >= 2, "an integer >= 2"),
    Seed: (lambda v: 0 <= v < 2**128 - 1, "an integer in [0, 2**128 - 1)"),
    float: (lambda v: v > 0, "a finite number > 0"),
    NonNegative: (lambda v: v >= 0, "a finite number >= 0"),
    Signed: (lambda v: True, "a finite number"),
}

# Each command's parameters: name, default, and through the default's type the
# admitted range (RANGES). ``tau`` has no default: it is derived from sigma_P.
DEFAULT_PARAMETERS: dict[str, dict] = {
    # A scenario takes the parameters of its function (SCENARIO_PARAMETERS).
    "run-scenario": {"scenario": Choice("two_delta", SCENARIOS)},
    "evolve-qm": {
        "n_x": 256,
        "grid_halfwidth": 8.0,
        "sigma_x": 1.0,
        "center_x": Signed(0.25),
        "sigma_Q": 0.2,
        "epsilon": 1.0,
        "sigma_P": 0.6,
        "tau": None,
        "hbar": 1.0,
    },
    "evolve-cm": {
        "n_q": 256,
        "n_p": 256,
        "grid_halfwidth_q": 8.0,
        "grid_halfwidth_p": 12.0,
        "sigma_q": 1.0,
        "sigma_p": 1.0,
        "center_q": Signed(0.25),
        "sigma_Q": 0.2,
        "epsilon": 1.0,
        "sigma_P": 0.6,
        "tau": None,
    },
    "mc-compare": {
        "n_samples": 100000,
        "seed": Seed(20240801),
        "bins": 24,
        "sigma_q": 1.0,
        "sigma_p": 1.0,
        "sigma_Q": 0.4,
        "epsilon": 1.0,
        "sigma_P": 0.6,
        "tau": None,
        "branch": Choice("both", ("position", "action", "both")),
    },
    "table1-report": {
        "n_x": 256,
        "grid_halfwidth": 8.0,
        "sigma_x": 1.0,
        "center": Signed(0.25),
        "sigma_Q": 0.25,
        "epsilon": 2.0,
        "sigma_P": 0.3,
        "tau": None,
        "hbar": 1.0,
    },
}

DEFAULT_TOLERANCES: dict[str, dict[str, float]] = {
    "run-scenario": {},
    "evolve-qm": {
        "pointer_normalization": 1e-8,
        "pointer_mean": 1e-8,
        "distribution_invariance": 1e-10,
        "variance_growth": 1e-4,
    },
    "evolve-cm": {
        "mass": 1e-6,
        "probe_mean": 1e-8,
        "q_marginal_drift": 1e-8,
        "variance_growth": 1e-4,
    },
    "mc-compare": {"l1_coefficient": 5.0},
    "table1-report": {
        "row1_expectation": 1e-8,
        "row2_uncertainty_qm": 1e-8,
        "row2_uncertainty_cm": 1e-6,
        "row3_variance": 1e-4,
        "row4_qm_derivative": 1e-3,
        "row4_cm_order": 0.6,
    },
}


# ---------------------------------------------------------------------------
# Scenario parameters, read from the scenario signatures
# ---------------------------------------------------------------------------

def _is_coupling(annotation) -> bool:
    return CouplingParams in (annotation, *typing.get_args(annotation))


def _fields(arg: inspect.Parameter) -> dict:
    """The config fields one scenario argument flattens into, with defaults."""
    kind, default = arg.annotation, arg.default
    if kind is ProbeSpec:
        return {"sigma_Q": default.sigma_Q, "sigma_P": default.sigma_P}
    if _is_coupling(kind):
        if default is None:  # derived from the probe, whose sigma_P is the field's default
            return {"epsilon": DEFAULT_EPSILON, "tau": None}
        return {"epsilon": default.epsilon, "sigma_P": default.sigma_P, "tau": None}
    if kind is complex:
        z = complex(default)
        return {f"{arg.name}_re": Signed(z.real), f"{arg.name}_im": Signed(z.imag)}
    return {arg.name: kind(default)}


def _argument(arg: inspect.Parameter, params: dict):
    """The value of one scenario argument, rebuilt from its config fields."""
    if arg.annotation is ProbeSpec:
        return ProbeSpec(sigma_Q=params["sigma_Q"], sigma_P=params["sigma_P"])
    if _is_coupling(arg.annotation):
        return CouplingParams(epsilon=params["epsilon"], tau=params["tau"])
    if arg.annotation is complex:
        return complex(params[f"{arg.name}_re"], params[f"{arg.name}_im"])
    return params[arg.name]


_SIGNATURES = {
    name: inspect.signature(fn, eval_str=True).parameters.values()
    for name, fn in SCENARIOS.items()
}

SCENARIO_PARAMETERS: dict[str, dict] = {
    name: {field: default for arg in args for field, default in _fields(arg).items()}
    for name, args in _SIGNATURES.items()
}

# The CSV tables of each scenario: file name, then output key -> column header.
SCENARIO_TABLES: dict[str, list[tuple[str, dict[str, str]]]] = {
    "two_delta": [("probe_marginal.csv", {
        "Q": "Q (probe position units)", "probe_marginal": "density (1/Q units)"})],
    "interference": [
        ("position_density.csv", {
            "x": "x (position units)",
            "position_density_superposition": "superposition (1/x units)",
            "position_density_mixture": "mixture (1/x units)"}),
        ("pointer.csv", {
            "Q": "Q (probe position units)",
            "pointer_superposition": "superposition (1/Q units)",
            "pointer_mixture": "mixture (1/Q units)"})],
    "number_basis": [("occupation.csv", {
        "levels": "level (action units)", "occupation": "probability"})],
    "gaussian_bessel": [("angle_average.csv", {
        "xi": "xi (action units)", "numeric_average": "numeric (1/xi units)",
        "closed_form": "closed_form (1/xi units)"})],
}


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _checked(name: str, value, default, what: str = "parameter"):
    """``value`` as the plain type of ``default``, if the field admits it."""
    if name in COUPLING_PAIR:
        if value is None:  # derived from the other member
            return None
        default = NonNegative()
    if isinstance(default, Choice):
        if value not in default.options:
            raise ConfigInvalid(
                f"{what} {name!r} must be one of {', '.join(default.options)}; got {value!r}"
            )
        return str(value)
    admits, admitted = RANGES[type(default)]
    integral = isinstance(default, int)
    try:
        ok = (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
            and (not integral or value == int(value))
            and admits(value)
        )
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ConfigInvalid(f"{what} {name!r} must be {admitted}; got {value!r}")
    return int(value) if integral else float(value)


def _object(raw: dict, field: str) -> dict:
    value = raw.get(field, {})
    if not isinstance(value, dict):
        raise ConfigInvalid(f"config field {field!r} must be a JSON object; got {value!r}")
    return value


def _spec(command: str, user: dict) -> tuple[str, dict]:
    """(who takes the parameters, their spec) for a command's user parameters."""
    if command != "run-scenario":
        return f"command {command!r}", DEFAULT_PARAMETERS[command]
    choice = DEFAULT_PARAMETERS[command]["scenario"]
    name = _checked("scenario", user.get("scenario", choice), choice)
    return f"scenario {name!r}", {"scenario": choice, **SCENARIO_PARAMETERS[name]}


def normalize_config(command: str, raw: dict | None) -> dict:
    """Merge defaults, derive the coupling pair, validate every field."""
    if command not in COMMANDS:
        raise ConfigInvalid(f"unknown command {command!r}")
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"config must be a JSON object; got {type(raw).__name__}")
    for key in raw:
        if key not in CONFIG_FIELDS:
            raise ConfigInvalid(f"unknown config field {key!r}")
    if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigInvalid(f"unsupported schema_version {raw.get('schema_version')!r}")
    if raw.get("command", command) != command:
        raise ConfigInvalid(f"config field 'command' ({raw['command']!r}) conflicts with {command!r}")
    user = _object(raw, "parameters")
    tolerances = _object(raw, "tolerances")
    owner, spec = _spec(command, user)
    for name in user:
        if name not in spec:
            raise ConfigInvalid(f"unknown parameter {name!r} for {owner}")
    params = {name: _checked(name, user.get(name, default), default)
              for name, default in spec.items()}
    if "tau" in spec:
        # A user-supplied member of the pair displaces the default of the other.
        if params["tau"] is not None and user.get("sigma_P") is None:
            params["sigma_P"] = None
        tau, sigma_P, eps = params["tau"], params["sigma_P"], params["epsilon"]
        if tau is None and sigma_P is None:
            raise ConfigInvalid("exactly one of 'tau' or 'sigma_P' must be given")
        try:
            derived = None if sigma_P is None else CouplingParams.from_sigma_P(eps, sigma_P).tau
        except OverflowError:
            derived = math.inf
        if tau is None:
            params["tau"] = _checked("tau", derived, None)
        elif sigma_P is None:
            params["sigma_P"] = _checked("sigma_P", CouplingParams(eps, tau).sigma_P, None)
        elif abs(tau - derived) > 1e-12 * max(1.0, abs(tau)):
            # An already-normalized config carries both; they must agree.
            raise ConfigInvalid("give exactly one of 'tau' or 'sigma_P', not both")
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": params,
        "tolerances": dict(tolerances),
    }


def resolve_tolerances(command: str, config: dict, overrides: dict[str, float]) -> dict:
    tol = dict(DEFAULT_TOLERANCES[command])
    for source in (config.get("tolerances", {}), overrides):
        for name, value in source.items():
            if name not in tol:
                raise ConfigInvalid(f"unknown tolerance {name!r} for command {command!r}")
            tol[name] = _checked(name, value, NonNegative(), "tolerance")
    return tol


def _probe_coupling(params: dict) -> tuple[ProbeSpec, CouplingParams]:
    probe = ProbeSpec(sigma_Q=params["sigma_Q"], sigma_P=params["sigma_P"])
    coupling = CouplingParams(epsilon=params["epsilon"], tau=params["tau"])
    return probe, coupling


def _momentum_variance(params: dict) -> float:
    """s^2 = (hbar / (2 sigma_x))^2, once hbar admits it (ConfigInvalid otherwise).

    Refused in logarithms, before anything overflows: hbar^2 (the channel divides
    by it) and (8 s)^2, the momentum grid's squared reach, must be normal floats.
    """
    hbar, sigma_x = params["hbar"], params["sigma_x"]
    tiny, huge = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
    if not tiny <= 2.0 * math.log(hbar) < huge:
        raise ConfigInvalid(f"parameter 'hbar' = {hbar!r}: hbar^2 is not a normal float")
    if not tiny <= 2.0 * (math.log(4.0 * hbar) - math.log(sigma_x)) < huge:
        raise ConfigInvalid(f"'hbar' and 'sigma_x': (8 hbar / (2 sigma_x))^2, the square of "
                            f"the momentum grid's reach, is not a normal float")
    return (hbar / (2.0 * sigma_x)) ** 2


def _wigner_pgrid(params: dict, xgrid: Grid1D, s2: float, tau: float, pad: float = 0.0) -> Grid1D:
    """n_x nodes over +-(8 sqrt(s^2 + 2 tau) + pad) for the Wigner marginals, within
    pi hbar / (2h): y steps by 2h, so the marginals are periodic in p with period pi hbar / h."""
    p_half = 8.0 * np.sqrt(s2 + 2.0 * tau) + pad
    band = np.pi * params["hbar"] / (2.0 * xgrid.h)
    if p_half > band:
        raise ConfigInvalid(f"'hbar', 'n_x', 'grid_halfwidth' and 'sigma_P': the Wigner momentum "
                            f"grid's half-width {p_half:.4g} exceeds pi hbar / (2 h) = {band:.4g}, "
                            "half the period in p of the transform at y steps 2h")
    return Grid1D(-p_half, p_half, int(params["n_x"]))


# A command's estimated peak memory, in bytes, from its size fields: the slope of
# its traced peak (tracemalloc) between two small sizes, rounded up. The
# intercepts, at most 14 MB, are left out. ``_execute`` refuses an estimate past
# MEMORY_BUDGET before any array is allocated.
MEMORY_BUDGET = 4 * 2**30
PEAK_BYTES = {
    "evolve-qm": ("'n_x'", lambda p: 45.0 * p["n_x"] * p["n_x"]),
    "table1-report": ("'n_x'", lambda p: 49.0 * p["n_x"] * p["n_x"]),
    "evolve-cm": ("'n_q' and 'n_p'", lambda p: 23.0 * p["n_q"] * p["n_p"]),
    "mc-compare": ("'n_samples'", lambda p: 128.0 * p["n_samples"]),
}


def _require_memory(command: str, params: dict) -> None:
    """Refuse (ConfigInvalid, naming the size fields) a peak estimate past MEMORY_BUDGET."""
    if command in PEAK_BYTES:
        fields, estimate = PEAK_BYTES[command]
        peak = estimate(params)
        if peak > MEMORY_BUDGET:
            raise ConfigInvalid(f"{fields}: the estimated peak memory {peak / 2**30:.5g} GiB "
                                f"exceeds the budget of {MEMORY_BUDGET / 2**30:g} GiB")


# ---------------------------------------------------------------------------
# Command implementations: each returns (checks, scalars, tables)
# ---------------------------------------------------------------------------

Table = tuple[str, list[str], list[np.ndarray]]


def _moment(grid: Grid1D, density: np.ndarray, power: int = 1, center: float = 0.0) -> float:
    return grid.integrate((grid.nodes - center) ** power * density)


def _variance(grid: Grid1D, density: np.ndarray) -> float:
    mass = grid.integrate(density)
    mean = _moment(grid, density) / mass
    return _moment(grid, density, power=2, center=mean) / mass


def run_evolve_qm(params: dict, tol: dict):
    probe, coupling = _probe_coupling(params)
    hbar = params["hbar"]
    xgrid = Grid1D(-params["grid_halfwidth"], params["grid_halfwidth"], int(params["n_x"]))
    require_resolved("sigma_x", params["sigma_x"], xgrid)
    require_fits("'center_x', 'sigma_x' and 'grid_halfwidth'", params["center_x"],
                 params["sigma_x"], xgrid)
    s2 = _momentum_variance(params)
    pgrid = _wigner_pgrid(params, xgrid, s2, coupling.tau)
    psi = gaussian_wavepacket(xgrid, center=params["center_x"], sigma_x=params["sigma_x"], hbar=hbar)
    rho = density_from_wavefunction(psi, xgrid)
    obs = SpectralObservable.from_diagonal(xgrid.nodes)

    Qgrid = auto_pointer_grid(obs, probe, coupling, n=1024)
    pointer = pointer_distribution(rho, obs, probe, coupling, Qgrid)
    pointer_mass = Qgrid.integrate(pointer)
    mean_ratio = _moment(Qgrid, pointer) / coupling.epsilon
    mean_expected = pointer_mean(rho, obs, coupling) / coupling.epsilon

    # rho's diagonal (offset-0 anti-diagonal) after the channel: times its factor at y = 0.
    spec = WignerEvolutionSpec(A=lambda x: x, tau=coupling.tau)
    diagonal = np.diag(rho.matrix)
    invariance = float(np.max(np.abs(diagonal * spec.damping(xgrid.nodes, 0.0, hbar) - diagonal)))

    p_before, p_after = momentum_marginals(rho, spec, pgrid, hbar=hbar)
    var_after = _variance(pgrid, p_after)

    checks = [
        ScenarioCheck("pointer distribution mass", pointer_mass, 1.0,
                      tol["pointer_normalization"], "oracle"),
        ScenarioCheck("mean pointer shift over epsilon equals <A>", mean_ratio,
                      mean_expected, tol["pointer_mean"], "analytic"),
        ScenarioCheck("outcome distribution invariance (max drift)", invariance, 0.0,
                      tol["distribution_invariance"], "analytic"),
        ScenarioCheck("momentum variance grows by 2*tau", var_after, s2 + 2.0 * coupling.tau,
                      tol["variance_growth"], "closed-form"),
    ]
    scalars = {
        "tau": coupling.tau,
        "disturbance_scale": position_disturbance_scale(rho, coupling, hbar=hbar),
        "momentum_variance_before": _variance(pgrid, p_before),
        "momentum_variance_after": var_after,
    }
    tables: list[Table] = [
        ("pointer_distribution.csv",
         ["Q (probe position units)", "density (1/Q units)"],
         [Qgrid.nodes, pointer]),
        ("momentum_density.csv",
         ["p (momentum units)", "before (1/p units)", "after (1/p units)"],
         [pgrid.nodes, p_before, p_after]),
    ]
    return checks, scalars, tables


def run_evolve_cm(params: dict, tol: dict):
    probe, coupling = _probe_coupling(params)
    qgrid = Grid1D(-params["grid_halfwidth_q"], params["grid_halfwidth_q"], int(params["n_q"]))
    pgrid = Grid1D(-params["grid_halfwidth_p"], params["grid_halfwidth_p"], int(params["n_p"]))
    require_resolved("sigma_q", params["sigma_q"], qgrid)
    require_resolved("sigma_p", params["sigma_p"], pgrid)
    require_fits("'center_q', 'sigma_q' and 'grid_halfwidth_q'", params["center_q"],
                 params["sigma_q"], qgrid)
    require_fits("'sigma_p', 'sigma_P' and 'tau' (the diffused p Gaussian)", 0.0,
                 diffused_width(params["sigma_p"], coupling.tau), pgrid)
    require_diffusion_resolved("'sigma_p', 'sigma_P', 'tau', 'n_p' and 'grid_halfwidth_p'",
                               params["sigma_p"], coupling.tau, pgrid)
    rho = build_gaussian_phase_density(
        qgrid, pgrid, params["sigma_q"], params["sigma_p"], center_q=params["center_q"]
    )
    obs = position_observable()
    rho_post = reduced_state_post_cm(rho, obs, coupling.tau)

    Qgrid = auto_probe_grid(rho, obs, probe, coupling, n=1024)
    marginal = probe_marginal_Q(rho, probe, obs, coupling, Qgrid)
    mean_ratio = _moment(Qgrid, marginal) / coupling.epsilon
    mean_expected = probe_mean_Q(rho, obs, coupling) / coupling.epsilon

    drift = float(np.max(np.abs(rho_post.q_marginal() - rho.q_marginal())))
    var_after = _variance(pgrid, rho_post.p_marginal())

    checks = [
        ScenarioCheck("evolved density mass", rho_post.mass(), 1.0, tol["mass"], "oracle"),
        ScenarioCheck("mean probe shift over epsilon equals <A>", mean_ratio,
                      mean_expected, tol["probe_mean"], "analytic"),
        ScenarioCheck("q-marginal invariance (max drift)", drift, 0.0,
                      tol["q_marginal_drift"], "analytic"),
        ScenarioCheck("momentum variance grows by 2*tau", var_after,
                      params["sigma_p"] ** 2 + 2.0 * coupling.tau,
                      tol["variance_growth"], "closed-form"),
    ]
    scalars = {
        "tau": coupling.tau,
        "momentum_variance_before": _variance(pgrid, rho.p_marginal()),
        "momentum_variance_after": var_after,
    }
    tables: list[Table] = [
        ("probe_marginal.csv",
         ["Q (probe position units)", "density (1/Q units)"],
         [Qgrid.nodes, marginal]),
        ("q_marginal.csv",
         ["q (position units)", "before (1/q units)", "after (1/q units)"],
         [qgrid.nodes, rho.q_marginal(), rho_post.q_marginal()]),
        ("p_marginal.csv",
         ["p (momentum units)", "before (1/p units)", "after (1/p units)"],
         [pgrid.nodes, rho.p_marginal(), rho_post.p_marginal()]),
    ]
    return checks, scalars, tables


def run_mc_compare(params: dict, tol: dict):
    probe, coupling = _probe_coupling(params)
    n = int(params["n_samples"])
    bins = int(params["bins"])
    seed = int(params["seed"])
    budget = tol["l1_coefficient"] / np.sqrt(n)
    if budget >= 2.0:
        raise ConfigInvalid(
            f"parameter 'n_samples' = {n} gives the L1 budget {budget:.3g}, at least 2, "
            "the largest L1 distance between densities: the histogram checks would pass "
            "whatever the samples"
        )
    checks: list[ScenarioCheck] = []
    scalars: dict = {"l1_budget": budget, "seed": seed}
    tables: list[Table] = []
    qgrid = Grid1D(-8.0, 8.0, 256)
    pgrid = Grid1D(-12.0, 12.0, 256)
    half = 8.0 * max(params["sigma_q"], params["sigma_p"])
    grid = Grid1D(-half, half, 384)
    branch_grids = {"position": (qgrid, pgrid), "action": (grid, grid)}
    branches = [b for b in branch_grids if params["branch"] in (b, "both")]
    # Every branch's widths are refused before either branch runs.
    for branch in branches:
        for name, axis_grid in zip(("sigma_q", "sigma_p"), branch_grids[branch]):
            require_resolved(name, params[name], axis_grid)
            require_fits(repr(name), 0.0, params[name], axis_grid)

    if "position" in branches:
        # Spill off the p grid is counted by the histogram check; a wider kernel cannot run.
        try:
            kernel_pad(coupling.tau, pgrid)
        except InvariantViolation as exc:
            raise ConfigInvalid(f"'sigma_P' and 'tau': {exc}") from exc
        require_diffusion_resolved("'sigma_p', 'sigma_P' and 'tau'", params["sigma_p"],
                                   coupling.tau, pgrid)
        rho = build_gaussian_phase_density(qgrid, pgrid, params["sigma_q"], params["sigma_p"])
        obs = position_observable()
        ens0 = sample_initial(rho, probe, n, seed)
        ens1 = flow_position(ens0, coupling)

        Qgrid = Grid1D(-10.0, 10.0, 1024)
        model_Q = probe_marginal_Q(rho, probe, obs, coupling, Qgrid)
        l1_Q = histogram_l1_distance(ens1.Q, Qgrid, model_Q, bins=bins)
        diffused = reduced_state_post_cm(rho, obs, coupling.tau)
        l1_p = histogram_l1_distance(ens1.p, pgrid, diffused.p_marginal(), bins=bins)
        conserved = float(np.max(np.abs(ens1.q - ens0.q)) + np.max(np.abs(ens1.P - ens0.P)))
        checks += [
            ScenarioCheck("position branch: pointer histogram vs density (L1)",
                          l1_Q, 0.0, budget, "oracle"),
            ScenarioCheck("position branch: momentum histogram vs diffused density (L1)",
                          l1_p, 0.0, budget, "oracle"),
            ScenarioCheck("position branch: q and P conserved bitwise",
                          conserved, 0.0, 0.0, "analytic"),
        ]
        edges = np.linspace(Qgrid.lo, Qgrid.hi, bins + 1)
        counts, _ = np.histogram(ens1.Q, bins=edges)
        tables.append(
            ("mc_position_pointer_histogram.csv",
             ["Q_bin_left (probe position units)", "count"],
             [edges[:-1], counts.astype(float)])
        )

    if "action" in branches:
        rho = build_gaussian_phase_density(grid, grid, params["sigma_q"], params["sigma_p"])
        obs = action_observable(lambda xi: xi, lambda xi: np.ones_like(xi))
        ens0 = to_action_ensemble(sample_initial(rho, probe, n, seed + 1))
        ens1 = flow_action(ens0, obs, coupling)

        aa = to_angle_action(rho, n_xi=256, n_theta=256)
        solved = reduced_state_post_cm(aa, obs, coupling.tau)
        theta_density = solved.theta_marginal()
        l1_theta = periodic_histogram_l1_distance(
            ens1.theta, solved.thetagrid.nodes, theta_density, bins=bins
        )
        conserved = float(np.max(np.abs(ens1.xi - ens0.xi)) + np.max(np.abs(ens1.P - ens0.P)))
        mean_Q = float(np.mean(ens1.Q)) / coupling.epsilon
        expect_A = expectation(rho, obs)
        mc_sigma = float(np.std(ens1.Q) / coupling.epsilon / np.sqrt(n))
        checks += [
            ScenarioCheck("action branch: angle histogram vs spectral solution (L1)",
                          l1_theta, 0.0, budget, "oracle"),
            ScenarioCheck("action branch: xi and P conserved bitwise",
                          conserved, 0.0, 0.0, "analytic"),
            ScenarioCheck("action branch: mean pointer shift over epsilon vs <A> (3 sigma)",
                          mean_Q, expect_A, 3.0 * mc_sigma, "oracle"),
        ]
        scalars["action_mean_pointer_over_epsilon"] = mean_Q
        scalars["action_expected_A"] = expect_A
    return checks, scalars, tables


def run_table1_report(params: dict, tol: dict):
    probe, coupling = _probe_coupling(params)
    hbar = params["hbar"]
    eps = coupling.epsilon
    tau = coupling.tau
    n = int(params["n_x"])
    half = params["grid_halfwidth"]
    xgrid = Grid1D(-half, half, n)
    require_resolved("sigma_x", params["sigma_x"], xgrid)
    # Every refusal comes before the first state is built.
    require_fits("'center', 'sigma_x' and 'grid_halfwidth'", params["center"],
                 params["sigma_x"], xgrid)
    require_fits("'grid_halfwidth' (row 4's width-1 q Gaussian)", 0.0, 1.0, xgrid)
    s2 = _momentum_variance(params)
    wgrid = _wigner_pgrid(params, xgrid, s2, tau, pad=1.0)
    dim = 48  # tail weight ~e^-34 at these widths
    try:
        rho_nb = number_basis_initial_state(1.0, 1.4, dim, hbar=hbar)
    except TruncationTooSmall as exc:
        raise ConfigInvalid(f"parameter 'hbar' = {hbar!r} leaves row 4's number basis: {exc}") from exc
    rows = []

    def add_row(description: str, qm: float, cm: float, **expected) -> None:
        """One report row from the measured pair and the last two checks."""
        rows.append({"row": len(rows) + 1, "description": description, "qm_measured": qm,
                     "cm_measured": cm, **expected, "qm_passed": checks[-2].passed,
                     "cm_passed": checks[-1].passed})

    # Row 1: mean pointer shift over epsilon equals <A> on both sides.
    psi = gaussian_wavepacket(xgrid, center=params["center"], sigma_x=params["sigma_x"], hbar=hbar)
    rho_qm = density_from_wavefunction(psi, xgrid)
    obs_qm = SpectralObservable.from_diagonal(xgrid.nodes)
    Qgrid = auto_pointer_grid(obs_qm, probe, coupling, n=2048)
    pointer = pointer_distribution(rho_qm, obs_qm, probe, coupling, Qgrid)
    qm_row1 = _moment(Qgrid, pointer) / eps
    expect_row1 = pointer_mean(rho_qm, obs_qm, coupling) / eps

    pgrid = Grid1D(-12.0, 12.0, n)
    rho_cm = build_gaussian_phase_density(
        xgrid, pgrid, params["sigma_x"], 1.0, center_q=params["center"]
    )
    obs_cm = position_observable()
    marg = probe_marginal_Q(rho_cm, probe, obs_cm, coupling, Qgrid)
    cm_row1 = _moment(Qgrid, marg) / eps
    checks = [
        ScenarioCheck("row 1 (QM): <Q>'/epsilon equals <A>", qm_row1, expect_row1,
                      tol["row1_expectation"], "analytic"),
        ScenarioCheck("row 1 (CM): <Q>'/epsilon equals <A>", cm_row1, expect_row1,
                      tol["row1_expectation"], "analytic"),
    ]
    add_row("expectation values: <Q>'/epsilon = <A>", qm_row1, cm_row1,
            expected=expect_row1, tolerance=tol["row1_expectation"])

    # Row 2: pointer resolution scale sigma_Q / epsilon on both sides.
    two_level = SpectralObservable.from_diagonal(np.array([0.0, 1.0]))
    rho2 = DensityOperator(_Handover(np.diag([1.0, 0.0]).astype(complex)))
    Q2 = Grid1D(-8 * probe.sigma_Q, 8 * probe.sigma_Q, 2048)
    p2 = pointer_distribution(rho2, two_level, probe, coupling, Q2)
    qm_row2 = float(np.sqrt(_variance(Q2, p2))) / eps

    w = delta_width(xgrid)
    bump = np.exp(-0.5 * ((xgrid.nodes - 0.0) / w) ** 2)
    rho_delta = phase_density_from_values(
        xgrid, pgrid, np.outer(bump, np.exp(-0.5 * pgrid.nodes**2))
    )
    Q3 = Grid1D(-8 * (probe.sigma_Q + eps * w), 8 * (probe.sigma_Q + eps * w), 2048)
    p3 = probe_marginal_Q(rho_delta, probe, obs_cm, coupling, Q3)
    sigma_eff = np.sqrt(_variance(Q3, p3))
    cm_row2 = float(np.sqrt(max(sigma_eff**2 - (eps * w) ** 2, 0.0))) / eps
    expect_row2 = probe.sigma_Q / eps
    checks += [
        ScenarioCheck("row 2 (QM): pointer width over epsilon", qm_row2, expect_row2,
                      tol["row2_uncertainty_qm"], "analytic"),
        ScenarioCheck("row 2 (CM): deconvolved pointer width over epsilon", cm_row2,
                      expect_row2, tol["row2_uncertainty_cm"], "analytic"),
    ]
    add_row("uncertainty: pointer resolution scale sigma_Q/epsilon", qm_row2, cm_row2,
            expected=expect_row2,
            tolerance=max(tol["row2_uncertainty_qm"], tol["row2_uncertainty_cm"]))

    # Row 3: both final reduced states grow the momentum variance by 2*tau.
    spec = WignerEvolutionSpec(A=lambda x: x, tau=tau)
    qm_row3 = _variance(wgrid, momentum_marginals(rho_qm, spec, wgrid, hbar=hbar)[1])

    rho_cm3 = build_gaussian_phase_density(xgrid, wgrid, params["sigma_x"], np.sqrt(s2))
    cm_post = reduced_state_post_cm(rho_cm3, obs_cm, tau)
    cm_row3 = _variance(wgrid, cm_post.p_marginal())
    expect_row3 = s2 + 2.0 * tau
    checks += [
        ScenarioCheck("row 3 (QM): evolved Wigner momentum variance", qm_row3, expect_row3,
                      tol["row3_variance"], "closed-form"),
        ScenarioCheck("row 3 (CM): diffused density momentum variance", cm_row3, expect_row3,
                      tol["row3_variance"], "closed-form"),
    ]
    add_row("final reduced state: momentum variance s^2 + 2*tau", qm_row3, cm_row3,
            expected=expect_row3, tolerance=tol["row3_variance"])

    # Row 4: generator consistency, finite differences against the rhs.
    a_matrix = np.diag(hbar * (np.arange(dim) + 0.5))
    tau0, dtau = 0.2, 1e-4
    mid = lindblad_evolve(rho_nb, a_matrix, tau0, hbar=hbar)
    plus = lindblad_evolve(rho_nb, a_matrix, tau0 + dtau, hbar=hbar)
    minus = lindblad_evolve(rho_nb, a_matrix, tau0 - dtau, hbar=hbar)
    fd = (plus.matrix - minus.matrix) / (2.0 * dtau)
    rhs = lindblad_rhs(mid, a_matrix, hbar=hbar)
    qm_row4 = float(np.max(np.abs(fd - rhs)) / np.max(np.abs(rhs)))

    def cm_residual(n_pts: int) -> float:
        g_q = Grid1D(-half, half, n_pts)
        g_p = Grid1D(-12.0, 12.0, n_pts)
        rho0 = build_gaussian_phase_density(g_q, g_p, 1.0, 2.0)
        tau_c, dtau_c = 0.25, 1e-3
        r_mid = reduced_state_post_cm(rho0, obs_cm, tau_c)
        r_plus = reduced_state_post_cm(rho0, obs_cm, tau_c + dtau_c)
        r_minus = reduced_state_post_cm(rho0, obs_cm, tau_c - dtau_c)
        fd_c = (r_plus.values - r_minus.values) / (2.0 * dtau_c)
        rhs_c = cm_diffusion_rhs(r_mid, obs_cm)
        return float(np.max(np.abs(fd_c - rhs_c)))

    coarse, fine = cm_residual(193), cm_residual(385)
    cm_row4 = float(np.log2(coarse / fine))
    checks += [
        ScenarioCheck("row 4 (QM): Lindblad derivative check (relative error)",
                      qm_row4, 0.0, tol["row4_qm_derivative"], "oracle"),
        ScenarioCheck("row 4 (CM): double-bracket convergence order under halving",
                      cm_row4, 2.0, tol["row4_cm_order"], "oracle"),
    ]
    add_row("diffusion equation: generator consistency", qm_row4, cm_row4,
            expected_qm=0.0, expected_cm=2.0,
            tolerance_qm=tol["row4_qm_derivative"], tolerance_cm=tol["row4_cm_order"])

    scalars = {"rows": rows, "epsilon": eps, "tau": tau}
    tables: list[Table] = [
        ("table1_row1_pointer.csv",
         ["Q (probe position units)", "qm_density (1/Q units)", "cm_density (1/Q units)"],
         [Qgrid.nodes, pointer, marg]),
    ]
    return checks, scalars, tables


def run_scenario_command(params: dict, tol: dict):
    name = params["scenario"]
    result = SCENARIOS[name](**{arg.name: _argument(arg, params) for arg in _SIGNATURES[name]})
    tables: list[Table] = [
        (filename, list(columns.values()), [result.outputs[key] for key in columns])
        for filename, columns in SCENARIO_TABLES[name]
    ]
    scalars = {
        k: v for k, v in result.outputs.items() if np.isscalar(v) or isinstance(v, (bool, int, float))
    }
    scalars["scenario"] = result.name
    return list(result.checks), scalars, tables


RUNNERS = {
    "run-scenario": run_scenario_command,
    "evolve-qm": run_evolve_qm,
    "evolve-cm": run_evolve_cm,
    "mc-compare": run_mc_compare,
    "table1-report": run_table1_report,
}


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_table(path: Path, headers: list[str], columns: list[np.ndarray]) -> None:
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise VnLabError("table columns must share a length")
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(headers) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_default(obj):
    """What ``json`` cannot encode itself: complex as {"re", "im"}, NumPy scalars and arrays."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def execute(config: dict, out_dir: Path, seed: int | None = None) -> dict:
    """Run one configured job, write its artifacts, return the manifest."""
    return _execute(config["command"], config, out_dir, seed, {})


def _execute(command: str, raw, out_dir: Path, seed: int | None,
             tolerance_overrides: dict[str, float]) -> dict:
    """Normalize, apply the seed override, resolve tolerances, run, write: the
    one path of ``main`` and ``execute``."""
    started = dt.datetime.now(dt.timezone.utc).isoformat()
    config = normalize_config(command, raw)
    params = config["parameters"]
    if seed is not None:
        spec = _spec(command, params)[1]
        if "seed" not in spec:
            raise ConfigInvalid(f"command {command!r} takes no 'seed'")
        params["seed"] = _checked("seed", seed, spec["seed"])
    config["tolerances"] = resolve_tolerances(command, config, tolerance_overrides)
    _require_memory(command, params)
    checks, scalars, tables = RUNNERS[command](params, config["tolerances"])

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, headers, columns in tables:
        write_table(out_dir / filename, headers, columns)
    checks_doc = {
        "command": command,
        "all_passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
        "scalars": scalars,
    }
    checks_path = out_dir / "checks.json"
    _write_json(checks_path, checks_doc)

    outputs = {t[0]: _sha256(out_dir / t[0]) for t in tables}
    outputs["checks.json"] = _sha256(checks_path)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "artifact_version": __version__,
        "seed": config["parameters"].get("seed"),
        "started_utc": started,
        "finished_utc": dt.datetime.now(dt.timezone.utc).isoformat(),
        "all_passed": checks_doc["all_passed"],
        "checks": checks_doc["checks"],
        "outputs": outputs,
    }
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_tolerance(entry: str) -> tuple[str, float]:
    if "=" not in entry:
        raise ConfigInvalid(f"tolerance override {entry!r} is not name=value")
    name, value = entry.split("=", 1)
    try:
        return name.strip(), float(value)
    except ValueError as exc:
        raise ConfigInvalid(f"tolerance override {entry!r} has a non-numeric value") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vnlab",
        description="Quantum and classical probe-measurement models, side by side.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("vnlab-out"), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument(
        "--tolerance", action="append", default=[], metavar="NAME=VALUE",
        help="tolerance override (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        raw = None
        if args.config is not None:
            try:
                raw = json.loads(args.config.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigInvalid(f"cannot read config file {args.config}: {exc}") from exc
        overrides = dict(_parse_tolerance(t) for t in args.tolerance)
        manifest = _execute(args.command, raw, args.out, args.seed, overrides)
    except ConfigInvalid as exc:
        print(f"config invalid: {exc}")
        return 2
    except VnLabError as exc:
        print(f"run failed: {exc}")
        return 1

    for check in manifest["checks"]:
        flag = "PASS" if check["passed"] else "FAIL"
        print(f"[{flag}] {check['description']}: {check['measured']:.6g} "
              f"(expected {check['expected']:.6g} +- {check['tolerance']:.2g})")
    if not manifest["all_passed"]:
        failing = [c["description"] for c in manifest["checks"] if not c["passed"]]
        print(f"tolerance exceeded: {', '.join(failing)}")
        return 1
    print(f"all {len(manifest['checks'])} checks passed; artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
