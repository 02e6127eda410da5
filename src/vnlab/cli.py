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

Every command's and scenario's parameters, with their defaults and admitted
ranges, are the arguments of its function: a command's runner here, a
scenario's function in ``scenarios``. A command's tolerances, with their
defaults, are its runner's keyword-only arguments. ``normalize_config`` and
``resolve_tolerances`` refuse every other name and every value outside a
field's range with ``ConfigInvalid``.

Every one of these functions returns ``(checks, scalars, tables)``: its
``ScenarioCheck`` list, its scalar outputs by name, and its tables, each CSV
file name mapped to its columns by header. Every run writes
``manifest.json`` (config echo, version, seed, timestamps, check results,
output digests), ``checks.json`` (the checks and scalars) and one CSV per
table, each by one ``write_table`` call.
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
    reduced_state_post_cm,
    require_diffusion_resolved,
)
from .errors import ConfigInvalid, InvariantViolation, VnLabError
from .grids import TWO_PI, Grid1D, _Handover
from .heisenberg import (
    Histogram,
    flow_action,
    flow_position,
    histogram_l1_distance,
    periodic_histogram_l1_distance,
    sample_chunks,
    to_action_ensemble,
)
from .observables import (
    CouplingParams,
    ProbeSpec,
    SpectralObservable,
    action_observable,
    position_observable,
)
from .qm import lindblad_evolve, lindblad_rhs, pointer_distribution, position_disturbance_scale
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
    distribution_of_A,
    expectation,
    gaussian_wavepacket,
    normalized_wavefunction,
    phase_density_from_values,
    require_fits,
    require_resolved,
    to_angle_action,
)
from .wigner import damping, pure_state_momentum_marginals

SCHEMA_VERSION = 1

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

# ---------------------------------------------------------------------------
# Parameters, read from the runner and scenario signatures
# ---------------------------------------------------------------------------

def _is_coupling(annotation) -> bool:
    return CouplingParams in (annotation, *typing.get_args(annotation))


def _fields(arg: inspect.Parameter) -> dict:
    """The config fields one argument flattens into, with defaults."""
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
    return {arg.name: default if isinstance(default, kind) else kind(default)}


def _argument(arg: inspect.Parameter, params: dict):
    """The value of one argument, rebuilt from its config fields."""
    if arg.annotation is ProbeSpec:
        return ProbeSpec(sigma_Q=params["sigma_Q"], sigma_P=params["sigma_P"])
    if _is_coupling(arg.annotation):
        return CouplingParams(epsilon=params["epsilon"], tau=params["tau"])
    if arg.annotation is complex:
        return complex(params[f"{arg.name}_re"], params[f"{arg.name}_im"])
    return params[arg.name]


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


def _spec(command: str, user: dict) -> tuple[str, list[inspect.Parameter], dict]:
    """(who takes a command's user parameters, its arguments, their fields with defaults)."""
    owner, args = f"command {command!r}", _SIGNATURES[command]
    if command == "run-scenario":  # the chosen scenario's arguments follow the choice
        choice = args[0].default
        name = _checked("scenario", user.get("scenario", choice), choice)
        owner, args = f"scenario {name!r}", args + _SIGNATURES[name]
    return owner, args, {field: default for arg in args for field, default in _fields(arg).items()}


def normalize_config(command: str, raw: dict | None) -> dict:
    """Merge defaults, derive the coupling pair, validate every field."""
    if command not in RUNNERS:
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
    owner, _, spec = _spec(command, user)
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
    """The runner's keyword-only arguments with their defaults, overridden by the
    config's tolerances and then by ``overrides``."""
    tol = {arg.name: arg.default for arg in inspect.signature(RUNNERS[command]).parameters.values()
           if arg.kind is arg.KEYWORD_ONLY}
    for source in (config.get("tolerances", {}), overrides):
        for name, value in source.items():
            if name not in tol:
                raise ConfigInvalid(f"unknown tolerance {name!r} for command {command!r}")
            tol[name] = _checked(name, value, NonNegative(), "tolerance")
    return tol


def _momentum_variance(hbar: float, sigma_x: float) -> float:
    """s^2 = (hbar / (2 sigma_x))^2, once hbar admits it (ConfigInvalid otherwise).

    Refused in logarithms, before anything overflows: hbar^2 (the channel divides
    by it) and (8 s)^2, the momentum grid's squared reach, must be normal floats.
    """
    tiny, huge = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
    if not tiny <= 2.0 * math.log(hbar) < huge:
        raise ConfigInvalid(f"parameter 'hbar' = {hbar!r}: hbar^2 is not a normal float")
    if not tiny <= 2.0 * (math.log(4.0 * hbar) - math.log(sigma_x)) < huge:
        raise ConfigInvalid(f"'hbar' and 'sigma_x': (8 hbar / (2 sigma_x))^2, the square of "
                            f"the momentum grid's reach, is not a normal float")
    return (hbar / (2.0 * sigma_x)) ** 2


def _wigner_pgrid(hbar: float, xgrid: Grid1D, s2: float, tau: float, pad: float = 0.0) -> Grid1D:
    """``xgrid``'s node count over +-(8 sqrt(s^2 + 2 tau) + pad) for the Wigner marginals,
    within pi hbar / (2h): y steps by 2h, so the marginals are periodic in p with period pi hbar / h."""
    p_half = 8.0 * np.sqrt(s2 + 2.0 * tau) + pad
    band = np.pi * hbar / (2.0 * xgrid.h)
    if p_half > band:
        raise ConfigInvalid(f"'hbar', 'n_x', 'grid_halfwidth' and 'sigma_P': the Wigner momentum "
                            f"grid's half-width {p_half:.4g} exceeds pi hbar / (2 h) = {band:.4g}, "
                            "half the period in p of the transform at y steps 2h")
    return Grid1D(-p_half, p_half, xgrid.n)


# A job's estimated peak memory, in bytes, from its size fields, by command or
# scenario: the slope of its traced peak (tracemalloc) between two sizes, rounded
# up (evolve-qm's 331.7 to 332 per n_x, between 10925 and 21849, where the chirp-z
# FFT length is 3 n_x, its largest share; table1-report's 44.6 to 45 per n_x^2, its
# classical phase-space densities: its quantum rows hold no n_x x n_x state, between
# 1024 and 2048, past the sizes where its fixed 14 MB still sets its peak;
# evolve-cm's per n_q x n_p node, 26.8 between 1024^2 and 2048^2, 27.1 along n_q
# (65536 to 131072 at n_p 128) and 27.8 along n_p (131072 to 262144 at n_q 20), to
# 28; mc-compare's 8.0 to 8.5, the sampler's one array of Q, which the action branch
# overwrites with Q' and its squared deviations, the slope up to 3.2e6 samples too,
# and its bins term 88.0 to 88.5, both branches' histograms, between 4e5 and 8e5
# bins at 2000 samples; the n_Q terms of two_delta, 48.0 to 48.5, and of
# interference, 56.0 to 56.5, the scenarios' own curves and checks, six and seven
# n_Q arrays, past the sizes where the pointer record's kernel chunks set the
# peak). The intercepts, at most 14 MB, are left out.
# ``_execute`` refuses an estimate past MEMORY_BUDGET before any array is allocated.
MEMORY_BUDGET = 4 * 2**30
PEAK_BYTES = {
    "evolve-qm": ("'n_x'", lambda p: 332.0 * p["n_x"]),
    "table1-report": ("'n_x'", lambda p: 45.0 * p["n_x"] * p["n_x"]),
    "evolve-cm": ("'n_q' and 'n_p'", lambda p: 28.0 * p["n_q"] * p["n_p"]),
    "mc-compare": ("'n_samples' and 'bins'", lambda p: 8.5 * p["n_samples"] + 88.5 * p["bins"]),
    "two_delta": ("'n_q' and 'n_Q'", lambda p: 4200.0 * p["n_q"] + 48.5 * p["n_Q"]),
    "interference": ("'n_x' and 'n_Q'", lambda p: 4200.0 * p["n_x"] + 56.5 * p["n_Q"]),
    "number_basis": ("'dim'", lambda p: 113.0 * p["dim"] * p["dim"]),
    "gaussian_bessel": ("'n_xi' and 'n_theta'", lambda p: 33.0 * p["n_xi"] * p["n_theta"]),
}


def _require_memory(command: str, params: dict) -> None:
    """Refuse (ConfigInvalid, naming the size fields) a peak estimate past MEMORY_BUDGET;
    run-scenario's is its scenario's."""
    job = params.get("scenario", command)
    if job in PEAK_BYTES:
        fields, estimate = PEAK_BYTES[job]
        peak = estimate(params)
        if peak > MEMORY_BUDGET:
            raise ConfigInvalid(f"{fields}: the estimated peak memory {peak / 2**30:.5g} GiB "
                                f"exceeds the budget of {MEMORY_BUDGET / 2**30:g} GiB")


# ---------------------------------------------------------------------------
# Command implementations: each returns (checks, scalars, tables)
# ---------------------------------------------------------------------------

def _moment(grid: Grid1D, density: np.ndarray, power: int = 1, center: float = 0.0) -> float:
    return grid.integrate((grid.nodes - center) ** power * density)


def _variance(grid: Grid1D, density: np.ndarray) -> float:
    mass = grid.integrate(density)
    mean = _moment(grid, density) / mass
    return _moment(grid, density, power=2, center=mean) / mass


def run_evolve_qm(n_x: int = 256, grid_halfwidth: float = 8.0,
                  sigma_x: float = 1.0, center_x: Signed = 0.25,
                  probe: ProbeSpec = ProbeSpec(sigma_Q=0.2, sigma_P=0.6),
                  coupling: CouplingParams | None = None, hbar: float = 1.0, *,
                  pointer_normalization: NonNegative = 1e-8, pointer_mean: NonNegative = 1e-8,
                  distribution_invariance: NonNegative = 1e-10,
                  variance_growth: NonNegative = 1e-4):
    coupling = coupling or CouplingParams.from_probe(DEFAULT_EPSILON, probe)
    xgrid = Grid1D(-grid_halfwidth, grid_halfwidth, n_x)
    require_resolved("sigma_x", sigma_x, xgrid)
    require_fits("'center_x', 'sigma_x' and 'grid_halfwidth'", center_x, sigma_x, xgrid)
    s2 = _momentum_variance(hbar, sigma_x)
    pgrid = _wigner_pgrid(hbar, xgrid, s2, coupling.tau)
    psi = gaussian_wavepacket(xgrid, center=center_x, sigma_x=sigma_x, hbar=hbar)
    psi = normalized_wavefunction(psi, xgrid)
    weights = np.real(xgrid.h * (psi * psi.conj()))  # the Born weights, diag(h psi psi^H)

    Qgrid = probe.pointer_grid(xgrid.nodes, coupling.epsilon, 1024, 8.0)
    pointer = probe.pointer_density(Qgrid.nodes, xgrid.nodes, weights, coupling.epsilon)
    pointer_mass = Qgrid.integrate(pointer)
    mean_ratio = _moment(Qgrid, pointer) / coupling.epsilon
    mean_expected = float(weights @ xgrid.nodes)

    # The Born weights after the channel: times its factor at y = 0.
    factor = damping(lambda x: x, coupling.tau, xgrid.nodes, 0.0, hbar)
    invariance = float(np.max(np.abs(weights * factor - weights)))

    p_before, p_after = pure_state_momentum_marginals(psi, xgrid, lambda x: x, coupling.tau,
                                                      pgrid, hbar=hbar)
    var_after = _variance(pgrid, p_after)

    checks = [
        ScenarioCheck("pointer distribution mass", pointer_mass, 1.0,
                      pointer_normalization, "oracle"),
        ScenarioCheck("mean pointer shift over epsilon equals <A>", mean_ratio,
                      mean_expected, pointer_mean, "analytic"),
        ScenarioCheck("outcome distribution invariance (max drift)", invariance, 0.0,
                      distribution_invariance, "analytic"),
        ScenarioCheck("momentum variance grows by 2*tau", var_after, s2 + 2.0 * coupling.tau,
                      variance_growth, "closed-form"),
    ]
    scalars = {
        "tau": coupling.tau,
        "disturbance_scale": position_disturbance_scale(xgrid, weights / xgrid.h, coupling, hbar),
        "momentum_variance_before": _variance(pgrid, p_before),
        "momentum_variance_after": var_after,
    }
    tables = {
        "pointer_distribution.csv": {"Q (probe position units)": Qgrid.nodes,
                                     "density (1/Q units)": pointer},
        "momentum_density.csv": {"p (momentum units)": pgrid.nodes,
                                 "before (1/p units)": p_before, "after (1/p units)": p_after},
    }
    return checks, scalars, tables


def run_evolve_cm(n_q: int = 256, n_p: int = 256, grid_halfwidth_q: float = 8.0,
                  grid_halfwidth_p: float = 12.0, sigma_q: float = 1.0, sigma_p: float = 1.0,
                  center_q: Signed = 0.25, probe: ProbeSpec = ProbeSpec(sigma_Q=0.2, sigma_P=0.6),
                  coupling: CouplingParams | None = None, *, mass: NonNegative = 1e-6,
                  probe_mean: NonNegative = 1e-8, q_marginal_drift: NonNegative = 1e-8,
                  variance_growth: NonNegative = 1e-4):
    coupling = coupling or CouplingParams.from_probe(DEFAULT_EPSILON, probe)
    qgrid = Grid1D(-grid_halfwidth_q, grid_halfwidth_q, n_q)
    pgrid = Grid1D(-grid_halfwidth_p, grid_halfwidth_p, n_p)
    require_resolved("sigma_q", sigma_q, qgrid)
    require_resolved("sigma_p", sigma_p, pgrid)
    require_fits("'center_q', 'sigma_q' and 'grid_halfwidth_q'", center_q, sigma_q, qgrid)
    require_fits("'sigma_p', 'sigma_P' and 'tau' (the diffused p Gaussian)", 0.0,
                 diffused_width(sigma_p, coupling.tau), pgrid)
    require_diffusion_resolved("'sigma_p', 'sigma_P', 'tau', 'n_p' and 'grid_halfwidth_p'",
                               sigma_p, coupling.tau, pgrid)
    rho = build_gaussian_phase_density(qgrid, pgrid, sigma_q, sigma_p, center_q=center_q)
    obs = position_observable()
    rho_post = reduced_state_post_cm(rho, obs, coupling.tau)

    Qgrid = auto_probe_grid(rho, obs, probe, coupling, n=1024)
    marginal = probe_marginal_Q(rho, probe, obs, coupling, Qgrid)
    mean_ratio = _moment(Qgrid, marginal) / coupling.epsilon
    mean_expected = expectation(rho, obs)

    # In units of the q marginal's peak where it exceeds 1, as NEGATIVITY_MONITOR:
    # roundoff scales with the peak, which a narrow q grid makes unbounded.
    q_before, q_after = rho.q_marginal(), rho_post.q_marginal()
    p_before, p_after = rho.p_marginal(), rho_post.p_marginal()
    drift = float(np.max(np.abs(q_after - q_before)))
    drift /= max(1.0, float(q_before.max()))
    var_after = _variance(pgrid, p_after)

    checks = [
        ScenarioCheck("evolved density mass", rho_post.mass(), 1.0, mass, "oracle"),
        ScenarioCheck("mean probe shift over epsilon equals <A>", mean_ratio,
                      mean_expected, probe_mean, "analytic"),
        ScenarioCheck("q-marginal invariance (max drift)", drift, 0.0,
                      q_marginal_drift, "analytic"),
        ScenarioCheck("momentum variance grows by 2*tau", var_after,
                      sigma_p**2 + 2.0 * coupling.tau,
                      variance_growth, "closed-form"),
    ]
    scalars = {
        "tau": coupling.tau,
        "momentum_variance_before": _variance(pgrid, p_before),
        "momentum_variance_after": var_after,
    }
    tables = {
        "probe_marginal.csv": {"Q (probe position units)": Qgrid.nodes,
                               "density (1/Q units)": marginal},
        "q_marginal.csv": {"q (position units)": qgrid.nodes,
                           "before (1/q units)": q_before, "after (1/q units)": q_after},
        "p_marginal.csv": {"p (momentum units)": pgrid.nodes,
                           "before (1/p units)": p_before, "after (1/p units)": p_after},
    }
    return checks, scalars, tables


def _drift(after: np.ndarray, before: np.ndarray) -> float:
    """max |after - before|; 0.0 from one comparison, with no difference array, when equal."""
    return 0.0 if np.array_equal(after, before) else float(np.max(np.abs(after - before)))


def _mean_std(values: np.ndarray) -> tuple[np.float64, np.float64]:
    """``np.mean`` and ``np.std`` of ``values``, bit for bit, with ``values`` overwritten.

    ``np.std`` is sqrt(mean((x - mean(x))^2)), evaluated in that order; the
    deviations are squared in ``values`` itself, so no temporary of its length
    is made.
    """
    mean = np.mean(values)
    values -= mean
    values *= values
    return mean, np.sqrt(np.mean(values))


def run_mc_compare(n_samples: int = 100000, seed: Seed = 20240801, bins: int = 24,
                   sigma_q: float = 1.0, sigma_p: float = 1.0,
                   probe: ProbeSpec = ProbeSpec(sigma_Q=0.4, sigma_P=0.6),
                   coupling: CouplingParams | None = None,
                   branch: Choice = Choice("both", ("position", "action", "both")), *,
                   l1_coefficient: NonNegative = 5.0):
    coupling = coupling or CouplingParams.from_probe(DEFAULT_EPSILON, probe)
    budget = l1_coefficient / np.sqrt(n_samples)
    if budget >= 2.0:
        raise ConfigInvalid(
            f"parameter 'n_samples' = {n_samples} gives the L1 budget {budget:.3g}, at least 2, "
            "the largest L1 distance between densities: the histogram checks would pass "
            "whatever the samples"
        )
    checks: list[ScenarioCheck] = []
    scalars: dict = {"l1_budget": budget, "seed": seed}
    tables = {}
    qgrid = Grid1D(-8.0, 8.0, 256)
    pgrid = Grid1D(-12.0, 12.0, 256)
    half = 8.0 * max(sigma_q, sigma_p)
    grid = Grid1D(-half, half, 384)
    branch_grids = {"position": (qgrid, pgrid), "action": (grid, grid)}
    branches = [b for b in branch_grids if branch in (b, "both")]
    # Every branch's widths are refused before either branch runs.
    for b in branches:
        for name, width, axis_grid in zip(("sigma_q", "sigma_p"), (sigma_q, sigma_p),
                                          branch_grids[b]):
            require_resolved(name, width, axis_grid)
            require_fits(repr(name), 0.0, width, axis_grid)

    if "position" in branches:
        # Spill off the p grid is counted by the histogram check; a wider kernel cannot run.
        try:
            kernel_pad(coupling.tau, pgrid)
        except InvariantViolation as exc:
            raise ConfigInvalid(f"'sigma_P' and 'tau': {exc}") from exc
        require_diffusion_resolved("'sigma_p', 'sigma_P' and 'tau'", sigma_p, coupling.tau, pgrid)
        rho = build_gaussian_phase_density(qgrid, pgrid, sigma_q, sigma_p)
        obs = position_observable()
        Qgrid = Grid1D(-10.0, 10.0, 1024)
        # Each chunk is flowed and binned as it is drawn: no ensemble is held whole.
        hist_Q, hist_p = Histogram(Qgrid.lo, Qgrid.hi, bins), Histogram(pgrid.lo, pgrid.hi, bins)
        drift_q = drift_P = 0.0
        for _, ens0 in sample_chunks(rho, probe, n_samples, seed):
            ens1 = flow_position(ens0, coupling)
            hist_Q.add(ens1.Q)
            hist_p.add(ens1.p)
            drift_q = max(drift_q, _drift(ens1.q, ens0.q))
            drift_P = max(drift_P, _drift(ens1.P, ens0.P))
        del ens0, ens1  # a chunk's Q is a view that keeps the sampler's Q array alive

        model_Q = probe_marginal_Q(rho, probe, obs, coupling, Qgrid)
        l1_Q = histogram_l1_distance(hist_Q, Qgrid, model_Q)
        diffused = reduced_state_post_cm(rho, obs, coupling.tau)
        l1_p = histogram_l1_distance(hist_p, pgrid, diffused.p_marginal())
        checks += [
            ScenarioCheck("position branch: pointer histogram vs density (L1)",
                          l1_Q, 0.0, budget, "oracle"),
            ScenarioCheck("position branch: momentum histogram vs diffused density (L1)",
                          l1_p, 0.0, budget, "oracle"),
            ScenarioCheck("position branch: q and P conserved bitwise",
                          drift_q + drift_P, 0.0, 0.0, "analytic"),
        ]
        tables["mc_position_pointer_histogram.csv"] = {
            "Q_bin_left (probe position units)": hist_Q.edges[:-1],
            "count": hist_Q.counts.astype(float)}

    if "action" in branches:
        rho = build_gaussian_phase_density(grid, grid, sigma_q, sigma_p)
        obs = action_observable(lambda xi: xi, lambda xi: np.ones_like(xi))
        # theta' is binned chunk by chunk. Q' is kept whole, as its mean and
        # standard deviation sum over all samples at once: each chunk's Q' is
        # written over its Q, in the sampler's one array of Q, and _mean_std
        # squares the deviations there.
        hist_theta = Histogram(0.0, TWO_PI, bins)
        drift_xi = drift_P = 0.0
        for _, chunk in sample_chunks(rho, probe, n_samples, seed + 1):
            ens0 = to_action_ensemble(chunk)
            ens1 = flow_action(ens0, obs, coupling)
            hist_theta.add(np.mod(ens1.theta, TWO_PI))
            chunk.Q[:] = ens1.Q
            drift_xi = max(drift_xi, _drift(ens1.xi, ens0.xi))
            drift_P = max(drift_P, _drift(ens1.P, ens0.P))
        Q1 = chunk.Q.base
        del chunk, ens0, ens1  # the last chunk's arrays

        aa = to_angle_action(rho, n_xi=256, n_theta=256)
        solved = reduced_state_post_cm(aa, obs, coupling.tau)
        l1_theta = periodic_histogram_l1_distance(
            hist_theta, solved.thetagrid.nodes, solved.theta_marginal()
        )
        mean, std = _mean_std(Q1)
        mean_Q = float(mean) / coupling.epsilon
        expect_A = expectation(rho, obs)
        mc_sigma = float(std / coupling.epsilon / np.sqrt(n_samples))
        checks += [
            ScenarioCheck("action branch: angle histogram vs spectral solution (L1)",
                          l1_theta, 0.0, budget, "oracle"),
            ScenarioCheck("action branch: xi and P conserved bitwise",
                          drift_xi + drift_P, 0.0, 0.0, "analytic"),
            ScenarioCheck("action branch: mean pointer shift over epsilon vs <A> (3 sigma)",
                          mean_Q, expect_A, 3.0 * mc_sigma, "oracle"),
        ]
        scalars["action_mean_pointer_over_epsilon"] = mean_Q
        scalars["action_expected_A"] = expect_A
    return checks, scalars, tables


def run_table1_report(n_x: int = 256, grid_halfwidth: float = 8.0,
                      sigma_x: float = 1.0, center: Signed = 0.25,
                      probe: ProbeSpec = ProbeSpec(sigma_Q=0.25, sigma_P=0.3),
                      coupling: CouplingParams = CouplingParams.from_sigma_P(2.0, 0.3),
                      hbar: float = 1.0, *, row1_expectation: NonNegative = 1e-8,
                      row2_uncertainty_qm: NonNegative = 1e-8,
                      row2_uncertainty_cm: NonNegative = 1e-6, row3_variance: NonNegative = 1e-4,
                      row4_qm_derivative: NonNegative = 1e-3, row4_cm_order: NonNegative = 0.6):
    eps = coupling.epsilon
    tau = coupling.tau
    xgrid = Grid1D(-grid_halfwidth, grid_halfwidth, n_x)
    require_resolved("sigma_x", sigma_x, xgrid)
    # Every refusal comes before the first state is built.
    require_fits("'center', 'sigma_x' and 'grid_halfwidth'", center, sigma_x, xgrid)
    require_fits("'grid_halfwidth' (row 4's width-1 q Gaussian)", 0.0, 1.0, xgrid)
    s2 = _momentum_variance(hbar, sigma_x)
    wgrid = _wigner_pgrid(hbar, xgrid, s2, tau, pad=1.0)
    dim = 48  # tail weight ~e^-34 at these widths
    rho_nb = number_basis_initial_state(f"parameter 'hbar' = {hbar!r} (row 4's number basis)",
                                        1.0, 1.4, dim, hbar=hbar)
    checks: list[ScenarioCheck] = []
    rows = []

    def add_row(description: str, qm: ScenarioCheck, cm: ScenarioCheck, **expected) -> None:
        """One report row from its two checks, which join the check list."""
        checks.extend((qm, cm))
        rows.append({"row": len(rows) + 1, "description": description,
                     "qm_measured": qm.measured, "cm_measured": cm.measured, **expected,
                     "qm_passed": qm.passed, "cm_passed": cm.passed})

    # Row 1: mean pointer shift over epsilon equals <A> on both sides, the QM side
    # read from the Born weights h|psi|^2 (contiguous: a strided dot product sums
    # in another order).
    psi = gaussian_wavepacket(xgrid, center=center, sigma_x=sigma_x, hbar=hbar)
    psi = normalized_wavefunction(psi, xgrid)
    weights = np.ascontiguousarray(np.real(xgrid.h * (psi * psi.conj())))
    expect_row1 = float(weights @ xgrid.nodes)
    # The CM side's distribution of A = q is over the same nodes: both records
    # share one stacked kernel, each row with its own bits.
    pgrid = Grid1D(-12.0, 12.0, n_x)
    rho_cm = build_gaussian_phase_density(xgrid, pgrid, sigma_x, 1.0, center_q=center)
    obs_cm = position_observable()
    Qgrid = probe.pointer_grid(xgrid.nodes, eps, 2048, 8.0)
    pointer, marg = probe.pointer_density(
        Qgrid.nodes, xgrid.nodes, [weights, distribution_of_A(rho_cm, obs_cm)[1]], eps)
    qm_row1 = _moment(Qgrid, pointer) / eps
    cm_row1 = _moment(Qgrid, marg) / eps
    add_row("expectation values: <Q>'/epsilon = <A>",
            ScenarioCheck("row 1 (QM): <Q>'/epsilon equals <A>", qm_row1, expect_row1,
                          row1_expectation, "analytic"),
            ScenarioCheck("row 1 (CM): <Q>'/epsilon equals <A>", cm_row1, expect_row1,
                          row1_expectation, "analytic"),
            expected=expect_row1, tolerance=row1_expectation)

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
    add_row("uncertainty: pointer resolution scale sigma_Q/epsilon",
            ScenarioCheck("row 2 (QM): pointer width over epsilon", qm_row2, expect_row2,
                          row2_uncertainty_qm, "analytic"),
            ScenarioCheck("row 2 (CM): deconvolved pointer width over epsilon", cm_row2,
                          expect_row2, row2_uncertainty_cm, "analytic"),
            expected=expect_row2, tolerance=max(row2_uncertainty_qm, row2_uncertainty_cm))

    # Row 3: both final reduced states grow the momentum variance by 2*tau.
    qm_row3 = _variance(wgrid, pure_state_momentum_marginals(psi, xgrid, lambda x: x, tau, wgrid,
                                                             hbar=hbar)[1])

    rho_cm3 = build_gaussian_phase_density(xgrid, wgrid, sigma_x, np.sqrt(s2))
    cm_post = reduced_state_post_cm(rho_cm3, obs_cm, tau)
    cm_row3 = _variance(wgrid, cm_post.p_marginal())
    expect_row3 = s2 + 2.0 * tau
    add_row("final reduced state: momentum variance s^2 + 2*tau",
            ScenarioCheck("row 3 (QM): evolved Wigner momentum variance", qm_row3, expect_row3,
                          row3_variance, "closed-form"),
            ScenarioCheck("row 3 (CM): diffused density momentum variance", cm_row3, expect_row3,
                          row3_variance, "closed-form"),
            expected=expect_row3, tolerance=row3_variance)

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
        g_q = Grid1D(-grid_halfwidth, grid_halfwidth, n_pts)
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
    add_row("diffusion equation: generator consistency",
            ScenarioCheck("row 4 (QM): Lindblad derivative check (relative error)",
                          qm_row4, 0.0, row4_qm_derivative, "oracle"),
            ScenarioCheck("row 4 (CM): double-bracket convergence order under halving",
                          cm_row4, 2.0, row4_cm_order, "oracle"),
            expected_qm=0.0, expected_cm=2.0,
            tolerance_qm=row4_qm_derivative, tolerance_cm=row4_cm_order)

    scalars = {"rows": rows, "epsilon": eps, "tau": tau}
    tables = {"table1_row1_pointer.csv": {"Q (probe position units)": Qgrid.nodes,
                                          "qm_density (1/Q units)": pointer,
                                          "cm_density (1/Q units)": marg}}
    return checks, scalars, tables


def run_scenario_command(scenario: Choice = Choice("two_delta", SCENARIOS), **arguments):
    """The chosen scenario, called with its own arguments; its name joins its scalars."""
    checks, scalars, tables = SCENARIOS[scenario](**arguments)
    return checks, {**scalars, "scenario": scenario}, tables


RUNNERS = {
    "run-scenario": run_scenario_command,
    "evolve-qm": run_evolve_qm,
    "evolve-cm": run_evolve_cm,
    "mc-compare": run_mc_compare,
    "table1-report": run_table1_report,
}

# Every job's parameters, read once: a runner's before its keyword-only tolerances,
# and a scenario's.
_SIGNATURES = {
    name: [arg for arg in inspect.signature(fn, eval_str=True).parameters.values()
           if arg.kind is arg.POSITIONAL_OR_KEYWORD]
    for name, fn in {**RUNNERS, **SCENARIOS}.items()
}


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

# Rows formatted per write by ``write_table``.
TABLE_BLOCK = 4096


def write_table(path: Path, columns: dict[str, np.ndarray]) -> None:
    """One CSV: the headers, then a row per index, each value to 17 significant digits.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")``, formatted a
    block of ``TABLE_BLOCK`` rows per write.
    """
    if len({len(c) for c in columns.values()}) != 1:
        raise InvariantViolation("table columns must share a length")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    n_rows = len(next(iter(columns.values())))
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n_rows, TABLE_BLOCK):
            block = np.column_stack([c[start:start + TABLE_BLOCK] for c in columns.values()])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


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
    with path.open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


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
    _, args, spec = _spec(command, params)
    if seed is not None:
        if "seed" not in spec:
            raise ConfigInvalid(f"command {command!r} takes no 'seed'")
        params["seed"] = _checked("seed", seed, spec["seed"])
    config["tolerances"] = resolve_tolerances(command, config, tolerance_overrides)
    _require_memory(command, params)
    arguments = {arg.name: _argument(arg, params) for arg in args}
    checks, scalars, tables = RUNNERS[command](**arguments, **config["tolerances"])

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, columns in tables.items():
        write_table(out_dir / filename, columns)
    checks_doc = {
        "command": command,
        "all_passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
        "scalars": scalars,
    }
    checks_path = out_dir / "checks.json"
    _write_json(checks_path, checks_doc)

    outputs = {filename: _sha256(out_dir / filename) for filename in tables}
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
    parser.add_argument("command", choices=RUNNERS)
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
