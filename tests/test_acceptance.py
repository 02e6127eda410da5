"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import numpy as np
import pytest

from vnlab import (
    CouplingParams,
    DensityOperator,
    Grid1D,
    PeriodicGrid,
    ProbeSpec,
    SpectralObservable,
    action_observable,
    build_gaussian_phase_density,
    expectation,
    gaussian_wavepacket,
    position_observable,
    to_angle_action,
)
from vnlab.cli import execute, main, normalize_config
from vnlab.cm import (
    ORDER_FLOW_PRODUCT,
    ORDER_FLOW_SYSTEM,
    angle_spectral_solve,
    cm_diffusion_rhs,
    conditional_state_cm,
    joint_state_post,
    probe_marginal_Q,
    reduced_state_post_cm,
)
from vnlab.grids import TWO_PI, grid2d_integrate
from vnlab.heisenberg import (
    Histogram,
    flow_action,
    flow_position,
    histogram_l1_distance,
    periodic_histogram_l1_distance,
    sample_initial,
)
from vnlab.qm import (
    born_weights,
    conditional_state,
    lindblad_evolve,
    lindblad_rhs,
    lueders_nonselective,
    pointer_distribution,
    reduced_state_post,
)
from vnlab.scenarios import scenario_gaussian_bessel, scenario_interference
from vnlab.states import AngleActionDensity
from vnlab.wigner import evolved_wigner

from helpers import (
    density_from_wavefunction,
    density_variance,
    p_marginal_density,
    pointer_mean,
    random_density_matrix,
    random_gaussian_mixture,
    random_spectral_observable,
    trace_distance,
)

POSITION = position_observable()
ACTION_LINEAR = action_observable(lambda xi: xi, lambda xi: np.ones_like(xi))


def report(tag: str, description: str, measured: float, bound: float, ok: bool) -> None:
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] {tag}: {description} (measured {measured:.3e}, bound {bound:.3e})")
    assert ok, f"{tag} failed: {description}: {measured!r} vs bound {bound!r}"


def test_c01_mean_pointer_law():
    rng = np.random.default_rng(101)
    worst = 0.0
    probe = ProbeSpec(sigma_Q=0.3, sigma_P=0.5)
    coupling = CouplingParams.from_probe(1.4, probe)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        rho = random_density_matrix(dim, rng)
        obs = random_spectral_observable(dim, rng)
        grid = probe.pointer_grid(obs.eigenvalues, coupling.epsilon, 6001, 10)
        dist = pointer_distribution(rho, obs, probe, coupling, grid)
        moment = grid.integrate(grid.nodes * dist) / coupling.epsilon
        worst = max(worst, abs(moment - pointer_mean(rho, obs, coupling) / coupling.epsilon))
    g = Grid1D(-8.0, 8.0, 256)
    Qgrid = Grid1D(-14.0, 14.0, 2048)
    for _ in range(20):
        rho = random_gaussian_mixture(g, g, rng)
        marg = probe_marginal_Q(rho, probe, POSITION, coupling, Qgrid)
        moment = Qgrid.integrate(Qgrid.nodes * marg) / coupling.epsilon
        worst = max(worst, abs(moment - expectation(rho, POSITION)))
    report("C1", "mean pointer law <Q>'/eps = <A>, 20 random states each side",
           worst, 1e-8, worst <= 1e-8)


def test_c02_outcome_distribution_invariance():
    rng = np.random.default_rng(202)
    worst_qm = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        rho = random_density_matrix(dim, rng)
        obs = random_spectral_observable(dim, rng)
        out = reduced_state_post(rho, obs, float(rng.uniform(0, 2)))
        worst_qm = max(worst_qm, float(np.max(np.abs(
            born_weights(out, obs) - born_weights(rho, obs)))))
    report("C2a", "quantum outcome distribution invariance, 100 random states",
           worst_qm, 1e-10, worst_qm <= 1e-10)

    g = Grid1D(-8.0, 8.0, 256)
    pg = Grid1D(-14.0, 14.0, 320)
    worst_q = 0.0
    for _ in range(20):
        rho = random_gaussian_mixture(g, pg, rng)
        out = reduced_state_post_cm(rho, POSITION, 0.4)
        worst_q = max(worst_q, float(np.max(np.abs(out.q_marginal() - rho.q_marginal()))))
    report("C2b", "classical q-marginal invariance under A = q",
           worst_q, 1e-8, worst_q <= 1e-8)

    worst_xi = 0.0
    xig = Grid1D(0.0, 24.0, 192)
    tg = PeriodicGrid(128)
    for k in range(10):
        f = np.exp(-xig.nodes / (1.0 + 0.1 * k))
        vals = f[:, None] * (1.0 + 0.7 * np.cos(tg.nodes) + 0.2 * np.sin(3 * tg.nodes))
        aa = AngleActionDensity(xig, tg, vals / grid2d_integrate(xig, tg, vals))
        out = angle_spectral_solve(aa, ACTION_LINEAR, 0.9)
        worst_xi = max(worst_xi, float(np.max(np.abs(out.xi_marginal() - aa.xi_marginal()))))
    report("C2c", "classical xi-marginal invariance under A(xi)",
           worst_xi, 1e-8, worst_xi <= 1e-8)


def test_c03_lueders_limit():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        rho = random_density_matrix(dim, rng)
        obs = random_spectral_observable(dim, rng)
        tau = 50.0 / np.diff(obs.eigenvalues).min() ** 2
        strong = reduced_state_post(rho, obs, tau)
        worst = max(worst, trace_distance(strong, lueders_nonselective(rho, obs)))
    bound = np.exp(-50.0) + 1e-12
    report("C3", "strong-coupling channel reaches the pinching limit",
           worst, bound, worst <= bound)


def test_c04_generator_derivative_checks():
    # Quantum side: centered difference against the double-commutator rhs.
    rng = np.random.default_rng(404)
    rho = random_density_matrix(8, rng)
    g = rng.standard_normal((8, 8))
    a = (g + g.T) / np.ptp(np.linalg.eigvalsh(g + g.T))
    dtau, tau0 = 1e-4, 0.3
    fd = (lindblad_evolve(rho, a, tau0 + dtau).matrix
          - lindblad_evolve(rho, a, tau0 - dtau).matrix) / (2 * dtau)
    rhs = lindblad_rhs(lindblad_evolve(rho, a, tau0), a)
    rel = float(np.max(np.abs(fd - rhs)) / np.max(np.abs(rhs)))
    report("C4a", "quantum derivative check at dtau = 1e-4",
           rel, 10 * dtau, rel <= 10 * dtau)

    # Classical side: residual falls at the expected orders under halving.
    def residual(n_pts, dtau_c, forward):
        qg = Grid1D(-8.0, 8.0, n_pts)
        pg = Grid1D(-12.0, 12.0, n_pts)
        rho0 = build_gaussian_phase_density(qg, pg, 1.0, 2.0)
        tau_c = 0.25
        mid = reduced_state_post_cm(rho0, POSITION, tau_c)
        if forward:
            plus = reduced_state_post_cm(rho0, POSITION, tau_c + dtau_c)
            fd_c = (plus.values - mid.values) / dtau_c
        else:
            plus = reduced_state_post_cm(rho0, POSITION, tau_c + dtau_c)
            minus = reduced_state_post_cm(rho0, POSITION, tau_c - dtau_c)
            fd_c = (plus.values - minus.values) / (2 * dtau_c)
        return float(np.max(np.abs(fd_c - cm_diffusion_rhs(mid, POSITION))))

    r_h, r_h2 = residual(193, 1e-4, False), residual(385, 1e-4, False)
    order_h = np.log2(r_h / r_h2)
    ok_h = 1.5 <= order_h <= 2.5
    report("C4b", "classical rhs second-order in h under halving (order)",
           order_h, 2.0, ok_h)
    r_t, r_t2 = residual(385, 0.4, True), residual(385, 0.2, True)
    order_t = np.log2(r_t / r_t2)
    ok_t = 0.6 <= order_t <= 1.5
    report("C4c", "classical forward-difference first-order in dtau (order)",
           order_t, 1.0, ok_t)


def test_c05_variance_growth_law():
    tau = 0.3
    sigma_x = 1.0
    s2 = 1.0 / (2.0 * sigma_x) ** 2
    xg = Grid1D(-8.0, 8.0, 256)
    pgrid = Grid1D(-10.0, 10.0, 256)
    rho_qm = density_from_wavefunction(gaussian_wavepacket(xg, sigma_x=sigma_x), xg)
    w = evolved_wigner(rho_qm, lambda x: x, tau, pgrid)
    var_qm = density_variance(pgrid, p_marginal_density(w))
    err_qm = abs(var_qm - (s2 + 2 * tau))

    rho_cm = build_gaussian_phase_density(xg, pgrid, sigma_x, np.sqrt(s2))
    out = reduced_state_post_cm(rho_cm, POSITION, tau)
    var_cm = density_variance(pgrid, out.p_marginal())
    err_cm = abs(var_cm - (s2 + 2 * tau))
    worst = max(err_qm, err_cm)
    report("C5", "momentum variance grows by exactly 2*tau on both sides",
           worst, 1e-4, worst <= 1e-4)


def test_c06_angle_spectral_solver():
    xig = Grid1D(0.0, 20.0, 128)
    tg = PeriodicGrid(128)
    f = np.exp(-xig.nodes)
    tau = 0.8
    aa = AngleActionDensity(xig, tg, f[:, None] * (1 + np.cos(tg.nodes))[None, :] / TWO_PI)
    out = angle_spectral_solve(aa, ACTION_LINEAR, tau)
    expected = f[:, None] * (1 + np.exp(-tau) * np.cos(tg.nodes))[None, :] / TWO_PI
    err = float(np.max(np.abs(out.values - expected)))
    report("C6a", "single-mode damping exact", err, 1e-12, err <= 1e-12)

    strong = angle_spectral_solve(aa, ACTION_LINEAR, 40.0)
    dev = float(np.max(np.abs(strong.values - strong.values.mean(axis=1, keepdims=True))))
    report("C6b", "theta uniformity at tau*(dA/dxi)^2 = 40", dev, 1e-10, dev <= 1e-10)


def test_c07_bessel_marginal():
    worst = 0.0
    for ratio in (0.5, 1.0, 2.0):
        checks, _, _ = scenario_gaussian_bessel(sigma_qbar=1.0, sigma_pbar=ratio)
        check = checks[0]
        assert "Bessel" in check.description
        worst = max(worst, check.measured)
    report("C7", "angle average vs I0 closed form, ratios {0.5, 1, 2}",
           worst, 1e-6, worst <= 1e-6)


def test_c08_ordering_equivalence():
    rng = np.random.default_rng(808)
    g = Grid1D(-8.0, 8.0, 48)
    probe = ProbeSpec(sigma_Q=0.5, sigma_P=0.6)
    coupling = CouplingParams.from_probe(0.7, probe)
    Qg = Grid1D(-2.5, 2.5, 10)
    Pg = Grid1D(-2.5, 2.5, 10)
    worst = 0.0
    for k in range(100):
        rho = random_gaussian_mixture(g, g, rng)
        obs = POSITION if k % 2 == 0 else ACTION_LINEAR
        a = joint_state_post(rho, probe, obs, coupling, Qg, Pg, ordering=ORDER_FLOW_PRODUCT)
        b = joint_state_post(rho, probe, obs, coupling, Qg, Pg, ordering=ORDER_FLOW_SYSTEM)
        worst = max(worst, float(np.max(np.abs(a.values() - b.values()))))
    report("C8", "both factorization orderings agree on 100 random inputs",
           worst, 1e-10, worst <= 1e-10)


def test_c09_collapse_checks():
    probe = ProbeSpec(sigma_Q=0.01, sigma_P=0.5)  # sigma_Q / (eps * gap) = 0.01
    coupling = CouplingParams.from_probe(1.0, probe)
    obs = SpectralObservable.from_diagonal(np.array([0.0, 1.0]))
    rho = DensityOperator(np.full((2, 2), 0.5, dtype=complex))
    out = conditional_state(rho, obs, probe, coupling, Q=1.0)
    dist = trace_distance(out, DensityOperator(np.diag([0.0, 1.0]).astype(complex)))
    report("C9a", "quantum collapse onto the selected eigenspace",
           dist, 1e-3, dist <= 1e-3)

    qg = Grid1D(-8.0, 8.0, 1281)
    pg = Grid1D(-10.0, 10.0, 192)
    rho_cm = build_gaussian_phase_density(qg, pg, 1.0, 1.0)
    probe_cm = ProbeSpec(sigma_Q=0.05, sigma_P=0.5)
    coupling_cm = CouplingParams.from_probe(1.0, probe_cm)
    q0 = 0.5
    cond = conditional_state_cm(rho_cm, probe_cm, POSITION, coupling_cm, Q=q0)
    window = np.abs(qg.nodes - q0) <= 3 * probe_cm.sigma_Q / coupling_cm.epsilon
    mass = grid2d_integrate(qg, pg, np.where(window[:, None], cond.values, 0.0))
    report("C9b", "classical conditional mass within 3 sigma_Q/eps of q0",
           mass, 0.99, mass >= 0.99)


def test_c10_picture_equivalence():
    n = 100000
    budget = 5.0 / np.sqrt(n)
    qg = Grid1D(-8.0, 8.0, 256)
    pg = Grid1D(-12.0, 12.0, 256)
    rho = build_gaussian_phase_density(qg, pg, 1.0, 1.0)
    probe = ProbeSpec(sigma_Q=0.4, sigma_P=0.6)
    coupling = CouplingParams.from_probe(1.0, probe)
    ens0 = sample_initial(rho, probe, n, seed=1001)
    ens1 = flow_position(ens0, coupling)
    Qg = Grid1D(-10.0, 10.0, 1024)
    l1_Q = histogram_l1_distance(
        Histogram(Qg.lo, Qg.hi, 24).add(ens1.Q), Qg,
        probe_marginal_Q(rho, probe, POSITION, coupling, Qg)
    )
    diffused = reduced_state_post_cm(rho, POSITION, coupling.tau)
    l1_p = histogram_l1_distance(
        Histogram(pg.lo, pg.hi, 24).add(ens1.p), pg, diffused.p_marginal())
    bitwise = np.array_equal(ens1.q, ens0.q) and np.array_equal(ens1.P, ens0.P)
    worst = max(l1_Q, l1_p)
    report("C10a", "position flow histograms vs densities (L1)",
           worst, budget, worst <= budget and bitwise)

    g2 = Grid1D(-8.0, 8.0, 256)
    rho2 = build_gaussian_phase_density(g2, g2, 1.0, 1.3)
    ens0 = sample_initial(rho2, probe, n, seed=1002)
    from vnlab.heisenberg import to_action_ensemble

    act0 = to_action_ensemble(ens0)
    act1 = flow_action(act0, ACTION_LINEAR, coupling)
    aa = to_angle_action(rho2, n_xi=256, n_theta=256)
    solved = reduced_state_post_cm(aa, ACTION_LINEAR, coupling.tau)
    l1_theta = periodic_histogram_l1_distance(
        Histogram(0.0, TWO_PI, 24).add(np.mod(act1.theta, TWO_PI)),
        solved.thetagrid.nodes, solved.theta_marginal()
    )
    bitwise_a = np.array_equal(act1.xi, act0.xi) and np.array_equal(act1.P, act0.P)
    report("C10b", "action flow angle histogram vs spectral solution (L1)",
           l1_theta, budget, l1_theta <= budget and bitwise_a)


def test_c11_interference_vs_mixture():
    _, scalars, _ = scenario_interference()
    res = scalars["interference_residual"]
    mix = scalars["mixture_residual"]
    report("C11a", "superposition pointer residual exceeds 0.05",
           res, 0.05, res > 0.05)
    report("C11b", "mixture pointer residual vanishes", mix, 1e-12, mix <= 1e-12)


def test_c12_table1_report(tmp_path, capsys):
    cfg = normalize_config("table1-report", None)
    m1 = execute(cfg, tmp_path / "a")
    m2 = execute(cfg, tmp_path / "b")
    all_pass = m1["all_passed"]
    stable = m1["outputs"] == m2["outputs"]
    code = main(["table1-report", "--out", str(tmp_path / "c")])
    capsys.readouterr()
    report("C12", "table-1 rows pass, CLI exits 0, rerun byte-identical",
           float(code), 0.0, all_pass and stable and code == 0)
