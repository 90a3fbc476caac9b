"""End-to-end acceptance gates.

One test per shipping criterion, each printing a single PASS/FAIL line with
the measured numbers (run with -s to see them for passing tests).  These are
the gates a release must clear; the unit suites cover the same machinery at
finer grain.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mfequil import (
    DiscreteDist,
    EqgSpec,
    LiabilitySpec,
    MarketSpec,
    Perturbation,
    RegressionBasis,
    TimeGrid,
    build_population,
    build_scenario,
    clearing_residual,
    equilibrium_path,
    fresh_idio_levels,
    gamma_hat,
    load_config,
    martingale_check,
    random_replacement,
    replacement_invariance,
    riccati_closed_form,
    riccati_ode,
    run_clearing_study,
    sign_law_violations,
    simulate_paths,
    smallness_from_liability,
    solve_agent_bsde,
    solve_mean_field,
    solve_under_q,
    terminal_g,
    verify_condition_r,
)
from conftest import materialise, pool_strategies
from oracles import coarsen_bundle, fubini_malliavin_check

from test_meanfield import (
    K_TREE,
    SIGMA_ROW,
    STEPS as TREE_STEPS,
    reference_fixed_point,
    tree_bundle,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MARKET_1F = MarketSpec(n=1, d0=1, sigma=[[1.0]],
                       lambda_lo=0.999, lambda_hi=1.001)
MARKET_2F = MarketSpec(n=1, d0=2, sigma=[[1.0, 0.2]],
                       lambda_lo=1.0, lambda_hi=1.1)
SPEC_1F = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.5,), x0=0.3, a=-0.2, b=0.5)
SPEC_2F = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3, a=-0.2, b=0.5)


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"AC{num:02d} {'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"AC{num:02d} {label}: {detail}"


# --------------------------------------------------------------------------
# 1-2: factor-model ODE system

def test_ac01_closed_form_matches_rk4_sweep():
    grid = TimeGrid(0.5, 10)
    t0 = time.monotonic()
    sup = 0.0
    for i in range(20):
        u = i / 19.0
        a = -2.0 * u
        alpha = -3.0 + 2.5 * u
        b = 0.1 + 0.8 * ((i * 7) % 20) / 19.0
        beta = -0.2 + 0.4 * ((i * 3) % 20) / 19.0
        delta = (0.3 + 0.02 * i, 0.1)
        spec = EqgSpec(alpha=alpha, beta=beta, delta=delta, x0=0.0, a=a, b=b)
        closed = riccati_closed_form(spec, grid)
        ode = riccati_ode(spec, grid, substeps=1000)
        sup = max(
            sup,
            float(np.max(np.abs(closed.A - ode.A))),
            float(np.max(np.abs(closed.B - ode.B))),
            float(np.max(np.abs(closed.C - ode.C))),
        )
    wall = time.monotonic() - t0
    ok = sup < 1e-8 and wall < 5.0
    _line(1, "closed form vs RK4 on 20-point sweep",
          ok, f"sup {sup:.3e} (tol 1e-8), {wall:.2f}s (cap 5s)")


def test_ac02_linear_coefficient_case_is_analytic():
    grid = TimeGrid(0.5, 40)
    spec = EqgSpec(alpha=-0.7, beta=0.3, delta=(0.4, 0.1), x0=0.3, a=0.0, b=0.8)
    ric = riccati_closed_form(spec, grid)
    tau = grid.horizon - grid.times
    b_exact = (spec.b / spec.alpha) * (np.exp(spec.alpha * tau) - 1.0)
    gap_b = float(np.max(np.abs(ric.B - b_exact)))
    gap_a = float(np.max(np.abs(ric.A)))
    ok = gap_b < 1e-10 and gap_a == 0.0
    _line(2, "a=0 coefficient functions",
          ok, f"max|B-analytic| {gap_b:.3e} (tol 1e-10), max|A| {gap_a:.3e}")


# --------------------------------------------------------------------------
# 3: exponential martingale of the common value process

def test_ac03_exponential_value_process_is_martingale():
    t0 = time.monotonic()
    grid = TimeGrid(0.5, 200)
    bundle = simulate_paths(grid, SPEC_2F, MARKET_2F, 100_000, 2024)
    ric = riccati_closed_form(SPEC_2F, grid)
    eq = equilibrium_path(ric, bundle, MARKET_2F)
    z, se = martingale_check(eq)
    wall = time.monotonic() - t0
    ok = abs(z) <= 3.0 and wall < 30.0
    _line(3, "exp(y0) martingale at 1e5 paths / 200 steps",
          ok, f"|z| {abs(z):.2f} (cap 3), se {se:.2e}, {wall:.1f}s (cap 30s)")


# --------------------------------------------------------------------------
# 4-5: regression solver vs closed form, and the measure-changed solve

def _solve_1f(n_paths=10_000, steps=50, seed=777):
    grid = TimeGrid(0.5, steps)
    bundle = simulate_paths(grid, SPEC_1F, MARKET_1F, n_paths, seed)
    g = terminal_g(LiabilitySpec.from_eqg(SPEC_1F), bundle, np.array([1.0]))
    basis = RegressionBasis(degree=2, include_idio=False)
    return grid, bundle, g, basis


def euler_mean_g(spec: EqgSpec, grid: TimeGrid) -> float:
    """E[G] for G = dt sum_k (a x_k^2 + b x_k), exact for the Euler scheme
    the bundle simulates, x_k+1 = x_k (1 + alpha dt) + beta dt + delta . dW,
    from its mean and variance recursion."""
    dt = grid.dt
    m, v, total = spec.x0, 0.0, 0.0
    for _ in range(grid.steps):
        total += dt * (spec.a * (m * m + v) + spec.b * m)
        m = m * (1.0 + spec.alpha * dt) + spec.beta * dt
        v = v * (1.0 + spec.alpha * dt) ** 2 + spec.delta_sq * dt
    return total


def euler_value_slope(spec: EqgSpec, grid: TimeGrid, x: np.ndarray) -> np.ndarray:
    """z_k, (M, steps, d0), of the linear value E[G | x_k] of the same Euler
    scheme: with c = 1 + alpha dt, the value is I_k + A_k x_k^2 + B_k x_k + C_k
    for A_k = a dt + c^2 A_k+1 and B_k = b dt + 2 c beta dt A_k+1 + c B_k+1
    (A, B = 0 at T), and z_k = (2 A_k+1 (c x_k + beta dt) + B_k+1) delta."""
    dt, c = grid.dt, 1.0 + spec.alpha * grid.dt
    A, B = np.zeros(grid.steps + 1), np.zeros(grid.steps + 1)
    for k in range(grid.steps - 1, -1, -1):
        A[k] = spec.a * dt + c * c * A[k + 1]
        B[k] = spec.b * dt + 2.0 * c * spec.beta * dt * A[k + 1] + c * B[k + 1]
    slope = 2.0 * A[None, 1:] * (c * x[:, :-1] + spec.beta * dt) + B[None, 1:]
    return slope[:, :, None] * spec.delta_vec[None, None, :]


def test_ac04_regression_solver_matches_closed_form():
    """Under theta = 0 on a complete market the driver is the idiosyncratic
    |z1|^2 / 2 only, so the exact value is linear: y0 = E[G], not the
    equilibrium log E[exp G], and z0 is that linear value's slope, not the
    equilibrium's Riccati slope.  On the sample, y0 is the mean of G up to
    that regressed noise."""
    t0 = time.monotonic()
    grid, bundle, g, basis = _solve_1f()
    sol = solve_agent_bsde(bundle, MARKET_1F, basis, np.zeros((50, 1)), g)
    y0_exact = euler_mean_g(SPEC_1F, grid)
    y0_rel = abs(sol.y0 - y0_exact) / abs(y0_exact)
    g_mean = float(np.mean(g))
    sample_gap = abs(sol.y0 - g_mean) / abs(g_mean)
    z_true = euler_value_slope(SPEC_1F, grid, bundle.x)
    err = materialise(sol)[1][:, 0] - z_true
    z_rms = float(np.sqrt(np.mean(np.sum(err**2, axis=2))
                          / np.mean(np.sum(z_true**2, axis=2))))
    wall = time.monotonic() - t0
    ok = (y0_rel < 0.02 and sample_gap < 1e-4 and z_rms < 0.05 and sol.clip_count == 0
          and wall < 60.0)
    _line(4, "backward regression solve at 1e4 paths / 50 steps",
          ok, f"y0 rel {y0_rel:.4f} to E[G] {y0_exact:.7f} (tol 0.02), "
              f"to mean G {sample_gap:.1e} (tol 1e-4), z0 rms {z_rms:.4f} (tol 0.05), "
              f"clips {sol.clip_count}, {wall:.1f}s (cap 60s)")


def test_ac05_measure_change_consistency():
    grid, bundle, g, basis = _solve_1f()
    theta = np.full((50, 1), 0.3)
    sol_p = solve_agent_bsde(bundle, MARKET_1F, basis, theta, g)
    sol_q, ess = solve_under_q(bundle, MARKET_1F, basis, theta, g)
    rel = abs(sol_p.y0 - sol_q.y0) / abs(sol_p.y0)
    ok = rel < 0.02
    _line(5, "tilted-measure solve agrees with direct solve",
          ok, f"y0 gap {rel:.4f} (tol 0.02), ess {ess:.0f} of {bundle.n_paths}")


# --------------------------------------------------------------------------
# 6-7: interacting-population fixed point

def test_ac06_fixed_point_converges_inside_smallness_gate():
    cfg = load_config(str(CONFIGS / "mf_small.json"))
    sc = build_scenario(cfg)
    grid, market = sc.grid, sc.market
    spec, liability, basis = sc.eqg, sc.liability, sc.basis
    dist = sc.gamma_dist
    K = cfg.mf.n_particles
    cloud = build_population(K, cfg.seed, dist, balanced=True)
    stats = gamma_hat(cloud.gammas)
    diag = smallness_from_liability(liability, spec, grid, stats)
    bundle = simulate_paths(grid, spec, market, cfg.mf.n_common, cfg.seed, agents=K)
    g = terminal_g(liability, bundle, cloud.gammas)
    mf = solve_mean_field(bundle, market, basis, g, cloud.gammas, max_iters=10, tol=cfg.mf.tol)
    ric = riccati_closed_form(spec, grid)
    y0_closed = float(ric.A[0] * spec.x0**2 + ric.B[0] * spec.x0 + ric.C[0])
    y0_closed += 0.5 * spec.kappa**2 * grid.horizon
    rel = abs(mf.solution.y0 - y0_closed) / abs(y0_closed)
    # the production tolerance stops after two sweeps, before any ratio is
    # observable; rerun with the tolerance floored to expose the contraction
    mf2 = solve_mean_field(bundle, market, basis, g, cloud.gammas, max_iters=6, tol=1e-13)
    ratios = mf2.ratios
    ok = (
        diag.smallness_ok
        and mf.solution.converged
        and mf.solution.picard_iters <= 10
        and rel < 0.02
        and len(ratios) >= 1
        and all(r < 1.0 for r in ratios)
    )
    _line(6, "fixed point from zero inside the contraction gate",
          ok, f"iters {mf.solution.picard_iters} (cap 10), y0 rel {rel:.4f} "
              f"(tol 0.02), ratios {[f'{r:.1e}' for r in ratios]}, "
              f"smallness_ok {diag.smallness_ok}")


def test_ac07_tree_solver_matches_exhaustive_recursion():
    t0 = time.monotonic()
    grid = TimeGrid(0.3, TREE_STEPS)
    spec = EqgSpec(alpha=-0.4, beta=0.2, delta=(0.5, 0.3), x0=0.6,
                   a=-0.3, b=0.7, kappa=0.25)
    market = MarketSpec(n=1, d0=2, sigma=SIGMA_ROW,
                        lambda_lo=1.2, lambda_hi=1.3)
    bundle, engine, keys = tree_bundle(spec, grid)
    gammas = np.array([1.0, 2.0])
    stats = gamma_hat(gammas)
    liability = LiabilitySpec(spec.a, spec.b, 0.25, 0.1)
    g = terminal_g(liability, bundle, gammas)
    t_solver = time.monotonic()
    mf = solve_mean_field(bundle, market, RegressionBasis(), g, gammas,
                          engine=engine, max_iters=40, tol=1e-13)
    t_solver = time.monotonic() - t_solver
    t_oracle = time.monotonic()
    # 12 Picard sweeps of the reference recursion already sit on the fixed point
    # (contraction ratio ~1e-4 per sweep); more just burns the wall budget
    y_ref, z0_ref, z1_ref = reference_fixed_point(
        g.reshape(bundle.n_paths, K_TREE), bundle.dW0, bundle.dWi, keys,
        gammas, stats.gamma_hat, grid.dt, sweeps=12)
    t_oracle = time.monotonic() - t_oracle
    y, z0, z1 = materialise(mf.solution)
    gap = max(
        float(np.max(np.abs(y - y_ref))),
        float(np.max(np.abs(z0 - z0_ref))),
        float(np.max(np.abs(z1 - z1_ref))),
    )
    wall = time.monotonic() - t0
    ok = gap < 1e-9 and wall < 1.0
    _line(7, "3-step tree vs exhaustive backward recursion",
          ok, f"sup gap {gap:.3e} (tol 1e-9), {wall:.2f}s (cap 1s; "
              f"solver {t_solver:.2f}s, oracle {t_oracle:.2f}s)")


# --------------------------------------------------------------------------
# 8-9: finite-population clearing

def test_ac08_additive_positions_vanish():
    grid = TimeGrid(0.5, 20)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.3)
    liability = LiabilitySpec.from_eqg(spec)
    dist = DiscreteDist(values=(1.0, 2.0, 4.0), probs=(0.5, 0.3, 0.2))
    basis = RegressionBasis(degree=2, include_idio=False)
    K = 300
    cloud = build_population(K, 41, dist, balanced=True)
    bundle = simulate_paths(grid, spec, MARKET_2F, 100, 41, agents=K)
    g = terminal_g(liability, bundle, cloud.gammas)
    mf = solve_mean_field(bundle, MARKET_2F, basis, g, cloud.gammas, max_iters=8)
    pool = build_population(100, 42, dist, balanced=False)
    w = fresh_idio_levels(42, 100, 100, grid)
    p, pi = pool_strategies(mf, pool, w)
    hedge = float(np.max(np.abs(mf.theta))) / mf.stats.gamma_hat
    p_sup = float(np.max(np.abs(p)))
    eps, _ = clearing_residual(np.moveaxis(pi, 2, 0), [10, 100], grid.dt, n_batches=10)
    eps_cap = (1e-3 * hedge) ** 2 * grid.horizon
    ok = p_sup < 1e-3 * hedge and all(e < eps_cap for e in eps)
    _line(8, "per-agent positions vanish when data are additive",
          ok, f"sup|p| {p_sup:.2e} vs 1e-3*hedge {1e-3 * hedge:.2e}, "
              f"eps {eps[0]:.2e}/{eps[1]:.2e} vs cap {eps_cap:.2e}")


def test_ac09_clearing_residual_decays_at_mean_field_rate():
    t0 = time.monotonic()
    cfg = load_config(str(CONFIGS / "cross_term.json"))
    sc = build_scenario(cfg)
    report, _ = run_clearing_study(sc)
    wall = time.monotonic() - t0
    ok = (-1.3 <= report.slope <= -0.7) and all(report.bound_ok) and wall < 300.0
    neps = [f"{n * e:.2e}" for n, e in zip(report.Ns, report.eps)]
    _line(9, "clearing residual is O(1/N) with the population bound",
          ok, f"slope {report.slope:.3f} (band [-1.3,-0.7]), "
              f"N*eps {neps} vs bound {report.bound_const * (1 + 0.25):.2e}, "
              f"{wall:.0f}s (cap 300s)")


# --------------------------------------------------------------------------
# 10-11: strategy optimality and the return sign rule

def test_ac10_candidate_strategy_passes_martingale_audit():
    grid = TimeGrid(0.5, 20)
    bundle = simulate_paths(grid, SPEC_2F, MARKET_2F, 16384, 99)
    gamma = 1.5
    g = terminal_g(LiabilitySpec.from_eqg(SPEC_2F), bundle, np.array([gamma]))
    basis = RegressionBasis(degree=2, include_idio=False)
    # exogenous price of risk: under the equilibrium one the additive optimum
    # is the zero position, so scaling it is not a perturbation at all
    sigma = np.asarray(MARKET_2F.sigma, dtype=float)
    th_vec = sigma.T @ np.linalg.solve(sigma @ sigma.T, np.array([0.3]))
    theta = np.broadcast_to(th_vec, (grid.steps, sigma.shape[1])).copy()
    sol = solve_agent_bsde(bundle, MARKET_2F, basis, theta, g)
    report = verify_condition_r(
        sol, bundle, MARKET_2F, theta, gamma, g,
        perturbations=[
            Perturbation("offset+0.5e1", 1.0, (0.5, 0.0)),
            Perturbation("scale x2", 2.0, None),
            Perturbation("no trading", 0.0, None),
            Perturbation("offset-0.4e2", 1.0, (0.0, -0.4)),
            Perturbation("scale x0.5", 0.5, None),
        ],
    )
    bad = [r for r in report.perturbed
           if not (r["drift_z"] > 2.0 and r["utility"] < report.utility_star)]
    ok = abs(report.aggregate_z) < 3.0 and not bad
    worst = min(r["drift_z"] for r in report.perturbed)
    _line(10, "optimum drift-neutral, perturbations penalised",
          ok, f"aggregate z {report.aggregate_z:.2f} (band (-3,3)), "
              f"min perturbation drift z {worst:.1f} (floor 2), "
              f"{len(report.perturbed) - len(bad)}/{len(report.perturbed)} "
              f"perturbations lose utility")


def test_ac11_excess_return_sign_rule_has_no_exceptions():
    grid = TimeGrid(0.5, 50)
    bundle = simulate_paths(grid, SPEC_2F, MARKET_2F, 20_000, 314)
    ric = riccati_closed_form(SPEC_2F, grid)
    eq = equilibrium_path(ric, bundle, MARKET_2F)
    bad = sign_law_violations(eq, MARKET_2F)
    cells = bundle.n_paths * grid.steps * MARKET_2F.n
    ok = bad == 0
    _line(11, "return sign opposite the hedging alignment",
          ok, f"{bad} violations over {cells} cells")


# --------------------------------------------------------------------------
# 12-13: structural identities

def test_ac12_security_replacement_leaves_market_invariant():
    market = MarketSpec(n=2, d0=2, sigma=[[1.0, 0.2], [0.3, 0.9]],
                        lambda_lo=0.5, lambda_hi=1.5)
    grid = TimeGrid(0.5, 20)
    spec = EqgSpec(alpha=-0.5, beta=0.0, delta=(0.4, 0.1), x0=0.3,
                   a=0.0, b=0.0, kappa=0.0)
    bundle = simulate_paths(grid, spec, market, 128, 4242)
    rng = np.random.default_rng(7)
    mu = rng.normal(scale=0.2, size=(20, 2))
    pi_tilde = rng.normal(size=(128, 20, 2))
    theta_disc = wealth_disc = 0.0
    for i in range(100):
        rep = random_replacement(4242, 20, 2, cond_cap=50.0, block=i)
        td, wd = replacement_invariance(market, mu, bundle, pi_tilde, rep)
        theta_disc, wealth_disc = max(theta_disc, td), max(wealth_disc, wd)
    ok = theta_disc < 1e-10 and wealth_disc < 1e-10
    _line(12, "100 random security replacements",
          ok, f"max theta disc {theta_disc:.2e}, max wealth disc {wealth_disc:.2e} "
              f"(tol 1e-10)")


def test_ac13_integral_swap_gap_vanishes_under_refinement():
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=0.0, b=0.5, kappa=0.0)
    fine = simulate_paths(TimeGrid(0.5, 800), spec, MARKET_2F, 8192, 606)
    gaps = []
    for factor in (16, 4, 1):
        sub = coarsen_bundle(fine, factor, spec) if factor > 1 else fine
        gaps.append(fubini_malliavin_check(sub, spec))
    r1, r2 = gaps[0] / gaps[1], gaps[1] / gaps[2]
    ok = r1 >= 3.0 and r2 >= 3.0
    _line(13, "swap-identity gap under grid refinement 50->200->800",
          ok, f"gaps {gaps[0]:.2e}/{gaps[1]:.2e}/{gaps[2]:.2e}, "
              f"ratios {r1:.1f}x, {r2:.1f}x (floor 3x)")


# --------------------------------------------------------------------------
# 14: reproducibility of the full pipeline

def test_ac14_runner_output_is_thread_invariant(blas_thread_runs):
    """Draws keyed by fixed blocks and Gram sums reduced in block order: a
    full run, in a fresh process each, writes the same bytes at one and at
    two BLAS threads."""
    rcs, _errs, trees = blas_thread_runs
    same = trees[0] == trees[1]
    ok = rcs == [0, 0] and len(trees[0]) > 1 and same
    _line(14, "runner output byte-identical at 1 and 2 BLAS threads",
          ok, f"exit codes {rcs[0]}/{rcs[1]}, {len(trees[0])} files, identical: {same}")
