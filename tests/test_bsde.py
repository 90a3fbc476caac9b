import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mfequil import (
    DiscreteDist, EqgSpec, MarketSpec, Perturbation, RegressionBasis, TimeGrid,
    agent_strategies, bmo_proxy, build_population, doleans_weights,
    equilibrium_path, fresh_idio_levels, optimal_strategy,
    riccati_closed_form, simulate_paths, solve_agent_bsde,
    solve_mean_field, solve_under_q, verify_condition_r,
)
from mfequil import bsde
from mfequil.bsde import _fixed_point, _sum_last
from mfequil.errors import PicardDiverged
from mfequil.regression import BasisEngine

from conftest import make_market, materialise, pool_strategies
from oracles import coarsen_bundle, project, risk_premium_from_mu


BASIS = RegressionBasis(degree=2)


def flat_spec():
    # driftless factor so x = x0 + delta . W0 spans the common noise
    return EqgSpec(alpha=0.0, beta=0.0, delta=(0.4, 0.1), x0=0.0,
                   a=0.0, b=0.0, kappa=0.0)


def test_zero_data_zero_solution(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 256, 1)
    theta = np.zeros((grid20.steps, 2))
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, np.zeros(256))
    assert sol.converged and sol.picard_iters <= 2
    y, z0, z1 = materialise(sol)
    assert np.max(np.abs(y)) < 1e-13
    assert np.max(np.abs(z0)) < 1e-12
    assert np.max(np.abs(z1)) < 1e-12


def test_constant_liability_shifts_value_only(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 256, 2)
    theta = np.zeros((grid20.steps, 2))
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, 3.25 * np.ones(256))
    y, z0, _ = materialise(sol)
    assert np.allclose(y, 3.25, atol=1e-12)
    assert np.max(np.abs(z0)) < 1e-12


def test_deterministic_premium_quadratic_cost(grid20, market2):
    """With no liability, y_t = -1/2 int_t^T |theta|^2 (pure market bonus)."""
    bundle = simulate_paths(grid20, flat_spec(), market2, 256, 3)
    mu = np.tile(np.array([0.3, -0.1]), (grid20.steps, 1))
    theta = risk_premium_from_mu(market2.sigma, mu)
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, np.zeros(256))
    want = -0.5 * np.sum(theta**2) * grid20.dt
    assert sol.y0 == pytest.approx(want, abs=1e-12)
    assert np.max(np.abs(materialise(sol)[1])) < 1e-10


def test_gaussian_liability_closed_form():
    """G = c x_T with a single incomplete-market asset: the hedgeable part
    of z = c delta is priced linearly, the orthogonal part enters through
    half its quadratic variation."""
    market = make_market(sigma=np.array([[1.0, 0.5]]))
    grid = TimeGrid(0.5, 10)
    spec = flat_spec()
    bundle = simulate_paths(grid, spec, market, 30000, 4)
    c = 1.0
    g = c * bundle.x[:, -1]
    theta = np.zeros((grid.steps, 2))
    sol = solve_agent_bsde(bundle, market, BASIS, theta, g)

    z_full = c * spec.delta_vec
    sig = market.sigma[0]
    z_par = sig * (z_full @ sig) / (sig @ sig)
    z_perp = z_full - z_par
    y0_want = 0.5 * np.sum(z_perp**2) * grid.horizon
    assert sol.y0 == pytest.approx(y0_want, abs=0.01)
    z0_err = np.sqrt(np.mean((materialise(sol)[1][:, 0] - z_full[None, None, :]) ** 2))
    z0_rms = np.sqrt(np.mean(z_full**2))
    assert z0_err / z0_rms < 0.10


def test_doleans_weights_unit_mean(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 50000, 5)
    theta = np.tile(np.array([0.4, -0.2]), (grid20.steps, 1))
    D = doleans_weights(theta, bundle)
    assert np.allclose(D[:, 0], 1.0)
    assert np.mean(D[:, -1]) == pytest.approx(1.0, abs=0.02)
    zero = doleans_weights(np.zeros((grid20.steps, 2)), bundle)
    assert np.array_equal(zero, np.ones_like(zero))


def test_q_solver_reduces_to_p_at_zero_premium(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 2048, 6)
    g = np.tanh(bundle.x[:, -1])
    theta = np.zeros((grid20.steps, 2))
    sol_p = solve_agent_bsde(bundle, market2, BASIS, theta, g)
    sol_q, ess = solve_under_q(bundle, market2, BASIS, theta, g)
    assert ess == pytest.approx(2048.0)
    assert sol_q.y0 == pytest.approx(sol_p.y0, abs=1e-12)
    assert np.allclose(materialise(sol_q)[1], materialise(sol_p)[1], atol=1e-10)


def test_constant_premium_gives_the_same_bits_in_either_shape(grid20, market2):
    """A deterministic theta is the adapted one that every path shares: its
    (steps, d0) form and the (M0, steps, d0) copy give the same y0, z and y,
    bit for bit, in the agent solve and in the tilted one."""
    bundle = simulate_paths(grid20, flat_spec(), market2, 1024, 8)
    g = np.tanh(bundle.x[:, -1])
    mu = np.tile(np.array([0.3, -0.1]), (grid20.steps, 1))
    theta = risk_premium_from_mu(market2.sigma, mu)
    pathwise = np.broadcast_to(theta, (bundle.n_paths, *theta.shape)).copy()
    for solve in (solve_agent_bsde, lambda *args: solve_under_q(*args)[0]):
        det, path = (solve(bundle, market2, BASIS, th, g) for th in (theta, pathwise))
        assert det.y0 == path.y0
        for k in range(grid20.steps):
            assert np.array_equal(det.z_at(k), path.z_at(k))
            assert np.array_equal(det.y_at(k), path.y_at(k))


def test_clip_counter_flags_saturation(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 512, 7)
    g = bundle.x[:, -1]
    theta = np.zeros((grid20.steps, 2))
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, g, clip=1e-4)
    assert sol.clip_count > 0


def test_optimal_strategy_identity(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 512, 8)
    g = 0.5 * bundle.x[:, -1]
    mu = np.tile(np.array([0.1, 0.05]), (grid20.steps, 1))
    theta = risk_premium_from_mu(market2.sigma, mu)
    gamma = 2.0
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, g)
    p, pi = optimal_strategy(sol, theta, gamma, market2)
    assert p.shape == (512, 1, grid20.steps, 2)
    assert pi.shape == (512, 1, grid20.steps, 2)
    k = 3
    z0_par, _ = project(market2.sigma_table(grid20.steps)[k], sol.z_at(k)[:, 0, :2])
    want = (z0_par + theta[k][None, :]) / gamma
    assert np.allclose(p[:, 0, k, :], want, atol=1e-12)
    # pi reproduces p through sigma^T (p lies in the asset span)
    back = pi[:, 0, k, :] @ market2.sigma
    assert np.allclose(back, want, atol=1e-10)


def test_bmo_proxy_constant_z(grid20, market2):
    M0, K, steps = 64, 2, grid20.steps
    z0 = np.full((M0, K, steps, 2), 0.3)
    z1 = np.full((M0, K, steps, 1), 0.1)
    x = np.zeros((M0, steps + 1))
    run_i = np.zeros((M0, steps + 1))
    w = np.zeros((M0, K, steps + 1))
    engine = BasisEngine(x, run_i, w, RegressionBasis(degree=1))
    want = (2 * 0.3**2 + 0.1**2) * grid20.horizon
    backward = ({0: (engine.at(k), [z0[:, :, k, 0], z0[:, :, k, 1]], [z1[:, :, k, 0]])}
                for k in range(steps - 1, -1, -1))
    got = bmo_proxy(backward, grid20.dt)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", range(1, 8))
def test_sum_last_adds_like_numpy(n):
    """The in-order sum of an array's last-axis planes is np.sum's over that
    axis, bit for bit, below 8 planes."""
    rng = np.random.default_rng(n)
    a = rng.normal(size=(64, 33, n)) * 10.0 ** rng.uniform(-8, 8, size=(64, 33, n))
    assert np.array_equal(_sum_last([a[..., j] for j in range(n)]), np.sum(a, axis=-1))


def test_tilted_solve_builds_each_step_once(grid20, market2, conditioner_builds):
    """The Doleans weights are the same in every sweep, so the weighted
    regression of each step is built in the first sweep only."""
    bundle = simulate_paths(grid20, flat_spec(), market2, 1024, 4)
    theta = np.tile(np.array([0.3, -0.1]), (grid20.steps, 1))
    sol, _ = solve_under_q(bundle, market2, BASIS, theta, 0.4 * np.tanh(bundle.x[:, -1]))
    assert sol.picard_iters >= 2
    assert len(conditioner_builds) == grid20.steps


def test_condition_r_accepts_optimum_and_rejects_perturbations(market2):
    grid = TimeGrid(0.5, 10)
    spec = flat_spec()
    bundle = simulate_paths(grid, spec, market2, 4000, 9)
    g = 0.4 * np.tanh(bundle.x[:, -1])
    mu = np.tile(np.array([0.25, -0.1]), (grid.steps, 1))
    theta = risk_premium_from_mu(market2.sigma, mu)
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, g)
    report = verify_condition_r(sol, bundle, market2, theta, 1.5, g, [
        Perturbation("offset+0.5e1", 1.0, (0.5, 0.0)), Perturbation("scale x2", 2.0, None)])
    assert abs(report.aggregate_z) < 3.0
    assert all(row["drift_z"] > 2.0 and row["utility_gap"] <= 2.0 * row["utility_gap_se"]
               for row in report.perturbed)
    assert len(report.perturbed) >= 2


def test_time_varying_sigma_uses_each_steps_geometry():
    """One asset whose volatility row turns from (1, 0) to (0, 1) over the grid.

    Every identity is checked at every step against sigma_k itself, so a
    solver that reused one step's projector or position map everywhere
    fails.  With G = x_T = delta . W0_T and a deterministic row-space theta,
    z0 = delta exactly and the driver is deterministic, so y0 has the closed
    form dt sum_k (-delta_par,k theta_k - |theta_k|^2 / 2 + |delta_perp,k|^2 / 2).
    """
    grid = TimeGrid(0.5, 10)
    phi = np.linspace(0.0, np.pi / 2, grid.steps)
    rows = np.stack([np.cos(phi), np.sin(phi)], axis=1)          # sigma_k = rows[k]
    market = make_market(sigma=rows[:, None, :])
    # b only enters the running integral I and the closed-form slope B(t)
    spec = EqgSpec(alpha=0.0, beta=0.0, delta=(1.0, 0.0), x0=0.0,
                   a=0.0, b=0.5, kappa=0.0)
    gammas = np.array([1.0, 1.0, 2.0, 2.0])
    K = gammas.size
    bundle = simulate_paths(grid, spec, market, 2000, 10, agents=K)
    basis = RegressionBasis(degree=2, include_idio=False)
    g = bundle.x[:, -1][:, None] * np.ones(K)

    def perp(v, k):
        s = rows[k]
        return v - (v @ s)[..., None] * s / (s @ s)

    theta = 0.3 * rows
    delta = spec.delta_vec
    y0_want = grid.dt * sum(
        -(delta @ rows[k]) * 0.3 - 0.045 + 0.5 * np.sum(perp(delta, k) ** 2)
        for k in range(grid.steps))
    # the regressions keep the sample mean of G, so its Monte Carlo error
    # (about 0.016 here) drops out; step 0's geometry at every step would move
    # y0 by about 0.125
    sol = solve_agent_bsde(bundle, market, basis, theta, g)
    assert sol.y0 == pytest.approx(y0_want + g.mean(), abs=0.01)
    sol_q, _ = solve_under_q(bundle, market, basis, theta, g)
    assert sol_q.y0 == pytest.approx(sol.y0, abs=0.01)
    p, pi = optimal_strategy(sol, theta, 2.0, market)

    # normalized G = gamma x_T fitted per risk-aversion stratum: agent i hedges
    # gamma_i delta_par against the premium gamma_hat delta_par, so fresh
    # agents hold nonzero positions
    g_mf = g * gammas
    mf = solve_mean_field(bundle, market, basis, g_mf, gammas,
                          max_iters=6, strata=(2, 2))
    pool = build_population(5, 3, DiscreteDist((1.0, 2.0)), balanced=False)
    p_pool, pi_pool = pool_strategies(mf, pool, fresh_idio_levels(3, 2000, 5, grid))
    assert np.min(np.abs(p_pool[:, :, 0, 0])) > 0.1
    eq_theta = equilibrium_path(riccati_closed_form(spec, grid), bundle, market).theta

    for k in range(grid.steps):
        s = rows[k]
        for pos, strat in ((pi, p), (pi_pool, p_pool)):
            assert np.allclose((s @ s) * pos[:, :, k, 0], strat[:, :, k] @ s,
                               rtol=0, atol=1e-12)
        for in_row_space in (mf.theta[:, k], p[:, :, k], p_pool[:, :, k],
                             eq_theta[:, k]):
            assert np.max(np.abs(perp(in_row_space, k))) < 1e-12


# ---------------------------------------------------------------------------
# the one fixed-point loop shared by the agent, tilted and mean-field solves
# ---------------------------------------------------------------------------

def scripted_sweep(y0s, zs):
    """Sweep i returns the iterate y0 = y0s[i], z = zs[i] (one entry each),
    so dy0 = |y0s[i] - y0s[i-1]| / |y0s[i]| and dz = |zs[i] - zs[i-1]| / |zs[i]|.
    It checks that it is handed the previous sweep's iterate (None first:
    z = 0), and reports the summed squares of the z change and of the new z,
    and one clip."""
    calls = []

    def sweep(prev):
        i = len(calls)
        calls.append(i)
        assert (prev is None) if i == 0 else (prev.i == i - 1)
        z_old = 0.0 if prev is None else prev.z
        sol = SimpleNamespace(i=i, z=zs[i])
        return sol, np.array([y0s[i]]), (zs[i] - z_old) ** 2, zs[i] ** 2, 1
    return sweep


def test_fixed_point_stops_on_both_changes():
    # y0 settles at once but z keeps moving: no stop until z settles too
    sol = _fixed_point(scripted_sweep([1.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]),
                       1, max_iters=4, tol=1e-4)
    assert not sol.converged and sol.picard_iters == 4
    assert sol.y0_changes == [0.0, 0.0, 0.0]
    assert sol.z_changes == pytest.approx([1 / 2, 1 / 3, 1 / 4], rel=1e-14)
    # the returned iterate is the last sweep's, and clips add up over sweeps
    assert sol.i == 3 and sol.z == 4.0 and sol.clip_count == 4
    sol = _fixed_point(scripted_sweep([1.0] * 5, [1.0, 2.0, 2.0, 7.0, 7.0]),
                       1, max_iters=5, tol=1e-4)
    assert sol.converged and sol.picard_iters == 3
    assert sol.i == 2 and sol.z == 2.0 and sol.clip_count == 3


def test_fixed_point_guards_growth_and_non_finite():
    # dz = 0.091, 0.154, 0.235, 0.32: growing at sweeps 3, 4 and 5
    zs = [1.0, 1.1, 1.3, 1.7, 2.5, 2.5]
    sol = _fixed_point(scripted_sweep([1.0] * 6, zs), 1, max_iters=4, tol=1e-4)
    assert not sol.converged and sol.picard_iters == 4
    with pytest.raises(PicardDiverged, match="3 consecutive"):
        _fixed_point(scripted_sweep([1.0] * 6, zs), 1, max_iters=6, tol=1e-4)
    with pytest.raises(PicardDiverged, match="non-finite"):
        _fixed_point(scripted_sweep([1.0, np.nan, 1.0], [1.0] * 3), 1, max_iters=3, tol=1e-4)


def test_nan_liability_raises_in_every_solve(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 256, 11, agents=2)
    g = np.outer(bundle.x[:, -1], [1.0, 2.0])
    g[17, 1] = np.nan
    theta = np.full((grid20.steps, 2), 0.1)
    gammas = np.array([1.0, 2.0])
    with pytest.raises(PicardDiverged, match="non-finite"):
        solve_agent_bsde(bundle, market2, BASIS, theta, g)
    with pytest.raises(PicardDiverged, match="non-finite"):
        solve_under_q(bundle, market2, BASIS, theta, g)
    with pytest.raises(PicardDiverged, match="non-finite"):
        solve_mean_field(bundle, market2, BASIS, g, gammas)


# ---------------------------------------------------------------------------
# the solution is its fit maps: no (particle, step) array of y or z is kept
# ---------------------------------------------------------------------------

def mf_cloud(M0=64, K=16, steps=20, seed=3):
    """A gamma-coupled mean-field problem: two risk-aversion atoms, tanh(x_T)
    plus an idiosyncratic leg."""
    market = make_market()
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.3)
    bundle = simulate_paths(TimeGrid(0.5, steps), spec, market, M0, seed, agents=K)
    gammas = np.tile([1.0, 2.0], K // 2)
    g = 0.3 * np.tanh(bundle.x[:, -1])[:, None] * gammas + 0.1 * bundle.wi[:, :, -1]
    return bundle, market, g, gammas


def test_per_step_slices_are_contiguous():
    bundle, market, g, gammas = mf_cloud()
    mf = solve_mean_field(bundle, market, BASIS, g, gammas,
                          max_iters=3)
    sol = mf.solution
    coarse = coarsen_bundle(bundle, 4, flat_spec())
    p, pi = optimal_strategy(sol, mf.theta, 1.0, market)
    w = fresh_idio_levels(3, bundle.n_paths, 5, bundle.grid)
    arrays = {"y": materialise(sol)[0], "dWi": bundle.dWi, "wi": bundle.wi,
              "coarse dWi": coarse.dWi, "coarse wi": coarse.wi,
              "p": p, "pi": pi, "pool w": w}
    for name, a in arrays.items():
        for k in range(a.shape[2]):
            assert a[:, :, k].flags.c_contiguous, (name, k)
    pool = build_population(5, 3, DiscreteDist((1.0, 2.0)), balanced=False)
    for k in range(bundle.grid.steps):
        step = {"y_at": sol.y_at(k),
                **dict(zip(("pool p", "pool pi"),
                           agent_strategies(mf, pool, w, k)))}
        for name, a in step.items():
            assert a.flags.c_contiguous, (name, k)


def test_readers_rebuild_the_last_sweep():
    """y_at(0) gives back the loop's y0 bit for bit, y at the last node is g,
    and materialise stacks z_at and y_at."""
    bundle, market, g, gammas = mf_cloud()
    sol = solve_mean_field(bundle, market, BASIS, g, gammas,
                           max_iters=3, tol=0.0).solution
    assert float(np.mean(sol.y_at(0))) == sol.y0
    y, z0, z1 = materialise(sol)
    assert np.array_equal(sol.y_at(bundle.grid.steps), g) and np.array_equal(y[:, :, -1], g)
    for k in (0, 7, 19):
        z_k = sol.z_at(k)
        assert np.array_equal(z_k, np.concatenate([z0[:, :, k], z1[:, :, k]], axis=2))
        assert np.array_equal(sol.y_at(k), y[:, :, k])


def test_solve_holds_one_buffer_set():
    """The traced peak of a mean-field solve above its starting level stays
    below one (y, z0, z1) set plus what a single step needs: its design
    columns and their standardised copy, regression targets and fits, the
    previous iterate's z at that step, and the driver's temporaries, about 50
    doubles per particle at degree 2.  The allowance is 80.  A solve that
    keeps a second iterate, or forms the z change as whole-array
    temporaries, needs two sets and more."""
    bundle, market, g, gammas = mf_cloud()
    M0, K, steps = bundle.n_paths, bundle.n_agents, bundle.grid.steps
    one_set = 8 * M0 * K * (steps + 1 + steps * (market.d0 + 1))
    per_step = 8 * M0 * K * 80
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mf = solve_mean_field(bundle, market, BASIS, g, gammas,
                              max_iters=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mf.solution.picard_iters == 4
    assert peak - base < one_set + per_step


def test_solve_peak_does_not_grow_with_steps():
    """With the bundle built, a mean-field solve's traced peak is set by one
    step's work, so 40 steps need no more than 10 on the same cloud.  What
    does grow with the steps is O(q^2) per step (fit maps and factors) and
    the per-path Ebar and theta, (M0, steps, d0) each: about one
    (y, z0, z1) step set in all here.  The allowance is 4 step sets; a solve
    that stores y and z for every step needs 30 more."""
    peaks = []
    for steps in (10, 40):
        bundle, market, g, gammas = mf_cloud(M0=128, K=32, steps=steps)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mf = solve_mean_field(bundle, market, BASIS, g, gammas, max_iters=3,
                                  tol=0.0)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert mf.solution.picard_iters == 3
    step_set = 8 * 128 * 32 * (1 + market.d0 + 1)
    assert peaks[1] - peaks[0] < 4 * step_set, (peaks, step_set)


def test_z_changes_match_whole_array_formula():
    """Sweep i of a solve capped at n sweeps is the last iterate of the same
    solve capped at i sweeps, so the per-step sums behind z_changes can be
    checked against the whole-array cloud-L2 change of those iterates."""
    bundle, market, g, gammas = mf_cloud()
    sols = [solve_mean_field(bundle, market, BASIS, g, gammas, max_iters=i,
                             tol=0.0).solution for i in range(1, 5)]
    iterates = [materialise(sol) for sol in sols]
    n = bundle.n_paths * bundle.n_agents * bundle.grid.steps
    want = []
    for (_, old0, old1), (_, new0, new1) in zip(iterates, iterates[1:]):
        change = np.sum((new0 - old0) ** 2) + np.sum((new1 - old1) ** 2)
        scale = max(np.sqrt((np.sum(new0**2) + np.sum(new1**2)) / n), 1e-8)
        want.append(np.sqrt(change / n) / scale)
    assert sols[-1].z_changes == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the first sweep: the driver at z = 0 without a z
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solve", ["agent", "tilted", "mean-field"])
def test_zero_iterate_driver_is_the_general_driver_at_zero(solve, grid20, market2, monkeypatch):
    """The first sweep's driver, called with no z, equals the general driver
    on an explicit zero z to the bit, sign of zero included, broadcast over
    the agents: for a pathwise theta with negative entries and all-zero
    rows, for the tilted solve that drops -z0_par theta, and for the
    mean-field theta read from z0_par.  Each solve here has one atom, 0."""
    calls = []
    real = bsde._driver

    def spy(k, zs, *rest):
        calls.append((k, zs is None, rest))
        return real(k, zs, *rest)

    monkeypatch.setattr(bsde, "_driver", spy)
    bundle = simulate_paths(grid20, flat_spec(), market2, 256, 9, agents=3)
    g = np.tanh(bundle.x[:, -1])[:, None] * np.array([1.0, 2.0, 4.0])
    rng = np.random.default_rng(4)
    theta = -np.abs(rng.normal(size=(bundle.n_paths, grid20.steps, 2))) * 0.2
    theta[::3] = 0.0
    if solve == "agent":
        solve_agent_bsde(bundle, market2, BASIS, theta, g, picard_max=2)
    elif solve == "tilted":
        solve_under_q(bundle, market2, BASIS, theta, g, picard_max=2)
    else:
        gammas = np.array([1.0, 2.0, 4.0])
        solve_mean_field(bundle, market2, BASIS, g, gammas,
                         max_iters=2)
    # two sweeps, each from the last step back; only the first has no z
    steps = list(range(grid20.steps - 1, -1, -1))
    assert [(k, first) for k, first, _ in calls] == [(k, True) for k in steps] + [
        (k, False) for k in steps]
    zero = np.zeros((bundle.n_paths, bundle.n_agents, market2.d0 + 1))
    for k, _, rest in calls[:grid20.steps]:
        got, clips = real(k, None, *rest)
        want, _ = real(k, {0: zero}, *rest)
        got, want = np.broadcast_to(got, zero.shape[:2]), want[0]
        assert clips == 0
        assert np.array_equal(got, want), k
        assert np.array_equal(np.signbit(got), np.signbit(want)), k


def test_fewer_than_one_sweep_is_rejected_by_every_solve(grid20, market2):
    """max_iters < 1 raises ValueError before a sweep, in the agent, tilted
    and mean-field solves."""
    bundle = simulate_paths(grid20, flat_spec(), market2, 128, 3, agents=2)
    g = np.tile(bundle.x[:, -1:], (1, 2))
    theta = np.full((grid20.steps, 2), 0.1)
    gammas = np.array([1.0, 2.0])
    for n in (0, -1):
        with pytest.raises(ValueError, match="max_iters"):
            solve_agent_bsde(bundle, market2, BASIS, theta, g, picard_max=n)
        with pytest.raises(ValueError, match="max_iters"):
            solve_under_q(bundle, market2, BASIS, theta, g, picard_max=n)
        with pytest.raises(ValueError, match="max_iters"):
            solve_mean_field(bundle, market2, BASIS, g, gammas,
                             max_iters=n)
