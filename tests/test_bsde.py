import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mfequil import (
    DiscreteDist, EqgSpec, MarketSpec, Perturbation, RegressionBasis, TimeGrid,
    bmo_proxy, build_population, doleans_weights,
    equilibrium_path, optimal_strategy,
    riccati_closed_form, simulate_paths, solve_agent_bsde,
    solve_mean_field, solve_under_q, verify_condition_r,
)
from mfequil import bsde
from mfequil.bsde import _fixed_point
from mfequil.errors import PicardDiverged
from mfequil.paths import agent_levels
from mfequil.regression import BasisEngine, poly_at

from conftest import make_market, materialise, pool_strategies
from oracles import (
    coarsen_bundle, normal_moments, particle_agent_solve, pool_levels, project,
    risk_premium_from_mu,
)


BASIS = RegressionBasis(degree=2)
HALVES = np.full(2, 0.5)     # two equally likely risk-aversion atoms


def flat_spec():
    # driftless factor so x = x0 + delta . W0 spans the common noise
    return EqgSpec(alpha=0.0, beta=0.0, delta=(0.4, 0.1), x0=0.0,
                   a=0.0, b=0.0, kappa=0.0)


def test_zero_data_zero_solution(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 256, 1)
    theta = np.zeros((grid20.steps, 2))
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, np.zeros((1, 1, 256)))
    assert sol.converged and sol.picard_iters <= 2
    y, z0, z1 = materialise(sol)
    assert np.max(np.abs(y)) < 1e-13
    assert np.max(np.abs(z0)) < 1e-12
    assert np.max(np.abs(z1)) < 1e-12


def test_constant_liability_shifts_value_only(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 256, 2)
    theta = np.zeros((grid20.steps, 2))
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, 3.25 * np.ones((1, 1, 256)))
    y, z0, _ = materialise(sol)
    assert np.allclose(y[0], 3.25, atol=1e-12) and np.max(np.abs(y[1:])) < 1e-12
    assert np.max(np.abs(z0)) < 1e-12


def test_deterministic_premium_quadratic_cost(grid20, market2):
    """With no liability, y_t = -1/2 int_t^T |theta|^2 (pure market bonus)."""
    bundle = simulate_paths(grid20, flat_spec(), market2, 256, 3)
    mu = np.tile(np.array([0.3, -0.1]), (grid20.steps, 1))
    theta = risk_premium_from_mu(market2.sigma, mu)
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, np.zeros((1, 1, 256)))
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
    g = c * bundle.x[:, -1][None, None]
    theta = np.zeros((grid.steps, 2))
    sol = solve_agent_bsde(bundle, market, BASIS, theta, g)

    z_full = c * spec.delta_vec
    sig = market.sigma[0]
    z_par = sig * (z_full @ sig) / (sig @ sig)
    z_perp = z_full - z_par
    y0_want = 0.5 * np.sum(z_perp**2) * grid.horizon
    assert sol.y0 == pytest.approx(y0_want, abs=0.01)
    z0 = materialise(sol)[1][:, 0]                      # (J, steps, d0, M0)
    z0_err = np.sqrt(np.mean((z0[0] - z_full[None, :, None]) ** 2))
    z0_rms = np.sqrt(np.mean(z_full**2))
    assert z0_err / z0_rms < 0.10
    # G has no idiosyncratic leg: the coefficients of w vanish
    assert np.max(np.abs(z0[1:])) < 1e-6


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
    g = np.tanh(bundle.x[:, -1])[None, None]
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
    g = np.tanh(bundle.x[:, -1])[None, None]
    mu = np.tile(np.array([0.3, -0.1]), (grid20.steps, 1))
    theta = risk_premium_from_mu(market2.sigma, mu)
    pathwise = np.broadcast_to(theta, (bundle.n_paths, *theta.shape)).copy()
    for solve in (solve_agent_bsde, lambda *args: solve_under_q(*args)[0]):
        det, path = (solve(bundle, market2, BASIS, th, g) for th in (theta, pathwise))
        assert det.y0 == path.y0
        for k in range(grid20.steps):
            assert np.array_equal(det.z_coefs(k), path.z_coefs(k))
            assert np.array_equal(det.y_coefs(k), path.y_coefs(k))


def test_clip_counter_flags_saturation(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 512, 7)
    g = bundle.x[:, -1][None, None]
    theta = np.zeros((grid20.steps, 2))
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, g, clip=1e-4)
    assert sol.clip_count > 0


def test_optimal_strategy_identity(grid20, market2):
    bundle = simulate_paths(grid20, flat_spec(), market2, 512, 8)
    g = 0.5 * bundle.x[:, -1][None, None]
    mu = np.tile(np.array([0.1, 0.05]), (grid20.steps, 1))
    theta = risk_premium_from_mu(market2.sigma, mu)
    gamma = 2.0
    sol = solve_agent_bsde(bundle, market2, BASIS, theta, g)
    w = agent_levels(bundle)
    p, pi = optimal_strategy(sol, theta, gamma, market2, w)
    assert p.shape == (512, grid20.steps, 2)
    assert pi.shape == (512, grid20.steps, 2)
    k = 3
    z0 = poly_at(sol.z_coefs(k)[:, 0, :2], w[:, k, None])[:, 0]
    z0_par, _ = project(market2.sigma_table(grid20.steps)[k], z0)
    want = (z0_par + theta[k][None, :]) / gamma
    assert np.allclose(p[:, k, :], want, atol=1e-12)
    # pi reproduces p through sigma^T (p lies in the asset span)
    back = pi[:, k, :] @ market2.sigma
    assert np.allclose(back, want, atol=1e-10)


def test_bmo_proxy_constant_z(grid20, market2):
    """A z constant in w and over the paths: the remaining quadratic variation
    from t = 0 is |z|^2 T, whatever the basis fits."""
    M0, steps = 64, grid20.steps
    z = np.zeros((2, 1, 3, M0))
    z[0, 0] = np.array([0.3, 0.3, 0.1])[:, None]
    engine = BasisEngine(np.zeros((M0, steps + 1)), np.zeros((M0, steps + 1)), grid20.times,
                         RegressionBasis(degree=1))
    want = (2 * 0.3**2 + 0.1**2) * grid20.horizon
    backward = ((k, engine.at(k), z) for k in range(steps - 1, -1, -1))
    got = bsde.bmo_proxy(backward, grid20)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", range(1, 8))
def test_sum_last_adds_like_numpy(n):
    """_square, the driver's sum over n components of squared polynomials in
    w, is numpy's: sum_a polymul(v_a, v_a) for each atom and path, within
    the rounding bound of its terms, for coefficient scales from 1e-8 to
    1e8 and coefficient arrays of degree 2 in w.  The name is the one the
    particle driver's component sum (_sum_last) was tested under; _square
    replaces it."""
    rng = np.random.default_rng(n)
    J, S, M0 = 3, 2, 33
    v = rng.normal(size=(J, S, n, M0)) * 10.0 ** rng.uniform(-8, 8, size=(1, S, n, 1))
    got = bsde._square(v)
    assert got.shape == (2 * J - 1, S, M0)
    P = np.polynomial.polynomial
    for s in range(S):
        for m in range(M0):
            want = sum(P.polymul(v[:, s, a, m], v[:, s, a, m]) for a in range(n))
            terms = sum(P.polymul(np.abs(v[:, s, a, m]), np.abs(v[:, s, a, m]))
                        for a in range(n))
            assert np.all(np.abs(got[:, s, m] - want) <= 4 * (J + n) * np.finfo(float).eps
                          * terms), (s, m)


def test_tilted_solve_builds_each_step_once(grid20, market2, conditioner_builds):
    """The Doleans weights are the same in every sweep, so the weighted
    regression of each step is built in the first sweep only."""
    bundle = simulate_paths(grid20, flat_spec(), market2, 1024, 4)
    theta = np.tile(np.array([0.3, -0.1]), (grid20.steps, 1))
    sol, _ = solve_under_q(bundle, market2, BASIS, theta, 0.4 * np.tanh(bundle.x[:, -1])[None, None])
    assert sol.picard_iters >= 2
    assert len(conditioner_builds) == grid20.steps


def test_condition_r_accepts_optimum_and_rejects_perturbations(market2):
    grid = TimeGrid(0.5, 10)
    spec = flat_spec()
    bundle = simulate_paths(grid, spec, market2, 4000, 9)
    g = 0.4 * np.tanh(bundle.x[:, -1])[None, None]
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
    gammas = np.array([1.0, 2.0])
    bundle = simulate_paths(grid, spec, market, 2000, 10)
    basis = RegressionBasis(degree=2, include_idio=False)
    g = bundle.x[:, -1]

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
    sol = solve_agent_bsde(bundle, market, basis, theta, g[None, None])
    assert sol.y0 == pytest.approx(y0_want + g.mean(), abs=0.01)
    sol_q, _ = solve_under_q(bundle, market, basis, theta, g[None, None])
    assert sol_q.y0 == pytest.approx(sol.y0, abs=0.01)
    p, pi = optimal_strategy(sol, theta, 2.0, market, agent_levels(bundle))

    # normalized G = gamma x_T fitted per risk-aversion atom: agent i hedges
    # gamma_i delta_par against the premium gamma_hat delta_par, so fresh
    # agents hold nonzero positions
    g_mf = (g * gammas[:, None])[None]
    mf = solve_mean_field(bundle, market, basis, g_mf, gammas, probs=HALVES, max_iters=6)
    pool = build_population(5, 3, DiscreteDist((1.0, 2.0)))
    p_pool, pi_pool = pool_strategies(mf, pool, pool_levels(3, 2000, 5, grid))
    assert np.min(np.abs(p_pool[:, :, 0, 0])) > 0.1
    eq_theta = equilibrium_path(riccati_closed_form(spec, grid), bundle, market).theta

    for k in range(grid.steps):
        s = rows[k]
        for pos, strat in ((pi, p), (pi_pool, p_pool)):
            assert np.allclose((s @ s) * pos[..., k, 0], strat[..., k, :] @ s,
                               rtol=0, atol=1e-12)
        for in_row_space in (mf.theta[:, k], p[:, k], p_pool[:, :, k],
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
    bundle = simulate_paths(grid20, flat_spec(), market2, 256, 11)
    g = bundle.x[:, -1].copy()
    g[17] = np.nan
    theta = np.full((grid20.steps, 2), 0.1)
    gammas = np.array([1.0, 2.0])
    with pytest.raises(PicardDiverged, match="non-finite"):
        solve_agent_bsde(bundle, market2, BASIS, theta, g[None, None])
    with pytest.raises(PicardDiverged, match="non-finite"):
        solve_under_q(bundle, market2, BASIS, theta, g[None, None])
    with pytest.raises(PicardDiverged, match="non-finite"):
        solve_mean_field(bundle, market2, BASIS, (g * gammas[:, None])[None], gammas,
                         probs=HALVES)


# ---------------------------------------------------------------------------
# the solution is its fit maps: no (path, step) array of y or z is kept
# ---------------------------------------------------------------------------

def mf_cloud(M0=64, steps=20, seed=3):
    """A gamma-coupled mean-field problem: two risk-aversion atoms, tanh(x_T)
    plus an idiosyncratic leg."""
    market = make_market()
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.3)
    bundle = simulate_paths(TimeGrid(0.5, steps), spec, market, M0, seed)
    gammas = np.array([1.0, 2.0])
    g = np.empty((2, 2, M0))
    g[0] = 0.3 * np.tanh(bundle.x[:, -1]) * gammas[:, None]
    g[1] = 0.1
    return bundle, market, g, gammas


def test_per_step_slices_are_contiguous():
    bundle, market, g, gammas = mf_cloud()
    mf = solve_mean_field(bundle, market, BASIS, g, gammas, probs=HALVES,
                          max_iters=3)
    sol = mf.solution
    coarse = coarsen_bundle(bundle, 4, flat_spec())
    p, pi = optimal_strategy(sol, mf.theta, 1.0, market, agent_levels(bundle))
    arrays = {"agent levels": agent_levels(bundle), "coarse agent levels": agent_levels(coarse),
              "p": p, "pi": pi}
    for name, a in arrays.items():
        for k in range(a.shape[1]):
            assert a[:, k].flags.c_contiguous, (name, k)
    for k in range(bundle.grid.steps):
        step = {"y_coefs": sol.y_coefs(k), "z_coefs": sol.z_coefs(k)}
        for name, a in step.items():
            assert a.flags.c_contiguous, (name, k)


def test_readers_rebuild_the_last_sweep():
    """y_coefs(0) gives back the loop's y0 bit for bit, y at the last node is
    g, and materialise stacks z_coefs and y_coefs."""
    bundle, market, g, gammas = mf_cloud()
    sol = solve_mean_field(bundle, market, BASIS, g, gammas, probs=HALVES,
                           max_iters=3, tol=0.0).solution
    assert float(np.mean(sol.probs @ sol.y_coefs(0)[0])) == sol.y0
    y, z0, z1 = materialise(sol)
    assert np.array_equal(sol.y_coefs(bundle.grid.steps), g)
    assert np.array_equal(y[:2, :, -1], g)
    for k in (0, 7, 19):
        z_k = sol.z_coefs(k)
        assert np.array_equal(z_k, np.concatenate([z0[:, :, k], z1[:, :, k]], axis=2))
        assert np.array_equal(sol.y_coefs(k), y[:z_k.shape[0], :, k])


def test_solve_holds_one_buffer_set():
    """The traced peak of a mean-field solve above its starting level stays
    below one whole (y, z) iterate.  Per path and atom, at degree 2 (J = 3
    powers of w) over 20 steps with d0 = 2, an iterate holds
    (steps + 1) * J + steps * J * (d0 + 1) = 63 + 180 = 243 doubles; that
    is the allowance.  The solve keeps its iterate as fit maps, so what it
    holds is one step's targets, fits, the previous iterate's z at that step
    and the driver's temporaries: 156 doubles per path and atom measured at
    2048 paths.  A solve that kept a whole iterate of y and z, or stored
    every step's z, needs 156 + 243 = 399 or more and fails."""
    bundle, market, g, gammas = mf_cloud(M0=2048)
    M0, S = bundle.n_paths, gammas.size
    steps, J = bundle.grid.steps, BASIS.n_powers
    iterate = (steps + 1) * J + steps * J * (market.d0 + 1)
    assert iterate == 243
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mf = solve_mean_field(bundle, market, BASIS, g, gammas, probs=HALVES,
                              max_iters=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mf.solution.picard_iters == 4
    assert peak - base < 8 * M0 * S * iterate, (peak - base, 8 * M0 * S)


def test_solve_peak_does_not_grow_with_steps():
    """With the bundle built, a mean-field solve's traced peak is set by one
    step's work, so 40 steps need no more than 10 on the same paths.  What
    does grow with the steps is O(q^2) per step (fit maps and factors) and
    the per-path theta, (M0, steps, d0): well under one step set of
    coefficients per step.  The allowance is 4 step sets of (J (d0 + 1) + J)
    S doubles per path; a solve that stores y and z for every step needs
    30 more."""
    peaks = []
    for steps in (10, 40):
        bundle, market, g, gammas = mf_cloud(M0=2048, steps=steps)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mf = solve_mean_field(bundle, market, BASIS, g, gammas, probs=HALVES,
                                  max_iters=3,
                                  tol=0.0)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert mf.solution.picard_iters == 3
    step_set = 8 * 2048 * gammas.size * 3 * (market.d0 + 2)
    assert peaks[1] - peaks[0] < 4 * step_set, (peaks, step_set)


def test_z_changes_match_whole_array_formula():
    """Sweep i of a solve capped at n sweeps is the last iterate of the same
    solve capped at i sweeps, so the per-step sums behind z_changes can be
    checked against the whole-array L2 change of those iterates, over the
    paths, the atoms by their probabilities and the law of w (its moments
    from the oracle)."""
    bundle, market, g, gammas = mf_cloud()
    sols = [solve_mean_field(bundle, market, BASIS, g, gammas, probs=HALVES, max_iters=i,
                             tol=0.0).solution for i in range(1, 5)]
    iterates = [np.concatenate(materialise(sol)[1:], axis=3) for sol in sols]
    n = bundle.n_paths * bundle.grid.steps
    probs = sols[0].probs
    times = bundle.grid.times

    def l2(z):
        total = 0.0
        for k in range(bundle.grid.steps):
            mom = normal_moments(times[k], 2 * z.shape[0])
            gram = mom[np.add.outer(np.arange(z.shape[0]), np.arange(z.shape[0]))]
            total += np.einsum("jsam,jl,lsam,s->", z[:, :, k], gram, z[:, :, k], probs)
        return total

    want = []
    for old, new in zip(iterates, iterates[1:]):
        scale = max(np.sqrt(l2(new) / n), 1e-8)
        want.append(np.sqrt(l2(new - old) / n) / scale)
    assert sols[-1].z_changes == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the first sweep: the driver at z = 0 without a z
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solve", ["agent", "tilted", "mean-field"])
def test_zero_iterate_driver_is_the_general_driver_at_zero(solve, grid20, market2, monkeypatch):
    """The first sweep's driver, called with no z, equals the general driver
    on an explicit zero z to the bit, sign of zero included, broadcast over
    the atoms: for a pathwise theta with negative entries and all-zero
    rows, for the tilted solve that drops -z0_par theta, and for the
    mean-field theta read from z0_par."""
    calls = []
    real = bsde._driver

    def spy(k, zs, *rest):
        calls.append((k, zs is None, rest))
        return real(k, zs, *rest)

    monkeypatch.setattr(bsde, "_driver", spy)
    bundle = simulate_paths(grid20, flat_spec(), market2, 256, 9)
    gammas = np.array([1.0, 2.0, 4.0])
    g = (np.tanh(bundle.x[:, -1]) * gammas[:, None])[None]
    rng = np.random.default_rng(4)
    theta = -np.abs(rng.normal(size=(bundle.n_paths, grid20.steps, 2))) * 0.2
    theta[::3] = 0.0
    if solve == "agent":
        solve_agent_bsde(bundle, market2, BASIS, theta, g[:, :1], picard_max=2)
    elif solve == "tilted":
        solve_under_q(bundle, market2, BASIS, theta, g[:, :1], picard_max=2)
    else:
        solve_mean_field(bundle, market2, BASIS, g, gammas, probs=np.full(3, 1 / 3),
                         max_iters=2)
    # two sweeps, each from the last step back; only the first has no z
    steps = list(range(grid20.steps - 1, -1, -1))
    assert [(k, first) for k, first, _ in calls] == [(k, True) for k in steps] + [
        (k, False) for k in steps]
    atoms = 1 if solve != "mean-field" else gammas.size
    zero = np.zeros((BASIS.n_powers, atoms, market2.d0 + 1, bundle.n_paths))
    for k, _, rest in calls[:grid20.steps]:
        got, clips = real(k, None, *rest)
        want, _ = real(k, zero, *rest)
        got = np.broadcast_to(got[0], want[0].shape)
        assert clips == 0
        assert np.all(want[1:] == 0.0)
        assert np.array_equal(got, want[0]), k
        assert np.array_equal(np.signbit(got), np.signbit(want[0])), k


def test_fewer_than_one_sweep_is_rejected_by_every_solve(grid20, market2):
    """max_iters < 1 raises ValueError before a sweep, in the agent, tilted
    and mean-field solves."""
    bundle = simulate_paths(grid20, flat_spec(), market2, 128, 3)
    g = bundle.x[:, -1][None, None]
    theta = np.full((grid20.steps, 2), 0.1)
    gammas = np.array([1.0, 2.0])
    for n in (0, -1):
        with pytest.raises(ValueError, match="max_iters"):
            solve_agent_bsde(bundle, market2, BASIS, theta, g, picard_max=n)
        with pytest.raises(ValueError, match="max_iters"):
            solve_under_q(bundle, market2, BASIS, theta, g, picard_max=n)
        with pytest.raises(ValueError, match="max_iters"):
            solve_mean_field(bundle, market2, BASIS, np.concatenate([g, g], axis=1), gammas,
                             probs=HALVES, max_iters=n)


def test_particle_solve_converges_to_the_moment_solve(market2):
    """The solve is the limit of plain regression Monte Carlo on K sampled
    particles per common path as K grows.  An independent particle solve
    (explicit design, np.linalg.lstsq, the same two-stage scheme and three
    Picard sweeps) on the same common paths, over 6 independent particle
    draws per K, has an RMS y0 gap to the moment solve that falls like
    K^-1/2: the bound, stated before the test was first run, is that
    gap * sqrt(K) stays within a factor 2.5 of its value at K = 16, at
    K = 64 and 256, and that the gap at K = 256 is at most half the gap at
    K = 16 (K^-1/2 predicts a quarter)."""
    grid = TimeGrid(0.5, 5)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3, a=0.0, b=0.5)
    bundle = simulate_paths(grid, spec, market2, 64, 23)
    mu = np.tile(np.array([0.2, -0.1]), (grid.steps, 1))
    theta = risk_premium_from_mu(market2.sigma, mu)
    g0, g1 = 0.3 * np.tanh(bundle.x[:, -1]), 0.3 + 0.2 * bundle.x[:, -1]
    basis = RegressionBasis(degree=2, ridge=0.0)
    sol = solve_agent_bsde(bundle, market2, basis, theta, np.stack([[g0], [g1]]),
                           picard_max=3, picard_tol=0.0)
    proj = np.linalg.pinv(market2.sigma) @ market2.sigma
    rng = np.random.default_rng(5)
    gaps = {}
    for K in (16, 64, 256):
        y0s = [particle_agent_solve(bundle, proj, theta[0], g0, g1,
                                    rng.normal(size=(64, K, grid.steps)) * np.sqrt(grid.dt),
                                    degree=2, sweeps=3) for _ in range(6)]
        gaps[K] = float(np.sqrt(np.mean((np.array(y0s) - sol.y0) ** 2)))
    scaled = {K: gap * np.sqrt(K) for K, gap in gaps.items()}
    assert all(scaled[16] / 2.5 <= s <= 2.5 * scaled[16] for s in scaled.values()), gaps
    assert gaps[256] <= 0.5 * gaps[16], gaps
