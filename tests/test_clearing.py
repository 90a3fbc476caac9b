"""Finite-population clearing: populations, residual estimator, rate fit,
and security replacement."""

import os
import tracemalloc

import numpy as np
import pytest

import mfequil.clearing
import mfequil.market
from mfequil import (
    ClearingReport,
    DimensionMismatch,
    DiscreteDist,
    EqgSpec,
    IllConditionedQ,
    InsufficientSpan,
    LiabilitySpec,
    MarketSpec,
    Population,
    RegressionBasis,
    ReplacementSpec,
    TimeGrid,
    agent_strategies,
    build_population,
    build_scenario,
    clearing_residual,
    config_from_dict,
    feature_columns,
    fresh_idio_levels,
    equilibrium_path,
    gamma_hat,
    optimal_strategy,
    random_replacement,
    rate_fit,
    replacement_invariance,
    riccati_closed_form,
    run_clearing_study,
    simulate_paths,
    solve_agent_bsde,
    solve_mean_field,
    terminal_g,
    validate_market,
    verify_condition_r,
)
from mfequil.paths import KIND_AUX, normal_block_array

from conftest import make_market, pool_strategies
from oracles import level_array, project, risk_premium_from_mu

GAMMA_DIST = DiscreteDist(values=(1.0, 2.0, 4.0), probs=(0.5, 0.3, 0.2))


# ---------------------------------------------------------------- populations

def test_discrete_dist_validation():
    with pytest.raises(ValueError):
        DiscreteDist(values=(1.0, 2.0), probs=(0.5, 0.3, 0.2))
    with pytest.raises(ValueError):
        DiscreteDist(values=(1.0, 2.0), probs=(0.7, 0.7))
    with pytest.raises(ValueError):
        DiscreteDist(values=(1.0, 2.0), probs=(-0.1, 1.1))
    assert np.allclose(DiscreteDist(values=(1.0, 2.0)).p, [0.5, 0.5])


def test_draw_ids_inverts_cdf():
    ids = GAMMA_DIST.draw_ids(np.array([0.0, 0.49, 0.5, 0.79, 0.81, 0.999, 1.0]))
    assert ids.tolist() == [0, 0, 1, 1, 2, 2, 2]


def test_balanced_ids_largest_remainder():
    # quotas 3.5 / 2.1 / 1.4: the extra seat goes to the largest remainder
    counts = np.bincount(GAMMA_DIST.balanced_ids(7), minlength=3)
    assert counts.tolist() == [4, 2, 1]
    counts = np.bincount(GAMMA_DIST.balanced_ids(10), minlength=3)
    assert counts.tolist() == [5, 3, 2]
    for n in (1, 2, 3, 17, 100):
        assert GAMMA_DIST.balanced_ids(n).shape == (n,)


@pytest.mark.parametrize("probs", [None, (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), (0.0, 0.7, 0.3),
                                   (0.34, 0.33, 0.33)])
def test_balanced_ids_are_grouped_by_atom(probs):
    """balanced_ids lists each atom's particles together, in atom order, so
    solve_equilibrium_cloud can give its strata by their sizes."""
    dist = DiscreteDist(values=(1.0, 2.0, 4.0), probs=probs)
    for n in (1, 2, 7, 66, 2500):
        ids = dist.balanced_ids(n)
        assert ids.shape == (n,) and np.all(np.diff(ids) >= 0), n


def test_balanced_population_matches_harmonic_mean():
    pop = build_population(10, 99, GAMMA_DIST, balanced=True)
    stats = gamma_hat(pop.gammas)
    # exact atom counts 5/3/2 -> mean(1/gamma) = 0.7 with no sampling noise
    assert stats.gamma_hat * np.mean(1.0 / pop.gammas) == pytest.approx(1.0, abs=1e-15)
    assert stats.gamma_hat == pytest.approx(1.0 / 0.7, abs=1e-14)


def test_population_draws_are_seeded():
    a = build_population(500, 11, GAMMA_DIST, balanced=False)
    b = build_population(500, 11, GAMMA_DIST, balanced=False)
    c = build_population(500, 12, GAMMA_DIST, balanced=False)
    assert np.array_equal(a.gammas, b.gammas)
    assert not np.array_equal(a.gammas, c.gammas)
    freq = np.bincount(a.atom_ids, minlength=3) / 500
    assert np.max(np.abs(freq - GAMMA_DIST.p)) < 0.08
    with pytest.raises(ValueError):
        build_population(0, 11, GAMMA_DIST, balanced=False)


def test_fresh_idio_levels_are_brownian():
    grid = TimeGrid(0.5, 10)
    w = fresh_idio_levels(31, 8, 5, grid)
    assert w.shape == (8, 5, 11)
    assert np.all(w[:, :, 0] == 0.0)
    dw = normal_block_array(31, KIND_AUX, (8, 5, 10)) * np.sqrt(grid.dt)
    assert np.array_equal(w.dw, dw)
    full = level_array(dw)
    for k in range(11):
        assert np.array_equal(w[:, :, k], full[:, :, k]), k


def test_fresh_idio_levels_draw_and_scale_in_place():
    """The pool's normals are drawn straight into their array and scaled
    there, so fresh_idio_levels' traced peak is what it keeps (the
    increments and ceil(steps / c) = 4 checkpoint levels) plus one running
    level: no second copy of the increments is ever live."""
    grid = TimeGrid(0.5, 20)
    M0, N = 64, 300
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        w = fresh_idio_levels(5, M0, N, grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    level = M0 * N * 8
    assert kept - base >= w.dw.nbytes + 4 * level
    assert peak - kept < 1.5 * level, (peak - kept, level)


# ---------------------------------------------------------- residual estimator

def test_clearing_residual_constant_positions():
    # per-capita position is c in every slot -> eps_N = c^2 * n * T exactly
    M0, pool, steps, n = 6, 12, 10, 2
    dt = 0.05
    c = 0.3
    pi = np.full((M0, pool, steps, n), c)
    eps, ses = clearing_residual(np.moveaxis(pi, 2, 0), [3, 12], dt, n_batches=3)
    expected = c * c * n * steps * dt
    assert eps == pytest.approx([expected, expected], rel=1e-12)
    assert ses == pytest.approx([0.0, 0.0], abs=1e-15)


def test_clearing_residual_is_permutation_invariant():
    rng = np.random.default_rng(4)
    pi = rng.normal(size=(5, 9, 7, 2))
    eps, _ = clearing_residual(np.moveaxis(pi, 2, 0), [4, 9], 0.1, n_batches=20)
    perm = rng.permutation(9)
    eps_p, _ = clearing_residual(np.moveaxis(pi[:, perm], 2, 0), [4, 9], 0.1, n_batches=20)
    # the N=9 sum runs over the whole pool in canonical order: bit identical
    assert eps[1] == eps_p[1]
    # the N=4 prefix genuinely changes membership
    assert eps[0] != eps_p[0]


def whole_pool_residual(pi, Ns, dt, n_batches):
    """Reference: eps_N and its standard error from the whole (M0, pool,
    steps, n) array, sorted and summed over agents 16 common paths at a time."""
    M0 = pi.shape[0]
    B = min(n_batches, M0)
    eps, ses = [], []
    for N in Ns:
        integ = np.empty(M0)
        for a in range(0, M0, 16):
            s = np.sort(np.array(pi[a:a + 16, :N], order="C"), axis=1).sum(axis=1) / N
            integ[a:a + 16] = dt * np.sum(s * s, axis=(1, 2))
        eps.append(float(integ.mean()))
        bm = np.array([b.mean() for b in np.array_split(integ, B)])
        ses.append(float(bm.std(ddof=1) / np.sqrt(B)))
    return eps, ses


@pytest.mark.parametrize("n", [1, 2])
def test_clearing_residual_matches_whole_pool_reference(n):
    """Summed one step at a time, the estimates are the whole-pool ones bit
    for bit: each slot's agents are added in the same sorted order."""
    rng = np.random.default_rng(11)
    pi = rng.normal(size=(37, 300, 6, n))
    Ns = [3, 17, 100, 300]
    got = clearing_residual((pi[:, :, k] for k in range(6)), Ns, 0.05, n_batches=7)
    assert got == whole_pool_residual(pi, Ns, 0.05, n_batches=7)


def test_clearing_residual_input_checks():
    pi = np.zeros((3, 4, 5, 1))       # (steps, M0, pool, n)
    with pytest.raises(ValueError):
        clearing_residual(pi, [6], 0.1, n_batches=20)
    with pytest.raises(ValueError):
        clearing_residual(pi[:, :1], [2], 0.1, n_batches=20)


def test_clearing_report_validation():
    with pytest.raises(ValueError):
        ClearingReport(Ns=[10, 10], eps=[1.0, 1.0], stderr=[0.1, 0.1],
                       gamma_hat=1.0, gamma_lo=1.0, bmo_proxy=1.0)
    with pytest.raises(ValueError):
        ClearingReport(Ns=[10, 20], eps=[1.0, -1.0], stderr=[0.1, 0.1],
                       gamma_hat=1.0, gamma_lo=1.0, bmo_proxy=1.0)


# ----------------------------------------------------------------- rate fit

def _report(Ns, eps):
    return ClearingReport(Ns=list(Ns), eps=list(eps), stderr=[0.0] * len(Ns),
                          gamma_hat=1.5, gamma_lo=1.0, bmo_proxy=0.02)


def test_rate_fit_recovers_exact_power_law():
    Ns = [10, 30, 100, 300, 1000]
    C = 0.7
    rep = rate_fit(_report(Ns, [C / n for n in Ns]), slack=0.25)
    assert rep.slope == pytest.approx(-1.0, abs=1e-12)
    assert rep.intercept == pytest.approx(np.log(C), abs=1e-12)
    assert rep.bound_const == pytest.approx(4.0 * (1.0 + 1.5**2) * 0.02)
    # N * eps_N = 0.7 > bound_const * 1.25 = 0.325: every flag trips
    assert rep.bound_ok == [False] * 5
    rep2 = rate_fit(_report(Ns, [1e-3 / n for n in Ns]), slack=0.25)
    assert rep2.bound_ok == [True] * 5


def test_rate_fit_span_preconditions():
    with pytest.raises(InsufficientSpan):
        rate_fit(_report([10, 30, 100], [0.1, 0.03, 0.01]), slack=0.25)
    with pytest.raises(InsufficientSpan):
        rate_fit(_report([10, 15, 20, 25], [0.1, 0.07, 0.05, 0.04]), slack=0.25)
    with pytest.raises(ValueError):
        rate_fit(_report([10, 30, 100, 1000], [0.1, 0.01, 0.0, 0.001]), slack=0.25)


# ------------------------------------------------------------ strategy maps

def _small_mf():
    grid = TimeGrid(0.5, 10)
    market = MarketSpec(n=1, d0=2, sigma=[[1.0, 0.2]],
                        lambda_lo=1.0, lambda_hi=1.1)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.0)
    K = 6
    pop = build_population(K, 3, GAMMA_DIST, balanced=True)
    bundle = simulate_paths(grid, spec, market, 128, 3, agents=K)
    basis = RegressionBasis(degree=2, include_idio=False)
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, pop.gammas)
    mf = solve_mean_field(bundle, market, basis, g, pop.gammas, max_iters=6)
    return grid, market, spec, pop, bundle, basis, mf


def test_agent_strategies_geometry():
    grid, market, _, pop, bundle, basis, mf = _small_mf()
    N = 5
    fresh = build_population(N, 7, GAMMA_DIST, balanced=False)
    w = fresh_idio_levels(3, bundle.n_paths, N, grid)
    p, pi = pool_strategies(mf, fresh, w)
    assert p.shape == (128, N, 10, 2)
    assert pi.shape == (128, N, 10, 1)
    table = market.sigma_table(10)
    for k in (0, 4, 9):
        # p is built inside range(sigma^T); pi must reproduce it exactly
        assert np.allclose(pi[:, :, k] @ table[k], p[:, :, k], atol=1e-10)
        par, perp = project(table[k], p[:, :, k])
        assert np.max(np.abs(perp)) < 1e-10
    # the idio coordinate is outside the basis here: same-gamma agents
    # receive identical positions regardless of their own noise
    same = np.flatnonzero(fresh.gammas == fresh.gammas[0])
    if same.size > 1:
        i, j = same[:2]
        assert np.array_equal(p[:, i], p[:, j])



def test_agent_strategies_use_each_agents_stratum():
    """On a stratified solve each fresh agent is evaluated with its own
    atom's engine and fit.  The reference applies that atom's factor (kept
    columns, mean and scale) and fit map to the agent's raw columns by hand."""
    grid = TimeGrid(0.5, 10)
    market = MarketSpec(n=1, d0=2, sigma=[[1.0, 0.2]],
                        lambda_lo=1.0, lambda_hi=1.1)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.0)
    dist = DiscreteDist(values=(1.0, 2.0))
    cloud = build_population(6, 3, dist, balanced=True)
    bundle = simulate_paths(grid, spec, market, 128, 3, agents=6)
    basis = RegressionBasis(degree=2, include_idio=False)
    # normalized G = gamma x_T: the atoms' z maps differ by their gamma
    g = bundle.x[:, -1][:, None] * cloud.gammas
    mf = solve_mean_field(bundle, market, basis, g, cloud.gammas,
                          max_iters=6, strata=np.bincount(cloud.atom_ids))
    pool = build_population(8, 7, dist, balanced=False)
    assert set(pool.atom_ids.tolist()) == {0, 1}
    w = fresh_idio_levels(3, bundle.n_paths, pool.size, grid)
    p, _ = pool_strategies(mf, pool, w)
    proj, _ = market.geometry(grid.steps)
    for k in (0, 4, 9):
        fits = mf.solution.fits[k]
        factors = [engine._memo[k] for _, engine in mf.solution.atoms]
        raw = feature_columns(basis, bundle.x[:, k, None], bundle.I[:, k, None], w[:, :, k])
        raw = raw.reshape(bundle.n_paths, pool.size, -1)

        def by_hand(s, rows):
            fit, fac = fits[s], factors[s]
            return (((rows[:, fac.kept] - fac.mu) / fac.sd) @ fit.coef + fit.beta0)[:, :2]

        for i, s in enumerate(pool.atom_ids):
            z_hat = by_hand(s, raw[:, i])
            other = by_hand(1 - s, raw[:, i])
            assert np.max(np.abs(z_hat - other)) > 1e-2
            want = (z_hat @ proj[k] + mf.theta[:, k]) / pool.gammas[i]
            np.testing.assert_allclose(p[:, i, k], want, rtol=1e-12, atol=1e-12)


def test_agent_strategies_commute_with_a_permuted_pool():
    """On a stratified solve the pool may come in any order: permuting its
    agents (gammas, atoms and levels together) permutes p and pi bit for bit.
    The permuted levels are a whole array, so the pool's Levels and the
    array its np.cumsum gives are read to the same bits too."""
    grid = TimeGrid(0.5, 6)
    market = MarketSpec(n=1, d0=2, sigma=[[1.0, 0.2]],
                        lambda_lo=1.0, lambda_hi=1.1)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.3)
    cloud = build_population(6, 3, GAMMA_DIST, balanced=True)
    bundle = simulate_paths(grid, spec, market, 128, 3, agents=6)
    g = terminal_g(LiabilitySpec.from_eqg(spec, eps=0.1), bundle, cloud.gammas)
    mf = solve_mean_field(bundle, market, RegressionBasis(degree=2), g, cloud.gammas,
                          max_iters=4, strata=np.bincount(cloud.atom_ids, minlength=3))
    pool = build_population(40, 7, GAMMA_DIST, balanced=False)
    assert set(pool.atom_ids.tolist()) == {0, 1, 2} and np.any(np.diff(pool.atom_ids) < 0)
    w = fresh_idio_levels(3, bundle.n_paths, pool.size, grid)
    p, pi = pool_strategies(mf, pool, w)
    perm = np.random.default_rng(5).permutation(pool.size)
    shuffled = Population(pool.gammas[perm], pool.atom_ids[perm])
    p_perm, pi_perm = pool_strategies(mf, shuffled, level_array(w.dw)[:, perm])
    assert np.array_equal(p_perm, p[:, perm])
    assert np.array_equal(pi_perm, pi[:, perm])


def test_pool_agent_of_an_atom_without_cloud_particles_raises():
    """A balanced cloud of 2 particles over 3 atoms leaves atom 2 without a
    particle, so it gets no engine and no fit.  A pool agent of atom 2 then
    raises a ValueError that names the atom, at every step, instead of
    being given positions; a pool of the other atoms is read as usual."""
    grid = TimeGrid(0.5, 4)
    market = MarketSpec(n=1, d0=2, sigma=[[1.0, 0.2]],
                        lambda_lo=1.0, lambda_hi=1.1)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.3)
    cloud = build_population(2, 3, GAMMA_DIST, balanced=True)
    strata = np.bincount(cloud.atom_ids, minlength=3)
    assert strata.tolist() == [1, 1, 0]
    bundle = simulate_paths(grid, spec, market, 128, 3, agents=2)
    g = terminal_g(LiabilitySpec.from_eqg(spec, eps=0.1), bundle, cloud.gammas)
    mf = solve_mean_field(bundle, market, RegressionBasis(degree=2), g, cloud.gammas,
                          max_iters=3, strata=strata)
    assert mf.solution.atoms[2] is None
    w = fresh_idio_levels(3, bundle.n_paths, 3, grid)
    pool = Population(gammas=np.array([1.0, 4.0, 2.0]), atom_ids=np.array([0, 2, 1]))
    for k in range(grid.steps):
        with pytest.raises(ValueError, match="atom 2 has 1 pool agents but no particle"):
            agent_strategies(mf, pool, w, k)
    p, pi = pool_strategies(mf, Population(pool.gammas[[0, 2]], pool.atom_ids[[0, 2]]),
                            level_array(w.dw)[:, [0, 2]])
    assert np.all(np.isfinite(p)) and np.all(np.isfinite(pi))


# ------------------------------------------------------------- replacement

def test_replacement_spec_condition_cap():
    Q = np.stack([np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]])])
    with pytest.raises(IllConditionedQ):
        ReplacementSpec(Q=Q, cond_cap=50.0)
    ReplacementSpec(Q=np.stack([np.eye(2)] * 3), cond_cap=50.0)


@pytest.mark.parametrize("Q, error", [
    (np.full((3, 2, 2), np.nan), IllConditionedQ),
    (np.stack([np.eye(2), [[1.0, np.inf], [0.0, 1.0]]]), IllConditionedQ),
    (np.eye(2), DimensionMismatch),
    (np.ones((3, 2, 3)), DimensionMismatch),
    (np.ones((2, 2, 2, 2)), DimensionMismatch),
])
def test_replacement_spec_rejects_bad_stacks(Q, error):
    """A non-finite Q is ill conditioned (not an SVD failure), and anything
    but a stack of square matrices is a dimension mismatch."""
    with pytest.raises(error):
        ReplacementSpec(Q=Q, cond_cap=50.0)


def test_random_replacement_is_seeded_and_conditioned():
    a = random_replacement(21, 8, 2, cond_cap=50.0, block=0)
    b = random_replacement(21, 8, 2, cond_cap=50.0, block=0)
    c = random_replacement(22, 8, 2, cond_cap=50.0, block=0)
    assert np.array_equal(a.Q, b.Q)
    assert not np.array_equal(a.Q, c.Q)
    assert max(np.linalg.cond(a.Q[k]) for k in range(8)) <= 50.0


def test_replacement_invariance_exact_for_rotations():
    market = MarketSpec(n=2, d0=2, sigma=[[1.0, 0.2], [0.3, 0.9]],
                        lambda_lo=0.5, lambda_hi=1.5)
    grid = TimeGrid(0.5, 10)
    spec = EqgSpec(alpha=-0.5, beta=0.0, delta=(0.4, 0.1), x0=0.3,
                   a=0.0, b=0.0, kappa=0.0)
    bundle = simulate_paths(grid, spec, market, 64, 13)
    rng = np.random.default_rng(0)
    mu = rng.normal(size=(10, 2))
    pi_tilde = rng.normal(size=(64, 10, 2))
    angles = rng.uniform(0, 2 * np.pi, size=10)
    Q = np.stack([np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
                  for t in angles])
    theta_disc, wealth_disc = replacement_invariance(
        market, mu, bundle, pi_tilde, ReplacementSpec(Q=Q, cond_cap=50.0))
    assert theta_disc < 1e-12
    assert wealth_disc < 1e-12


def test_replacement_invariance_random_q_and_pathwise_mu():
    market = MarketSpec(n=2, d0=2, sigma=[[1.0, 0.2], [0.3, 0.9]],
                        lambda_lo=0.5, lambda_hi=1.5)
    grid = TimeGrid(0.5, 10)
    spec = EqgSpec(alpha=-0.5, beta=0.0, delta=(0.4, 0.1), x0=0.3,
                   a=0.0, b=0.0, kappa=0.0)
    bundle = simulate_paths(grid, spec, market, 64, 13)
    rng = np.random.default_rng(1)
    mu = rng.normal(size=(64, 10, 2))
    pi_tilde = rng.normal(size=(64, 10, 2))
    rep = random_replacement(77, 10, 2, cond_cap=50.0, block=0)
    theta_disc, wealth_disc = replacement_invariance(market, mu, bundle, pi_tilde, rep)
    assert theta_disc < 1e-10
    assert wealth_disc < 1e-10
    with pytest.raises(ValueError):
        replacement_invariance(market, rng.normal(size=(3, 2)), bundle, pi_tilde, rep)


def invariance_reference(market, mu, bundle, pi_tilde, rep):
    """Both replacement identities step by step, each theta from a fresh
    factorisation of its own sigma or Q sigma."""
    steps, dt = bundle.grid.steps, bundle.grid.dt
    table = market.sigma_table(steps)
    mu = np.broadcast_to(mu, (bundle.n_paths, steps, market.n))
    theta_disc = wealth_disc = 0.0
    w_orig = w_repl = np.zeros(bundle.n_paths)
    for k in range(steps):
        Qk, sig, mk = rep.Q[k], table[k], mu[:, k]
        th = risk_premium_from_mu(sig, mk)
        th_tilde = risk_premium_from_mu(Qk @ sig, mk @ Qk.T)
        theta_disc = max(theta_disc, float(np.max(np.abs(th_tilde - th))))
        drive = mk * dt + bundle.dW0[:, k, :] @ sig.T
        pt = pi_tilde[:, k, :]
        w_repl = w_repl + np.einsum("mj,mj->m", pt, drive @ Qk.T)
        w_orig = w_orig + np.einsum("mj,mj->m", pt @ Qk, drive)
        wealth_disc = max(wealth_disc, float(np.max(np.abs(w_repl - w_orig))))
    return theta_disc, wealth_disc


def sigma_stepping(steps):
    """A (steps, 2, 2) sigma table that turns and stretches from step to step."""
    out = []
    for k in range(steps):
        t = 0.4 * k
        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        out.append(np.diag([1.0, 0.5 + 0.1 * k]) @ np.array([[1.0, 0.2], [0.3, 0.9]]) @ rot)
    return np.stack(out)


@pytest.mark.parametrize("table", [False, True])
def test_replacement_invariance_is_the_per_step_reference_to_the_bit(table):
    grid = TimeGrid(0.5, 10)
    market = make_market(sigma_stepping(10) if table else [[1.0, 0.2], [0.3, 0.9]])
    spec = EqgSpec(alpha=-0.5, beta=0.0, delta=(0.4, 0.1), x0=0.3,
                   a=0.0, b=0.0, kappa=0.0)
    bundle = simulate_paths(grid, spec, market, 64, 13)
    rng = np.random.default_rng(2)
    for draw in range(5):
        mu = rng.normal(size=(64, 10, 2))
        pi_tilde = rng.normal(size=(64, 10, 2))
        rep = random_replacement(31, 10, 2, cond_cap=50.0, block=draw)
        got = replacement_invariance(market, mu, bundle, pi_tilde, rep)
        assert got == invariance_reference(market, mu, bundle, pi_tilde, rep)


@pytest.mark.parametrize("shape", [(13, 2, 2), (7, 2, 2), (1, 2, 2), (10, 3, 3), (10, 1, 1)])
def test_replacement_invariance_needs_one_q_per_step(shape):
    """A Q stack longer or shorter than the grid, a single matrix that would
    broadcast, or matrices of another size than n all raise DimensionMismatch."""
    grid = TimeGrid(0.5, 10)
    market = make_market()
    spec = EqgSpec(alpha=-0.5, beta=0.0, delta=(0.4, 0.1), x0=0.3,
                   a=0.0, b=0.0, kappa=0.0)
    bundle = simulate_paths(grid, spec, market, 16, 13)
    Q = np.broadcast_to(np.eye(shape[1]), shape).copy()
    with pytest.raises(DimensionMismatch):
        replacement_invariance(market, np.zeros((10, 2)), bundle,
                               np.zeros((16, 10, 2)), ReplacementSpec(Q=Q, cond_cap=50.0))


@pytest.fixture
def gram_factorisations(monkeypatch):
    """The shapes of sigma handed to the market's one Cholesky of sigma sigma^T."""
    calls = []
    real = mfequil.market._gram_cholesky

    def counted(sigma):
        calls.append(np.shape(sigma))
        return real(sigma)

    monkeypatch.setattr(mfequil.market, "_gram_cholesky", counted)
    return calls


@pytest.mark.parametrize("table", [False, True])
def test_sigma_gram_is_factorised_once_per_market(gram_factorisations, table):
    """Making the market factorises sigma sigma^T once; solves, strategies,
    checks and the closed-form path read that factor, and one replacement
    check factorises only its Q sigma stack."""
    grid = TimeGrid(0.5, 4)
    market = make_market(sigma_stepping(4) if table else [[1.0, 0.2], [0.3, 0.9]])
    assert len(gram_factorisations) == 1
    gram_factorisations.clear()

    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.3)
    cloud = build_population(6, 3, GAMMA_DIST, balanced=True)
    bundle = simulate_paths(grid, spec, market, 128, 3, agents=6)
    g = terminal_g(LiabilitySpec.from_eqg(spec, eps=0.1), bundle, cloud.gammas)
    mf = solve_mean_field(bundle, market, RegressionBasis(degree=2), g, cloud.gammas,
                          max_iters=3, strata=np.bincount(cloud.atom_ids, minlength=3))
    pool = build_population(10, 7, GAMMA_DIST, balanced=False)
    pool_strategies(mf, pool, fresh_idio_levels(3, bundle.n_paths, pool.size, grid))

    one = simulate_paths(grid, spec, market, 256, 4)
    theta = np.tile(np.array([0.3, -0.1]), (grid.steps, 1))
    g1 = 0.4 * np.tanh(one.x[:, -1])
    sol = solve_agent_bsde(one, market, RegressionBasis(degree=2), theta, g1)
    optimal_strategy(sol, theta, 1.5, market)
    verify_condition_r(sol, one, market, theta, 1.5, g1)
    eq = equilibrium_path(riccati_closed_form(spec, grid), one, market)
    validate_market(market, grid)
    assert gram_factorisations == []

    rep = random_replacement(5, grid.steps, market.n, cond_cap=50.0, block=0)
    replacement_invariance(market, eq.mu, one, np.ones((256, grid.steps, 2)), rep)
    assert gram_factorisations == [(grid.steps, 2, 2)]


# ------------------------------------------------------------- full study

def test_run_clearing_study_smoke(monkeypatch):
    pools = []
    real = mfequil.clearing.build_population

    def spy(*args, **kwargs):
        pools.append(real(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(mfequil.clearing, "build_population", spy)
    sc = build_scenario(config_from_dict({
        "seed": 5,
        "grid": {"horizon": 0.5, "steps": 10},
        "market": {"sigma": [[1.0, 0.2]]},
        "eqg": {"alpha": -0.5, "beta": 0.1, "delta": [0.4, 0.1], "x0": 0.3,
                "a": -0.2, "b": 0.5, "kappa": 0.0},
        "population": {"gamma_values": list(GAMMA_DIST.values),
                       "gamma_probs": list(GAMMA_DIST.probs)},
        "bsde": {"degree": 2, "include_idio": False},
        "mf": {"iters": 6},
        "clearing": {"n_common": 32, "n_equilibrium": 30, "Ns": [4, 8, 16], "n_batches": 4},
    }))
    report, mf = run_clearing_study(sc)
    # the balanced cloud, then the fresh pool of max(Ns) agents
    assert [p.size for p in pools] == [30, 16]
    assert len(report.eps) == 3
    assert all(e >= 0 for e in report.eps)
    assert all(s >= 0 for s in report.stderr)
    # only 3 sizes over 0.6 decades: the rate fit must not have been attached
    assert np.isnan(report.slope)
    assert report.bound_ok == []
    assert mf.z_bmo > 0


def test_cloud_solve_is_blas_thread_invariant(cloud_solve_runs):
    """A cloud solve large enough for OpenBLAS to thread its products gives
    the same y0, θ and sweep count at one and at two BLAS threads."""
    one, two = cloud_solve_runs["1"], cloud_solve_runs["2"]
    assert (one["y0"], one["theta"], one["sweeps"]) == (two["y0"], two["theta"], two["sweeps"])


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_cloud_solve_keeps_one_core_busy(cloud_solve_runs):
    """At two BLAS threads the solve uses at most 1.25 CPU seconds per wall
    second: no product over a whole stratum wakes OpenBLAS's pool, whose idle
    worker would spin through the numpy work that follows it."""
    run = cloud_solve_runs["2"]
    assert run["cpu_s"] <= 1.25 * run["wall_s"], run
