"""Finite-population clearing: populations, residual estimator, rate fit,
and security replacement."""

import os
import tracemalloc

import numpy as np
import pytest

import mfequil.clearing
import mfequil.market
from mfequil import (
    DimensionMismatch,
    DiscreteDist,
    EqgSpec,
    IllConditionedQ,
    LiabilitySpec,
    MarketSpec,
    Perturbation,
    Population,
    RegressionBasis,
    ReplacementSpec,
    TimeGrid,
    build_population,
    build_scenario,
    clearing_residual,
    config_from_dict,
    equilibrium_path,
    gamma_hat,
    optimal_strategy,
    per_capita_positions,
    random_replacement,
    rate_fit,
    replacement_invariance,
    riccati_closed_form,
    run_clearing_study,
    simulate_paths,
    solve_agent_bsde,
    solve_mean_field,
    terminal_g,
    verify_condition_r,
)
from mfequil.paths import KIND_AUX, normal_block_array, normal_chunks

from conftest import make_market, pool_strategies
from oracles import agent_strategies, pool_levels, project, risk_premium_from_mu

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


@pytest.mark.parametrize("probs", [None, (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), (0.0, 0.7, 0.3),
                                   (0.34, 0.33, 0.33)])
def test_balanced_ids_are_grouped_by_atom(probs):
    """The clearing cloud's solve holds its gamma law's atoms in order, each
    with its probability: one terminal slice per atom, the one terminal_g
    gives for that atom's gamma, the solution's probs the law's, and stats
    the law's gamma_hat with the range of its atoms of positive probability
    (an atom of probability 0 is held but leaves gamma_lo).  The name is the
    one the particle cloud's atom split (balanced_ids) was tested under; this
    checks the atoms that replace that split."""
    dist = DiscreteDist(values=(1.0, 2.0, 4.0), probs=probs)
    population = {"gamma_values": list(dist.values)}
    if probs is not None:
        population["gamma_probs"] = list(probs)
    sc = build_scenario(config_from_dict({
        "seed": 3,
        "grid": {"horizon": 0.5, "steps": 4},
        "market": {"sigma": [[1.0, 0.2]]},
        "eqg": {"alpha": -0.5, "beta": 0.1, "delta": [0.4, 0.1], "x0": 0.3,
                "a": -0.2, "b": 0.5, "kappa": 0.2},
        "population": population,
        "mf": {"iters": 2},
    }))
    mf = mfequil.clearing.solve_equilibrium_cloud(sc, 64)
    sol = mf.solution
    assert np.array_equal(sol.probs, dist.p)
    bundle = simulate_paths(sc.grid, sc.eqg, sc.market, 64, sc.cfg.seed)
    for s, gamma in enumerate(dist.values):
        want = terminal_g(sc.liability, bundle, np.array([gamma]))[:, 0]
        assert np.array_equal(sol.g[:, s], want), s
    assert mf.stats == gamma_hat(np.array(dist.values), dist.p)
    assert mf.stats.gamma_lo == (2.0 if probs == (0.0, 0.7, 0.3) else 1.0)


def test_balanced_population_matches_harmonic_mean():
    """The law's atoms give gamma_hat = 1 / E[1/gamma] with no sampling
    noise: 1 / 0.7 for GAMMA_DIST, the harmonic mean of the population of 10
    agents at its exact atom counts 5 / 3 / 2."""
    stats = gamma_hat(np.array(GAMMA_DIST.values), GAMMA_DIST.p)
    assert stats.gamma_hat == pytest.approx(1.0 / 0.7, abs=1e-14)
    counts = np.repeat(GAMMA_DIST.values, [5, 3, 2])
    assert stats.gamma_hat * np.mean(1.0 / counts) == pytest.approx(1.0, abs=1e-15)
    assert (stats.gamma_lo, stats.gamma_hi) == (1.0, 4.0)


def test_population_draws_are_seeded():
    a = build_population(500, 11, GAMMA_DIST)
    b = build_population(500, 11, GAMMA_DIST)
    c = build_population(500, 12, GAMMA_DIST)
    assert np.array_equal(a.gammas, b.gammas)
    assert not np.array_equal(a.gammas, c.gammas)
    freq = np.bincount(a.atom_ids, minlength=3) / 500
    assert np.max(np.abs(freq - GAMMA_DIST.p)) < 0.08
    with pytest.raises(ValueError):
        build_population(0, 11, GAMMA_DIST)


# ---------------------------------------------------------- residual estimator

def test_clearing_residual_constant_positions():
    # per-capita position is c in every slot -> eps_N = c^2 * n * T exactly
    M0, steps, n = 6, 10, 2
    dt = 0.05
    c = 0.3
    per_capita = np.full((2, M0, steps, n), c)
    eps, ses = clearing_residual(per_capita, dt, n_batches=3)
    expected = c * c * n * steps * dt
    assert eps == pytest.approx([expected, expected], rel=1e-12)
    assert ses == pytest.approx([0.0, 0.0], abs=1e-15)


def increments(seed, M0, pool, grid, chunk=16):
    """The pool's increments as run_clearing_study streams them."""
    return normal_chunks(seed, KIND_AUX, (M0, pool, grid.steps), chunk, np.sqrt(grid.dt))


def cross_term_mf(market, M0=128, steps=6):
    """A mean-field solve with both terminal legs in w (kappa and the cross
    term eps), three risk-aversion atoms and w in the basis."""
    grid = TimeGrid(0.5, steps)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.3)
    gammas = np.asarray(GAMMA_DIST.values)
    bundle = simulate_paths(grid, spec, market, M0, 3)
    g = terminal_g(LiabilitySpec.from_eqg(spec, eps=0.1), bundle, gammas)
    mf = solve_mean_field(bundle, market, RegressionBasis(degree=2), g, gammas,
                          probs=GAMMA_DIST.p, max_iters=4)
    return grid, mf


MARKET_1 = MarketSpec(n=1, d0=2, sigma=[[1.0, 0.2]], lambda_lo=1.0, lambda_hi=1.1)


def test_clearing_residual_is_permutation_invariant():
    """Relabelling the pool (gammas, atoms and draws together) gives the
    whole pool's eps bit for bit: each slot's levels are summed in sorted
    order.  A prefix of the relabelled pool has other members, so its eps
    changes."""
    grid, mf = cross_term_mf(MARKET_1)
    pool = build_population(9, 4, GAMMA_DIST)
    perm = np.random.default_rng(4).permutation(9)
    shuffled = Population(pool.gammas[perm], pool.atom_ids[perm])
    eps, _ = clearing_residual(
        per_capita_positions(mf, pool, increments(3, 128, 9, grid), [4, 9]), grid.dt, n_batches=20)
    moved = ((a, b, dw[:, perm]) for a, b, dw in increments(3, 128, 9, grid))
    eps_p, _ = clearing_residual(
        per_capita_positions(mf, shuffled, moved, [4, 9]), grid.dt, n_batches=20)
    # the N=9 sum runs over the whole pool in canonical order: bit identical
    assert eps[1] == eps_p[1]
    # the N=4 prefix genuinely changes membership
    assert eps[0] != eps_p[0]


def sorted_sums(pi, Ns):
    """Reference: the per-capita positions (len(Ns), M0, steps, n) of the
    oracle's per-agent positions pi (M0, pool, steps, n), each slot's first
    N agents sorted and summed."""
    return np.stack([np.sort(pi[:, :N], axis=1).sum(axis=1) / N for N in Ns])


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


POOL_NS = [3, 17, 100, 300]


@pytest.fixture(scope="module")
def cross_term_pool(request):
    """A cross-term solve over n = 1 or 2 securities, a pool of 300 agents of
    3 atoms, the streamed per-capita positions and the oracle's per-agent
    positions on the same draws."""
    grid, mf = cross_term_mf(MARKET_1 if request.param == 1 else make_market())
    pool = build_population(300, 11, GAMMA_DIST)
    got = per_capita_positions(mf, pool, increments(11, 128, 300, grid), POOL_NS)
    _, pi = pool_strategies(mf, pool, pool_levels(11, 128, 300, grid))
    return grid, mf, pool, got, pi


@pytest.mark.parametrize("cross_term_pool", [1, 2], indirect=True)
def test_per_capita_positions_are_the_agents_sorted_sums(cross_term_pool):
    """The per-capita positions from power sums are the oracle's per-agent
    positions summed over the first N agents in sorted order, for every N,
    path, step and security, within 1e-12 of the summed terms' size: the
    per-capita mean of |pi|.  An entry that cancels to 1e-5 of its terms
    (there are such) has no 12 digits relative to itself."""
    _, _, _, got, pi = cross_term_pool
    want = sorted_sums(pi, POOL_NS)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * sorted_sums(np.abs(pi), POOL_NS))


@pytest.mark.parametrize("cross_term_pool", [1, 2], indirect=True)
def test_clearing_residual_matches_whole_pool_reference(cross_term_pool):
    """The estimates from the streamed positions are the whole-pool ones,
    from the oracle's per-agent positions, to rtol 1e-12: the power sums add
    the agents in another order than the positions' sorted sums."""
    grid, _, _, got, pi = cross_term_pool
    eps, ses = clearing_residual(got, grid.dt, n_batches=7)
    want_eps, want_ses = whole_pool_residual(pi, POOL_NS, grid.dt, n_batches=7)
    np.testing.assert_allclose(eps, want_eps, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ses, want_ses, rtol=1e-12, atol=0)


@pytest.mark.parametrize("chunk", [1, 7, 128])
def test_per_capita_positions_do_not_depend_on_the_chunk(chunk):
    """Streamed 1, 7 or all 128 common paths at a time, the per-capita
    positions are the same bits: every sum runs within one path's slot."""
    grid, mf = cross_term_mf(MARKET_1)
    pool = build_population(40, 7, GAMMA_DIST)
    want = per_capita_positions(mf, pool, increments(3, 128, 40, grid), [5, 40])
    got = per_capita_positions(mf, pool, increments(3, 128, 40, grid, chunk), [5, 40])
    assert np.array_equal(got, want)


def test_pool_draws_are_the_keyed_normals_for_any_chunk():
    """The streamed increments are normal_block_array's numbers times
    sqrt(dt), for chunks of 1, 7 and a whole block of common paths, across a
    block boundary, and each chunk stays within one block."""
    grid = TimeGrid(0.5, 4)
    M0, pool = 1030, 3
    want = normal_block_array(31, KIND_AUX, (M0, pool, grid.steps)) * np.sqrt(grid.dt)
    for chunk in (1, 7, 1024):
        parts = list(increments(31, M0, pool, grid, chunk))
        assert all(a // 1024 == (b - 1) // 1024 for a, b, _ in parts)
        assert [a for a, _, _ in parts] == sorted(a for a, _, _ in parts)
        assert np.array_equal(np.concatenate([dw for _, _, dw in parts]), want), chunk


def memory_scenario(Ns):
    return build_scenario(config_from_dict({
        "seed": 9,
        "grid": {"horizon": 0.5, "steps": 20},
        "market": {"sigma": [[1.0, 0.2], [0.3, 0.9]]},
        "eqg": {"alpha": -0.5, "beta": 0.1, "delta": [0.4, 0.1], "x0": 0.3,
                "a": -0.2, "b": 0.5, "kappa": 0.3, "cross_eps": 0.1},
        "population": {"gamma_values": list(GAMMA_DIST.values),
                       "gamma_probs": list(GAMMA_DIST.probs)},
        "mf": {"iters": 3},
        "clearing": {"n_common": 64, "Ns": Ns, "n_batches": 4},
    }))


def test_pool_phase_holds_one_chunk(monkeypatch):
    """run_clearing_study's pool phase holds one chunk of the pool's draws,
    so its traced peak grows with the pool by at most one chunk's working
    set.  The cloud solve is made once, before tracing, and handed back.
    At 16 common paths a chunk, 20 steps and 1,000 agents that working set
    is the chunk's increments, 16 x 1,000 x 20 doubles, its running level,
    16 x 1,000 doubles, and one step's sorted levels and powers of the
    largest atom (half the pool here), 2 x 16 x 500 doubles:
    (20 + 1 + 1) x 16,000 x 8 B = 2.82 MB.  From max(Ns) = 100 to 1,000 the
    peak grew by 2.56 MB.  A pass that kept the pool's increments grows by
    64 x 900 x 20 x 8 B = 9.2 MB, and one that drew a chunk before letting
    the last go by about 4.6 MB: both fail."""
    chunk = mfequil.clearing._POOL_CHUNK
    mf = mfequil.clearing.solve_equilibrium_cloud(memory_scenario([10, 100]), 64)
    monkeypatch.setattr(mfequil.clearing, "solve_equilibrium_cloud", lambda sc, n: mf)
    peaks = {}
    for top in (100, 1000):
        sc = memory_scenario([10, top])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_clearing_study(sc)
            peaks[top] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    working_set = chunk * 1000 * (20 + 2) * 8
    assert peaks[1000] - peaks[100] < working_set, (peaks, working_set)


def test_clearing_residual_input_checks():
    """A prefix larger than the pool, fewer than 2 batches and fewer than 2
    common paths raise ValueError, as do increments that miss paths."""
    grid, _, _, _, _, mf = _small_mf()
    pool = build_population(4, 7, GAMMA_DIST)
    with pytest.raises(ValueError, match="exceeds agent pool"):
        per_capita_positions(mf, pool, increments(3, 128, 4, grid), [6])
    with pytest.raises(ValueError):
        clearing_residual(np.zeros((1, 4, 5, 1)), 0.1, n_batches=1)
    with pytest.raises(ValueError):
        clearing_residual(np.zeros((1, 1, 5, 1)), 0.1, n_batches=20)
    grid, mf = cross_term_mf(MARKET_1)
    with pytest.raises(ValueError, match="cover 100 of 128"):
        per_capita_positions(mf, pool, increments(3, 100, 4, grid), [4])


# ----------------------------------------------------------------- rate fit

# the bound constant 4 (1 + gamma_hat^2 / gamma_lo^2) * BMO proxy at
# gamma_hat = 1.5, gamma_lo = 1 and a proxy of 0.02
BOUND_CONST = 4.0 * (1.0 + 1.5**2) * 0.02


def test_rate_fit_recovers_exact_power_law():
    Ns = [10, 30, 100, 300, 1000]
    C = 0.7
    slope, intercept, bound_const, bound_ok = rate_fit(
        Ns, [C / n for n in Ns], BOUND_CONST, 0.25)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(C), abs=1e-12)
    assert bound_const == BOUND_CONST
    # N * eps_N = 0.7 > bound_const * 1.25 = 0.325: every flag trips
    assert bound_ok == [False] * 5
    assert rate_fit(Ns, [1e-3 / n for n in Ns], BOUND_CONST, 0.25)[3] == [True] * 5


def test_rate_fit_span_preconditions():
    """Fewer than 4 sizes, or under 1.5 decades, give no rate: NaNs and no
    bound flags.  A zero eps on a span that suffices raises ValueError."""
    for Ns, eps in [([10, 30, 100], [0.1, 0.03, 0.01]),
                    ([10, 15, 20, 25], [0.1, 0.07, 0.05, 0.04])]:
        *rate, bound_ok = rate_fit(Ns, eps, BOUND_CONST, 0.25)
        assert np.all(np.isnan(rate)) and bound_ok == []
    with pytest.raises(ValueError):
        rate_fit([10, 30, 100, 1000], [0.1, 0.01, 0.0, 0.001], BOUND_CONST, 0.25)


# ------------------------------------------------------------ strategy maps

def _small_mf():
    grid = TimeGrid(0.5, 10)
    market = MarketSpec(n=1, d0=2, sigma=[[1.0, 0.2]],
                        lambda_lo=1.0, lambda_hi=1.1)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.0)
    gammas = np.asarray(GAMMA_DIST.values)
    bundle = simulate_paths(grid, spec, market, 128, 3)
    basis = RegressionBasis(degree=2, include_idio=False)
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    mf = solve_mean_field(bundle, market, basis, g, gammas, probs=GAMMA_DIST.p, max_iters=6)
    return grid, market, spec, bundle, basis, mf


def test_agent_strategies_geometry():
    """The per-agent reference builds p in range(sigma^T) and pi from it."""
    grid, market, _, bundle, basis, mf = _small_mf()
    N = 5
    fresh = build_population(N, 7, GAMMA_DIST)
    w = pool_levels(3, bundle.n_paths, N, grid)
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
    """The per-agent reference evaluates each fresh agent with its own atom's
    z polynomial: each atom's per-path coefficients are evaluated at the
    agent's level by hand, and the two atoms' maps differ."""
    grid = TimeGrid(0.5, 10)
    market = MarketSpec(n=1, d0=2, sigma=[[1.0, 0.2]],
                        lambda_lo=1.0, lambda_hi=1.1)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.0)
    dist = DiscreteDist(values=(1.0, 2.0))
    gammas = np.asarray(dist.values)
    bundle = simulate_paths(grid, spec, market, 128, 3)
    basis = RegressionBasis(degree=2, include_idio=False)
    # normalized G = gamma x_T: the atoms' z maps differ by their gamma
    g = (bundle.x[:, -1] * gammas[:, None])[None]
    mf = solve_mean_field(bundle, market, basis, g, gammas, probs=dist.p, max_iters=6)
    pool = build_population(8, 7, dist)
    assert set(pool.atom_ids.tolist()) == {0, 1}
    w = pool_levels(3, bundle.n_paths, pool.size, grid)
    p, _ = pool_strategies(mf, pool, w)
    proj, _ = market.geometry(grid.steps)
    for k in (0, 4, 9):
        z = mf.solution.z_coefs(k)

        def by_hand(s, levels):
            return sum(z[j, s, :2].T * levels[:, None] ** j for j in range(z.shape[0]))

        for i, s in enumerate(pool.atom_ids):
            z_hat = by_hand(s, w[:, :, k][:, i])
            other = by_hand(1 - s, w[:, :, k][:, i])
            assert np.max(np.abs(z_hat - other)) > 1e-2
            want = (z_hat @ proj[k] + mf.theta[:, k]) / pool.gammas[i]
            np.testing.assert_allclose(p[:, i, k], want, rtol=1e-12, atol=1e-12)


def test_agent_strategies_commute_with_a_permuted_pool():
    """The pool may come in any order: permuting its agents (gammas, atoms
    and draws together) permutes the reference's p and pi bit for bit, and
    gives the streamed whole pool's per-capita positions bit for bit, while
    a prefix's change."""
    grid, mf = cross_term_mf(MARKET_1)
    pool = build_population(40, 7, GAMMA_DIST)
    assert set(pool.atom_ids.tolist()) == {0, 1, 2} and np.any(np.diff(pool.atom_ids) < 0)
    w = pool_levels(3, 128, pool.size, grid)
    p, pi = pool_strategies(mf, pool, w)
    perm = np.random.default_rng(5).permutation(pool.size)
    shuffled = Population(pool.gammas[perm], pool.atom_ids[perm])
    p_perm, pi_perm = pool_strategies(mf, shuffled, w[:, perm])
    assert np.array_equal(p_perm, p[:, perm])
    assert np.array_equal(pi_perm, pi[:, perm])
    sums = per_capita_positions(mf, pool, increments(3, 128, 40, grid), [10, 40])
    moved = ((a, b, dw[:, perm]) for a, b, dw in increments(3, 128, 40, grid))
    sums_perm = per_capita_positions(mf, shuffled, moved, [10, 40])
    assert np.array_equal(sums_perm[1], sums[1])
    assert not np.array_equal(sums_perm[0], sums[0])


def test_pool_agent_of_an_atom_without_cloud_particles_raises():
    """A solve over 2 atoms holds no map for atom 2.  A pool agent of atom 2
    then raises a ValueError that names the atom, in the streamed pass and
    at every step of the reference, instead of being given positions; a
    pool of the other atoms is read as usual."""
    grid = TimeGrid(0.5, 4)
    market = MarketSpec(n=1, d0=2, sigma=[[1.0, 0.2]],
                        lambda_lo=1.0, lambda_hi=1.1)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.3)
    gammas = np.array([1.0, 2.0])
    bundle = simulate_paths(grid, spec, market, 128, 3)
    g = terminal_g(LiabilitySpec.from_eqg(spec, eps=0.1), bundle, gammas)
    mf = solve_mean_field(bundle, market, RegressionBasis(degree=2), g, gammas,
                          probs=np.full(2, 0.5), max_iters=3)
    w = pool_levels(3, bundle.n_paths, 3, grid)
    pool = Population(gammas=np.array([1.0, 4.0, 2.0]), atom_ids=np.array([0, 2, 1]))
    message = "atom 2 has 1 pool agents but the solve has 2"
    with pytest.raises(ValueError, match=message):
        per_capita_positions(mf, pool, increments(3, 128, 3, grid), [3])
    for k in range(grid.steps):
        with pytest.raises(ValueError, match=message):
            agent_strategies(mf, pool, w, k)
    kept = Population(pool.gammas[[0, 2]], pool.atom_ids[[0, 2]])
    p, pi = pool_strategies(mf, kept, w[:, [0, 2]])
    assert np.all(np.isfinite(p)) and np.all(np.isfinite(pi))
    assert np.all(np.isfinite(per_capita_positions(mf, kept, increments(3, 128, 2, grid), [2])))


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
                        lambda_lo=0.48, lambda_hi=1.5)
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
                        lambda_lo=0.48, lambda_hi=1.5)
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
    gammas = np.asarray(GAMMA_DIST.values)
    bundle = simulate_paths(grid, spec, market, 128, 3)
    g = terminal_g(LiabilitySpec.from_eqg(spec, eps=0.1), bundle, gammas)
    mf = solve_mean_field(bundle, market, RegressionBasis(degree=2), g, gammas,
                          probs=GAMMA_DIST.p, max_iters=3)
    pool = build_population(10, 7, GAMMA_DIST)
    per_capita_positions(mf, pool, increments(3, bundle.n_paths, pool.size, grid), [10])

    one = simulate_paths(grid, spec, market, 256, 4)
    theta = np.tile(np.array([0.3, -0.1]), (grid.steps, 1))
    g1 = 0.4 * np.tanh(one.x[:, -1])[None, None]
    sol = solve_agent_bsde(one, market, RegressionBasis(degree=2), theta, g1)
    optimal_strategy(sol, theta, 1.5, market, one.wi)
    verify_condition_r(sol, one, market, theta, 1.5, g1, [
        Perturbation("offset+0.5e1", 1.0, (0.5, 0.0)), Perturbation("scale x2", 2.0, None)])
    eq = equilibrium_path(riccati_closed_form(spec, grid), one, market)
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
        "clearing": {"n_common": 40, "Ns": [4, 8, 16], "n_batches": 4},
    }))
    report, mf = run_clearing_study(sc)
    # the fresh pool of max(Ns) agents, the only population drawn
    assert [p.size for p in pools] == [16]
    assert len(report.eps) == 3
    assert all(e >= 0 for e in report.eps)
    assert all(s >= 0 for s in report.stderr)
    # only 3 sizes over 0.6 decades: the rate fit must not have been attached
    assert np.isnan(report.slope)
    assert report.bound_ok == []
    assert mf.z_bmo > 0


def test_cloud_solve_is_blas_thread_invariant(cloud_solve_runs):
    """A mean-field solve large enough for OpenBLAS to thread its products gives
    the same y0, θ and sweep count at one and at two BLAS threads."""
    one, two = cloud_solve_runs["1"], cloud_solve_runs["2"]
    assert (one["y0"], one["theta"], one["sweeps"]) == (two["y0"], two["theta"], two["sweeps"])


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_cloud_solve_keeps_one_core_busy(cloud_solve_runs):
    """At two BLAS threads the solve uses at most 1.25 CPU seconds per wall
    second: no product over the paths wakes OpenBLAS's pool, whose idle
    worker would spin through the numpy work that follows it."""
    run = cloud_solve_runs["2"]
    assert run["cpu_s"] <= 1.25 * run["wall_s"], run
