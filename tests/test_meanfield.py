from dataclasses import replace

import numpy as np
import pytest

from mfequil import (
    BasisEngine, DiscreteDist, EqgSpec, LiabilitySpec, MarketSpec,
    PathBundle, RegressionBasis, TimeGrid, build_population, fresh_idio_levels,
    gamma_hat, simulate_paths, smallness_from_liability, smallness_report,
    solve_agent_bsde, solve_mean_field, terminal_g,
)
from mfequil.errors import RegressionRankDeficient

from conftest import make_market, materialise, pool_strategies
from oracles import TreeEngine


# ---------------------------------------------------------------------------
# exhaustive binomial-tree scenario: every conditional expectation is an
# exact within-node average, so the solver must agree with an independent
# brute-force recursion to floating-point accuracy
# ---------------------------------------------------------------------------

STEPS = 3
K_TREE = 2
D0 = 2
SIGMA_ROW = np.array([[1.0, 0.5]])   # one asset, two common factors


def tree_increments(dt):
    """All joint sign patterns: 2 common bits + K idio bits per step."""
    bits = D0 + K_TREE
    nb = 2**bits
    M0 = nb**STEPS
    sq = np.sqrt(dt)
    codes = np.arange(M0)
    dW0 = np.empty((M0, STEPS, D0))
    dWi = np.empty((M0, K_TREE, STEPS))
    for k in range(STEPS):
        digit = (codes // nb ** (STEPS - 1 - k)) % nb
        for j in range(D0):
            dW0[:, k, j] = sq * (2.0 * ((digit >> j) & 1) - 1.0)
        for i in range(K_TREE):
            dWi[:, i, k] = sq * (2.0 * ((digit >> (D0 + i)) & 1) - 1.0)
    return dW0, dWi, codes, nb


def tree_bundle(spec, grid):
    dW0, dWi, codes, nb = tree_increments(grid.dt)
    M0 = dW0.shape[0]
    x = np.empty((M0, STEPS + 1))
    I = np.empty((M0, STEPS + 1))
    x[:, 0] = spec.x0
    I[:, 0] = 0.0
    for k in range(STEPS):
        xk = x[:, k]
        I[:, k + 1] = I[:, k] + (spec.a * xk**2 + spec.b * xk) * grid.dt
        x[:, k + 1] = xk + (spec.alpha * xk + spec.beta) * grid.dt \
            + dW0[:, k] @ spec.delta_vec
    bundle = PathBundle(grid=grid, dW0=dW0, dWi=dWi, x=x, I=I)
    keys = []
    for k in range(STEPS):
        prefix = codes // nb ** (STEPS - k)
        keys.append((np.repeat(prefix, K_TREE) * K_TREE
                     + np.tile(np.arange(K_TREE), M0)))
    return bundle, TreeEngine(keys), keys


def node_mean(values, keys):
    """Exact conditional expectation as a mean over contiguous path blocks.

    Tree keys are prefix * K_TREE + i over the flattened (path, agent) order,
    and the paths sharing a prefix are consecutive codes, so every node is a
    run of equal length of consecutive paths at fixed agent i.  The layout is
    asserted rather than assumed.
    """
    per_path = keys.reshape(-1, K_TREE)
    run = int(np.count_nonzero(per_path[:, 0] == per_path[0, 0]))
    blocks = per_path.reshape(-1, run, K_TREE)
    assert np.all(blocks == blocks[:, :1, :])
    means = values.reshape(blocks.shape).mean(axis=1, keepdims=True)
    return np.broadcast_to(means, blocks.shape).reshape(-1)


def reference_fixed_point(g, dW0, dWi, keys, gammas, ghat, dt, sweeps=25):
    """Independent brute-force mean-field recursion on the tree."""
    M0, K = g.shape
    srow = SIGMA_ROW[0]
    ss = srow @ srow
    z0 = np.zeros((M0, K, STEPS, D0))
    z1 = np.zeros((M0, K, STEPS, 1))
    inv_gamma = 1.0 / gammas
    y = None
    for _ in range(sweeps):
        y = np.empty((M0, K, STEPS + 1))
        y[:, :, STEPS] = g
        z0_new = np.zeros_like(z0)
        z1_new = np.zeros_like(z1)
        for k in range(STEPS - 1, -1, -1):
            coef = (z0[:, :, k, :] @ srow) / ss          # (M0, K)
            z_par = coef[:, :, None] * srow[None, None, :]
            z_perp = z0[:, :, k, :] - z_par
            ebar = np.mean(inv_gamma[None, :, None] * z_par, axis=1)
            f = (ghat * np.einsum("mkj,mj->mk", z_par, ebar)
                 - 0.5 * ghat**2 * np.sum(ebar**2, axis=1)[:, None]
                 + 0.5 * (np.sum(z_perp**2, axis=2)
                          + np.sum(z1[:, :, k, :] ** 2, axis=2)))
            flat_keys = keys[k]
            y_next = y[:, :, k + 1].reshape(-1)
            y_hat = node_mean(y_next, flat_keys)
            f_hat = node_mean(f.reshape(-1), flat_keys)
            y[:, :, k] = (y_hat + dt * f_hat).reshape(M0, K)
            resid = y_next - y_hat
            for j in range(D0):
                dw = np.repeat(dW0[:, k, j], K)
                z0_new[:, :, k, j] = node_mean(resid * dw / dt,
                                               flat_keys).reshape(M0, K)
            dwi = dWi[:, :, k].reshape(-1)
            z1_new[:, :, k, 0] = node_mean(resid * dwi / dt,
                                           flat_keys).reshape(M0, K)
        z0, z1 = z0_new, z1_new
    return y, z0, z1


def test_tree_solver_matches_brute_force():
    grid = TimeGrid(0.3, STEPS)
    spec = EqgSpec(alpha=-0.4, beta=0.2, delta=(0.5, 0.3), x0=0.6,
                   a=-0.3, b=0.7, kappa=0.25)
    market = MarketSpec(n=1, d0=2, sigma=SIGMA_ROW,
                        lambda_lo=1.2, lambda_hi=1.3)
    bundle, engine, keys = tree_bundle(spec, grid)
    gammas = np.array([1.0, 2.0])
    stats = gamma_hat(gammas)
    liability = LiabilitySpec(spec.a, spec.b, 0.25, 0.1)
    g = terminal_g(liability, bundle, gammas)

    mf = solve_mean_field(
        bundle, market, RegressionBasis(), g, gammas, stats.gamma_hat,
        engine=engine, max_iters=40, tol=1e-13,
    )
    y_ref, z0_ref, z1_ref = reference_fixed_point(
        g.reshape(bundle.n_paths, K_TREE), bundle.dW0, bundle.dWi, keys,
        gammas, stats.gamma_hat, grid.dt)

    assert mf.diagnostics.converged
    y, z0, z1 = materialise(mf.solution)
    assert np.max(np.abs(y - y_ref)) < 1e-9
    assert np.max(np.abs(z0 - z0_ref)) < 1e-9
    assert np.max(np.abs(z1 - z1_ref)) < 1e-9

    # theta is minus gamma_hat times the cloud mean of the projected hedge
    srow = SIGMA_ROW[0]
    coef = (z0_ref[:, :, :, :] @ srow) / (srow @ srow)
    z_par = coef[..., None] * srow[None, None, None, :]
    ebar = np.mean(z_par / gammas[None, :, None, None], axis=1)
    theta_ref = -stats.gamma_hat * ebar
    assert np.max(np.abs(mf.theta - theta_ref)) < 1e-9


# ---------------------------------------------------------------------------
# fixed point consistency against the single-agent solver
# ---------------------------------------------------------------------------

def test_fixed_point_solves_single_agent_problem(market2):
    """At the fixed point, re-solving one agent's BSDE under theta_mfg must
    reproduce the mean-field value function."""
    grid = TimeGrid(0.5, 10)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.0)
    K = 4
    bundle = simulate_paths(grid, spec, market2, 512, 77, agents=K)
    gammas = np.array([1.0, 1.0, 2.0, 2.0])
    stats = gamma_hat(gammas)
    basis = RegressionBasis(degree=2, include_idio=False)
    liability = LiabilitySpec.from_eqg(spec)
    g = terminal_g(liability, bundle, gammas)
    mf = solve_mean_field(bundle, market2, basis, g, gammas, stats.gamma_hat,
                          max_iters=15, tol=1e-10)
    assert mf.diagnostics.converged

    # Same bundle, same regressions: the cloud solution must be the literal
    # single-agent solution under the reported risk premium, not just close.
    sol = solve_agent_bsde(bundle, market2, basis, mf.theta, g,
                           picard_max=25, picard_tol=1e-10)
    y_mf, z0_mf, _ = materialise(mf.solution)
    assert np.max(np.abs(sol.y_at(0) - y_mf[:, :, 0])) < 1e-12
    assert np.max(np.abs(materialise(sol)[1] - z0_mf)) < 1e-12

    # A fresh one-agent bundle shares the common factor but redraws the
    # idiosyncratic stream, so the fitted z1 noise (entering the driver
    # through |z1|^2) separates the answers at the noise-squared level.
    one = simulate_paths(grid, spec, market2, 512, 77, agents=1)
    assert np.array_equal(one.x, bundle.x)
    sol1 = solve_agent_bsde(one, market2, basis, mf.theta, g.reshape(512, K)[:, 0],
                            picard_max=25, picard_tol=1e-10)
    assert np.max(np.abs(materialise(sol1)[0][:, 0] - y_mf[:, 0])) < 1e-4


def test_additive_normalized_solution_is_gamma_free(market2):
    """Additive data: gamma-normalised (y, z) coincide across particles on
    the same common path, hence per-capita positions cancel."""
    grid = TimeGrid(0.5, 8)
    spec = EqgSpec(alpha=-0.5, beta=0.0, delta=(0.4, 0.1), x0=0.5,
                   a=0.0, b=0.4, kappa=0.0)
    bundle = simulate_paths(grid, spec, market2, 256, 13, agents=6)
    gammas = np.array([0.5, 1.0, 1.0, 2.0, 4.0, 8.0])
    stats = gamma_hat(gammas)
    basis = RegressionBasis(degree=2, include_idio=False)
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    mf = solve_mean_field(bundle, market2, basis, g, gammas, stats.gamma_hat)
    z0 = materialise(mf.solution)[1]
    spread = np.max(np.abs(z0 - z0[:, :1]))
    assert spread < 1e-12


def test_smallness_report_formulas():
    stats = gamma_hat(np.array([1.0, 1.0]))
    diag = smallness_report(0.01, stats)
    assert diag.c_gamma_spread == 1.0
    assert diag.smallness_ok and diag.stability_ok
    assert diag.radius == pytest.approx(0.02)
    big = smallness_report(1.0, stats)
    assert not big.smallness_ok


def test_smallness_from_liability_orders_scenarios(grid20, market2):
    stats = gamma_hat(np.array([0.8, 1.0, 1.25]))
    small = EqgSpec(alpha=-0.5, beta=0.0, delta=(0.3, 0.1), x0=2.0,
                    a=0.0, b=0.02, kappa=0.0)
    large = EqgSpec(alpha=-0.5, beta=0.0, delta=(0.3, 0.1), x0=2.0,
                    a=0.0, b=2.0, kappa=0.0)
    grid = TimeGrid(0.25, 10)
    d_small = smallness_from_liability(LiabilitySpec.from_eqg(small), small,
                                       grid, stats)
    d_large = smallness_from_liability(LiabilitySpec.from_eqg(large), large,
                                       grid, stats)
    assert d_small.smallness_ok
    assert not d_large.smallness_ok
    assert d_large.f_inf == pytest.approx(100.0 * d_small.f_inf, rel=1e-9)


def test_non_contracting_run_flags_not_converged(market2):
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.0)
    bundle = simulate_paths(grid, spec, market2, 256, 3, agents=2)
    gammas = np.array([1.0, 2.0])
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    basis = RegressionBasis(degree=2, include_idio=False)
    mf = solve_mean_field(bundle, market2, basis, g, gammas, 1.5,
                          max_iters=1, tol=1e-15)
    assert not mf.diagnostics.converged


def test_reported_theta_is_minus_gamma_hat_cloud_mean(market2):
    """theta = -gamma_hat mean_i[(1/gamma_i) z0_par], with the row-space
    projector taken from the pseudo-inverse, not from the market geometry."""
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=0.0, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 256, 21, agents=3)
    gammas = np.array([1.0, 2.0, 4.0])
    stats = gamma_hat(gammas)
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    mf = solve_mean_field(bundle, market2, RegressionBasis(), g, gammas,
                          stats.gamma_hat)
    table = market2.sigma_table(grid.steps)
    want = np.empty_like(mf.theta)
    for k in range(grid.steps):
        z_par = mf.solution.z_at(k)[..., :2] @ (np.linalg.pinv(table[k]) @ table[k])
        want[:, k] = -stats.gamma_hat * np.mean(z_par / gammas[None, :, None], axis=1)
    assert np.max(np.abs(mf.theta - want)) <= 1e-12 * np.max(np.abs(want))


ONE_ASSET = [([[1.0]], (0.4,)), ([[1.0, 0.5]], (0.4, 0.1)), ([[1.0, 0.5, 0.2]], (0.4, 0.1, 0.2))]


# ids: sigma<d>-delta<d> at K = 5, with -K<K> appended at the larger clouds
@pytest.mark.parametrize("sigma, delta, K, M0", [
    pytest.param(*ONE_ASSET[d], K, M0, id=f"sigma{d}-delta{d}" + ("" if K == 5 else f"-K{K}"))
    for K, M0 in ((5, 200), (66, 200), (2501, 12)) for d in range(3)
])
def test_reported_theta_is_numpys_agent_mean_to_the_bit(sigma, delta, K, M0):
    """On a stratified cloud of K agents at d0 = 1, 2 and 3 the reported theta
    is -gamma_hat np.mean((1/gamma) z0_par, axis=1) recomputed from z_at(k)
    with the market's projector, bit for bit: the mean over agents is
    numpy's in-order sum (pairwise at d0 = 1), and a reordering of it fails
    here."""
    market = make_market(sigma)
    grid = TimeGrid(0.5, 5)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=delta, x0=0.3, a=0.0, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market, M0, 8, agents=K)
    sizes = (3 * K // 5, K - 3 * K // 5)
    gammas = np.repeat([1.0, 2.0], sizes)
    ghat = gamma_hat(gammas).gamma_hat
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    mf = solve_mean_field(bundle, market, RegressionBasis(), g, gammas, ghat,
                          max_iters=3, tol=0.0, strata=sizes)
    proj, _ = market.geometry(grid.steps)
    inv_gamma = (1.0 / gammas)[None, :, None]
    for k in range(grid.steps):
        z0 = mf.solution.z_at(k)[..., :market.d0]
        want = -ghat * np.mean(inv_gamma * (z0 @ proj[k]), axis=1)
        assert np.array_equal(mf.theta[:, k], want), k


def test_changes_keep_y0_and_z_apart(market2):
    """The solution carries the loop's dy0 and dz lists; the diagnostics'
    changes are their elementwise max, and the ratios follow from those."""
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 256, 5, agents=3)
    gammas = np.array([1.0, 2.0, 4.0])
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    mf = solve_mean_field(bundle, market2, RegressionBasis(), g, gammas,
                          gamma_hat(gammas).gamma_hat, max_iters=5, tol=1e-14)
    sol, diag = mf.solution, mf.diagnostics
    assert len(sol.y0_changes) == len(sol.z_changes) == diag.iterations - 1 == 4
    assert sol.y0_changes != sol.z_changes
    assert diag.changes == [max(a, b) for a, b in zip(sol.y0_changes, sol.z_changes)]
    assert diag.ratios == [b / a for a, b in zip(diag.changes, diag.changes[1:])]


# ---------------------------------------------------------------------------
# each step's regression is built once per solve
# ---------------------------------------------------------------------------

def test_mean_field_solve_builds_each_step_once(market2, conditioner_builds):
    """Every sweep and the BMO proxy regress on the same state, so a
    stratified solve with several sweeps builds one conditioner per atom
    and step."""
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 256, 5, agents=4)
    gammas = np.array([1.0, 1.0, 2.0, 2.0])
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    mf = solve_mean_field(bundle, market2, RegressionBasis(), g, gammas,
                          gamma_hat(gammas).gamma_hat, max_iters=5, tol=1e-14,
                          strata=(2, 2))
    assert mf.diagnostics.iterations >= 2 and np.isfinite(mf.diagnostics.z_bmo)
    assert len(conditioner_builds) == 2 * grid.steps


def test_fresh_agents_are_read_through_the_clouds_engine(market2, conditioner_builds):
    """Each atom's engine.on() over that atom's own particles gives its part
    of z_at bit for bit on a stratified solve, and reading the cloud's maps
    on other particles, as the clearing pool does, builds no conditioner."""
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 256, 5, agents=4)
    gammas = np.array([1.0, 1.0, 2.0, 2.0])
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    mf = solve_mean_field(bundle, market2, RegressionBasis(), g, gammas,
                          gamma_hat(gammas).gamma_hat, max_iters=3, tol=0.0,
                          strata=(2, 2))
    sol = mf.solution
    assert len(conditioner_builds) == 2 * grid.steps
    for k in (0, 2, 5):
        z_k = sol.z_at(k)
        for s, (sel, engine) in enumerate(sol.atoms):
            z = engine.on(k, bundle.wi[:, sel, k]).evaluate(sol.fits[k][s])
            assert np.array_equal(z.reshape(bundle.n_paths, 2, -1), z_k[:, sel]), (k, s)
    # some particles of one atom: its map on fewer rows per path
    sel, engine = sol.atoms[1]
    z = engine.on(4, bundle.wi[:, 3:4, 4]).evaluate(sol.fits[4][1])
    np.testing.assert_allclose(z.reshape(256, 1, -1), sol.z_at(4)[:, 3:4], rtol=1e-12, atol=0)
    pool = build_population(7, 3, DiscreteDist((1.0, 2.0)))
    p, _ = pool_strategies(mf, pool, fresh_idio_levels(3, bundle.n_paths, pool.size, grid))
    assert p.shape == (256, 7, grid.steps, 2) and np.all(np.isfinite(p))
    assert len(conditioner_builds) == 2 * grid.steps


def test_collinear_state_raises_in_first_sweep(market2, conditioner_builds):
    """A state whose idiosyncratic coordinate equals the factor gives two
    identical columns: the first build, in the first sweep, raises."""
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 256, 5, agents=1)
    bundle = replace(bundle, x=bundle.wi[:, 0, :].copy())
    g = bundle.x[:, -1]
    with pytest.raises(RegressionRankDeficient, match="collinear"):
        solve_mean_field(bundle, market2, RegressionBasis(degree=1), g, np.ones(1), 1.0)
    assert len(conditioner_builds) == 1


@pytest.mark.parametrize("sizes, engine, match", [
    pytest.param(sizes, False, "do not tile", id=f"sizes{i}")
    for i, sizes in enumerate([(3, 4), (2, -1, 2), (0, 0), (), ((1, 2),)])
] + [pytest.param((1, 2), True, "one atom", id="engine")])
def test_strata_reject_sizes_that_do_not_tile(market2, sizes, engine, match):
    """A negative size, a zero total, a total other than the particle count,
    or sizes that are not one list: one ValueError before any build.  An
    engine= solve has one atom, so strata of several atoms beside it raise
    too, where they were once dropped."""
    grid = TimeGrid(0.5, 3)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 100, 5, agents=3)
    gammas = np.array([1.0, 2.0, 2.0])
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    eng = BasisEngine(bundle.x, bundle.I, bundle.wi, RegressionBasis()) if engine else None
    with pytest.raises(ValueError, match=match):
        solve_mean_field(bundle, market2, RegressionBasis(), g, gammas,
                         gamma_hat(gammas).gamma_hat, engine=eng, strata=sizes)
