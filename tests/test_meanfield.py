from dataclasses import replace

import numpy as np
import pytest

from mfequil import (
    DiscreteDist, EqgSpec, LiabilitySpec, MarketSpec,
    PathBundle, RegressionBasis, TimeGrid, build_population, gamma_hat,
    per_capita_positions, simulate_paths, smallness_from_liability, smallness_report,
    solve_agent_bsde, solve_mean_field, terminal_g,
)
from mfequil.errors import NonpositiveGamma, RegressionRankDeficient
from mfequil.paths import KIND_AUX, normal_chunks
from mfequil.regression import BasisEngine, gauss_moments, poly_at

from conftest import make_market, materialise, pool_strategies
from oracles import TreeEngine, gauss_hermite, pool_levels


# ---------------------------------------------------------------------------
# exhaustive binomial tree in the common noise, the idiosyncratic law exact:
# every conditional expectation is a within-node average of an exact
# projection in w, so the solver must agree with an independent brute-force
# recursion that integrates w by Gauss-Hermite quadrature, to floating-point
# accuracy
# ---------------------------------------------------------------------------

STEPS = 3
D0 = 2
J_TREE = 3
SIGMA_ROW = np.array([[1.0, 0.5]])   # one asset, two common factors


def tree_bundle(spec, grid):
    """All 4^STEPS joint sign patterns of the 2 common bits per step, with
    the common-node keys of each step (the paths sharing a prefix) and a tree
    engine on them."""
    nb = 2**D0
    M0 = nb**STEPS
    sq = np.sqrt(grid.dt)
    codes = np.arange(M0)
    dW0 = np.empty((M0, STEPS, D0))
    for k in range(STEPS):
        digit = (codes // nb ** (STEPS - 1 - k)) % nb
        for j in range(D0):
            dW0[:, k, j] = sq * (2.0 * ((digit >> j) & 1) - 1.0)
    x = np.empty((M0, STEPS + 1))
    I = np.empty((M0, STEPS + 1))
    x[:, 0] = spec.x0
    I[:, 0] = 0.0
    for k in range(STEPS):
        xk = x[:, k]
        I[:, k + 1] = I[:, k] + (spec.a * xk**2 + spec.b * xk) * grid.dt
        x[:, k + 1] = xk + (spec.alpha * xk + spec.beta) * grid.dt \
            + dW0[:, k] @ spec.delta_vec
    bundle = PathBundle(grid=grid, dW0=dW0, x=x, I=I, seed=0)
    keys = [codes // nb ** (STEPS - k) for k in range(STEPS)]
    return bundle, TreeEngine(keys, grid.times, J_TREE), keys


def _at(coefs, points):
    """Per-path polynomials coefs (L, ..., M0) at the points (...P): (...P, ..., M0)."""
    powers = points[..., None] ** np.arange(coefs.shape[0])
    return np.tensordot(powers, coefs, axes=1)


def _node_fit(values, keys, t):
    """Values at the Gauss-Hermite nodes of N(0, t), (Q, ..., M0): their
    node means, fitted by weighted least squares on 1, w, .., w^(J - 1) over
    the nodes, as coefficients (J, ..., M0)."""
    nodes, weights = gauss_hermite(t)
    uniq, inv = np.unique(keys, return_inverse=True)
    flat = values.reshape(values.shape[0], -1, values.shape[-1])
    means = np.stack([flat[..., inv == u].mean(axis=-1) for u in range(uniq.size)], axis=-1)
    design = (nodes[:, None] ** np.arange(J_TREE)) * np.sqrt(weights)[:, None]
    rhs = (means * np.sqrt(weights)[:, None, None]).reshape(nodes.size, -1)
    beta = np.linalg.lstsq(design, rhs, rcond=None)[0].reshape((J_TREE,) + means.shape[1:])
    return beta[..., inv].reshape((J_TREE,) + values.shape[1:])


def reference_fixed_point(g, dW0, keys, gammas, probs, ghat, grid, sweeps=25):
    """Independent brute-force mean-field recursion on the tree.  Every
    function of w is handled by its values at Gauss-Hermite nodes: the
    expectation over the next increment, z1 as E[y_k+1 dWi] / dt, the
    driver and theta's mean over w.  Returns y (J, S, steps, M0) at the
    steps before T, and z0 (J, S, steps, d0, M0) and z1 (J, S, steps, 1, M0)."""
    dt = grid.dt
    srow = SIGMA_ROW[0]
    u, u_w = gauss_hermite(dt)
    weight = probs / gammas
    z = None
    for _ in range(sweeps):
        y, ys_all, z_new = g, [None] * STEPS, [None] * STEPS
        for k in range(STEPS - 1, -1, -1):
            wq, wq_w = gauss_hermite(grid.times[k])
            nxt = _at(y, wq[:, None] + u[None, :])                 # (Q, R, S, M0)
            ys = np.tensordot(u_w, nxt, axes=([0], [1]))
            z1t = np.tensordot(u_w * u / dt, nxt, axes=([0], [1]))
            if z is None:
                f = np.zeros_like(ys)
            else:
                zv = _at(z[k], wq)                                  # (Q, S, d0 + 1, M0)
                z0 = zv[:, :, :D0]
                z_par = np.einsum("qsam,a->qsm", z0, srow)[:, :, None] / (srow @ srow) \
                    * srow[None, None, :, None]
                z_perp = z0 - z_par
                ebar = np.einsum("q,s,qsam->am", wq_w, weight, z_par)
                f = (ghat * np.einsum("qsam,am->qsm", z_par, ebar)
                     - 0.5 * ghat**2 * np.sum(ebar**2, axis=0)
                     + 0.5 * (np.sum(z_perp**2, axis=2) + zv[:, :, D0] ** 2))
            y_hat = _node_fit(ys, keys[k], grid.times[k])
            y = y_hat + dt * _node_fit(f, keys[k], grid.times[k])
            resid = ys - _at(y_hat, wq)
            targets = np.concatenate([resid[:, :, None] * (dW0[:, k].T / dt)[None, None],
                                      z1t[:, :, None]], axis=2)
            z_new[k] = _node_fit(targets, keys[k], grid.times[k])
            ys_all[k] = y
        z = z_new
    z = np.stack(z, axis=2)
    return np.stack(ys_all, axis=2), z[:, :, :, :D0], z[:, :, :, D0:]


def test_tree_solver_matches_brute_force():
    grid = TimeGrid(0.3, STEPS)
    spec = EqgSpec(alpha=-0.4, beta=0.2, delta=(0.5, 0.3), x0=0.6,
                   a=-0.3, b=0.7, kappa=0.25)
    market = MarketSpec(n=1, d0=2, sigma=SIGMA_ROW,
                        lambda_lo=1.2, lambda_hi=1.3)
    bundle, engine, keys = tree_bundle(spec, grid)
    gammas, probs = np.array([1.0, 2.0]), np.array([0.6, 0.4])
    stats = gamma_hat(gammas, probs)
    liability = LiabilitySpec(spec.a, spec.b, 0.25, 0.1)
    g = terminal_g(liability, bundle, gammas)

    mf = solve_mean_field(
        bundle, market, RegressionBasis(), g, gammas, probs=probs,
        engine=engine, max_iters=40, tol=1e-13,
    )
    y_ref, z0_ref, z1_ref = reference_fixed_point(
        g, bundle.dW0, keys, gammas, probs, stats.gamma_hat, grid)

    assert mf.solution.converged
    y, z0, z1 = materialise(mf.solution)
    assert np.max(np.abs(y[:J_TREE, :, :STEPS] - y_ref)) < 1e-9
    assert np.max(np.abs(z0 - z0_ref)) < 1e-9
    assert np.max(np.abs(z1 - z1_ref)) < 1e-9

    # theta is minus gamma_hat times the population mean of the projected
    # hedge, the mean over w by quadrature
    srow = SIGMA_ROW[0]
    theta_ref = np.empty_like(mf.theta)
    for k in range(STEPS):
        wq, wq_w = gauss_hermite(grid.times[k])
        z_par = np.einsum("qsam,a->qsm", _at(z0_ref[:, :, k], wq), srow) / (srow @ srow)
        ebar = np.einsum("q,s,qsm->m", wq_w, probs / gammas, z_par)
        theta_ref[:, k] = -stats.gamma_hat * ebar[:, None] * srow[None, :]
    assert np.max(np.abs(mf.theta - theta_ref)) < 1e-9


# ---------------------------------------------------------------------------
# fixed point consistency against the single-agent solver
# ---------------------------------------------------------------------------

def test_fixed_point_solves_single_agent_problem(market2):
    """At the fixed point, re-solving one atom's BSDE under theta_mfg must
    reproduce that atom's mean-field value function."""
    grid = TimeGrid(0.5, 10)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.0)
    bundle = simulate_paths(grid, spec, market2, 512, 77)
    gammas = np.array([1.0, 2.0])
    basis = RegressionBasis(degree=2, include_idio=False)
    liability = LiabilitySpec.from_eqg(spec)
    g = terminal_g(liability, bundle, gammas)
    mf = solve_mean_field(bundle, market2, basis, g, gammas, probs=np.full(2, 0.5),
                          max_iters=15, tol=1e-10)
    assert mf.solution.converged

    # Same bundle, same regressions: the mean-field solution must be the
    # literal single-agent solution under the reported risk premium, not just close.
    sol = solve_agent_bsde(bundle, market2, basis, mf.theta, g[:, :1],
                           picard_max=25, picard_tol=1e-10)
    y_mf, z0_mf, _ = materialise(mf.solution)
    y, z0, _ = materialise(sol)
    assert np.max(np.abs(y[:, 0] - y_mf[:, 0])) < 1e-12
    assert np.max(np.abs(z0[:, 0] - z0_mf[:, 0])) < 1e-12


def test_additive_normalized_solution_is_gamma_free(market2):
    """Additive data: gamma-normalised (y, z) coincide across atoms on the
    same common path, hence per-capita positions cancel."""
    grid = TimeGrid(0.5, 8)
    spec = EqgSpec(alpha=-0.5, beta=0.0, delta=(0.4, 0.1), x0=0.5,
                   a=0.0, b=0.4, kappa=0.0)
    bundle = simulate_paths(grid, spec, market2, 256, 13)
    gammas = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    basis = RegressionBasis(degree=2, include_idio=False)
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    mf = solve_mean_field(bundle, market2, basis, g, gammas, probs=np.full(5, 0.2))
    z0 = materialise(mf.solution)[1]
    spread = np.max(np.abs(z0 - z0[:, :1]))
    assert spread < 1e-12


def test_smallness_report_formulas():
    stats = gamma_hat(np.array([1.0, 1.0]), np.full(2, 0.5))
    diag = smallness_report(0.01, stats, f_cross_inf=0.0)
    assert diag.c_gamma_spread == 1.0
    assert diag.smallness_ok and diag.stability_ok
    assert diag.radius == pytest.approx(0.02)
    big = smallness_report(1.0, stats, f_cross_inf=0.0)
    assert not big.smallness_ok


def test_smallness_from_liability_orders_scenarios(grid20, market2):
    stats = gamma_hat(np.array([0.8, 1.0, 1.25]), np.full(3, 1 / 3))
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
    bundle = simulate_paths(grid, spec, market2, 256, 3)
    gammas = np.array([1.0, 2.0])
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    basis = RegressionBasis(degree=2, include_idio=False)
    mf = solve_mean_field(bundle, market2, basis, g, gammas, probs=np.full(2, 0.5),
                          max_iters=1, tol=1e-15)
    assert not mf.solution.converged


def test_reported_theta_is_minus_gamma_hat_cloud_mean(market2):
    """theta = -gamma_hat sum_s (p_s / gamma_s) E_w[z0_par_s], with the
    row-space projector taken from the pseudo-inverse, not from the market
    geometry, and the mean over w by Gauss-Hermite quadrature."""
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=0.0, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 256, 21)
    gammas, probs = np.array([1.0, 2.0, 4.0]), np.array([0.5, 0.3, 0.2])
    stats = gamma_hat(gammas, probs)
    g = terminal_g(LiabilitySpec(spec.a, spec.b, 0.2, 0.3), bundle, gammas)
    mf = solve_mean_field(bundle, market2, RegressionBasis(), g, gammas, probs=probs)
    table = market2.sigma_table(grid.steps)
    want = np.empty_like(mf.theta)
    for k in range(grid.steps):
        nodes, weights = gauss_hermite(grid.times[k])
        z0 = poly_at(mf.solution.z_coefs(k)[:, :, :2].reshape(3, -1, 256),
                     np.broadcast_to(nodes, (256, nodes.size)))        # (M0, Q, S * d0)
        z_par = z0.reshape(256, nodes.size, 3, 2) @ (np.linalg.pinv(table[k]) @ table[k])
        want[:, k] = -stats.gamma_hat * np.einsum("q,s,mqsa->ma", weights, probs / gammas, z_par)
    assert np.max(np.abs(mf.theta - want)) <= 1e-12 * np.max(np.abs(want))


def test_changes_keep_y0_and_z_apart(market2):
    """The solution carries the loop's dy0 and dz lists; the mean-field
    solution's changes are their elementwise max, and the ratios follow from
    those."""
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 256, 5)
    gammas = np.array([1.0, 2.0, 4.0])
    g = terminal_g(LiabilitySpec(spec.a, spec.b, 0.2, 0.3), bundle, gammas)
    mf = solve_mean_field(bundle, market2, RegressionBasis(), g, gammas, probs=np.full(3, 1 / 3),
                          max_iters=5, tol=1e-14)
    sol = mf.solution
    assert len(sol.y0_changes) == len(sol.z_changes) == sol.picard_iters - 1 == 4
    assert sol.y0_changes != sol.z_changes
    assert mf.changes == [max(a, b) for a, b in zip(sol.y0_changes, sol.z_changes)]
    assert mf.ratios == [b / a for a, b in zip(mf.changes, mf.changes[1:])]


# ---------------------------------------------------------------------------
# each step's regression is built once per solve
# ---------------------------------------------------------------------------

def test_mean_field_solve_builds_each_step_once(market2, conditioner_builds):
    """Every sweep, every atom and the BMO proxy regress on the same state,
    so a solve of several atoms and sweeps builds one conditioner per step."""
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 256, 5)
    gammas = np.array([1.0, 2.0])
    g = terminal_g(LiabilitySpec(spec.a, spec.b, 0.2, 0.3), bundle, gammas)
    mf = solve_mean_field(bundle, market2, RegressionBasis(), g, gammas, probs=np.full(2, 0.5),
                          max_iters=5, tol=1e-14)
    assert mf.solution.picard_iters >= 2 and np.isfinite(mf.z_bmo)
    assert len(conditioner_builds) == grid.steps


def test_fresh_agents_are_read_through_the_clouds_engine(market2, conditioner_builds):
    """A pool agent's position reads its own atom's z polynomial at its own
    level: the per-agent reference matches the polynomial evaluated by hand,
    for pool agents of both atoms, and reading the solution's maps, as the
    reference and the clearing pool's streamed pass do, builds no
    conditioner."""
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 256, 5)
    gammas = np.array([1.0, 2.0])
    g = terminal_g(LiabilitySpec(spec.a, spec.b, 0.2, 0.3), bundle, gammas)
    mf = solve_mean_field(bundle, market2, RegressionBasis(), g, gammas, probs=np.full(2, 0.5),
                          max_iters=3, tol=0.0)
    sol = mf.solution
    assert len(conditioner_builds) == grid.steps
    pool = build_population(7, 3, DiscreteDist((1.0, 2.0)))
    levels = pool_levels(3, bundle.n_paths, pool.size, grid)
    p, _ = pool_strategies(mf, pool, levels)
    assert p.shape == (256, 7, grid.steps, 2) and np.all(np.isfinite(p))
    proj, _ = market2.geometry(grid.steps)
    for k in (0, 2, 5):
        z = sol.z_coefs(k)
        w = levels[:, :, k]
        for i in range(pool.size):
            s = pool.atom_ids[i]
            z0 = sum(z[j, s, :2].T * w[:, i, None] ** j for j in range(z.shape[0]))
            want = (z0 @ proj[k] + mf.theta[:, k]) / pool.gammas[i]
            np.testing.assert_allclose(p[:, i, k], want, rtol=1e-12, atol=1e-15)
    draws = normal_chunks(3, KIND_AUX, (256, pool.size, grid.steps), 16, np.sqrt(grid.dt))
    per_capita_positions(mf, pool, draws, [pool.size])
    assert len(conditioner_builds) == grid.steps


def test_collinear_state_raises_in_first_sweep(market2, conditioner_builds):
    """A running integral equal to the factor gives two identical columns:
    the first build, in the first sweep, raises."""
    grid = TimeGrid(0.5, 6)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 256, 5)
    bundle = replace(bundle, I=bundle.x.copy())
    g = bundle.x[:, -1][None, None]
    with pytest.raises(RegressionRankDeficient, match="collinear"):
        solve_mean_field(bundle, market2, RegressionBasis(degree=1), g, np.ones(1),
                         probs=np.ones(1))
    assert len(conditioner_builds) == 1


def test_solve_works_out_gamma_hat_from_its_cloud(market2, conditioner_builds):
    """The solve's gamma_hat is its gamma law's own: stats is gamma_hat(gammas,
    probs), a gamma of 0 raises NonpositiveGamma before any regression is
    built, and a gamma_hat still passed by position is a TypeError, not
    max_iters."""
    grid = TimeGrid(0.5, 3)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 100, 5)
    gammas, probs = np.array([1.0, 2.0, 4.0]), np.array([0.2, 0.5, 0.3])
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    with pytest.raises(NonpositiveGamma):
        solve_mean_field(bundle, market2, RegressionBasis(), g, np.array([1.0, 0.0, 4.0]),
                         probs=probs)
    assert conditioner_builds == []
    with pytest.raises(TypeError):
        solve_mean_field(bundle, market2, RegressionBasis(), g, gammas,
                         gamma_hat(gammas, probs).gamma_hat, probs=probs)
    assert conditioner_builds == []
    mf = solve_mean_field(bundle, market2, RegressionBasis(), g, gammas, probs=probs,
                          max_iters=2)
    assert mf.stats == gamma_hat(gammas, probs)
    assert mf.stats.gamma_hat == pytest.approx(1.0 / (0.2 + 0.25 + 0.075), rel=1e-15)


ONE_ASSET = [([[1.0]], (0.4,)), ([[1.0, 0.5]], (0.4, 0.1)), ([[1.0, 0.5, 0.2]], (0.4, 0.1, 0.2))]


# ids: sigma<d>-delta<d> at K = 5, with -K<K> appended at the larger populations
@pytest.mark.parametrize("sigma, delta, K", [
    pytest.param(*ONE_ASSET[d], K, id=f"sigma{d}-delta{d}" + ("" if K == 5 else f"-K{K}"))
    for K in (5, 66, 2501) for d in range(3)
])
def test_reported_theta_is_numpys_agent_mean_to_the_bit(sigma, delta, K):
    """A population of K agents, 3K // 5 at gamma = 1 and the rest at 2, is
    given to the solve as its two atoms with the agents' shares, at d0 = 1,
    2 and 3.  The reported theta is -gamma_hat sum_s (p_s / gamma_s)
    sum_j C_s,j mu_j(t_k) recomputed from z_coefs(k) with the market's
    projector, bit for bit, and within 1e-12 of -gamma_hat times numpy's
    mean over the K agents of (1 / gamma_i) E_w[z0_par]; gamma_hat is the
    harmonic mean of the K agents'."""
    market = make_market(sigma)
    grid = TimeGrid(0.5, 5)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=delta, x0=0.3, a=0.0, b=0.5, kappa=0.2)
    M0 = 200
    bundle = simulate_paths(grid, spec, market, M0, 8)
    sizes = np.array([3 * K // 5, K - 3 * K // 5])
    gammas = np.array([1.0, 2.0])
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    mf = solve_mean_field(bundle, market, RegressionBasis(), g, gammas, probs=sizes / K,
                          max_iters=3, tol=0.0)
    agents = np.repeat(gammas, sizes)
    assert mf.stats.gamma_hat == pytest.approx(1.0 / np.mean(1.0 / agents), rel=1e-15)
    ghat, d0 = mf.stats.gamma_hat, market.d0
    proj, _ = market.geometry(grid.steps)
    for k in range(grid.steps):
        z = mf.solution.z_coefs(k)
        par = np.einsum("ba,jsbm->jsam", proj[k], z[:, :, :d0])
        mu = gauss_moments(grid.times[k], z.shape[0])
        want = -ghat * np.einsum("jsam,j,s->ma", par, mu, (sizes / K) / gammas)
        assert np.array_equal(mf.theta[:, k], want), k
        per_atom = np.einsum("jsam,j->msa", par, mu) / gammas[None, :, None]
        numpys = -ghat * np.mean(np.repeat(per_atom, sizes, axis=1), axis=1)
        assert np.max(np.abs(mf.theta[:, k] - numpys)) <= 1e-12 * np.max(np.abs(numpys)), k


@pytest.mark.parametrize("probs, engine, match", [
    pytest.param(probs, False, match, id=f"sizes{i}")
    for i, (probs, match) in enumerate([
        ((0.3, 0.4), "shape"),                          # one atom short
        ((0.5, -0.1, 0.6), "nonnegative"),              # a negative share
        ((0.0, 0.0, 0.0), "sum to 1"),                  # a zero total
        ((0.3, 0.3, 0.3), "sum to 1"),                  # a total other than 1
        (((0.2, 0.3, 0.5),), "shape"),                  # not one list
    ])
] + [pytest.param((0.2, 0.3, 0.5), True, "1 atoms for 3", id="engine")])
def test_strata_reject_sizes_that_do_not_tile(market2, conditioner_builds, probs, engine, match):
    """Atom probabilities that do not tile the population (one atom short, a
    negative share, a total other than 1, or not one list) raise one
    ValueError before any build.  An engine= solve serves every atom, so its
    g must hold one slice per risk aversion too: a g of one atom for three
    raises there, before any build.  The name is the one the particle
    strata (atom sizes in particles) were tested under; the atoms'
    probabilities replace them."""
    grid = TimeGrid(0.5, 3)
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.2)
    bundle = simulate_paths(grid, spec, market2, 100, 5)
    gammas = np.array([1.0, 2.0, 4.0])
    g = terminal_g(LiabilitySpec.from_eqg(spec), bundle, gammas)
    eng = None
    if engine:
        g = g[:, :1]
        eng = BasisEngine(bundle.x, bundle.I, grid.times, RegressionBasis())
    with pytest.raises(ValueError, match=match):
        solve_mean_field(bundle, market2, RegressionBasis(), g, gammas, probs=probs, engine=eng)
    assert conditioner_builds == []
