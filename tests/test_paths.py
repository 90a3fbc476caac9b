import tracemalloc

import numpy as np
import pytest

from mfequil import EqgSpec, PathBundle, TimeGrid, simulate_paths
from mfequil.paths import KIND_IDIO, normal_block_array, ou_exact_moments, step_major

from conftest import make_market
from oracles import coarsen_bundle, level_array


def test_same_seed_same_paths(grid20, eqg_spec, market2):
    a = simulate_paths(grid20, eqg_spec, market2, 32, 123, agents=3)
    b = simulate_paths(grid20, eqg_spec, market2, 32, 123, agents=3)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.dW0, b.dW0)
    assert np.array_equal(a.dWi, b.dWi)
    c = simulate_paths(grid20, eqg_spec, market2, 32, 124, agents=3)
    assert not np.array_equal(a.dW0, c.dW0)


def test_path_prefix_stable_under_growth(grid20, eqg_spec, market2):
    """Counter-based streams: enlarging the batch must not disturb the
    draws already assigned to earlier paths."""
    small = simulate_paths(grid20, eqg_spec, market2, 8, 99)
    big = simulate_paths(grid20, eqg_spec, market2, 64, 99)
    assert np.array_equal(big.dW0[:8], small.dW0)
    assert np.array_equal(big.x[:8], small.x)


def test_all_output_independent_of_blas_threads(blas_thread_runs):
    """Draws keyed by fixed blocks and Gram sums reduced in block order: a
    full run writes the same bytes at one and at two BLAS threads."""
    rcs, errs, trees = blas_thread_runs
    for rc, err in zip(rcs, errs):
        assert rc == 0, err
    assert len(trees[0]) > 1 and trees[0] == trees[1]


def test_common_increments_shared_across_agents(grid20, eqg_spec, market2):
    one = simulate_paths(grid20, eqg_spec, market2, 16, 5, agents=1)
    many = simulate_paths(grid20, eqg_spec, market2, 16, 5, agents=4)
    assert np.array_equal(one.dW0, many.dW0)
    assert np.array_equal(one.x, many.x)
    # idio increments differ per agent
    assert not np.array_equal(many.dWi[:, 0], many.dWi[:, 1])


def test_euler_matches_ou_moments(eqg_spec, market2):
    grid = TimeGrid(0.5, 400)
    bundle = simulate_paths(grid, eqg_spec, market2, 20000, 2024)
    mean_th, var_th = ou_exact_moments(eqg_spec, grid.horizon)
    xT = bundle.x[:, -1]
    # Euler bias is O(dt); MC error ~ sd/sqrt(M)
    assert abs(np.mean(xT) - mean_th) < 4 * np.sqrt(var_th / 20000) + 5e-3
    assert abs(np.var(xT) - var_th) < 5e-3


def test_integral_leg_is_left_riemann(grid20, eqg_spec, market2):
    bundle = simulate_paths(grid20, eqg_spec, market2, 4, 11)
    x, dt = bundle.x, grid20.dt
    integrand = eqg_spec.a * x[:, :-1] ** 2 + eqg_spec.b * x[:, :-1]
    manual = np.cumsum(integrand * dt, axis=1)
    assert np.allclose(bundle.I[:, 1:], manual, atol=1e-14)


def test_coarsen_bundle_aggregates_increments(grid20, eqg_spec, market2):
    fine = simulate_paths(grid20, eqg_spec, market2, 12, 31, agents=2)
    coarse = coarsen_bundle(fine, 4, eqg_spec)
    assert coarse.grid.steps == 5
    assert coarse.grid.horizon == grid20.horizon
    # Brownian increments add up exactly over merged intervals
    merged = fine.dW0.reshape(12, 5, 4, -1).sum(axis=2)
    assert np.allclose(coarse.dW0, merged, atol=1e-15)
    # the state is re-run with the Euler map on the coarse grid
    assert np.allclose(coarse.x[:, 0], eqg_spec.x0)
    with pytest.raises(ValueError):
        coarsen_bundle(fine, 3, eqg_spec)


def test_coarsen_bundle_at_factor_one_is_the_simulation(grid20, eqg_spec, market2):
    """The test oracle re-runs Euler from EqgSpec's public fields only; at
    factor 1 it must give simulate_paths' factor path and running cost bit
    for bit, or the refinement studies built on it compare different maps."""
    for spec in (eqg_spec, EqgSpec(alpha=0.0, beta=-0.2, delta=(0.7, 0.3), x0=-1.1,
                                   a=0.0, b=0.9)):
        fine = simulate_paths(grid20, spec, market2, 40, 17, agents=2)
        same = coarsen_bundle(fine, 1, spec)
        assert np.array_equal(same.x, fine.x)
        assert np.array_equal(same.I, fine.I)
        assert np.array_equal(same.dW0, fine.dW0) and np.array_equal(same.dWi, fine.dWi)


def test_simulate_paths_validates_inputs(grid20, eqg_spec, market2):
    with pytest.raises(ValueError):
        simulate_paths(grid20, eqg_spec, market2, 0, 1)
    bad_spec = EqgSpec(alpha=-0.5, beta=0.0, delta=(0.4,), x0=0.0, a=0.0, b=0.1)
    with pytest.raises(ValueError):
        simulate_paths(grid20, bad_spec, market2, 4, 1)


def test_idio_draws_are_written_in_place_with_the_keyed_normals(eqg_spec, market2):
    """simulate_paths writes each block's idiosyncratic draws straight into
    the step-major dWi: the values are normal_block_array's over the
    (M K, steps) rows times sqrt(dt), bit for bit, and the traced peak
    above what the bundle keeps stays under half of dWi (a whole-array
    temporary would add all of it).  Each level wi[:, :, k] is dWi's running
    sum from 0, as np.cumsum gives it, and contiguous."""
    grid = TimeGrid(0.5, 20)
    M, K = 64, 200
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bundle = simulate_paths(grid, eqg_spec, market2, M, 17, agents=K)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < bundle.dWi.nbytes / 2, (peak - kept, bundle.dWi.nbytes)
    assert kept - base >= bundle.dWi.nbytes
    want = normal_block_array(17, KIND_IDIO, (M * K, grid.steps)) * np.sqrt(grid.dt)
    assert np.array_equal(bundle.dWi, want.reshape(bundle.dWi.shape))
    assert bundle.dWi[:, :, 3].flags.c_contiguous
    full = level_array(bundle.dWi)
    for k in range(grid.steps + 1):
        assert np.array_equal(bundle.wi[:, :, k], full[:, :, k]), k
    assert bundle.wi[:, :, 3].flags.c_contiguous


def test_one_coordinate_draws_are_the_first_of_a_trailing_axis():
    """The keyed normals of (P, steps) are those of (P, steps, 1), bit for
    bit, across a block boundary: dropping the bundle's idiosyncratic axis
    kept every draw."""
    shape = (2 * 1024 + 3, 7)
    for seed in (0, 17):
        flat = normal_block_array(seed, KIND_IDIO, shape)
        assert np.array_equal(normal_block_array(seed, KIND_IDIO, shape + (1,))[..., 0], flat)


def test_every_level_has_cumsums_bits():
    """Every level of a bundle's wi, for 1 to 25 steps, of all agents and of
    agent ranges, is np.cumsum's to the bit, and each level is contiguous.
    A first increment of -0.0 stays -0.0 in level 1, as cumsum leaves it.
    Each read is a new array of the same bits, which the bundle does not
    keep."""
    rng = np.random.default_rng(3)
    for steps in range(1, 26):
        dWi = step_major((5, 7, steps))
        dWi[...] = rng.normal(size=(5, 7, steps)) * 10.0 ** rng.uniform(-8, 8, size=(5, 7, steps))
        dWi[0, 0, 0] = -0.0
        bundle = PathBundle(grid=TimeGrid(0.5, steps), dW0=np.zeros((5, steps, 1)), dWi=dWi,
                            x=np.zeros((5, steps + 1)), I=np.zeros((5, steps + 1)))
        w, full = bundle.wi, level_array(dWi)
        assert w.shape == full.shape
        for k in range(-steps - 1, steps + 1):
            assert w[:, :, k].flags.c_contiguous
            for r in (slice(None), slice(2, 5), slice(6, None)):
                assert w[:, r, k].tobytes() == full[:, r, k].tobytes(), (steps, k, r)
        assert np.signbit(w[0, 0, 1]) and np.signbit(full[0, 0, 1])
        again = bundle.wi
        assert again is not w and again.tobytes() == w.tobytes()
