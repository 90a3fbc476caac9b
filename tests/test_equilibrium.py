import numpy as np
import pytest

from mfequil import (
    TimeGrid, equilibrium_path, martingale_check, riccati_for_spec,
    sign_law_violations, simulate_paths,
)

from conftest import make_market
from oracles import cole_hopf_idio, cole_hopf_oracle, coarsen_bundle, fubini_malliavin_check


def build_eq(grid, spec, market, n_paths=256, seed=42, agents=1):
    bundle = simulate_paths(grid, spec, market, n_paths, seed, agents=agents)
    ric = riccati_for_spec(spec, grid)
    return bundle, ric, equilibrium_path(ric, bundle, market, spec)


def test_equilibrium_shapes(grid20, eqg_spec, market2):
    bundle, ric, eq = build_eq(grid20, eqg_spec, market2, agents=3)
    M, steps = bundle.n_paths, grid20.steps
    assert eq.y0.shape == (M, steps + 1)
    assert eq.z0.shape == (M, steps + 1, 2)
    assert eq.theta.shape == (M, steps, 2)
    assert eq.mu.shape == (M, steps, 2)
    y1, z1 = cole_hopf_idio(eqg_spec.kappa, grid20, bundle)
    assert y1.shape == (M, 3, steps + 1)
    assert z1.shape == (1,)


def test_terminal_value_is_liability(grid20, eqg_spec, market2):
    """y0_T must equal the realised common liability integral I_T."""
    bundle, ric, eq = build_eq(grid20, eqg_spec, market2)
    assert np.allclose(eq.y0[:, -1], bundle.I[:, -1], atol=1e-12)


def test_theta_is_projected_hedging_demand(grid20, eqg_spec, market2):
    """theta^T = -(2 A x + B) Pi_sigma delta, the aggregate hedge direction."""
    bundle, ric, eq = build_eq(grid20, eqg_spec, market2)
    sig = market2.sigma
    gram = sig @ sig.T
    dpar = sig.T @ np.linalg.solve(gram, sig @ eqg_spec.delta_vec)
    k = 7
    slope = 2 * ric.A[k] * bundle.x[:, k] + ric.B[k]
    assert np.allclose(eq.theta[:, k, :], -slope[:, None] * dpar[None, :],
                       atol=1e-12)


def test_sign_law_holds_everywhere(grid20, eqg_spec, market2):
    _, _, eq = build_eq(grid20, eqg_spec, market2, n_paths=512)
    assert sign_law_violations(eq, market2) == 0


def test_martingale_check_moderate(grid20, eqg_spec, market2):
    grid = TimeGrid(0.5, 100)
    bundle, ric, eq = build_eq(grid, eqg_spec, market2, n_paths=20000, seed=9)
    z, se = martingale_check(eq)
    assert abs(z) < 4.0


def test_martingale_detects_wrong_start(grid20, eqg_spec, market2):
    bundle, ric, eq = build_eq(grid20, eqg_spec, market2, n_paths=4096)
    eq.y0[:, 0] += 0.05  # corrupt the log-moment
    z, _ = martingale_check(eq)
    assert abs(z) > 10.0


def test_cole_hopf_idio_matches_sample_oracle(grid20, eqg_spec, market2):
    """log E[exp(kappa W_T)] estimated by the exponential-average oracle."""
    bundle = simulate_paths(grid20, eqg_spec, market2, 60000, 3, agents=1)
    kappa = 0.3
    y1, z1 = cole_hopf_idio(kappa, grid20, bundle)
    est = cole_hopf_oracle(kappa * bundle.wi[:, 0, -1])
    assert y1[0, 0, 0] == pytest.approx(0.5 * kappa**2 * grid20.horizon)
    assert est == pytest.approx(y1[0, 0, 0], abs=3e-3)
    assert z1.tolist() == [kappa]


def test_fubini_gap_vanishes_under_refinement(market2):
    from mfequil import EqgSpec

    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=0.0, b=0.8, kappa=0.0)
    fine = simulate_paths(TimeGrid(0.5, 800), spec, market2, 64, 7)
    gaps = []
    for factor in (16, 4, 1):
        bundle = fine if factor == 1 else coarsen_bundle(fine, factor, spec)
        gaps.append(fubini_malliavin_check(bundle, spec))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[1] > 3.0
    assert gaps[1] / gaps[2] > 3.0


def test_fubini_requires_a_zero(grid20, eqg_spec, market2):
    bundle = simulate_paths(grid20, eqg_spec, market2, 8, 1)
    with pytest.raises(ValueError):
        fubini_malliavin_check(bundle, eqg_spec)
