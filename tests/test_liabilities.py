"""Terminal liability: G and the sup bounds, term by term, for every subset
of the three terms (common cost (a, b), idio leg kappa, cross term eps)."""

import itertools

import numpy as np
import pytest

from mfequil import EqgSpec, LiabilitySpec, TimeGrid, simulate_paths, terminal_g
from mfequil.liabilities import liability_bounds
from mfequil.paths import ou_exact_moments

from conftest import make_market
from oracles import idio_levels

A, B, KAPPA, EPS = -0.2, 0.5, 0.3, 0.1
GAMMAS = np.array([0.5, 1.0, 2.0, 4.0])
GAMMA_LO = 0.5


@pytest.mark.parametrize("common,idio,cross", list(itertools.product([False, True], repeat=3)))
def test_each_term_enters_g_and_the_bounds(common, idio, cross):
    spec = EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=A if common else 0.0, b=B if common else 0.0,
                   kappa=KAPPA if idio else 0.0)
    eps = EPS if cross else 0.0
    liability = LiabilitySpec.from_eqg(spec, eps)
    grid = TimeGrid(0.5, 20)
    bundle = simulate_paths(grid, spec, make_market(), 64, 11)
    w0_T = np.cumsum(bundle.dW0[:, :, 0], axis=1)[:, -1]

    assert liability.is_additive == (not cross)

    # G per atom and path as coefficients in w_T: the common cost, then the
    # coefficient kappa + gamma eps (W0_T)_1 of the agent's own (W^i_T)_1
    g = terminal_g(liability, bundle, GAMMAS)
    want = np.zeros((2, GAMMAS.size, bundle.n_paths))
    if common:
        x = bundle.x[:, :-1]
        want[0] += grid.dt * np.sum(A * x * x + B * x, axis=1)
    if idio:
        want[1] += KAPPA
    if cross:
        want[1] += GAMMAS[:, None] * EPS * w0_T
    assert np.array_equal(g, want)
    # at agent s's own level, with atom s's gamma, G is the sum of the terms
    wi_T = idio_levels(bundle, GAMMAS.size)[:, :, -1]
    value = np.zeros_like(wi_T)
    if common:
        value += (grid.dt * np.sum(A * x * x + B * x, axis=1))[:, None]
    if idio:
        value += KAPPA * wi_T
    if cross:
        value += GAMMAS[None, :] * EPS * w0_T[:, None] * wi_T
    assert np.allclose(g[0].T + g[1].T * wi_T, value, rtol=1e-14, atol=1e-15)

    # sup bounds on the truncated range: x within 6 running sd, W within 6 sqrt(T)
    T = grid.horizon
    mean_T, var_T = ou_exact_moments(spec, T)
    x_max = max(abs(spec.x0), abs(mean_T)) + 6.0 * np.sqrt(var_T)
    w_max = 6.0 * np.sqrt(T)
    f_inf = 0.0
    if common:
        f_inf += T * (abs(A) * x_max**2 + abs(B) * x_max) / GAMMA_LO
    if idio:
        f_inf += abs(KAPPA) * w_max / GAMMA_LO
    f_cross = abs(EPS) * w_max * w_max if cross else 0.0
    f_inf += f_cross
    bounds = liability_bounds(liability, spec, grid, GAMMA_LO)
    assert bounds == {"f_inf": f_inf, "f_cross_inf": f_cross}
