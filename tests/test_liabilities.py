"""Terminal liability: G and the sup bounds, term by term, for every subset
of the three terms (common cost (a, b), idio leg kappa, cross term eps)."""

import itertools

import numpy as np
import pytest

from mfequil import EqgSpec, LiabilitySpec, TimeGrid, simulate_paths, terminal_g
from mfequil.liabilities import liability_bounds
from mfequil.paths import ou_exact_moments

from conftest import make_market

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
    bundle = simulate_paths(grid, spec, make_market(), 64, 11, agents=GAMMAS.size)

    assert liability.is_additive == (not cross)

    # G: the common cost, then kappa (W^i_T)_1, then gamma eps (W0_T)_1 (W^i_T)_1
    want = np.zeros((bundle.n_paths, GAMMAS.size))
    wi_T = bundle.wi_first[:, :, -1]
    if common:
        x = bundle.x[:, :-1]
        want += (grid.dt * np.sum(A * x * x + B * x, axis=1))[:, None]
    if idio:
        want += KAPPA * wi_T
    if cross:
        want += GAMMAS[None, :] * EPS * bundle.w0[:, -1, 0][:, None] * wi_T
    assert np.array_equal(terminal_g(liability, bundle, GAMMAS), want)

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
    assert bounds == {"f_inf": f_inf, "f_cross_inf": f_cross, "x_max": x_max, "w_max": w_max}
