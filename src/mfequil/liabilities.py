"""Terminal liability sampling.

A liability is its four coefficients, declared on the normalized scale: each
term contributes to G = gamma * F, the terminal datum of the
risk-aversion-normalized value process, and a zero coefficient drops its
term.

* (a, b): running quadratic cost of the common factor,
  G += int_0^T (a x_t^2 + b x_t) dt (left-endpoint rule on the bundle grid).
  Contributes F0 / gamma to the liability, identically across agents.
* kappa: G += kappa (W^i_T)_1, an additive idiosyncratic leg.
* eps: a common-idiosyncratic interaction entering the liability directly,
  F += eps (W0_T)_1 (W^i_T)_1, hence G += gamma * eps (...).
  This is the term that makes individual optimal positions nonzero.

Additive means eps = 0, so the normalized terminal datum splits into a
common part plus an idiosyncratic part and individual demands cancel
exactly in equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import TimeGrid
from .paths import PathBundle, ou_exact_moments
from .riccati import EqgSpec


@dataclass(frozen=True)
class LiabilitySpec:
    """Terminal liability coefficients: common cost (a, b), idio leg kappa, cross term eps."""

    a: float
    b: float
    kappa: float
    eps: float

    @staticmethod
    def from_eqg(spec: EqgSpec, eps: float = 0.0) -> "LiabilitySpec":
        return LiabilitySpec(spec.a, spec.b, spec.kappa, eps)

    @property
    def is_additive(self) -> bool:
        return self.eps == 0.0


def terminal_g(liability: LiabilitySpec, bundle: PathBundle, gammas: np.ndarray) -> np.ndarray:
    """Normalized terminal samples G, shape (M, K).

    gammas has shape (K,): one risk aversion per particle slot, shared
    across common paths.  The terms are added in the order common, kappa,
    eps.
    """
    M, K = bundle.n_paths, bundle.n_agents
    gam = np.asarray(gammas, dtype=float)
    if gam.shape != (K,):
        raise ValueError(f"gammas must have shape ({K},), got {gam.shape}")
    dt = bundle.grid.dt
    a, b, kappa, eps = liability.a, liability.b, liability.kappa, liability.eps
    g = np.zeros((M, K))
    if a != 0.0 or b != 0.0:
        x = bundle.x[:, :-1]
        g0 = dt * np.sum(a * x * x + b * x, axis=1)
        g += g0[:, None]
    if kappa != 0.0:
        g += kappa * bundle.wi_first[:, :, -1]
    if eps != 0.0:
        w0T = bundle.w0[:, -1, 0]
        g += gam[None, :] * eps * w0T[:, None] * bundle.wi_first[:, :, -1]
    return g


def liability_bounds(
    liability: LiabilitySpec,
    spec: EqgSpec,
    grid: TimeGrid,
    gamma_lo: float,
) -> dict:
    """Truncated-range sup bounds for |F| and its non-additive part.

    The factor is confined to mean(t) +- 6 running standard deviations
    and Brownian coordinates to +- 6 sqrt(T); the bound is the resulting
    sup of each term's |F| contribution, with the common leg divided by
    the smallest risk aversion.
    """
    T = grid.horizon
    mean_T, var_T = ou_exact_moments(spec, T)
    x_max = max(abs(spec.x0), abs(mean_T)) + 6.0 * np.sqrt(var_T)
    w_max = 6.0 * np.sqrt(T)

    a, b, kappa, eps = liability.a, liability.b, liability.kappa, liability.eps
    f_full = 0.0
    f_cross = 0.0
    if a != 0.0 or b != 0.0:
        f_full += T * (abs(a) * x_max**2 + abs(b) * x_max) / gamma_lo
    if kappa != 0.0:
        f_full += abs(kappa) * w_max / gamma_lo
    if eps != 0.0:
        part = abs(eps) * w_max * w_max
        f_full += part
        f_cross += part
    return {"f_inf": f_full, "f_cross_inf": f_cross, "x_max": x_max, "w_max": w_max}
