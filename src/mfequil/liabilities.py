"""Terminal liability sampling.

Components are declared on the normalized scale: a component contributes to
G = gamma * F, the terminal datum of the risk-aversion-normalized value
process.  The supported family:

* EqgCommon(a, b): running quadratic cost of the common factor,
  G += int_0^T (a x_t^2 + b x_t) dt (left-endpoint rule on the bundle grid).
  Contributes F0 / gamma to the liability, identically across agents.
* GaussianIdio(kappa): G += kappa (W^i_T)_1, an additive idiosyncratic leg.
* CrossTerm(eps): a common-idiosyncratic interaction entering the liability
  directly, F += eps (W0_T)_1 (W^i_T)_1, hence G += gamma * eps (...).
  This is the component that makes individual optimal positions nonzero.

Additive means: no CrossTerm component, so the normalized terminal datum
splits into a common part plus an idiosyncratic part and individual demands
cancel exactly in equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import TimeGrid
from .paths import PathBundle, ou_exact_moments
from .riccati import EqgSpec


@dataclass(frozen=True)
class EqgCommon:
    a: float
    b: float


@dataclass(frozen=True)
class GaussianIdio:
    kappa: float


@dataclass(frozen=True)
class CrossTerm:
    eps: float


@dataclass(frozen=True)
class LiabilitySpec:
    """Composite terminal liability: a tuple of the components above."""

    components: tuple = ()

    @staticmethod
    def from_eqg(spec: EqgSpec, eps: float = 0.0) -> "LiabilitySpec":
        comps: list = []
        if spec.a != 0.0 or spec.b != 0.0:
            comps.append(EqgCommon(spec.a, spec.b))
        if spec.kappa != 0.0:
            comps.append(GaussianIdio(spec.kappa))
        if eps != 0.0:
            comps.append(CrossTerm(eps))
        return LiabilitySpec(tuple(comps))

    @property
    def is_additive(self) -> bool:
        return not any(isinstance(c, CrossTerm) for c in self.components)

    @property
    def gamma_coupled(self) -> bool:
        """True when normalized terminal data differ across risk aversions."""
        return not self.is_additive


def terminal_g(liability: LiabilitySpec, bundle: PathBundle, gammas: np.ndarray) -> np.ndarray:
    """Normalized terminal samples G, shape (M, K).

    gammas has shape (K,): one risk aversion per particle slot, shared
    across common paths.
    """
    M, K = bundle.n_paths, bundle.n_agents
    gam = np.asarray(gammas, dtype=float)
    if gam.shape != (K,):
        raise ValueError(f"gammas must have shape ({K},), got {gam.shape}")
    dt = bundle.grid.dt
    g = np.zeros((M, K))
    for comp in liability.components:
        if isinstance(comp, EqgCommon):
            x = bundle.x[:, :-1]
            g0 = dt * np.sum(comp.a * x * x + comp.b * x, axis=1)
            g += g0[:, None]
        elif isinstance(comp, GaussianIdio):
            g += comp.kappa * bundle.wi_first[:, :, -1]
        elif isinstance(comp, CrossTerm):
            w0T = bundle.w0[:, -1, 0]
            g += gam[None, :] * comp.eps * w0T[:, None] * bundle.wi_first[:, :, -1]
        else:
            raise TypeError(f"unknown liability component {comp!r}")
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
    sup of each component's |F| contribution, with the common leg divided by
    the smallest risk aversion.
    """
    T = grid.horizon
    mean_T, var_T = ou_exact_moments(spec, T)
    x_max = max(abs(spec.x0), abs(mean_T)) + 6.0 * np.sqrt(var_T)
    w_max = 6.0 * np.sqrt(T)

    f_full = 0.0
    f_cross = 0.0
    for comp in liability.components:
        if isinstance(comp, EqgCommon):
            f_full += T * (abs(comp.a) * x_max**2 + abs(comp.b) * x_max) / gamma_lo
        elif isinstance(comp, GaussianIdio):
            f_full += abs(comp.kappa) * w_max / gamma_lo
        elif isinstance(comp, CrossTerm):
            part = abs(comp.eps) * w_max * w_max
            f_full += part
            f_cross += part
    return {"f_inf": f_full, "f_cross_inf": f_cross, "x_max": x_max, "w_max": w_max}
