"""Closed-form equilibrium quantities for the exponential-quadratic model.

With the additive liability split G = G0 + G1 (common quadratic cost plus an
idiosyncratic Gaussian leg), the normalized common value process is

    y0_t = A(t) x_t^2 + B(t) x_t + C(t) + I_t,
    z0_t = (2 A(t) x_t + B(t)) delta,

the idiosyncratic leg has the Cole-Hopf form

    y1_t = kappa W^i_t + kappa^2 (T - t) / 2,   z1_t = kappa,

and the market clears at the risk premium

    theta_t = -(2 A(t) x_t + B(t)) (Pi_t delta)^T,   mu_t = sigma_t theta_t,

where Pi_t projects onto the row space of sigma_t.  Every agent's optimal
stock position is then exactly zero, which is what "the market clears" means
here: the per-capita excess demand vanishes agent by agent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import BsdeSolution
from .market import MarketSpec, TimeGrid
from .paths import PathBundle
from .riccati import RiccatiSolution


@dataclass
class EquilibriumPath:
    """Pathwise closed-form solution sampled on bundle paths.

    y0: (M, steps + 1); z0: (M, steps + 1, d0); theta: (M, steps, d0);
    mu: (M, steps, n).
    """

    grid: TimeGrid
    y0: np.ndarray
    z0: np.ndarray
    theta: np.ndarray
    mu: np.ndarray


def closed_form_error(ric: RiccatiSolution, sol: BsdeSolution, eq: EquilibriumPath | None) -> dict:
    """A solve's error against the additive liability's closed form.

    y0_closed is A x0^2 + B x0 + C at t = 0 plus kappa^2 T / 2, with x0 and
    kappa from ric.spec, the spec ric was solved for, and
    y0_rel_err is |sol.y0 - y0_closed| over |y0_closed| (floored at 1e-12).
    Given eq, the closed form on the solve's own paths, z0_rms_rel_err is the
    RMS of the common hedge's error over steps 0..steps-1 over the closed
    form's RMS (floored at 1e-12).
    """
    spec = ric.spec
    y0_closed = float(ric.A[0] * spec.x0 * spec.x0 + ric.B[0] * spec.x0 + ric.C[0])
    y0_closed += 0.5 * spec.kappa**2 * ric.grid.horizon
    err = {"y0_closed": y0_closed,
           "y0_rel_err": float(abs(sol.y0 - y0_closed) / max(abs(y0_closed), 1e-12))}
    if eq is not None:
        z0_closed = eq.z0[:, :-1]
        z0 = np.stack([sol.z_at(k)[:, 0, :z0_closed.shape[2]] for k in range(eq.grid.steps)],
                      axis=1)
        num = np.sqrt(np.mean(np.subtract(z0, z0_closed, order="C") ** 2))
        den = max(np.sqrt(np.mean(z0_closed**2)), 1e-12)
        err["z0_rms_rel_err"] = float(num / den)
    return err


def equilibrium_path(ric: RiccatiSolution, bundle: PathBundle,
                     market: MarketSpec) -> EquilibriumPath:
    """Evaluate the closed-form (y0, z0, theta, mu) on simulated paths, with
    the factor loading delta of the spec ric was solved for."""
    grid = bundle.grid
    steps = grid.steps
    x = bundle.x
    A, B, C = ric.A, ric.B, ric.C
    delta = ric.spec.delta_vec

    slope = 2.0 * A[None, :] * x + B[None, :]          # (M, steps + 1)
    y0 = A[None, :] * x * x + B[None, :] * x + C[None, :] + bundle.I
    z0 = slope[:, :, None] * delta[None, None, :]       # (M, steps + 1, d0)

    sig_table = market.sigma_table(steps)
    proj, _ = market.geometry(steps)
    theta = np.empty((bundle.n_paths, steps, market.d0))
    mu = np.empty((bundle.n_paths, steps, market.n))
    for k in range(steps):
        theta[:, k, :] = -slope[:, k, None] * (delta @ proj[k])
        mu[:, k, :] = theta[:, k, :] @ sig_table[k].T
    return EquilibriumPath(grid=grid, y0=y0, z0=z0, theta=theta, mu=mu)


def sign_law_violations(eq: EquilibriumPath, market: MarketSpec) -> int:
    """Count grid cells where sign(mu^(k)) != -sign(sigma^(k) z0^T).

    In equilibrium an asset's excess return is positive exactly when its
    volatility row is negatively aligned with the common hedging integrand.
    """
    steps = eq.grid.steps
    sig_table = market.sigma_table(steps)
    bad = 0
    for k in range(steps):
        rhs = eq.z0[:, k, :] @ sig_table[k].T
        bad += int(np.sum(np.sign(eq.mu[:, k, :]) != -np.sign(rhs)))
    return bad


def martingale_check(eq: EquilibriumPath) -> tuple[float, float]:
    """z-score and standard error of E[exp(y0_T - y0_0)] - 1.

    exp(y0) must be a martingale: y0_T - y0_0 collapses to the simulated
    G0 minus its conditional log-moment at time zero.  When every path grows
    alike, se is 0 and the gap m - 1 is exact: z is 0 or infinite.
    """
    growth = np.exp(eq.y0[:, -1] - eq.y0[:, 0])
    m = float(np.mean(growth))
    se = float(np.std(growth, ddof=1) / np.sqrt(growth.size))
    if se == 0.0:
        return (0.0 if m == 1.0 else float(np.copysign(np.inf, m - 1.0))), se
    return (m - 1.0) / se, se
