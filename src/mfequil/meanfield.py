"""Mean-field BSDE solver on a common-path / particle cloud.

The equilibrium risk premium of a continuum of exponential-utility agents is
theta_t = -gamma_hat Ebar[Z0_par_t]^T, where Ebar averages the common-noise
integrand over the idiosyncratic randomness conditionally on the common path
and gamma_hat is the harmonic-mean risk aversion.  In normalized variables
(z = gamma Z, G = gamma F) each particle carries

    y_t = G + int_t^T ( gamma_hat z0_par Ebar_n^T - gamma_hat^2 |Ebar_n|^2 / 2
                        + (|z0_perp|^2 + |z1|^2) / 2 ) ds - int z dW,

with Ebar_n = Ebar[(1/gamma) z0_par], so that at a fixed point every particle
also solves the single-agent equation under theta = -gamma_hat Ebar_n^T.

The cloud discretises Ebar by the per-common-path average over its
particles, and gamma_hat by its own harmonic mean, which the solve works
out from the cloud's gammas.  So the mean-field solve is the agent solve
(bsde._solve) with theta taken, at each step of each sweep, from the frozen
cloud's own z0_par.  Step k's theta reads only step k of z0, which the
sweep rebuilds from the previous iterate's fit maps (see bsde).  A cloud of
several risk-aversion atoms gives each atom with particles its own
regression engine on its slice of the levels; theta, the mean over all
atoms, is where they meet.  One pass after the solve gives the reported
theta, sup |Y| and the BMO proxy.  The run's facts (sweeps, convergence,
the sweep-to-sweep changes and their contraction ratios) are read from the
solution; ContractionDiagnostics holds only the smallness gates of a
liability bound, which need no solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import BsdeSolution, _joined, _solve, bmo_proxy
from .liabilities import LiabilitySpec, liability_bounds
from .market import MarketSpec, PopulationStats
from .market import gamma_hat as population_stats
from .paths import PathBundle
from .regression import BasisEngine, RegressionBasis, _sum_rows
from .riccati import EqgSpec


@dataclass
class ContractionDiagnostics:
    """The smallness and stability gates of a liability bound."""

    f_inf: float
    f_cross_inf: float
    c_gamma: float
    c_gamma_spread: float
    radius: float                  # R = 2 ||F||_inf
    smallness_ok: bool             # ||F||_inf < 1 / (48 C_gamma)
    stability_ok: bool             # ||F||_inf <= 1 / (4 sqrt(2) c_gamma)


def smallness_report(
    f_inf: float,
    stats: PopulationStats,
    f_cross_inf: float,
) -> ContractionDiagnostics:
    """Evaluate the contraction and stability gates for a liability bound."""
    c_spread = stats.c_gamma_spread()
    return ContractionDiagnostics(
        f_inf=f_inf,
        f_cross_inf=f_cross_inf,
        c_gamma=stats.c_gamma,
        c_gamma_spread=c_spread,
        radius=2.0 * f_inf,
        smallness_ok=f_inf < 1.0 / (48.0 * c_spread),
        stability_ok=f_inf <= 1.0 / (4.0 * np.sqrt(2.0) * stats.c_gamma),
    )


def smallness_from_liability(
    liability: LiabilitySpec,
    spec: EqgSpec,
    grid,
    stats: PopulationStats,
) -> ContractionDiagnostics:
    bounds = liability_bounds(liability, spec, grid, stats.gamma_lo)
    return smallness_report(bounds["f_inf"], stats, f_cross_inf=bounds["f_cross_inf"])


@dataclass
class MeanFieldSolution:
    """Converged cloud solution with the implied equilibrium risk premium;
    the sweep count, convergence and changes are the solution's."""

    solution: BsdeSolution
    theta: np.ndarray          # (M0, steps, d0)
    stats: PopulationStats     # the cloud's gamma_hat, gamma_lo and gamma_hi
    y_inf: float               # empirical sup |Y| (unnormalized)
    z_bmo: float               # empirical BMO proxy of (Z0, Z1)

    @property
    def changes(self) -> list[float]:     # max(dy0, dz) of sweeps 2, 3, ...
        return [max(a, b) for a, b in zip(self.solution.y0_changes, self.solution.z_changes)]

    @property
    def ratios(self) -> list[float]:      # each change over a positive one before it
        c = self.changes
        return [c[i] / c[i - 1] for i in range(1, len(c)) if c[i - 1] > 0]


def solve_mean_field(
    bundle: PathBundle,
    market: MarketSpec,
    basis: RegressionBasis,
    g_samples: np.ndarray,
    gammas: np.ndarray,
    *,
    max_iters: int = 10,
    tol: float = 1e-4,
    clip: float = 50.0,
    engine=None,
    strata=None,
) -> MeanFieldSolution:
    """Fixed-point iteration of the mean-field map from z = 0.

    This is the agent solve with theta = -gamma_hat Ebar_n^T taken from each
    sweep's frozen input, so the loop is the agent solver's: it stops once
    max(dy0, dz) < tol, where dy0 is the sup change of the initial value over
    sup |y0| and dz the cloud-L2 change of z over the cloud-L2 norm of the
    new z, both scales floored at 1e-8.  A non-finite change, or one that
    grows for 3 consecutive sweeps, raises PicardDiverged.  A run that
    reaches max_iters otherwise returns its last iterate with
    converged = False.  gamma_hat is the cloud's own harmonic mean,
    market.gamma_hat(gammas), kept as stats; a gamma that is not positive
    and finite raises NonpositiveGamma before any regression is built.  The
    solution keeps dy0 and dz apart as y0_changes and z_changes, and its
    fits are the last sweep's z fit maps.  strata, the sizes (S,) of the
    risk-aversion atoms, tile the K particles in atom order: the first
    strata[0] particles form atom 0, and so on (None: one atom); sizes that
    do not tile K raise ValueError.  Each atom with particles gets its own
    engine on its slice of the levels; engine= replaces it for a solve of
    one atom.  Every sweep and the BMO proxy share the engines, so each
    step's regression is built once per atom.  theta's mean over the K
    agents is np.mean(..., axis=1)'s to the bit: for d0 >= 2 one einsum adds
    z0_par / gamma over the agents in order, with no (M0, K, d0) product
    formed; for d0 = 1 numpy sums that product pairwise.  The first sweep's
    z is 0, and so is its theta.  The reported theta, y_inf (sup |Y|) and
    z_bmo (BMO proxy of (Z0, Z1) = z / gamma) come from one backward pass
    over the final iterate.
    """
    dt = bundle.grid.dt
    gam = np.asarray(gammas, dtype=float)
    stats = population_stats(gam)
    K = bundle.n_agents
    sizes = np.asarray((K,) if strata is None else strata, dtype=np.int64)
    if sizes.ndim != 1 or np.any(sizes < 0) or int(sizes.sum()) != K:
        raise ValueError(f"strata {sizes.tolist()} do not tile {K} particles")
    if engine is not None:
        if sizes.size > 1:
            raise ValueError(f"an engine= solve has one atom, not {sizes.size}")
        atoms = [(slice(None), engine)]
    else:
        ends = np.cumsum(sizes).tolist()
        atoms = [(slice(e - n, e), BasisEngine(bundle.x, bundle.I, bundle.wi[:, e - n:e], basis))
                 if n else None for n, e in zip(sizes.tolist(), ends)]
    inv_g = 1.0 / gam
    inv_gamma = inv_g[None, :, None]

    def agent_mean(z0_par):
        """Ebar_n = mean over the K agents of z0_par / gamma, (M0, d0)."""
        if market.d0 == 1:
            return _sum_rows(inv_gamma * z0_par) / gam.size
        return np.einsum("mkj,k->mj", z0_par, inv_g) / gam.size

    def theta_at(k, z0_par):
        if z0_par is None:      # the zero first iterate: Ebar_n = 0
            return np.zeros((bundle.n_paths, market.d0))
        return -stats.gamma_hat * agent_mean(z0_par)

    sol = _solve(bundle, market, atoms, g_samples, theta_at, max_iters, tol, clip, tilted=False)

    # the mean field is recomputed from the final iterate, so the reported
    # theta is the one the returned solution solves
    steps, d0 = bundle.grid.steps, market.d0
    proj, _ = market.geometry(steps)
    ebar = np.empty((bundle.n_paths, steps, d0))
    y_max = [np.max(np.abs(sol.g / gam[None, :]))]

    def backward():
        for k in range(steps - 1, -1, -1):
            conds = sol.conditioners(k)
            zs = sol.z_parts(k, conds)
            ebar[:, k, :] = agent_mean(_joined({s: z[..., :d0] @ proj[k] for s, z in zs.items()}))
            y_max.append(np.max(np.abs(sol.y_at(k, conds) / gam[None, :])))
            # Z = z / gamma a component plane at a time
            planes = {s: [z[..., j] * inv_g[atoms[s][0]] for j in range(d0 + 1)]
                      for s, z in zs.items()}
            yield {s: (conds[s], zp[:d0], zp[d0:]) for s, zp in planes.items()}

    z_bmo = bmo_proxy(backward(), dt)
    return MeanFieldSolution(solution=sol, theta=-stats.gamma_hat * ebar, stats=stats,
                             y_inf=float(np.max(y_max)), z_bmo=z_bmo)
