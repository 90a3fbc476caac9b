"""Mean-field BSDE solver on common paths, with the idiosyncratic law integrated exactly.

The equilibrium risk premium of a continuum of exponential-utility agents is
theta_t = -gamma_hat Ebar[Z0_par_t]^T, where Ebar averages the common-noise
integrand over the idiosyncratic randomness conditionally on the common path
and gamma_hat is the harmonic-mean risk aversion.  In normalized variables
(z = gamma Z, G = gamma F) each agent carries

    y_t = G + int_t^T ( gamma_hat z0_par Ebar_n^T - gamma_hat^2 |Ebar_n|^2 / 2
                        + (|z0_perp|^2 + |z1|^2) / 2 ) ds - int z dW,

with Ebar_n = Ebar[(1/gamma) z0_par], so that at a fixed point every agent
also solves the single-agent equation under theta = -gamma_hat Ebar_n^T.

Given a common path, Ebar is an integral over the agents' idiosyncratic
level w ~ N(0, t) and their risk-aversion atoms, and every map of the solve
is a polynomial in w (see bsde), so it is taken exactly: with p_s the atom
probabilities and C_s,j the per-path coefficients of atom s's z0_par,

    theta = -gamma_hat sum_s (p_s / gamma_s) sum_j C_s,j mu_j(t),

mu_j(t) = E[w^j], and gamma_hat = 1 / sum_s p_s / gamma_s.  Only the common
noise is sampled.  So the mean-field solve is the agent solve (bsde._solve)
over the atoms, the gamma law's values, side by side, with theta taken at
each step of each sweep from the frozen iterate's own z0_par.  Step k's
theta reads only step k of z0, which the sweep rebuilds from the previous
iterate's fit maps.  One pass after the solve gives the reported theta,
sup |Y| and the BMO proxy, the sups over paths, atoms and w within
+-6 sqrt(t_k).  The run's facts (sweeps, convergence, the sweep-to-sweep
changes and their contraction ratios) are read from the solution;
ContractionDiagnostics holds only the smallness gates of a liability
bound, which need no solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import BsdeSolution, _coefs, _solve, bmo_proxy
from .liabilities import LiabilitySpec, liability_bounds
from .market import MarketSpec, PopulationStats
from .market import gamma_hat as population_stats
from .paths import PathBundle
from .regression import BasisEngine, RegressionBasis, gauss_moments, sup_on_range
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
    """Converged solution with the implied equilibrium risk premium;
    the sweep count, convergence and changes are the solution's."""

    solution: BsdeSolution
    theta: np.ndarray          # (M0, steps, d0)
    stats: PopulationStats     # the gamma law's gamma_hat, gamma_lo and gamma_hi
    y_inf: float               # sup |Y| (unnormalized) over paths, atoms and w
    z_bmo: float               # BMO proxy of (Z0, Z1)

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
    probs: np.ndarray,
    max_iters: int = 10,
    tol: float = 1e-4,
    clip: float = 50.0,
    engine=None,
) -> MeanFieldSolution:
    """Fixed-point iteration of the mean-field map from z = 0.

    gammas (S,) are the risk-aversion atoms and probs (S,) their
    probabilities; g_samples (L, S, M0) holds each atom's
    terminal polynomial in w_T, as terminal_g gives it for gammas.  This is
    the agent solve with theta = -gamma_hat Ebar_n^T taken from each sweep's
    frozen input, so the loop is the agent solver's: it stops once
    max(dy0, dz) < tol, where dy0 is the sup change of the initial value
    over sup |y0| and dz the L2 change of z over the L2 norm of the new z
    (over paths, atoms weighted by probs, and the law of w), both scales
    floored at 1e-8.  A non-finite change, or one that grows for 3
    consecutive sweeps, raises PicardDiverged.  A run that reaches max_iters
    otherwise returns its last iterate with converged = False.  gamma_hat is
    the law's harmonic mean, market.gamma_hat(gammas, probs), kept as stats;
    a gamma that is not positive and finite raises NonpositiveGamma, and
    probs that are not one nonnegative entry per atom summing to 1, or a g
    of another atom count, ValueError, before any regression is built.  One
    engine serves every atom (engine= replaces the basis's), so each step's
    regression is built once.  The
    first sweep's z is 0, and so is its theta.  The reported theta, y_inf
    (sup |Y|) and z_bmo (BMO proxy of (Z0, Z1) = z / gamma) come from one
    backward pass over the final iterate.
    """
    grid = bundle.grid
    gam = np.asarray(gammas, dtype=float)
    p = np.asarray(probs, dtype=float)
    stats = population_stats(gam, p)
    g = _coefs(g_samples, bundle.n_paths)
    if g.shape[1] != gam.size:
        raise ValueError(f"g has {g.shape[1]} atoms for {gam.size} risk aversions")
    if engine is None:
        engine = BasisEngine(bundle.x, bundle.I, grid.times, basis)
    weight = p / gam
    steps, d0 = grid.steps, market.d0
    proj, _ = market.geometry(steps)

    def agent_mean(k, z0_par):
        """Ebar_n = sum_s (p_s / gamma_s) E_w[z0_par_s] at step k, (M0, d0)."""
        mu = gauss_moments(grid.times[k], z0_par.shape[0])
        return np.einsum("jsam,j,s->ma", z0_par, mu, weight)

    def theta_at(k, z0_par):
        if z0_par is None:      # the zero first iterate: Ebar_n = 0
            return np.zeros((bundle.n_paths, d0))
        return -stats.gamma_hat * agent_mean(k, z0_par)

    sol = _solve(bundle, market, engine, g, p, theta_at, max_iters, tol, clip, tilted=False)

    # the mean field is recomputed from the final iterate, so the reported
    # theta is the one the returned solution solves
    ebar = np.empty((bundle.n_paths, steps, d0))
    inv_g = 1.0 / gam
    y_max = [np.max(sup_on_range(g * inv_g[:, None], grid.horizon))]

    def backward():
        for k in range(steps - 1, -1, -1):
            cond = engine.at(k)
            z = sol.z_coefs(k, cond)
            ebar[:, k, :] = agent_mean(k, np.einsum("ba,jsbm->jsam", proj[k], z[:, :, :d0]))
            y_max.append(np.max(sup_on_range(sol.y_coefs(k, cond) * inv_g[:, None],
                                             grid.times[k])))
            yield k, cond, z * inv_g[:, None, None]

    z_bmo = bmo_proxy(backward(), grid)
    return MeanFieldSolution(solution=sol, theta=-stats.gamma_hat * ebar, stats=stats,
                             y_inf=float(np.max(y_max)), z_bmo=z_bmo)
