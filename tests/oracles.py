"""Reference code that only the tests use.

Each definition here checks, or stands in for, part of the package from
outside it, built on its public names only:

* cole_hopf_oracle, cole_hopf_idio: log E[exp(G)] by sampling, and the
  closed-form value of the idiosyncratic leg kappa W^i_T;
* level_array: every Brownian level of a bundle's increments, by np.cumsum;
* pool_levels, agent_strategies: the clearing pool's levels as one array,
  and each pool agent's own position read from them, the per-agent
  reference for clearing.per_capita_positions;
* fubini_malliavin_check, coarsen_bundle: the integral-swap identity of the
  a = 0 model, and the same noise on a coarser grid to refine it on;
* NodeMeanConditioner, TreeEngine: exact conditional expectations on an
  enumerable common-noise tree, on polynomial targets in w, an engine the
  solver accepts in place of its BasisEngine (the contract is in the bsde
  docstring);
* normal_moments, gauss_hermite, quadrature_fit: the Gaussian law of w by
  its moments and by Gauss-Hermite quadrature, and one step's regression as
  an explicit least-squares problem over (path, node) rows;
* particle_agent_solve: the agent solve by plain regression Monte Carlo on
  sampled particles, whose K -> infinity limit the package computes;
* project, risk_premium_from_mu: the row-space split of z through
  market_geometry's projector, and theta = mu M through its position map,
  each factorising sigma sigma^T afresh for the sigma it is given.
"""

from __future__ import annotations

import numpy as np

from mfequil import EqgSpec, PathBundle, TimeGrid, market_geometry
from mfequil.errors import DimensionMismatch
from mfequil.paths import KIND_AUX, normal_block_array, step_major
from mfequil.regression import poly_at


def cole_hopf_oracle(g_samples: np.ndarray) -> float:
    """log E[exp(G)] by a max-shifted log-sum-exp over terminal samples."""
    g = np.asarray(g_samples, dtype=float).ravel()
    m = float(np.max(g))
    return m + float(np.log(np.mean(np.exp(g - m))))


def cole_hopf_idio(kappa: float, grid: TimeGrid, bundle: PathBundle):
    """Idiosyncratic value leg for the terminal liability kappa W^i_T.

    log E[exp(kappa W_T) | F_t] = kappa W_t + kappa^2 (T - t) / 2 for a
    Brownian motion W; the integrand z1 = kappa is constant.
    """
    tail = 0.5 * kappa * kappa * (grid.horizon - grid.times)
    return kappa * level_array(bundle.dWi) + tail[None, None, :], np.array([kappa])


def level_array(dw: np.ndarray) -> np.ndarray:
    """All levels of the increments dw (M, K, steps) in one (M, K, steps + 1)
    array, 0 at t = 0, by np.cumsum."""
    return np.concatenate([np.zeros((*dw.shape[:2], 1)), np.cumsum(dw, axis=2)], axis=2)


def pool_levels(seed: int, n_common: int, n_agents: int, grid: TimeGrid) -> np.ndarray:
    """The clearing pool's levels (M0, N, steps + 1) as one array: the keyed
    normals drawn whole, times sqrt(dt), summed by np.cumsum."""
    dw = normal_block_array(seed, KIND_AUX, (n_common, n_agents, grid.steps)) * np.sqrt(grid.dt)
    return level_array(dw)


def agent_strategies(mf, population, w_agents: np.ndarray, k: int):
    """Optimal positions of pool agents at step k under the fitted solution
    map, one agent at a time: each risk-aversion atom's z polynomial is read
    at its own agents' levels w_agents[:, :, k] (w_agents (M0, N,
    steps + 1)), by index, so the pool may come in any order.  A solve of
    one atom reads every agent through it; an agent whose atom the solve
    does not hold raises ValueError.  Returns p (M0, N, d0) in Brownian
    coordinates and pi (M0, N, n) in security units, in the pool's order."""
    sol = mf.solution
    M0, N, d0 = w_agents.shape[0], population.size, sol.market.d0
    proj, pos = sol.market.geometry(sol.grid.steps)
    z = sol.z_coefs(k)
    n_atoms = z.shape[1]
    ids = population.atom_ids if n_atoms > 1 else np.zeros(N, dtype=np.int64)
    w_k = w_agents[:, :, k]
    z_hat = np.empty((M0, N, d0))
    for s in np.unique(ids).tolist():
        idx = np.flatnonzero(ids == s)
        if s >= n_atoms:
            raise ValueError(f"atom {s} has {idx.size} pool agents but the solve has "
                             f"{n_atoms} atoms")
        z_hat[:, idx] = poly_at(z[:, s, :d0], w_k[:, idx])
    p = (z_hat @ proj[k] + mf.theta[:, k, None, :]) / population.gammas[:, None]
    return p, p @ pos[k].T


def fubini_malliavin_check(bundle: PathBundle, spec: EqgSpec) -> float:
    """Max pathwise gap between two representations of the same integral.

    For a = 0 the stochastic integral of B(t, T) against dW0 equals the time
    integral of b times the stochastic convolution int_0^t e^{alpha (t-s)}
    delta dW0_s.  Both sides are discretised with left-endpoint sums on the
    bundle grid; the gap is pure discretisation error and must vanish under
    grid refinement of a fixed Brownian path.
    """
    if spec.a != 0.0:
        raise ValueError("the swap identity is only used in the a = 0 model")
    grid = bundle.grid
    steps, dt = grid.steps, grid.dt
    T = grid.horizon
    times = grid.times
    if abs(spec.alpha) < 1e-14:
        B = spec.b * (T - times)
    else:
        B = (spec.b / spec.alpha) * (np.exp(spec.alpha * (T - times)) - 1.0)

    ddw = bundle.dW0 @ spec.delta_vec          # (M, steps)
    lhs = ddw @ B[:-1]

    decay = np.exp(spec.alpha * dt)
    inner = np.zeros(bundle.n_paths)
    rhs = np.zeros(bundle.n_paths)
    for k in range(steps):
        rhs += inner * dt
        inner = decay * (inner + ddw[:, k])
    rhs *= spec.b
    return float(np.max(np.abs(lhs - rhs)))


def coarsen_bundle(bundle: PathBundle, factor: int, spec: EqgSpec) -> PathBundle:
    """Aggregate increments onto a grid `factor` times coarser, same noise.

    Used for refinement studies on a fixed Brownian path: the coarse bundle's
    increments are sums of the fine ones, and the factor path x and its
    left-rule running cost I are re-run with Euler on the coarse grid, in
    the operation order of simulate_paths.
    """
    grid = bundle.grid
    if grid.steps % factor != 0:
        raise ValueError(f"steps {grid.steps} not divisible by factor {factor}")
    steps_c = grid.steps // factor
    coarse_grid = TimeGrid(grid.horizon, steps_c)
    M, _, d0 = bundle.dW0.shape
    K = bundle.n_agents
    dW0 = bundle.dW0.reshape(M, steps_c, factor, d0).sum(axis=2)
    dWi = step_major((M, K, steps_c))
    np.sum(bundle.dWi.reshape(M, K, steps_c, factor), axis=3, out=dWi)

    dt = coarse_grid.dt
    x = np.empty((M, steps_c + 1))
    I = np.empty((M, steps_c + 1))
    x[:, 0] = spec.x0
    I[:, 0] = 0.0
    for k in range(steps_c):
        xk = x[:, k]
        I[:, k + 1] = I[:, k] + (spec.a * xk * xk + spec.b * xk) * dt
        x[:, k + 1] = xk + (spec.alpha * xk + spec.beta) * dt + dW0[:, k] @ spec.delta_vec
    return PathBundle(grid=coarse_grid, dW0=dW0, dWi=dWi, x=x, I=I)


def normal_moments(t: float, n: int) -> np.ndarray:
    """E[w^p], p < n, for w ~ N(0, t), from the double factorial."""
    return np.array([0.0 if p % 2 else float(np.prod(np.arange(p - 1, 0, -2))) * t ** (p // 2)
                     for p in range(n)])


def gauss_hermite(t: float, n: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Hermite nodes and weights of N(0, t): exact for polynomials
    of degree < 2n."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    return np.sqrt(t) * nodes, weights / weights.sum()


class NodeMeanConditioner:
    """Exact conditional expectation on an enumerable common-noise tree, on
    polynomial targets: a target (L, ..., M0) of per-path polynomials in
    w ~ N(0, t) is projected in L2 onto the polynomials of degree < J (the
    pseudo-inverse of the moment matrix, so at t = 0 onto the constants),
    then averaged over the paths that share a node key.  Its fit map is the
    node means."""

    def __init__(self, keys: np.ndarray, t: float, J: int):
        uniq, self.inv = np.unique(np.asarray(keys), return_inverse=True)
        self.n_groups = uniq.size
        self.denom = np.bincount(self.inv, minlength=self.n_groups).astype(float)
        self.t, self.J = t, J

    def fit(self, targets: np.ndarray):
        L, M0 = targets.shape[0], targets.shape[-1]
        mom = normal_moments(self.t, L + self.J)
        gram = mom[np.add.outer(np.arange(self.J), np.arange(self.J))]
        cross = mom[np.add.outer(np.arange(self.J), np.arange(L))]
        c = (np.linalg.pinv(gram) @ cross @ targets.reshape(L, -1)).reshape(self.J, -1, M0)
        means = np.empty(c.shape[:2] + (self.n_groups,))
        for j in range(self.J):
            for r in range(c.shape[1]):
                means[j, r] = np.bincount(self.inv, weights=c[j, r], minlength=self.n_groups)
        means /= self.denom
        means = means.reshape((self.J,) + targets.shape[1:-1] + (self.n_groups,))
        return self.evaluate(means), means

    def evaluate(self, means: np.ndarray) -> np.ndarray:
        """Node means spread back to their paths, (J, ..., M0)."""
        return means[..., self.inv]


class TreeEngine:
    """Per-step NodeMeanConditioner factory from precomputed common-node keys,
    an engine the solver accepts in place of its BasisEngine."""

    def __init__(self, keys_per_step: list[np.ndarray], times: np.ndarray, J: int):
        self.keys, self.times, self.J = keys_per_step, times, J
        self._memo: dict[int, NodeMeanConditioner] = {}

    def at(self, k: int) -> NodeMeanConditioner:
        if k not in self._memo:
            self._memo[k] = NodeMeanConditioner(self.keys[k], self.times[k], self.J)
        return self._memo[k]


def quadrature_fit(basis_degree: int, include_idio: bool, x_k, i_k, t: float, weights,
                   target_at) -> np.ndarray:
    """One step's regression as an explicit weighted least-squares problem
    over (path, Gauss-Hermite node) rows: columns 1, x^i w^j (1 <= i + j <=
    degree; j = 0 without include_idio) and I, row weights weights[m] times
    the node weight, targets target_at(w) (M0, r) at each node w (M0,).
    Returns the fitted values on the rows, (M0, nodes, r)."""
    nodes, node_w = gauss_hermite(t)
    M0 = x_k.shape[0]
    cols = []
    for total in range(1, basis_degree + 1):
        for j in range((total if include_idio else 0) + 1):
            cols.append(x_k[:, None] ** (total - j) * nodes[None, :] ** j)
    cols.append(np.repeat(i_k[:, None], nodes.size, axis=1))
    design = np.stack([np.ones((M0, nodes.size))] + cols, axis=-1).reshape(-1, len(cols) + 1)
    y = np.stack([target_at(np.full(M0, w)) for w in nodes], axis=1)      # (M0, nodes, r)
    root = np.sqrt((weights[:, None] * node_w[None, :]).ravel())
    beta = np.linalg.lstsq(design * root[:, None], y.reshape(design.shape[0], -1) * root[:, None],
                           rcond=None)[0]
    return (design @ beta).reshape(y.shape)


def particle_agent_solve(bundle: PathBundle, proj: np.ndarray, theta: np.ndarray, g0, g1,
                         dwi: np.ndarray, degree: int, sweeps: int) -> float:
    """y0 of the agent BSDE by plain regression Monte Carlo on a particle
    cloud: K particles per common path with idiosyncratic increments dwi
    (M0, K, steps), G = g0 + g1 w_T for per-path g0, g1 (M0,), a constant
    premium theta (d0,) and the projector proj (d0, d0).  Each step regresses
    the (path, particle) rows on the explicit design 1, x^i w^j (1 <= i + j
    <= degree), I with np.linalg.lstsq: first (y_k+1, driver), then the
    residual times (dW0, dWi) / dt; Picard sweeps from z = 0."""
    grid = bundle.grid
    dt, steps = grid.dt, grid.steps
    M0, K = dwi.shape[:2]
    d0 = bundle.dW0.shape[2]
    w = np.concatenate([np.zeros((M0, K, 1)), np.cumsum(dwi, axis=2)], axis=2)
    g = g0[:, None] + g1[:, None] * w[:, :, -1]
    th = np.asarray(theta, dtype=float)

    def design(k):
        x, wk = np.broadcast_to(bundle.x[:, k, None], (M0, K)), w[:, :, k]
        cols = ([np.ones_like(wk)] + [x ** (t - j) * wk ** j for t in range(1, degree + 1)
                                      for j in range(t + 1)]
                + [np.broadcast_to(bundle.I[:, k, None], (M0, K))])
        return np.stack(cols, axis=-1).reshape(M0 * K, -1)

    z = None
    for _ in range(sweeps):
        y = g
        z_new = np.empty((steps, M0, K, d0 + 1))
        for k in range(steps - 1, -1, -1):
            X = design(k)
            if z is None:
                f = np.full((M0, K), -0.5 * th @ th)
            else:
                par = z[k, ..., :d0] @ proj
                perp = z[k, ..., :d0] - par
                f = (-par @ th - 0.5 * th @ th
                     + 0.5 * (np.sum(perp**2, axis=-1) + z[k, ..., d0] ** 2))
            b1 = np.linalg.lstsq(X, np.stack([y.ravel(), f.ravel()], axis=1), rcond=None)[0]
            fit1 = (X @ b1).reshape(M0, K, 2)
            resid = y - fit1[..., 0]
            prods = np.concatenate([resid[..., None] * bundle.dW0[:, k, None, :],
                                    (resid * dwi[:, :, k])[..., None]], axis=-1) / dt
            b2 = np.linalg.lstsq(X, prods.reshape(M0 * K, -1), rcond=None)[0]
            z_new[k] = (X @ b2).reshape(M0, K, d0 + 1)
            y = fit1[..., 0] + dt * fit1[..., 1]
        z = z_new
    return float(np.mean(y))


def project(sigma: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split row vectors z into (z_par, z_perp) w.r.t. the row space of sigma.

    z may have arbitrary leading shape with trailing dimension d0; z_par is
    z P with P the projector of `market_geometry`.  Pythagoras holds
    componentwise: |z|^2 = |z_par|^2 + |z_perp|^2.
    """
    sigma = np.asarray(sigma, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != sigma.shape[1]:
        raise DimensionMismatch(
            f"z has trailing dimension {z.shape[-1]}, sigma has d0={sigma.shape[1]}"
        )
    proj, _ = market_geometry(sigma)
    z_par = z @ proj
    return z_par, z - z_par


def risk_premium_from_mu(sigma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Market price of risk theta = sigma^T (sigma sigma^T)^{-1} mu.

    mu may have arbitrary leading shape with trailing dimension n; the result
    mu M, with M the position map of `market_geometry`, has trailing
    dimension d0 and lies in the row space of sigma.
    """
    sigma = np.asarray(sigma, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mu.shape[-1] != sigma.shape[0]:
        raise DimensionMismatch(
            f"mu has trailing dimension {mu.shape[-1]}, sigma has n={sigma.shape[0]}"
        )
    _, pos = market_geometry(sigma)
    return mu @ pos
