"""Reference code that only the tests use.

Each definition here checks, or stands in for, part of the package from
outside it, built on its public names only:

* cole_hopf_oracle, cole_hopf_idio: log E[exp(G)] by sampling, and the
  closed-form value of the idiosyncratic leg kappa W^i_T;
* level_array: every Brownian level of a bundle's increments, by np.cumsum;
* fubini_malliavin_check, coarsen_bundle: the integral-swap identity of the
  a = 0 model, and the same noise on a coarser grid to refine it on;
* GroupMeanConditioner, TreeEngine: exact conditional expectations on an
  enumerable noise tree, an engine the solver accepts in place of its
  BasisEngine (the contract is in the bsde docstring);
* project, risk_premium_from_mu: the row-space split of z through
  market_geometry's projector, and theta = mu M through its position map,
  each factorising sigma sigma^T afresh for the sigma it is given.
"""

from __future__ import annotations

import numpy as np

from mfequil import EqgSpec, PathBundle, TimeGrid, market_geometry
from mfequil.errors import DimensionMismatch
from mfequil.paths import step_major


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
    array, 0 at t = 0, by np.cumsum: the whole array a Levels reads a level
    at a time."""
    return np.concatenate([np.zeros((*dw.shape[:2], 1)), np.cumsum(dw, axis=2)], axis=2)


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


class GroupMeanConditioner:
    """Exact conditional expectation by averaging within integer key groups.

    Suitable for enumerable noise trees where every path with the same key
    shares the same information set.
    """

    def __init__(self, keys: np.ndarray):
        uniq, inv = np.unique(np.asarray(keys), return_inverse=True)
        self.inv = inv
        self.n_groups = uniq.size
        self.denom = np.bincount(inv, minlength=self.n_groups).astype(float)

    def fit(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fitted values (same leading shape) and the group means, its fit map."""
        squeeze = targets.ndim == 1
        ys = targets[:, None] if squeeze else targets
        r = ys.shape[1]
        means = np.empty((self.n_groups, r))
        for j in range(r):
            means[:, j] = np.bincount(self.inv, weights=ys[:, j], minlength=self.n_groups)
        means /= self.denom[:, None]
        out = self.evaluate(means)
        return (out[:, 0] if squeeze else out), means

    def evaluate(self, means: np.ndarray) -> np.ndarray:
        """Group means spread back to their rows, (P, r)."""
        return means[self.inv]


class TreeEngine:
    """Per-step GroupMeanConditioner factory from precomputed path keys.

    Each step's group index is built once and kept for the engine's lifetime;
    it is as large as the keys, so this suits enumerable trees only.
    """

    def __init__(self, keys_per_step: list[np.ndarray]):
        self.keys = keys_per_step
        self._memo: dict[int, GroupMeanConditioner] = {}

    def at(self, k: int) -> GroupMeanConditioner:
        if k not in self._memo:
            self._memo[k] = GroupMeanConditioner(self.keys[k])
        return self._memo[k]


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
