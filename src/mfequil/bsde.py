"""Regression Monte Carlo for the quadratic-growth utility BSDE, with the
idiosyncratic coordinate integrated exactly.

The normalized value process of an exponential-utility agent facing a given
risk premium theta solves

    y_t = G + int_t^T f(s, z0, z1) ds - int z0 dW0 - int z1 dW1,
    f = -z0_par theta - |theta|^2 / 2 + (|z0_perp|^2 + |z1|^2) / 2,

where z0_par is the row-space component of z0.  Given a common path, an
agent's idiosyncratic level w_k is N(0, t_k), and every quantity of the
solve is a polynomial in it: G is linear in w_T, each fitted map has degree
< J in w (regression), and the driver degree < 2J - 1.  So a solve runs on
per-path coefficient arrays, (L, S, M0) for y and (J, S, d0 + 1, M0) for z
(the power of w first, the common paths last), one slice per
risk-aversion atom s, and takes every expectation over the
idiosyncratic noise exactly: backward induction regresses, on each step's
basis,

  * for y: E over dW1 of y_k+1(w + dW1), a polynomial shift, and the
    driver at the frozen z;
  * for z0: the shifted y_k+1 minus its fitted value, times dW0 / dt;
  * for z1: E[y_k+1(w + dW1) dW1] / dt = E[d/dw y_k+1(w + dW1)], by
    Gaussian integration by parts (Stein 1981).

Only the common noise stays Monte Carlo.  One solve, `_solve`, with one
driver, `_driver`, serves the agent, tilted and mean-field solves; they
differ only in where theta comes from (the caller's path, or the frozen
iterate's own z0_par in the mean-field solve) and in their path weights.
theta is read per path, (M0, d0) a step: a deterministic one is the case
where every path holds the same value.  Its Picard loop, `_fixed_point`,
starts from z = 0, re-freezes the quadratic driver at the latest z, and
stops once the larger of the relative y0 change and the relative z change,
in L2 over the paths, the atoms (weighted by their probabilities) and the
Gaussian law of w, is below tol.  A non-finite change, or one that grows for
3 consecutive sweeps, raises PicardDiverged.  The same backward pass, with
importance weights and theta-shifted increments, solves the
measure-changed form whose driver drops the -z0_par theta term.

z is clipped on the range the sups of this package read, w within
+-6 sqrt(t_k): an entry (path, atom, component) whose polynomial exceeds
clip there is scaled down to reach clip, and counted.  A z constant in w
(include_idio = False) is then clipped exactly as a number would be.

An engine is any object whose at(k) returns step k's conditioner, with
fit(targets (L, ..., M0)) -> (per-path coefficients (J, ..., M0), fit map)
and evaluate(fit map) -> those coefficients.  The package's engine is
regression.BasisEngine; the tests supply an exact node-mean engine for
enumerable common-noise trees.  One engine serves every atom: the atoms
share the common paths and the law of w, and differ only in their targets,
which one fit takes side by side.

The solution is its coefficients, each step's fit map: no (path, step)
array of y or z is stored.  A sweep rebuilds the previous iterate's z one
step at a time and holds y at two steps only.

Verification is the optimality-of-martingale test: along the candidate
optimum p*, the process R^p = -exp(-gamma (W^p - Y)) must be a martingale,
and a strict supermartingale along any perturbed strategy.  It runs along
one agent per common path, whose idiosyncratic levels paths.agent_levels
draws from the bundle's seed; the solve never reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PicardDiverged, WeightDegenerate
from .market import MarketSpec, TimeGrid
from .paths import PathBundle, agent_levels
from .regression import (
    BasisEngine, RegressionBasis, apply, hankel, poly_at, shift_matrix, sup_on_range,
)


@dataclass
class BsdeSolution:
    """Backward-induction output over M0 common paths and S risk-aversion atoms: its fit maps.

    g (L, S, M0) holds each atom's and path's terminal polynomial in w_T,
    probs (S,) the atoms' probabilities.  fits[k] maps step k's state to the
    z coefficients (J, S, d0 + 1, M0), z0 in the first d0 components and z1
    last, and y_fits[k] to the stage-1 pair (y_k+1, driver), so y_k =
    fitted y_k+1 + dt fitted driver.  z_coefs and y_coefs rebuild one step
    on the engine, to the bits the last sweep computed.
    """

    grid: TimeGrid
    market: MarketSpec
    engine: object
    g: np.ndarray               # (L, S, M0) terminal coefficients in w_T
    probs: np.ndarray           # (S,) atom probabilities
    fits: list                  # per step, the z fit map
    y_fits: list                # per step, the stage-1 (y, driver) fit map
    y0: float                   # initial value, averaged over paths and atoms
    picard_iters: int = 0
    converged: bool = False
    clip_count: int = 0
    y0_changes: list[float] = field(default_factory=list)   # dy0 of sweeps 2, 3, ...
    z_changes: list[float] = field(default_factory=list)    # dz of sweeps 2, 3, ...

    def z_coefs(self, k: int, cond=None) -> np.ndarray:
        """z on interval k, (J, S, d0 + 1, M0); cond is engine.at(k), when the caller has it."""
        return (self.engine.at(k) if cond is None else cond).evaluate(self.fits[k])

    def y_coefs(self, k: int, cond=None) -> np.ndarray:
        """y at node k, (J, S, M0) ((L, S, M0), g, at the last node); cond as in z_coefs."""
        if k == self.grid.steps:
            return self.g
        fitted = (self.engine.at(k) if cond is None else cond).evaluate(self.y_fits[k])
        return fitted[:, :, 0] + self.grid.dt * fitted[:, :, 1]


def _coefs(g: np.ndarray, n_paths: int) -> np.ndarray:
    """Terminal data as (L, S, M0) coefficients, as terminal_g gives them."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 3 or g.shape[2] != n_paths:
        raise ValueError(f"g must have shape (L, S, {n_paths}); got {g.shape}")
    return g


def _pathwise_theta(theta: np.ndarray, steps: int, d0: int, n_paths: int) -> np.ndarray:
    """theta of shape (steps, d0) or (M0, steps, d0) as an (M0, steps, d0) view:
    a deterministic premium is the adapted one that every path shares."""
    th = np.asarray(theta, dtype=float)
    if th.shape not in ((steps, d0), (n_paths, steps, d0)):
        raise ValueError(
            f"theta must have shape ({steps}, {d0}) or ({n_paths}, {steps}, {d0}); got {th.shape}"
        )
    return np.broadcast_to(th, (n_paths, steps, d0))


def _square(v: np.ndarray) -> np.ndarray:
    """sum_a v_a(w)^2 of per-path polynomials v (J, S, A, M0), as (2J - 1, S, M0)."""
    J = v.shape[0]
    outer = np.einsum("jsam,lsam->jlsm", v, v).reshape(J * J, -1)   # no (J, J, S, A, M0) temporary
    anti = np.zeros((2 * J - 1, J * J))
    anti[np.add.outer(np.arange(J), np.arange(J)).ravel(), np.arange(J * J)] = 1.0
    return apply(anti, outer).reshape((2 * J - 1,) + v.shape[1:2] + v.shape[3:])


def _clipped(z: np.ndarray, clip: float, t: float) -> tuple[np.ndarray, int]:
    """z (J, S, A, M0) with each entry whose polynomial exceeds clip on w in
    +-6 sqrt(t) scaled to reach it there, and the count of such entries.  A
    NaN entry is left as it is and not counted."""
    radius = (6.0 * np.sqrt(t)) ** np.arange(z.shape[0])
    if np.max(np.einsum("j,j...->...", radius, np.abs(z))) <= clip:   # a NaN fails the test
        return z, 0
    sup = sup_on_range(z, t)
    over = sup > clip
    return z * np.where(over, clip / np.where(over, sup, 1.0), 1.0), int(over.sum())


def _driver(k: int, z: np.ndarray | None, proj_k: np.ndarray, theta_at, clip: float,
            tilted: bool, t: float):
    """Step k's driver at z (J, S, d0 + 1, M0): (f (2J - 1, S, M0), clipped entries).

    z is clipped (_clipped) and z0 split by proj_k; theta = theta_at(k,
    z0_par) reads z0_par (J, S, d0, M0), and f = -z0_par theta -
    |theta|^2 / 2 + (|z0_perp|^2 + |z1|^2) / 2 as a polynomial in w, tilted
    dropping -z0_par theta.  z = None, the first sweep's zero z, gives the
    one (1, 1, M0) array 0.0 - |theta_at(k, None)|^2 / 2 for every atom:
    the general form on a zero z, sign of zero included.
    """
    if z is None:
        return (0.0 - 0.5 * np.sum(theta_at(k, None) ** 2, axis=1))[None, None, :], 0
    d0, J = proj_k.shape[0], z.shape[0]
    z, clips = _clipped(z, clip, t)
    par = np.einsum("ba,jsbm->jsam", proj_k, z[:, :, :d0])
    v = z.copy()
    v[:, :, :d0] -= par
    f = 0.5 * _square(v)
    th = theta_at(k, par).T
    if not tilted:
        f[:J] -= np.einsum("jsam,am->jsm", par, th)
    f[0] -= 0.5 * np.sum(th * th, axis=0)
    return f, clips


def _l2(z: np.ndarray, gram: np.ndarray, probs: np.ndarray) -> float:
    """sum over paths and components of E_w |z|^2, atoms weighted by probs, for z (J, S, A, M0)."""
    flat = z.reshape(z.shape[0], -1)
    per = np.einsum("jx,jx->x", flat, apply(gram, flat)).reshape(z.shape[1], -1)
    return float(per.sum(axis=1) @ probs)


def _backward_pass(engine, g: np.ndarray, probs: np.ndarray, bundle: PathBundle,
                   market: MarketSpec, theta_at, clip: float, tilted: bool,
                   prev: BsdeSolution | None):
    """One linear backward sweep with the driver frozen at the previous iterate.

    prev is the previous sweep's solution (None: z = 0).  Step k of its z is
    rebuilt on step k's conditioner, which the sweep reads anyway, and
    _driver freezes the driver there.  The stage-1 targets (the shifted
    y_k+1 and the driver) are fitted in one batch, then the stage-2 targets
    (the residual times dW0 / dt, and the derivative of the shifted y_k+1),
    every atom side by side.  A tilted sweep shifts the common increments
    by theta_at(k, None) dt; its engine carries the weights.  Returns the new
    solution, y0 (S, M0), the summed E_w-squares of the change of z and of
    the new z (None in the first sweep), and the clipped z entries.
    """
    grid = bundle.grid
    dW0, dt, times = bundle.dW0, grid.dt, grid.times
    steps, d0 = grid.steps, market.d0
    proj, _ = market.geometry(steps)
    sol = BsdeSolution(grid=grid, market=market, engine=engine, g=g, probs=probs, y0=np.nan,
                       fits=[None] * steps, y_fits=[None] * steps)
    y = g
    S, M0 = g.shape[1:]
    dz2 = z2 = None if prev is None else 0.0
    clips = 0
    for k in range(steps - 1, -1, -1):
        dw0_k = dW0[:, k, :]
        if tilted:
            dw0_k = dw0_k + theta_at(k, None) * dt
        cond = engine.at(k)
        z_old = None if prev is None else prev.z_coefs(k, cond)
        f, n_clip = _driver(k, z_old, proj[k], theta_at, clip, tilted, times[k])
        clips += n_clip
        L = y.shape[0]
        ys = apply(shift_matrix(dt, L).T, y)
        stage1 = np.zeros((max(L, f.shape[0]), S, 2, M0))
        stage1[:L, :, 0] = ys
        stage1[:f.shape[0], :, 1] = f
        fitted1, sol.y_fits[k] = cond.fit(stage1)
        J = fitted1.shape[0]
        resid = np.zeros((max(L, J), S, M0))
        resid[:L] = ys
        resid[:J] -= fitted1[:, :, 0]
        stage2 = np.zeros(resid.shape[:2] + (d0 + 1, M0))
        np.multiply(resid[:, :, None], dw0_k.T / dt, out=stage2[:, :, :d0])
        stage2[:L - 1, :, d0] = ys[1:] * np.arange(1, L)[:, None, None]
        z_new, sol.fits[k] = cond.fit(stage2)
        y = fitted1[:, :, 0] + dt * fitted1[:, :, 1]
        if z_old is not None:
            gram = hankel(times[k], J, J)
            dz2 += _l2(z_new - z_old, gram, probs)
            z2 += _l2(z_new, gram, probs)
        # free this step's arrays before the next step makes its own
        del z_old, f, ys, stage1, fitted1, resid, stage2, z_new
    y0 = y[0]          # w_0 = 0
    sol.y0 = float(np.mean(probs @ y0))
    return sol, y0, dz2, z2, clips


def _fixed_point(sweep, n: int, max_iters: int, tol: float):
    """Picard iteration of sweep from z = 0: the one loop, run by _solve.

    sweep(prev) -> (solution, y0, dz2, z2, clips) is one backward pass with
    the driver frozen at prev, the previous sweep's solution (None in the
    first sweep: z = 0).  y0 is the new (M0, S) initial value; dz2 and z2
    are the summed squares of the z change and of the new z over n path
    steps, read from the second sweep on.  From the second sweep on, dy0 is
    the sup change of y0 over sup |y0| and dz the L2 change of z over the L2
    norm of the new z, both scales floored at 1e-8.  The loop stops once
    max(dy0, dz) < tol, and raises PicardDiverged on a non-finite change or
    after 3 consecutive growing changes.  Returns the last sweep's solution
    with the sweep count, convergence, changes and clips summed over sweeps.
    max_iters < 1 raises ValueError before any sweep.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    y0_changes: list[float] = []
    z_changes: list[float] = []
    clips = grows = 0
    change_prev = np.inf
    converged = False
    sol = None
    for it in range(max_iters):
        sol, y0, dz2, z2, n_clip = sweep(sol)
        clips += n_clip
        if it:
            dy0 = float(np.max(np.abs(y0 - y0_prev))) / max(float(np.max(np.abs(y0))), 1e-8)
            dz = float(np.sqrt(dz2 / n) / max(np.sqrt(z2 / n), 1e-8))
            if not (np.isfinite(dy0) and np.isfinite(dz)):
                raise PicardDiverged(f"non-finite change at sweep {it + 1}: dy0 {dy0}, dz {dz}")
            y0_changes.append(dy0)
            z_changes.append(dz)
            change = max(dy0, dz)
            if change < tol:
                converged = True
                break
            grows = grows + 1 if change > change_prev else 0
            if grows >= 3:
                raise PicardDiverged(
                    f"change grew for 3 consecutive sweeps, to {change:.3g} at sweep {it + 1}"
                )
            change_prev = change
        y0_prev = y0
    sol.picard_iters, sol.converged, sol.clip_count = it + 1, converged, clips
    sol.y0_changes, sol.z_changes = y0_changes, z_changes
    return sol


def _solve(bundle: PathBundle, market: MarketSpec, engine, g: np.ndarray, probs: np.ndarray,
           theta_at, max_iters: int, tol: float, clip: float, tilted: bool) -> BsdeSolution:
    """The one solve behind the agent, tilted and mean-field solves: the fixed
    point of _backward_pass.  theta_at(k, z0_par) gives theta (M0, d0) at step
    k from the frozen z0_par (J, S, d0, M0), or at z = 0 given None.  The
    engine lives as long as the solution, so each step's regression is built
    in the first sweep and reused by the later ones and by every read."""
    return _fixed_point(lambda prev: _backward_pass(engine, g, probs, bundle, market, theta_at,
                                                    clip, tilted, prev),
                        bundle.n_paths * bundle.grid.steps, max_iters, tol)


def solve_agent_bsde(
    bundle: PathBundle,
    market: MarketSpec,
    basis: RegressionBasis,
    theta: np.ndarray,
    g_samples: np.ndarray,
    picard_max: int = 20,
    picard_tol: float = 1e-4,
    clip: float = 50.0,
) -> BsdeSolution:
    """Solve the normalized utility BSDE for an exogenous risk premium theta,
    of shape (steps, d0) or (M0, steps, d0); g_samples is one atom's terminal
    data, (L, 1, M0) coefficients in w_T as terminal_g gives them."""
    th = _pathwise_theta(theta, bundle.grid.steps, market.d0, bundle.n_paths)
    engine = BasisEngine(bundle.x, bundle.I, bundle.grid.times, basis)
    return _solve(bundle, market, engine, _coefs(g_samples, bundle.n_paths), np.ones(1),
                  lambda k, _: th[:, k], picard_max, picard_tol, clip, tilted=False)


def doleans_weights(theta: np.ndarray, bundle: PathBundle) -> np.ndarray:
    """Cumulative stochastic-exponential weights of -int theta^T dW0.

    Returns (M0, steps + 1), stored step-major, with D_0 = 1; D_T is the
    density of the measure under which W0 + int theta dt is Brownian.
    """
    grid = bundle.grid
    steps, dt = grid.steps, grid.dt
    M0 = bundle.n_paths
    d0 = bundle.dW0.shape[2]
    theta = _pathwise_theta(theta, steps, d0, M0)
    D = np.empty((steps + 1, M0)).T
    D[:, 0] = 1.0
    for k in range(steps):
        th = theta[:, k]
        expo = -np.einsum("mj,mj->m", th, bundle.dW0[:, k, :]) - 0.5 * dt * np.sum(th**2, axis=1)
        D[:, k + 1] = D[:, k] * np.exp(expo)
    return D


def solve_under_q(
    bundle: PathBundle,
    market: MarketSpec,
    basis: RegressionBasis,
    theta: np.ndarray,
    g_samples: np.ndarray,
    picard_max: int = 20,
    picard_tol: float = 1e-4,
    clip: float = 50.0,
) -> tuple[BsdeSolution, float]:
    """Solve the measure-changed BSDE on theta-shifted increments.

    Conditional expectations under the tilted measure are weighted
    regressions with the cumulative stochastic-exponential weights; the
    driver loses its -z0_par theta term.  Returns the solution and the
    effective sample size of the terminal weights.
    """
    M0 = bundle.n_paths
    D = doleans_weights(theta, bundle)
    wT = D[:, -1]
    ess = float(wT.sum() ** 2 / np.sum(wT**2))
    if ess < M0 / 100.0:
        raise WeightDegenerate(
            f"effective sample size {ess:.1f} below {M0 / 100:.1f}: "
            "the risk premium is too large for this measure change"
        )
    th = _pathwise_theta(theta, bundle.grid.steps, market.d0, M0)
    engine = BasisEngine(bundle.x, bundle.I, bundle.grid.times, basis, weights=D)
    sol = _solve(bundle, market, engine, _coefs(g_samples, M0), np.ones(1),
                 lambda k, _: th[:, k], picard_max, picard_tol, clip, tilted=True)
    return sol, ess


def optimal_strategy(
    solution: BsdeSolution,
    theta: np.ndarray,
    gamma: float,
    market: MarketSpec,
    levels,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate optimum of atom 0 along one agent per common path, at
    idiosyncratic levels (M0, steps + 1): gamma p* = z0_par + theta^T,
    pi* = (sigma sigma^T)^{-1} sigma p*^T.

    Returns p (M0, steps, d0) and pi (M0, steps, n), stored step-major.
    """
    steps = solution.grid.steps
    M0, d0 = levels.shape[0], market.d0
    th = _pathwise_theta(theta, steps, d0, M0)
    proj, pos = market.geometry(steps)
    p = np.empty((steps, M0, d0)).transpose(1, 0, 2)
    pi = np.empty((steps, M0, market.n)).transpose(1, 0, 2)
    for k in range(steps):
        z0 = poly_at(solution.z_coefs(k)[:, 0, :d0], levels[:, k, None])[:, 0]
        p[:, k] = (z0 @ proj[k] + th[:, k]) / gamma
        pi[:, k] = p[:, k] @ pos[k].T
    return p, pi


@dataclass(frozen=True)
class Perturbation:
    """Strategy perturbation p = scale * p_star + offset (offset row-projected)."""

    label: str
    scale: float
    offset: tuple[float, ...] | None


@dataclass
class VerificationReport:
    """Martingale diagnostics for R^p along the candidate optimum and perturbations."""

    aggregate_z: float
    max_step_z: float
    utility_star: float
    perturbed: list[dict]


def _wealth_paths(p: np.ndarray, bundle: PathBundle, th: np.ndarray, dt: float):
    """W_{k+1} = W_k + p_k (dW0_k + theta_k dt), W_0 = 0, for p and theta of
    shape (M0, steps, d0): (M0, steps + 1), stored step-major."""
    M0, steps, _ = p.shape
    W = np.empty((steps + 1, M0)).T
    W[:, 0] = 0.0
    for k in range(steps):
        drive = bundle.dW0[:, k, :] + th[:, k] * dt
        W[:, k + 1] = W[:, k] + np.einsum("mj,mj->m", p[:, k], drive)
    return W


def verify_condition_r(
    solution: BsdeSolution,
    bundle: PathBundle,
    market: MarketSpec,
    theta: np.ndarray,
    gamma: float,
    g_samples: np.ndarray,
    perturbations: list[Perturbation],
) -> VerificationReport:
    """Drift test of R^p = -exp(-gamma (W^p - Y)) along p* and perturbations,
    on one agent per common path at its idiosyncratic levels
    paths.agent_levels(bundle); g_samples is the solve's terminal data.

    Along p* the per-step and aggregate drifts must be statistically zero;
    along every perturbation the aggregate drift must be significantly
    negative and the terminal utility lower, the quadratic penalty
    (gamma^2/2)|p - p*|^2 being the mechanism.
    """
    grid = solution.grid
    steps, dt = grid.steps, grid.dt
    M0 = bundle.n_paths
    d0 = market.d0
    th = _pathwise_theta(theta, steps, d0, M0)
    proj, _ = market.geometry(steps)
    w = agent_levels(bundle)

    p_star, _ = optimal_strategy(solution, theta, gamma, market, w)
    Y = np.stack([poly_at(solution.y_coefs(k)[:, :1], w[:, k, None])[:, 0, 0]
                  for k in range(steps + 1)], axis=1) / gamma
    F = poly_at(_coefs(g_samples, M0)[:, :1], w[:, steps, None])[:, 0, 0] / gamma
    del w               # the levels are read: the drift tests run without them

    def drift_stats(p):
        W = _wealth_paths(p, bundle, th, dt)
        R = -np.exp(-gamma * (W - Y))
        dR = np.diff(R, axis=1)
        step_mean = dR.mean(axis=0)
        step_se = dR.std(axis=0, ddof=1) / np.sqrt(M0)
        step_z = step_mean / step_se
        total = R[:, -1] - R[:, 0]
        agg_z = float(total.mean() / (total.std(ddof=1) / np.sqrt(M0)))
        utility = -np.exp(-gamma * (W[:, -1] - F))
        return agg_z, float(np.max(np.abs(step_z))), utility

    agg_z, max_step_z, u_star = drift_stats(p_star)

    rows = []
    for pert in perturbations:
        p = pert.scale * p_star
        if pert.offset is not None:
            off = np.asarray(pert.offset, dtype=float)
            for k in range(steps):
                p[:, k] += off @ proj[k]
        z, _, u = drift_stats(p)
        gap = u.mean() - u_star.mean()
        gap_se = float((u - u_star).std(ddof=1) / np.sqrt(u.size))
        rows.append(
            {
                "label": pert.label,
                "drift_z": -z,
                "utility": float(u.mean()),
                "utility_gap": float(gap),
                "utility_gap_se": gap_se,
            }
        )
    return VerificationReport(
        aggregate_z=agg_z,
        max_step_z=max_step_z,
        utility_star=float(u_star.mean()),
        perturbed=rows,
    )


def bmo_proxy(backward, grid: TimeGrid) -> float:
    """Regression estimate of sup_t E[ int_t^T |z|^2 ds | F_t ].

    backward yields, for k = steps - 1, ..., 0, (k, step k's conditioner, z
    on interval k as per-path coefficients (J, S, A, M0)).  Each atom's
    remaining quadratic variation R_k = |z_k|^2 dt + E over dW1 of
    R_k+1(w + dW1) is accumulated backward as a polynomial in w, fitted on
    its step's basis, and the sup of the fitted values over the paths, the
    atoms and w within +-6 sqrt(t_k) is returned.
    """
    dt, times = grid.dt, grid.times
    remaining = None
    out = 0.0
    for k, cond, z in backward:
        q = dt * _square(z)
        if remaining is not None:
            n = remaining.shape[0]
            q[:n] += apply(shift_matrix(dt, n).T, remaining)
        remaining = q
        fitted, _ = cond.fit(remaining)
        out = max(out, float(np.max(sup_on_range(fitted, times[k], absolute=False))))
    return out
