"""Regression Monte Carlo for the quadratic-growth utility BSDE.

The normalized value process of an exponential-utility agent facing a given
risk premium theta solves

    y_t = G + int_t^T f(s, z0, z1) ds - int z0 dW0 - int z1 dW1,
    f = -z0_par theta - |theta|^2 / 2 + (|z0_perp|^2 + |z1|^2) / 2,

where z0_par is the row-space component of z0.  The solver runs backward
induction on simulated paths: z is estimated by regressing the centred
product of the next-step value with the Brownian increment, y by regressing
the next-step value plus the frozen driver.  One solve, `_solve`, with one
driver, `_driver`, serves the agent, tilted and mean-field solves; they
differ only in where theta comes from (the caller's path, or the cloud's
own z0_par in the mean-field solve) and in the engine they regress with.
theta is read per path, (M0, d0) a step: a deterministic one is the case
where every path holds the same value.
Its Picard loop, `_fixed_point`, starts from z = 0, re-freezes the
quadratic driver at the latest z, and stops once the larger of the relative
y0 change and the relative cloud-L2 z change is below tol.  A non-finite
change, or one that grows for 3 consecutive sweeps, raises PicardDiverged.
The same backward pass, with importance weights and theta-shifted
increments, solves the measure-changed form whose driver drops the
-z0_par theta term.

An engine is any object whose at(k) returns step k's conditioner, with
fit(targets) -> (fitted values, fit map) and evaluate(fit map) -> the
map's values on that step's rows.  The package's engine is
regression.BasisEngine; the tests supply an exact group-mean engine for
enumerable noise trees.  A solve holds a list of risk-aversion atoms, each
a contiguous range of the particle axis with its own engine; the agent and
tilted solves have one atom of all particles.  The atoms meet only in
theta and in the sums over all particles (theta's agent mean, the stopping
rule's sums, y0's mean), which read one (M0, K, ...) array of the atoms'
parts side by side.

The solution is its coefficients, each step's fit map per atom on that
atom's basis: no (particle, step) array of y or z is stored.  A sweep
rebuilds the previous iterate's z one step at a time and holds y at two
steps only.

Verification is the optimality-of-martingale test: along the candidate
optimum p*, the process R^p = -exp(-gamma (W^p - Y)) must be a martingale,
and a strict supermartingale along any perturbed strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PicardDiverged, WeightDegenerate
from .market import MarketSpec, TimeGrid
from .paths import PathBundle, step_major
from .regression import BasisEngine, RegressionBasis


@dataclass
class BsdeSolution:
    """Backward-induction output on a particle cloud of shape (M0, K): its fit maps.

    atoms[s] is risk-aversion atom s: its contiguous range of the particle
    axis and its engine, or None for an atom with no particle.  fits[k][s]
    maps atom s's state at step k to (z0, z1) and y_fits[k][s] to the
    stage-1 pair (y_k+1, driver), so y_k = fitted y_k+1 + dt fitted driver.
    z_at and y_at rebuild one step on the atoms' engines, to the bits the
    last sweep computed.
    """

    grid: TimeGrid
    market: MarketSpec
    atoms: list                 # (particle range, engine) per atom; None: no particle
    g: np.ndarray               # (M0, K) terminal values
    fits: list                  # per step, {atom: z fit map}
    y_fits: list                # per step, {atom: stage-1 (y, driver) fit map}
    y0: float                   # mean initial value
    picard_iters: int = 0
    converged: bool = False
    clip_count: int = 0
    y0_changes: list[float] = field(default_factory=list)   # dy0 of sweeps 2, 3, ...
    z_changes: list[float] = field(default_factory=list)    # dz of sweeps 2, 3, ...

    def conditioners(self, k: int) -> dict:
        """Step k's conditioner of each atom with particles, {atom: conditioner}."""
        return {s: atom[1].at(k) for s, atom in enumerate(self.atoms) if atom is not None}

    def z_parts(self, k: int, conds: dict) -> dict:
        """z on interval k per atom, {atom: (M0, K_s, d0 + 1)}, z0 in the first
        d0 columns, z1 last; conds is conditioners(k)."""
        return self._read(self.fits[k], conds)

    def z_at(self, k: int, conds=None) -> np.ndarray:
        """z (M0, K, d0 + 1) on interval k; conds as in z_parts, when the caller has it."""
        return _joined(self.z_parts(k, self.conditioners(k) if conds is None else conds))

    def y_at(self, k: int, conds=None) -> np.ndarray:
        """y (M0, K) on node k; conds as in z_at."""
        if k == self.grid.steps:
            return self.g
        fitted = self._read(self.y_fits[k], self.conditioners(k) if conds is None else conds)
        return _joined({s: f[..., 0] + self.grid.dt * f[..., 1] for s, f in fitted.items()})

    def _read(self, fits: dict, conds: dict) -> dict:
        """Each atom's fit map on its rows, {atom: (M0, K_s, r)}."""
        out = {}
        for s, cond in conds.items():
            vals = cond.evaluate(fits[s])
            out[s] = vals.reshape(self.g.shape[0], -1, vals.shape[1])
        return out


def _joined(parts: dict) -> np.ndarray:
    """Per-atom (M0, K_s, ...) arrays side by side on the particle axis: (M0, K, ...)."""
    vals = list(parts.values())
    return vals[0] if len(vals) == 1 else np.concatenate(vals, axis=1)


def _sum_last(planes: list) -> np.ndarray:
    """np.sum(a, axis=-1) of the array a whose last-axis planes a[..., j] are
    planes, added in order: the same sums below 8 planes, and faster.  The one
    adder of component planes; short-axis elementwise work runs a plane at a
    time, since numpy runs an op over a trailing axis of 2-3 entries slowly."""
    return sum(planes[1:], planes[0])


def _pathwise_theta(theta: np.ndarray, steps: int, d0: int, n_paths: int) -> np.ndarray:
    """theta of shape (steps, d0) or (M0, steps, d0) as an (M0, steps, d0) view:
    a deterministic premium is the adapted one that every path shares."""
    th = np.asarray(theta, dtype=float)
    if th.shape not in ((steps, d0), (n_paths, steps, d0)):
        raise ValueError(
            f"theta must have shape ({steps}, {d0}) or ({n_paths}, {steps}, {d0}); got {th.shape}"
        )
    return np.broadcast_to(th, (n_paths, steps, d0))


def _driver(k: int, zs: dict | None, atoms: list, shape: tuple, proj_k: np.ndarray, theta_at,
            clip: float, tilted: bool):
    """Step k's driver at zs, {atom: z (M0, K_s, d0 + 1)}: ({atom: f}, clipped entries).

    Each atom's z is clipped to [-clip, clip] and z0 split by proj_k; theta =
    theta_at(k, z0_par) reads z0_par of the cloud's shape (M0, K), and f =
    -z0_par theta - |theta|^2 / 2 + (|z0_perp|^2 + |z1|^2) / 2, tilted
    dropping -z0_par theta.  zs = None, the first sweep's zero z, gives the
    one (M0, 1) array 0.0 - |theta_at(k, None)|^2 / 2 for every atom: the
    general form on a zero z, sign of zero included.
    """
    if zs is None:
        return 0.0 - 0.5 * np.sum(theta_at(k, None) ** 2, axis=1)[:, None], 0
    d0 = proj_k.shape[0]
    # each atom writes its slice of the cloud's z0_par, which theta reads
    z0_par, f, clips = np.empty(shape + (d0,)), {}, 0
    for s, z in zs.items():
        if not (z.max() <= clip and z.min() >= -clip):     # a NaN fails both tests
            clips += int(np.sum(np.abs(z) > clip))
            z = np.clip(z, -clip, clip)
        par = np.matmul(z[..., :d0], proj_k, out=z0_par[:, atoms[s][0]])
        perp = [z[..., j] - par[..., j] for j in range(d0)]
        for p in perp:
            p *= p
        f[s] = 0.5 * (_sum_last(perp) + z[..., d0] * z[..., d0])
    th = theta_at(k, z0_par)
    half = 0.5 * np.sum(th**2, axis=1)[:, None]
    for s in f:
        if not tilted:
            f[s] -= np.einsum("mkj,mj->mk", z0_par[:, atoms[s][0]], th)
        f[s] -= half
    return f, clips


def _backward_pass(atoms: list, g: np.ndarray, bundle: PathBundle, market: MarketSpec,
                   theta_at, clip: float, tilted: bool, prev: BsdeSolution | None):
    """One linear backward sweep with the driver frozen at the previous iterate.

    atoms are as in BsdeSolution, and each atom's y, targets and fitted
    values are (M0, K_s) arrays of its own.  prev is the previous sweep's
    solution (None: z = 0).  Step k of its z is rebuilt on step k's
    conditioners, which the sweep builds anyway, and _driver freezes the
    driver there (in the first sweep at z = 0, with no z formed); it is
    regressed with the continuation value.  A tilted sweep shifts the common
    increments by theta_at(k, None) dt; its engines carry the weights.  Only
    y at steps k + 1 and k outlives step k.  Returns the new solution, y
    (M0, K) at step 0, the summed squares of the change of z and of the new
    z (None in the first sweep), each atom writing its slice of one
    (M0, K, d0 + 1) buffer, and the clipped z entries.
    """
    dW0, dWi, dt = bundle.dW0, bundle.dWi, bundle.grid.dt
    M0, K = g.shape
    steps, d0 = bundle.grid.steps, market.d0
    proj, _ = market.geometry(steps)
    sol = BsdeSolution(grid=bundle.grid, market=market, atoms=atoms, g=g, y0=np.nan,
                       fits=[{} for _ in range(steps)], y_fits=[{} for _ in range(steps)])
    ys = {s: g[:, atom[0]] for s, atom in enumerate(atoms) if atom is not None}
    bufs = {s: (np.empty((M0, y.shape[1], 2)), np.empty((M0, y.shape[1], d0 + 1)))
            for s, y in ys.items()}
    if prev is not None:
        # squares of the z change, z0 part then z1 part, then of the new z
        sq = np.empty(M0 * K * (d0 + 1))
        sq0, sq1, sq2 = (sq[:M0 * K * d0].reshape(M0, K, d0),
                         sq[M0 * K * d0:].reshape(M0, K, 1), sq.reshape(M0, K, d0 + 1))
    dz2 = z2 = None if prev is None else 0.0
    clips = 0
    for k in range(steps - 1, -1, -1):
        dw0_k = dW0[:, k, :]
        if tilted:
            dw0_k = dw0_k + theta_at(k, None) * dt
        conds = sol.conditioners(k)
        z_old = None if prev is None else prev.z_parts(k, conds)
        f, n_clip = _driver(k, z_old, atoms, g.shape, proj[k], theta_at, clip, tilted)
        clips += n_clip
        z_new = {}
        for s, cond in conds.items():
            y, (stage1, prods) = ys[s], bufs[s]
            stage1[..., 0] = y
            stage1[..., 1] = f if z_old is None else f[s]
            fitted1, sol.y_fits[k][s] = cond.fit(stage1.reshape(-1, 2))
            resid = y - fitted1[:, 0].reshape(y.shape)
            for j in range(d0):
                np.multiply(resid, dw0_k[:, j, None], out=prods[..., j])
            np.multiply(resid, dWi[:, atoms[s][0], k], out=prods[..., d0])
            prods /= dt
            fitted2, sol.fits[k][s] = cond.fit(prods.reshape(-1, d0 + 1))
            z_new[s] = fitted2.reshape(prods.shape)
            ys[s] = (fitted1[:, 0] + dt * fitted1[:, 1]).reshape(y.shape)

        if z_old is not None:
            for s in z_new:
                sel = atoms[s][0]
                for j in range(d0):
                    np.subtract(z_new[s][..., j], z_old[s][..., j], out=sq0[:, sel, j])
                np.subtract(z_new[s][..., d0], z_old[s][..., d0], out=sq1[:, sel, 0])
            sq *= sq
            dz2 += float(np.sum(sq0) + np.sum(sq1))
            for s in z_new:
                for j in range(d0 + 1):
                    zj = z_new[s][..., j]
                    np.multiply(zj, zj, out=sq2[:, atoms[s][0], j])
            z2 += float(np.sum(sq2))
        # step k's arrays go before step k - 1's conditioners are built
        del conds, cond, z_old, z_new, f, y, fitted1, fitted2, resid
    y = _joined(ys)
    sol.y0 = float(np.mean(y))
    return sol, y, dz2, z2, clips


def _fixed_point(sweep, n: int, max_iters: int, tol: float):
    """Picard iteration of sweep from z = 0: the one loop, run by _solve.

    sweep(prev) -> (solution, y0, dz2, z2, clips) is one backward pass with
    the driver frozen at prev, the previous sweep's solution (None in the
    first sweep: z = 0).  y0 is the new (M0, K) initial value; dz2 and z2
    are the summed squares of the z change and of the new z over its n
    entries, read from the second sweep on.  From the second sweep on, dy0
    is the sup change of y0 over sup |y0| and dz the cloud-L2 change of z
    over the cloud-L2 norm of the new z, both scales floored at 1e-8.  The
    loop stops once max(dy0, dz) < tol, and raises PicardDiverged on a
    non-finite change or after 3 consecutive growing changes.  Returns the
    last sweep's solution with the sweep count, convergence, changes and
    clips summed over sweeps.  max_iters < 1 raises ValueError before any
    sweep.
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


def _solve(bundle: PathBundle, market: MarketSpec, atoms: list, g: np.ndarray, theta_at,
           max_iters: int, tol: float, clip: float, tilted: bool) -> BsdeSolution:
    """The one solve behind the agent, tilted and mean-field solves: the fixed
    point of _backward_pass.  theta_at(k, z0_par) gives theta (M0, d0) at step
    k from the frozen cloud's z0_par, or at z = 0 given None.  The engines
    live as long as the solution, so each step's regression is built in the
    first sweep and reused by the later ones and by every read."""
    g = np.asarray(g, dtype=float).reshape(bundle.n_paths, bundle.n_agents)
    return _fixed_point(lambda prev: _backward_pass(atoms, g, bundle, market, theta_at, clip,
                                                    tilted, prev),
                        g.size * bundle.grid.steps, max_iters, tol)


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
    of shape (steps, d0) or (M0, steps, d0)."""
    th = _pathwise_theta(theta, bundle.grid.steps, market.d0, bundle.n_paths)
    engine = BasisEngine(bundle.x, bundle.I, bundle.wi, basis)
    return _solve(bundle, market, [(slice(None), engine)], g_samples, lambda k, _: th[:, k],
                  picard_max, picard_tol, clip, tilted=False)


def doleans_weights(theta: np.ndarray, bundle: PathBundle) -> np.ndarray:
    """Cumulative stochastic-exponential weights of -int theta^T dW0.

    Returns (M0, steps + 1) with D_0 = 1; D_T is the density of the measure
    under which W0 + int theta dt is Brownian.
    """
    grid = bundle.grid
    steps, dt = grid.steps, grid.dt
    M0 = bundle.n_paths
    d0 = bundle.dW0.shape[2]
    theta = _pathwise_theta(theta, steps, d0, M0)
    D = np.empty((M0, steps + 1))
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
    engine = BasisEngine(bundle.x, bundle.I, bundle.wi, basis, weights=D)
    sol = _solve(bundle, market, [(slice(None), engine)], g_samples, lambda k, _: th[:, k],
                 picard_max, picard_tol, clip, tilted=True)
    return sol, ess


def optimal_strategy(
    solution: BsdeSolution,
    theta: np.ndarray,
    gamma: float,
    market: MarketSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate optimum: gamma p* = z0_par + theta^T, pi* = (sigma sigma^T)^{-1} sigma p*^T.

    Returns p (M0, K, steps, d0) and pi (M0, K, steps, n).
    """
    grid = solution.grid
    steps = grid.steps
    M0, K = solution.g.shape
    d0 = market.d0
    th = _pathwise_theta(theta, steps, d0, M0)
    proj, pos = market.geometry(steps)
    p = step_major((M0, K, steps, d0))
    pi = step_major((M0, K, steps, market.n))
    for k in range(steps):
        z0 = solution.z_at(k)[..., :d0]
        p[:, :, k, :] = (z0 @ proj[k] + th[:, k, None, :]) / gamma
        pi[:, :, k, :] = p[:, :, k, :] @ pos[k].T
    return p, pi


@dataclass(frozen=True)
class Perturbation:
    """Strategy perturbation p = scale * p_star + offset (offset row-projected)."""

    label: str
    scale: float = 1.0
    offset: tuple[float, ...] | None = None


@dataclass
class VerificationReport:
    """Martingale diagnostics for R^p along the candidate optimum and perturbations."""

    aggregate_z: float
    max_step_z: float
    utility_star: float
    perturbed: list[dict]


def _wealth_paths(p: np.ndarray, bundle: PathBundle, th: np.ndarray, dt: float):
    """W_{k+1} = W_k + p_k (dW0_k + theta_k dt), W_0 = 0, for p of shape (M0, K, steps, d0)
    and theta of shape (M0, steps, d0)."""
    M0, K, steps, _ = p.shape
    W = np.empty((M0, K, steps + 1))
    W[:, :, 0] = 0.0
    for k in range(steps):
        drive = bundle.dW0[:, k, :] + th[:, k] * dt
        W[:, :, k + 1] = W[:, :, k] + np.einsum("mkj,mj->mk", p[:, :, k, :], drive)
    return W


def verify_condition_r(
    solution: BsdeSolution,
    bundle: PathBundle,
    market: MarketSpec,
    theta: np.ndarray,
    gamma: float,
    g_samples: np.ndarray,
    perturbations: list[Perturbation] | None = None,
) -> VerificationReport:
    """Drift test of R^p = -exp(-gamma (W^p - Y)) along p* and perturbations.

    Along p* the per-step and aggregate drifts must be statistically zero;
    along every perturbation the aggregate drift must be significantly
    negative and the terminal utility lower, the quadratic penalty
    (gamma^2/2)|p - p*|^2 being the mechanism.
    """
    grid = solution.grid
    steps, dt = grid.steps, grid.dt
    M0, K = solution.g.shape
    d0 = market.d0
    th = _pathwise_theta(theta, steps, d0, M0)
    proj, _ = market.geometry(steps)
    if perturbations is None:
        perturbations = [
            Perturbation("offset+0.5e1", 1.0, tuple([0.5] + [0.0] * (d0 - 1))),
            Perturbation("scale x2", 2.0, None),
        ]

    p_star, _ = optimal_strategy(solution, theta, gamma, market)
    Y = np.stack([solution.y_at(k) for k in range(steps + 1)]).transpose(1, 2, 0) / gamma
    F = np.asarray(g_samples, dtype=float).reshape(M0, K) / gamma

    def drift_stats(p):
        W = _wealth_paths(p, bundle, th, dt)
        R = -np.exp(-gamma * (W - Y))
        dR = np.diff(R, axis=2)
        flat = dR.reshape(-1, steps)
        step_mean = flat.mean(axis=0)
        step_se = flat.std(axis=0, ddof=1) / np.sqrt(flat.shape[0])
        step_z = step_mean / step_se
        total = (R[:, :, -1] - R[:, :, 0]).ravel()
        agg_z = float(total.mean() / (total.std(ddof=1) / np.sqrt(total.size)))
        utility = -np.exp(-gamma * (W[:, :, -1] - F))
        return agg_z, float(np.max(np.abs(step_z))), utility.ravel()

    agg_z, max_step_z, u_star = drift_stats(p_star)

    rows = []
    for pert in perturbations:
        p = pert.scale * p_star
        if pert.offset is not None:
            off = np.asarray(pert.offset, dtype=float)
            for k in range(steps):
                p[:, :, k, :] += off @ proj[k]
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


def bmo_proxy(backward, dt: float) -> float:
    """Regression estimate of sup_t E[ int_t^T |z|^2 ds | F_t ].

    backward yields, for k = steps - 1, ..., 0, {atom: (cond, z0, z1)}: each
    atom's step-k conditioner and z on interval k as component planes, d0
    planes z0 and one plane z1, each (M0, K_s).  Each atom's remaining
    quadratic variation is accumulated backward step by step, the same
    additions np.cumsum makes, fitted on its step's state basis, and the max
    fitted value is returned.
    """
    remaining: dict = {}
    out = 0.0
    for step in backward:
        peaks = []
        for s, (cond, z0, z1) in step.items():
            q = _sum_last([p * p for p in z0]) + _sum_last([p * p for p in z1])
            remaining[s] = remaining.get(s, 0.0) + q * dt
            fitted, _ = cond.fit(remaining[s].reshape(-1))
            peaks.append(np.max(fitted))
        out = max(out, float(np.max(peaks)))
    return out
