"""N-agent market simulation against the mean-field risk premium.

A heterogeneous population of exponential-utility agents is drawn i.i.d.
(risk aversion from discrete atoms, idiosyncratic noise fresh per agent;
initial wealth is not drawn, since it does not move exponential-utility
positions) and every agent is pushed through the solution map fitted on
the equilibrium cloud: agent i's hedging demand z0_hat is the z fit map of
its own risk-aversion atom read at (x_t, I_t, w^i_t), through that atom's
regression engine in the cloud, and its optimal position is

    p^{i,*} = (z0_hat_par + theta^T) / gamma_i,
    pi^{i,*} = (sigma sigma^T)^{-1} sigma (p^{i,*})^T.

The clearing residual eps_N = E int_0^T |N^{-1} sum_i pi^{i,*}|^2 dt is
estimated by a left-endpoint rule with common-path batching for standard
errors; per-capita sums are evaluated in canonical (sorted) order so that
relabelling agents reproduces eps_N bit for bit.  The pool is evaluated one
step at a time and only its per-capita sums are kept, so no array over
(path, agent, step) is formed.  rate_fit checks the
O(1/N) decay by a log-log slope and a Jensen-style bound diagnostic
N eps_N <= 4 (1 + gamma_hat^2 / gamma_lo^2) * (BMO proxy of the normalized
hedging integrands) * (1 + slack).

Portfolio replacement: left-multiplying (mu, sigma) by any well-conditioned
Q changes the securities but not the risk premium or attainable wealth;
replacement_invariance evaluates both identities numerically, step by step:
theta = mu M reads the market's own position map M, and the replaced market's
comes from one market_geometry call on the whole (steps, n, d0) stack Q sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, IllConditionedQ, InsufficientSpan
from .liabilities import terminal_g
from .market import MarketSpec, market_geometry
from .meanfield import MeanFieldSolution, solve_mean_field
from .paths import (
    KIND_AUX,
    KIND_GAMMA,
    Levels,
    PathBundle,
    _philox,
    levels,
    normal_block_array,
    simulate_paths,
)

if TYPE_CHECKING:
    from .config import Scenario

KIND_REPLACE = 6   # uniform draws for replacement matrices, disjoint from path streams


@dataclass(frozen=True)
class DiscreteDist:
    """Finite-atom distribution (values strictly positive when used for gamma)."""

    values: tuple[float, ...]
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.probs is not None:
            if len(self.probs) != len(self.values):
                raise ValueError("probs must match values")
            if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-12:
                raise ValueError("probs must be nonnegative and sum to 1")

    @property
    def p(self) -> np.ndarray:
        if self.probs is None:
            return np.full(len(self.values), 1.0 / len(self.values))
        return np.asarray(self.probs, dtype=float)

    def draw_ids(self, u: np.ndarray) -> np.ndarray:
        edges = np.cumsum(self.p)
        return np.minimum(np.searchsorted(edges, u, side="right"), len(self.values) - 1)

    def balanced_ids(self, n: int) -> np.ndarray:
        """Deterministic assignment with atom counts matching probs (largest
        remainder); removes sampling noise from the equilibrium cloud's
        risk-aversion mix."""
        quota = self.p * n
        counts = np.floor(quota).astype(int)
        short = n - counts.sum()
        if short > 0:
            order = np.argsort(-(quota - counts))
            counts[order[:short]] += 1
        return np.repeat(np.arange(len(self.values)), counts)


@dataclass
class Population:
    """Per-agent draws shared across common paths."""

    gammas: np.ndarray       # (N,)
    atom_ids: np.ndarray     # (N,) index into the gamma atoms

    @property
    def size(self) -> int:
        return self.gammas.shape[0]


def build_population(
    n_agents: int,
    seed: int,
    gamma_dist: DiscreteDist,
    balanced: bool,
) -> Population:
    """Draw gamma_i for n_agents.

    A balanced population has gamma atoms in exact proportion instead of i.i.d.
    (used for the equilibrium cloud so the sample harmonic mean is the
    population one); agents entering clearing statistics use i.i.d. draws.
    """
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    if balanced:
        ids = gamma_dist.balanced_ids(n_agents)
    else:
        u = _philox(seed, KIND_GAMMA, 0).random(n_agents)
        ids = gamma_dist.draw_ids(u)
    gammas = np.asarray(gamma_dist.values, dtype=float)[ids]
    return Population(gammas=gammas, atom_ids=ids)


def fresh_idio_levels(seed: int, n_common: int, n_agents: int, grid) -> Levels:
    """Idiosyncratic levels (M0, N, steps + 1) of N fresh evaluation agents, the
    Levels of their increments, which are scaled in place."""
    dw = normal_block_array(seed, KIND_AUX, (n_common, n_agents, grid.steps))
    dw *= np.sqrt(grid.dt)
    return levels(dw)


def agent_strategies(
    mf: MeanFieldSolution,
    population: Population,
    w_agents: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal positions of fresh agents at step k under the fitted solution map.

    Step k's level w_agents[:, :, k] is read once (w_agents is (M0, N,
    steps + 1), a Levels or an array).  Each risk-aversion atom's engine reads
    its step-k z fit map on its own pool agents' columns of that level, one
    atom at a time, by index, so the pool may come in any order.  A solve of
    one atom reads every agent through it.  An agent whose atom has
    no particle in the cloud raises ValueError.  Returns p (M0, N, d0) in
    Brownian coordinates and pi (M0, N, n) in security units, in the pool's
    order.
    """
    sol = mf.solution
    M0, N, d0 = w_agents.shape[0], population.size, sol.market.d0
    proj, pos = sol.market.geometry(sol.grid.steps)
    ids = population.atom_ids if len(sol.atoms) > 1 else np.zeros(N, dtype=np.int64)
    w_k = w_agents[:, :, k]
    z_hat = np.empty((M0, N, d0))
    for s in np.unique(ids).tolist():
        idx = np.flatnonzero(ids == s)
        if s >= len(sol.atoms) or sol.atoms[s] is None:
            raise ValueError(f"atom {s} has {idx.size} pool agents but no particle in the cloud")
        cond = sol.atoms[s][1].on(k, w_k[:, idx])
        z_hat[:, idx] = cond.evaluate(sol.fits[k][s]).reshape(M0, idx.size, -1)[..., :d0]
    # p = (z0_par + theta) / gamma a component at a time
    par, inv_g = z_hat @ proj[k], 1.0 / population.gammas
    p = np.empty((M0, N, d0))
    for j in range(d0):
        np.add(par[..., j], mf.theta[:, k, j, None], out=p[..., j])
        p[..., j] *= inv_g
    return p, p @ pos[k].T


@dataclass
class ClearingReport:
    """eps_N estimates over increasing N plus the rate and bound diagnostics."""

    Ns: list[int]
    eps: list[float]
    stderr: list[float]
    gamma_hat: float
    gamma_lo: float
    bmo_proxy: float
    slope: float = float("nan")
    intercept: float = float("nan")
    bound_const: float = float("nan")
    bound_ok: list[bool] = field(default_factory=list)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.Ns, self.Ns[1:])):
            raise ValueError("Ns must be strictly increasing")
        if any(e < 0 for e in self.eps):
            raise ValueError("eps estimates must be nonnegative")


def clearing_residual(
    pi_steps,
    Ns: list[int],
    dt: float,
    n_batches: int,
) -> tuple[list[float], list[float]]:
    """eps_N = E int |per-capita position|^2 dt for each N (prefix of the pool).

    pi_steps yields the pool's positions one step at a time, in step order,
    each of shape (M0, pool, n).  For each N only the per-capita sums,
    (M0, steps, n), are kept.  The sum over agents runs in canonical sorted
    order per (path, step, security) slot, so any relabelling of the agents
    gives bit-identical estimates.  Standard errors come from batching
    common paths, in n_batches >= 2 batches.
    """
    if n_batches < 2:
        raise ValueError("need at least 2 batches for standard errors")
    sums: list[list[np.ndarray]] = [[] for _ in Ns]
    for pi in pi_steps:
        M0, pool = pi.shape[:2]
        if M0 < 2:
            raise ValueError("need at least 2 common paths for standard errors")
        for N, per_step in zip(Ns, sums):
            if N > pool:
                raise ValueError(f"N={N} exceeds agent pool {pool}")
            # agents on the leading axis of a C-ordered copy: the sum adds
            # them one after another in sorted order
            srt = np.ascontiguousarray(np.sort(pi[:, :N], axis=1).transpose(1, 0, 2))
            per_step.append(srt.sum(axis=0) / N)
    B = min(n_batches, M0)
    eps, ses = [], []
    for per_step in sums:
        s = np.stack(per_step, axis=1)
        integ = dt * np.sum(s * s, axis=(1, 2))
        eps.append(float(integ.mean()))
        splits = np.array_split(integ, B)
        bm = np.array([b.mean() for b in splits])
        ses.append(float(bm.std(ddof=1) / np.sqrt(B)))
    return eps, ses


def rate_fit(report: ClearingReport, slack: float) -> ClearingReport:
    """OLS slope of log eps_N on log N plus the proof-bound diagnostic.

    Requires >= 4 population sizes spanning >= 1.5 decades.  bound_const is
    4 (1 + gamma_hat^2 / gamma_lo^2) * BMO proxy; bound_ok flags
    N eps_N <= bound_const (1 + slack) per N.
    """
    Ns = np.asarray(report.Ns, dtype=float)
    eps = np.asarray(report.eps, dtype=float)
    if Ns.size < 4:
        raise InsufficientSpan(f"need >= 4 population sizes, got {Ns.size}")
    decades = np.log10(Ns.max() / Ns.min())
    if decades < 1.5:
        raise InsufficientSpan(f"N span {decades:.2f} decades < 1.5")
    if np.any(eps <= 0):
        raise ValueError("log-log fit needs strictly positive eps")
    slope, intercept = np.polyfit(np.log(Ns), np.log(eps), 1)
    report.slope = float(slope)
    report.intercept = float(intercept)
    report.bound_const = 4.0 * (1.0 + report.gamma_hat**2 / report.gamma_lo**2) * report.bmo_proxy
    report.bound_ok = [
        bool(n * e <= report.bound_const * (1.0 + slack))
        for n, e in zip(report.Ns, report.eps)
    ]
    return report


def solve_equilibrium_cloud(sc: Scenario, n_common: int, n_agents: int) -> MeanFieldSolution:
    """Mean-field fixed point on a balanced cloud of n_agents particles over
    n_common common paths of the scenario sc.  Each gamma atom has its own
    regression engine when the liability is not additive; the balanced
    cloud's atom ids are an np.repeat, so each atom is one contiguous range
    of particles and its count is its size in strata.  The seed, mf.iters,
    mf.tol and bsde.clip come from sc.cfg."""
    cfg = sc.cfg
    cloud = build_population(n_agents, cfg.seed, sc.gamma_dist, balanced=True)
    bundle = simulate_paths(sc.grid, sc.eqg, sc.market, n_common, cfg.seed, agents=n_agents)
    g = terminal_g(sc.liability, bundle, cloud.gammas)
    return solve_mean_field(
        bundle, sc.market, sc.basis, g, cloud.gammas,
        max_iters=cfg.mf.iters, tol=cfg.mf.tol, clip=cfg.bsde.clip,
        strata=None if sc.liability.is_additive else np.bincount(
            cloud.atom_ids, minlength=len(sc.gamma_dist.values)),
    )


def run_clearing_study(sc: Scenario) -> tuple[ClearingReport, MeanFieldSolution]:
    """End-to-end clearing experiment on the scenario sc, sized by its
    clearing block.

    Solves the mean-field equation on a balanced cloud of
    clearing.n_equilibrium particles, draws a fresh i.i.d. agent pool of size
    max(clearing.Ns), evaluates every agent through the stored per-step
    solution maps one step at a time, and estimates eps_N with its rate.
    The rate fit is attached only when Ns satisfies rate_fit's span rule.
    """
    cfg, grid, Ns = sc.cfg, sc.grid, list(sc.cfg.clearing.Ns)
    n_common = cfg.clearing.n_common
    mf = solve_equilibrium_cloud(sc, n_common, cfg.clearing.n_equilibrium)
    pool = build_population(max(Ns), cfg.seed, sc.gamma_dist, balanced=False)
    w_agents = fresh_idio_levels(cfg.seed, n_common, pool.size, grid)
    pi_steps = (agent_strategies(mf, pool, w_agents, k)[1] for k in range(grid.steps))
    eps, ses = clearing_residual(pi_steps, Ns, grid.dt, n_batches=cfg.clearing.n_batches)
    report = ClearingReport(
        Ns=Ns, eps=eps, stderr=ses,
        gamma_hat=mf.stats.gamma_hat, gamma_lo=mf.stats.gamma_lo,
        bmo_proxy=mf.z_bmo,
    )
    try:
        rate_fit(report, slack=cfg.clearing.slack)
    except InsufficientSpan:
        pass  # too few sizes for a rate: slope and bound stay unset
    return report, mf


@dataclass(frozen=True)
class ReplacementSpec:
    """Grid-indexed security replacement pi_tilde -> Q^T pi_tilde by a finite
    (steps, n, n) stack Q, each matrix's condition number within cond_cap."""

    Q: np.ndarray            # (steps, n, n)
    cond_cap: float

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        object.__setattr__(self, "Q", Q)
        if Q.ndim != 3 or Q.shape[1] != Q.shape[2]:
            raise DimensionMismatch(f"Q must be a (steps, n, n) stack, got shape {Q.shape}")
        if not np.all(np.isfinite(Q)):
            raise IllConditionedQ("Q has a non-finite entry")
        c = np.linalg.cond(Q)
        if not np.all(c <= self.cond_cap):
            k = int(np.argmin(c <= self.cond_cap))
            raise IllConditionedQ(
                f"Q at step {k} has condition number {c[k]:.3g} > cap {self.cond_cap}"
            )


def random_replacement(
    seed: int,
    steps: int,
    n: int,
    cond_cap: float,
    block: int,
) -> ReplacementSpec:
    """Q_k = I + 0.3 U[-1,1]^{n x n}, redrawn up to 200 times until the condition cap holds."""
    rng = _philox(seed, KIND_REPLACE, block)
    Q = np.empty((steps, n, n))
    for k in range(steps):
        for _ in range(200):
            cand = np.eye(n) + 0.3 * (2.0 * rng.random((n, n)) - 1.0)
            if np.linalg.cond(cand) <= cond_cap:
                Q[k] = cand
                break
        else:
            raise IllConditionedQ("no well-conditioned draw in 200 tries")
    return ReplacementSpec(Q=Q, cond_cap=cond_cap)


def replacement_invariance(
    market: MarketSpec,
    mu: np.ndarray,
    bundle: PathBundle,
    pi_tilde: np.ndarray,
    rep: ReplacementSpec,
) -> tuple[float, float]:
    """Sup discrepancies of the two replacement identities.

    theta identity: the market price of risk computed from (Q mu, Q sigma)
    equals the one from (mu, sigma).  Wealth identity: trading pi_tilde in
    the replaced securities equals trading Q^T pi_tilde in the originals,
    pathwise.  mu has shape (steps, n) or (M0, steps, n), read per path
    either way; pi_tilde has shape (M0, steps, n), and rep.Q (steps, n, n).
    """
    grid = bundle.grid
    steps, dt = grid.steps, grid.dt
    M0 = bundle.n_paths
    n = market.n
    if rep.Q.shape != (steps, n, n):
        raise DimensionMismatch(f"Q must be ({steps}, {n}, {n}); got {rep.Q.shape}")
    table = market.sigma_table(steps)
    mu = np.asarray(mu, dtype=float)
    if mu.shape not in ((steps, n), (M0, steps, n)):
        raise ValueError(f"mu must be (steps, n) or (M0, steps, n); got {mu.shape}")
    mu = np.broadcast_to(mu, (M0, steps, n))
    _, pos = market.geometry(steps)
    _, pos_tilde = market_geometry(rep.Q @ table)

    # per-step sups, maximised by np.max, which keeps a NaN
    theta_disc, wealth_disc = np.empty(steps), np.empty(steps)
    w_orig = np.zeros((M0,))
    w_repl = np.zeros((M0,))
    for k in range(steps):
        Qk = rep.Q[k]
        sig = table[k]
        mk = mu[:, k]
        th = mk @ pos[k]
        th_tilde = (mk @ Qk.T) @ pos_tilde[k]
        theta_disc[k] = np.max(np.abs(th_tilde - th))

        drive = mk * dt + bundle.dW0[:, k, :] @ sig.T          # (M0, n)
        pt = pi_tilde[:, k, :]
        w_repl = w_repl + np.einsum("mj,mj->m", pt, drive @ Qk.T)
        w_orig = w_orig + np.einsum("mj,mj->m", pt @ Qk, drive)
        wealth_disc[k] = np.max(np.abs(w_repl - w_orig))
    return float(np.max(theta_disc)), float(np.max(wealth_disc))
