"""N-agent market simulation against the mean-field risk premium.

A heterogeneous population of exponential-utility agents is drawn i.i.d.
(risk aversion from discrete atoms, idiosyncratic noise fresh per agent;
initial wealth is not drawn, since it does not move exponential-utility
positions) and every agent is pushed through the solution map of the
mean-field solve: agent i's hedging demand z0_hat is its own risk-aversion
atom's z polynomial at step t, on the agent's common path, read at the
agent's own level w^i_t, and its optimal position is

    p^{i,*} = (z0_hat_par + theta^T) / gamma_i,
    pi^{i,*} = (sigma sigma^T)^{-1} sigma (p^{i,*})^T.

The clearing residual eps_N = E int_0^T |N^{-1} sum_i pi^{i,*}|^2 dt is
estimated by a left-endpoint rule with common-path batching for standard
errors.  A position is linear in its agent's own polynomial in w, so the
per-capita sums are read from per-path power sums of the agents' levels,
the conditional Monte Carlo step the solves take for the cloud (Asmussen &
Glynn, Stochastic Simulation, 2007): the pool's draws are streamed once, a
chunk of common paths at a time, and no position of a single agent is
formed.  The power sums run in canonical (sorted) order so that
relabelling agents reproduces eps_N bit for bit.  rate_fit checks the
O(1/N) decay, when Ns spans enough for it, by a log-log slope and a
Jensen-style bound diagnostic
N eps_N <= 4 (1 + gamma_hat^2 / gamma_lo^2) * (BMO proxy of the normalized
hedging integrands) * (1 + slack).

Portfolio replacement: left-multiplying (mu, sigma) by any well-conditioned
Q changes the securities but not the risk premium or attainable wealth;
replacement_invariance evaluates both identities numerically, step by step:
theta = mu M reads the market's own position map M, and the replaced market's
comes from one market_geometry call on the whole (steps, n, d0) stack Q sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, IllConditionedQ
from .liabilities import terminal_g
from .market import MarketSpec, market_geometry
from .meanfield import MeanFieldSolution, solve_mean_field
from .paths import KIND_AUX, KIND_GAMMA, PathBundle, _philox, normal_chunks, simulate_paths

if TYPE_CHECKING:
    from .config import Scenario

KIND_REPLACE = 6   # uniform draws for replacement matrices, disjoint from path streams
# common paths per chunk of the pool's draws: one chunk's increments are the
# pool's only array over its agents
_POOL_CHUNK = 16


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


@dataclass
class Population:
    """Per-agent draws shared across common paths."""

    gammas: np.ndarray       # (N,)
    atom_ids: np.ndarray     # (N,) index into the gamma atoms

    @property
    def size(self) -> int:
        return self.gammas.shape[0]


def build_population(n_agents: int, seed: int, gamma_dist: DiscreteDist) -> Population:
    """Draw gamma_i i.i.d. from gamma_dist for n_agents."""
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    ids = gamma_dist.draw_ids(_philox(seed, KIND_GAMMA, 0).random(n_agents))
    gammas = np.asarray(gamma_dist.values, dtype=float)[ids]
    return Population(gammas=gammas, atom_ids=ids)


def _times(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a (..., d) @ m (d, e), one term at a time in d's order: each entry's
    bits depend on its own row only."""
    out = a[..., :1] * m[0]
    for d in range(1, m.shape[0]):
        out = out + a[..., d:d + 1] * m[d]
    return out


def per_capita_positions(
    mf: MeanFieldSolution,
    population: Population,
    increments,
    Ns: list[int],
) -> np.ndarray:
    """Per-capita positions of the first N pool agents, for each N in Ns:
    (len(Ns), M0, steps, n) in security units.

    Agent i of atom s holds p_i = (par(sum_j C_sj w_i^j) + theta) / gamma_s
    at its level w_i, C_sj its atom's z coefficients on its path, so the sum
    over the first N agents needs only, per path, step and (atom, gamma)
    group, the power sums P_sj = sum w_i^j over the group's members among
    them, j < J (P_s0 the count, shared by every path).  increments yields
    the pool's (start, stop, increments (stop - start, pool, steps)) in path
    order, as paths.normal_chunks does; only one chunk and its running
    levels are held, and with J = 1 (no w in the basis) none is read.  Each
    N sorts its members' levels in each (path, step, group) slot and sums
    them in that order, so relabelling the pool gives the whole pool's sums
    bit for bit.  An agent whose atom the solve does not hold raises
    ValueError; a solve of one atom reads every agent through it.
    """
    sol = mf.solution
    steps, market = sol.grid.steps, sol.market
    proj, pos = market.geometry(steps)
    z = np.stack([sol.z_coefs(k)[:, :, :market.d0] for k in range(steps)])
    J, n_atoms, M0 = z.shape[1], z.shape[2], z.shape[-1]
    pool = population.size
    if max(Ns) > pool:
        raise ValueError(f"N={max(Ns)} exceeds agent pool {pool}")
    keys, inv = np.unique(np.column_stack([population.atom_ids, population.gammas]), axis=0,
                          return_inverse=True)
    groups = []
    for g, (s, gamma) in enumerate(keys.tolist()):
        idx = np.flatnonzero(inv.ravel() == g)
        if s >= n_atoms > 1:
            raise ValueError(f"atom {int(s)} has {idx.size} pool agents but the solve has "
                             f"{n_atoms} atoms")
        # the group's members among the first N agents, for each N
        groups.append((int(s) if n_atoms > 1 else 0, 1.0 / gamma, [idx[idx < N] for N in Ns]))
    Nv = np.asarray(Ns, dtype=float)[:, None, None]
    counts = [np.array([m.size for m in members])[:, None] * inv_g for _, inv_g, members in groups]
    held = sum(counts)[:, :, None] / Nv                     # sum_s n_s(N) / (N gamma_s)
    out = np.empty((len(Ns), M0, steps, market.n))
    covered = 0
    for a, b, dw in (increments if J > 1 else [(0, M0, None)]):
        covered += b - a
        lev = None if dw is None else np.zeros(dw.shape[:2])
        for k in range(steps):
            if k and lev is not None:
                lev += dw[:, :, k - 1]
            acc = np.zeros((len(Ns), b - a, market.d0))
            for (s, inv_g, members), count in zip(groups, counts):
                sums = [count]
                if k and lev is not None:
                    P = np.empty((J - 1, len(Ns), b - a))
                    for n, m in enumerate(members):
                        # C-ordered, so each row is summed alone, pairwise
                        level = np.take(lev, m, axis=1)
                        level.sort(axis=1)
                        power = level
                        for j in range(J - 1):
                            power = power if j == 0 else power * level
                            P[j, n] = power.sum(axis=1)
                    sums.extend(P * inv_g)
                for j, P_j in enumerate(sums):             # level 0 is 0: its count only
                    acc += P_j[:, :, None] * z[k, j, s, :, a:b].T
            p = _times(acc, proj[k]) / Nv + held * mf.theta[a:b, k]
            out[:, a:b, k] = _times(p, pos[k].T)
        del dw, lev         # the next chunk is drawn with this one freed
    if covered != M0:
        raise ValueError(f"the increments cover {covered} of {M0} common paths")
    return out


@dataclass(frozen=True)
class ClearingReport:
    """eps_N estimates over increasing N plus the rate and bound diagnostics,
    made once by run_clearing_study; the last four fields are rate_fit's."""

    Ns: list[int]
    eps: list[float]
    stderr: list[float]
    gamma_hat: float
    gamma_lo: float
    bmo_proxy: float
    slope: float
    intercept: float
    bound_const: float
    bound_ok: list[bool]


def clearing_residual(
    per_capita: np.ndarray,
    dt: float,
    n_batches: int,
) -> tuple[list[float], list[float]]:
    """eps_N = E int |per-capita position|^2 dt for each N, from the
    per-capita positions (len(Ns), M0, steps, n) that per_capita_positions
    gives, by the left-endpoint rule.  Standard errors come from batching
    common paths, in n_batches >= 2 batches.
    """
    if n_batches < 2:
        raise ValueError("need at least 2 batches for standard errors")
    M0 = per_capita.shape[1]
    if M0 < 2:
        raise ValueError("need at least 2 common paths for standard errors")
    B = min(n_batches, M0)
    eps, ses = [], []
    for s in per_capita:
        integ = dt * np.sum(s * s, axis=(1, 2))
        eps.append(float(integ.mean()))
        bm = np.array([b.mean() for b in np.array_split(integ, B)])
        ses.append(float(bm.std(ddof=1) / np.sqrt(B)))
    return eps, ses


def rate_fit(Ns: list[int], eps: list[float], bound_const: float,
             slack: float) -> tuple[float, float, float, list[bool]]:
    """OLS slope of log eps_N on log N plus the proof-bound diagnostic.

    Returns (slope, intercept, bound_const, bound_ok), bound_ok flagging
    N eps_N <= bound_const (1 + slack) per N, or (nan, nan, nan, []) for Ns of
    < 4 sizes or < 1.5 decades.  An eps <= 0 otherwise raises ValueError.
    """
    n, e = np.asarray(Ns, dtype=float), np.asarray(eps, dtype=float)
    if n.size < 4 or np.log10(n.max() / n.min()) < 1.5:
        return float("nan"), float("nan"), float("nan"), []
    if np.any(e <= 0):
        raise ValueError("log-log fit needs strictly positive eps")
    slope, intercept = np.polyfit(np.log(n), np.log(e), 1)
    bound_ok = [bool(N * eN <= bound_const * (1.0 + slack)) for N, eN in zip(Ns, eps)]
    return float(slope), float(intercept), bound_const, bound_ok


def solve_equilibrium_cloud(sc: Scenario, n_common: int) -> MeanFieldSolution:
    """Mean-field fixed point of the scenario sc over n_common common paths:
    the atoms are the gamma law's values with their probabilities.  The
    seed, mf.iters, mf.tol and bsde.clip come from sc.cfg."""
    cfg, dist = sc.cfg, sc.gamma_dist
    gammas = np.asarray(dist.values, dtype=float)
    bundle = simulate_paths(sc.grid, sc.eqg, sc.market, n_common, cfg.seed)
    return solve_mean_field(
        bundle, sc.market, sc.basis, terminal_g(sc.liability, bundle, gammas), gammas,
        probs=dist.p, max_iters=cfg.mf.iters, tol=cfg.mf.tol, clip=cfg.bsde.clip,
    )


def run_clearing_study(sc: Scenario) -> tuple[ClearingReport, MeanFieldSolution]:
    """End-to-end clearing experiment on the scenario sc, sized by its
    clearing block.

    Solves the mean-field equation over clearing.n_common common paths,
    draws a fresh i.i.d. agent pool of size max(clearing.Ns), streams its
    increments through the stored solution maps a chunk of common paths at
    a time, and estimates eps_N with its rate.  The report is built once,
    with rate_fit's fields.
    """
    cfg, grid, Ns = sc.cfg, sc.grid, list(sc.cfg.clearing.Ns)
    n_common = cfg.clearing.n_common
    mf = solve_equilibrium_cloud(sc, n_common)
    pool = build_population(max(Ns), cfg.seed, sc.gamma_dist)
    increments = normal_chunks(cfg.seed, KIND_AUX, (n_common, pool.size, grid.steps),
                               _POOL_CHUNK, np.sqrt(grid.dt))
    per_capita = per_capita_positions(mf, pool, increments, Ns)
    eps, ses = clearing_residual(per_capita, grid.dt, n_batches=cfg.clearing.n_batches)
    st = mf.stats
    bound_const = 4.0 * (1.0 + st.gamma_hat**2 / st.gamma_lo**2) * mf.z_bmo
    return ClearingReport(Ns, eps, ses, st.gamma_hat, st.gamma_lo, mf.z_bmo,
                          *rate_fit(Ns, eps, bound_const, cfg.clearing.slack)), mf


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
