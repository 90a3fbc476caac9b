"""Least-squares conditional expectations for backward induction.

The production engine regresses targets on polynomial features of the Markov
state (x, I, first idiosyncratic coordinate w), optionally stratified by the
discrete risk-aversion atom of each particle (risk aversion enters terminal
data multiplicatively, so particles with different gamma follow different
value functions and must not be pooled unless the liability is additive).

Design choices that matter for reproducibility and the exactness tests:

* the intercept is never penalised, so constant targets are fitted exactly;
* non-intercept columns are standardised per stratum and constant columns
  are dropped (at t = 0 every state column is constant and the regression
  correctly degenerates to the plain mean);
* the Gram matrix is accumulated blockwise in a fixed block order, so the
  result does not depend on how BLAS splits the work;
* ridge is 1e-8 relative to the normalised Gram trace, and an eigenvalue of
  the unridged Gram below the ridge level raises RegressionRankDeficient.

A group-mean engine with integer keys provides exact conditional
expectations on enumerable noise trees; it is the brute-force oracle's
counterpart inside the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import RegressionRankDeficient

_CONST_COL_TOL = 1e-12


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial state basis: monomials x^i w^j (1 <= i + j <= degree) + I.

    include_idio=False drops the idiosyncratic coordinate entirely (the
    correct sufficient state when terminal data have no per-agent component);
    spurious w-columns would otherwise leak sampling noise into per-agent
    quantities that cancel exactly in the continuum.
    """

    degree: int = 2
    ridge: float = 1e-8
    include_integral: bool = True
    include_idio: bool = True

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.ridge < 0.0:
            raise ValueError("ridge must be >= 0")

    @property
    def n_columns(self) -> int:
        """Non-intercept column count."""
        if self.include_idio:
            poly = self.degree * (self.degree + 3) // 2
        else:
            poly = self.degree
        return poly + (1 if self.include_integral else 0)


def feature_columns(basis: RegressionBasis, x, run_i, w) -> np.ndarray:
    """Non-intercept design columns for flat state arrays of shape (P,)."""
    x = np.asarray(x, dtype=float)
    cols = []
    xp = {0: np.ones_like(x)}
    wp = {0: np.ones_like(x)}
    for p in range(1, basis.degree + 1):
        xp[p] = xp[p - 1] * x
        wp[p] = wp[p - 1] * np.asarray(w, dtype=float)
    for total in range(1, basis.degree + 1):
        j_max = total if basis.include_idio else 0
        for j in range(j_max + 1):
            cols.append(xp[total - j] * wp[j])
    if basis.include_integral:
        cols.append(np.asarray(run_i, dtype=float))
    return np.stack(cols, axis=1)


@dataclass
class StratumFit:
    """Fitted least-squares map for one stratum at one time step."""

    kept: np.ndarray          # boolean mask over raw columns
    mu: np.ndarray            # per-kept-column mean
    sd: np.ndarray            # per-kept-column scale
    beta0: np.ndarray         # (r,) intercepts
    coef: np.ndarray          # (q_kept, r)

    def predict(self, raw_cols: np.ndarray) -> np.ndarray:
        xs = (raw_cols[:, self.kept] - self.mu) / self.sd
        return self.beta0[None, :] + xs @ self.coef


@dataclass
class StepFit:
    """Per-stratum fits for one time step; evaluable on fresh particles."""

    strata: list[StratumFit] = field(default_factory=list)

    def predict(self, raw_cols: np.ndarray, stratum_ids: np.ndarray) -> np.ndarray:
        out = None
        for s, fit in enumerate(self.strata):
            rows = np.nonzero(stratum_ids == s)[0]
            if rows.size == 0:
                continue
            if fit is None:
                raise ValueError(f"stratum {s} was empty at fit time but has rows now")
            vals = fit.predict(raw_cols[rows])
            if out is None:
                out = np.empty((raw_cols.shape[0], vals.shape[1]))
            out[rows] = vals
        if out is None:
            raise ValueError("no rows matched any stratum")
        return out


def _blockwise_gram(xs: np.ndarray, weights: np.ndarray | None):
    """X^T W X and X^T W 1 accumulated in fixed block order."""
    P, q = xs.shape
    gram = np.zeros((q, q))
    ssum = np.zeros(q)
    for s, e in parallel.block_ranges(P, block=65536):
        xb = xs[s:e]
        if weights is None:
            gram += xb.T @ xb
            ssum += xb.sum(axis=0)
        else:
            xw = xb * weights[s:e, None]
            gram += xb.T @ xw
            ssum += xw.sum(axis=0)
    return gram, ssum


class RidgeConditioner:
    """Conditional expectation by stratified ridge regression at one step.

    Factorises the (per-stratum) Gram matrix once; fit() can then be called
    with several target batches.
    """

    def __init__(
        self,
        raw_cols: np.ndarray,
        stratum_ids: np.ndarray,
        n_strata: int,
        ridge: float = 1e-8,
        weights: np.ndarray | None = None,
        min_rows_per_column: int = 10,
    ):
        P, q = raw_cols.shape
        self.raw = raw_cols
        self.ids = stratum_ids
        self._prepared = []
        for s in range(n_strata):
            rows = np.nonzero(stratum_ids == s)[0] if n_strata > 1 else np.arange(P)
            if rows.size == 0:
                self._prepared.append(None)
                continue
            if (q + 1) * min_rows_per_column > rows.size:
                raise RegressionRankDeficient(
                    f"{q + 1} design columns for {rows.size} paths in stratum {s}; "
                    f"need at least {min_rows_per_column} paths per column"
                )
            cols = raw_cols[rows]
            w = None if weights is None else weights[rows]
            if w is None:
                mu = cols.mean(axis=0)
                var = cols.var(axis=0)
                wsum = float(rows.size)
            else:
                wsum = float(w.sum())
                mu = (cols * w[:, None]).sum(axis=0) / wsum
                var = ((cols - mu) ** 2 * w[:, None]).sum(axis=0) / wsum
            sd = np.sqrt(var)
            kept = sd > _CONST_COL_TOL * (1.0 + np.abs(mu))
            xs = (cols[:, kept] - mu[kept]) / sd[kept]
            gram, _ = _blockwise_gram(xs, w)
            qk = int(kept.sum())
            if qk:
                lam = ridge * float(np.trace(gram)) / qk
                eigs = np.linalg.eigvalsh(gram)
                if eigs[0] < lam:
                    raise RegressionRankDeficient(
                        f"Gram eigenvalue {eigs[0]:.3e} below ridge level {lam:.3e} "
                        f"in stratum {s}: columns are collinear"
                    )
                chol = np.linalg.cholesky(gram + lam * np.eye(qk))
            else:
                chol = None
            self._prepared.append(
                {"rows": rows, "kept": kept, "mu": mu[kept], "sd": sd[kept],
                 "xs": xs, "w": w, "wsum": wsum, "chol": chol}
            )

    def fit(self, targets: np.ndarray) -> tuple[np.ndarray, StepFit]:
        """Fitted values (same leading shape) and the reusable coefficient map."""
        squeeze = targets.ndim == 1
        ys = targets[:, None] if squeeze else targets
        out = np.empty_like(ys)
        step_fit = StepFit()
        for prep in self._prepared:
            if prep is None:
                step_fit.strata.append(None)
                continue
            rows = prep["rows"]
            yb = ys[rows]
            w = prep["w"]
            if w is None:
                beta0 = yb.mean(axis=0)
            else:
                beta0 = (yb * w[:, None]).sum(axis=0) / prep["wsum"]
            if prep["chol"] is None:
                coef = np.zeros((0, yb.shape[1]))
                out[rows] = beta0[None, :]
            else:
                xs = prep["xs"]
                rhs = xs.T @ (yb if w is None else yb * w[:, None])
                tmp = np.linalg.solve(prep["chol"], rhs)
                coef = np.linalg.solve(prep["chol"].T, tmp)
                out[rows] = beta0[None, :] + xs @ coef
            step_fit.strata.append(
                StratumFit(kept=prep["kept"], mu=prep["mu"], sd=prep["sd"],
                           beta0=beta0, coef=coef)
            )
        return (out[:, 0] if squeeze else out), step_fit


class GroupMeanConditioner:
    """Exact conditional expectation by averaging within integer key groups.

    Suitable for enumerable noise trees where every path with the same key
    shares the same information set.
    """

    def __init__(self, keys: np.ndarray, weights: np.ndarray | None = None):
        uniq, inv = np.unique(np.asarray(keys), return_inverse=True)
        self.inv = inv
        self.n_groups = uniq.size
        self.weights = weights
        if weights is None:
            self.denom = np.bincount(inv, minlength=self.n_groups).astype(float)
        else:
            self.denom = np.bincount(inv, weights=weights, minlength=self.n_groups)

    def fit(self, targets: np.ndarray):
        squeeze = targets.ndim == 1
        ys = targets[:, None] if squeeze else targets
        r = ys.shape[1]
        means = np.empty((self.n_groups, r))
        for j in range(r):
            col = ys[:, j] if self.weights is None else ys[:, j] * self.weights
            means[:, j] = np.bincount(self.inv, weights=col, minlength=self.n_groups)
        means /= self.denom[:, None]
        out = means[self.inv]
        return (out[:, 0] if squeeze else out), None


class BasisEngine:
    """Per-step RidgeConditioner factory over a particle cloud.

    x and run_i are common-path state arrays of shape (M0, steps + 1); w is
    the per-particle coordinate of shape (M0, K, steps + 1).  Strata are
    discrete risk-aversion atoms (a single stratum pools everything).
    """

    def __init__(self, x, run_i, w, basis: RegressionBasis,
                 stratum_ids: np.ndarray | None = None, n_strata: int = 1):
        self.x = x
        self.run_i = run_i
        self.w = w
        self.basis = basis
        M0, K = w.shape[0], w.shape[1]
        self.M0, self.K = M0, K
        if stratum_ids is None:
            stratum_ids = np.zeros(M0 * K, dtype=np.int64)
            n_strata = 1
        self.stratum_ids = stratum_ids
        self.n_strata = n_strata

    def columns_at(self, k: int) -> np.ndarray:
        xk = np.broadcast_to(self.x[:, k, None], (self.M0, self.K)).ravel()
        ik = np.broadcast_to(self.run_i[:, k, None], (self.M0, self.K)).ravel()
        wk = self.w[:, :, k].ravel()
        return feature_columns(self.basis, xk, ik, wk)

    def at(self, k: int, weights: np.ndarray | None = None) -> RidgeConditioner:
        return RidgeConditioner(
            self.columns_at(k), self.stratum_ids, self.n_strata,
            ridge=self.basis.ridge, weights=weights,
        )


class TreeEngine:
    """Per-step GroupMeanConditioner factory from precomputed path keys."""

    def __init__(self, keys_per_step: list[np.ndarray]):
        self.keys = keys_per_step

    def at(self, k: int, weights: np.ndarray | None = None) -> GroupMeanConditioner:
        return GroupMeanConditioner(self.keys[k], weights=weights)
