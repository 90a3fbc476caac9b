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
* sums over rows keep one order (the Gram is accumulated in a fixed block
  order, X^T y is one product), whatever the BLAS thread count.  A fit map is
  evaluated _ROW_BLOCK rows at a time, so no product reaches OpenBLAS's thread
  pool, whose idle worker spins through the numpy work after it; each row's
  sum is unchanged (a lone last row joins the block before it, since numpy
  computes a one-row product as a matrix-vector one).  The column means
  and variances of a build and a fit's intercepts are numpy's: a sum over
  two or more columns adds the rows in order, which _sum_rows does in one
  pass; a single column is summed pairwise, by numpy itself;
* ridge is 1e-8 relative to the normalised Gram trace, and an eigenvalue of
  the unridged Gram below the ridge level raises RegressionRankDeficient;
* a stratum is a contiguous range of the particle axis, given by its size:
  sizes (S,) say that the first sizes[0] particles of every path are
  stratum 0, the next sizes[1] stratum 1, and so on.  A stratum's rows are
  a slice of the particle axis, in the flat row order (path, particle);
* a fit map is per stratum its intercepts and coefficients; the kept
  columns, mean and scale they apply to are the step's factor;
* a BasisEngine builds each step's conditioner once and keeps only its
  factors (kept columns, column mean and scale, weight sum, Cholesky factor
  of the ridged Gram: O(q^2) per stratum) for its lifetime, which is that
  of the solution it serves.  A Picard sweep, and every later read of the
  solution, regresses on the same state as the first, so it reuses the
  factor: it writes each stratum's kept columns straight from that
  stratum's slice of the levels into the column-major array the fit reads,
  with the products the build makes, and standardises them there with the
  stored mean and scale.  No whole design is formed and nothing is
  gathered.  Columns, rows and weights are the same bits every time, so
  every fit is bit-identical to a fresh build, and a conditioner evaluates
  a stored fit map on its rows to the same bits its fit() returned: the one
  reader of a map, also on other particles of the same paths (BasisEngine.on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegressionRankDeficient
from .paths import block_ranges

_CONST_COL_TOL = 1e-12
_MIN_ROWS_PER_COLUMN = 10
_ROW_BLOCK = 8192


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial state basis: monomials x^i w^j (1 <= i + j <= degree) + I.

    The running integral I is always a column.  include_idio=False drops the
    idiosyncratic coordinate entirely (the correct sufficient state when
    terminal data have no per-agent component); spurious w-columns would
    otherwise leak sampling noise into per-agent quantities that cancel
    exactly in the continuum.
    """

    degree: int = 2
    ridge: float = 1e-8
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
        return poly + 1


def _write_columns(basis: RegressionBasis, x, run_i, w, out: list) -> None:
    """The raw columns of the broadcast state, in column order, into out[i] (None:
    not written): x^i w^j (1 <= i + j <= degree) from running powers, then I.
    The one monomial loop of feature_columns and of a reuse."""
    xp, wp = [1.0, x], [1.0, w]
    for _ in range(2, basis.degree + 1):
        xp.append(xp[-1] * x)
        if basis.include_idio:
            wp.append(wp[-1] * w)
    i = 0
    for total in range(1, basis.degree + 1):
        for j in range((total if basis.include_idio else 0) + 1):
            if out[i] is not None:
                np.multiply(xp[total - j], wp[j], out=out[i])
            i += 1
    if out[i] is not None:
        out[i][...] = run_i


def feature_columns(basis: RegressionBasis, x, run_i, w) -> np.ndarray:
    """Non-intercept design columns, one row per element of the broadcast state.

    The state arrays are flat, of shape (P,), or common-path state of shape
    (M0, 1) against particles of shape (M0, K), which gives rows row-major in
    (path, particle) and takes the powers of x once per path.  Rows are
    filled a block at a time, so the strided column writes stay in cache.
    """
    x, run_i, w = (np.asarray(a, dtype=float) for a in (x, run_i, w))
    shape = np.broadcast_shapes(x.shape, run_i.shape, w.shape)
    out = np.empty(shape + (basis.n_columns,))
    lead = max(1, _ROW_BLOCK // max(1, int(np.prod(shape[1:]))))
    for s, e in block_ranges(shape[0], block=lead):
        ob = out[s:e]
        _write_columns(basis, x[s:e], run_i[s:e], w[s:e],
                       [ob[..., i] for i in range(basis.n_columns)])
    return out.reshape(-1, basis.n_columns)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-2) of a C-ordered array, to the bit, in one fast pass.

    Over two or more columns numpy adds the rows in order, with an inner loop
    one row long; einsum makes the same additions in the same order without
    that loop.  One column is contiguous and numpy sums it pairwise, which
    einsum does not, so that case stays with numpy.
    """
    if a.shape[-1] < 2:
        return np.sum(a, axis=-2)
    return np.einsum("...ij->...j", a)


@dataclass(frozen=True)
class StratumFit:
    """Fitted map of one stratum at one step, on its _Factor's standardised columns."""

    beta0: np.ndarray         # (r,) intercepts
    coef: np.ndarray          # (q_kept, r)


def _blockwise_gram(xs: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """X^T W X accumulated in fixed block order."""
    P, q = xs.shape
    gram = np.zeros((q, q))
    for s, e in block_ranges(P, block=65536):
        xb = xs[s:e]
        gram += xb.T @ (xb if weights is None else xb * weights[s:e, None])
    return gram


class _Strata:
    """Rows of each stratum over a row layout that is row-major in (path, particle).

    sizes (S,) tile the K = sum(sizes) particles of each of M0 = P / K paths,
    stratum by stratum (a size may be 0).  Stratum s's rows are
    a.reshape(M0, K, r)[:, sel] with sel its slice of the particle axis.
    """

    def __init__(self, sizes, n_rows: int):
        sizes = np.asarray(sizes, dtype=np.int64)
        K = int(sizes.sum())
        if sizes.ndim != 1 or np.any(sizes < 0) or K == 0 or n_rows % K:
            raise ValueError(f"stratum sizes {sizes.tolist()} do not tile {n_rows} rows")
        self.layout = (n_rows // K, K)
        self.sels = [slice(e - n, e) for n, e in zip(sizes.tolist(), np.cumsum(sizes).tolist())]
        self.rows = [self.layout[0] * n for n in sizes.tolist()]

    def take(self, a: np.ndarray, s: int) -> np.ndarray:
        """Stratum s's rows of a (P,) or (P, r) array, C-contiguous, in row order."""
        M0, K = self.layout
        sub = np.ascontiguousarray(a.reshape(M0, K, -1)[:, self.sels[s]])
        return sub.reshape(-1, sub.shape[2]) if a.ndim == 2 else sub.reshape(-1)

    def put(self, out: np.ndarray, s: int, vals: np.ndarray) -> None:
        """Write stratum s's rows of a (P, r) array."""
        M0, K = self.layout
        out.reshape(M0, K, -1)[:, self.sels[s]] = vals.reshape(M0, -1, out.shape[1])


@dataclass(frozen=True)
class _Factor:
    """What one stratum's regression keeps across sweeps: O(q^2), no rows."""

    kept: np.ndarray          # boolean mask over raw columns
    mu: np.ndarray            # per-kept-column mean
    sd: np.ndarray            # per-kept-column scale
    wsum: float               # row count, or total weight
    chol: np.ndarray | None   # Cholesky factor of the ridged Gram (None: no kept column)


class RidgeConditioner:
    """Conditional expectation by stratified ridge regression at one step.

    The constructor is the build: per stratum it standardises the columns,
    accumulates the Gram blockwise, checks its rank with eigvalsh and takes
    the Cholesky factor.  fit() can then be called with several target
    batches.  A BasisEngine keeps each build's factors (kept columns, mean,
    scale, weight sum, Cholesky factor) for its lifetime and binds them
    (_bound) to columns it has written and standardised itself, so a later
    sweep skips the Gram, the rank check and the factorisation.  A stratum's
    standardised columns are column-major at the build and at a reuse, since
    the BLAS products of a fit depend on the layout.  The columns, the rows
    and the weights are the same at every sweep, so the standardised columns
    are the same bits, and so is every fit.
    """

    def __init__(
        self,
        raw_cols: np.ndarray,
        sizes,
        ridge: float = 1e-8,
        weights: np.ndarray | None = None,
    ):
        P, q = raw_cols.shape
        strata = _Strata(sizes, P)
        factors, xss, ws = [], [], []
        for s, n_rows in enumerate(strata.rows):
            if n_rows == 0:
                factors.append(None)
                xss.append(None)
                ws.append(None)
                continue
            if (q + 1) * _MIN_ROWS_PER_COLUMN > n_rows:
                raise RegressionRankDeficient(
                    f"{q + 1} design columns for {n_rows} paths in stratum {s}; "
                    f"need at least {_MIN_ROWS_PER_COLUMN} paths per column"
                )
            cols = strata.take(raw_cols, s)
            w = None if weights is None else strata.take(weights, s)
            # numpy's mean and var: sum / n, then the sum of squared deviations / n
            wsum = float(n_rows) if w is None else float(w.sum())
            mu = _sum_rows(cols if w is None else cols * w[:, None]) / wsum
            dev = cols - mu
            dev *= dev
            if w is not None:
                dev *= w[:, None]
            sd = np.sqrt(_sum_rows(dev) / wsum)
            del dev  # before the standardised copy and the Gram, as var frees its own
            kept = sd > _CONST_COL_TOL * (1.0 + np.abs(mu))
            xs = cols[:, kept]      # column-major, the layout a reuse writes
            xs -= mu[kept]
            xs /= sd[kept]
            gram = _blockwise_gram(xs, w)
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
            factors.append(_Factor(kept=kept, mu=mu[kept], sd=sd[kept], wsum=wsum, chol=chol))
            xss.append(xs)
            ws.append(w)
        self._strata, self._factors, self._xs, self._w = strata, factors, xss, ws

    @classmethod
    def _bound(cls, strata: _Strata, factors: list, xs: list, ws: list) -> RidgeConditioner:
        """A conditioner on an earlier build's factors, over columns already
        standardised with them (BasisEngine.on): no Gram, no factorisation."""
        self = cls.__new__(cls)
        self._strata, self._factors, self._xs, self._w = strata, factors, xs, ws
        return self

    def fit(self, targets: np.ndarray) -> tuple[np.ndarray, list[StratumFit | None]]:
        """Fitted values (same leading shape) and the fit map, a StratumFit per stratum."""
        squeeze = targets.ndim == 1
        ys = targets[:, None] if squeeze else targets
        step_fit: list[StratumFit | None] = []
        for s, fac in enumerate(self._factors):
            if fac is None:
                step_fit.append(None)
                continue
            yb = self._strata.take(ys, s)
            w = self._w[s]
            if w is None:
                beta0 = _sum_rows(yb) / yb.shape[0]
            else:
                beta0 = _sum_rows(yb * w[:, None]) / fac.wsum
            if fac.chol is None:
                coef = np.zeros((0, yb.shape[1]))
            else:
                xs = self._xs[s]
                rhs = xs.T @ (yb if w is None else yb * w[:, None])
                tmp = np.linalg.solve(fac.chol, rhs)
                coef = np.linalg.solve(fac.chol.T, tmp)
            step_fit.append(StratumFit(beta0=beta0, coef=coef))
        out = self.evaluate(step_fit)
        return (out[:, 0] if squeeze else out), step_fit

    def evaluate(self, step_fit: list[StratumFit | None]) -> np.ndarray:
        """A fit map of this step on its rows, (P, r): what fit() returned for it, bit for bit."""
        r = next(f.beta0.shape[0] for f in step_fit if f is not None)
        out = np.empty((sum(self._strata.rows), r))
        for s, (fac, fit) in enumerate(zip(self._factors, step_fit)):
            if fac is None:
                continue
            if fac.chol is None:
                vals = np.broadcast_to(fit.beta0, (self._strata.rows[s], r))
            else:
                n = self._strata.rows[s]
                vals = np.empty((n, r))
                for a in range(0, max(1, n - 1), _ROW_BLOCK):
                    b = a + _ROW_BLOCK if n - a > _ROW_BLOCK + 1 else n
                    np.matmul(self._xs[s][a:b], fit.coef, out=vals[a:b])
                    # a column at a time: the broadcast add runs r elements per
                    # inner loop and is several times slower; the sums are the same
                    for j in range(r):
                        vals[a:b, j] += fit.beta0[j]
            self._strata.put(out, s, vals)
        return out


class BasisEngine:
    """Per-step RidgeConditioner factory over a particle cloud.

    x and run_i are common-path state arrays of shape (M0, steps + 1); w is
    the per-particle coordinate of shape (M0, K, steps + 1), read a step at a
    time (a bundle's wi_first is step-major, so w[:, :, k] is contiguous).
    Strata are discrete risk-aversion atoms, given by their sizes (S,), which
    tile the particle axis in stratum order (None: one stratum of all K).
    weights, of shape (M0, steps + 1), are the cumulative importance weights
    of a measure change; step k regresses with weights[:, k + 1] on every
    particle.

    The first at(k) builds step k's conditioner from the whole design
    (columns_at).  Every later at(k) reuses that build's factors, as
    on(k, ...) does for other particles of the same paths: per stratum, it
    writes the kept columns a block of paths at a time from the stratum's
    (M0, K_s) slice of the levels into a column-major (rows, kept) array,
    and standardises each block there.  The memo holds O(q^2)
    numbers per stratum and step.  It lives as long as the engine, and a
    solution keeps its engine: each later read of step k rebuilds that
    step's values from the columns, the factors and the stored fit map.
    """

    def __init__(self, x, run_i, w, basis: RegressionBasis, strata=None,
                 weights: np.ndarray | None = None):
        self.x = x
        self.run_i = run_i
        self.w = w
        self.basis = basis
        self.M0, self.K = w.shape[0], w.shape[1]
        self.sizes = (self.K,) if strata is None else strata
        self.weights = weights
        self._memo: dict[int, list[_Factor | None]] = {}

    def _design(self, k: int, w_k: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Step k's design columns and row weights on levels w_k of shape (M0, n)."""
        cols = feature_columns(self.basis, self.x[:, k, None], self.run_i[:, k, None], w_k)
        if self.weights is None:
            return cols, None
        return cols, np.broadcast_to(self.weights[:, k + 1, None], w_k.shape).ravel()

    def columns_at(self, k: int) -> np.ndarray:
        return self._design(k, self.w[:, :, k])[0]

    def at(self, k: int) -> RidgeConditioner:
        if k in self._memo:
            return self.on(k, self.w[:, :, k], self.sizes)
        cols, w = self._design(k, self.w[:, :, k])
        cond = RidgeConditioner(cols, self.sizes, ridge=self.basis.ridge, weights=w)
        self._memo[k] = cond._factors
        return cond

    def on(self, k: int, w_k: np.ndarray, sizes) -> RidgeConditioner:
        """Step k's conditioner on other particles of the same common paths:
        levels w_k (M0, N), whose strata tile N with sizes (S,).  It never
        builds: an unbuilt step or a stratum empty at the build raises
        ValueError."""
        factors = self._memo.get(k)
        if factors is None:
            raise ValueError(f"step {k} was never built")
        strata = _Strata(sizes, w_k.size)
        facs, xs, ws = [], [], []
        for s, (f, sel, n) in enumerate(zip(factors, strata.sels, strata.rows, strict=True)):
            if f is None and n:
                raise ValueError(f"stratum {s} was empty at the build but has rows now")
            f = f if n else None
            facs.append(f)
            xs.append(None if f is None else self._standardised(k, w_k[:, sel], f))
            ws.append(None if f is None or self.weights is None
                      else np.repeat(self.weights[:, k + 1], sel.stop - sel.start))
        return RidgeConditioner._bound(strata, facs, xs, ws)

    def _standardised(self, k: int, w_s: np.ndarray, f: _Factor) -> np.ndarray:
        """One stratum's kept columns of step k on its levels w_s (M0, n), written
        where the fit reads them: column-major (rows, kept), each column the
        products feature_columns makes, then (c - mu) / sd in place, a block
        of paths at a time so that each block is standardised in cache."""
        cols = np.flatnonzero(f.kept)
        xs = np.empty((cols.size,) + w_s.shape)
        M0, n = w_s.shape
        mu, sd = f.mu[:, None, None], f.sd[:, None, None]
        for s, e in block_ranges(M0, block=max(1, _ROW_BLOCK // max(1, n))):
            xb = xs[:, s:e]
            out = [None] * self.basis.n_columns
            for i, c in enumerate(cols):
                out[c] = xb[i]
            _write_columns(self.basis, self.x[s:e, k, None], self.run_i[s:e, k, None],
                           w_s[s:e], out)
            xb -= mu
            xb /= sd
        return xs.reshape(cols.size, w_s.size).T
