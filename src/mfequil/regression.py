"""Least-squares conditional expectations for backward induction.

The production engine regresses targets on polynomial features of the Markov
state (x, I, idiosyncratic level w).  One engine serves one set of particles
over the common paths: a solve over several risk-aversion atoms gives each
atom its own engine (see bsde), since risk aversion enters terminal data
multiplicatively, so particles with different gamma follow different value
functions and must not be pooled unless the liability is additive.

Design choices that matter for reproducibility and the exactness tests:

* the intercept is never penalised, so constant targets are fitted exactly;
* non-intercept columns are standardised and constant columns are dropped
  (at t = 0 every state column is constant and the regression correctly
  degenerates to the plain mean);
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
* rows are row-major in (path, particle) over levels (M0, n);
* a fit map is its intercepts and coefficients; the kept columns, mean and
  scale they apply to are the step's factor;
* a BasisEngine builds each step's conditioner once and keeps only its
  factor (kept columns, column mean and scale, weight sum, Cholesky factor
  of the ridged Gram: O(q^2)) for its lifetime, which is that of the
  solution it serves.  A Picard sweep, and every later read of the
  solution, regresses on the same state as the first, so it reuses the
  factor.  A build takes the mean and scale from the raw columns; build and
  reuse then write the kept columns with one writer, straight from the
  levels into the column-major array the fit reads, and standardise them
  there.  No whole design is formed and nothing is gathered.  Columns, rows
  and weights are the same bits every time, so every fit is bit-identical
  to a fresh build, and a conditioner evaluates a stored fit map on its rows
  to the same bits its fit() returned: the one reader of a map, also on
  other particles of the same paths (BasisEngine.on).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    The one monomial loop of feature_columns and _standardised."""
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
class FitMap:
    """Fitted map of one step, on its _Factor's standardised columns."""

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


@dataclass(frozen=True)
class _Factor:
    """What one step's regression keeps across sweeps: O(q^2), no rows."""

    kept: np.ndarray          # boolean mask over raw columns
    mu: np.ndarray            # per-kept-column mean
    sd: np.ndarray            # per-kept-column scale
    wsum: float               # row count, or total weight
    chol: np.ndarray | None   # Cholesky factor of the ridged Gram (None: no kept column)


def _standardised(basis: RegressionBasis, x_k, i_k, w_k: np.ndarray, f: _Factor) -> np.ndarray:
    """The kept columns on levels w_k (M0, n), with x_k and i_k the common
    state (M0,), written where the fit reads them: column-major (rows, kept),
    each column the products feature_columns makes, then (c - mu) / sd in
    place, a block of paths at a time so that each block is standardised in
    cache.  The one writer of a conditioner's columns."""
    cols = np.flatnonzero(f.kept)
    xs = np.empty((cols.size,) + w_k.shape)
    M0, n = w_k.shape
    mu, sd = f.mu[:, None, None], f.sd[:, None, None]
    for s, e in block_ranges(M0, block=max(1, _ROW_BLOCK // max(1, n))):
        xb = xs[:, s:e]
        out = [None] * basis.n_columns
        for i, c in enumerate(cols):
            out[c] = xb[i]
        _write_columns(basis, x_k[s:e, None], i_k[s:e, None], w_k[s:e], out)
        xb -= mu
        xb /= sd
    return xs.reshape(cols.size, w_k.size).T


def _factorise(basis: RegressionBasis, x_k, i_k, w_k: np.ndarray, w):
    """The factor and standardised columns on levels w_k (M0, n) and row
    weights w (None: unweighted): the moments of the raw columns, the kept
    columns from _standardised, and the Cholesky factor of the ridged Gram."""
    q, n_rows = basis.n_columns, w_k.size
    if (q + 1) * _MIN_ROWS_PER_COLUMN > n_rows:
        raise RegressionRankDeficient(
            f"{q + 1} design columns for {n_rows} paths; "
            f"need at least {_MIN_ROWS_PER_COLUMN} paths per column"
        )
    cols = feature_columns(basis, x_k[:, None], i_k[:, None], w_k)
    # numpy's mean and var: sum / n, then the sum of squared deviations / n;
    # the deviations overwrite the raw columns, freed before the kept ones are written
    wsum = float(n_rows) if w is None else float(w.sum())
    mu = _sum_rows(cols if w is None else cols * w[:, None]) / wsum
    cols -= mu
    cols *= cols
    if w is not None:
        cols *= w[:, None]
    sd = np.sqrt(_sum_rows(cols) / wsum)
    del cols
    kept = sd > _CONST_COL_TOL * (1.0 + np.abs(mu))
    f = _Factor(kept=kept, mu=mu[kept], sd=sd[kept], wsum=wsum, chol=None)
    xs = _standardised(basis, x_k, i_k, w_k, f)
    qk = xs.shape[1]
    if not qk:
        return f, xs
    gram = _blockwise_gram(xs, w)
    lam = basis.ridge * float(np.trace(gram)) / qk
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] < lam:
        raise RegressionRankDeficient(
            f"Gram eigenvalue {eigs[0]:.3e} below ridge level {lam:.3e}: "
            "columns are collinear"
        )
    return replace(f, chol=np.linalg.cholesky(gram + lam * np.eye(qk))), xs


def _row_weights(weights_k: np.ndarray | None, n: int) -> np.ndarray | None:
    """Per-path weights (M0,) repeated over n particles: the rows' weights."""
    return None if weights_k is None else np.repeat(weights_k, n)


class RidgeConditioner:
    """Conditional expectation by ridge regression at one step.

    The constructor is the build, on one step's state: x_k and i_k (M0,),
    levels w_k (M0, n), one row per (path, particle), row-major, and row
    weights weights_k (M0,) (None: unweighted); it is _factorise.  fit() can
    then be called with several target batches.  A BasisEngine keeps each
    build's factor for its lifetime and binds it (_bound) to columns written
    by the same _standardised, so a later sweep skips the moments, the Gram,
    the rank check and the factorisation.  The columns, the rows and the
    weights are the same at every sweep, and so is every fit.
    """

    def __init__(self, basis: RegressionBasis, x_k, i_k, w_k: np.ndarray,
                 weights_k: np.ndarray | None = None):
        self._w = _row_weights(weights_k, w_k.shape[1])
        self._factor, self._xs = _factorise(basis, x_k, i_k, w_k, self._w)

    @classmethod
    def _bound(cls, factor: _Factor, xs: np.ndarray, w) -> RidgeConditioner:
        """A conditioner on an earlier build's factor and columns standardised with it."""
        self = cls.__new__(cls)
        self._factor, self._xs, self._w = factor, xs, w
        return self

    def fit(self, targets: np.ndarray) -> tuple[np.ndarray, FitMap]:
        """Fitted values (same leading shape) and the fit map."""
        squeeze = targets.ndim == 1
        yb = targets[:, None] if squeeze else targets
        fac, w = self._factor, self._w
        if w is None:
            beta0 = _sum_rows(yb) / yb.shape[0]
        else:
            beta0 = _sum_rows(yb * w[:, None]) / fac.wsum
        if fac.chol is None:
            coef = np.zeros((0, yb.shape[1]))
        else:
            rhs = self._xs.T @ (yb if w is None else yb * w[:, None])
            coef = np.linalg.solve(fac.chol.T, np.linalg.solve(fac.chol, rhs))
        fit = FitMap(beta0=beta0, coef=coef)
        out = self.evaluate(fit)
        return (out[:, 0] if squeeze else out), fit

    def evaluate(self, fit: FitMap) -> np.ndarray:
        """A fit map of this step on its rows, (n, r): what fit() returned for it, bit for bit."""
        n, r = self._xs.shape[0], fit.beta0.shape[0]
        vals = np.empty((n, r))
        if self._factor.chol is None:
            vals[...] = fit.beta0
            return vals
        for a in range(0, max(1, n - 1), _ROW_BLOCK):
            b = a + _ROW_BLOCK if n - a > _ROW_BLOCK + 1 else n
            np.matmul(self._xs[a:b], fit.coef, out=vals[a:b])
            # a column at a time: the broadcast add runs r elements per
            # inner loop and is several times slower; the sums are the same
            for j in range(r):
                vals[a:b, j] += fit.beta0[j]
        return vals


class BasisEngine:
    """Per-step RidgeConditioner factory over a particle cloud.

    x and run_i are common-path state arrays of shape (M0, steps + 1); w is
    the per-particle coordinate of shape (M0, K, steps + 1), read a step at a
    time (a bundle's wi is step-major, so w[:, :, k] is contiguous; a slice
    of its particle axis reads the same rows in the same order).  weights,
    of shape (M0, steps + 1), are the cumulative importance weights of a
    measure change; step k regresses with weights[:, k + 1] on every
    particle.

    The first at(k) builds step k's conditioner from that step's state.
    Every later at(k) reuses that build's factor, as on(k, w_k) does for
    other particles of the same paths.  Build and reuse write the kept
    columns with the one _standardised, from the (M0, K) levels, so no
    design is gathered.  The memo holds O(q^2) numbers per step.  It lives
    as long as the engine, and a solution keeps its engines: each later read
    of step k rebuilds that step's values from the columns, the factor and
    the stored fit map.
    """

    def __init__(self, x, run_i, w, basis: RegressionBasis, weights: np.ndarray | None = None):
        self.x = x
        self.run_i = run_i
        self.w = w
        self.basis = basis
        self.M0 = w.shape[0]
        self.weights = weights
        self._memo: dict[int, _Factor] = {}

    def _state(self, k: int) -> tuple:
        """Step k's common state x_k, i_k (M0,) and row weights (M0,) (None: unweighted)."""
        return self.x[:, k], self.run_i[:, k], None if self.weights is None else self.weights[:, k + 1]

    def at(self, k: int) -> RidgeConditioner:
        if k in self._memo:
            return self.on(k, self.w[:, :, k])
        x_k, i_k, weights_k = self._state(k)
        cond = RidgeConditioner(self.basis, x_k, i_k, self.w[:, :, k], weights_k)
        self._memo[k] = cond._factor
        return cond

    def on(self, k: int, w_k: np.ndarray) -> RidgeConditioner:
        """Step k's conditioner on other particles of the same common paths,
        levels w_k (M0, N).  It never builds: an unbuilt step, or levels on
        another path count, raises ValueError."""
        factor = self._memo.get(k)
        if factor is None:
            raise ValueError(f"step {k} was never built")
        if w_k.shape[0] != self.M0:
            raise ValueError(f"levels on {w_k.shape[0]} paths for an engine on {self.M0}")
        x_k, i_k, weights_k = self._state(k)
        return RidgeConditioner._bound(factor, _standardised(self.basis, x_k, i_k, w_k, factor),
                                       _row_weights(weights_k, w_k.shape[1]))
