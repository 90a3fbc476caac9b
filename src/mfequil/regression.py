"""Least-squares conditional expectations with the idiosyncratic coordinate integrated exactly.

An agent's Markov state at step k is its common path's state (x_k, I_k) and
its idiosyncratic level w_k ~ N(0, t_k), independent of the common noise.
The basis is the monomials x^i w^j (1 <= i + j <= degree), the running
integral I and an intercept, so a fitted map is, on each common path m, a
polynomial in w whose coefficients are polynomials in (x_m, I_m).  Targets
come the same way, as per-path coefficient arrays T (L, ..., M0) of
polynomials in w: the power of w first, the common paths last, so that every
map between coefficient arrays is one matrix product over contiguous paths.
The fit is the limit of least squares over K sampled agents per path as K
grows: every sum over them is a Gaussian moment mu_p(t_k) = E[w^p], so with
a_c the common factor of column c and j_c its power of w,

    Gram_cc' = sum_m omega_m a_c(m) a_c'(m) mu_{j_c + j_c'}(t_k),
    rhs_c    = sum_m omega_m a_c(m) sum_l T_l(m) mu_{j_c + l}(t_k),

omega_m the path's weight (1, or a tilted solve's Doleans weight).  Only the
common dimension stays Monte Carlo: this is conditional Monte Carlo over the
idiosyncratic noise (Asmussen & Glynn, Stochastic Simulation, 2007).

Design choices that matter for reproducibility and the exactness tests:

* the intercept is never penalised, so constant targets are fitted exactly;
* columns are centred and scaled by their mean and deviation under the
  weighted path law times the Gaussian law of w, taken from the centred
  moments of the common features, so a constant column has deviation 0
  (every column at t = 0, where the fit is the plain mean) and is dropped;
* ridge is 1e-8 relative to the normalised Gram trace, and an eigenvalue of
  the unridged Gram below the ridge level raises RegressionRankDeficient;
* a fit map (FitMap) is its coefficients on the raw features phi = (1, x,
  ..., x^degree, I) per power of w, (F, J, ...): on a step's paths it is the
  one product map^T phi, the per-path coefficients (J, ..., M0) that fit()
  returns and evaluate() rebuilds, bit for bit;
* every sum over paths is one matrix product, so a fit is one Hankel
  product of the targets with the moments and one product over paths, each
  taken in blocks (apply, path_sums) too small for OpenBLAS to thread;
* a BasisEngine builds each step's factor (kept columns, their mean and
  scale, the Cholesky factor of the ridged Gram: O(q^2)) once, and every
  later read of the step rebuilds only the features from the common state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .errors import RegressionRankDeficient

_CONST_COL_TOL = 1e-12
# w is integrated exactly, so only the common features (1, x, .., x^degree, I)
# are estimated from paths
_MIN_PATHS_PER_FEATURE = 10
# OpenBLAS hands a matrix product above m n k = 4 * 65536 to its thread pool,
# whose idle worker then spins through the numpy work after it; apply and
# path_sums keep every product over the paths below that size, so a solve
# keeps one core busy at any path count
_SERIAL_MNK = 4 * 65536
# sups over w are taken on these multiples of sqrt(t_k): +-6 standard
# deviations, the truncation liabilities.liability_bounds uses, every quarter
W_NODES = np.linspace(-6.0, 6.0, 49)
_NODE_BLOCK = 7


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial state basis: monomials x^i w^j (1 <= i + j <= degree) + I.

    The running integral I is always a column.  include_idio=False drops the
    idiosyncratic coordinate entirely (the correct sufficient state when
    terminal data have no per-agent component): a map is then constant in w,
    and a target's w-dependence, such as kappa w_T, projects out.
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
    def columns(self) -> tuple[tuple[int, int], ...]:
        """Non-intercept columns as (feature, power of w): x^i w^j in order of
        total degree, then w's power (x, w, x^2, x w, w^2, ...), then I.
        Feature 0 is 1, feature i the power x^i, feature degree + 1 is I."""
        cols = [(total - j, j) for total in range(1, self.degree + 1)
                for j in range((total if self.include_idio else 0) + 1)]
        return tuple(cols) + ((self.degree + 1, 0),)

    @property
    def n_powers(self) -> int:
        """J: a fitted map's polynomial in w has coefficients of w^0 .. w^(J - 1)."""
        return self.degree + 1 if self.include_idio else 1


def apply(a: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """a (m, L) applied to the leading axis of coefs (L, ...): (m, ...), the
    product taken a block of columns at a time below _SERIAL_MNK."""
    m, k = a.shape
    if m == k == 1 and a[0, 0] == 1.0:
        return coefs                    # a 1 x 1 identity: the shift or moment map of a constant
    flat = coefs.reshape(k, -1)
    step = max(1, _SERIAL_MNK // (m * k))
    if flat.shape[1] <= step:
        out = a @ flat
    else:
        out = np.empty((m, flat.shape[1]))
        for s in range(0, flat.shape[1], step):
            np.matmul(a, flat[:, s:s + step], out=out[:, s:s + step])
    return out.reshape((m,) + coefs.shape[1:])


def path_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (m, M0) @ b (n, M0)^T, the sum over paths taken a block of paths at
    a time below _SERIAL_MNK, the blocks added in order."""
    step = max(1, _SERIAL_MNK // (a.shape[0] * b.shape[0]))
    out = a[:, :step] @ b[:, :step].T
    for s in range(step, a.shape[1], step):
        out += a[:, s:s + step] @ b[:, s:s + step].T
    return out


def gauss_moments(t: float, n: int) -> np.ndarray:
    """E[w^p] for w ~ N(0, t), p = 0 .. n - 1: (p - 1)!! t^(p / 2) at even p, 0 at odd."""
    mu = np.zeros(n)
    mu[0] = 1.0
    for p in range(2, n, 2):
        mu[p] = mu[p - 2] * (p - 1) * t
    return mu


def hankel(t: float, rows: int, cols: int) -> np.ndarray:
    """H[l, j] = E[w^(l + j)] under N(0, t), (rows, cols): T @ H maps a
    polynomial's coefficients T to E[w^j T(w)]."""
    mu = gauss_moments(t, rows + cols - 1)
    return mu[np.add.outer(np.arange(rows), np.arange(cols))]


def shift_matrix(dt: float, n: int) -> np.ndarray:
    """S[l, i] = C(l, i) E[dw^(l - i)] under dw ~ N(0, dt), (n, n): for
    coefficients c of p, c @ S are those of w -> E[p(w + dw)]."""
    mu = gauss_moments(dt, n)
    return np.array([[comb(l, i) * mu[l - i] if i <= l else 0.0 for i in range(n)]
                     for l in range(n)])


def poly_at(coefs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-path polynomials coefs (L, r, M0) at levels w (M0, N): (M0, N, r)."""
    return np.matmul(w[..., None] ** np.arange(coefs.shape[0]), coefs.transpose(2, 0, 1))


def sup_on_range(coefs: np.ndarray, t: float, absolute: bool = True) -> np.ndarray:
    """Sup over w in +-6 sqrt(t) (on W_NODES) of |p| (of p when absolute is
    False) for per-path polynomials coefs (L, ...): (...), taken _NODE_BLOCK
    nodes at a time, so no array over all the nodes is formed."""
    powers = (W_NODES * np.sqrt(t))[:, None] ** np.arange(coefs.shape[0])
    out = None
    for s in range(0, W_NODES.size, _NODE_BLOCK):
        vals = apply(powers[s:s + _NODE_BLOCK], coefs)
        top = np.max(np.abs(vals) if absolute else vals, axis=0)
        out = top if out is None else np.maximum(out, top)
    return out


@dataclass(frozen=True)
class FitMap:
    """Fitted map of one step: coefficients (F, J, ...) on the raw features per power of w."""

    coef: np.ndarray


@dataclass(frozen=True)
class _Factor:
    """What one step's regression keeps across sweeps: O(q^2), no paths."""

    kept: np.ndarray          # boolean mask over the non-intercept columns
    feature: np.ndarray       # (q_kept,) the kept columns' feature index
    power: np.ndarray         # (q_kept,) the kept columns' power of w
    mu: np.ndarray            # per-kept-column mean
    sd: np.ndarray            # per-kept-column scale
    phi_mean: np.ndarray      # (F,) weighted mean of the common features
    chol: np.ndarray | None   # Cholesky factor of the ridged Gram (None: no kept column)


def _features(degree: int, x_k: np.ndarray, i_k: np.ndarray) -> np.ndarray:
    """phi (F, M0): 1, x, ..., x^degree, I."""
    phi = np.empty((degree + 2, x_k.shape[0]))
    phi[0] = 1.0
    phi[1] = x_k
    for i in range(2, degree + 1):
        np.multiply(phi[i - 1], x_k, out=phi[i])
    phi[degree + 1] = i_k
    return phi


def _factorise(basis: RegressionBasis, phi: np.ndarray, t: float, omega: np.ndarray) -> _Factor:
    """The factor, for features phi (F, M0), of the weighted path law omega
    (M0,) times N(0, t) on w:
    column means mean(a_c) mu_j, covariances C_ii' mu_{j+j'} + mean(a_c)
    mean(a_c') (mu_{j+j'} - mu_j mu_j') from the features' centred
    covariance C, the kept columns, and the Cholesky factor of their ridged
    correlation matrix."""
    F, M0 = phi.shape
    if F * _MIN_PATHS_PER_FEATURE > M0:
        raise RegressionRankDeficient(
            f"{F} common features for {M0} paths; "
            f"need at least {_MIN_PATHS_PER_FEATURE} paths per feature"
        )
    wsum = float(omega.sum())
    phi_mean = path_sums(phi, omega[None])[:, 0] / wsum
    phi_mean[0] = 1.0
    dev = phi - phi_mean[:, None]
    cphi = path_sums(dev * omega, dev) / wsum
    feat, power = (np.array(a) for a in zip(*basis.columns))
    mu = gauss_moments(t, 2 * basis.n_powers - 1)
    pair = np.add.outer(power, power)
    cov = (cphi[np.ix_(feat, feat)] * mu[pair]
           + np.outer(phi_mean[feat], phi_mean[feat]) * (mu[pair] - np.outer(mu[power], mu[power])))
    col_mu = phi_mean[feat] * mu[power]
    sd = np.sqrt(np.maximum(np.diag(cov), 0.0))
    kept = sd > _CONST_COL_TOL * (1.0 + np.abs(col_mu))
    f = _Factor(kept=kept, feature=feat[kept], power=power[kept], mu=col_mu[kept], sd=sd[kept],
                phi_mean=phi_mean, chol=None)
    qk = int(kept.sum())
    if not qk:
        return f
    gram = cov[np.ix_(kept, kept)] / np.outer(f.sd, f.sd)
    lam = basis.ridge * float(np.trace(gram)) / qk
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] < lam:
        raise RegressionRankDeficient(
            f"Gram eigenvalue {eigs[0]:.3e} below ridge level {lam:.3e}: "
            "columns are collinear"
        )
    return replace(f, chol=np.linalg.cholesky(gram + lam * np.eye(qk)))


class RidgeConditioner:
    """Conditional expectation by ridge regression at one step.

    The constructor is the build, on one step's state: x_k and i_k (M0,), the
    step's time t_k (the variance of w) and path weights weights_k (M0,)
    (None: unweighted); it is _factorise.  fit() can then be called with
    several target batches.  A BasisEngine keeps each build's factor for its
    lifetime and binds it (_bound) to the features of the same paths, so a
    later sweep skips the moments, the Gram, the rank check and the
    factorisation.
    """

    def __init__(self, basis: RegressionBasis, x_k, i_k, t_k: float,
                 weights_k: np.ndarray | None = None):
        self._setup(basis, x_k, i_k, t_k, weights_k)
        self._factor = _factorise(basis, self._phi, t_k, np.ones(self._phi.shape[1])
                                  if self._weights is None else self._weights)

    def _setup(self, basis, x_k, i_k, t_k, weights_k):
        self._basis, self._t = basis, float(t_k)
        self._phi = _features(basis.degree, np.asarray(x_k, dtype=float),
                              np.asarray(i_k, dtype=float))
        self._weights = None if weights_k is None else np.asarray(weights_k, dtype=float)
        self._psi = None    # the fits' weighted, centred features, made by the first fit

    @classmethod
    def _bound(cls, basis, x_k, i_k, t_k, weights_k, factor: _Factor) -> RidgeConditioner:
        """A conditioner on an earlier build's factor, for the same paths."""
        self = cls.__new__(cls)
        self._setup(basis, x_k, i_k, t_k, weights_k)
        self._factor = factor
        return self

    def fit(self, targets: np.ndarray) -> tuple[np.ndarray, FitMap]:
        """Per-path coefficients (J, ..., M0) of the fitted polynomials in w,
        and the fit map, for targets (L, ..., M0) of per-path polynomials."""
        L, M0 = targets.shape[0], targets.shape[-1]
        rest = targets.shape[1:-1]
        fac, J = self._factor, self._basis.n_powers
        # E[w^j T] per path, then every weighted sum over paths in one product:
        # column 0 of s is the weighted mean of E[w^j T], column i that of phi_i's
        # deviation times it
        e = apply(hankel(self._t, L, J).T, targets.reshape(L, -1))
        if self._psi is None:
            psi = self._phi - fac.phi_mean[:, None]
            psi[0] = 1.0
            w = self._weights
            self._psi = psi / M0 if w is None else psi * (w / w.sum())
        r = e.shape[1] // M0
        s = path_sums(e.reshape(J * r, M0), self._psi).reshape(J, r, -1)
        beta0 = s[0, :, 0].copy()
        coef = np.zeros((self._phi.shape[0], J, r))
        if fac.chol is not None:
            mu = gauss_moments(self._t, J)
            # cov(column, T) = E[phi~_i w^j T] + mean(phi_i) (E[w^j T] - mu_j E[T])
            cent = s[:, :, 0] - mu[:, None] * s[0, :, 0]
            s[:, :, 0] = 0.0
            rhs = (s[fac.power, :, fac.feature] + fac.phi_mean[fac.feature, None]
                   * cent[fac.power]) / fac.sd[:, None]
            c = np.linalg.solve(fac.chol.T, np.linalg.solve(fac.chol, rhs)) / fac.sd[:, None]
            coef[fac.feature, fac.power] = c
            beta0 -= fac.mu @ c
        coef[0, 0] += beta0
        fit = FitMap(coef=coef.reshape((coef.shape[0], J) + rest))
        return self.evaluate(fit), fit

    def evaluate(self, fit: FitMap) -> np.ndarray:
        """A fit map of this step on its paths, (J, ..., M0): what fit() returned for it, bit for bit."""
        F = fit.coef.shape[0]
        out = apply(fit.coef.reshape(F, -1).T, self._phi)
        return out.reshape(fit.coef.shape[1:] + (self._phi.shape[1],))


class BasisEngine:
    """Per-step RidgeConditioner factory over common paths.

    x and run_i are common-path state arrays of shape (M0, steps + 1) and
    times the grid's (steps + 1,) times, t_k the variance of w at step k.
    weights, of shape (M0, steps + 1), are the cumulative importance weights
    of a measure change; step k regresses with weights[:, k + 1].  The first
    at(k) builds step k's conditioner; every later at(k) reuses its factor,
    O(q^2) numbers kept for the engine's lifetime, which is that of the
    solution it serves.
    """

    def __init__(self, x, run_i, times, basis: RegressionBasis, weights: np.ndarray | None = None):
        self.x = x
        self.run_i = run_i
        self.times = np.asarray(times, dtype=float)
        self.basis = basis
        self.weights = weights
        self._memo: dict[int, _Factor] = {}

    def at(self, k: int) -> RidgeConditioner:
        state = (self.basis, self.x[:, k], self.run_i[:, k], self.times[k],
                 None if self.weights is None else self.weights[:, k + 1])
        if k in self._memo:
            return RidgeConditioner._bound(*state, self._memo[k])
        cond = RidgeConditioner(*state)
        self._memo[k] = cond._factor
        return cond
