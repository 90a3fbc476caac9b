"""Market primitives: time grid, volatility structure, projection geometry.

The securities market has n risky assets driven by a d0-dimensional common
Brownian motion; each agent additionally sees one idiosyncratic Brownian
motion.  The n x d0 volatility matrix sigma is deterministic and
piecewise constant on the time grid, with uniformly bounded spectrum:
lambda_lo * I <= sigma sigma^T <= lambda_hi * I.

Row vectors z in R^{1 x d0} split orthogonally into a component z_par inside
the row space of sigma_t (the hedgeable directions) and a residual z_perp.
The market price of risk associated with an excess-return vector mu is the
row-space element theta = sigma^T (sigma sigma^T)^{-1} mu.

sigma sigma^T is factorised, and its bounds checked, once, when a `MarketSpec`
is made: there `market_geometry`'s guarded Cholesky factor gives the projector
P = sigma^T (sigma sigma^T)^{-1} sigma and the position map
M = (sigma sigma^T)^{-1} sigma, which `MarketSpec.geometry` serves per grid
step as read-only views; only the replacement check factorises its Q sigma.
Both are accurate to about eps * cond(sigma sigma^T) relative: z_par = z P to
that factor of |z|.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DimensionMismatch, NonpositiveGamma, SingularSigma

# Relative eigenvalue threshold under which sigma sigma^T counts as singular.
_SINGULAR_REL_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with `steps` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        """Grid points t_0 = 0 < ... < t_steps = horizon (length steps + 1)."""
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class MarketSpec:
    """Deterministic market data and its geometry.

    sigma is either a single n x d0 matrix (constant volatility) or a
    steps x n x d0 table (one matrix per grid interval, piecewise constant).
    Construction factorises sigma sigma^T and checks each matrix's eigenvalues:
    a singular sigma, or one below 1e-12 * lambda_hi, raises SingularSigma, one
    outside [lambda_lo, lambda_hi] (to 1e-12 relative) raises ValueError.
    sigma, P and M are kept read-only; `sigma_table` and `geometry` view them.
    """

    n: int
    d0: int
    sigma: np.ndarray
    lambda_lo: float
    lambda_hi: float
    d: InitVar[int] = 1  # not stored; goes once bench/worker.py stops passing d=1

    def __post_init__(self, d):
        sig = np.array(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sig)
        if self.n < 1 or self.d0 < 1 or d != 1:
            raise DimensionMismatch(
                f"need n, d0 >= 1 and d = 1: n={self.n}, d0={self.d0}, d={d}"
            )
        if self.n > self.d0:
            raise DimensionMismatch(
                f"need n <= d0 (no redundant assets), got n={self.n}, d0={self.d0}"
            )
        if sig.ndim not in (2, 3) or sig.shape[-2:] != (self.n, self.d0):
            raise DimensionMismatch(
                f"sigma must be (n, d0) or (steps, n, d0) with n={self.n}, "
                f"d0={self.d0}; got shape {sig.shape}"
            )
        if not (0.0 < self.lambda_lo <= self.lambda_hi):
            raise ValueError(
                f"need 0 < lambda_lo <= lambda_hi, got ({self.lambda_lo}, {self.lambda_hi})"
            )
        proj, pos = market_geometry(sig)
        lam = np.linalg.eigvalsh(sig @ np.swapaxes(sig, -1, -2)).reshape(-1, self.n)
        lo, hi = lam[:, 0], lam[:, -1]
        k = int(np.argmax(lo < _SINGULAR_REL_TOL * self.lambda_hi))  # the first such step
        if lo[k] < _SINGULAR_REL_TOL * self.lambda_hi:
            raise SingularSigma(f"sigma sigma^T at step {k} has eigenvalue {lo[k]:.3e} below "
                                f"{_SINGULAR_REL_TOL:.0e} * lambda_hi")
        lo, hi = float(lo.min()), float(hi.max())
        if lo < self.lambda_lo * (1.0 - 1e-12) or hi > self.lambda_hi * (1.0 + 1e-12):
            raise ValueError(f"sigma sigma^T has eigenvalues in [{lo:.6g}, {hi:.6g}], outside "
                             f"[lambda_lo, lambda_hi] = [{self.lambda_lo}, {self.lambda_hi}]")
        for a in (sig, proj, pos):
            a.flags.writeable = False
        object.__setattr__(self, "_proj", proj)
        object.__setattr__(self, "_pos", pos)

    def _per_step(self, a: np.ndarray, steps: int) -> np.ndarray:
        """a, one matrix per grid step: a table as it is, a constant broadcast."""
        if self.sigma.ndim == 2:
            return np.broadcast_to(a, (steps,) + a.shape)
        if self.sigma.shape[0] != steps:
            raise DimensionMismatch(
                f"sigma table has {self.sigma.shape[0]} entries, grid has {steps} steps"
            )
        return a

    def sigma_table(self, steps: int) -> np.ndarray:
        """Full steps x n x d0 table, a read-only view."""
        return self._per_step(self.sigma, steps)

    def geometry(self, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only per-step projector (steps, d0, d0) and position map (steps, n, d0)."""
        return self._per_step(self._proj, steps), self._per_step(self._pos, steps)


@dataclass(frozen=True)
class PopulationStats:
    """Aggregate risk-aversion statistics of an agent population.

    gamma_hat is the harmonic mean 1 / E[1/gamma]; it is the aggregate
    risk aversion that prices the common-noise hedging demand.
    """

    gamma_hat: float
    gamma_lo: float
    gamma_hi: float

    @property
    def c_gamma(self) -> float:
        """Driver absolute bound constant gamma_hi/2 + gamma_hat^2/gamma_lo."""
        return 0.5 * self.gamma_hi + self.gamma_hat**2 / self.gamma_lo

    def c_gamma_spread(self) -> float:
        """Lipschitz-spread constant used by the contraction gate.

        The fixed-point argument only needs existence of such a constant;
        this implementation documents the choice
        max(gamma_hat, gamma_hat^2 / (2 gamma_lo), gamma_hi / 2).
        """
        return max(
            self.gamma_hat,
            self.gamma_hat**2 / (2.0 * self.gamma_lo),
            0.5 * self.gamma_hi,
        )


def gamma_hat(gammas: np.ndarray, probs: np.ndarray) -> PopulationStats:
    """Population statistics of risk aversions gammas, atoms with
    probabilities probs: the harmonic mean, and the range of the atoms of
    positive probability.  probs must be one nonnegative entry
    per atom, summing to 1 within 1e-12 (as DiscreteDist checks them), or
    ValueError is raised."""
    g = np.asarray(gammas, dtype=float).ravel()
    if g.size == 0:
        raise NonpositiveGamma("empty risk-aversion sample")
    if np.any(~np.isfinite(g)) or np.any(g <= 0.0):
        raise NonpositiveGamma("all risk aversions must be positive and finite")
    p = np.asarray(probs, dtype=float)
    if p.shape != g.shape:
        raise ValueError(f"probabilities of shape {p.shape} for {g.size} risk aversions")
    if not (np.all(p >= 0.0) and abs(float(p.sum()) - 1.0) <= 1e-12):
        raise ValueError("probabilities must be nonnegative and sum to 1")
    held = g[p > 0]
    return PopulationStats(gamma_hat=1.0 / float(p @ (1.0 / g)),
                           gamma_lo=float(np.min(held)), gamma_hi=float(np.max(held)))


def _gram_cholesky(sigma: np.ndarray) -> np.ndarray:
    """Cholesky factor of sigma sigma^T over leading axes.  A pivot below 1e-12
    of its matrix's largest diagonal entry, or subnormal (no relative precision
    left), raises SingularSigma."""
    gram = sigma @ np.swapaxes(sigma, -1, -2)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularSigma("sigma sigma^T is not positive definite") from exc
    piv = np.diagonal(chol, axis1=-2, axis2=-1) ** 2
    diag_scale = np.max(np.diagonal(gram, axis1=-2, axis2=-1), axis=-1, keepdims=True)
    if np.any(piv < _SINGULAR_REL_TOL * diag_scale) or np.any(piv < np.finfo(float).tiny):
        raise SingularSigma("sigma sigma^T has a pivot below 1e-12 relative or a subnormal one")
    return chol


def market_geometry(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projector P = sigma^T (sigma sigma^T)^{-1} sigma, (..., d0, d0), and position
    map M = (sigma sigma^T)^{-1} sigma, (..., n, d0), of sigma (..., n, d0).

    With L the guarded Cholesky factor and X = L^{-1} sigma: P = X^T X, M = L^{-T} X.
    """
    sigma = np.asarray(sigma, dtype=float)
    chol = _gram_cholesky(sigma)
    half = np.linalg.solve(chol, sigma)
    proj = np.swapaxes(half, -1, -2) @ half
    pos = np.linalg.solve(np.swapaxes(chol, -1, -2), half)
    return proj, pos
