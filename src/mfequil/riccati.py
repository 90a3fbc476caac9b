"""Exponential-quadratic-Gaussian factor model and its Riccati system.

The common factor is an Ornstein-Uhlenbeck process
    dx_t = (alpha x_t + beta) dt + delta dW0_t,   x_0 given,
and the common liability accumulates the running cost integral
    G0 = int_0^T (a x_t^2 + b x_t) dt,   a <= 0 in applications.

The conditional log-moment y0_t = log E[exp(G0) | F0_t] is quadratic in x_t
with coefficients A(t), B(t), C(t) solving the terminal-value system

    A' + 2|delta|^2 A^2 + 2 alpha A + a = 0,
    B' + (alpha + 2|delta|^2 A) B + 2 beta A + b = 0,
    C' + |delta|^2 A + (beta + |delta|^2 B / 2) B = 0,

with A(T) = B(T) = C(T) = 0.  A has an explicit ratio form built from
rho_pm = alpha +- sqrt(alpha^2 - 2 a |delta|^2); B and C are evaluated by
composite Simpson quadrature of their integral representations, so the
closed-form route shares no machinery with the Runge-Kutta route below and
the two can serve as independent cross-checks.  One closed-form route serves
every a <= 0: at a = 0, A vanishes and B's integrating factor is
exp(alpha (v - t)), so no alpha -> 0 cancellation arises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComplexRho
from .market import TimeGrid

_TINY_S = 1e-12


@dataclass(frozen=True)
class EqgSpec:
    """OU factor parameters and liability coefficients.

    delta is the 1 x d0 factor loading (stored as a flat vector).  kappa is
    the loading of the idiosyncratic Gaussian liability component
    kappa * W^i_T.  a > 0 would make exp(G0) non-integrable for long
    horizons and is rejected.
    """

    alpha: float
    beta: float
    delta: tuple[float, ...]
    x0: float
    a: float
    b: float
    kappa: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(float(v) for v in np.atleast_1d(self.delta)))
        if self.a > 0.0:
            raise ValueError(f"quadratic liability coefficient a must be <= 0, got {self.a}")

    @property
    def delta_vec(self) -> np.ndarray:
        return np.asarray(self.delta, dtype=float)

    @property
    def delta_sq(self) -> float:
        return float(np.dot(self.delta_vec, self.delta_vec))


@dataclass(frozen=True)
class RiccatiSolution:
    """A, B, C sampled on the grid nodes, with the characteristic exponents."""

    grid: TimeGrid
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    rho_plus: float
    rho_minus: float
    method: str


def _discriminant_root(a: float, alpha: float, delta_sq: float) -> float:
    disc = alpha * alpha - 2.0 * a * delta_sq
    if disc < 0.0:
        raise ComplexRho(
            f"alpha^2 - 2 a |delta|^2 = {disc:.6g} < 0; the quadratic exponent has no real roots"
        )
    return float(np.sqrt(disc))


def _a_closed(tau, a, alpha, s):
    """A as a function of time-to-maturity tau, in overflow-safe form."""
    tau = np.asarray(tau, dtype=float)
    if a == 0.0:
        return np.zeros_like(tau)
    if s < _TINY_S:
        return a * tau
    q = np.exp(-2.0 * s * tau)
    return -a * (1.0 - q) / (alpha * (1.0 - q) - s * (1.0 + q))


def _exp_factor(t, v, T, a, alpha, s, delta_sq):
    """exp(int_t^v (alpha + 2|delta|^2 A(u)) du) via the exact antiderivative.

    For s > 0 the integrand equals -s - 2 s rho_+ / (rho_- psi - rho_+) with
    psi(u) = exp(2 s (T - u)), whose antiderivative is
    -s u + log|rho_- - rho_+ / psi(u)|.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if a == 0.0 or delta_sq == 0.0:
        return np.exp(alpha * (v - t))
    if s < _TINY_S:
        corr = a * delta_sq * ((T - t) ** 2 - (T - v) ** 2)
        return np.exp(alpha * (v - t) + corr)
    rp = alpha + s
    rm = alpha - s
    g_v = rm - rp * np.exp(-2.0 * s * (T - v))
    g_t = rm - rp * np.exp(-2.0 * s * (T - t))
    return np.exp(-s * (v - t)) * (g_v / g_t)


def riccati_closed_form(
    a: float,
    b: float,
    alpha: float,
    beta: float,
    delta,
    grid: TimeGrid,
    refine: int = 16,
) -> RiccatiSolution:
    """Closed-form A plus Simpson-quadrature B and C on the grid nodes.

    refine is the number of quadrature subintervals per grid step; the
    quadrature error is O((dt/refine)^4).
    """
    delta_vec = np.atleast_1d(np.asarray(delta, dtype=float))
    delta_sq = float(np.dot(delta_vec, delta_vec))
    s = _discriminant_root(a, alpha, delta_sq)
    T = grid.horizon
    mf = grid.steps * refine
    u = np.linspace(0.0, T, mf + 1)
    h = T / mf
    mid = u[:-1] + 0.5 * h

    def A_at(t):
        return _a_closed(T - np.asarray(t, dtype=float), a, alpha, s)

    def gtil(t):
        return 2.0 * beta * A_at(t) + b

    # backward flow for B: B(u_j) = E(u_j, u_{j+1}) B(u_{j+1}) + local Simpson
    E_full = _exp_factor(u[:-1], u[1:], T, a, alpha, s, delta_sq)
    E_half = _exp_factor(u[:-1], mid, T, a, alpha, s, delta_sq)
    g_lo, g_mid, g_hi = gtil(u[:-1]), gtil(mid), gtil(u[1:])
    local_B = (h / 6.0) * (g_lo + 4.0 * E_half * g_mid + E_full * g_hi)

    B_fine = np.zeros(mf + 1)
    for j in range(mf - 1, -1, -1):
        B_fine[j] = E_full[j] * B_fine[j + 1] + local_B[j]

    # B at midpoints, needed by the C quadrature: half-interval Simpson
    q3 = 0.5 * (mid + u[1:])
    E_m_hi = _exp_factor(mid, u[1:], T, a, alpha, s, delta_sq)
    E_m_q3 = _exp_factor(mid, q3, T, a, alpha, s, delta_sq)
    half_h = 0.5 * h
    local_mid = (half_h / 6.0) * (gtil(mid) + 4.0 * E_m_q3 * gtil(q3) + E_m_hi * g_hi)
    B_mid = E_m_hi * B_fine[1:] + local_mid

    def phi(A_vals, B_vals):
        return delta_sq * A_vals + (beta + 0.5 * delta_sq * B_vals) * B_vals

    phi_lo = phi(A_at(u[:-1]), B_fine[:-1])
    phi_mid = phi(A_at(mid), B_mid)
    phi_hi = phi(A_at(u[1:]), B_fine[1:])
    local_C = (h / 6.0) * (phi_lo + 4.0 * phi_mid + phi_hi)
    C_fine = np.concatenate([np.cumsum(local_C[::-1])[::-1], [0.0]])

    sl = slice(None, None, refine)
    return RiccatiSolution(
        grid=grid, A=A_at(grid.times), B=B_fine[sl].copy(), C=C_fine[sl].copy(),
        rho_plus=alpha + s, rho_minus=alpha - s, method="closed_form",
    )


def riccati_ode(
    a: float,
    b: float,
    alpha: float,
    beta: float,
    delta,
    grid: TimeGrid,
    substeps: int = 64,
) -> RiccatiSolution:
    """Backward classical Runge-Kutta solve of the coupled (A, B, C) system.

    substeps is the RK4 step count per grid interval.  This path shares no
    code with riccati_closed_form.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    delta_vec = np.atleast_1d(np.asarray(delta, dtype=float))
    delta_sq = float(np.dot(delta_vec, delta_vec))
    s = _discriminant_root(a, alpha, delta_sq)
    a, b, alpha, beta = float(a), float(b), float(alpha), float(beta)

    def rhs(A, B, C):
        # reversed time tau = T - t, so the terminal-value system integrates forward
        dA = 2.0 * delta_sq * A * A + 2.0 * alpha * A + a
        dB = (alpha + 2.0 * delta_sq * A) * B + 2.0 * beta * A + b
        dC = delta_sq * A + (beta + 0.5 * delta_sq * B) * B
        return dA, dB, dC

    # scalar float arithmetic: a 3-vector per stage costs more in array
    # construction than in flops
    steps = grid.steps
    h = grid.dt / substeps
    half_h = 0.5 * h
    sixth_h = h / 6.0
    out = np.zeros((3, steps + 1))
    A = B = C = 0.0
    for k in range(steps - 1, -1, -1):
        for _ in range(substeps):
            a1, b1, c1 = rhs(A, B, C)
            a2, b2, c2 = rhs(A + half_h * a1, B + half_h * b1, C + half_h * c1)
            a3, b3, c3 = rhs(A + half_h * a2, B + half_h * b2, C + half_h * c2)
            a4, b4, c4 = rhs(A + h * a3, B + h * b3, C + h * c3)
            A = A + sixth_h * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            B = B + sixth_h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            C = C + sixth_h * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        out[:, k] = (A, B, C)
    return RiccatiSolution(
        grid=grid, A=out[0], B=out[1], C=out[2],
        rho_plus=alpha + s, rho_minus=alpha - s, method="rk4",
    )


def riccati_for_spec(spec: EqgSpec, grid: TimeGrid) -> RiccatiSolution:
    return riccati_closed_form(spec.a, spec.b, spec.alpha, spec.beta, spec.delta_vec, grid)
