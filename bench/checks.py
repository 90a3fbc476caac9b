"""References computed apart from the program, and the checks that use them.

Nothing here imports ``mfequil``: the Riccati coefficients come from their
elementary forms (a = 0) or from this file's own Runge-Kutta integration
(a != 0), the row-space projector from ``numpy.linalg.pinv``, and sample
means from the Brownian increments the program returns.  Every check returns
``(ok, detail)`` where detail is a short human-readable string.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Relative tolerance for quantities the program evaluates in closed form.
CLOSED_FORM_RTOL = 1e-10
# RK4 substeps per output interval of the a != 0 Riccati reference
RK4_SUBSTEPS = 1024
# Relative tolerance for a Monte Carlo y0 (bsde or mean-field) against the
# closed form: three times the worst error seen over 11 seeds (README, "Checks").
MC_Y0_RTOL = 0.2
CLEARING_SLOPE = (-1.3, -0.7)
INVARIANCE_ATOL = 1e-10
# y0 of the theta = 0 solve exceeds the sample mean of G by dt * sum_k
# mean(|z1_k|^2 / 2) >= 0, the regressed idiosyncratic noise; see README.
THETA0_RTOL = 1e-4
# tilted solves against the weighted sample mean: this many standard errors
# of the weighted mean, plus a relative allowance for the O(dt) bias
TILT_SE = 2.0
TILT_BIAS_RTOL = 0.005


# ---------------------------------------------------------------------------
# references


def riccati_reference(eqg: dict, horizon: float, times: np.ndarray):
    """(A, B, C) at the given times for the terminal-value Riccati system.

    With tau = T - t the system integrates forward from zero:
        A' = 2|d|^2 A^2 + 2 alpha A + a,
        B' = (alpha + 2|d|^2 A) B + 2 beta A + b,
        C' = |d|^2 A + (beta + |d|^2 B / 2) B.
    For a = 0, A vanishes and B, C are elementary; otherwise the system is
    integrated with classical RK4 on RK4_SUBSTEPS substeps per output interval.
    """
    a, b = float(eqg["a"]), float(eqg["b"])
    alpha, beta = float(eqg["alpha"]), float(eqg["beta"])
    d2 = float(np.dot(eqg["delta"], eqg["delta"]))
    tau = horizon - np.asarray(times, dtype=float)
    if a == 0.0:
        A = np.zeros_like(tau)
        if alpha == 0.0:
            B = b * tau
            C = 0.5 * beta * b * tau**2 + d2 * b * b * tau**3 / 6.0
        else:
            e1 = np.expm1(alpha * tau)
            e2 = np.expm1(2.0 * alpha * tau)
            k = b / alpha
            B = k * e1
            int_b = k * (e1 / alpha - tau)
            int_b2 = k * k * (e2 / (2.0 * alpha) - 2.0 * e1 / alpha + tau)
            C = beta * int_b + 0.5 * d2 * int_b2
        return A, B, C
    return _riccati_rk4(a, b, alpha, beta, d2, tau)


def _riccati_rk4(a, b, alpha, beta, d2, tau):
    def f(A, B):
        return (2.0 * d2 * A * A + 2.0 * alpha * A + a,
                (alpha + 2.0 * d2 * A) * B + 2.0 * beta * A + b,
                d2 * A + (beta + 0.5 * d2 * B) * B)

    out = np.zeros((3, tau.size))
    A = B = C = 0.0
    t_now = 0.0
    for idx in np.argsort(tau):
        span = float(tau[idx]) - t_now
        if span > 0.0:
            h = span / RK4_SUBSTEPS
            for _ in range(RK4_SUBSTEPS):
                a1, b1, c1 = f(A, B)
                a2, b2, c2 = f(A + 0.5 * h * a1, B + 0.5 * h * b1)
                a3, b3, c3 = f(A + 0.5 * h * a2, B + 0.5 * h * b2)
                a4, b4, c4 = f(A + h * a3, B + h * b3)
                A += (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                B += (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                C += (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            t_now = float(tau[idx])
        out[:, idx] = (A, B, C)
    return out[0], out[1], out[2]


def row_space_projector(sigma) -> np.ndarray:
    """Orthogonal projector onto the row space of sigma, from the pseudo-inverse."""
    s = np.asarray(sigma, dtype=float)
    return np.linalg.pinv(s) @ s


def euler_factor_and_cost(eqg: dict, dW0: np.ndarray, dt: float):
    """Euler path of dx = (alpha x + beta) dt + delta dW0 from the increments,
    and G0 = sum_k dt (a x_k^2 + b x_k) over the left endpoints."""
    M, steps, _ = dW0.shape
    delta = np.asarray(eqg["delta"], dtype=float)
    x = np.full(M, float(eqg["x0"]))
    g = np.zeros(M)
    for k in range(steps):
        g += dt * (eqg["a"] * x * x + eqg["b"] * x)
        x = x + (eqg["alpha"] * x + eqg["beta"]) * dt + dW0[:, k, :] @ delta
    return g


def tilted_mean(g: np.ndarray, theta: float, dW0: np.ndarray, horizon: float):
    """Self-normalised E^Q[G] for constant theta, Q with density
    exp(-theta W_T - theta^2 T / 2), and its standard error."""
    w_T = dW0[:, :, 0].sum(axis=1)
    dens = np.exp(-theta * w_T - 0.5 * theta * theta * horizon)
    dens = dens / dens.mean()
    mean = float(np.mean(dens * g))
    se = float(np.std(dens * (g - mean), ddof=1) / math.sqrt(g.size))
    return mean, se


# ---------------------------------------------------------------------------
# file readers


def read_csv(path: Path) -> np.ndarray:
    """The numeric rows of a CLI CSV file, header dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in r] for r in rows[1:]])


# ---------------------------------------------------------------------------
# checks


def _scaled_gap(got: np.ndarray, ref: np.ndarray, scale: float) -> float:
    return float(np.max(np.abs(got - ref)) / scale)


def check_riccati(table: np.ndarray, eqg: dict, horizon: float):
    """riccati.csv columns (t, A, B, C) against the reference.

    Each column's error is taken relative to that column's largest reference
    value; A, whose reference may vanish identically, is measured on B's scale.
    """
    A, B, C = riccati_reference(eqg, horizon, table[:, 0])
    b_scale = float(np.max(np.abs(B)))
    gaps = {
        "A": _scaled_gap(table[:, 1], A, max(float(np.max(np.abs(A))), b_scale)),
        "B": _scaled_gap(table[:, 2], B, b_scale),
        "C": _scaled_gap(table[:, 3], C, float(np.max(np.abs(C)))),
    }
    worst = max(gaps.values())
    return (worst <= CLOSED_FORM_RTOL,
            f"riccati worst rel {worst:.2e} (tol {CLOSED_FORM_RTOL:g})")


def check_theta_path(table: np.ndarray, eqg: dict, sigma, horizon: float):
    """theta_path.csv for a = 0, where theta_t = -B(t) (Pi delta)^T on every path."""
    _, B, _ = riccati_reference(eqg, horizon, table[:, 0])
    pd = row_space_projector(sigma) @ np.asarray(eqg["delta"], dtype=float)
    ref = -B[:, None] * pd[None, :]
    gap = _scaled_gap(table[:, 2:], ref, float(np.max(np.abs(ref))))
    return (gap <= CLOSED_FORM_RTOL,
            f"theta_path rel {gap:.2e} (tol {CLOSED_FORM_RTOL:g})")


def y0_closed(eqg: dict, horizon: float) -> float:
    """A(0) x0^2 + B(0) x0 + C(0) + kappa^2 T / 2 from the reference."""
    A, B, C = riccati_reference(eqg, horizon, np.array([0.0]))
    x0 = float(eqg["x0"])
    return float(A[0] * x0 * x0 + B[0] * x0 + C[0] + 0.5 * eqg["kappa"] ** 2 * horizon)


def check_mc_y0(y0: float, y0_program: float, eqg: dict, horizon: float):
    """Monte Carlo y0 (bsde or mean-field) on an additive liability against
    the closed form.

    The program's own closed-form y0 must match the reference to
    CLOSED_FORM_RTOL; the Monte Carlo y0 must lie within MC_Y0_RTOL of it.
    """
    ref = y0_closed(eqg, horizon)
    closed_gap = abs(y0_program - ref) / abs(ref)
    rel = abs(y0 - ref) / abs(ref)
    ok = closed_gap <= CLOSED_FORM_RTOL and rel <= MC_Y0_RTOL
    return ok, (f"closed y0 {ref:.6g} (program's rel {closed_gap:.1e}, tol "
                f"{CLOSED_FORM_RTOL:g}); MC y0 {y0:.6g}: rel {rel:.4f} (tol {MC_Y0_RTOL:g})")


def loglog_slope(Ns, eps) -> float:
    x = np.log(np.asarray(Ns, dtype=float))
    y = np.log(np.asarray(eps, dtype=float))
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def check_clearing(table: np.ndarray):
    Ns, eps = table[:, 0], table[:, 1]
    if np.any(eps <= 0.0):
        return False, "clearing eps not all positive"
    slope = loglog_slope(Ns, eps)
    decreasing = bool(np.all(np.diff(eps) < 0.0))
    ok = CLEARING_SLOPE[0] <= slope <= CLEARING_SLOPE[1] and decreasing
    return ok, f"clearing slope {slope:.3f} in {list(CLEARING_SLOPE)}, decreasing {decreasing}"


def check_invariance(table: np.ndarray):
    worst = float(np.max(table[:, 1:])) if table.size else 0.0
    return (worst < INVARIANCE_ATOL,
            f"invariance max discrepancy {worst:.2e} (tol {INVARIANCE_ATOL:g})")


def _close(got: float, ref: float, tol: float, label: str):
    gap = abs(got - ref)
    return gap <= tol, f"{label}: {got:.7g} vs {ref:.7g}, gap {gap:.2e} (tol {tol:.2e})"


def check_theta0(y0: float, g: np.ndarray):
    """theta = 0 on a complete market: y0 is the sample mean of G."""
    mean_g = float(np.mean(g))
    return _close(y0, mean_g, THETA0_RTOL * abs(mean_g), "theta=0 y0 vs mean G")


def tilted_tolerance(g: np.ndarray, theta: float, dW0: np.ndarray, horizon: float):
    """Reference E^Q[G] - theta^2 T / 2 and the tolerance for a tilted y0."""
    mean_q, se_q = tilted_mean(g, theta, dW0, horizon)
    ref = mean_q - 0.5 * theta * theta * horizon
    return ref, TILT_SE * se_q + TILT_BIAS_RTOL * abs(ref)


def check_tilted(y0: float, ref: float, tol: float, label: str):
    return _close(y0, ref, tol, f"{label} y0 vs E^Q[G] - theta^2 T/2")


def check_utility_order(utility_star: float, perturbed: list[dict]):
    """Every perturbation of the candidate optimum lowers mean terminal utility."""
    bad = [r["label"] for r in perturbed if not r["utility"] < utility_star]
    gap_z = min((utility_star - r["utility"]) / r["utility_gap_se"] for r in perturbed)
    return not bad, f"perturbations lose utility (smallest gap {gap_z:.1f} se), not: {bad}"


def check_drift_thresholds(aggregate_z: float, perturbed: list[dict]):
    """The drift bands of the acceptance audit: optimum |z| < 3, perturbations z > 2.

    These are z-scores at a fixed sample size, so they miss on some seeds;
    run.py reports them without gating (README, "Checks").
    """
    bad = [r["label"] for r in perturbed if not r["drift_z"] > 2.0]
    worst = min(r["drift_z"] for r in perturbed)
    ok = abs(aggregate_z) < 3.0 and not bad
    return ok, (f"aggregate z {aggregate_z:.2f} in (-3, 3), min perturbation drift z "
                f"{worst:.2f} > 2, below: {bad}")
