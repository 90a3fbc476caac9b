from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mfequil import (
    EqgSpec, TimeGrid, build_scenario, load_config, riccati_closed_form, riccati_ode,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def eqg(a, b, alpha, beta, delta):
    return EqgSpec(alpha=alpha, beta=beta, delta=delta, x0=0.0, a=a, b=b)


def sup_gap(ric1, ric2):
    return max(
        np.max(np.abs(ric1.A - ric2.A)),
        np.max(np.abs(ric1.B - ric2.B)),
        np.max(np.abs(ric1.C - ric2.C)),
    )


@given(
    a=st.floats(-2.0, 0.0),
    b=st.floats(-2.0, 2.0),
    alpha=st.floats(-3.0, 1.0),
    beta=st.floats(-1.0, 1.0),
    d1=st.floats(0.05, 1.5),
    d2=st.floats(0.0, 1.0),
    T=st.floats(0.1, 2.0),
)
@settings(max_examples=40, deadline=None)
# a = 0 with a tiny alpha, where (b / alpha)(exp(alpha tau) - 1) cancels
@example(a=0.0, b=1.0, alpha=1e-10, beta=0.0, d1=1.0, d2=0.0, T=1.0)
# s = sqrt(alpha^2 - 2 a |delta|^2) below 1e-12: A is a tau, with no delta
# (B's factor is exp(alpha (v - t))) and with a tiny a (the quadratic correction)
@example(a=-0.5, b=1.0, alpha=0.0, beta=0.5, d1=0.0, d2=0.0, T=1.0)
@example(a=-1e-30, b=1.0, alpha=0.0, beta=0.5, d1=1.0, d2=0.0, T=1.0)
def test_closed_form_matches_rk4(a, b, alpha, beta, d1, d2, T):
    grid = TimeGrid(T, 16)
    spec = eqg(a, b, alpha, beta, (d1, d2))
    closed = riccati_closed_form(spec, grid)
    ode = riccati_ode(spec, grid, substeps=256)
    assert sup_gap(closed, ode) < 1e-7
    # a <= 0 keeps the discriminant non-negative, so rho_pm are real
    assert np.isfinite(closed.rho_minus) and np.isfinite(closed.rho_plus)
    assert closed.rho_minus <= alpha <= closed.rho_plus


def test_terminal_conditions_are_zero():
    grid = TimeGrid(0.75, 12)
    ric = riccati_closed_form(eqg(-0.4, 0.8, -0.6, 0.2, (0.5, 0.2)), grid)
    assert ric.A[-1] == 0.0
    assert ric.B[-1] == 0.0
    assert ric.C[-1] == 0.0


def test_a_zero_branch_is_analytic():
    grid = TimeGrid(0.5, 10)
    spec = eqg(0.0, 0.7, -0.5, 0.3, (0.4, 0.1))
    ric = riccati_closed_form(spec, grid)
    assert np.all(ric.A == 0.0)
    tau = grid.horizon - grid.times
    expected_b = (0.7 / -0.5) * (np.exp(-0.5 * tau) - 1.0)
    assert np.allclose(ric.B, expected_b, atol=1e-14)
    # C solves C' = -beta B - 0.5 |delta|^2 B^2 backwards; check against RK4
    ode = riccati_ode(spec, grid, substeps=512)
    assert np.max(np.abs(ric.C - ode.C)) < 1e-10


@pytest.mark.parametrize("alpha", [None, 1e-10])
@pytest.mark.parametrize("name", ["cross_term", "eqg_a0", "mf_small"])
def test_a_zero_coefficients_are_tight(name, alpha):
    """The shipped a = 0 parameter sets, as given and at alpha = 1e-10: B is
    b expm1(alpha tau) / alpha (b tau at alpha = 0) to 1e-13 of its largest
    value, and C is RK4's to 1e-10."""
    sc = build_scenario(load_config(str(CONFIGS / f"{name}.json")))
    spec = sc.eqg if alpha is None else replace(sc.eqg, alpha=alpha)
    assert spec.a == 0.0
    ric = riccati_closed_form(spec, sc.grid)
    tau = sc.grid.horizon - sc.grid.times
    if spec.alpha == 0.0:
        b_ref = spec.b * tau
    else:
        b_ref = spec.b * np.expm1(spec.alpha * tau) / spec.alpha
    assert np.all(ric.A == 0.0)
    assert np.max(np.abs(ric.B - b_ref)) <= 1e-13 * np.max(np.abs(b_ref))
    ode = riccati_ode(spec, sc.grid, substeps=512)
    assert np.max(np.abs(ric.C - ode.C)) < 1e-10


def test_alpha_zero_limit():
    grid = TimeGrid(0.5, 10)
    ric = riccati_closed_form(eqg(0.0, 0.7, 0.0, 0.1, (0.4,)), grid)
    assert np.allclose(ric.B, 0.7 * (grid.horizon - grid.times), atol=1e-14)


def test_riccati_quadrature_refines():
    grid = TimeGrid(1.0, 8)
    spec = eqg(-0.8, 1.0, -0.4, 0.3, (0.6,))
    coarse = riccati_closed_form(spec, grid, refine=2)
    fine = riccati_closed_form(spec, grid, refine=64)
    oracle = riccati_ode(spec, grid, substeps=4096)
    assert sup_gap(fine, oracle) < sup_gap(coarse, oracle)
    assert sup_gap(fine, oracle) < 1e-10


def test_spec_rejects_positive_a():
    with pytest.raises(ValueError):
        EqgSpec(alpha=-0.5, beta=0.0, delta=(0.4,), x0=0.0, a=0.1, b=0.0)


def rk4_vector_reference(a, b, alpha, beta, delta, grid, substeps):
    """RK4 on the stacked state (A, B, C), one numpy array per stage."""
    delta_sq = float(np.dot(delta, delta))

    def rhs(state):
        A, B, C = state
        return np.array([
            2.0 * delta_sq * A * A + 2.0 * alpha * A + a,
            (alpha + 2.0 * delta_sq * A) * B + 2.0 * beta * A + b,
            delta_sq * A + (beta + 0.5 * delta_sq * B) * B,
        ])

    h = grid.dt / substeps
    out = np.zeros((3, grid.steps + 1))
    state = np.zeros(3)
    for k in range(grid.steps - 1, -1, -1):
        for _ in range(substeps):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, k] = state
    return out


@pytest.mark.parametrize("a, b, alpha, beta, delta", [
    (-2.0, 0.9, -0.5, 0.2, (0.68, 0.1)),
    (0.0, 0.7, -0.5, 0.3, (0.4, 0.1)),
    (-1, 2, 0, 1, (1.0,)),
])
def test_rk4_scalar_stages_match_vector_reference(a, b, alpha, beta, delta):
    """Same operation order as the stacked-array RK4, so bit-identical output."""
    grid = TimeGrid(0.7, 9)
    ode = riccati_ode(eqg(a, b, alpha, beta, delta), grid, substeps=37)
    ref = rk4_vector_reference(a, b, alpha, beta, np.asarray(delta), grid, 37)
    assert np.array_equal(np.stack([ode.A, ode.B, ode.C]), ref)
