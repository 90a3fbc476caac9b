"""Each benchmark check passes on its reference and fails just beyond its tolerance.

    python3 -m pytest bench/test_checks.py

The references are exercised on their own model data, so these tests need
neither the program nor its outputs.
"""

import numpy as np
import pytest

import checks

CROSS = {"alpha": 0.0, "beta": 0.0, "delta": [0.4, 0.0], "x0": 1.0, "a": 0.0, "b": 0.003,
         "kappa": 0.0}
EQG_A0 = {"alpha": -0.5, "beta": 0.1, "delta": [0.4, 0.1], "x0": 0.3, "a": 0.0, "b": 0.8,
          "kappa": 0.3}
EQG_ADDITIVE = {"alpha": -0.5, "beta": 0.1, "delta": [0.4, 0.1], "x0": 0.3, "a": -0.2,
                "b": 0.5, "kappa": 0.3}
SIGMA = [[1.0, 0.2], [0.3, 0.9]]
T = 0.5
TIMES = np.linspace(0.0, T, 21)


def _riccati_table(eqg):
    A, B, C = checks.riccati_reference(eqg, T, TIMES)
    return np.column_stack([TIMES, A, B, C])


def test_cross_term_forms_are_the_stated_ones():
    A, B, C = checks.riccati_reference(CROSS, T, TIMES)
    tau = T - TIMES
    assert np.all(A == 0.0)
    np.testing.assert_allclose(B, CROSS["b"] * tau, rtol=1e-15)
    np.testing.assert_allclose(C, 0.16 * CROSS["b"] ** 2 * tau**3 / 6.0, rtol=1e-14, atol=0)


@pytest.mark.parametrize("eqg", [CROSS, EQG_A0])
def test_elementary_forms_match_own_integration(eqg):
    elementary = checks.riccati_reference(eqg, T, TIMES)
    d2 = float(np.dot(eqg["delta"], eqg["delta"]))
    integrated = checks._riccati_rk4(eqg["a"], eqg["b"], eqg["alpha"], eqg["beta"], d2,
                                     T - TIMES)
    for e, i in zip(elementary, integrated):
        assert np.max(np.abs(e - i)) <= 1e-11 * max(np.max(np.abs(e)), 1e-300)


@pytest.mark.parametrize("eqg", [CROSS, EQG_A0, EQG_ADDITIVE])
@pytest.mark.parametrize("column", [1, 2, 3])
def test_riccati_check_tolerance_edge(eqg, column):
    table = _riccati_table(eqg)
    assert checks.check_riccati(table, eqg, T)[0]
    scale = np.max(np.abs(table[:, 2 if column == 1 else column]))
    for factor, expect in ((0.5, True), (1.5, False)):
        bumped = table.copy()
        bumped[3, column] += factor * checks.CLOSED_FORM_RTOL * scale
        assert checks.check_riccati(bumped, eqg, T)[0] is expect


def test_theta_path_check_tolerance_edge():
    _, B, _ = checks.riccati_reference(EQG_A0, T, TIMES[:-1])
    pd = checks.row_space_projector([[1.0, 0.2]]) @ np.asarray(EQG_A0["delta"])
    theta = -B[:, None] * pd[None, :]
    table = np.column_stack([TIMES[:-1], np.zeros(20), theta])
    sigma = [[1.0, 0.2]]
    assert checks.check_theta_path(table, EQG_A0, sigma, T)[0]
    scale = np.max(np.abs(theta))
    for factor, expect in ((0.5, True), (1.5, False)):
        bumped = table.copy()
        bumped[5, 3] += factor * checks.CLOSED_FORM_RTOL * scale
        assert checks.check_theta_path(bumped, EQG_A0, sigma, T)[0] is expect
    # the full-rank market projects onto everything: a dropped component fails
    assert not checks.check_theta_path(table, EQG_A0, SIGMA, T)[0]


def test_projector_is_orthogonal_onto_row_space():
    s = np.array([[1.0, 0.2, -0.3], [0.1, 0.9, 0.4]])
    P = checks.row_space_projector(s)
    np.testing.assert_allclose(P @ P, P, atol=1e-15)
    np.testing.assert_allclose(P, P.T, atol=1e-15)
    np.testing.assert_allclose(s @ P, s, atol=1e-15)


TINY = EQG_ADDITIVE | {"kappa": 0.0}


@pytest.mark.parametrize("eqg", [EQG_ADDITIVE, TINY])
def test_mc_y0_check_tolerance_edge(eqg):
    ref = checks.y0_closed(eqg, T)
    for factor, expect in ((0.99, True), (1.01, False)):
        for sign in (1.0, -1.0):
            y0 = ref * (1.0 + sign * factor * checks.MC_Y0_RTOL)
            assert checks.check_mc_y0(y0, ref, eqg, T)[0] is expect
            closed = ref * (1.0 + sign * factor * checks.CLOSED_FORM_RTOL)
            assert checks.check_mc_y0(ref, closed, eqg, T)[0] is expect


def test_clearing_check_slope_edges_and_order():
    Ns = np.array([10.0, 30.0, 100.0, 300.0, 1000.0])
    for slope, expect in ((-1.0, True), (-1.29, True), (-0.71, True),
                          (-1.31, False), (-0.69, False)):
        table = np.column_stack([Ns, 1e-8 * Ns**slope])
        assert checks.check_clearing(table)[0] is expect
    eps = 1e-8 / Ns
    eps[3] = eps[2] * (1.0 + 1e-12)
    assert not checks.check_clearing(np.column_stack([Ns, eps]))[0]


def test_invariance_check_tolerance_edge():
    for value, expect in ((0.9e-10, True), (1.1e-10, False)):
        table = np.array([[0.0, 1e-16, value], [1.0, 1e-16, 1e-16]])
        assert checks.check_invariance(table)[0] is expect


def _increments(seed=5, M=4000, steps=50):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((M, steps, 1)) * np.sqrt(T / steps)


def test_cost_from_increments_matches_a_plain_loop():
    dW0 = _increments(M=3, steps=4)
    eqg = EQG_ADDITIVE | {"delta": [0.5]}
    dt = T / 4
    got = checks.euler_factor_and_cost(eqg, dW0, dt)
    for m in range(3):
        x, g = eqg["x0"], 0.0
        for k in range(4):
            g += dt * (eqg["a"] * x * x + eqg["b"] * x)
            x += (eqg["alpha"] * x + eqg["beta"]) * dt + 0.5 * dW0[m, k, 0]
        assert got[m] == pytest.approx(g, rel=1e-14)


def test_theta0_check_tolerance_edge():
    g = 0.05 + 0.01 * _increments()[:, 0, 0]
    mean = float(g.mean())
    for factor, expect in ((0.99, True), (1.01, False)):
        y0 = mean * (1.0 + factor * checks.THETA0_RTOL)
        assert checks.check_theta0(y0, g)[0] is expect


def test_tilted_check_tolerance_edge():
    dW0 = _increments()
    g = 0.05 + 0.1 * dW0[:, :, 0].sum(axis=1)
    ref, tol = checks.tilted_tolerance(g, 0.3, dW0, T)
    # under Q the increments drift by -theta dt, so E^Q[G] = 0.05 - 0.1 * 0.3 * T
    assert abs(ref - (0.05 - 0.015 - 0.5 * 0.09 * T)) < tol
    for factor, expect in ((0.99, True), (1.01, False)):
        assert checks.check_tilted(ref + factor * tol, ref, tol, "p")[0] is expect
        assert checks.check_tilted(ref - factor * tol, ref, tol, "q")[0] is expect


def _perturbed(drift_z, utility):
    return {"label": f"p{drift_z}", "drift_z": drift_z, "utility": utility,
            "utility_gap_se": 0.01}


def test_utility_order_check_edges():
    good = [_perturbed(5.0, -1.1), _perturbed(2.01, -1.0 - 1e-12)]
    assert checks.check_utility_order(-1.0, good)[0]
    assert not checks.check_utility_order(-1.0, good + [_perturbed(9.0, -1.0)])[0]
    assert not checks.check_utility_order(-1.0, good + [_perturbed(9.0, -0.9)])[0]


def test_drift_threshold_edges():
    good = [_perturbed(5.0, -1.1), _perturbed(2.01, -1.2)]
    assert checks.check_drift_thresholds(0.0, good)[0]
    assert checks.check_drift_thresholds(2.99, good)[0]
    assert not checks.check_drift_thresholds(3.01, good)[0]
    assert not checks.check_drift_thresholds(-3.01, good)[0]
    assert not checks.check_drift_thresholds(0.0, good + [_perturbed(1.99, -1.3)])[0]
