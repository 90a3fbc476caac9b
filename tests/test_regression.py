import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfequil import BasisEngine, RegressionBasis
from mfequil.errors import RegressionRankDeficient
from mfequil.regression import (
    RidgeConditioner, apply, gauss_moments, hankel, path_sums, poly_at, shift_matrix,
)

from oracles import TreeEngine, gauss_hermite, normal_moments, quadrature_fit


def test_column_counts():
    assert len(RegressionBasis(degree=2).columns) == 6
    assert len(RegressionBasis(degree=2, include_idio=False).columns) == 3
    assert len(RegressionBasis(degree=3).columns) == 10
    assert RegressionBasis(degree=2).n_powers == 3
    assert RegressionBasis(degree=2, include_idio=False).n_powers == 1
    with pytest.raises(ValueError):
        RegressionBasis(degree=0)


def test_feature_column_layout():
    """Columns are (feature, power of w): x, w, x^2, x w, w^2, then I, with
    feature 0 the constant, i the power x^i and degree + 1 the integral."""
    assert RegressionBasis(degree=2).columns == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0))
    assert RegressionBasis(degree=2, include_idio=False).columns == ((1, 0), (2, 0), (3, 0))


def test_gaussian_moments_shift_and_hankel():
    """The moment tables against their definitions: E[w^p] by the double
    factorial, E[w^j p(w)] and E[p(w + dw)] for a random cubic p by
    Gauss-Hermite quadrature."""
    for t in (0.0, 0.05, 0.7):
        assert np.allclose(gauss_moments(t, 9), normal_moments(t, 9), rtol=1e-14, atol=0)
    rng = np.random.default_rng(3)
    c = rng.normal(size=4)
    nodes, weights = gauss_hermite(0.3)
    want = [weights @ (nodes**j * np.polynomial.polynomial.polyval(nodes, c)) for j in range(3)]
    assert np.allclose(c @ hankel(0.3, 4, 3), want, rtol=1e-12)
    du, dw = gauss_hermite(0.05)
    for w in (-1.3, 0.0, 0.4):
        want = dw @ np.polynomial.polynomial.polyval(w + du, c)
        assert np.polynomial.polynomial.polyval(w, c @ shift_matrix(0.05, 4)) == pytest.approx(want)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_ridge_recovers_exact_linear_map(seed):
    rng = np.random.default_rng(seed)
    M0 = 100
    x, run_i = rng.normal(size=(M0, 2)), rng.normal(size=(M0, 2))
    # a target linear in the degree-1 columns (x, w, I): 1.5 + 0.3 x - 2 w + 0.7 I
    target = np.stack([1.5 + 0.3 * x[:, 1] + 0.7 * run_i[:, 1], np.full(M0, -2.0)])
    eng = BasisEngine(x, run_i, np.array([0.0, 0.4]), RegressionBasis(degree=1))
    fitted, step_fit = eng.at(1).fit(target)
    assert np.allclose(fitted, target, atol=1e-6)
    # the stored fit gives the same coefficients on every later read
    assert np.array_equal(eng.at(1).evaluate(step_fit), fitted)


DEGREE_1 = RegressionBasis(degree=1)


def step_state(rng, M0):
    """One step's random common state: x_k, i_k (M0,)."""
    return rng.normal(size=M0), rng.normal(size=M0)


def test_ridge_projects_conditional_mean():
    """A target of degree 3 in w is projected onto degree 1: the Hermite
    expansion w^3 = He_3(w) + 3 t w puts 3 t on w, and w^2 = He_2 + t leaves
    t on the intercept."""
    rng = np.random.default_rng(5)
    M0, t = 1000, 0.4
    x_k, i_k = step_state(rng, M0)
    target = np.zeros((4, M0))
    target[2], target[3] = 1.0, 2.0
    fitted, _ = RidgeConditioner(DEGREE_1, x_k, i_k, t).fit(target)
    assert np.allclose(fitted[0], t, atol=1e-7) and np.allclose(fitted[1], 6.0 * t, atol=1e-7)


def test_stratified_fit_equals_independent_fits():
    """Atoms are fitted side by side in one batch: each atom's fit is the
    fit of its targets alone, to rounding (1e-13).  The batch and the lone
    fit go through matrix products of different shapes, whose BLAS kernels
    may add in another order, so they are not bit for bit the same: they
    differ by up to 3e-16 over seeds 11-19 at 100, 1000 and 20000 paths."""
    rng = np.random.default_rng(11)
    M0 = 100
    x_k, i_k = step_state(rng, M0)
    cond = RidgeConditioner(RegressionBasis(degree=2), x_k, i_k, 0.3)
    y = rng.normal(size=(3, 4, 2, M0))
    fitted, fit = cond.fit(y)
    for s in range(4):
        solo, solo_fit = cond.fit(np.ascontiguousarray(y[:, s]))
        np.testing.assert_allclose(fitted[:, s], solo, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(fit.coef[:, :, s], solo_fit.coef, rtol=1e-12, atol=1e-13)


def test_constant_columns_are_dropped():
    rng = np.random.default_rng(3)
    M0 = 100
    x_k, _ = step_state(rng, M0)
    i_k = np.full(M0, 7.0)                    # I is known at the step
    y = np.stack([3.0 + 2.0 * x_k, np.full(M0, -1.0)])
    cond = RidgeConditioner(DEGREE_1, x_k, i_k, 0.2)
    fitted, _ = cond.fit(y)
    assert np.allclose(fitted, y, atol=1e-6)
    # the kept columns (x, w, I) are the step's factor
    assert cond._factor.kept.tolist() == [True, True, False]
    # at t = 0 every w column is constant too
    assert RidgeConditioner(DEGREE_1, x_k, i_k, 0.0)._factor.kept.tolist() == [True, False, False]


def test_collinear_columns_raise():
    rng = np.random.default_rng(4)
    M0, steps = 100, 2
    x = rng.normal(size=(M0, steps + 1))
    run_i = 2.0 * x                           # the I column is twice the x column
    with pytest.raises(RegressionRankDeficient, match="collinear"):
        BasisEngine(x, run_i, np.linspace(0.0, 0.5, steps + 1), DEGREE_1).at(1)


def test_too_few_rows_raise():
    x_k, i_k = step_state(np.random.default_rng(0), 30)
    with pytest.raises(RegressionRankDeficient, match="4 common features for 30 paths"):
        RidgeConditioner(RegressionBasis(degree=2), x_k, i_k, 0.1)


def test_weighted_fit_shifts_toward_heavy_rows():
    M0 = 1000
    rng = np.random.default_rng(8)
    x_k, i_k = step_state(rng, M0)
    y = np.where(np.arange(M0) < M0 // 2, 1.0, -1.0)[None]
    weights_k = np.where(np.arange(M0) < M0 // 2, 3.0, 1.0)
    cond = RidgeConditioner(DEGREE_1, x_k, i_k, 0.3, weights_k)
    fitted, _ = cond.fit(y)
    # the unweighted fit would be near 0; the weighted one near (3 - 1) / 4
    assert np.mean(fitted[0]) == pytest.approx((3.0 - 1.0) / 4.0, abs=0.05)


def test_group_mean_conditioner_is_exact():
    """The tree engine's conditioner averages over node keys and projects in
    w: a target constant in w is its node mean, and w^2 at t is t."""
    keys = np.array([0, 0, 1, 1, 1, 2])
    y = np.zeros((3, 6))
    y[0] = [1.0, 3.0, 2.0, 4.0, 6.0, 10.0]
    y[2] = 1.0
    fitted, _ = TreeEngine([keys], np.array([0.5]), J=1).at(0).fit(y)
    assert np.allclose(fitted[0], np.array([2.0, 2.0, 4.0, 4.0, 4.0, 10.0]) + 0.5)


def test_tree_engine_indexes_steps():
    keys = [np.array([0, 0, 1, 1]), np.array([0, 1, 2, 3])]
    eng = TreeEngine(keys, np.array([0.0, 0.1]), J=2)
    y = np.array([[1.0, 2.0, 3.0, 4.0]])
    f0, _ = eng.at(0).fit(y)
    f1, _ = eng.at(1).fit(y)
    assert np.allclose(f0[0], [1.5, 1.5, 3.5, 3.5]) and np.allclose(f0[1], 0.0)
    assert np.allclose(f1[0], y[0])
    assert eng.at(1) is eng.at(1)


@pytest.mark.parametrize("basis", [RegressionBasis(degree=2, ridge=0.0),
                                   RegressionBasis(degree=3, ridge=0.0),
                                   RegressionBasis(degree=2, ridge=0.0, include_idio=False)])
@pytest.mark.parametrize("weighted", [False, True])
def test_one_step_fit_is_the_quadrature_least_squares(basis, weighted):
    """One step's fit, without ridge, against an explicit weighted
    least-squares problem over (path, Gauss-Hermite node) rows with
    unstandardised columns: the fitted polynomials agree at every node to
    1e-9 of the target's scale, for a target of degree 4 in w (the degree of
    a driver at degree 2)."""
    rng = np.random.default_rng(17)
    M0, t = 400, 0.35
    x_k, i_k = rng.normal(size=M0), rng.normal(size=M0) * 0.3 + 1.0
    weights = np.exp(rng.normal(size=M0)) if weighted else np.ones(M0)
    target = rng.normal(size=(5, 2, M0)) * np.array([1.0, 0.5, 0.3, 0.2, 0.1])[:, None, None]
    target[0] += x_k**2 - i_k
    fitted, _ = RidgeConditioner(basis, x_k, i_k, t, weights if weighted else None).fit(target)
    want = quadrature_fit(basis.degree, basis.include_idio, x_k, i_k, t, weights,
                          lambda w: poly_at(target, w[:, None])[:, 0])
    nodes, _ = gauss_hermite(t)
    got = poly_at(fitted, np.broadcast_to(nodes, (M0, nodes.size)))
    assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("m, n", [(1, 3), (27, 4), (49, 3), (5, 5)])
def test_blocked_products_are_the_products(m, n):
    """apply and path_sums take their products in blocks: apply's columns
    are the whole product's, and path_sums adds the blocks' sums in order,
    within rounding of the whole product."""
    rng = np.random.default_rng(m + n)
    a, b = rng.normal(size=(m, n)), rng.normal(size=(n, 3, 20_000))
    np.testing.assert_allclose(apply(a, b), np.tensordot(a, b, axes=1), rtol=1e-12, atol=1e-10)
    c, d = rng.normal(size=(m, 50_000)), rng.normal(size=(4, 50_000))
    np.testing.assert_allclose(path_sums(c, d), c @ d.T, rtol=1e-10, atol=1e-9)


# ---------------------------------------------------------------------------
# sums over the paths and over a cloud's agents, against numpy
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _rows(rng, n, r):
    """(r, n): r rows over n paths, with per-row offsets and scales from 1e-8 to 1e8."""
    scale = 10.0 ** rng.uniform(-8, 8, size=r)
    return (rng.normal(size=(n, r)) * scale + rng.uniform(-5, 5, size=r) * scale).T


@pytest.mark.parametrize("n", [3, 1001, 65537, 299_999])
@pytest.mark.parametrize("r", range(1, 9))
def test_sum_rows_is_numpys_sum_mean_and_var(n, r):
    """path_sums, the sum over paths of every moment and fit, against a row
    of ones and a row of weights is the sum over the n paths of r rows: within
    n eps sum |a| of the exact sum (math.fsum), the rounding bound of any
    order of addition, and so within twice that of numpy's sum.  The mean
    and variance taken from it, as _factorise takes them, are numpy's mean
    and var within the same bound.  At r rows a block is _SERIAL_MNK // r
    paths, so 65537 and 299_999 paths span blocks with a short last one.
    The name is the one the particle engine's bit-exact row sum (_sum_rows)
    was tested under; path_sums replaces it."""
    rng = np.random.default_rng(1000 * r + n % 1000)
    a = _rows(rng, n, r)
    mag = np.sum(np.abs(a), axis=1)
    got = path_sums(a, np.ones((1, n)))[:, 0]
    exact = np.array([math.fsum(row) for row in a])
    assert np.all(np.abs(got - exact) <= n * EPS * mag)
    assert np.all(np.abs(got - np.sum(a, axis=1)) <= 2 * n * EPS * mag)
    mu = got / n
    assert np.all(np.abs(mu - a.mean(axis=1)) <= 2 * EPS * mag)
    dev = a - mu[:, None]
    var = np.diag(path_sums(dev, dev)) / n
    assert np.all(np.abs(var - a.var(axis=1)) <= 3 * n * EPS * a.var(axis=1))
    w = np.exp(rng.normal(size=n))
    aw = a * w
    got = path_sums(a, w[None])[:, 0]
    assert np.all(np.abs(got - aw.sum(axis=1)) <= 2 * n * EPS * np.sum(np.abs(aw), axis=1))


@pytest.mark.parametrize("shape", [(200, 833), (7, 2500), (50, 3), (3, 1)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sum_rows_of_a_cloud_is_numpys_agent_sum(shape, d):
    """poly_at reads d per-path polynomials in w (degree 2, coefficient
    scales from 1e-8 to 1e8) at a cloud of agents' levels (M0, K): each
    agent's value is numpy's polyval of its path's coefficients at its own
    level, and the cloud's sum over its agents is numpy's sum of those
    values, each within the rounding bound of its terms.  The name is kept
    from the particle engine's row sum over a cloud; poly_at is what reads
    the solve at a cloud's levels now."""
    M0, K = shape
    rng = np.random.default_rng(d)
    coefs = rng.normal(size=(3, d, M0)) * 10.0 ** rng.uniform(-8, 8, size=d)[:, None]
    w = rng.normal(size=(M0, K)) * 0.7
    got = poly_at(coefs, w)
    assert got.shape == (M0, K, d)
    want = np.stack([np.stack([np.polynomial.polynomial.polyval(w[m], coefs[:, j, m])
                               for j in range(d)], axis=1) for m in range(M0)])
    terms = poly_at(np.abs(coefs), np.abs(w))        # sum_l |c_l| |w|^l
    assert np.all(np.abs(got - want) <= 8 * EPS * terms)
    assert np.all(np.abs(np.sum(got, axis=1) - np.sum(want, axis=1))
                  <= (8 + 2 * K) * EPS * np.sum(terms, axis=1))


DEGREE_2 = RegressionBasis(degree=2)


@pytest.mark.parametrize("atoms, weighted, basis", [
    pytest.param(3, False, DEGREE_2, id="ids0-False"),      # three atoms side by side
    pytest.param(2, False, DEGREE_2, id="ids1-False"),      # two atoms
    pytest.param(1, False, DEGREE_2, id="None-False"),      # one atom
    pytest.param(2, True, DEGREE_2, id="ids3-True"),        # weighted, two atoms
    pytest.param(1, True, DEGREE_2, id="None-True"),        # weighted, one atom
    pytest.param(2, False, RegressionBasis(degree=1), id="degree1"),
    pytest.param(2, True, RegressionBasis(degree=3), id="degree3-True"),
    pytest.param(2, False, RegressionBasis(degree=2, include_idio=False), id="no-idio"),
])
def test_memoised_step_equals_fresh_flat_build(atoms, weighted, basis):
    """The engine builds at(k) once and then reuses the factor; both calls
    fit bit for bit like a fresh conditioner on the same step's state, for
    several atoms' targets side by side.  At k = 0 the state is known, every
    column is dropped and the fit is the (weighted) mean."""
    M0, steps = 300, 3
    rng = np.random.default_rng(21)
    x = rng.normal(size=(M0, steps + 1))
    run_i = rng.normal(size=(M0, steps + 1))
    x[:, 0], run_i[:, 0] = 0.3, 0.0
    times = np.linspace(0.0, 0.6, steps + 1)
    D = np.exp(0.3 * rng.normal(size=(M0, steps + 1))) if weighted else None
    eng = BasisEngine(x, run_i, times, basis, weights=D)
    for k in (steps - 1, 0, 1):
        y = rng.normal(size=(4, atoms, 2, M0))
        for call in ("first", "repeat"):
            got, got_fit = eng.at(k).fit(y)
            fresh = RidgeConditioner(basis, x[:, k], run_i[:, k], times[k],
                                     None if D is None else D[:, k + 1])
            want, want_fit = fresh.fit(y)
            assert np.array_equal(got, want), (call, k)
            assert np.array_equal(eng._memo[k].kept, fresh._factor.kept)
            assert np.array_equal(got_fit.coef, want_fit.coef)
        if k == 0:
            w = np.ones(M0) if D is None else D[:, 1]
            mean = np.tensordot(y, w, axes=([3], [0])) / w.sum()
            mean = np.tensordot(normal_moments(0.0, 4), mean, axes=1)
            np.testing.assert_allclose(got[0], np.broadcast_to(mean[..., None], got[0].shape),
                                       rtol=1e-12, atol=1e-14)
            assert np.all(got[1:] == 0.0)
    # the repeat calls built nothing: one stored step per k, O(q^2) each
    assert sorted(eng._memo) == [0, 1, 2]


def test_basis_engine_broadcasts_common_state():
    """Step k's conditioner reads step k's common state, one feature row per
    path: 1, x_k, x_k^2 and I_k, for path m at column m."""
    M0, steps = 40, 2
    rng = np.random.default_rng(2)
    x = rng.normal(size=(M0, steps + 1))
    run_i = rng.normal(size=(M0, steps + 1))
    cond = BasisEngine(x, run_i, np.array([0.0, 0.1, 0.2]), DEGREE_2).at(1)
    assert cond._phi.shape == (4, M0)
    assert np.array_equal(cond._phi[0], np.ones(M0)) and np.array_equal(cond._phi[1], x[:, 1])
    assert np.array_equal(cond._phi[2], x[:, 1] * x[:, 1])
    assert np.array_equal(cond._phi[3], run_i[:, 1])


@pytest.mark.parametrize("M0", [3 * 8192 + 17, 3 * 8192 + 1])
@pytest.mark.parametrize("ids", [(1,), (2, 1, 1)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_blocked_evaluate_equals_one_product(M0, ids, order):
    """evaluate() takes the product of a fit map with the features a block of
    paths at a time (apply); every value is the bits of one product over all
    paths.  ids give the atoms side by side ((2, 1, 1): three atoms), and
    order the features' memory layout."""
    rng = np.random.default_rng(31)
    x_k, i_k = step_state(rng, M0)
    cond = RidgeConditioner(DEGREE_2, x_k, i_k, 0.3)
    cond._phi = np.asarray(cond._phi, order=order)
    _, fit = cond.fit(rng.normal(size=(3, len(ids), 3, M0)))
    want = fit.coef.reshape(fit.coef.shape[0], -1).T @ cond._phi
    assert np.array_equal(cond.evaluate(fit), want.reshape(cond.evaluate(fit).shape))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("sizes", [(1,), (3, 2)])
def test_conditioner_moments_and_intercepts_are_numpys(weighted, sizes):
    """A build's column mean and scale are numpy's (weighted) mean and std of
    the raw columns over (path, Gauss-Hermite node) rows, the node weights
    times the path weights, and a fit's mean over those rows is numpy's
    weighted mean of the targets, to 1e-12 relative, for the atoms (len(sizes)
    of them) side by side.  The state has offsets and scales from 1e-2 to 1e2."""
    M0 = 5_001
    basis = RegressionBasis(degree=2)
    rng = np.random.default_rng(41)
    offset, scale = rng.uniform(-5, 5, size=2), 10.0 ** rng.uniform(-2, 2, size=2)
    x_k, i_k = ((rng.normal(size=M0) + o) * c for o, c in zip(offset, scale))
    t = 0.37
    w = np.exp(rng.normal(size=M0)) if weighted else np.ones(M0)
    cond = RidgeConditioner(basis, x_k, i_k, t, w if weighted else None)
    fac = cond._factor
    nodes, node_w = gauss_hermite(t)
    rows = (w[:, None] * node_w[None, :]).ravel()
    cols = np.stack([np.outer(x_k**i if i <= 2 else i_k, nodes**j).ravel()
                     for i, j in basis.columns], axis=1)
    mu = (cols * rows[:, None]).sum(axis=0) / rows.sum()
    sd = np.sqrt(((cols - mu) ** 2 * rows[:, None]).sum(axis=0) / rows.sum())
    assert fac.kept.all()
    np.testing.assert_allclose(fac.mu, mu, rtol=1e-12, atol=1e-12 * np.abs(mu).max())
    np.testing.assert_allclose(fac.sd, sd, rtol=1e-12)
    y = rng.normal(size=(3, len(sizes), 2, M0))
    fitted, _ = cond.fit(y)
    at_nodes = lambda c: np.tensordot(nodes[:, None] ** np.arange(c.shape[0]), c, axes=1)  # noqa: E731
    got = np.tensordot(node_w, at_nodes(fitted), axes=1) @ w / w.sum()
    want = np.tensordot(node_w, at_nodes(y), axes=1) @ w / w.sum()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
