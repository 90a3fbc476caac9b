import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfequil import BasisEngine, RegressionBasis, feature_columns
from mfequil.errors import RegressionRankDeficient
from mfequil.regression import RidgeConditioner, _sum_rows

from oracles import GroupMeanConditioner, TreeEngine


def test_column_counts():
    assert RegressionBasis(degree=2).n_columns == 6
    assert RegressionBasis(degree=2, include_idio=False).n_columns == 3
    assert RegressionBasis(degree=3).n_columns == 10
    with pytest.raises(ValueError):
        RegressionBasis(degree=0)


def test_feature_column_layout():
    basis = RegressionBasis(degree=2)
    x = np.array([2.0])
    w = np.array([3.0])
    run_i = np.array([5.0])
    cols = feature_columns(basis, x, run_i, w)
    assert cols.shape == (1, 6)
    # ordering: x, w, x^2, x w, w^2, I
    assert np.allclose(cols[0], [2.0, 3.0, 4.0, 6.0, 9.0, 5.0])
    no_w = feature_columns(RegressionBasis(degree=2, include_idio=False),
                           x, run_i, w)
    assert np.allclose(no_w[0], [2.0, 4.0, 5.0])


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_ridge_recovers_exact_linear_map(seed):
    rng = np.random.default_rng(seed)
    M0, K = 100, 4
    x, run_i = rng.normal(size=(M0, 2)), rng.normal(size=(M0, 2))
    w = rng.normal(size=(M0, K, 2))

    def truth(w):     # linear in the degree-1 columns (x, w, I)
        return (1.5 + 0.3 * x[:, 1, None] - 2.0 * w[:, :, 1] + 0.7 * run_i[:, 1, None]).ravel()

    eng = BasisEngine(x, run_i, w, RegressionBasis(degree=1))
    fitted, step_fit = eng.at(1).fit(truth(w))
    assert np.allclose(fitted, truth(w), atol=1e-6)
    # the stored fit reproduces the same map on fresh particles of the same paths
    fresh = rng.normal(size=(M0, 12, 2))
    pred = eng.on(1, fresh[:, :, 1]).evaluate(step_fit)[:, 0]
    assert np.allclose(pred, truth(fresh), atol=1e-6)


DEGREE_1 = RegressionBasis(degree=1)


def step_state(rng, M0, K):
    """One step's random state: x_k, i_k (M0,) and levels w_k (M0, K)."""
    return rng.normal(size=M0), rng.normal(size=M0), rng.normal(size=(M0, K))


def test_ridge_projects_conditional_mean():
    rng = np.random.default_rng(5)
    M0, K = 1000, 100
    x_k, i_k, w_k = step_state(rng, M0, K)
    target = (2.0 * w_k + rng.normal(size=(M0, K))).ravel()
    fitted, _ = RidgeConditioner(DEGREE_1, x_k, i_k, w_k).fit(target)
    # best L2 predictor given the state is 2 w; noise is orthogonal
    assert np.sqrt(np.mean((fitted - 2.0 * w_k.ravel()) ** 2)) < 0.02


def test_stratified_fit_equals_independent_fits():
    """An atom's engine reads its slice of the cloud's levels, as the
    mean-field solve gives it: its fit is bit for bit the fit of a
    conditioner on its own copy of those levels, and each atom's fit is
    independent of the other's particles."""
    rng = np.random.default_rng(11)
    M0, K = 100, 6
    x, run_i = rng.normal(size=(M0, 2)), rng.normal(size=(M0, 2))
    w = rng.normal(size=(M0, K, 2))
    y = rng.normal(size=(M0, K))
    for sel in (slice(0, 3), slice(3, 6)):
        fitted, fit = BasisEngine(x, run_i, w[:, sel], DEGREE_1).at(1).fit(
            np.ascontiguousarray(y[:, sel]).ravel())
        solo, solo_fit = RidgeConditioner(DEGREE_1, x[:, 1], run_i[:, 1],
                                          w[:, sel, 1].copy()).fit(y[:, sel].ravel())
        assert np.array_equal(fitted, solo)
        assert np.array_equal(fit.coef, solo_fit.coef) and np.array_equal(fit.beta0, solo_fit.beta0)


def test_constant_columns_are_dropped():
    rng = np.random.default_rng(3)
    M0, K = 100, 2
    x_k, _, w_k = step_state(rng, M0, K)
    i_k = np.full(M0, 7.0)                    # I is known at the step
    y = (3.0 + 2.0 * x_k[:, None] - w_k).ravel()
    cond = RidgeConditioner(DEGREE_1, x_k, i_k, w_k)
    fitted, step_fit = cond.fit(y)
    assert np.allclose(fitted, y, atol=1e-6)
    # the kept columns (x, w, I) are the step's factor; the fit map has two coefficients
    assert cond._factor.kept.tolist() == [True, True, False]
    assert step_fit.coef.shape == (2, 1)


def test_collinear_columns_raise():
    rng = np.random.default_rng(4)
    M0, K, steps = 100, 3, 2
    x, run_i = rng.normal(size=(M0, steps + 1)), rng.normal(size=(M0, steps + 1))
    w = rng.normal(size=(M0, K, steps + 1))
    w[:, :, 1] = 2.0 * x[:, 1, None]          # the w column is twice the x column
    with pytest.raises(RegressionRankDeficient, match="collinear"):
        BasisEngine(x, run_i, w, DEGREE_1).at(1)


def test_too_few_rows_raise():
    x_k, i_k, w_k = step_state(np.random.default_rng(0), 10, 3)
    with pytest.raises(RegressionRankDeficient, match="30 paths"):
        RidgeConditioner(RegressionBasis(degree=2), x_k, i_k, w_k)


def test_weighted_fit_shifts_toward_heavy_rows():
    M0, K = 1000, 2
    rng = np.random.default_rng(8)
    x_k, i_k, w_k = step_state(rng, M0, K)
    y = np.repeat(np.where(np.arange(M0) < M0 // 2, 1.0, -1.0), K)
    weights_k = np.where(np.arange(M0) < M0 // 2, 3.0, 1.0)
    cond = RidgeConditioner(DEGREE_1, x_k, i_k, w_k, weights_k)
    _, fit = cond.fit(y)
    assert fit.beta0[0] == pytest.approx((3.0 - 1.0) / 4.0, abs=0.05)


def test_group_mean_conditioner_is_exact():
    keys = np.array([0, 0, 1, 1, 1, 2])
    y = np.array([1.0, 3.0, 2.0, 4.0, 6.0, 10.0])
    fitted, _ = GroupMeanConditioner(keys).fit(y)
    assert np.allclose(fitted, [2.0, 2.0, 4.0, 4.0, 4.0, 10.0])


def test_tree_engine_indexes_steps():
    keys = [np.array([0, 0, 1, 1]), np.array([0, 1, 2, 3])]
    eng = TreeEngine(keys)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    f0, _ = eng.at(0).fit(y)
    f1, _ = eng.at(1).fit(y)
    assert np.allclose(f0, [1.5, 1.5, 3.5, 3.5])
    assert np.allclose(f1, y)


def test_basis_engine_broadcasts_common_state():
    M0, K, steps = 4, 3, 2
    rng = np.random.default_rng(2)
    x = rng.normal(size=(M0, steps + 1))
    run_i = rng.normal(size=(M0, steps + 1))
    w = rng.normal(size=(M0, K, steps + 1))
    cols = feature_columns(DEGREE_1, x[:, 1, None], run_i[:, 1, None], w[:, :, 1])
    assert cols.shape == (M0 * K, 3)
    # row (m, k) carries x[m], w[m, k], I[m]
    assert cols[0, 0] == x[0, 1] and cols[1, 0] == x[0, 1] and cols[3, 0] == x[1, 1]
    assert cols[1, 1] == w[0, 1, 1]
    assert cols[2, 2] == run_i[0, 1]


@pytest.mark.parametrize("basis", [RegressionBasis(degree=3),
                                   RegressionBasis(degree=2, include_idio=False)])
def test_broadcast_state_columns_equal_flat_columns(basis):
    """(M0, 1) common state against (M0, K) particles gives, block by block,
    the same columns as the flat broadcast copies."""
    M0, K = 7, 3000
    rng = np.random.default_rng(9)
    x, run_i, w = rng.normal(size=(M0, 1)), rng.normal(size=(M0, 1)), rng.normal(size=(M0, K))
    flat = feature_columns(basis, np.repeat(x[:, 0], K), np.repeat(run_i[:, 0], K), w.ravel())
    assert flat.shape == (M0 * K, basis.n_columns)
    assert np.array_equal(feature_columns(basis, x, run_i, w), flat)


def degree2_engine(M0=100, K=3, steps=2, seed=6):
    """A degree-2 engine on K particles over M0 paths."""
    rng = np.random.default_rng(seed)
    x, run_i = rng.normal(size=(M0, steps + 1)), rng.normal(size=(M0, steps + 1))
    w = rng.normal(size=(M0, K, steps + 1))
    return BasisEngine(x, run_i, w, RegressionBasis(degree=2))


def test_on_rejects_unbuilt_step_and_other_path_counts(conditioner_builds):
    """Fresh particles are read with the build's factor only: a step that was
    never built, or levels on another path count, raises."""
    eng = degree2_engine()
    rng = np.random.default_rng(7)
    _, fit = eng.at(1).fit(rng.normal(size=eng.M0 * 3))
    fresh = rng.normal(size=(eng.M0, 5, 3))
    assert eng.on(1, fresh[:, :, 1]).evaluate(fit).shape == (500, 1)
    with pytest.raises(ValueError, match="never built"):
        eng.on(0, fresh[:, :, 0])
    # levels on fewer or more paths than the engine's common paths
    for M0 in (50, 200):
        with pytest.raises(ValueError, match=f"levels on {M0} paths for an engine on 100"):
            eng.on(1, rng.normal(size=(M0, 5)))
    assert len(conditioner_builds) == 1


def atom_slices(ids):
    """The particle ranges of atoms of the given sizes, in atom order."""
    ends = np.cumsum(ids).tolist()
    return [slice(e - n, e) for n, e in zip(ids, ends)]


@pytest.mark.parametrize("M0", [3 * 8192 + 17, 3 * 8192 + 1])
@pytest.mark.parametrize("ids", [(1,), (2, 1, 1)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_blocked_evaluate_equals_one_product(M0, ids, order):
    """evaluate() runs the product a row block at a time; every value is the
    bits of one product over the rows followed by the column adds.  ids are
    atom sizes, each atom a conditioner on its slice of the levels: (1,) is
    one atom, (2, 1, 1) gives atom 0 two particles per path.  At
    3 * 8192 + 1 rows the last row joins the block before it, as a one-row
    product rounds differently."""
    rng = np.random.default_rng(31)
    x_k, i_k, w_k = step_state(rng, M0, sum(ids))
    for sel in atom_slices(ids):
        cond = RidgeConditioner(RegressionBasis(degree=2), x_k, i_k, w_k[:, sel])
        cond._xs = np.asarray(cond._xs, order=order)
        _, fit = cond.fit(rng.normal(size=(cond._xs.shape[0], 3)))
        want = cond._xs @ fit.coef
        for j in range(3):
            want[:, j] += fit.beta0[j]
        assert np.array_equal(cond.evaluate(fit), want), sel


# ---------------------------------------------------------------------------
# sums over rows: numpy's bits in one pass
# ---------------------------------------------------------------------------

def _rows(rng, n, r):
    """(n, r) normals with per-column offsets and scales from 1e-8 to 1e8."""
    scale = 10.0 ** rng.uniform(-8, 8, size=r)
    return rng.normal(size=(n, r)) * scale + rng.uniform(-5, 5, size=r) * scale


@pytest.mark.parametrize("n", [3, 1001, 65537, 299_999])
@pytest.mark.parametrize("r", range(1, 9))
def test_sum_rows_is_numpys_sum_mean_and_var(n, r):
    """_sum_rows(a) is np.sum(a, axis=0) to the bit, and so are the mean and
    var taken from it, for every column count: the one-column case must
    stay with numpy, which sums a contiguous column pairwise."""
    rng = np.random.default_rng(1000 * r + n % 1000)
    a = _rows(rng, n, r)
    assert np.array_equal(_sum_rows(a), np.sum(a, axis=0))
    mu = _sum_rows(a) / n
    assert np.array_equal(mu, a.mean(axis=0))
    dev = a - mu
    dev *= dev
    assert np.array_equal(_sum_rows(dev) / n, a.var(axis=0))
    w = np.exp(rng.normal(size=n))
    assert np.array_equal(_sum_rows(a * w[:, None]), (a * w[:, None]).sum(axis=0))


@pytest.mark.parametrize("shape", [(200, 833), (7, 2500), (50, 3), (3, 1)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sum_rows_of_a_cloud_is_numpys_agent_sum(shape, d):
    """On (M0, K, d) it sums over the particle axis as np.sum(axis=1) does."""
    rng = np.random.default_rng(d)
    a = rng.normal(size=shape + (d,)) * 10.0 ** rng.uniform(-8, 8, size=d)
    assert np.array_equal(_sum_rows(a), np.sum(a, axis=1))
    assert np.array_equal(_sum_rows(a) / shape[1], np.mean(a, axis=1))


def test_sum_rows_matches_numpy_on_signed_zeros_and_non_finite_values():
    a = np.array([[-0.0, np.inf, np.nan], [-0.0, -np.inf, 1.0], [-0.0, 1.0, 2.0]])
    with np.errstate(invalid="ignore"):
        got, want = _sum_rows(a), np.sum(a, axis=0)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("sizes", [(1,), (3, 2)])
def test_conditioner_moments_and_intercepts_are_numpys(weighted, sizes):
    """A build's column mean and scale are numpy's (weighted) mean and std
    over the raw columns, and a fit's intercept is numpy's mean of the
    targets (weighted: their weighted sum over the weight sum), to the bit,
    for one target column and for several, on each atom's slice of the
    levels (sizes are the atoms' particle counts).  The state has offsets
    and scales from 1e-4 to 1e4, so the columns span 1e-8 to 1e8."""
    M0, K = 20_001, sum(sizes)
    basis = RegressionBasis(degree=2)
    rng = np.random.default_rng(41)
    offset, scale = rng.uniform(-5, 5, size=3), 10.0 ** rng.uniform(-4, 4, size=3)
    x_k, i_k, w_k = ((rng.normal(size=shape) + o) * c for shape, o, c
                     in zip([M0, M0, (M0, K)], offset, scale))
    w = np.exp(rng.normal(size=M0)) if weighted else None
    for sel in atom_slices(sizes):
        cond = RidgeConditioner(basis, x_k, i_k, w_k[:, sel], w)
        fac = cond._factor
        cols = feature_columns(basis, x_k[:, None], i_k[:, None], w_k[:, sel])
        for r in (1, 2, 5):
            y = _rows(rng, cols.shape[0], r)
            _, fit = cond.fit(y)
            if w is None:
                mu, sd, beta0 = cols.mean(axis=0), cols.std(axis=0), y.mean(axis=0)
            else:
                ws = np.repeat(w, sel.stop - sel.start)[:, None]
                mu = (cols * ws).sum(axis=0) / ws.sum()
                sd = np.sqrt(((cols - mu) ** 2 * ws).sum(axis=0) / ws.sum())
                beta0 = (y * ws).sum(axis=0) / ws.sum()
            assert fac.kept.all()
            assert np.array_equal(fac.mu, mu) and np.array_equal(fac.sd, sd), (r, sel)
            assert np.array_equal(fit.beta0, beta0), (r, sel)


# ---------------------------------------------------------------------------
# the per-step memo of BasisEngine
# ---------------------------------------------------------------------------

def test_reuse_writes_its_columns_where_they_are_read():
    """A reuse at(k) writes its kept columns, standardised, into the array
    its fit reads: its traced peak above what the conditioner keeps is
    under half a (P, q) design.  Building the whole design and copying the
    kept columns from it would cost a design more."""
    M0, K, q = 200, 300, RegressionBasis(degree=2).n_columns
    eng = degree2_engine(M0=M0, K=K)
    eng.at(1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cond = eng.at(1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    design = 8 * M0 * K * q
    assert kept - base >= design        # the standardised columns it keeps
    assert peak - kept < design / 2, (peak - kept, design)
    assert cond._xs.flags.f_contiguous


def test_build_writes_its_columns_where_they_are_read():
    """A build keeps no whole design: it takes the moments of the raw
    columns, frees them, and writes the kept columns with the reuse's
    writer.  Its traced peak above what the conditioner keeps is under a
    quarter of a (P, q) design; a build that keeps the raw design while it
    writes the kept columns costs a design or more."""
    M0, K, q = 200, 300, RegressionBasis(degree=2).n_columns
    eng = degree2_engine(M0=M0, K=K)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cond = eng.at(1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    design = 8 * M0 * K * q
    assert kept - base >= design        # the standardised columns it keeps
    assert peak - kept < design / 4, (peak - kept, design)
    assert cond._xs.flags.f_contiguous


DEGREE_2 = RegressionBasis(degree=2)


@pytest.mark.parametrize("ids, weighted, basis", [
    pytest.param([2, 3, 1], False, DEGREE_2, id="ids0-False"),    # three atoms, by their sizes
    pytest.param([2, 2], False, DEGREE_2, id="ids1-False"),       # two atoms
    pytest.param(None, False, DEGREE_2, id="None-False"),         # one atom
    pytest.param([2, 2], True, DEGREE_2, id="ids3-True"),         # weighted, two atoms
    pytest.param(None, True, DEGREE_2, id="None-True"),           # weighted, one atom
    pytest.param([2, 0, 3], False, DEGREE_2, id="empty-stratum"),
    pytest.param([2, 0, 3], True, DEGREE_2, id="empty-stratum-True"),
    pytest.param([2, 2], False, RegressionBasis(degree=1), id="degree1"),
    pytest.param([2, 3], True, RegressionBasis(degree=3), id="degree3-True"),
    pytest.param([2, 2], False, RegressionBasis(degree=2, include_idio=False), id="no-idio"),
])
def test_memoised_step_equals_fresh_flat_build(ids, weighted, basis):
    """An atom's engine, on its slice of the cloud's levels as the mean-field
    solve gives it, builds at(k) once and then reuses the factor; both calls
    fit bit for bit like a fresh conditioner on the atom's own copy of its
    levels.  ids are the atom sizes (None: one atom of all particles; an
    atom of size 0 gets no engine).  At k = 0 the state is known, every
    column is dropped and the fit is the (weighted) mean."""
    M0, steps = 300, 3
    K = 4 if ids is None else sum(ids)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(M0, steps + 1))
    run_i = rng.normal(size=(M0, steps + 1))
    w = rng.normal(size=(M0, K, steps + 1))
    x[:, 0], run_i[:, 0], w[:, :, 0] = 0.3, 0.0, 0.0
    D = np.exp(0.3 * rng.normal(size=(M0, steps + 1))) if weighted else None
    atoms = [sel for sel in atom_slices([K] if ids is None else ids) if sel.stop > sel.start]
    engines = [BasisEngine(x, run_i, w[:, sel], basis, weights=D) for sel in atoms]
    for k in (steps - 1, 0, 1):
        y = rng.normal(size=(M0, K, 3))
        for call in ("first", "repeat"):
            for sel, eng in zip(atoms, engines):
                y_s = y[:, sel].reshape(-1, 3)
                got, got_fit = eng.at(k).fit(y_s)
                fresh = RidgeConditioner(basis, x[:, k], run_i[:, k], w[:, sel, k].copy(),
                                         None if D is None else D[:, k + 1])
                want, want_fit = fresh.fit(y_s)
                assert np.array_equal(got, want), (call, k, sel)
                assert np.array_equal(eng._memo[k].kept, fresh._factor.kept)
                assert np.array_equal(got_fit.coef, want_fit.coef)
                assert np.array_equal(got_fit.beta0, want_fit.beta0)
    # the repeat calls built nothing: one stored step per k, O(q^2) each
    assert all(sorted(eng._memo) == [0, 1, 2] for eng in engines)
