import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfequil import BasisEngine, RegressionBasis, feature_columns
from mfequil.errors import RegressionRankDeficient
from mfequil.regression import RidgeConditioner, _Strata, _sum_rows

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
    pred = eng.on(1, fresh[:, :, 1], (12,)).evaluate(step_fit)[:, 0]
    assert np.allclose(pred, truth(fresh), atol=1e-6)


def test_ridge_projects_conditional_mean():
    rng = np.random.default_rng(5)
    P = 100000
    raw = rng.normal(size=(P, 1))
    noise = rng.normal(size=P)
    target = 2.0 * raw[:, 0] + noise
    fitted, _ = RidgeConditioner(raw, (P,)).fit(target)
    # best L2 predictor given the design is 2 x; noise is orthogonal
    assert np.sqrt(np.mean((fitted - 2.0 * raw[:, 0]) ** 2)) < 0.02


def test_stratified_fit_equals_independent_fits():
    rng = np.random.default_rng(11)
    P = 600
    raw = rng.normal(size=(P, 3))
    y = rng.normal(size=P)
    fitted, _ = RidgeConditioner(raw, (300, 300)).fit(y)
    for rows in (slice(0, 300), slice(300, 600)):
        solo, _ = RidgeConditioner(raw[rows], (300,)).fit(y[rows])
        assert np.allclose(fitted[rows], solo, atol=1e-12)


def test_constant_columns_are_dropped():
    rng = np.random.default_rng(3)
    P = 200
    raw = np.column_stack([rng.normal(size=P), np.full(P, 7.0)])
    y = 3.0 + 2.0 * raw[:, 0]
    cond = RidgeConditioner(raw, (P,))
    fitted, step_fit = cond.fit(y)
    assert np.allclose(fitted, y, atol=1e-6)
    # the kept columns are the step's factor; the fit map has one coefficient
    assert cond._factors[0].kept.tolist() == [True, False]
    assert step_fit[0].coef.shape == (1, 1)


def test_collinear_columns_raise():
    rng = np.random.default_rng(4)
    P = 300
    base = rng.normal(size=P)
    raw = np.column_stack([base, 2.0 * base])
    with pytest.raises(RegressionRankDeficient):
        RidgeConditioner(raw, (P,))


def test_too_few_rows_raise():
    raw = np.random.default_rng(0).normal(size=(30, 5))
    with pytest.raises(RegressionRankDeficient):
        RidgeConditioner(raw, (30,))


def test_weighted_fit_shifts_toward_heavy_rows():
    P = 1000
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(P, 1))
    y = np.where(np.arange(P) < P // 2, 1.0, -1.0)
    w = np.where(np.arange(P) < P // 2, 3.0, 1.0)
    cond = RidgeConditioner(raw, (P,), weights=w)
    _, fit = cond.fit(y)
    assert fit[0].beta0[0] == pytest.approx((3.0 - 1.0) / 4.0, abs=0.05)


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
    eng = BasisEngine(x, run_i, w, RegressionBasis(degree=1))
    cols = eng.columns_at(1)
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


def two_stratum_engine(M0=100, sizes=(1, 2), steps=2, seed=6):
    """A degree-2 engine with two strata of the given sizes over M0 paths."""
    rng = np.random.default_rng(seed)
    x, run_i = rng.normal(size=(M0, steps + 1)), rng.normal(size=(M0, steps + 1))
    w = rng.normal(size=(M0, sum(sizes), steps + 1))
    return BasisEngine(x, run_i, w, RegressionBasis(degree=2), strata=sizes)


def test_on_rejects_unbuilt_step_and_unseen_stratum(conditioner_builds):
    """Fresh particles are read with the build's factors only: a step that was
    never built, or a stratum that had no rows at the build, raises."""
    eng = two_stratum_engine(sizes=(3, 0))           # stratum 1 empty at the build
    _, fit = eng.at(1).fit(eng.columns_at(1)[:, 0])
    rng = np.random.default_rng(7)
    fresh = rng.normal(size=(eng.M0, 5, 3))
    assert eng.on(1, fresh[:, :, 1], (5, 0)).evaluate(fit).shape == (500, 1)
    with pytest.raises(ValueError, match="never built"):
        eng.on(0, fresh[:, :, 0], (5, 0))
    with pytest.raises(ValueError, match="stratum 1 was empty"):
        eng.on(1, fresh[:, :, 1], (4, 1))
    assert len(conditioner_builds) == 1


@pytest.mark.parametrize("M0", [3 * 8192 + 17, 3 * 8192 + 1])
@pytest.mark.parametrize("ids", [(1,), (2, 1, 1)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_blocked_evaluate_equals_one_product(M0, ids, order):
    """evaluate() runs each stratum's product a row block at a time; every
    value is the bits of one product over the stratum's rows followed by the
    column adds.  ids are the stratum sizes: (1,) is one stratum, (2, 1, 1)
    gives stratum 0 two particles per path.  At 3 * 8192 + 1 rows the last
    row joins the block before it, as a one-row product rounds differently."""
    rng = np.random.default_rng(31)
    raw = rng.normal(size=(M0 * sum(ids), 5))
    cond = RidgeConditioner(raw, ids)
    cond._xs = [np.asarray(xs, order=order) for xs in cond._xs]
    _, step_fit = cond.fit(rng.normal(size=(raw.shape[0], 3)))
    got = cond.evaluate(step_fit)
    for s, (xs, fit) in enumerate(zip(cond._xs, step_fit)):
        want = xs @ fit.coef
        for j in range(3):
            want[:, j] += fit.beta0[j]
        assert np.array_equal(cond._strata.take(got, s), want), s


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
    over the stratum's rows, and a fit's intercept is numpy's mean of the
    targets (weighted: their weighted sum over the weight sum), to the bit,
    for one target column and for several."""
    M0 = 20_001
    rng = np.random.default_rng(41)
    raw = _rows(rng, M0 * sum(sizes), 6)
    w = np.exp(rng.normal(size=raw.shape[0])) if weighted else None
    cond = RidgeConditioner(raw, sizes, weights=w)
    for r in (1, 2, 5):
        y = _rows(rng, raw.shape[0], r)
        _, step_fit = cond.fit(y)
        for s, (fac, fit) in enumerate(zip(cond._factors, step_fit)):
            cols, yb = cond._strata.take(raw, s), cond._strata.take(y, s)
            if w is None:
                mu, sd, beta0 = cols.mean(axis=0), cols.std(axis=0), yb.mean(axis=0)
            else:
                ws = cond._strata.take(w, s)[:, None]
                mu = (cols * ws).sum(axis=0) / ws.sum()
                sd = np.sqrt(((cols - mu) ** 2 * ws).sum(axis=0) / ws.sum())
                beta0 = (yb * ws).sum(axis=0) / ws.sum()
            assert fac.kept.all()
            assert np.array_equal(fac.mu, mu) and np.array_equal(fac.sd, sd), (r, s)
            assert np.array_equal(fit.beta0, beta0), (r, s)


# ---------------------------------------------------------------------------
# the per-step memo of BasisEngine
# ---------------------------------------------------------------------------

def test_reuse_writes_its_columns_where_they_are_read():
    """A reuse at(k) writes each stratum's kept columns, standardised, into
    the arrays its fit reads: its traced peak above what the conditioner
    keeps is under half a (P, q) design.  Building the whole design and
    gathering each stratum from it would cost a design more."""
    M0, K, q = 200, 300, RegressionBasis(degree=2).n_columns
    eng = two_stratum_engine(M0=M0, sizes=(100, 200))
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
    assert all(xs.flags.f_contiguous for xs in cond._xs)


DEGREE_2 = RegressionBasis(degree=2)


@pytest.mark.parametrize("ids, weighted, basis", [
    pytest.param([2, 3, 1], False, DEGREE_2, id="ids0-False"),    # three strata, by their sizes
    pytest.param([2, 2], False, DEGREE_2, id="ids1-False"),       # two strata
    pytest.param(None, False, DEGREE_2, id="None-False"),         # one stratum
    pytest.param([2, 2], True, DEGREE_2, id="ids3-True"),         # weighted, two strata
    pytest.param(None, True, DEGREE_2, id="None-True"),           # weighted, one stratum
    pytest.param([2, 0, 3], False, DEGREE_2, id="empty-stratum"),
    pytest.param([2, 0, 3], True, DEGREE_2, id="empty-stratum-True"),
    pytest.param([2, 2], False, RegressionBasis(degree=1), id="degree1"),
    pytest.param([2, 3], True, RegressionBasis(degree=3), id="degree3-True"),
    pytest.param([2, 2], False, RegressionBasis(degree=2, include_idio=False), id="no-idio"),
])
def test_memoised_step_equals_fresh_flat_build(ids, weighted, basis):
    """engine.at(k) builds once and then reuses the factors, writing each
    stratum's columns itself; both calls fit bit for bit like a fresh
    single-stratum conditioner on the flat rows of each stratum, whose sizes
    are ids (a size-0 stratum has no fit).  At k = 0 the state is known,
    every column is dropped and the fit is the (weighted) mean."""
    M0, steps = 300, 3
    K = 4 if ids is None else sum(ids)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(M0, steps + 1))
    run_i = rng.normal(size=(M0, steps + 1))
    w = rng.normal(size=(M0, K, steps + 1))
    x[:, 0], run_i[:, 0], w[:, :, 0] = 0.3, 0.0, 0.0
    D = np.exp(0.3 * rng.normal(size=(M0, steps + 1))) if weighted else None
    n_strata = 1 if ids is None else len(ids)
    eng = BasisEngine(x, run_i, w, basis, strata=ids, weights=D)
    flat = np.zeros(M0 * K, dtype=np.int64) if ids is None else np.tile(
        np.repeat(np.arange(n_strata), ids), M0)
    for k in (steps - 1, 0, 1):
        y = rng.normal(size=(M0 * K, 3))
        cols = eng.columns_at(k)
        wk = None if D is None else np.repeat(D[:, k + 1], K)
        for call in ("first", "repeat"):
            got, got_fit = eng.at(k).fit(y)
            for s in range(n_strata):
                rows = np.nonzero(flat == s)[0]
                if rows.size == 0:
                    assert got_fit[s] is None
                    continue
                fresh = RidgeConditioner(
                    cols[rows], (rows.size,), weights=None if wk is None else wk[rows],
                )
                want, want_fit = fresh.fit(y[rows])
                assert np.array_equal(got[rows], want), (call, k, s)
                g, r = got_fit[s], want_fit[0]
                assert np.array_equal(eng._memo[k][s].kept, fresh._factors[0].kept)
                assert np.array_equal(g.coef, r.coef)
                assert np.array_equal(g.beta0, r.beta0)
    # the repeat calls built nothing: one stored step per k, O(q^2) each
    assert sorted(eng._memo) == [0, 1, 2]


def test_stratum_ids_must_tile_the_rows():
    raw = np.random.default_rng(1).normal(size=(300, 2))
    RidgeConditioner(raw, (1, 2))                                           # 100 paths of 3
    eng = two_stratum_engine()
    eng.at(1)
    with pytest.raises(ValueError, match="do not tile"):
        RidgeConditioner(raw, (3, 4))
    for bad in ([2, -1, 2], [0, 0]):
        with pytest.raises(ValueError, match="do not tile"):
            RidgeConditioner(raw, bad)
        with pytest.raises(ValueError, match="do not tile"):
            eng.on(1, eng.w[:, :, 1], bad)


def test_strata_are_ranges_of_the_particle_axis():
    strata = _Strata((1, 0, 2), 300)
    assert strata.layout == (100, 3)
    assert strata.sels == [slice(0, 1), slice(1, 1), slice(1, 3)]
    assert strata.rows == [100, 0, 200]


@pytest.mark.parametrize("sizes", [(3, 4), (2, -1, 2), (0, 0), (), ((1, 2),)])
def test_strata_reject_sizes_that_do_not_tile(sizes):
    """A negative size, a zero total, a row count the total does not divide,
    or sizes that are not one list: one ValueError."""
    with pytest.raises(ValueError, match="do not tile"):
        _Strata(sizes, 300)
