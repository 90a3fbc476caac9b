import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mfequil import (
    DimensionMismatch, MarketSpec, PopulationStats, SingularSigma, TimeGrid,
    gamma_hat, market_geometry,
)

from conftest import make_market
from oracles import project, risk_premium_from_mu


def test_time_grid_basics():
    grid = TimeGrid(0.5, 20)
    assert grid.dt == pytest.approx(0.025)
    assert grid.times.shape == (21,)
    assert grid.times[0] == 0.0 and grid.times[-1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_market_spec_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        MarketSpec(n=3, d0=2, sigma=np.eye(3)[:, :2],
                   lambda_lo=0.1, lambda_hi=1.0)
    with pytest.raises(DimensionMismatch):
        MarketSpec(n=2, d0=2, sigma=np.eye(3),
                   lambda_lo=0.1, lambda_hi=1.0)
    with pytest.raises(ValueError):
        MarketSpec(n=2, d0=2, sigma=np.eye(2), lambda_lo=0.0, lambda_hi=1.0)
    with pytest.raises(DimensionMismatch):
        MarketSpec(n=2, d0=2, sigma=np.eye(2), lambda_lo=0.1, lambda_hi=1.0, d=2)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_geometry_is_read_only_views_of_one_factorisation(shape):
    """A constant sigma's geometry, factorised once on the matrix itself, has
    the bits of market_geometry over the broadcast steps table, and a table
    of sigmas has those of its own stack; all of it is read-only, and a grid
    of another length than the table raises DimensionMismatch."""
    rng = np.random.default_rng(sum(shape))
    steps = 7
    for _ in range(20):
        sig = rng.normal(size=shape)
        for market, table in [
            (make_market(sig), np.broadcast_to(sig, (steps,) + shape)),
            (make_market(rng.normal(size=(steps,) + shape)), None),
        ]:
            table = market.sigma if table is None else table
            proj, pos = market.geometry(steps)
            want_proj, want_pos = market_geometry(table)
            assert np.array_equal(proj, want_proj) and np.array_equal(pos, want_pos)
            for a in (market.sigma, market.sigma_table(steps), proj, pos):
                assert not a.flags.writeable
    with pytest.raises(DimensionMismatch):
        market.sigma_table(steps + 1)
    with pytest.raises(DimensionMismatch):
        market.geometry(steps - 1)


def test_market_checks_its_eigenvalue_bounds_when_made():
    """sigma sigma^T's eigenvalues (0.48492 and 1.45508 here) must lie in
    [lambda_lo, lambda_hi], for a constant sigma and for every entry of a
    table; an eigenvalue below 1e-12 lambda_hi raises SingularSigma even
    where the Cholesky pivots pass and the bounds contain it."""
    sig = np.asarray([[1.0, 0.2], [0.3, 0.9]])
    MarketSpec(n=2, d0=2, sigma=sig, lambda_lo=0.48, lambda_hi=1.46)
    for lo, hi in [(0.9, 0.95), (0.5, 1.5), (0.4, 1.4)]:
        with pytest.raises(ValueError, match="outside"):
            MarketSpec(n=2, d0=2, sigma=sig, lambda_lo=lo, lambda_hi=hi)
    table = np.stack([sig, sig, 2.0 * sig])
    with pytest.raises(ValueError, match="outside"):
        MarketSpec(n=2, d0=2, sigma=table, lambda_lo=0.48, lambda_hi=1.46)
    MarketSpec(n=2, d0=2, sigma=table, lambda_lo=0.48, lambda_hi=5.83)
    near = np.array([[1.0, 0.0], [0.99999999999902, 1.4e-6]])
    market_geometry(near)   # the Cholesky pivot guard alone lets it through
    for lo, hi in [(9e-13, 2.01), (1.0, 1.0)]:
        with pytest.raises(SingularSigma, match="step 0 has eigenvalue 9.800e-13"):
            MarketSpec(n=2, d0=2, sigma=near, lambda_lo=lo, lambda_hi=hi)
    with pytest.raises(SingularSigma, match="step 1 has eigenvalue"):
        MarketSpec(n=2, d0=2, sigma=np.stack([sig, near]), lambda_lo=9e-13, lambda_hi=2.01)


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
# relative Cholesky pivot under which the market layer raises SingularSigma
SINGULAR_REL_TOL = 1e-12
# margin over SINGULAR_REL_TOL that keeps rounding in the pivots off the guard
DOMAIN_REL_TOL = 2.0 * SINGULAR_REL_TOL


def gram_extremes(sigma):
    """Smallest and largest eigenvalue of sigma sigma^T."""
    lam = np.linalg.eigvalsh(sigma @ sigma.T)
    return lam[0], lam[-1]


def in_domain(sigma):
    """Uniform ellipticity lambda_min >= 2e-12 lambda_max of sigma sigma^T.

    Every Cholesky pivot of sigma sigma^T is at least lambda_min, and the
    largest diagonal entry is at most lambda_max, so no draw reaches the
    1e-12 relative pivot guard.  lambda_min must also stay a normal float,
    since a subnormal Gram matrix carries no relative precision at all.
    """
    lo, hi = gram_extremes(sigma)
    return lo >= DOMAIN_REL_TOL * hi and lo >= np.finfo(float).tiny


def gram_bound(sigma):
    """Relative error bound 16 eps cond(sigma sigma^T) of the Gram-Cholesky route."""
    lo, hi = gram_extremes(sigma)
    return 16.0 * EPS * hi / lo


def clearly_singular(sigma):
    """A Cholesky pivot of sigma sigma^T lies below 1e-12 of the largest
    diagonal entry or below the smallest normal float.

    The pivots G11 and det G / G11 are taken by hand on G scaled to unit
    largest diagonal, so the product in det G cannot underflow.  Both this
    and the market layer start from the same G, so their pivots differ by
    the rounding of the pivot formulas: a few eps in these units, plus a few
    subnormal steps (eps * tiny) where the market layer's pivots are
    subnormal.  A pivot must clear the threshold by 16 times both to count;
    only pivots inside that margin are left out.
    """
    gram = sigma @ sigma.T
    scale = max(gram[0, 0], gram[1, 1])
    if scale == 0.0:
        return True
    g11, g12, g22 = gram[0, 0] / scale, gram[0, 1] / scale, gram[1, 1] / scale
    pivot = g11 if g11 == 0.0 else min(g11, (g11 * g22 - g12 * g12) / g11)
    floor = TINY / scale   # the smallest normal float in these units
    return pivot < max(SINGULAR_REL_TOL, floor) - 16.0 * EPS * (1.0 + floor)


entries = st.floats(-2.0, 2.0)
rows = st.lists(entries, min_size=3, max_size=3).map(np.array)
free_mats = st.tuples(rows, rows).map(np.stack)


def near_parallel(log10_t):
    """sigma with second row c * r + t * w; cond(sigma sigma^T) grows like 1 / t^2."""
    return st.builds(
        lambda r, c, w, t: np.stack([r, c * r + t * w]),
        rows, entries, rows, log10_t.map(lambda e: 10.0**e),
    )


# the middle branch spans cond ~ 1 to past the domain edge, the last one
# concentrates on cond ~ 1e9 to 5e11 where the error bound is widest
mats = st.one_of(
    free_mats,
    near_parallel(st.floats(-7.0, 0.0)),
    near_parallel(st.floats(-6.5, -4.5)),
).filter(in_domain)


@given(sigma=mats, z=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_projection_splits_orthogonally(sigma, z):
    """z = z_par + z_perp with z_par in range(sigma^T) and sigma z_perp = 0."""
    z = np.array(z)
    bound = gram_bound(sigma)
    z_norm = np.linalg.norm(z)
    image_scale = bound * np.sqrt(gram_extremes(sigma)[1]) * z_norm
    z_par, z_perp = project(sigma, z[None, :])
    assert np.allclose(z_par + z_perp, z, atol=1e-10)
    # parallel part reproduces the same sigma-image, perp is annihilated
    assert np.linalg.norm(sigma @ z_par[0] - sigma @ z) <= image_scale
    assert np.linalg.norm(sigma @ z_perp[0]) <= image_scale
    # idempotence
    again, _ = project(sigma, z_par)
    assert np.linalg.norm(again - z_par) <= bound * z_norm


@given(sigma=mats, mu=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
@example(sigma=np.array([[-1.5, 0.0, 0.5], [-1.50390625, 0.0, 0.5]]), mu=[0.0, 1.0])
@example(sigma=np.array([[-1.5, 0.0, 0.03125], [-1.50390625, 0.0, 0.03125]]),
         mu=[0.0, 1.0])
@settings(max_examples=60, deadline=None)
def test_risk_premium_excess_return_roundtrip(sigma, mu):
    mu = np.array(mu)
    bound = gram_bound(sigma)
    theta = risk_premium_from_mu(sigma, mu[None, :])
    back = theta @ sigma.T
    assert np.linalg.norm(back[0] - mu) <= bound * np.linalg.norm(mu)
    # theta is the minimal-norm solution: it lies in range(sigma^T)
    par, perp = project(sigma, theta)
    assert np.linalg.norm(perp) <= bound * np.linalg.norm(theta)


# x [[1, 0, 0], [y, 10^e, 0]] with |y| <= 1 has relative pivots 1 and 10^(2e):
# that branch puts the second one in [1e-13, 1e-12], just under the guard;
# the last branch scales sigma until sigma sigma^T nears or leaves the
# normal floats
singular_mats = st.one_of(
    free_mats,
    near_parallel(st.floats(-30.0, -6.0)),
    st.builds(lambda r, c: np.stack([r, c * r]), rows, entries),
    st.builds(lambda x, y, e: x * np.array([[1.0, 0.0, 0.0], [y, 10.0**e, 0.0]]),
              entries, st.floats(-1.0, 1.0), st.floats(-6.5, -6.0)),
    st.builds(lambda s, e: s * 10.0**e, free_mats, st.floats(-170.0, -150.0)),
).filter(clearly_singular)


@given(sigma=singular_mats)
@example(sigma=np.array([[0.0, 0.0, 1.0], [0.0, 5.96e-8, 0.0]]))
@example(sigma=2.67e-160 * np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
@settings(max_examples=60, deadline=None)
def test_singular_sigma_is_rejected(sigma):
    """A Gram pivot below 1e-12 of the largest diagonal entry, or below the
    smallest normal float, raises SingularSigma, first of all when the
    market is made."""
    with pytest.raises(SingularSigma):
        MarketSpec(n=2, d0=3, sigma=sigma, lambda_lo=1.0, lambda_hi=1.0)
    with pytest.raises(SingularSigma):
        project(sigma, np.ones((1, 3)))
    with pytest.raises(SingularSigma):
        risk_premium_from_mu(sigma, np.ones((1, 2)))


def test_gamma_hat_is_harmonic_mean():
    gammas = np.array([1.0, 2.0, 4.0, 4.0])
    stats = gamma_hat(gammas, np.full(4, 0.25))
    assert stats.gamma_hat == pytest.approx(4.0 / (1 + 0.5 + 0.25 + 0.25))
    assert stats.gamma_lo == 1.0 and stats.gamma_hi == 4.0


def test_population_stats_constants():
    stats = PopulationStats(gamma_hat=1.5, gamma_lo=1.0, gamma_hi=2.0)
    assert stats.c_gamma == pytest.approx(2.0 / 2 + 1.5**2 / 1.0)
    expected = max(1.5, 1.5**2 / 2.0, 2.0 / 2)
    assert stats.c_gamma_spread() == pytest.approx(expected)
