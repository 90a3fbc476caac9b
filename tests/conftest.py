import numpy as np
import pytest

from mfequil import EqgSpec, MarketSpec, TimeGrid, agent_strategies
from mfequil.regression import RidgeConditioner


SIGMA_2X2 = np.array([[1.0, 0.2], [0.3, 0.9]])


def make_market(sigma=SIGMA_2X2, d=1):
    sig = np.asarray(sigma, dtype=float)
    n, d0 = sig.shape[-2:]
    lams = np.linalg.eigvalsh(sig @ sig.T if sig.ndim == 2 else sig[0] @ sig[0].T)
    return MarketSpec(n=n, d0=d0, d=d, sigma=sig,
                      lambda_lo=float(lams[0]) * 0.999,
                      lambda_hi=float(lams[-1]) * 1.001)


def pool_strategies(mf, population, w_agents):
    """Every step of agent_strategies stacked: p (M0, N, steps, d0), pi (M0, N, steps, n)."""
    out = [agent_strategies(mf, population, w_agents, k)
           for k in range(mf.solution.grid.steps)]
    return np.stack([p for p, _ in out], axis=2), np.stack([pi for _, pi in out], axis=2)


@pytest.fixture
def grid20():
    return TimeGrid(0.5, 20)


@pytest.fixture
def market2():
    return make_market()


@pytest.fixture
def eqg_spec():
    return EqgSpec(alpha=-0.5, beta=0.1, delta=(0.4, 0.1), x0=0.3,
                   a=-0.2, b=0.5, kappa=0.3)


@pytest.fixture
def conditioner_builds(monkeypatch):
    """A list that gains one entry per RidgeConditioner build from now on."""
    builds = []
    init = RidgeConditioner.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RidgeConditioner, "__init__", counting)
    return builds
