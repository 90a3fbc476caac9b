import os
import subprocess
import sys
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def blas_thread_runs(tmp_path_factory):
    """`mfequil all` on tiny.json, each in a fresh process, at one and at two
    BLAS threads: (exit codes, stderr texts, {relative path: bytes} per run). Run once and
    shared by the tests that compare the two trees."""
    rcs, errs, trees = [], [], []
    for n in ("1", "2"):
        out = tmp_path_factory.mktemp(f"blas{n}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mfequil.cli", "all", "--config",
             str(ROOT / "configs" / "tiny.json"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        rcs.append(proc.returncode)
        errs.append(proc.stderr)
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()})
    return rcs, errs, trees


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
