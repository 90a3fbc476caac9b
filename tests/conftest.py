import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfequil import EqgSpec, MarketSpec, TimeGrid, agent_strategies
from mfequil.paths import step_major
from mfequil.regression import RidgeConditioner


SIGMA_2X2 = np.array([[1.0, 0.2], [0.3, 0.9]])


def make_market(sigma=SIGMA_2X2):
    sig = np.asarray(sigma, dtype=float)
    n, d0 = sig.shape[-2:]
    lams = np.linalg.eigvalsh(sig @ sig.T if sig.ndim == 2 else sig[0] @ sig[0].T)
    return MarketSpec(n=n, d0=d0, sigma=sig,
                      lambda_lo=float(lams[0]) * 0.999,
                      lambda_hi=float(lams[-1]) * 1.001)


def pool_strategies(mf, population, w_agents):
    """Every step of agent_strategies stacked: p (M0, N, steps, d0), pi (M0, N, steps, n)."""
    out = [agent_strategies(mf, population, w_agents, k)
           for k in range(mf.solution.grid.steps)]
    return np.stack([p for p, _ in out], axis=2), np.stack([pi for _, pi in out], axis=2)


def materialise(sol):
    """Every step of a BsdeSolution stacked, step-major: y (M0, K, steps + 1),
    z0 and z1 (M0, K, steps, ·)."""
    M0, K = sol.g.shape
    steps, d0 = sol.grid.steps, sol.market.d0
    y, z = step_major((M0, K, steps + 1)), step_major((M0, K, steps, d0 + 1))
    y[:, :, steps] = sol.g
    for k in range(steps):
        conds = sol.conditioners(k)
        y[:, :, k], z[:, :, k] = sol.y_at(k, conds), sol.z_at(k, conds)
    return y, z[..., :d0], z[..., d0:]


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


_CLOUD_SOLVE = """
import json, sys, time
from mfequil.clearing import solve_equilibrium_cloud
from mfequil.config import apply_overrides, build_scenario, config_from_dict
with open(sys.argv[1], encoding="utf-8") as fh:
    sc = build_scenario(config_from_dict(apply_overrides(json.load(fh), ["grid.steps=5"])))
wall, cpu = time.perf_counter(), time.process_time()
mf = solve_equilibrium_cloud(sc, 100, 2100)
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
print(json.dumps({"y0": repr(mf.solution.y0), "theta": mf.theta.tobytes().hex(),
                  "sweeps": mf.solution.picard_iters, "wall_s": wall, "cpu_s": cpu}))
"""


@pytest.fixture(scope="session")
def cloud_solve_runs():
    """solve_equilibrium_cloud on cross_term.json cut to 5 steps, 100 common
    paths x 2100 agents (70,000 rows per atom, enough for OpenBLAS to
    thread a whole-atom product), each in a fresh process, at one and at
    two BLAS threads: {"1": result, "2": result}, a result holding y0's repr,
    θ's bytes in hex, the sweep count and the solve's wall and CPU seconds."""
    runs = {}
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _CLOUD_SOLVE, str(ROOT / "configs" / "cross_term.json")],
            env=env, capture_output=True, text=True, timeout=600, check=True,
        )
        runs[n] = json.loads(proc.stdout)
    return runs


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
