"""One process of a benchmark round: a CLI invocation or the library audit.

    python3 bench/worker.py JOB.json

The job file names the kind ("cli" or "audit"), the seed, the launch time
``t0`` on the system-wide monotonic clock, whether to trace, and where to
write the result.  Set-up time runs from ``t0`` to the start of the first
CLI stage or library solve.  A probe job stops there.  The result file holds
the set-up time, the audit's operation outcomes, and the span table when
tracing; the CLI's outcomes are in its own manifest.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SetupDone(Exception):
    """Raised at the first stage or solve of a probe job."""


def _cli_job(job: dict, marks: dict) -> dict:
    from mfequil import cli

    def marked(fn):
        def stage(cfg, writer):
            if "work" not in marks:
                marks["work"] = time.monotonic()
                if job["probe"]:
                    raise SetupDone
            return fn(cfg, writer)
        return stage

    for name, fn in list(cli._STAGE_FN.items()):
        cli._STAGE_FN[name] = marked(fn)
    argv = ["all", "--config", job["config"], "--seed", str(job["seed"]),
            "--out", job["out"]]
    if job.get("threads"):
        argv += ["--threads", str(job["threads"])]
    cli.run(argv)
    return {}


# Model data of the audit (AC04, AC05 and AC10); run.py imports it for the
# references.
SPEC_1F = {"alpha": -0.5, "beta": 0.1, "delta": [0.5], "x0": 0.3, "a": -0.2, "b": 0.5}
SPEC_2F = {"alpha": -0.5, "beta": 0.1, "delta": [0.4, 0.1], "x0": 0.3, "a": -0.2, "b": 0.5}
SIGMA_2F = [[1.0, 0.2]]
AUDIT = {"horizon": 0.5, "steps_1f": 50, "paths_1f": 10_000, "seed_1f": 777,
         "theta_1f": 0.3, "steps_2f": 20, "paths_2f": 16_384, "seed_2f": 99,
         "gamma_2f": 1.5, "mu_2f": 0.3}


def _audit_job(job: dict, marks: dict) -> dict:
    import numpy as np

    import mfequil.bsde as bsde
    import mfequil.liabilities as liabilities
    import mfequil.paths as paths
    from mfequil.errors import MfequilError
    from mfequil.market import MarketSpec, TimeGrid
    from mfequil.regression import RegressionBasis
    from mfequil.riccati import EqgSpec

    def spec(d):
        return EqgSpec(alpha=d["alpha"], beta=d["beta"], delta=tuple(d["delta"]),
                       x0=d["x0"], a=d["a"], b=d["b"])

    a = AUDIT
    seed = job["seed"]
    market1 = MarketSpec(n=1, d0=1, d=1, sigma=[[1.0]], lambda_lo=0.999, lambda_hi=1.001)
    market2 = MarketSpec(n=1, d0=2, d=1, sigma=SIGMA_2F, lambda_lo=1.0, lambda_hi=1.1)
    spec1, spec2 = spec(SPEC_1F), spec(SPEC_2F)
    grid1 = TimeGrid(a["horizon"], a["steps_1f"])
    grid2 = TimeGrid(a["horizon"], a["steps_2f"])
    basis = RegressionBasis(degree=2, include_idio=False)
    sigma2 = np.asarray(SIGMA_2F)
    th2 = sigma2.T @ np.linalg.solve(sigma2 @ sigma2.T, np.array([a["mu_2f"]]))
    theta2 = np.broadcast_to(th2, (grid2.steps, 2)).copy()
    perturbations = [
        bsde.Perturbation("offset+0.5e1", 1.0, (0.5, 0.0)),
        bsde.Perturbation("scale x2", 2.0, None),
        bsde.Perturbation("no trading", 0.0, None),
        bsde.Perturbation("offset-0.4e2", 1.0, (0.0, -0.4)),
        bsde.Perturbation("scale x0.5", 0.5, None),
    ]

    marks["work"] = time.monotonic()
    if job["probe"]:
        raise SetupDone

    ops: dict = {}

    def attempt(name, fn, summary):
        """One counted library call; its outcome is recorded under name."""
        try:
            result = fn()
        except MfequilError as exc:
            ops[name] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            return None
        ops[name] = summary(result)
        return result

    def solution(sol):
        return {"ok": bool(sol.converged and sol.clip_count == 0), "y0": sol.y0}

    bundle1 = paths.simulate_paths(grid1, spec1, market1, a["paths_1f"], a["seed_1f"] + seed)
    g1 = liabilities.terminal_g(liabilities.LiabilitySpec.from_eqg(spec1), bundle1,
                                np.array([1.0]))
    zero = np.zeros((grid1.steps, 1))
    tilt = np.full((grid1.steps, 1), a["theta_1f"])
    attempt("p_theta0", lambda: bsde.solve_agent_bsde(bundle1, market1, basis, zero, g1),
            solution)
    attempt("p_theta", lambda: bsde.solve_agent_bsde(bundle1, market1, basis, tilt, g1),
            solution)
    attempt("q_theta", lambda: bsde.solve_under_q(bundle1, market1, basis, tilt, g1),
            lambda r: solution(r[0]))

    bundle2 = paths.simulate_paths(grid2, spec2, market2, a["paths_2f"], a["seed_2f"] + seed)
    g2 = liabilities.terminal_g(liabilities.LiabilitySpec.from_eqg(spec2), bundle2,
                                np.array([a["gamma_2f"]]))
    sol2 = attempt("p_2f", lambda: bsde.solve_agent_bsde(bundle2, market2, basis, theta2, g2),
                   solution)
    if sol2 is None:
        ops["verify"] = {"ok": False, "error": "no two-factor solution to audit"}
    else:
        attempt("verify", lambda: bsde.verify_condition_r(
            sol2, bundle2, market2, theta2, a["gamma_2f"], g2, perturbations=perturbations),
            lambda rep: {"ok": True, "aggregate_z": rep.aggregate_z,
                         "utility_star": rep.utility_star, "perturbed": rep.perturbed})
    np.save(job["dump"], bundle1.dW0)
    return {"ops": ops}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    marks: dict = {}
    body = _cli_job if job["kind"] == "cli" else _audit_job
    try:
        result = body(job, marks)
    except SetupDone:
        result = {}
    if "work" not in marks:
        raise RuntimeError("the job ended before its first stage or solve")
    result["setup_s"] = marks["work"] - job["t0"]
    if tracer is not None:
        result["spans"] = tracer.stats
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
