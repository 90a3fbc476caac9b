"""The mfequil benchmark: one workload, timed end to end or split by module.

    python3 bench/run.py --workload cross_term --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout.  Each round of a workload runs in fresh
worker processes (see worker.py); the runner measures every process with
``os.wait4`` (wall, user + system CPU, peak RSS) and then checks the
program's outputs against references computed apart from it (checks.py).
Rounds repeat while the next one is expected to end within ``--seconds``,
and at least one round runs.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` the workers wrap every public mfequil function
and the runner prints per-layer metrics from the span table.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import AUDIT, SPEC_1F  # noqa: E402

STAGES = ["riccati", "equilibrium", "bsde", "mf-solve", "clearing", "invariance"]
WORKLOADS = {
    "cross_term": ["cross_term"],
    "small_suite": ["tiny", "mf_small", "eqg_a0", "eqg_additive"],
    "agent_audit": None,
}
N_PROBES = 9            # set-up-only processes per untraced run
RUN_LIMIT_S = 170.0     # a run ends with an error rather than exceed this

# per-layer metric -> (unit, statistic, span names); "self" and "total" are
# seconds, anything else is a count kept by the span
LAYERS = {
    "regression.conditioner_builds": ("count", "calls", ["regression.RidgeConditioner.__init__"]),
    "regression.conditioner_build_s": ("s", "self", ["regression.RidgeConditioner.__init__"]),
    "regression.columns_s": ("s", "self", ["regression.feature_columns",
                                           "regression.BasisEngine.columns_at"]),
    "regression.fit_calls": ("count", "calls", ["regression.RidgeConditioner.fit"]),
    "regression.fit_rows": ("count", "rows", ["regression.RidgeConditioner.fit"]),
    "regression.fit_s": ("s", "self", ["regression.RidgeConditioner.fit"]),
    "regression.predict_s": ("s", "self", ["regression.StepFit.predict",
                                           "regression.StratumFit.predict"]),
    "market.project_calls": ("count", "calls", ["market.project"]),
    "market.project_rows": ("count", "rows", ["market.project"]),
    "market.project_s": ("s", "self", ["market.project"]),
    "meanfield.sweeps": ("count", "calls", ["meanfield.gamma_map"]),
    "meanfield.gamma_map_s": ("s", "self", ["meanfield.gamma_map"]),
    "meanfield.solve_s": ("s", "self", ["meanfield.solve_mean_field"]),
    "bsde.bmo_proxy_s": ("s", "self", ["bsde.bmo_proxy"]),
    "bsde.picard_sweeps": ("count", "sweeps", ["bsde.solve_agent_bsde", "bsde.solve_under_q"]),
    "bsde.solve_agent_s": ("s", "self", ["bsde.solve_agent_bsde"]),
    "bsde.solve_under_q_s": ("s", "self", ["bsde.solve_under_q"]),
    "bsde.optimal_strategy_s": ("s", "self", ["bsde.optimal_strategy"]),
    "bsde.verify_s": ("s", "self", ["bsde.verify_condition_r"]),
    "clearing.agent_strategies_s": ("s", "self", ["clearing.agent_strategies"]),
    "clearing.residual_s": ("s", "self", ["clearing.clearing_residual"]),
    "clearing.invariance_s": ("s", "self", ["clearing.replacement_invariance",
                                            "clearing.random_replacement"]),
    "paths.simulate_calls": ("count", "calls", ["paths.simulate_paths"]),
    "paths.normals_drawn": ("count", "normals", ["paths.normal_block_array"]),
    "paths.simulate_s": ("s", "self", ["paths.simulate_paths", "paths.normal_block_array"]),
    "liabilities.terminal_g_s": ("s", "self", ["liabilities.terminal_g"]),
    "riccati.ode_s": ("s", "self", ["riccati.riccati_ode"]),
    "riccati.closed_form_s": ("s", "self", ["riccati.riccati_closed_form",
                                            "riccati.riccati_for_spec"]),
    "equilibrium.path_s": ("s", "self", ["equilibrium.equilibrium_path"]),
    "cli.riccati_s": ("s", "total", ["cli.stage_riccati"]),
    "cli.equilibrium_s": ("s", "total", ["cli.stage_equilibrium"]),
    "cli.bsde_s": ("s", "total", ["cli.stage_bsde"]),
    "cli.mf_solve_s": ("s", "total", ["cli.stage_mf"]),
    "cli.clearing_s": ("s", "total", ["cli.stage_clearing"]),
    "cli.invariance_s": ("s", "total", ["cli.stage_invariance"]),
}


class Run:
    """Work directory, deadline and process bookkeeping of one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: bool, threads: int | None):
        self.seed = seed
        self.trace = trace
        self.threads = threads
        self.start = time.monotonic()
        self.dir = HERE / "_work" / f"{workload}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.n_jobs = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.notes: list[tuple[str, bool, str]] = []

    def spawn(self, job: dict) -> dict:
        """Run one worker to completion; its wall, CPU, peak RSS and result."""
        self.n_jobs += 1
        tag = f"job{self.n_jobs}"
        job_path = self.dir / f"{tag}.json"
        result_path = self.dir / f"{tag}.result.json"
        remaining = RUN_LIMIT_S - (time.monotonic() - self.start)
        if remaining <= 0.0:
            raise TimeoutError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        job = dict(job, trace=self.trace, result=str(result_path), t0=time.monotonic())
        job_path.write_text(json.dumps(job))
        with open(self.dir / f"{tag}.log", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                    cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not result_path.exists():
            tail = (self.dir / f"{tag}.log").read_text()[-2000:]
            raise RuntimeError(f"worker {tag} exited with {proc.returncode}:\n{tail}")
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "result": json.loads(result_path.read_text())}

    def check(self, label: str, outcome: tuple[bool, str]) -> None:
        self.checks.append((label, bool(outcome[0]), outcome[1]))

    def note(self, label: str, outcome: tuple[bool, str]) -> None:
        """A reported check that does not gate ``correct``."""
        self.notes.append((label, bool(outcome[0]), outcome[1]))


# ---------------------------------------------------------------------------
# CLI workloads


def _cli_job(run: Run, config: str, probe: bool) -> dict:
    job = {"kind": "cli", "probe": probe,
           "config": str(ROOT / "configs" / f"{config}.json"),
           "seed": _config_seed(config) + run.seed,
           "out": str(run.dir / f"out-{config}{'-probe' if probe else ''}")}
    if run.threads:
        job["threads"] = run.threads
    return job


def _config_seed(config: str) -> int:
    return int(json.loads((ROOT / "configs" / f"{config}.json").read_text())["seed"])


# On an additive liability the bsde and mf-solve stages also gate a Monte
# Carlo y0 at 5% of the closed form (bsde also z0 at 15% RMS when kappa = 0),
# and clearing gates every eps_N at a 2% noise floor; these miss on some seeds
# (README, "Checks").  There those stages count as failed only when they
# raise, do not converge, clip, (mf-solve) grow a contraction ratio the
# program gates, or (clearing) report an eps_N that is not finite; the bsde
# and mf-solve y0 are checked below against the benchmark's own closed form
# with a band that holds on every seed.
SEED_DEPENDENT_GATES = {"bsde", "mf-solve", "clearing"}


def _stage_ok(stage: str, details: dict, additive: bool, out: Path) -> bool:
    """Whether one CLI stage counts as passed (manifest details of that stage)."""
    if not details or "error" in details:
        return False
    if not (additive and stage in SEED_DEPENDENT_GATES):
        return details["status"] == "pass"
    if stage == "bsde":
        return details["converged"] and details["clip_count"] == 0
    if stage == "clearing":
        eps = details.get("eps") or []
        return len(eps) > 0 and all(e is not None and math.isfinite(e) for e in eps)
    diag_path = out / "mf_diagnostics.json"
    if not diag_path.exists():
        return False
    diag = json.loads(diag_path.read_text())
    ratios_ok = not diag["smallness_ok"] or all(r < 1.0 for r in diag["ratios"][1:])
    return details["converged"] and ratios_ok


# stage -> the output file its check reads
CHECKED_FILE = {"riccati": "riccati.csv", "equilibrium": "theta_path.csv",
                "bsde": "bsde_summary.json", "mf-solve": "mf_diagnostics.json",
                "clearing": "clearing.csv", "invariance": "invariance.csv"}


def _check_cli_outputs(run: Run, config: str, out: Path) -> tuple[int, int]:
    """Checks of one CLI process's outputs; returns (attempted, failed) stages."""
    cfg = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    eqg = dict(cfg["eqg"])
    eqg.setdefault("kappa", 0.0)
    horizon = float(cfg["grid"]["horizon"])
    additive = float(eqg.get("cross_eps", 0.0)) == 0.0
    manifest = out / "manifest.json"
    stages = json.loads(manifest.read_text())["stages"] if manifest.exists() else {}
    failed = 0
    for stage in STAGES:
        label = f"{config}/{stage}"
        details = stages.get(stage, {})
        if not _stage_ok(stage, details, additive, out) or not (
                out / CHECKED_FILE[stage]).exists():
            failed += 1
            run.note(label, (False, f"stage failed: {details or 'not run'}"))
            continue
        if details["status"] != "pass":
            run.note(label, (False, f"seed-dependent gate missed, not counted: {details}"))
        if stage == "riccati":
            run.check(label, checks.check_riccati(
                checks.read_csv(out / "riccati.csv"), eqg, horizon))
        elif stage == "equilibrium" and eqg["a"] == 0.0:
            run.check(label, checks.check_theta_path(
                checks.read_csv(out / "theta_path.csv"), eqg, cfg["market"]["sigma"],
                horizon))
        elif stage in ("bsde", "mf-solve") and additive:
            summary = json.loads((out / CHECKED_FILE[stage]).read_text())
            run.check(label, checks.check_mc_y0(
                summary["y0"], summary["y0_closed"], eqg, horizon))
        elif stage == "clearing" and not additive:
            run.check(label, checks.check_clearing(checks.read_csv(out / "clearing.csv")))
        elif stage == "invariance":
            run.check(label, checks.check_invariance(
                checks.read_csv(out / "invariance.csv")))
    return len(STAGES), failed


def cli_round(run: Run, configs: list[str]) -> dict:
    procs, attempted, failed = [], 0, 0
    for config in configs:
        job = _cli_job(run, config, probe=False)
        procs.append(run.spawn(job))
        out = Path(job["out"])
        a, f = _check_cli_outputs(run, config, out)
        attempted += a
        failed += f
        shutil.rmtree(out, ignore_errors=True)
    return {"procs": procs, "attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------
# library audit

def _audit_job(run: Run, probe: bool) -> dict:
    return {"kind": "audit", "probe": probe, "seed": run.seed,
            "dump": str(run.dir / "dW0.npy")}


def _check_audit(run: Run, ops: dict, dW0: np.ndarray) -> None:
    horizon = AUDIT["horizon"]
    g = checks.euler_factor_and_cost(SPEC_1F, dW0, horizon / AUDIT["steps_1f"])
    if ops["p_theta0"]["ok"]:
        run.check("agent_audit/p_theta0", checks.check_theta0(ops["p_theta0"]["y0"], g))
    ref, tol = checks.tilted_tolerance(g, AUDIT["theta_1f"], dW0, horizon)
    for name in ("p_theta", "q_theta"):
        if ops[name]["ok"]:
            run.check(f"agent_audit/{name}", checks.check_tilted(ops[name]["y0"], ref, tol, name))
    if ops["verify"]["ok"]:
        v = ops["verify"]
        run.check("agent_audit/verify", checks.check_utility_order(
            v["utility_star"], v["perturbed"]))
        run.note("agent_audit/verify", checks.check_drift_thresholds(
            v["aggregate_z"], v["perturbed"]))


def audit_round(run: Run) -> dict:
    job = _audit_job(run, probe=False)
    proc = run.spawn(job)
    ops = proc["result"]["ops"]
    dump = Path(job["dump"])
    _check_audit(run, ops, np.load(dump))
    dump.unlink()
    failed = sum(1 for o in ops.values() if not o["ok"])
    return {"procs": [proc], "attempted": len(ops), "failed": failed}


# ---------------------------------------------------------------------------
# metrics


def _span_sum(spans: dict, names: list[str], stat: str) -> float:
    key = {"self": "self_s", "total": "total_s"}.get(stat, stat)
    return float(sum(spans.get(n, {}).get(key, 0) for n in names))


def layer_metrics(rounds: list[dict]) -> dict:
    """Per-layer values of each round (summed over its processes), median over rounds."""
    per_round = []
    for rnd in rounds:
        spans: dict = {}
        for proc in rnd["procs"]:
            for name, entry in proc["result"]["spans"].items():
                acc = spans.setdefault(name, {})
                for k, v in entry.items():
                    acc[k] = acc.get(k, 0) + v
        values = {m: _span_sum(spans, names, stat) for m, (_, stat, names) in LAYERS.items()}
        wall = sum(p["wall"] for p in rnd["procs"])
        attributed = sum(values[m] for m, (_, stat, _) in LAYERS.items() if stat == "self")
        values["trace.wall_s"] = wall
        values["trace.unattributed_s"] = wall - attributed
        per_round.append(values)
    units = {m: u for m, (u, _, _) in LAYERS.items()}
    units.update({"trace.wall_s": "s", "trace.unattributed_s": "s"})
    out = {}
    for m, unit in units.items():
        v = statistics.median(r[m] for r in per_round)
        out[m] = {"value": int(v) if unit == "count" else float(v), "unit": unit}
    return out


def end_to_end_metrics(rounds: list[dict], setups: list[float]) -> dict:
    def med(values):
        return float(statistics.median(values))

    return {
        "wall_s": {"value": med([sum(p["wall"] for p in r["procs"]) for r in rounds]),
                   "unit": "s"},
        "cpu_s": {"value": med([sum(p["cpu"] for p in r["procs"]) for r in rounds]),
                  "unit": "s"},
        "peak_rss_mb": {"value": med([max(p["rss_mb"] for p in r["procs"]) for r in rounds]),
                        "unit": "MB"},
        "setup_s": {"value": med(setups), "unit": "s"},
    }


# ---------------------------------------------------------------------------
# entry point


def _missing_inputs(workload: str) -> list[str]:
    needed = [ROOT / "src" / "mfequil" / "cli.py"]
    needed += [ROOT / "configs" / f"{c}.json" for c in WORKLOADS[workload] or []]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to every program seed; 0 keeps the shipped seeds")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="pass --threads to the CLI (default: the CLI's own default, 1)")
    args = p.parse_args(argv)

    missing = _missing_inputs(args.workload)
    if missing:
        print(f"bench: program sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace), args.threads)
    configs = WORKLOADS[args.workload]
    try:
        setups = []
        if not run.trace:
            for _ in range(N_PROBES):
                job = (_cli_job(run, configs[0], probe=True) if configs
                       else _audit_job(run, probe=True))
                setups.append(run.spawn(job)["result"]["setup_s"])
        rounds = []
        measure_start = time.monotonic()
        while True:
            rnd = cli_round(run, configs) if configs else audit_round(run)
            rounds.append(rnd)
            last = sum(p["wall"] for p in rnd["procs"])
            if time.monotonic() - measure_start + last > args.seconds:
                break
        setups += [p["result"]["setup_s"] for r in rounds for p in r["procs"]]
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    for label, ok, detail in run.checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}", file=sys.stderr)
    for label, ok, detail in run.notes:
        print(f"{'info' if ok else 'miss'} {label}: {detail}", file=sys.stderr)
    metrics = layer_metrics(rounds) if run.trace else end_to_end_metrics(rounds, setups)
    summary = {
        "correct": all(ok for _, ok, _ in run.checks),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = dict(summary, workload=args.workload, seed=args.seed, setups=setups,
                  rounds=[[{k: p[k] for k in ("wall", "cpu", "rss_mb")}
                           | {k: p["result"].get(k) for k in ("setup_s", "spans")}
                           for p in r["procs"]] for r in rounds],
                  checks=run.checks, notes=run.notes)
    threads = f"-threads{args.threads}" if args.threads else ""
    record_path = HERE / "_work" / f"{args.workload}-trace{args.trace}-seed{args.seed}{threads}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
