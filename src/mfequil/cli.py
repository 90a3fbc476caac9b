"""Command-line runner: scenario stages with reproducible file outputs.

    mfequil <stage> --config cfg.json [--set key=value]... [--seed S] [--out DIR]

Stages: riccati, equilibrium, bsde, mf-solve, clearing, invariance, all.
Each stage writes CSV/JSON outputs plus plot-ready series under plots/, and
the run ends with a single manifest.json listing every file written, the
config hash, and per-stage pass/fail.  With a fixed seed the output
directory is byte-identical across runs and BLAS thread counts; wall-clock time
is therefore reported on stderr, not in the files (the manifest's
wall_clock_s field stays 0.0 unless --record-timing is given, which is
intentionally not the default).

The scenario (grid, market, factor and liability data, regression basis,
risk-aversion atoms) is built and checked once, before any stage runs, and
every stage reads it.  Exit codes: 0 all stages passed; 1 a stage ran and
failed, or raised an engine error or a ValueError (the manifest is still
written); 2 the command line or a config value is invalid, a singular sigma
included.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .bsde import solve_agent_bsde
from .clearing import (
    random_replacement,
    replacement_invariance,
    run_clearing_study,
    solve_equilibrium_cloud,
)
from .config import (
    Scenario,
    apply_overrides,
    build_scenario,
    config_from_dict,
    config_sha256,
    config_to_dict,
    load_config,
)
from .equilibrium import closed_form_y0, equilibrium_path, martingale_check, sign_law_violations
from .errors import ConfigError, MfequilError
from .liabilities import terminal_g
from .paths import KIND_AUX, format_float, normal_block_array, simulate_paths
from .riccati import riccati_for_spec, riccati_ode

STAGES = ["riccati", "equilibrium", "bsde", "mf-solve", "clearing", "invariance"]
_CSV_PATH_CAP = 32     # pathwise CSV dumps keep at most this many common paths


class StageWriter:
    """Collects relative paths of everything written under one run directory."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def _register(self, rel: str) -> str:
        self.files.append(rel)
        path = os.path.join(self.out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def csv(self, rel: str, header: list[str], rows) -> None:
        path = self._register(rel)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [format_float(v) if isinstance(v, float) else v for v in row]
                )

    def json(self, rel: str, payload: dict) -> None:
        path = self._register(rel)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_plain(payload), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _plain(obj):
    """Cast numpy scalars/arrays so json output is deterministic and portable."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def emit_plot_series(
    writer: StageWriter,
    name: str,
    x_label: str,
    y_label: str,
    header: list[str],
    rows,
    extra: dict | None = None,
) -> None:
    """Two-file plot payload: long-format CSV plus a JSON axis-label sidecar."""
    writer.csv(f"plots/{name}.csv", header, rows)
    sidecar = {"x_label": x_label, "y_label": y_label, "columns": header}
    if extra:
        sidecar.update(extra)
    writer.json(f"plots/{name}.json", sidecar)


# ---------------------------------------------------------------------------
# stages


def stage_riccati(sc: Scenario, writer: StageWriter) -> dict:
    grid, spec = sc.grid, sc.eqg
    closed = riccati_for_spec(spec, grid)
    oracle = riccati_ode(spec.a, spec.b, spec.alpha, spec.beta, spec.delta_vec,
                         grid, substeps=1024)
    sup = float(
        max(
            np.max(np.abs(closed.A - oracle.A)),
            np.max(np.abs(closed.B - oracle.B)),
            np.max(np.abs(closed.C - oracle.C)),
        )
    )
    writer.csv(
        "riccati.csv",
        ["t", "A", "B", "C"],
        [
            (float(t), float(va), float(vb), float(vc))
            for t, va, vb, vc in zip(grid.times, closed.A, closed.B, closed.C)
        ],
    )
    ok = sup < 1e-6
    return {
        "status": "pass" if ok else "fail",
        "sup_diff_vs_ode": sup,
        "rho_plus": closed.rho_plus,
        "rho_minus": closed.rho_minus,
        "method": closed.method,
    }


def stage_equilibrium(sc: Scenario, writer: StageWriter) -> dict:
    cfg, grid, market, spec = sc.cfg, sc.grid, sc.market, sc.eqg
    bundle = simulate_paths(grid, spec, market, cfg.mf.n_common, cfg.seed, agents=1)
    ric = riccati_for_spec(spec, grid)
    eq = equilibrium_path(ric, bundle, market, spec)
    violations = sign_law_violations(eq, market)
    mart_z, mart_se = martingale_check(eq)

    m_show = min(bundle.n_paths, _CSV_PATH_CAP)
    theta_rows = []
    mu_rows = []
    for m in range(m_show):
        for k in range(grid.steps):
            t = float(grid.times[k])
            theta_rows.append((t, m, *[float(v) for v in eq.theta[m, k]]))
            mu_rows.append((t, m, *[float(v) for v in eq.mu[m, k]]))
    d0, n = market.d0, market.n
    writer.csv("theta_path.csv",
               ["t", "common_path"] + [f"theta_{j + 1}" for j in range(d0)], theta_rows)
    writer.csv("mu_path.csv",
               ["t", "common_path"] + [f"mu_{j + 1}" for j in range(n)], mu_rows)
    emit_plot_series(
        writer, "theta_series", "t", "risk premium components",
        ["t"] + [f"theta_{j + 1}" for j in range(d0)],
        [(float(grid.times[k]), *[float(v) for v in eq.theta[0, k]])
         for k in range(grid.steps)],
    )
    emit_plot_series(
        writer, "mu_series", "t", "excess return components",
        ["t"] + [f"mu_{j + 1}" for j in range(n)],
        [(float(grid.times[k]), *[float(v) for v in eq.mu[0, k]])
         for k in range(grid.steps)],
    )
    # The exponential of y0 is a martingale in continuous time; the Euler /
    # left-Riemann discretisation leaves an O(dt) bias in the log-moment, so
    # the band is 4 standard errors plus dt times the exponent scale.
    exponent = eq.y0[:, -1] - eq.y0[:, 0]
    scale = max(abs(float(np.mean(eq.y0[:, 0]))), float(np.std(exponent)))
    mart_tol = 4.0 * mart_se + grid.dt * scale
    mart_gap = abs(mart_z) * mart_se
    ok = violations == 0 and mart_gap <= mart_tol
    return {
        "status": "pass" if ok else "fail",
        "sign_law_violations": int(violations),
        "martingale_z": float(mart_z),
        "martingale_se": float(mart_se),
        "martingale_gap": float(mart_gap),
        "martingale_tol": float(mart_tol),
    }


def stage_bsde(sc: Scenario, writer: StageWriter) -> dict:
    cfg, grid, market, spec, liability = sc.cfg, sc.grid, sc.market, sc.eqg, sc.liability
    bundle = simulate_paths(grid, spec, market, cfg.bsde.n_paths, cfg.seed, agents=1)
    ric = riccati_for_spec(spec, grid)
    eq = equilibrium_path(ric, bundle, market, spec)
    g = terminal_g(liability, bundle, np.ones(1))
    sol = solve_agent_bsde(
        bundle, market, sc.basis, eq.theta, g,
        picard_max=cfg.bsde.picard_max, picard_tol=cfg.bsde.picard_tol,
        clip=cfg.bsde.clip,
    )
    details: dict = {
        "picard_iters": sol.picard_iters,
        "converged": bool(sol.converged),
        "clip_count": int(sol.clip_count),
        "y0": sol.y0,
    }
    ok = sol.converged and sol.clip_count == 0
    if liability.is_additive:
        y0_closed = closed_form_y0(ric, spec)
        rel = abs(sol.y0 - y0_closed) / max(abs(y0_closed), 1e-12)
        z0 = np.stack([sol.z_at(k)[:, 0, :market.d0] for k in range(grid.steps)], axis=1)
        z0_closed = eq.z0[:, :-1]
        num = np.sqrt(np.mean(np.subtract(z0, z0_closed, order="C") ** 2))
        den = max(np.sqrt(np.mean(z0_closed**2)), 1e-12)
        details.update(
            {"y0_closed": y0_closed, "y0_rel_err": float(rel),
             "z0_rms_rel_err": float(num / den)}
        )
        ok = ok and rel < 0.05
        if spec.kappa == 0.0:
            # z0 is only resolvable against the closed form when the idio leg
            # is off; otherwise the kappa*dW1 residual dominates the product
            # estimator.  Budget: one-step lag bias ~ |dB/dt|*dt/||B||.
            ok = ok and num / den < 0.15
    writer.json("bsde_summary.json", details | {"status": "pass" if ok else "fail"})
    details["status"] = "pass" if ok else "fail"
    return details


def stage_mf(sc: Scenario, writer: StageWriter) -> dict:
    cfg, grid, market, spec, liability = sc.cfg, sc.grid, sc.market, sc.eqg, sc.liability
    mf, stats = solve_equilibrium_cloud(
        sc, cfg.mf.n_common, cfg.mf.n_particles,
        n_eq=cfg.mf.n_equilibrium, c_gamma_override=cfg.mf.c_gamma_override,
    )
    diag = mf.diagnostics
    d0 = market.d0
    m_show = min(cfg.mf.n_common, _CSV_PATH_CAP)
    rows = []
    for m in range(m_show):
        for k in range(grid.steps):
            rows.append((float(grid.times[k]), m, *[float(v) for v in mf.theta[m, k]]))
    writer.csv("theta_mfg.csv",
               ["t", "common_path"] + [f"theta_{j + 1}" for j in range(d0)], rows)
    payload = asdict(diag) | {
        "gamma_hat": stats.gamma_hat,
        "gamma_lo": stats.gamma_lo,
        "gamma_hi": stats.gamma_hi,
        "y0": mf.solution.y0,
    }
    ok = mf.solution.converged
    if diag.smallness_ok and len(diag.ratios) >= 1:
        ok = ok and all(r < 1.0 for r in diag.ratios[1:])
    if liability.is_additive:
        y0_closed = closed_form_y0(riccati_for_spec(spec, grid), spec)
        rel = abs(mf.solution.y0 - y0_closed) / max(abs(y0_closed), 1e-12)
        payload |= {"y0_closed": y0_closed, "y0_rel_err": float(rel)}
        ok = ok and rel < 0.05
    writer.json("mf_diagnostics.json", payload | {"status": "pass" if ok else "fail"})
    emit_plot_series(
        writer, "contraction_ratios", "iteration", "successive change ratio",
        ["iteration", "ratio"],
        [(i + 2, float(r)) for i, r in enumerate(diag.ratios)],
        extra={"converged": bool(mf.solution.converged)},
    )
    return {
        "status": "pass" if ok else "fail",
        "converged": bool(mf.solution.converged),
        "iterations": diag.iterations,
        "smallness_ok": bool(diag.smallness_ok),
    }


def stage_clearing(sc: Scenario, writer: StageWriter) -> dict:
    report, mf, _pool = run_clearing_study(sc)
    writer.csv("clearing.csv", ["N", "eps", "stderr"],
               list(zip(report.Ns, report.eps, report.stderr)))
    writer.json("clearing.json", asdict(report))
    if np.isfinite(report.slope) and all(e > 0 for e in report.eps):
        logn = np.log10(np.asarray(report.Ns, dtype=float))
        loge = np.log10(np.asarray(report.eps, dtype=float))
        fit = (report.intercept + report.slope * np.log(np.asarray(report.Ns, float))) / np.log(10.0)
        emit_plot_series(
            writer, "clearing_loglog", "log10 N", "log10 eps_N",
            ["log10_N", "log10_eps", "log10_fit"],
            list(zip(logn.tolist(), loge.tolist(), fit.tolist())),
            extra={"slope": report.slope},
        )
    if not sc.liability.is_additive:
        ok = (
            np.isfinite(report.slope)
            and -1.3 <= report.slope <= -0.7
            and all(report.bound_ok)
        )
    else:
        # additive liabilities: per-capita positions must vanish up to the
        # regression noise floor (2% of the per-agent hedging scale)
        hedge = max(float(np.max(np.abs(mf.theta))) / report.gamma_hat, 1e-12)
        ok = all(e <= (0.02 * hedge) ** 2 * sc.grid.horizon for e in report.eps)
    return {
        "status": "pass" if ok else "fail",
        "slope": report.slope,
        "eps": list(report.eps),
        "bound_ok": list(report.bound_ok),
    }


def stage_invariance(sc: Scenario, writer: StageWriter) -> dict:
    cfg, grid, market, spec = sc.cfg, sc.grid, sc.market, sc.eqg
    m_paths = min(cfg.mf.n_common, 64)
    bundle = simulate_paths(grid, spec, market, m_paths, cfg.seed, agents=1)
    ric = riccati_for_spec(spec, grid)
    eq = equilibrium_path(ric, bundle, market, spec)
    pi_tilde = normal_block_array(cfg.seed, KIND_AUX, (m_paths, grid.steps, market.n))
    rows = []
    max_theta = 0.0
    max_wealth = 0.0
    for i in range(cfg.clearing.n_invariance_draws):
        rep = random_replacement(cfg.seed, grid.steps, market.n,
                                 cond_cap=cfg.clearing.cond_cap, block=i)
        th_d, w_d = replacement_invariance(market, eq.mu, bundle, pi_tilde, rep)
        rows.append((i, th_d, w_d))
        max_theta = max(max_theta, th_d)
        max_wealth = max(max_wealth, w_d)
    writer.csv("invariance.csv", ["draw", "theta_disc", "wealth_disc"], rows)
    ok = max_theta < 1e-10 and max_wealth < 1e-10
    writer.json(
        "invariance.json",
        {
            "n_draws": cfg.clearing.n_invariance_draws,
            "max_theta_disc": max_theta,
            "max_wealth_disc": max_wealth,
            "status": "pass" if ok else "fail",
        },
    )
    return {"status": "pass" if ok else "fail",
            "max_theta_disc": max_theta, "max_wealth_disc": max_wealth}


_STAGE_FN = {
    "riccati": stage_riccati,
    "equilibrium": stage_equilibrium,
    "bsde": stage_bsde,
    "mf-solve": stage_mf,
    "clearing": stage_clearing,
    "invariance": stage_invariance,
}


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mfequil",
        description="equilibrium risk-premium engine: scenario stages with file outputs",
    )
    p.add_argument("stage", choices=STAGES + ["all"])
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="dotted-path config override")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--record-timing", action="store_true",
                   help="write measured wall clock into the manifest "
                        "(breaks byte-identical reruns)")
    return p


def run(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        cfg = load_config(args.config)
        overrides = list(args.overrides)
        if args.seed is not None:
            overrides.append(f"seed={args.seed}")
        if overrides:
            data = apply_overrides(config_to_dict(cfg), overrides)
            cfg = config_from_dict(data)
        out_dir = args.out or cfg.out_dir or f"out_{cfg.name}"
        sc = build_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    writer = StageWriter(out_dir)
    names = STAGES if args.stage == "all" else [args.stage]
    stages: dict = {}
    failed = False
    for name in names:
        try:
            stages[name] = _STAGE_FN[name](sc, writer)
        except (MfequilError, ValueError) as exc:
            stages[name] = {"status": "fail", "error": f"{type(exc).__name__}: {exc}"}
        if stages[name]["status"] != "pass":
            failed = True

    wall = time.monotonic() - t0
    writer.json("manifest.json", {
        "config_sha256": config_sha256(cfg),
        "version": __version__,
        "wall_clock_s": round(wall, 3) if args.record_timing else 0.0,
        "stages": stages,
        "files": sorted(writer.files + ["manifest.json"]),
        "overrides": sorted(overrides),
    })
    for name in names:
        print(f"{name}: {stages[name]['status']}")
    print(f"outputs in {out_dir} ({wall:.1f}s)", file=sys.stderr)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
