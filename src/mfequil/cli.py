"""Command-line runner: scenario stages with reproducible file outputs.

    mfequil <stage> --config cfg.json [--set key=value]... [--seed S] [--out DIR]

Stages: riccati, equilibrium, bsde, mf-solve, clearing, invariance, all.
Each stage writes CSV/JSON outputs plus plot-ready series under plots/, and
the run ends with a single manifest.json listing every file written, the
config hash, and per-stage pass/fail.  With a fixed seed the output
directory is byte-identical across runs and BLAS thread counts; wall-clock time
is therefore reported on stderr, not in the files.

The scenario (grid, market, factor and liability data, regression basis,
risk-aversion atoms) is built and checked once, before any stage runs, and
every stage reads it.  Exit codes: 0 all stages passed; 1 a stage ran and
failed, or raised an engine error, a ValueError or an ArithmeticError (the
manifest is still written); 2 the command line or a config value is
invalid, a singular sigma included.
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
from .equilibrium import (
    closed_form_error,
    equilibrium_path,
    martingale_check,
    sign_law_violations,
)
from .errors import ConfigError, MfequilError
from .liabilities import terminal_g
from .meanfield import smallness_from_liability
from .paths import KIND_AUX, format_float, normal_block_array, simulate_paths
from .riccati import riccati_closed_form, riccati_ode

STAGES = ["riccati", "equilibrium", "bsde", "mf-solve", "clearing", "invariance"]
_CSV_PATH_CAP = 32     # pathwise CSV dumps keep at most this many common paths


class StageWriter:
    """Collects relative paths of everything written under one run directory."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def _open(self, rel: str):
        self.files.append(rel)
        path = os.path.join(self.out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return open(path, "w", encoding="utf-8", newline="\n")

    def csv(self, rel: str, header: list[str], rows) -> None:
        with self._open(rel) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [format_float(v) if isinstance(v, float) else v for v in row]
                )

    def json(self, rel: str, payload: dict) -> None:
        with self._open(rel) as fh:
            json.dump(_plain(payload), fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")


def _plain(obj):
    """Cast numpy scalars/arrays so json output is deterministic and portable."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return None  # standard JSON has no NaN or Infinity
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
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


def _closed_form(sc: Scenario, n_paths: int):
    """n_paths common paths at the run's seed, the Riccati solution and the
    closed-form equilibrium on those paths."""
    bundle = simulate_paths(sc.grid, sc.eqg, sc.market, n_paths, sc.cfg.seed, agents=1)
    ric = riccati_closed_form(sc.eqg, sc.grid)
    return bundle, ric, equilibrium_path(ric, bundle, sc.market)


def _vs_closed_form(sc: Scenario, sol, ric, eq) -> tuple[dict, bool]:
    """sol's errors against the additive closed form (`closed_form_error`,
    with ric computed when None) and whether they pass its gates: y0 within
    5% and, given eq with no idiosyncratic leg, z0 within 15% RMS.  A
    liability with no closed form gives no errors and passes."""
    if not sc.liability.is_additive:
        return {}, True
    if ric is None:
        ric = riccati_closed_form(sc.eqg, sc.grid)
    err = closed_form_error(ric, sol, eq)
    ok = err["y0_rel_err"] < 0.05
    # z0 is gated only when the idio leg is off, the gate's original domain: a
    # sampled kappa*dW1 residual once dominated the product estimator there.
    # Budget: one-step lag bias ~ |dB/dt|*dt/||B||.
    if eq is not None and sc.eqg.kappa == 0.0:
        ok = ok and err["z0_rms_rel_err"] < 0.15
    return err, ok


def _write_paths(writer: StageWriter, rel: str, prefix: str, values, times) -> list[str]:
    """Write rows (t, common_path, <prefix>_1, ...) of values (M, steps, j)
    for the first _CSV_PATH_CAP paths; return the value columns' names."""
    cols = [f"{prefix}_{j + 1}" for j in range(values.shape[2])]
    writer.csv(rel, ["t", "common_path"] + cols,
               [(float(times[k]), m, *map(float, values[m, k]))
                for m in range(min(len(values), _CSV_PATH_CAP))
                for k in range(values.shape[1])])
    return cols


def stage_riccati(sc: Scenario, writer: StageWriter) -> dict:
    grid, spec = sc.grid, sc.eqg
    closed = riccati_closed_form(spec, grid)
    oracle = riccati_ode(spec, grid, substeps=1024)
    sup = float(np.max([np.max(np.abs(getattr(closed, c) - getattr(oracle, c))) for c in "ABC"]))
    writer.csv("riccati.csv", ["t", "A", "B", "C"],
               [tuple(map(float, row)) for row in zip(grid.times, closed.A, closed.B, closed.C)])
    ok = sup < 1e-6
    return {
        "status": "pass" if ok else "fail",
        "sup_diff_vs_ode": sup,
        "rho_plus": closed.rho_plus,
        "rho_minus": closed.rho_minus,
        "method": closed.method,
    }


def stage_equilibrium(sc: Scenario, writer: StageWriter) -> dict:
    grid = sc.grid
    _, _, eq = _closed_form(sc, sc.cfg.mf.n_common)
    violations = sign_law_violations(eq, sc.market)
    mart_z, mart_se = martingale_check(eq)
    for prefix, values, label in (("theta", eq.theta, "risk premium components"),
                                  ("mu", eq.mu, "excess return components")):
        cols = _write_paths(writer, f"{prefix}_path.csv", prefix, values, grid.times)
        emit_plot_series(writer, f"{prefix}_series", "t", label, ["t"] + cols,
                         [(float(t), *map(float, v)) for t, v in zip(grid.times, values[0])])
    # The exponential of y0 is a martingale in continuous time; the Euler /
    # left-Riemann discretisation leaves an O(dt) bias in the log-moment, so
    # the band is 4 standard errors plus dt times the exponent scale.  With no
    # spread (se = 0) the gap |E[exp(exponent)] - 1| is read directly.  The
    # scale grows with the exponent, so a mean growth of 0 (every path
    # underflowed) or a non-finite one fails whatever the band.
    exponent = eq.y0[:, -1] - eq.y0[:, 0]
    growth = float(np.mean(np.exp(exponent)))
    scale = max(abs(float(np.mean(eq.y0[:, 0]))), float(np.std(exponent)))
    mart_tol = 4.0 * mart_se + grid.dt * scale
    mart_gap = abs(mart_z) * mart_se if mart_se else abs(growth - 1.0)
    ok = violations == 0 and 0.0 < growth < np.inf and mart_gap <= mart_tol
    return {
        "status": "pass" if ok else "fail",
        "sign_law_violations": int(violations),
        "martingale_z": float(mart_z),
        "martingale_se": float(mart_se),
        "martingale_gap": float(mart_gap),
        "martingale_tol": float(mart_tol),
    }


def stage_bsde(sc: Scenario, writer: StageWriter) -> dict:
    cfg = sc.cfg
    bundle, ric, eq = _closed_form(sc, cfg.bsde.n_paths)
    g = terminal_g(sc.liability, bundle, np.ones(1))
    sol = solve_agent_bsde(
        bundle, sc.market, sc.basis, eq.theta, g,
        picard_max=cfg.bsde.picard_max, picard_tol=cfg.bsde.picard_tol,
        clip=cfg.bsde.clip,
    )
    err, ok = _vs_closed_form(sc, sol, ric, eq)
    ok = ok and sol.converged and sol.clip_count == 0
    details = err | {
        "picard_iters": sol.picard_iters,
        "converged": bool(sol.converged),
        "clip_count": int(sol.clip_count),
        "y0": sol.y0,
        "status": "pass" if ok else "fail",
    }
    writer.json("bsde_summary.json", details)
    return details


def stage_mf(sc: Scenario, writer: StageWriter) -> dict:
    cfg = sc.cfg
    mf = solve_equilibrium_cloud(sc, cfg.mf.n_common)
    sol = mf.solution
    diag = smallness_from_liability(sc.liability, sc.eqg, sc.grid, mf.stats)
    _write_paths(writer, "theta_mfg.csv", "theta", mf.theta, sc.grid.times)
    err, ok = _vs_closed_form(sc, sol, None, None)
    ok = ok and sol.converged
    if diag.smallness_ok:
        ok = ok and all(r < 1.0 for r in mf.ratios[1:])
    writer.json("mf_diagnostics.json", asdict(diag) | asdict(mf.stats) | err | {
        "ratios": mf.ratios, "changes": mf.changes, "iterations": sol.picard_iters,
        "converged": sol.converged, "y_inf": mf.y_inf, "z_bmo": mf.z_bmo, "y0": sol.y0,
        "status": "pass" if ok else "fail",
    })
    emit_plot_series(
        writer, "contraction_ratios", "iteration", "successive change ratio",
        ["iteration", "ratio"],
        [(i + 2, float(r)) for i, r in enumerate(mf.ratios)],
        extra={"converged": bool(sol.converged)},
    )
    return {
        "status": "pass" if ok else "fail",
        "converged": bool(sol.converged),
        "iterations": sol.picard_iters,
        "smallness_ok": bool(diag.smallness_ok),
    }


def stage_clearing(sc: Scenario, writer: StageWriter) -> dict:
    report, mf = run_clearing_study(sc)
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
    cfg, grid, market = sc.cfg, sc.grid, sc.market
    m_paths = min(cfg.mf.n_common, 64)
    bundle, _, eq = _closed_form(sc, m_paths)
    pi_tilde = normal_block_array(cfg.seed, KIND_AUX, (m_paths, grid.steps, market.n))
    rows = []
    for i in range(cfg.clearing.n_invariance_draws):
        rep = random_replacement(cfg.seed, grid.steps, market.n,
                                 cond_cap=cfg.clearing.cond_cap, block=i)
        rows.append((i, *replacement_invariance(market, eq.mu, bundle, pi_tilde, rep)))
    writer.csv("invariance.csv", ["draw", "theta_disc", "wealth_disc"], rows)
    _, theta_disc, wealth_disc = zip(*rows)
    # np.max keeps a NaN, which fails the gate
    max_theta, max_wealth = float(np.max(theta_disc)), float(np.max(wealth_disc))
    ok = max_theta < 1e-10 and max_wealth < 1e-10
    result = {"status": "pass" if ok else "fail",
              "max_theta_disc": max_theta, "max_wealth_disc": max_wealth}
    writer.json("invariance.json", result | {"n_draws": cfg.clearing.n_invariance_draws})
    return result


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
        out_dir = args.out or f"out_{cfg.name}"
        sc = build_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    writer = StageWriter(out_dir)
    names = STAGES if args.stage == "all" else [args.stage]
    stages: dict = {}
    for name in names:
        try:
            stages[name] = _STAGE_FN[name](sc, writer)
        except (MfequilError, ValueError, ArithmeticError) as exc:
            stages[name] = {"status": "fail", "error": f"{type(exc).__name__}: {exc}"}

    writer.json("manifest.json", {
        "config_sha256": config_sha256(cfg),
        "version": __version__,
        "stages": stages,
        "files": sorted(writer.files + ["manifest.json"]),
        "overrides": sorted(overrides),
    })
    for name, result in stages.items():
        print(f"{name}: {result['status']}")
    print(f"outputs in {out_dir} ({time.monotonic() - t0:.1f}s)", file=sys.stderr)
    return 0 if all(result["status"] == "pass" for result in stages.values()) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
