#!/usr/bin/env python3
"""Clearing-residual decay study.

Solves the mean-field fixed point for a scenario config, prices a pool of
freshly drawn agents off the stored per-step regressions, and prints the
aggregate clearing residual eps_N for a ladder of population sizes together
with the log-log slope (should sit near -1) and the Jensen-style bound
N * eps_N <= 4 (1 + gamma_hat^2/gamma_lo^2) * BMO.
"""
import argparse
import sys
import time
from dataclasses import replace

from mfequil import build_scenario, load_config, run_clearing_study


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--config", default="configs/cross_term.json")
    p.add_argument("--seed", type=int, default=None)
    args = p.parse_args(argv)

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    sc = build_scenario(cfg)

    t0 = time.time()
    report, mf, _ = run_clearing_study(sc)
    wall = time.time() - t0

    diag = mf.diagnostics
    print(f"scenario {cfg.name}: fixed point in {diag.iterations} sweeps, "
          f"smallness gate {'inside' if diag.smallness_ok else 'OUTSIDE'} "
          f"(liability sup-norm {diag.f_inf:.4g})")
    print(f"{'N':>6} {'eps_N':>12} {'stderr':>10} {'N*eps_N':>12} {'bound ok':>8}")
    for i, n in enumerate(report.Ns):
        bok = report.bound_ok[i] if report.bound_ok else "-"
        print(f"{n:>6d} {report.eps[i]:>12.4e} {report.stderr[i]:>10.2e} "
              f"{n * report.eps[i]:>12.4e} {str(bok):>8}")
    print(f"log-log slope  {report.slope:+.3f}   (O(1/N) decay means ~ -1)")
    print(f"bound constant {report.bound_const:.4e}   "
          f"(gamma_hat {report.gamma_hat:.3f}, BMO proxy {report.bmo_proxy:.3e})")
    print(f"wall clock     {wall:.1f}s")
    ok = report.bound_ok and all(report.bound_ok) and -1.3 < report.slope < -0.7
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
