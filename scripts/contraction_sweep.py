#!/usr/bin/env python3
"""Fixed-point contraction behaviour vs liability size.

Scales the running-cost coefficient b of a scenario and, for each scale,
solves the mean-field fixed point from a zero start, recording the sweep-to-
sweep change ratios and the smallness gate.  Inside the gate the iteration
must contract (ratios < 1); outside it usually still converges in practice,
which is the point of printing both.  A run whose change grows for three
consecutive sweeps stops with PicardDiverged and is printed as diverged.
"""
import argparse
import sys
from dataclasses import replace

import numpy as np

from mfequil import (
    PicardDiverged, build_scenario, gamma_hat as population_stats,
    load_config, smallness_from_liability, solve_equilibrium_cloud,
)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--config", default="configs/mf_small.json")
    p.add_argument("--scales", type=float, nargs="+",
                   default=[0.25, 1.0, 4.0, 16.0, 64.0])
    args = p.parse_args(argv)

    cfg = load_config(args.config)
    # run a few extra sweeps past the tolerance so the sweep-to-sweep
    # contraction ratio is measurable before the MC noise floor
    cfg = replace(cfg, mf=replace(cfg.mf, iters=max(cfg.mf.iters, 5), tol=1e-12))

    print(f"scenario {cfg.name}: M = {cfg.mf.n_common} common paths, "
          f"{len(cfg.population.gamma_values)} risk-aversion atoms")
    print(f"{'b scale':>8} {'f_inf':>10} {'gate':>6} {'sweeps':>7} "
          f"{'ratio 1':>10} {'y0':>12}")
    for s in args.scales:
        # the scaled liability and the running cost I it is regressed on
        # come from one scenario; its gates need no solve
        sc = build_scenario(replace(cfg, eqg=replace(cfg.eqg, b=cfg.eqg.b * s)))
        dist = sc.gamma_dist
        diag = smallness_from_liability(sc.liability, sc.eqg, sc.grid,
                                        population_stats(dist.values, dist.p))
        gate = f"{s:>8.2f} {diag.f_inf:>10.4g} {'in' if diag.smallness_ok else 'out':>6}"
        try:
            mf = solve_equilibrium_cloud(sc, cfg.mf.n_common)
        except PicardDiverged as exc:
            print(f"{gate} diverged: {exc}")
            continue
        ratios = [r for r in mf.ratios if np.isfinite(r)]
        first = ratios[0] if ratios else float("nan")
        print(f"{gate} {mf.solution.picard_iters:>7d} {first:>10.4f} {mf.solution.y0:>12.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
