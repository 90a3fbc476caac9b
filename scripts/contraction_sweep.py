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
    LiabilitySpec, PicardDiverged, build_scenario, gamma_hat as population_stats,
    load_config, simulate_paths, smallness_from_liability, solve_mean_field, terminal_g,
)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--config", default="configs/mf_small.json")
    p.add_argument("--scales", type=float, nargs="+",
                   default=[0.25, 1.0, 4.0, 16.0, 64.0])
    args = p.parse_args(argv)

    cfg = load_config(args.config)
    sc = build_scenario(cfg)
    grid, market, basis, gamma_dist = sc.grid, sc.market, sc.basis, sc.gamma_dist
    K = cfg.mf.n_particles

    atom_ids = gamma_dist.balanced_ids(K)
    gammas = np.asarray(gamma_dist.values)[atom_ids]
    stats = population_stats(gammas)
    bundle = simulate_paths(grid, sc.eqg, market,
                            cfg.mf.n_common, cfg.seed, agents=K)

    print(f"scenario {cfg.name}: K = {K} particles, "
          f"M = {cfg.mf.n_common} common paths")
    print(f"{'b scale':>8} {'f_inf':>10} {'gate':>6} {'sweeps':>7} "
          f"{'ratio 1':>10} {'y0':>12}")
    for s in args.scales:
        spec = replace(sc.eqg, b=cfg.eqg.b * s)
        liability = LiabilitySpec.from_eqg(spec, eps=cfg.eqg.cross_eps)
        g = terminal_g(liability, bundle, gammas)
        diag = smallness_from_liability(liability, spec, grid, stats)
        strata = (atom_ids, len(gamma_dist.values)) if liability.gamma_coupled else (None, 1)
        # run a few extra sweeps past the tolerance so the sweep-to-sweep
        # contraction ratio is measurable before the MC noise floor
        try:
            mf = solve_mean_field(
                bundle, market, basis, g, gammas, stats.gamma_hat,
                n_eq=K, max_iters=max(cfg.mf.iters, 5), tol=1e-12, clip=cfg.bsde.clip,
                stratum_ids=strata[0], n_strata=strata[1], diagnostics=diag,
            )
        except PicardDiverged as exc:
            print(f"{s:>8.2f} {diag.f_inf:>10.4g} {'in' if diag.smallness_ok else 'out':>6} "
                  f"diverged: {exc}")
            continue
        d = mf.diagnostics
        ratios = [r for r in d.ratios if np.isfinite(r)]
        first = ratios[0] if ratios else float("nan")
        print(f"{s:>8.2f} {d.f_inf:>10.4g} {'in' if d.smallness_ok else 'out':>6} "
              f"{d.iterations:>7d} {first:>10.4f} {mf.solution.y0:>12.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
