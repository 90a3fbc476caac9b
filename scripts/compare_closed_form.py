#!/usr/bin/env python3
"""Regression solver vs closed form across grid resolutions.

For an additive exponential-quadratic-Gaussian scenario the agent value and
hedge have closed forms (Riccati coefficients), so this script measures the
backward regression solver's y0 relative error and z0 path RMS error as the
time grid refines, at a fixed number of paths.

With the idiosyncratic coordinate integrated exactly, the time step, not
Monte Carlo noise, sets the z0 error at the shipped path counts.  At 8192
paths over 10, 20, 40 and 80 steps it falls from 15.2% to 8.2%, 5.7% and 4.4%
on eqg_additive (15.5% to 4.5% on eqg_a0, 15.4% to 4.4% on tiny); on
eqg_additive at 20 steps it moves little with the paths (10.2%, 8.2% and 7.6%
at 2048, 8192 and 32768 paths).  Read the z0 column as the one-step-lag bias
of the product estimator, O(dt), plus a noise floor.
"""
import argparse
import sys
from dataclasses import replace

import numpy as np

from mfequil import (
    build_scenario, closed_form_error, equilibrium_path, load_config, riccati_closed_form,
    simulate_paths, solve_agent_bsde, terminal_g,
)


def one_resolution(cfg, steps, n_paths, seed):
    sc = build_scenario(replace(cfg, grid=replace(cfg.grid, steps=steps)))
    grid, market, spec = sc.grid, sc.market, sc.eqg
    bundle = simulate_paths(grid, spec, market, n_paths, seed)
    ric = riccati_closed_form(spec, grid)
    eq = equilibrium_path(ric, bundle, market)
    g = terminal_g(sc.liability, bundle, np.ones(1))
    sol = solve_agent_bsde(bundle, market, sc.basis, eq.theta, g)

    err = closed_form_error(ric, sol, eq)
    return err["y0_rel_err"], err["z0_rms_rel_err"], sol.picard_iters


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--config", default="configs/tiny.json")
    p.add_argument("--paths", type=int, default=8192)
    p.add_argument("--steps", type=int, nargs="+", default=[10, 20, 40, 80])
    args = p.parse_args(argv)

    cfg = load_config(args.config)
    if not build_scenario(cfg).liability.is_additive:
        print("closed form needs an additive scenario (cross_eps = 0)")
        return 2

    print(f"scenario {cfg.name}, {args.paths} paths, horizon {cfg.grid.horizon}")
    print(f"{'steps':>6} {'dt':>9} {'y0 rel err':>11} {'z0 rms rel':>11} {'picard':>7}")
    prev = None
    for steps in args.steps:
        y0_rel, z0_rel, iters = one_resolution(cfg, steps, args.paths, cfg.seed)
        ratio = "" if prev is None else f"  (x{prev / z0_rel:.2f})"
        print(f"{steps:>6d} {cfg.grid.horizon / steps:>9.4f} {y0_rel:>11.4%} "
              f"{z0_rel:>11.4%} {iters:>7d}{ratio}")
        prev = z0_rel
    return 0


if __name__ == "__main__":
    sys.exit(main())
