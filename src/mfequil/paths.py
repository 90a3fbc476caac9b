"""Path simulation for the common factor and agent noise.

All randomness comes from counter-based Philox substreams.  Streams are keyed
by (seed, stream kind, block index) where a block is a fixed slice of path
indices, so a path's draws do not depend on how many paths are drawn.  The
factor follows Euler-Maruyama on the same increments the BSDE regressions
consume, and the running liability integral I uses the left-endpoint rule, so
factor, integral, and regressions stay on one discretisation.  The solves
integrate each agent's idiosyncratic coordinate exactly (see regression), so
a bundle holds the common noise only, with its seed.  Idiosyncratic
increments are drawn only for agents that are followed along a path: the
agent verify_condition_r audits, one per common path, whose levels
agent_levels draws from the bundle's seed at each call, and the clearing
pool, which draws a chunk of common paths at a time and keeps none of them
(see clearing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketSpec, TimeGrid
from .riccati import EqgSpec

# stream kinds; population draws live here too so scenario assembly stays
# on the same keying scheme
KIND_COMMON = 1
KIND_IDIO = 2
KIND_GAMMA = 3
KIND_AUX = 5

BLOCK = 1024


def block_ranges(total: int, block: int = BLOCK) -> list[tuple[int, int]]:
    """[(start, stop), ...] covering range(total) in fixed-size blocks.

    Boundaries depend only on the problem size: normal draws are keyed by
    block index and the regressions' Gram sums are reduced in block order,
    so both are bit-identical for every BLAS thread count.
    """
    return [(s, min(s + block, total)) for s in range(0, total, block)]


def _philox(seed: int, kind: int, block: int) -> np.random.Generator:
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64((kind << 40) | block)
    return np.random.Generator(np.random.Philox(key=key))


def normal_block_array(seed: int, kind: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of the given shape, leading axis split into blocks.

    The draw for leading index i depends only on (seed, kind, i // BLOCK,
    position within block).
    """
    out = np.empty(shape)
    for b, (start, stop) in enumerate(block_ranges(shape[0])):
        # drawn in place: the same stream, with no block-sized copy
        _philox(seed, kind, b).standard_normal(out=out[start:stop])
    return out


def normal_chunks(seed: int, kind: int, shape: tuple[int, ...], rows: int, scale: float):
    """normal_block_array's draws times scale, at most `rows` leading indices
    at a time, each chunk a new array within one block: (start, stop, draws
    of shape (stop - start,) + shape[1:]).  A block's chunks are successive
    draws of its one stream, so they are its numbers for any `rows`; a chunk
    is let go before the next is drawn."""
    for b, (start, stop) in enumerate(block_ranges(shape[0])):
        rng = _philox(seed, kind, b)
        for a in range(start, stop, rows):
            draws = rng.standard_normal((min(a + rows, stop) - a, *shape[1:]))
            draws *= scale
            yield a, a + draws.shape[0], draws
            del draws


@dataclass(frozen=True)
class PathBundle:
    """Simulated common paths, keyed by seed.

    dW0: (M, steps, d0) common Brownian increments, C-ordered.
    x:   (M, steps + 1) Euler path of the OU factor.
    I:   (M, steps + 1) left-rule running integral of a x^2 + b x.
    x and I are stored step-major.  seed keys the draws, the audited
    agent's too (agent_levels).
    """

    grid: TimeGrid
    dW0: np.ndarray
    x: np.ndarray
    I: np.ndarray
    seed: int

    @property
    def n_paths(self) -> int:
        return self.dW0.shape[0]


def agent_levels(bundle: PathBundle) -> np.ndarray:
    """Idiosyncratic levels of the audited agent, one per common path:
    (M, steps + 1), W_0 = 0, stored step-major like x and I.  They are the
    bundle's keyed normals of kind KIND_IDIO over (M, steps) times sqrt(dt),
    summed by np.cumsum, drawn at each call and not kept by the bundle."""
    M, steps = bundle.n_paths, bundle.grid.steps
    dw = normal_block_array(bundle.seed, KIND_IDIO, (M, steps))
    dw *= np.sqrt(bundle.grid.dt)
    out = np.empty((steps + 1, M)).T
    out[:, 0] = 0.0
    np.cumsum(dw, axis=1, out=out[:, 1:])
    return out


def simulate_paths(
    grid: TimeGrid,
    spec: EqgSpec,
    market: MarketSpec,
    n_paths: int,
    seed: int,
) -> PathBundle:
    """Euler-Maruyama factor paths on keyed common Brownian increments."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if len(spec.delta) != market.d0:
        raise ValueError(
            f"delta has {len(spec.delta)} components, market has d0={market.d0}"
        )
    dt = grid.dt
    dW0 = normal_block_array(seed, KIND_COMMON, (n_paths, grid.steps, market.d0)) * np.sqrt(dt)
    x, I = _euler_factor(spec, dW0, dt)
    return PathBundle(grid=grid, dW0=dW0, x=x, I=I, seed=seed)


def _euler_factor(spec: EqgSpec, dW0: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Euler factor path x and left-rule running cost I on the increments dW0,
    each (M, steps + 1) stored step-major, so a step's values are contiguous."""
    M, steps, _ = dW0.shape
    x = np.empty((steps + 1, M)).T
    I = np.empty((steps + 1, M)).T
    x[:, 0] = spec.x0
    I[:, 0] = 0.0
    delta = spec.delta_vec
    for k in range(steps):
        xk = x[:, k]
        I[:, k + 1] = I[:, k] + (spec.a * xk * xk + spec.b * xk) * dt
        x[:, k + 1] = xk + (spec.alpha * xk + spec.beta) * dt + dW0[:, k] @ delta
    return x, I


def ou_exact_moments(spec: EqgSpec, t: float) -> tuple[float, float]:
    """Exact mean and variance of the OU factor at time t (for statistical tests)."""
    a, b = spec.alpha, spec.beta
    if abs(a) < 1e-14:
        mean = spec.x0 + b * t
        var = spec.delta_sq * t
    else:
        e = np.exp(a * t)
        mean = e * spec.x0 + (b / a) * (e - 1.0)
        var = spec.delta_sq * (np.exp(2.0 * a * t) - 1.0) / (2.0 * a)
    return float(mean), float(var)


def format_float(v: float) -> str:
    return f"{v:.17g}"
