"""Path simulation for the common factor and agent noise.

All randomness comes from counter-based Philox substreams.  Streams are keyed
by (seed, stream kind, block index) where a block is a fixed slice of path
indices, so a path's draws do not depend on how many paths are drawn.  The
factor follows Euler-Maruyama on the same increments the BSDE regressions
consume, and the running liability integral I uses the left-endpoint rule, so
factor, integral, and regressions stay on one discretisation.  The solves
integrate each agent's idiosyncratic coordinate exactly (see regression), so
its increments are drawn only for agents that are followed along a path: a
bundle's own agents, whose strategies verify_condition_r audits (one per
path by default), and the clearing pool, which draws a chunk of common
paths at a time and keeps none of them (see clearing).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def step_major(shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of shape (M, K, steps, ...) stored as (steps, M, K, ...): [:, :, k] is contiguous."""
    m, k, steps, *tail = shape
    return np.zeros((steps, m, k, *tail)).transpose(1, 2, 0, *range(3, len(shape)))


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


@dataclass
class PathBundle:
    """Simulated common paths with per-agent idiosyncratic increments.

    dW0: (M, steps, d0) common Brownian increments.
    dWi: (M, K, steps) idiosyncratic increments, K agents per common path.
    x:   (M, steps + 1) Euler path of the OU factor.
    I:   (M, steps + 1) left-rule running integral of a x^2 + b x.
    dWi, x and I are stored step-major, dW0 C-ordered.
    """

    grid: TimeGrid
    dW0: np.ndarray
    dWi: np.ndarray
    x: np.ndarray
    I: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.dW0.shape[0]

    @property
    def n_agents(self) -> int:
        return self.dWi.shape[1]

    @cached_property
    def w0(self) -> np.ndarray:
        """Cumulative common Brownian path, (M, steps + 1, d0), W0_0 = 0."""
        M, steps, d0 = self.dW0.shape
        out = np.zeros((M, steps + 1, d0))
        np.cumsum(self.dW0, axis=1, out=out[:, 1:])
        return out

    @property
    def wi(self) -> np.ndarray:
        """Idiosyncratic Brownian levels, (M, K, steps + 1), W_0 = 0, by
        np.cumsum and stored step-major: a new array at each read, which
        the bundle does not keep."""
        M, K, steps = self.dWi.shape
        out = step_major((M, K, steps + 1))
        np.cumsum(self.dWi, axis=2, out=out[:, :, 1:])
        return out


def simulate_paths(
    grid: TimeGrid,
    spec: EqgSpec,
    market: MarketSpec,
    n_paths: int,
    seed: int,
    agents: int = 1,
) -> PathBundle:
    """Euler-Maruyama factor paths plus Brownian increments for `agents` agents."""
    if n_paths < 1 or agents < 1:
        raise ValueError("n_paths and agents must be >= 1")
    if len(spec.delta) != market.d0:
        raise ValueError(
            f"delta has {len(spec.delta)} components, market has d0={market.d0}"
        )
    steps, dt = grid.steps, grid.dt
    sqdt = np.sqrt(dt)

    dW0 = normal_block_array(seed, KIND_COMMON, (n_paths, steps, market.d0)) * sqdt
    dWi = step_major((n_paths, agents, steps))
    # each block's draws go straight to their rows of the step-major store
    rows = dWi.reshape(n_paths * agents, steps)
    for start, stop, draws in normal_chunks(seed, KIND_IDIO, rows.shape, BLOCK, sqdt):
        rows[start:stop] = draws

    x, I = _euler_factor(spec, dW0, dt)
    return PathBundle(grid=grid, dW0=dW0, dWi=dWi, x=x, I=I)


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
