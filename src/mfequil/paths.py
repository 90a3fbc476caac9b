"""Path simulation for the common factor and agent noise.

All randomness comes from counter-based Philox substreams.  Streams are keyed
by (seed, stream kind, block index) where a block is a fixed slice of path
indices, so a path's draws do not depend on how many paths are drawn.  The
factor follows Euler-Maruyama on the same increments the BSDE regressions
consume, and the running liability integral I uses the left-endpoint rule, so
factor, integral, and regressions stay on one discretisation.  Idiosyncratic
levels are kept as their increments plus a few checkpoint levels (Levels) and
rebuilt a level at a time, the store-or-recompute trade of checkpointing
(Griewank & Walther, "Algorithm 799: revolve", ACM TOMS 2000) at its simplest.
"""

from __future__ import annotations

import math
import operator
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


class Levels:
    """The levels of increments dw (M, K, steps), W_0 = 0 and W_k = dw_0 + ...
    + dw_(k-1), kept as dw plus checkpoint levels; built by levels(dw).

    The checkpoints are levels c, 2c, ... and steps, for c = ceil(sqrt(steps)):
    ceil(steps / c) stored levels in place of steps + 1.  Level k is
    rebuilt from the nearest checkpoint below it by adding dw[..., j] in
    order, the additions np.cumsum makes, so every level has cumsum's bits
    (level 1 is dw[..., 0] itself, sign of zero included).  Two keys read it:
    w[:, r, k] is level k (M, n) of the particle range r (a unit-step slice,
    ':' for all), a read-only checkpoint or a fresh rebuild (not cached: a
    second read rebuilds, at most c - 1 adds); w[:, r] is the Levels of those
    particles, on views of the same arrays.  Any other key raises TypeError.
    """

    def __init__(self, dw: np.ndarray, marks: np.ndarray):
        self.dw = dw
        self._marks = marks     # levels c, 2c, ... and steps: (M, K, ceil(steps / c)), read-only

    @property
    def shape(self) -> tuple[int, int, int]:
        return (*self.dw.shape[:2], self.dw.shape[2] + 1)

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) in (2, 3)
                and isinstance(key[0], slice) and key[0] == slice(None)
                and isinstance(key[1], slice) and key[1].step in (None, 1)):
            raise TypeError(f"Levels reads w[:, a:b, k] or w[:, a:b], not {key!r}")
        dw, marks = self.dw[:, key[1]], self._marks[:, key[1]]
        if len(key) == 2:
            return Levels(dw, marks)
        steps, k = dw.shape[2], operator.index(key[2])
        if not -steps - 1 <= k <= steps:
            raise IndexError(f"level {k} of {steps + 1}")
        k %= steps + 1
        c = _spacing(steps)
        if k == steps or (k and k % c == 0):
            return marks[..., (k - 1) // c]
        base = k - k % c
        if base == 0:
            if k == 0:
                return np.zeros(dw.shape[:2])
            out = dw[..., 0].copy()
        else:
            out = marks[..., base // c - 1] + dw[..., base]
        for j in range(base + 1, k):
            out += dw[..., j]
        return out


def _spacing(steps: int) -> int:
    """The checkpoint spacing of Levels, ceil(sqrt(steps))."""
    return math.isqrt(steps - 1) + 1


def levels(dw: np.ndarray) -> Levels:
    """The Levels of the increments dw (M, K, steps), 0 at t = 0: one running
    sum over the steps, which writes each checkpoint as it passes it."""
    M, K, steps = dw.shape
    c = _spacing(steps)
    marks = step_major((M, K, -(-steps // c)))
    run = dw[..., 0].copy()
    for k in range(1, steps + 1):
        if k > 1:
            run += dw[..., k - 1]
        if k == steps or k % c == 0:
            marks[..., (k - 1) // c] = run
    marks.flags.writeable = False
    return Levels(dw, marks)


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


def _normal_blocks(seed: int, kind: int, shape: tuple[int, ...]):
    """normal_block_array's draws a block at a time, each a new array: (start,
    stop, draws of shape (stop - start,) + shape[1:])."""
    for b, (start, stop) in enumerate(block_ranges(shape[0])):
        yield start, stop, _philox(seed, kind, b).standard_normal((stop - start, *shape[1:]))


@dataclass
class PathBundle:
    """Simulated common paths with per-agent idiosyncratic increments.

    dW0: (M, steps, d0) common Brownian increments.
    dWi: (M, K, steps) idiosyncratic increments, K agents per common path.
    x:   (M, steps + 1) Euler path of the OU factor.
    I:   (M, steps + 1) left-rule running integral of a x^2 + b x.
    dWi is stored step-major (step_major), the rest C-ordered; its levels wi
    are a Levels, dWi plus ceil(sqrt(steps))-spaced checkpoints.
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

    @cached_property
    def wi(self) -> Levels:
        """Idiosyncratic Brownian levels, (M, K, steps + 1), read a level at a
        time (wi[:, :, k]) or a particle range at a time (wi[:, a:b])."""
        return levels(self.dWi)


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
    for start, stop, draws in _normal_blocks(seed, KIND_IDIO, rows.shape):
        np.multiply(draws, sqdt, out=rows[start:stop])

    x, I = _euler_factor(spec, dW0, dt)
    return PathBundle(grid=grid, dW0=dW0, dWi=dWi, x=x, I=I)


def _euler_factor(spec: EqgSpec, dW0: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Euler factor path x and left-rule running cost I on the increments dW0."""
    M, steps, _ = dW0.shape
    x = np.empty((M, steps + 1))
    I = np.empty((M, steps + 1))
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
