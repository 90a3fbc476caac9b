"""Fixed block layout for seeded draws and Gram accumulation.

Work is split into fixed-size blocks whose boundaries depend only on the
problem size.  Random streams are keyed by block index and partial sums are
reduced in block order, so the arrays are bit-identical for every size of
the thread pool a BLAS library may run underneath.
"""

from __future__ import annotations

BLOCK = 1024


def block_ranges(total: int, block: int = BLOCK) -> list[tuple[int, int]]:
    """[(start, stop), ...] covering range(total) in fixed-size blocks."""
    return [(s, min(s + block, total)) for s in range(0, total, block)]
