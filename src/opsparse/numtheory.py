"""Equidistribution-of-dilates machinery behind the non-spread pruning step.

A real y in [0, 1) is eps-good for length N when every window [l, r] captures
a fraction of the orbit {frac(x*y) : x = 0..N-1} within eps of its width.
Every eps-bad member of a well-scattered sequence sits within 1/N of a
reduced rational with denominator at most ceil(4/eps), so the bad set is
covered by a short list of intervals enumerable by a Farey sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BadIntervalSet",
    "bad_intervals",
    "is_good_bruteforce",
    "farey",
    "scatter_constant",
]


def farey(order: int) -> np.ndarray:
    """All reduced fractions p/q with 0 <= p <= q <= order, ascending.

    Stern-Brocot next-term recurrence; includes the endpoints 0/1 and 1/1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    vals = [0.0]
    a, b, c, d = 0, 1, 1, order
    while c <= order:
        vals.append(c / d)
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return np.asarray(vals)


@dataclass
class BadIntervalSet:
    """Merged cover of the eps-bad reals in [0, 1) for dilation length N."""

    n: int
    centers: np.ndarray
    lo: np.ndarray = field(init=False)
    hi: np.ndarray = field(init=False)

    def __post_init__(self):
        # centres ascend and every interval has the same width, so hi never
        # decreases: a merged run ends at its last interval's hi
        half = 1.0 / self.n
        lo = self.centers - half
        hi = self.centers + half
        start = np.concatenate(([True], lo[1:] > hi[:-1]))
        end = np.append(start[1:], True)
        self.lo = lo[start]
        self.hi = hi[end]

    def __len__(self) -> int:
        return len(self.lo)

    def contains(self, y):
        """Whether y (scalar or array) lies in some covering interval."""
        y = np.asarray(y, dtype=np.float64)
        idx = np.searchsorted(self.lo, y, side="right") - 1
        hit = (idx >= 0) & (y <= self.hi[np.maximum(idx, 0)])
        return bool(hit) if y.ndim == 0 else hit


def bad_intervals(n: int, eps: float) -> BadIntervalSet:
    """Cover of the eps-bad set: [p/q - 1/N, p/q + 1/N] over Farey(ceil(4/eps))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    order = math.ceil(4.0 / eps)
    return BadIntervalSet(n, farey(order))


def is_good_bruteforce(y: float, n: int, eps: float) -> bool:
    """Exact orbit count over a canonical eps/4 window grid (test oracle).

    Windows [l, r] are taken over all grid pairs at resolution eps/4; the
    orbit count uses closed intervals.  Quadratic in 1/eps, linear in n.
    """
    orbit = np.sort((np.arange(n, dtype=np.float64) * y) % 1.0)
    m = math.ceil(4.0 / eps)
    grid = np.minimum(np.arange(m + 1, dtype=np.float64) * (eps / 4.0), 1.0)
    left = np.searchsorted(orbit, grid, side="left")
    right = np.searchsorted(orbit, grid, side="right")
    # count in [grid[i], grid[j]] is right[j] - left[i]; width grid[j] - grid[i]
    counts = right[None, :] - left[:, None]
    widths = grid[None, :] - grid[:, None]
    defect = np.abs(counts / n - widths)
    defect[widths < 0] = 0.0
    return float(defect.max()) <= eps


def scatter_constant(values: np.ndarray) -> int:
    """Largest number of values falling in any window of width 1/len(values)."""
    ys = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ys)
    hits = np.searchsorted(ys, ys + 1.0 / n, side="right") - np.arange(n)
    return int(hits.max())
