"""Sampling from an explicit discrete distribution.

After pass 2 of Algorithm 2 the estimator holds the degrees ``d_e`` of all
edges in ``R`` and must draw ``ell`` independent indices with probability
``d_e / d_R``.  :class:`CumulativeSampler` supports exactly that: O(r) build,
O(log r) per draw via binary search on the cumulative weight array.  (An
alias table would give O(1) draws, but ``ell`` draws at O(log r) each is
nowhere near a bottleneck and the cumulative method is simpler to audit.)
"""

from __future__ import annotations

import random
from typing import Sequence, Union

import numpy as np


class CumulativeSampler:
    """Draw indices ``i`` with probability ``weights[i] / sum(weights)``.

    Parameters
    ----------
    weights:
        Non-negative weights (a sequence or a 1-D array); at least one must
        be positive.  The cumulative weights are a left-to-right running
        sum (``np.cumsum``), so the total is exactly the sequential sum.
    """

    def __init__(self, weights: Union[Sequence[float], np.ndarray]) -> None:
        values = np.asarray(weights, dtype=np.float64)
        if not len(values):
            raise ValueError("weights must be non-empty")
        negative = np.flatnonzero(values < 0)
        if len(negative):
            i = int(negative[0])
            raise ValueError(f"negative weight {weights[i]} at index {i}")
        cumulative = np.cumsum(values)
        total = float(cumulative[-1])
        if total <= 0:
            raise ValueError("all weights are zero")
        self._cumulative = cumulative
        self._total = total

    @property
    def total_weight(self) -> float:
        """Sum of all weights."""
        return self._total

    def draw(self, rng: random.Random) -> int:
        """Return one index distributed proportionally to the weights."""
        u = rng.random() * self._total
        index = int(np.searchsorted(self._cumulative, u, side="right"))
        # Guard the measure-zero edge case u == total (floating point).
        return min(index, len(self._cumulative) - 1)

    def draw_many(self, rng: random.Random, count: int) -> list[int]:
        """Return ``count`` independent proportional draws."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.draw(rng) for _ in range(count)]

    def draw_many_from_uniforms(self, uniforms: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`draw_many` over pre-drawn uniform variates.

        ``uniforms`` is an array of [0, 1) variates, one per draw; each is
        mapped through the same cumulative-weight inversion as :meth:`draw`
        (right-bisection with the identical measure-zero guard).  Returns
        the drawn indices as an int64 array.
        """
        index = np.searchsorted(self._cumulative, uniforms * self._total, side="right")
        return np.minimum(index, len(self._cumulative) - 1)
