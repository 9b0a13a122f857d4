"""Seeded direction sampling shared by every randomized approximation.

All consumers draw from a sequential stream, so a larger budget with the
same seed evaluates a superset of the directions of a smaller budget.
:class:`EvalOptions` carries that seed and budget to every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class EvalOptions:
    """Seed and size of the direction sample of the randomized depths."""

    seed: int = 0
    budget: int = 1000

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("direction budget must be at least 1")


DEFAULT_OPTIONS = EvalOptions()


def direction_stream(dim: int, seed: int) -> Iterator[np.ndarray]:
    """Yield unit vectors uniform on the sphere S^{dim-1}, deterministically."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(seed)
    while True:
        g = rng.standard_normal(dim)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            yield g / norm


@lru_cache(maxsize=8)
def _direction_set(dim: int, count: int, seed: int) -> np.ndarray:
    stream = direction_stream(dim, seed)
    dirs = np.array([next(stream) for _ in range(count)])
    dirs.setflags(write=False)
    return dirs


def unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    """First ``count`` directions of the stream, as a read-only (count, dim)
    array.

    The few most recently used direction sets are kept, so the queries of
    one evaluation share one draw.
    """
    if count < 1:
        raise ValueError("direction count must be at least 1")
    return _direction_set(dim, count, seed)
