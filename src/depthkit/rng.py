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

from .errors import EnumerationTooLargeError

#: the largest direction budget: 10**6 planar directions take 16 MB
MAX_DIRECTION_BUDGET = 10**6


def check_budget(count: int) -> None:
    """Refuse a direction budget below 1 (``ValueError``) or above
    ``MAX_DIRECTION_BUDGET`` (:class:`EnumerationTooLargeError`)."""
    if count < 1:
        raise ValueError("direction budget must be at least 1")
    if count > MAX_DIRECTION_BUDGET:
        raise EnumerationTooLargeError(
            f"direction budget {count} exceeds the maximum {MAX_DIRECTION_BUDGET}")


@dataclass(frozen=True)
class EvalOptions:
    """Seed and size of the direction sample of the randomized depths."""

    seed: int = 0
    budget: int = 1000

    def __post_init__(self):
        check_budget(self.budget)


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
    # one draw per row, each normalized alone: a vectorised row norm rounds
    # differently on some rows; filled in place, as a list of one array per
    # direction peaked near 200 MB at 10**6 directions
    stream = direction_stream(dim, seed)
    dirs = np.empty((count, dim))
    for row in dirs:
        row[:] = next(stream)
    dirs.setflags(write=False)
    return dirs


def unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    """First ``count`` directions of the stream, as a read-only (count, dim)
    array.

    The few most recently used direction sets are kept, so the queries of
    one evaluation share one draw.
    """
    check_budget(count)
    return _direction_set(dim, count, seed)
