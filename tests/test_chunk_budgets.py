"""The two memory budgets of ``depthkit.core``.

``CHUNK_BYTES`` caps one chunk of query rows in ``core.in_chunks``, so a
row-wise kernel's temporaries stay cache-sized; ``BATCH_BYTES`` bounds
the state kept on a cloud and the blocks of the BLAS paths.  Neither may
move a value.  ``tests/test_geometry_kernels.py`` holds the same check for
the region kernels.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import make_cloud

from depthkit import DataCloud, core, regions
from depthkit.registry import EvalOptions, available_depths, get_depth

OPTIONS = EvalOptions(seed=5, budget=60)


def _grid(cloud, side=64):
    """side x side queries over the data box padded by a fifth (side**2 on
    the line in d = 1)."""
    lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
    pad = 0.2 * (hi - lo)
    if cloud.d == 1:
        return np.linspace(lo - pad, hi + pad, side * side)
    axes = [np.linspace(a, b, side) for a, b in zip(lo - pad, hi + pad)]
    return np.stack(np.meshgrid(*axes), -1).reshape(-1, 2)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", available_depths())
def test_depths_are_free_of_the_chunk_size(monkeypatch, name, d):
    # the default budgets, one-row chunks, and every budget at 2**40 (the
    # grid one chunk), each on a fresh cloud, so that what it keeps is
    # built under that run's budgets
    spec = get_depth(name)
    pts = make_cloud(21, 12, d).points
    qs = _grid(DataCloud(pts))
    runs = []
    for budget in ({}, {"CHUNK_BYTES": 1}, {"CHUNK_BYTES": 2**40, "BATCH_BYTES": 2**40}):
        with monkeypatch.context() as patch:
            for attr, value in budget.items():
                patch.setattr(core, attr, value)
            runs.append(spec.evaluate_many(qs, DataCloud(pts), OPTIONS))
    assert runs[0].shape == (64 * 64,)
    for other in runs[1:]:
        assert other.tobytes() == runs[0].tobytes()


@pytest.mark.parametrize("name", ["l2", "l2-affine", "oja"])
def test_a_grid_field_works_in_cache_sized_chunks(eu_cloud, name):
    # the field of a region ladder over eu27: 65,536 queries.  Beside the
    # chunks, nine arrays of one float per cell are live at once at most
    # (the two meshgrid axes, the queries and their whitened copy, the
    # field, and the clamp's two buffers), so the peak stays within that
    # plus two chunks; chunks under the 16 MiB batch budget took 13 to 19 MiB
    spec = get_depth(name)
    spec.evaluate_many(eu_cloud.points, eu_cloud)
    side = regions.DEFAULT_GRID_RESOLUTION
    tracemalloc.start()
    try:
        regions._grid_field(eu_cloud, lambda qs: spec.evaluate_many(qs, eu_cloud), side)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 8 * side * side + 2 * core.CHUNK_BYTES
