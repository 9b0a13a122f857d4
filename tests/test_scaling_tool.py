"""The scaling tool, ``tools/scaling.py``: every layer at two small sizes.

Each run starts one fresh interpreter per size, as the tool does for any
record; the sizes are those of the CI tools smoke, about 45 s in all (a
timed layer repeats until it has run for 0.2 s).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from depthkit.registry import available_depths

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "scaling.py"

PER_QUERY = "_s_per_query"
DEPTHS = tuple(name.replace("-", "_") for name in available_depths())
GRID_DEPTHS = ("l2", "l2_affine", "oja", "simplicial", "projection")
FDEPTH_CALLS = ("graph_halfspace", "graph_projection", "grid_halfspace", "grid_projection")
LAYERS = {
    "index": ("27,100", ("directions", "build_s", "outlyingness_s_per_query",
                        "grid_s_per_query", "point_s_per_query", "grid_read"),
              ("build_exp", "outlyingness_exp", "grid_exp", "point_exp")),
    "lp": ("10,27", ("d2_lp_s", "d2_pivots", "d3_lp_s", "d3_pivots"),
           ("d2_lp_exp", "d2_pivots_exp", "d3_lp_exp", "d3_pivots_exp")),
    "region": ("27,80", ("tukey_region_s_per_level", "tukey_tie_region_s_per_level",
                         "echstar_region_s_per_level", "json_s_per_layer", "tukey_peak_mb",
                         "vertices", "json_bytes", "hull_s_per_level", "ring_s_per_level"),
               ("tukey_region_exp", "tukey_tie_region_exp", "echstar_region_exp", "json_exp",
                "hull_exp", "ring_exp")),
    "sweep": ("27,80", tuple(p + PER_QUERY for p in (
        "line_halfspace", "angular_halfspace", "line_simplicial", "angular_simplicial",
        "batch_halfspace")),
              ("line_halfspace_exp", "angular_halfspace_exp",
               "line_simplicial_exp", "angular_simplicial_exp", "batch_halfspace_exp")),
    "tukey_oja": ("27,80", tuple(p + PER_QUERY for p in (
        "dense_tukey", "sorted_tukey", "pair_oja", "angular_oja")),
                  ("dense_tukey_exp", "sorted_tukey_exp", "pair_oja_exp", "angular_oja_exp")),
    "wm": ("27,80", ("point_s_per_query", "batch_s_per_query", "frame_kept"),
           ("point_exp", "batch_exp")),
    "dispatch": ("10,27", tuple(f"{name}_{call}{PER_QUERY}" for name in DEPTHS
                                for call in ("point", "row", "batch")),
                 tuple(f"{name}_{call}_exp" for name in DEPTHS
                       for call in ("point", "row", "batch"))),
    "grid": ("27,80", tuple(f"{name}_s_per_node" for name in GRID_DEPTHS)
             + ("marching_squares_s_per_level", "svg_s_per_layer", "layers", "vertices"),
             tuple(f"{name}_exp" for name in GRID_DEPTHS) + ("marching_squares_exp", "svg_exp")),
    "fdepth": ("10,30", tuple(f"{call}_{way}_s_per_curve" for call in FDEPTH_CALLS
                              for way in ("loop", "batch")),
               tuple(f"{call}_{way}_exp" for call in FDEPTH_CALLS for way in ("loop", "batch"))),
}


def scaling(*argv):
    return subprocess.run([sys.executable, str(TOOL), *argv, "--src", str(ROOT / "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_record(layer):
    sizes, keys, exps = LAYERS[layer]
    proc = scaling(layer, "--sizes", sizes)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    nulls = []

    def pairs(kv):
        nulls.extend(k for k, v in kv if k.endswith("_exp") and v is None)
        return dict(kv)

    record = json.loads(lines[-1], object_pairs_hook=pairs)
    assert not nulls
    assert record["layer"] == layer
    assert record["skipped_over_limit"] == [] and record["limit_s"] > 0
    assert sorted(record["sizes"]) == sorted(sizes.split(","))
    for row in record["sizes"].values():
        assert tuple(row) == keys
        # both sizes are under n = 101, so the cloud keeps the support frame
        assert row.get("frame_kept", True) is True
    assert set(exps) <= set(record)
    # one printed row per size before the record
    assert [line.split(":")[0] for line in lines[:-1]] == [f"n={n}" for n in sizes.split(",")]


def test_unknown_layer_is_refused_in_one_line():
    proc = scaling("nosuch")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "nosuch" in proc.stderr and "index" in proc.stderr
