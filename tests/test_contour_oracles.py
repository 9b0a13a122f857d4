"""Traced contours and region documents against per-point reference code.

``oracle_marching_squares`` is the per-cell marching-squares loop that
``regions.marching_squares`` replaced: four interpolations and a lambda
table per active cell, and rings joined by coordinates rounded to 1e-9 of
the grid spacing.  ``reference_svg`` and ``reference_payload`` map and
convert one vertex at a time.  The array code must give bitwise the same
rings and byte-identical documents.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthkit.regions import Ring, RegionContour, _grid_field, marching_squares, region_contours
from depthkit.registry import EvalOptions, get_depth
from depthkit.svg import (
    ContourDocument,
    ContourLayer,
    _escape,
    _fmt,
    _HEIGHT,
    _LEGEND_WIDTH,
    _MARGIN,
    _ramp_color,
    _WIDTH,
    _json_text,
    document_from_contours,
    document_payload,
    export_region_json,
    render_svg,
)

# the traced ladders the region benchmark draws on eu27
TRACED_LADDERS = {
    "projection": (0.1, 0.2, 0.3, 0.4),
    "simplicial": (0.05, 0.1, 0.15, 0.2, 0.25),
    "oja": (0.2, 0.3, 0.4, 0.5, 0.6),
    "l2": (0.01, 0.015, 0.02, 0.025, 0.03),
    "l2-affine": (0.1, 0.2, 0.3, 0.4),
}
EXACT_LADDERS = {
    "mahalanobis": (0.1, 0.3, 0.5, 0.7, 0.9),
    "zonoid": (0.1, 0.3, 0.5, 0.7, 0.9),
    "echstar": (0.1, 0.3, 0.5, 0.7, 0.9),
    "geometric": (0.1, 0.3, 0.5, 0.7, 0.9),
    "halfspace": (2 / 27, 4 / 27, 6 / 27, 8 / 27),
}


# ---------------------------------------------------------------------------
# the per-cell loop
# ---------------------------------------------------------------------------


def _interp(pa, pb, fa, fb):
    denom = fa - fb
    t = 0.5 if denom == 0.0 else fa / denom
    t = min(max(t, 0.0), 1.0)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


_SEGMENT_TABLE = {
    1: lambda b, r, t, l: [(b, l)],
    2: lambda b, r, t, l: [(r, b)],
    3: lambda b, r, t, l: [(r, l)],
    4: lambda b, r, t, l: [(t, r)],
    6: lambda b, r, t, l: [(t, b)],
    7: lambda b, r, t, l: [(t, l)],
    8: lambda b, r, t, l: [(l, t)],
    9: lambda b, r, t, l: [(b, t)],
    11: lambda b, r, t, l: [(r, t)],
    12: lambda b, r, t, l: [(l, r)],
    13: lambda b, r, t, l: [(b, r)],
    14: lambda b, r, t, l: [(l, b)],
}


def oracle_marching_squares(xs, ys, field, level):
    nx, ny = len(xs), len(ys)
    dx = xs[1] - xs[0] if nx > 1 else 1.0
    dy = ys[1] - ys[0] if ny > 1 else 1.0
    xs2 = np.concatenate([[xs[0] - dx], xs, [xs[-1] + dx]])
    ys2 = np.concatenate([[ys[0] - dy], ys, [ys[-1] + dy]])
    f2 = np.full((ny + 2, nx + 2), level - 1.0)
    f2[1:-1, 1:-1] = field
    g = f2 - level

    inside = g >= 0
    cases = (
        inside[:-1, :-1].astype(np.int8)
        + 2 * inside[:-1, 1:]
        + 4 * inside[1:, 1:]
        + 8 * inside[1:, :-1]
    )
    active = np.argwhere((cases != 0) & (cases != 15))

    segments = []
    for iy, ix in active:
        case = int(cases[iy, ix])
        f00 = g[iy, ix]
        f10 = g[iy, ix + 1]
        f11 = g[iy + 1, ix + 1]
        f01 = g[iy + 1, ix]
        p00 = (xs2[ix], ys2[iy])
        p10 = (xs2[ix + 1], ys2[iy])
        p11 = (xs2[ix + 1], ys2[iy + 1])
        p01 = (xs2[ix], ys2[iy + 1])
        bottom = _interp(p00, p10, f00, f10)
        right = _interp(p10, p11, f10, f11)
        top = _interp(p01, p11, f01, f11)
        left = _interp(p00, p01, f00, f01)
        if case == 5:
            center = (f00 + f10 + f11 + f01) / 4.0
            segs = [(top, left), (bottom, right)] if center >= 0 else [
                (bottom, left), (top, right)]
        elif case == 10:
            center = (f00 + f10 + f11 + f01) / 4.0
            segs = [(left, bottom), (right, top)] if center >= 0 else [
                (right, bottom), (left, top)]
        else:
            segs = _SEGMENT_TABLE[case](bottom, right, top, left)
        segments.extend(segs)

    scale = max(abs(dx), abs(dy), 1e-12)

    def key(p):
        return (round(p[0] / (1e-9 * scale)), round(p[1] / (1e-9 * scale)))

    by_start = {}
    for idx, seg in enumerate(segments):
        by_start.setdefault(key(seg[0]), []).append(idx)
    rings = []
    used = [False] * len(segments)
    for idx, seg in enumerate(segments):
        if used[idx]:
            continue
        chain = [seg[0], seg[1]]
        used[idx] = True
        guard = 0
        while key(chain[-1]) != key(chain[0]) and guard <= len(segments):
            guard += 1
            nxt = None
            for cid in by_start.get(key(chain[-1]), []):
                if not used[cid]:
                    nxt = cid
                    used[cid] = True
                    break
            if nxt is None:
                break
            chain.append(segments[nxt][1])
        if key(chain[-1]) == key(chain[0]) and len(chain) > 3:
            rings.append(Ring(np.array(chain[:-1])))
    return rings


def drop_repeats(v: np.ndarray) -> np.ndarray:
    """The ring without vertices equal to the one before them (cyclically)."""
    repeat = (v == np.roll(v, 1, axis=0)).all(axis=1)
    repeat[0] = False
    return v[~repeat]


def assert_bitwise_rings(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.vertices.shape == b.vertices.shape
        # int64 views compare sign bits of zeros as well
        assert np.array_equal(a.vertices.view(np.int64), b.vertices.view(np.int64))


def assert_traced_like_oracle(xs, ys, field, level):
    assert not np.any(field == level)
    want = oracle_marching_squares(xs, ys, field, level)
    assert_bitwise_rings(marching_squares(xs, ys, field, level), want)
    return want


# ---------------------------------------------------------------------------
# marching squares against the per-cell loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_random_smooth_fields_match_the_per_cell_loop(seed):
    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(4, 70, size=2)
    xs = np.sort(rng.uniform(-3.0, 3.0, nx)) if seed % 2 else np.linspace(-2.0, 2.0, nx)
    ys = np.linspace(-1.0, 4.0, ny)
    gx, gy = np.meshgrid(xs, ys)
    field = sum(np.sin(rng.uniform(0.5, 3.0) * gx + rng.uniform(0.0, 6.0))
                * np.cos(rng.uniform(0.5, 3.0) * gy + rng.uniform(0.0, 6.0))
                for _ in range(3))
    for level in rng.uniform(-0.8, 0.8, 4):
        assert_traced_like_oracle(xs, ys, field, level)


def test_framed_constant_field_matches_the_per_cell_loop():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([-1.0, 0.5, 2.0])
    field = np.full((3, 4), 0.5)
    (ring,) = assert_traced_like_oracle(xs, ys, field, 0.25)
    # the crossings sit a fifth of a grid step out of the 3 x 3 window, and
    # the corner cells cut off triangles of legs 0.2 and 0.3
    assert ring.area == pytest.approx(3.4 * 3.6 - 4 * 0.5 * 0.2 * 0.3, abs=1e-12)
    # with every grid value at the level, the crossings land on the window
    (got,) = marching_squares(xs, ys, field, 0.5)
    (want,) = oracle_marching_squares(xs, ys, field, 0.5)
    assert np.array_equal(got.vertices, drop_repeats(want.vertices))
    assert got.area == pytest.approx(9.0, abs=1e-12)


@pytest.mark.parametrize("case, corners", [
    (5, np.array([[1.0, -0.5], [-0.5, 1.0]])),
    (10, np.array([[-0.5, 1.0], [1.0, -0.5]])),
])
# at -0.25 the mean of the four corners is exactly the level
@pytest.mark.parametrize("shift", [0.0, -0.25, -0.6])
def test_saddles_match_the_per_cell_loop(case, corners, shift):
    xs, ys = np.array([0.0, 1.0]), np.array([0.0, 2.0])
    field = corners + shift
    inside = field >= 0.0
    assert inside[0, 0] + 2 * inside[0, 1] + 4 * inside[1, 1] + 8 * inside[1, 0] == case
    rings = assert_traced_like_oracle(xs, ys, field, 0.0)
    # the two inside corners are joined through the centre when the corners
    # average at least the level, and kept apart otherwise
    assert sorted(len(r.vertices) for r in rings) == ([8] if shift > -0.5 else [4, 4])


@pytest.mark.parametrize("low, high", [(-0.5, 1.0), (-1.0, 0.5), (-0.5, 0.5)])
def test_saddles_5_and_10_resolve_alike(low, high):
    # the same corner values on either diagonal: the cell's connectivity
    # depends on their mean, not on which diagonal is inside
    xs, ys = np.array([0.0, 1.0]), np.array([0.0, 2.0])
    five = marching_squares(xs, ys, np.array([[high, low], [low, high]]), 0.0)
    ten = marching_squares(xs, ys, np.array([[low, high], [high, low]]), 0.0)
    assert len(five) == len(ten) == (1 if low + high >= 0.0 else 2)


def reference_contains(ring, p):
    v = ring.vertices
    m = v.shape[0]
    if m < 3:
        return False
    inside = False
    for i in range(m):
        a, b = v[i], v[(i + 1) % m]
        if (a[1] > p[1]) != (b[1] > p[1]):
            x_cross = a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
            if p[0] < x_cross:
                inside = not inside
    return inside


@pytest.mark.parametrize("seed", range(4))
def test_ring_membership_matches_the_per_edge_loop(seed):
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, 40))
    radii = rng.uniform(0.3, 1.0, 40)
    ring = Ring(np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]))
    v = ring.vertices
    queries = np.vstack([rng.uniform(-1.1, 1.1, (200, 2)), v,
                         0.5 * (v + np.roll(v, -1, axis=0))])
    for q in queries:
        assert ring.contains_point(q) == reference_contains(ring, q)


# ---------------------------------------------------------------------------
# the traced eu27 ladders
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eu_fields(eu_cloud):
    """Grid, field and traced contours of every traced eu27 ladder."""
    out = {}
    for name, levels in TRACED_LADDERS.items():
        spec = get_depth(name)
        xs, ys, field = _grid_field(
            eu_cloud, lambda qs: spec.evaluate_many(qs, eu_cloud, EvalOptions(seed=0)), 256)
        contours = [RegionContour(name, a, False, None,
                                  tuple(marching_squares(xs, ys, field, a)))
                    for a in levels]
        out[name] = (xs, ys, field, contours)
    return out


def test_eu27_traced_ladders_match_the_per_cell_loop(eu_fields):
    tied = []
    for name, (xs, ys, field, _) in eu_fields.items():
        for level in TRACED_LADDERS[name]:
            if np.any(field == level):
                tied.append((name, level))
            else:
                assert_traced_like_oracle(xs, ys, field, level)
    assert tied == [("simplicial", 0.2)]


def test_eu27_simplicial_ring_through_grid_vertices_keeps_each_once(eu_fields):
    xs, ys, field, _ = eu_fields["simplicial"]
    assert np.count_nonzero(field == 0.2) == 14
    (got,) = marching_squares(xs, ys, field, 0.2)
    (want,) = oracle_marching_squares(xs, ys, field, 0.2)
    # the per-cell loop reaches 4 grid vertices twice in a row
    assert want.vertices.shape[0] == got.vertices.shape[0] + 4
    assert np.array_equal(got.vertices, drop_repeats(want.vertices))
    assert len(np.unique(got.vertices, axis=0)) == got.vertices.shape[0]
    assert got.area == want.area


def test_region_contours_trace_the_grid_field(eu_cloud, eu_fields):
    xs, ys, field, contours = eu_fields["l2"]
    again = region_contours(eu_cloud, "l2", TRACED_LADDERS["l2"], EvalOptions(seed=0))
    for a, b in zip(again, contours):
        assert_bitwise_rings(a.rings, b.rings)


# ---------------------------------------------------------------------------
# documents against per-point mapping
# ---------------------------------------------------------------------------


def reference_bounds(doc):
    xs, ys = [], []
    if doc.points.size:
        xs.extend(doc.points[:, 0])
        ys.extend(doc.points[:, 1])
    for layer in doc.layers:
        for ring in layer.rings:
            xs.extend(ring[:, 0])
            ys.extend(ring[:, 1])
    lo = np.array([min(xs), min(ys)])
    hi = np.array([max(xs), max(ys)])
    span = np.maximum(hi - lo, 1e-9)
    return lo - 0.05 * span, hi + 0.05 * span


class Mapper:
    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi
        self.plot_w = _WIDTH - 2 * _MARGIN - _LEGEND_WIDTH
        self.plot_h = _HEIGHT - 2 * _MARGIN

    def __call__(self, p):
        x = _MARGIN + (p[0] - self.lo[0]) / (self.hi[0] - self.lo[0]) * self.plot_w
        y = _HEIGHT - _MARGIN - (p[1] - self.lo[1]) / (self.hi[1] - self.lo[1]) * self.plot_h
        return x, y


def reference_svg(doc):
    to_px = Mapper(*reference_bounds(doc))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="#ffffff"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(doc.title)}</text>',
    ]
    total = len(doc.layers)
    for rank, layer in enumerate(doc.layers):
        color = _ramp_color(rank, total)
        for ring in layer.rings:
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}"
                           for x, y in (to_px(p) for p in ring))
            parts.append(
                f'<polygon points="{pts}" fill="{color}" fill-opacity="0.85" '
                f'stroke="#123e82" stroke-width="0.8"/>')
    for i, p in enumerate(doc.points):
        x, y = to_px(p)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.4" '
                     f'fill="#111111"/>')
        if doc.show_labels and doc.labels is not None:
            parts.append(
                f'<text x="{_fmt(x + 3.5)}" y="{_fmt(y - 3.0)}" '
                f'font-family="sans-serif" font-size="8" fill="#333333">'
                f'{_escape(doc.labels[i])}</text>')
    lx = _WIDTH - _MARGIN - _LEGEND_WIDTH + 16
    ly = _MARGIN + 8
    parts.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly - 12)}" '
                 f'font-family="sans-serif" font-size="11">level</text>')
    for rank, layer in enumerate(reversed(doc.layers)):
        color = _ramp_color(total - 1 - rank, total)
        y = ly + rank * 16
        parts.append(f'<rect x="{_fmt(lx)}" y="{_fmt(y)}" width="12" '
                     f'height="12" fill="{color}" stroke="#123e82" '
                     f'stroke-width="0.5"/>')
        parts.append(f'<text x="{_fmt(lx + 17)}" y="{_fmt(y + 10)}" '
                     f'font-family="sans-serif" font-size="10">'
                     f'{layer.alpha:.9g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_payload(doc):
    return {
        "title": doc.title,
        "points": [[float(v) for v in p] for p in doc.points],
        "labels": list(doc.labels) if doc.labels is not None else None,
        "layers": [
            {
                "alpha": layer.alpha,
                "polygons": [[[float(v) for v in p] for p in ring]
                             for ring in layer.rings],
            }
            for layer in doc.layers
        ],
    }


def assert_json_matches_reference(doc, tmp_path):
    want = json.dumps(reference_payload(doc), indent=2, sort_keys=True)
    assert json.dumps(document_payload(doc), indent=2, sort_keys=True) == want
    # the written file is the standard library's indented text
    path = tmp_path / "doc.json"
    export_region_json(doc, str(path))
    assert path.read_bytes() == (want + "\n").encode("ascii")


def assert_documents_match_reference(doc, tmp_path):
    assert render_svg(doc) == reference_svg(doc)
    assert_json_matches_reference(doc, tmp_path)


@pytest.mark.parametrize("show_labels", [False, True])
def test_eu27_documents_match_per_point_mapping(eu_cloud, eu_fields, show_labels, tmp_path):
    ladders = [contours for *_, contours in eu_fields.values()]
    ladders += [region_contours(eu_cloud, name, levels)
                for name, levels in EXACT_LADDERS.items()]
    for contours in ladders:
        doc = document_from_contours(eu_cloud, contours, f"{contours[0].depth_name}",
                                     show_labels=show_labels)
        assert doc.layers
        assert_documents_match_reference(doc, tmp_path)


def test_json_of_extreme_and_odd_documents_matches_the_encoder(tmp_path):
    ring = np.array([[-0.0, 1e-300], [1e300, -5e-324], [0.1, -1e300], [2.5, 1.0]])
    docs = [
        ContourDocument(title="Tiefe \u00e4\u00f6\u00fc \u2013 \U0001f600 \"q\" \\ \n",
                        layers=(ContourLayer(0.5, (ring,)), ContourLayer(0.25, ())),
                        points=ring[::-1], labels=("\u00e9", "a\tb", "", "\x00")),
        # only an empty layer, and no points
        ContourDocument(title="", layers=(ContourLayer(0.1, ()),), points=np.empty((0, 2))),
        # rings that are not finite: the encoder writes NaN and Infinity
        ContourDocument(title="nan", layers=(ContourLayer(0.3, (
            np.array([[np.nan, 0.0], [1.0, np.inf], [0.0, -np.inf]]), ring)),),
            points=np.array([[1.0, 2.0]])),
    ]
    for doc in docs:
        assert_json_matches_reference(doc, tmp_path)


_floats = st.floats(allow_nan=True, allow_infinity=True)
_pairs = st.lists(st.lists(_floats, min_size=2, max_size=2), max_size=4)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | st.text(max_size=4) | _pairs,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_text_is_the_indented_encoder(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_document_with_negative_zero_coordinates_matches_reference(tmp_path):
    # -0.0, and -0.004, which formats as -0.00
    ring = np.array([[-0.0, -0.004], [1.0, -0.0], [0.5, 0.75], [-0.004, 0.5]])
    doc = ContourDocument(
        title="signed <zeros> & such",
        layers=(ContourLayer(0.5, (ring,)), ContourLayer(0.25, (1.5 * ring - 0.25,))),
        points=np.array([[-0.5, 1.2], [0.3, -0.0], [-0.004, 0.2]]),
        labels=("a", "b", "c"), show_labels=True)
    assert_documents_match_reference(doc, tmp_path)
    payload = document_payload(doc)
    assert np.signbit(payload["points"][1][1]) and np.signbit(payload["layers"][1]["polygons"][0][0][0])
