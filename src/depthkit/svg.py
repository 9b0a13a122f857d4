"""Deterministic SVG and JSON rendering of nested central-region contours.

The emitted bytes depend only on the document contents: no timestamps, no
environment lookups, fixed float formatting.  Layers are drawn from the
shallowest level upward so the innermost (deepest) region paints last and
darkest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cloud import DataCloud
from .dataio import atomic_write_text
from .errors import EmptyRegionError
from .regions import RegionContour

_WIDTH = 720.0
_HEIGHT = 540.0
_MARGIN = 56.0
_LEGEND_WIDTH = 96.0

# color ramp endpoints (light for shallow levels, dark for deep ones)
_LIGHT = (226, 238, 252)
_DARK = (18, 62, 130)


@dataclass(frozen=True)
class ContourLayer:
    """All closed rings of one depth level."""

    alpha: float
    rings: tuple[np.ndarray, ...]  # each (m, 2), closed implicitly


@dataclass(frozen=True)
class ContourDocument:
    title: str
    layers: tuple[ContourLayer, ...]
    points: np.ndarray
    labels: tuple[str, ...] | None = None
    show_labels: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        layers = tuple(sorted(self.layers, key=lambda la: la.alpha))
        object.__setattr__(self, "layers", layers)
        if self.labels is not None and len(self.labels) != pts.shape[0]:
            raise ValueError("label count must match point count")

    @property
    def is_empty(self) -> bool:
        return not self.layers and self.points.shape[0] == 0


def contour_rings(contour: RegionContour) -> tuple[np.ndarray, ...]:
    """Closed rings of a computed level set, exact or traced."""
    if contour.exact:
        region = contour.region
        if region is None or region.is_empty:
            return ()
        if region.dim == 1:
            raise ValueError("cannot render 1-dimensional regions")
        return (np.asarray(region.vertices, dtype=float),)
    return tuple(r.vertices for r in contour.rings if not r.is_empty)


def document_from_contours(cloud: DataCloud, contours, title: str,
                           show_labels: bool = False) -> ContourDocument:
    layers = []
    for contour in contours:
        rings = contour_rings(contour)
        if rings:
            layers.append(ContourLayer(alpha=contour.alpha, rings=rings))
    return ContourDocument(title=title, layers=tuple(layers),
                           points=cloud.points, labels=cloud.labels,
                           show_labels=show_labels)


def _ramp_color(rank: int, total: int) -> str:
    t = 0.5 if total <= 1 else rank / (total - 1)
    rgb = tuple(round(a + t * (b - a)) for a, b in zip(_LIGHT, _DARK))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _data_bounds(doc: ContourDocument):
    every = np.concatenate([doc.points, *(ring for layer in doc.layers
                                          for ring in layer.rings)])
    if every.shape[0] == 0:
        raise EmptyRegionError("document has neither layers nor points")
    lo, hi = every.min(axis=0), every.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    return lo - 0.05 * span, hi + 0.05 * span


def _to_px(p: np.ndarray, lo, hi) -> list[list[float]]:
    """Pixel coordinates [x, y] of an (m, 2) array of data points."""
    u = (p - lo) / (hi - lo) * [_WIDTH - 2 * _MARGIN - _LEGEND_WIDTH, _HEIGHT - 2 * _MARGIN]
    return np.column_stack([_MARGIN + u[:, 0], _HEIGHT - _MARGIN - u[:, 1]]).tolist()


def render_svg(doc: ContourDocument) -> str:
    """Standalone SVG text for a contour document."""
    lo, hi = _data_bounds(doc)
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
                           for x, y in _to_px(ring, lo, hi))
            parts.append(
                f'<polygon points="{pts}" fill="{color}" fill-opacity="0.85" '
                f'stroke="#123e82" stroke-width="0.8"/>')
    for i, (x, y) in enumerate(_to_px(doc.points, lo, hi)):
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.4" '
                     f'fill="#111111"/>')
        if doc.show_labels and doc.labels is not None:
            parts.append(
                f'<text x="{_fmt(x + 3.5)}" y="{_fmt(y - 3.0)}" '
                f'font-family="sans-serif" font-size="8" fill="#333333">'
                f'{_escape(doc.labels[i])}</text>')
    # legend, deepest level at the top
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


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def export_region_svg(doc: ContourDocument, path: str):
    """Write the document as a standalone SVG file (atomic, deterministic)."""
    if doc.is_empty:
        raise EmptyRegionError("refusing to render an empty document")
    atomic_write_text(path, render_svg(doc))


def document_payload(doc: ContourDocument) -> dict:
    return {
        "title": doc.title,
        "points": doc.points.tolist(),
        "labels": list(doc.labels) if doc.labels is not None else None,
        "layers": [
            {
                "alpha": layer.alpha,
                "polygons": [np.asarray(ring, dtype=float).tolist()
                             for ring in layer.rings],
            }
            for layer in doc.layers
        ],
    }


def _finite_pairs(value) -> bool:
    """Whether ``value`` is a nonempty list of [x, y] lists of finite floats."""
    return type(value) is list and len(value) > 0 and all(
        type(row) is list and len(row) == 2 and type(row[0]) is float
        and type(row[1]) is float and math.isfinite(row[0]) and math.isfinite(row[1])
        for row in value)


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, for a value whose
    lines sit at indentation ``pad``.

    The standard library writes indented JSON with its pure-Python encoder.
    Here ``json`` writes every key and scalar, and lists of finite [x, y]
    pairs are written row by row with ``float.__repr__``, which is what
    ``json`` writes for a finite float.
    """
    inner = pad + "  "
    if _finite_pairs(value):
        start, mid, end = f"{inner}[\n{inner}  ", f",\n{inner}  ", f"\n{inner}]"
        items = [f"{start}{x!r}{mid}{y!r}{end}" for x, y in value]
    elif type(value) is list and value:
        items = [inner + _json_text(v, inner) for v in value]
    elif type(value) is dict and value and all(type(k) is str for k in value):
        items = [f"{inner}{json.dumps(k)}: {_json_text(value[k], inner)}"
                 for k in sorted(value)]
    else:
        # JSON text holds no raw newline inside a string
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    brackets = "{}" if type(value) is dict else "[]"
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + pad + brackets[1]


def export_region_json(doc: ContourDocument, path: str):
    """Write the document as JSON mirroring the layer structure: the text of
    ``json.dumps(document_payload(doc), indent=2, sort_keys=True)`` and a
    newline."""
    atomic_write_text(path, _json_text(document_payload(doc)) + "\n")
