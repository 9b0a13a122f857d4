"""Delimited-text ingestion and canonical emission for point datasets.

The dialect is deliberately narrow: comma separation by default, UTF-8,
'.' decimal point, first row treated as a header when its cells do not
parse as numbers while later rows do.  A single non-numeric column is
accepted as row labels.  Malformed rows abort the parse unless skipping
is requested, in which case every skip is reported in the parse report.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cloud import DataCloud
from .errors import DatasetIOError, DatasetParseError, EmptyDatasetError
from .functional import FunctionalSample


@dataclass(frozen=True)
class ParseIssue:
    row: int  # 1-based physical line number
    column: int  # 1-based column number, 0 when the whole row is at fault
    reason: str

    def __str__(self):
        return f"row {self.row}, column {self.column}: {self.reason}"


@dataclass(frozen=True)
class Dataset:
    cloud: DataCloud
    source: str
    columns: tuple[str, ...]
    label_column: str | None = None
    skipped: tuple[ParseIssue, ...] = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return self.cloud.n

    @property
    def d(self) -> int:
        return self.cloud.d


def _parse_float(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value


def _read_rows(path: str, delimiter: str) -> list[tuple[int, list[str]]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DatasetIOError(f"cannot read {path}: {exc}") from exc
    rows = []
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    for lineno, row in enumerate(reader, start=1):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        rows.append((lineno, [cell.strip() for cell in row]))
    return rows


def _detect_header(rows: list[tuple[int, list[str]]]) -> bool:
    first = rows[0][1]
    first_numeric = [_parse_float(c) is not None for c in first]
    if all(first_numeric):
        return False
    if len(rows) == 1:
        # a single all-text row reads as a header over zero data rows
        return not any(first_numeric)
    second_numeric = [_parse_float(c) is not None for c in rows[1][1]]
    # a header has text where the data rows have numbers
    return any(sn and not fn for fn, sn in zip(first_numeric, second_numeric))


def _data_rows(path: str, delimiter: str, header: bool | None
               ) -> tuple[list[str] | None, list[tuple[int, list[str]]]]:
    """(header cells or None, nonempty data rows); ``header=None`` detects
    the header."""
    rows = _read_rows(path, delimiter)
    if not rows:
        raise EmptyDatasetError(f"{path} contains no data rows")
    if not (_detect_header(rows) if header is None else header):
        return None, rows
    if len(rows) == 1:
        raise EmptyDatasetError(f"{path} contains a header but no data rows")
    return rows[0][1], rows[1:]


def load_dataset(path: str, delimiter: str = ",",
                 header: bool | None = None,
                 label_column: int | None = None,
                 skip_bad: bool = False) -> Dataset:
    """Parse a delimited text file into a labelled point cloud.

    ``header=None`` auto-detects a header row; ``label_column=None``
    auto-detects at most one non-numeric column, ``label_column=-1``
    forces all columns numeric.
    """
    names, rows = _data_rows(path, delimiter, header)
    width = len(rows[0][1])
    if names is not None and len(names) != width:
        raise DatasetParseError(
            f"header has {len(names)} columns, data rows have {width}")

    # choose the label column: auto = first column that never parses numeric
    if label_column is None:
        label_idx = None
        for j in range(width):
            cells = [r[1][j] if j < len(r[1]) else "" for r in rows]
            if all(_parse_float(c) is None for c in cells):
                label_idx = j
                break
    elif label_column == -1:
        label_idx = None
    else:
        if not 0 <= label_column < width:
            raise DatasetParseError(
                f"label column {label_column} out of range for width {width}")
        label_idx = label_column

    numeric_idx = [j for j in range(width) if j != label_idx]
    if not numeric_idx:
        raise DatasetParseError("no numeric columns in the dataset")

    points: list[list[float]] = []
    labels: list[str] = []
    issues: list[ParseIssue] = []

    def bad(issue: ParseIssue):
        if skip_bad:
            issues.append(issue)
            return
        raise DatasetParseError(str(issue))

    for lineno, row in rows:
        if len(row) != width:
            bad(ParseIssue(lineno, 0,
                           f"expected {width} columns, found {len(row)}"))
            continue
        coords = []
        ok = True
        for j in numeric_idx:
            value = _parse_float(row[j])
            if value is None:
                bad(ParseIssue(lineno, j + 1, f"not a number: {row[j]!r}"))
                ok = False
                break
            if not math.isfinite(value):
                bad(ParseIssue(lineno, j + 1, f"not finite: {row[j]!r}"))
                ok = False
                break
            coords.append(value)
        if not ok:
            continue
        points.append(coords)
        if label_idx is not None:
            labels.append(row[label_idx])

    if not points:
        raise EmptyDatasetError(f"{path} contains no valid data rows")

    if names is not None:
        column_names = tuple(names[j] for j in numeric_idx)
        label_name = names[label_idx] if label_idx is not None else None
    else:
        column_names = tuple(f"x{j + 1}" for j in range(len(numeric_idx)))
        label_name = "label" if label_idx is not None else None

    cloud = DataCloud(np.array(points, dtype=float),
                      labels=tuple(labels) if labels else None)
    return Dataset(cloud=cloud, source=str(path), columns=column_names,
                   label_column=label_name, skipped=tuple(issues))


def atomic_write_text(path: str, text: str):
    """Write text via a sibling temp file and rename, so readers never see
    a partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise DatasetIOError(f"cannot write {path}: {exc}") from exc


def write_dataset(dataset: Dataset, path: str):
    """Emit the canonical CSV form; loading it back reproduces the cloud."""
    cloud = dataset.cloud
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    label_name = dataset.label_column
    header: list[str] = []
    if cloud.labels is not None:
        header.append(label_name if label_name else "label")
    header.extend(dataset.columns if len(dataset.columns) == cloud.d
                  else [f"x{j + 1}" for j in range(cloud.d)])
    writer.writerow(header)
    for i, point in enumerate(cloud.points):
        row: list[str] = []
        if cloud.labels is not None:
            row.append(cloud.labels[i])
        row.extend(repr(float(v)) for v in point)
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def load_curves(path: str, dim: int = 1, delimiter: str = ",",
                header: bool | None = None) -> FunctionalSample:
    """Parse a wide CSV of sampled curves.

    First column holds the argument values; the remaining columns hold one
    curve each (``dim=1``) or consecutive ``dim``-column blocks.  Argument
    values are sorted and affinely rescaled onto [0, 1].
    """
    if dim < 1:
        raise DatasetParseError("curve dimension must be at least 1")
    _, rows = _data_rows(path, delimiter, header)
    width = len(rows[0][1])
    if width < 1 + dim:
        raise DatasetParseError(
            f"need a t column plus at least one {dim}-column curve block")
    if (width - 1) % dim != 0:
        raise DatasetParseError(
            f"{width - 1} value columns do not split into blocks of {dim}")

    values = np.empty((len(rows), width))
    for i, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise DatasetParseError(
                f"row {lineno}, column 0: expected {width} columns, "
                f"found {len(row)}")
        for j, cell in enumerate(row):
            v = _parse_float(cell)
            if v is None or not math.isfinite(v):
                raise DatasetParseError(
                    f"row {lineno}, column {j + 1}: not a number: {cell!r}")
            values[i, j] = v

    order = np.argsort(values[:, 0], kind="stable")
    values = values[order]
    t = values[:, 0]
    if len(t) > 1 and np.any(np.diff(t) <= 0.0):
        raise DatasetParseError("argument values must be distinct")
    span = t[-1] - t[0]
    grid = (t - t[0]) / span if span > 0 else np.zeros_like(t)
    if len(grid) == 1:
        grid = np.array([0.0])

    # column 1 + c * dim + m holds coordinate m of curve c
    curves = np.ascontiguousarray(
        values[:, 1:].reshape(len(rows), -1, dim).transpose(1, 0, 2))
    return FunctionalSample(grid=grid, curves=curves)
