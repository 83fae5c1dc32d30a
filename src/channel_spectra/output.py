"""Artifact writers: CSV tables, JSON reports, and a small SVG band diagram.

A CSV table is a header plus rows of plain values, formatted by the csv
module: it writes a float, a NumPy float64 included, as repr(float(v)), so
artifacts round-trip exactly.  A table of float64 alone is written by a row
template of repr cells instead, with the bytes csv would write.  JSON
writes floats with repr too; infinities appear there as the strings "inf" /
"-inf", as JSON has no literal for them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

__all__ = [
    "jsonable",
    "write_csv",
    "write_json",
    "write_band_svg",
]


def jsonable(value):
    """Recursively convert report contents to JSON-encodable data."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, complex):
        return {"re": jsonable(value.real), "im": jsonable(value.imag)}
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: jsonable(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    return str(value)


def write_csv(path, header, rows) -> Path:
    r"""Write ``header`` and ``rows`` as CSV with \r\n line ends; return the path.

    A 2-D float64 array is streamed through the row template "%r,...,%r\r\n"
    over its ``tolist()`` rows: repr of each Python float, which is what csv
    writes for it, at the cost of the repr calls alone.  Any other rows
    (mixed cells, ints, strings) go through ``csv.writer``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
            # tolist() first: %r of an np.float64 is "np.float64(...)" in NumPy 2
            fmt = ",".join(["%r"] * rows.shape[1]) + "\r\n"
            fh.writelines(map(fmt.__mod__, map(tuple, rows.tolist())))
        else:
            writer.writerows(rows)
    return path


def write_json(path, payload) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_band_svg(
    path,
    theta_grid,
    bands,
    ceiling: float | None = None,
    gaps=(),
    width: int = 640,
    height: int = 480,
) -> Path:
    """Dependency-free band diagram: one polyline per band, shaded gaps."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    theta = np.asarray(theta_grid, dtype=float)
    curves = np.asarray(bands, dtype=float)
    if curves.ndim != 2 or curves.shape[1] != theta.size:
        raise ValueError("bands must have shape (band_count, len(theta_grid))")

    lo = float(curves.min())
    hi = float(curves.max()) if ceiling is None else float(ceiling)
    span = (hi - lo) or 1.0
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad
    margin = 40.0

    def sx(t):
        return margin + (t - theta[0]) / (theta[-1] - theta[0]) * (width - 2 * margin)

    def sy(e):
        return height - margin - (e - lo) / (hi - lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for glo, ghi in gaps:
        y1, y0 = sy(ghi), sy(glo)
        parts.append(
            f'<rect x="{margin}" y="{y1:.2f}" width="{width - 2 * margin}" '
            f'height="{abs(y0 - y1):.2f}" fill="#fde2e2"/>'
        )
    for curve in curves:
        pts = " ".join(f"{sx(t):.2f},{sy(e):.2f}" for t, e in zip(theta, curve))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f4e8c" stroke-width="1.5"/>'
        )
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>'
    )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="14">theta</text>'
    )
    parts.append(
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 14 {height / 2:.0f})">energy</text>'
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path
