"""CSV time-series output and minimal static SVG plots.

The CSV contract: header t_ps,cos1,cos2,entropy,norm,energy_rot plus
one pop_<l>_<m>_<lp>_<mp> column per watched state, LF line endings,
floats at 17 significant digits (lossless for binary64). A run that
fails mid-flight keeps its partial rows and ends with a FAILED marker
row. Every artifact is written whole, never truncated under its final name.
"""

from __future__ import annotations

import csv
import math
import os
from pathlib import Path

from .exceptions import InvalidConfigError

# the recorded columns in CSV order; the watched populations follow them
COLUMNS = ("t_ps", "cos1", "cos2", "entropy", "norm", "energy_rot")
FAILURE_MARKER = "FAILED"


def population_column(l1: int, m1: int, l2: int, m2: int) -> str:
    return f"pop_{l1}_{m1}_{l2}_{m2}"


def csv_header(watch) -> str:
    return ",".join(COLUMNS + tuple(population_column(*w) for w in watch))


# the one float format of every CSV cell: 17 significant digits, lossless for binary64
FLOAT_FORMAT = "%.17g"


def _quote(text: str) -> str:
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_whole(path: Path, text) -> None:
    """Write text, a str or an iterable of str chunks, to a temporary name beside path,
    then rename it onto path."""
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            for chunk in [text] if isinstance(text, str) else text:
                fh.write(chunk)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


# rows formatted per write: the text of one chunk, not of the table, is held at a time
CSV_CHUNK_ROWS = 256


def write_timeseries_csv(path, watch, table, failure_message: str | None = None) -> Path:
    """Write the rows of table (COLUMNS, then one column per watched state)."""
    import numpy as np  # here, so that `sim plot` and the sweep parent start without numpy

    path = Path(path)
    table = np.asarray(table)
    row_format = ",".join([FLOAT_FORMAT] * table.shape[-1]) + "\n"

    def chunks():
        yield csv_header(watch) + "\n"
        for lo in range(0, len(table), CSV_CHUNK_ROWS):
            rows = table[lo:lo + CSV_CHUNK_ROWS]
            yield row_format * len(rows) % tuple(rows.ravel().tolist())  # one % per chunk, not per cell
        if failure_message is not None:
            yield f"{FAILURE_MARKER},{_quote(failure_message)}\n"

    write_whole(path, chunks())
    return path


def read_timeseries_csv(path) -> tuple[list[str], dict[str, list[float]], str | None]:
    """Columns of a time-series CSV; returns (names, columns, failure message)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidConfigError(f"{path} is empty, expected a time-series CSV") from None
        if header[: len(COLUMNS)] != list(COLUMNS):
            raise InvalidConfigError(f"{path} does not start with the expected columns {COLUMNS}")
        if len(set(header)) < len(header):
            raise InvalidConfigError(f"{path}: the header repeats a column name")
        columns: dict[str, list[float]] = {name: [] for name in header}
        failure = None
        for row in reader:
            if row and row[0] == FAILURE_MARKER:
                failure = row[1] if len(row) > 1 else ""
                continue
            if len(row) != len(header):
                raise InvalidConfigError(f"{path}: row with {len(row)} fields, expected {len(header)}")
            for name, field in zip(header, row):
                columns[name].append(float(field))
    return header, columns, failure


# ---------------------------------------------------------------------------
# SVG rendering

_PANEL_W = 760
_PANEL_H = 170
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 30
_GAP = 40
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _panel(x_vals, series, title: str, y_label: str, x_label: str | None, offset_y: int) -> str:
    # the axes span the finite points; a failed run's NaN rows are left out
    finite_x = [x for x in x_vals if math.isfinite(x)]
    lo_x, hi_x = min(finite_x, default=0.0), max(finite_x, default=0.0)
    all_y = [v for _, vals in series for v in vals if math.isfinite(v)]
    lo_y, hi_y = min(all_y, default=0.0), max(all_y, default=0.0)
    if hi_y == lo_y:
        lo_y, hi_y = lo_y - 1.0, hi_y + 1.0
    pad = 0.05 * (hi_y - lo_y)
    lo_y, hi_y = lo_y - pad, hi_y + pad
    span_x = hi_x - lo_x if hi_x > lo_x else 1.0

    def sx(v):
        return _MARGIN_L + (v - lo_x) / span_x * _PANEL_W

    def sy(v):
        return offset_y + _PANEL_H - (v - lo_y) / (hi_y - lo_y) * _PANEL_H

    parts = [
        f'<rect x="{_MARGIN_L}" y="{offset_y}" width="{_PANEL_W}" height="{_PANEL_H}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{_MARGIN_L + 4}" y="{offset_y - 8}" font-size="13" fill="#111">{title}</text>',
        f'<text x="14" y="{offset_y + _PANEL_H / 2:.1f}" font-size="12" fill="#111" '
        f'transform="rotate(-90 14 {offset_y + _PANEL_H / 2:.1f})" text-anchor="middle">{y_label}</text>',
    ]
    for v in _ticks(lo_y, hi_y):
        y = sy(v)
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" font-size="10" '
                     f'text-anchor="end" fill="#111">{v:.4g}</text>')
    for v in _ticks(lo_x, hi_x):
        x = sx(v)
        y0 = offset_y + _PANEL_H
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 4}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{y0 + 16}" font-size="10" text-anchor="middle" '
                     f'fill="#111">{v:.4g}</text>')
    if x_label:
        parts.append(f'<text x="{_MARGIN_L + _PANEL_W / 2:.1f}" y="{offset_y + _PANEL_H + 32}" '
                     f'font-size="12" text-anchor="middle" fill="#111">{x_label}</text>')
    legend_x = _MARGIN_L + 8
    for k, (name, vals) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        # one polyline per run of finite points
        pts = " ".join(f"{sx(x):.2f},{sy(v):.2f}" if math.isfinite(x) and math.isfinite(v) else "|"
                       for x, v in zip(x_vals, vals))
        parts.extend(f'<polyline points="{run.strip()}" fill="none" stroke="{color}" stroke-width="1.2"/>'
                     for run in pts.split("|") if run.strip())
        if len(series) > 1:
            parts.append(f'<text x="{legend_x}" y="{offset_y + 14}" font-size="11" '
                         f'fill="{color}">{name}</text>')
            legend_x += 9 * len(name) + 18
    return "\n".join(parts)


def plot_csv(csv_path, out_dir) -> Path:
    """Render one CSV into <out_dir>/<stem>.svg with stacked panels."""
    csv_path = Path(csv_path)
    header, columns, _failure = read_timeseries_csv(csv_path)
    if not columns["t_ps"]:
        raise InvalidConfigError(f"{csv_path} holds no data rows to plot")
    t = columns["t_ps"]
    panels = [
        ("orientation", "<cos>", [("cos1", columns["cos1"]), ("cos2", columns["cos2"])]),
        ("entanglement entropy", "S", [("entropy", columns["entropy"])]),
        ("rotational energy", "<L^2>", [("energy_rot", columns["energy_rot"])]),
    ]
    pop_names = [name for name in header if name.startswith("pop_")]
    if pop_names:
        panels.append(("populations", "P", [(name, columns[name]) for name in pop_names]))

    height = _MARGIN_T + len(panels) * (_PANEL_H + _GAP) + 20
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    body = []
    for k, (title, y_label, series) in enumerate(panels):
        offset = _MARGIN_T + k * (_PANEL_H + _GAP)
        x_label = "t (ps)" if k == len(panels) - 1 else None
        body.append(_panel(t, series, title, y_label, x_label, offset))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / (csv_path.stem + ".svg")
    write_whole(out_path, svg)
    return out_path
