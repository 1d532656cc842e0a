"""Result serialization: CSV tables, a JSON mirror with run metadata, and
self-contained SVG line plots.

Every number a CSV holds is formatted once, by :func:`cells`, into a table:
an ordered mapping of column name to cell strings.  CSV files are UTF-8 with
``\\n`` line endings, a mandatory header row, comma separation and 12
significant digits; a scalar record is a one-row table.  The JSON document is
a single object with ``meta`` (version, command, fully resolved config, UTC
timestamp) and ``data``.  For a table ``data`` mirrors the CSV columns,
parsed back from the same cells (:func:`csv_mirror`); a record's ``data``
holds full-precision floats and may add more, such as the final state.  SVG
plots are version 1.1, one polyline per series inside an 800x600 viewBox,
with no external assets, so they render deterministically and diff cleanly.
"""

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

_FMT = "%.12g"

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
)


def cells(values) -> "list[str]":
    """A column's CSV cells: each value to 12 significant digits."""
    return [_FMT % v for v in np.asarray(values, dtype=float).tolist()]


def write_csv(path: Path, table: "dict[str, list[str]]") -> None:
    """Header row, then one row per index of the equally long cell columns."""
    rows = zip(*table.values(), strict=True)
    lines = [",".join(table), *(",".join(row) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_meta(version: str, command: str, config: "dict[str, str]") -> dict:
    return {
        "version": version,
        "command": command,
        "config": dict(config),
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def write_json(path: Path, meta: dict, data: dict) -> None:
    payload = {"meta": meta, "data": data}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def csv_mirror(table: "dict[str, list[str]]") -> dict:
    """JSON ``data`` block holding the numbers of a table's cells."""
    return {name: list(map(float, column)) for name, column in table.items()}


def svg_line_plot(
    title: str,
    x_label: str,
    y_label: str,
    x: np.ndarray,
    series: "dict[str, np.ndarray]",
) -> str:
    """Render one polyline per series with axes, tick labels and a legend."""
    x = np.asarray(x, dtype=float)
    width, height = 800, 600
    left, right, top, bottom = 80, 24, 48, 64
    plot_w = width - left - right
    plot_h = height - top - bottom

    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return top + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="18" font-family="sans-serif">{title}</text>',
        # axis frame
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tick in np.linspace(x_lo, x_hi, 6):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 22}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{tick:.3g}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 6):
        py = sy(tick)
        parts.append(
            f'<line x1="{left - 6}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 10}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 16}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="22" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif" '
        f'transform="rotate(-90 22 {top + plot_h / 2:.1f})">{y_label}</text>'
    )

    px = sx(x)
    template = " ".join(["%.2f,%.2f"] * len(px))
    for k, (label, values) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        py = sy(np.asarray(values, dtype=float))
        points = template % tuple(np.column_stack((px, py)).ravel().tolist())
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        ly = top + 16 + 18 * k
        parts.append(
            f'<line x1="{left + plot_w - 150}" y1="{ly - 4}" '
            f'x2="{left + plot_w - 122}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 116}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: Path, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8")
