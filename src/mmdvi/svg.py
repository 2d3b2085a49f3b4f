"""Minimal hand-rolled SVG line charts.

Just enough for diagnostic plots of a sweep (axes, ticks, one polyline per
series, a legend): no plotting dependency, deterministic output string.
"""

from __future__ import annotations

import math

PALETTE = ("#1f6fb2", "#d1495b", "#3a7d44", "#8e6fb8", "#c88a2e", "#4f9da6")

_WIDTH = 640
_HEIGHT = 440
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 36.0
_MARGIN_BOTTOM = 48.0


def _bounds(values) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _line(x1, y1, x2, y2, stroke="black", stroke_width="1") -> str:
    return (f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{stroke}" stroke-width="{stroke_width}"/>')


def _text(x, y, body: str, size: int, anchor: str | None = "middle",
          transform: str | None = None) -> str:
    x, y = (f"{v:.1f}" if isinstance(v, float) else v for v in (x, y))  # an int as it is
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{body}</text>')


def line_chart(series: dict[str, tuple], title: str = "", xlabel: str = "",
               ylabel: str = "") -> str:
    """Render ``{label: (xs, ys)}`` as an SVG document string.

    Series are drawn in dict order with a fixed palette; non-finite points are
    dropped from their polyline.
    """
    if not series:
        raise ValueError("need at least one series")
    all_x = [float(x) for xs, _ in series.values() for x in xs]
    all_y = [float(y) for _, ys in series.values() for y in ys]
    x_lo, x_hi = _bounds(all_x)
    y_lo, y_hi = _bounds(all_y)
    px_lo, px_hi = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    py_lo, py_hi = _HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP  # y axis points up

    def to_px(x: float) -> float:
        return px_lo + (x - x_lo) / (x_hi - x_lo) * (px_hi - px_lo)

    def to_py(y: float) -> float:
        return py_lo + (y - y_lo) / (y_hi - y_lo) * (py_hi - py_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(_text(_WIDTH / 2, 20, title, 14))
    parts += [_line(px_lo, py_lo, px_hi, py_lo), _line(px_lo, py_lo, px_lo, py_hi)]  # axes
    for i in range(5):  # ticks
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        px, py = to_px(fx), to_py(fy)
        parts += [
            _line(px, py_lo, px, py_lo + 5),
            _text(px, py_lo + 18, f"{fx:.3g}", 11),
            _line(px_lo - 5, py, px_lo, py),
            _text(px_lo - 8, py + 4, f"{fy:.3g}", 11, anchor="end"),
        ]
    if xlabel:
        parts.append(_text((px_lo + px_hi) / 2, _HEIGHT - 10, xlabel, 12))
    if ylabel:
        cy = (py_lo + py_hi) / 2
        parts.append(_text(16, cy, ylabel, 12, transform=f"rotate(-90 16 {cy:.1f})"))
    legend = []  # top right inside the plot area, drawn over the polylines
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(
            f"{to_px(float(x)):.2f},{to_py(float(y)):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(float(x)) and math.isfinite(float(y))
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = _MARGIN_TOP + 14 + 16 * idx
        legend += [
            _line(px_hi - 110, ly, px_hi - 90, ly, color, "1.8"),
            _text(px_hi - 84, ly + 4, label, 11, anchor=None),
        ]
    parts += legend
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
