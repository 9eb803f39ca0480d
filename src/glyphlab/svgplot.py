"""Dependency-free SVG charts: class-colored scatter, distance heatmap
with class ribbons, and ROC polylines. Fixed 800x600 viewport, byte
deterministic for identical inputs.
"""

from __future__ import annotations

import colorsys

import numpy as np

from .errors import ArgumentError

WIDTH = 800
HEIGHT = 600
_MARGIN = 60


def class_palette(k: int) -> list[str]:
    """k visually distinct fill colors, stable across runs."""
    colors = []
    for i in range(k):
        r, g, b = colorsys.hsv_to_rgb(i / max(k, 1), 0.72, 0.88 if i % 2 == 0 else 0.62)
        colors.append(f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}")
    return colors


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" font-size="18" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axes_box() -> list[str]:
    x0, y0 = _MARGIN, _MARGIN
    x1, y1 = WIDTH - _MARGIN, HEIGHT - _MARGIN
    return [
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        'fill="none" stroke="#000000" stroke-width="1"/>'
    ]


def scatter_svg(points, labels, class_names, title: str = "") -> str:
    """2-D scatter, one fill color per class, with a legend."""
    pts = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    colors = class_palette(len(class_names))

    x, y = pts[:, 0], pts[:, 1]
    xr = max(x.max() - x.min(), 1e-300)
    yr = max(y.max() - y.min(), 1e-300)
    span_x = WIDTH - 2 * _MARGIN
    span_y = HEIGHT - 2 * _MARGIN

    lines = _header(title) + _axes_box()
    for xi, yi, li in zip(x, y, labels):
        px = _MARGIN + (xi - x.min()) / xr * span_x
        py = HEIGHT - _MARGIN - (yi - y.min()) / yr * span_y
        lines.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="{colors[li]}"/>'
        )
    for i, name in enumerate(class_names):
        ly = _MARGIN + 16 * i
        lines.append(f'<rect x="{WIDTH - 52}" y="{ly}" width="10" height="10" fill="{colors[i]}"/>')
        lines.append(
            f'<text x="{WIDTH - 38}" y="{ly + 9}" font-size="11" '
            f'font-family="sans-serif">{_escape(str(name))}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def heatmap_svg(matrix, ribbon, class_names, title: str = "") -> str:
    """Distance heatmap, darker cells for smaller distances, with class
    ribbon strips along the top and left edges."""
    m = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(m).all() or (m < 0).any():
        raise ArgumentError("heatmap values must be finite and non-negative")
    ribbon = np.asarray(ribbon, dtype=np.int64)
    n = m.shape[0]
    colors = class_palette(len(class_names))

    strip = 12
    grid = min(WIDTH, HEIGHT) - 2 * _MARGIN - strip
    cell = grid / n
    origin = _MARGIN + strip  # the grid's left and top edge
    peak = m.max() if m.max() > 0 else 1.0
    # np.rint rounds half to even, as round() does on a float.
    shades = np.rint(255 * m / peak).astype(np.int64).tolist()

    # Every cell string is one of n offsets (x and y alike) and 256 greys.
    size = _fmt(cell)
    offsets = [_fmt(origin + i * cell) for i in range(n)]
    heads = [f'<rect x="{x}" y="' for x in offsets]
    fills = [f'#{s:02x}{s:02x}{s:02x}"/>' for s in range(256)]

    # One string per grid row, so the n^2 cell strings never all exist.
    lines = _header(title)
    for y, row in zip(offsets, shades):
        mid = f'{y}" width="{size}" height="{size}" fill="'
        lines.append("\n".join([head + mid + fills[s] for head, s in zip(heads, row)]))
    for i in range(n):  # ribbons: left edge and top edge
        c = colors[ribbon[i]]
        lines.append(
            f'<rect x="{_fmt(origin - strip)}" y="{offsets[i]}" '
            f'width="{strip - 2}" height="{size}" fill="{c}"/>'
        )
        lines.append(
            f'<rect x="{offsets[i]}" y="{_fmt(origin - strip)}" '
            f'width="{size}" height="{strip - 2}" fill="{c}"/>'
        )
    for i, name in enumerate(class_names):
        ly = _MARGIN + 16 * i
        lines.append(f'<rect x="{WIDTH - 52}" y="{ly}" width="10" height="10" fill="{colors[i]}"/>')
        lines.append(
            f'<text x="{WIDTH - 38}" y="{ly + 9}" font-size="11" '
            f'font-family="sans-serif">{_escape(str(name))}</text>'
        )
    lines += ["</svg>", ""]  # the empty line ends the file with a newline, without a copy
    return "\n".join(lines)


def roc_svg(curves, title: str = "") -> str:
    """ROC polylines, one per named curve, with the chance diagonal.

    curves is a sequence of (name, points) where points are (fpr, tpr)
    pairs running from (0,0) to (1,1).
    """
    colors = class_palette(max(len(curves), 1))
    x0, y0 = _MARGIN, HEIGHT - _MARGIN
    span_x = WIDTH - 2 * _MARGIN
    span_y = HEIGHT - 2 * _MARGIN

    def to_px(f: float, t: float) -> str:
        return f"{_fmt(x0 + f * span_x)},{_fmt(y0 - t * span_y)}"

    lines = _header(title) + _axes_box()
    lines.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + span_x}" y2="{y0 - span_y}" '
        'stroke="#999999" stroke-dasharray="6,4" stroke-width="1"/>'
    )
    for i, (name, points) in enumerate(curves):
        path = " ".join(to_px(f, t) for f, t in points)
        lines.append(
            f'<polyline fill="none" stroke="{colors[i]}" stroke-width="2" points="{path}"/>'
        )
        ly = _MARGIN + 16 * i
        lines.append(f'<rect x="{WIDTH - 150}" y="{ly}" width="10" height="10" fill="{colors[i]}"/>')
        lines.append(
            f'<text x="{WIDTH - 136}" y="{ly + 9}" font-size="11" '
            f'font-family="sans-serif">{_escape(str(name))}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
