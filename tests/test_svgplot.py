import numpy as np
import pytest

from glyphlab import ArgumentError, Rng
from glyphlab.svgplot import (
    _MARGIN,
    HEIGHT,
    WIDTH,
    _escape,
    _fmt,
    _header,
    class_palette,
    heatmap_svg,
)


def reference_heatmap_svg(matrix, ribbon, class_names, title=""):
    """heatmap_svg written as one formatted string per cell."""
    m = np.asarray(matrix, dtype=np.float64)
    ribbon = np.asarray(ribbon, dtype=np.int64)
    n = m.shape[0]
    colors = class_palette(len(class_names))
    strip = 12
    grid = min(WIDTH, HEIGHT) - 2 * _MARGIN - strip
    cell = grid / n
    ox = _MARGIN + strip
    oy = _MARGIN + strip
    peak = m.max() if m.max() > 0 else 1.0

    lines = _header(title)
    for i in range(n):
        for j in range(n):
            shade = round(255 * m[i, j] / peak)
            fill = f"#{shade:02x}{shade:02x}{shade:02x}"
            lines.append(
                f'<rect x="{_fmt(ox + j * cell)}" y="{_fmt(oy + i * cell)}" '
                f'width="{_fmt(cell)}" height="{_fmt(cell)}" fill="{fill}"/>'
            )
    for i in range(n):
        c = colors[ribbon[i]]
        lines.append(
            f'<rect x="{_fmt(ox - strip)}" y="{_fmt(oy + i * cell)}" '
            f'width="{strip - 2}" height="{_fmt(cell)}" fill="{c}"/>'
        )
        lines.append(
            f'<rect x="{_fmt(ox + i * cell)}" y="{_fmt(oy - strip)}" '
            f'width="{_fmt(cell)}" height="{strip - 2}" fill="{c}"/>'
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


def assert_same_svg(matrix, ribbon, names=("a", "b")):
    got = heatmap_svg(matrix, ribbon, names, title="t<&>")
    want = reference_heatmap_svg(matrix, ribbon, names, title="t<&>")
    assert got.encode() == want.encode()


class TestHeatmapSvg:
    def test_half_way_shades_round_to_even(self):
        # peak 510: 255 * (2k + 1) / 510 is exactly k + 0.5
        n = 16
        m = np.zeros((n, n))
        m.flat[: 2 * n] = 2 * np.arange(2 * n) + 1.0
        m[-1, -1] = 510.0
        shades = 255 * m / m.max()
        assert (shades[:2] % 1.0 == 0.5).all()
        assert_same_svg(m, [0, 1] * (n // 2))

    def test_shade_spread_below_256_cells(self):
        rng = Rng(3)
        for n in (1, 2, 7, 37, 65, 200):
            m = rng.uniform_array((n, n), 0.0, 9.0)
            assert_same_svg(m, [i % 2 for i in range(n)])

    def test_distance_matrix_with_every_shade(self):
        m = np.linspace(0.0, 3.0, 300 * 300).reshape(300, 300)
        assert_same_svg(m, [0] * 300)

    def test_all_zero_matrix(self):
        assert_same_svg(np.zeros((5, 5)), [1, 0, 1, 0, 1])

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite(self, bad):
        m = np.ones((3, 3))
        m[1, 2] = bad
        with pytest.raises(ArgumentError):
            heatmap_svg(m, [0, 1, 0], ("a", "b"))
