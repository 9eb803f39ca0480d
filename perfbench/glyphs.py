"""Seeded synthetic glyphs: ten shape classes drawn on a square grid.

The generator belongs to the benchmark, not to glyphlab: it uses numpy's
PCG64 stream, so a change to glyphlab's own random numbers cannot change
the benchmark's inputs. Images are float64 intensities in [0, 1]; the
same (seed, stream, counts, side) always gives the same arrays.
"""

from __future__ import annotations

import numpy as np

CLASS_NAMES = tuple("ABCDEFGHIJ")


def _shape_masks(kind: int, xx, yy, cx, cy, r, t):
    """Foreground masks for one shape kind, broadcast over a batch.

    xx, yy are (1, s, s) pixel grids; cx, cy, r, t are (m, 1, 1) centres,
    radii and stroke widths.
    """
    dx, dy = xx - cx, yy - cy
    ax, ay = np.abs(dx), np.abs(dy)
    if kind == 0:  # disk
        return dx * dx + dy * dy <= r * r
    if kind == 1:  # square
        return (ax <= r) & (ay <= r)
    if kind == 2:  # ring
        d = np.sqrt(dx * dx + dy * dy)
        return np.abs(d - r) <= t
    if kind == 3:  # plus
        return ((ax <= t) & (ay <= r)) | ((ay <= t) & (ax <= r))
    if kind == 4:  # diagonal cross
        return ((np.abs(dx - dy) <= 1.4 * t) | (np.abs(dx + dy) <= 1.4 * t)) & (ax <= r) & (ay <= r)
    if kind == 5:  # triangle, apex up
        return (dy <= r) & (dy >= -r) & (ax <= (dy + r) / 2.0)
    if kind == 6:  # two horizontal bars
        return (ax <= r) & (np.abs(ay - 0.6 * r) <= t)
    if kind == 7:  # two vertical bars
        return (ay <= r) & (np.abs(ax - 0.6 * r) <= t)
    if kind == 8:  # diamond
        return ax + ay <= r
    return ((ax <= t) & (ay <= r)) | ((dy >= r - 2 * t) & (dy <= r) & (dx >= -t) & (dx <= r))  # L


def make_glyphs(seed: int, stream: int, counts, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Images (n, side, side) and labels (n,) with counts[k] images of class k.

    Different streams of one seed are independent sets (train, val,
    test). Each image gets its own centre, size and stroke jitter plus
    uniform pixel noise, so no two images are byte-identical.
    """
    if len(counts) > len(CLASS_NAMES):
        raise ValueError(f"at most {len(CLASS_NAMES)} classes, got {len(counts)}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed % 2**64, stream])))
    grid = np.arange(side, dtype=np.float64)
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    xx, yy = xx[None], yy[None]
    images, labels = [], []
    for kind, m in enumerate(counts):
        cx = rng.uniform(0.4 * side, 0.6 * side, (m, 1, 1))
        cy = rng.uniform(0.4 * side, 0.6 * side, (m, 1, 1))
        r = rng.uniform(0.18 * side, 0.32 * side, (m, 1, 1))
        t = rng.uniform(0.04 * side, 0.08 * side, (m, 1, 1))
        mask = _shape_masks(kind, xx, yy, cx, cy, r, t)
        img = np.where(mask, 0.85, 0.15) + rng.uniform(-0.1, 0.1, (m, side, side))
        images.append(np.clip(img, 0.0, 1.0))
        labels.append(np.full(m, kind, dtype=np.int64))
    return np.concatenate(images), np.concatenate(labels)


def to_u8(images: np.ndarray) -> np.ndarray:
    """Quantize [0, 1] intensities the way GLY1 and P5 store them."""
    return np.floor(images * 255.0 + 0.5).astype(np.uint8)
