"""Geometric augmentation with reproducible per-image parameter streams.

Two named regimes are built in: "lossless" (random horizontal and
vertical flips only, no resampling) and "lossy" (random rotations up to
40 degrees, width/height shifts up to 20%, shear up to 20%, zoom up to
20%). "none" is the identity.

The warp is inverse-mapped about the image center: for each destination
pixel, source = C + M^-1 (dst - C) with M = Rot(theta) Shear(s)
Scale(zx, zy), then the source coordinate is translated by (tx, ty) and
finally mirrored for any active flip. Samples falling outside the image
take the nearest edge pixel, so outputs stay inside [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .numerics import Rng, Tensor, derive_seed


@dataclass(frozen=True)
class AugmentPolicy:
    """Maximal distortions; each sample draws uniformly inside them."""

    hflip: bool = False
    vflip: bool = False
    rot_max: float = 0.0      # degrees
    wshift_max: float = 0.0   # fraction of width
    hshift_max: float = 0.0   # fraction of height
    shear_max: float = 0.0    # shear-angle bound, radians
    zoom_max: float = 0.0     # fraction around 1.0

    def __post_init__(self):
        maxima = (self.rot_max, self.wshift_max, self.hshift_max, self.shear_max, self.zoom_max)
        if any(m < 0 for m in maxima):
            raise ArgumentError(f"policy maxima must be >= 0, got {maxima}")
        if self.rot_max > 180.0:
            raise ArgumentError(f"rot_max must be <= 180 degrees, got {self.rot_max}")

    @property
    def is_identity(self) -> bool:
        return not (self.hflip or self.vflip) and all(
            m == 0.0
            for m in (self.rot_max, self.wshift_max, self.hshift_max, self.shear_max, self.zoom_max)
        )


@dataclass(frozen=True)
class AffineParams:
    """One sampled distortion: rotation degrees, pixel shifts, shear
    radians, per-axis scale factors and flip switches."""

    theta: float = 0.0
    tx: float = 0.0
    ty: float = 0.0
    shear: float = 0.0
    zx: float = 1.0
    zy: float = 1.0
    hflip: bool = False
    vflip: bool = False

    def __post_init__(self):
        if self.zx <= 0.0 or self.zy <= 0.0:
            raise ArgumentError(f"scale factors must be positive, got zx={self.zx}, zy={self.zy}")


_PRESETS = {
    "none": AugmentPolicy(),
    "lossless": AugmentPolicy(hflip=True, vflip=True),
    "lossy": AugmentPolicy(
        rot_max=40.0, wshift_max=0.2, hshift_max=0.2, shear_max=0.2, zoom_max=0.2
    ),
}


def preset(name: str) -> AugmentPolicy:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ArgumentError(
            f"unknown augmentation preset {name!r}; choose from {sorted(_PRESETS)}"
        ) from None


def sample_affine(policy: AugmentPolicy, rng: Rng, w: int, h: int) -> AffineParams:
    """Draw one parameter set. The six continuous draws are always
    consumed, in a fixed order, so streams line up across policies;
    flip draws are consumed only when that flip is allowed."""
    if w < 1 or h < 1:
        raise ArgumentError(f"image extents must be >= 1, got {w}x{h}")
    theta = rng.uniform(-policy.rot_max, policy.rot_max)
    tx = rng.uniform(-policy.wshift_max * w, policy.wshift_max * w)
    ty = rng.uniform(-policy.hshift_max * h, policy.hshift_max * h)
    shear = rng.uniform(-policy.shear_max, policy.shear_max)
    zx = rng.uniform(1.0 - policy.zoom_max, 1.0 + policy.zoom_max)
    zy = rng.uniform(1.0 - policy.zoom_max, 1.0 + policy.zoom_max)
    hflip = policy.hflip and rng.uniform() < 0.5
    vflip = policy.vflip and rng.uniform() < 0.5
    return AffineParams(theta, tx, ty, shear, zx, zy, hflip, vflip)


def _is_identity_params(p: AffineParams) -> bool:
    return (
        p.theta == 0.0
        and p.tx == 0.0
        and p.ty == 0.0
        and p.shear == 0.0
        and p.zx == 1.0
        and p.zy == 1.0
        and not p.hflip
        and not p.vflip
    )


def apply_affine(img: Tensor, p: AffineParams) -> Tensor:
    """Warp one (h, w) image in [0, 1]; bilinear, nearest-edge fill."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ArgumentError(f"expected a single (h, w) image, got shape {img.shape}")
    if _is_identity_params(p):
        return img.copy()

    h, w = img.shape
    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0

    t = math.radians(p.theta)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    shear = np.array([[1.0, -p.shear], [0.0, 1.0]])
    scale = np.array([[p.zx, 0.0], [0.0, p.zy]])
    m = rot @ shear @ scale
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    minv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det

    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dx = xs - cx
    dy = ys - cy
    sx = cx + minv[0, 0] * dx + minv[0, 1] * dy + p.tx
    sy = cy + minv[1, 0] * dx + minv[1, 1] * dy + p.ty
    if p.hflip:
        sx = (w - 1) - sx
    if p.vflip:
        sy = (h - 1) - sy

    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    x0i = np.clip(x0.astype(np.int64), 0, w - 1)
    x1i = np.clip(x0.astype(np.int64) + 1, 0, w - 1)
    y0i = np.clip(y0.astype(np.int64), 0, h - 1)
    y1i = np.clip(y0.astype(np.int64) + 1, 0, h - 1)

    top = img[y0i, x0i] * (1.0 - fx) + img[y0i, x1i] * fx
    bot = img[y1i, x0i] * (1.0 - fx) + img[y1i, x1i] * fx
    return top * (1.0 - fy) + bot * fy


def augment_batch(images: Tensor, policy: AugmentPolicy, seed: int, counter: int = 0) -> Tensor:
    """Transform a stack of (n, h, w) images.

    Image i draws its parameters from a stream seeded by
    (seed, counter, i), so batches are reproducible per (seed, counter)
    and items may be processed in any order or in parallel.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3 or images.shape[0] < 1:
        raise ArgumentError(f"expected a non-empty (n, h, w) stack, got shape {images.shape}")
    if policy.is_identity:
        return images.copy()
    n, h, w = images.shape
    out = np.empty_like(images)
    for i in range(n):
        rng = Rng(derive_seed(seed, counter, i))
        params = sample_affine(policy, rng, w, h)
        out[i] = apply_affine(images[i], params)
    return out
