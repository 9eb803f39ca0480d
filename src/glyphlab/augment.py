"""Geometric augmentation with reproducible per-image parameter streams.

Two named regimes are built in: "lossless" (random horizontal and
vertical flips only; they go through the bilinear sampler, but land on
integer coordinates, so finite pixels come out exact) and "lossy"
(random rotations up to 40 degrees, width/height shifts up to 20%,
shear up to 20%, zoom up to 20%). "none" is the identity.

The warp is inverse-mapped about the image center: for each destination
pixel, source = C + M^-1 (dst - C) with M = Rot(theta) Shear(s)
Scale(zx, zy), then the source coordinate is translated by (tx, ty) and
finally mirrored for any active flip. Samples falling outside the image
take the nearest edge pixel, however far out they fall, so outputs stay
inside [0, 1].

The source grid is separable: sx = (cx + m00 dx) + m01 dy + tx is built
from a length-w row of dx = x - cx and a length-h column of dy = y - cy
(sy likewise), in the operation order of the full-grid formula, so no
coordinate mesh is formed. The sampler copies the image once into a
buffer with a one-pixel border that repeats the edge, clamps the floor
of each coordinate once per axis, in float, to [-1, extent - 1], and
reads all four taps at offsets of one flat index into that buffer.
augment_batch reads its sources by index from the caller's stack, so a
trainer augments a shuffled or sorted epoch without gathering it first;
it draws every parameter set first, builds their inverse matrices in one
stacked product and reuses one padded buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import _edge_pad, _sample_padded
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
        if not all(math.isfinite(m) and m >= 0 for m in maxima):
            raise ArgumentError(f"policy maxima must be finite and >= 0, got {maxima}")
        if self.rot_max > 180.0:
            raise ArgumentError(f"rot_max must be <= 180 degrees, got {self.rot_max}")
        if self.zoom_max >= 1.0:
            raise ArgumentError(f"zoom_max must be < 1 to keep scales positive, got {self.zoom_max}")

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
        if not all(map(math.isfinite, (self.theta, self.tx, self.ty, self.shear, self.zx, self.zy))):
            raise ArgumentError(f"affine parameters must be finite, got {self}")
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


def _inverse_maps(params) -> np.ndarray:
    """M^-1 of every parameter set, stacked (n, 2, 2); the stacked
    product gives the bits of one 2x2 product per set."""
    rot, shear, scale = [], [], []
    for p in params:
        t = math.radians(p.theta)
        rot.append([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        shear.append([[1.0, -p.shear], [0.0, 1.0]])
        scale.append([[p.zx, 0.0], [0.0, p.zy]])
    m = np.array(rot) @ np.array(shear) @ np.array(scale)
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    adj = np.stack([m[:, 1, 1], -m[:, 0, 1], -m[:, 1, 0], m[:, 0, 0]], axis=1)
    return adj.reshape(-1, 2, 2) / det[:, None, None]


def _warp(pad: np.ndarray, p: AffineParams, minv, dx: np.ndarray, dy: np.ndarray, out=None):
    """Sample the edge-padded image in pad on the source grid of p, with
    inverse matrix minv and centered destination offsets dx (length w)
    and dy (h x 1)."""
    h, w = pad.shape[0] - 2, pad.shape[1] - 2
    (m00, m01), (m10, m11) = minv
    sx = ((w - 1) / 2.0 + m00 * dx) + m01 * dy
    sx += p.tx
    sy = ((h - 1) / 2.0 + m10 * dx) + m11 * dy
    sy += p.ty
    if p.hflip:
        np.subtract(w - 1, sx, out=sx)
    if p.vflip:
        np.subtract(h - 1, sy, out=sy)
    return _sample_padded(pad, sx, sy, out=out)


def _offsets(h: int, w: int):
    """Destination offsets from the image center: a length-w row dx and
    an (h, 1) column dy."""
    dx = np.arange(w, dtype=np.float64) - (w - 1) / 2.0
    dy = np.arange(h, dtype=np.float64)[:, None] - (h - 1) / 2.0
    return dx, dy


def apply_affine(img: Tensor, p: AffineParams) -> Tensor:
    """Warp one (h, w) image in [0, 1]; bilinear, nearest-edge fill."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ArgumentError(f"expected a single (h, w) image, got shape {img.shape}")
    if img.size == 0 or _is_identity_params(p):  # an empty image has no edge to pad
        return img.copy()
    h, w = img.shape
    return _warp(_edge_pad(img), p, _inverse_maps([p])[0].tolist(), *_offsets(h, w))


def augment_batch(
    images: Tensor, policy: AugmentPolicy, seed: int, counter: int = 0, index=None
) -> Tensor:
    """Transform images[index] for a stack of (n, h, w) images.

    Output row i is the warp of images[index[i]]; index None means every
    image in order. The gather happens row by row, so no copy of the
    selected images is built next to the output. Row i draws its
    parameters from a stream seeded by (seed, counter, i), keyed by the
    output position and not by the source row, so the result equals
    augment_batch(images[index], ...) bit for bit, batches are
    reproducible per (seed, counter), and items may be processed in any
    order or in parallel. The identity policy returns images[index], a
    fresh array.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3 or images.shape[0] < 1:
        raise ArgumentError(f"expected a non-empty (n, h, w) stack, got shape {images.shape}")
    if index is None:
        index = np.arange(images.shape[0])
    index = np.asarray(index)
    if index.ndim != 1 or index.size < 1 or index.dtype.kind not in "iu":
        raise ArgumentError(
            f"index must be a non-empty 1-d integer array, got {index.dtype} of shape {index.shape}"
        )
    if index.min() < 0 or index.max() >= images.shape[0]:
        raise ArgumentError(
            f"index entries must lie in [0, {images.shape[0]}), got {index.min()} to {index.max()}"
        )
    if policy.is_identity:
        return images[index]
    n = len(index)
    h, w = images.shape[1:]
    params = [sample_affine(policy, Rng(derive_seed(seed, counter, i)), w, h) for i in range(n)]
    minv = _inverse_maps(params).tolist()
    dx, dy = _offsets(h, w)
    pad = np.empty((h + 2, w + 2))
    out = np.empty((n, h, w))
    for i, (k, p) in enumerate(zip(index.tolist(), params)):
        if _is_identity_params(p):
            out[i] = images[k]
        else:
            _warp(_edge_pad(images[k], pad), p, minv[i], dx, dy, out=out[i])
    return out
