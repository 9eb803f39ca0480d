import math

import numpy as np
import pytest

from glyphlab import (
    AffineParams,
    ArgumentError,
    AugmentPolicy,
    GrayImage,
    Rng,
    apply_affine,
    augment_batch,
    preset,
    resize_bilinear,
    sample_affine,
)
from glyphlab.dataset import _bilinear


class TestPresets:
    def test_none_is_identity_policy(self):
        p = preset("none")
        assert p.is_identity

    def test_lossless_is_flips_only(self):
        p = preset("lossless")
        assert p.hflip and p.vflip
        assert p.rot_max == p.wshift_max == p.hshift_max == p.shear_max == p.zoom_max == 0.0

    def test_lossy_ranges(self):
        p = preset("lossy")
        assert p.rot_max == 40.0
        assert p.wshift_max == p.hshift_max == p.shear_max == p.zoom_max == 0.2
        assert not p.hflip and not p.vflip

    def test_unknown_name(self):
        with pytest.raises(ArgumentError):
            preset("elastic")


class TestSampleAffine:
    def test_none_gives_exact_identity(self):
        p = sample_affine(preset("none"), Rng(3), 10, 10)
        assert p == AffineParams()

    def test_deterministic_stream(self):
        draws1 = [sample_affine(preset("lossy"), Rng(77), 8, 8) for _ in range(5)]
        draws2 = [sample_affine(preset("lossy"), Rng(77), 8, 8) for _ in range(5)]
        assert draws1 == draws2

    def test_bounds_over_many_draws(self):
        policy = preset("lossy")
        rng = Rng(123)
        w, h = 32, 24
        for _ in range(100_000):
            p = sample_affine(policy, rng, w, h)
            assert abs(p.theta) <= 40.0
            assert abs(p.tx) <= 0.2 * w
            assert abs(p.ty) <= 0.2 * h
            assert abs(p.shear) <= 0.2
            assert 0.8 <= p.zx <= 1.2 and 0.8 <= p.zy <= 1.2
            assert not p.hflip and not p.vflip

    def test_lossless_flips_roughly_half(self):
        rng = Rng(5)
        flips = [sample_affine(preset("lossless"), rng, 4, 4) for _ in range(2000)]
        h_rate = np.mean([p.hflip for p in flips])
        v_rate = np.mean([p.vflip for p in flips])
        assert 0.45 <= h_rate <= 0.55
        assert 0.45 <= v_rate <= 0.55


class TestApplyAffine:
    def test_identity_bitwise(self):
        img = Rng(1).uniform_array((7, 9))
        out = apply_affine(img, AffineParams())
        assert np.array_equal(out, img)

    def test_hflip_reflects(self):
        out = apply_affine(np.array([[0.1, 0.9]]), AffineParams(hflip=True))
        assert out.tolist() == [[0.9, 0.1]]

    def test_flip_involution_exact(self):
        img = Rng(2).uniform_array((6, 6))
        once = apply_affine(img, AffineParams(hflip=True))
        twice = apply_affine(once, AffineParams(hflip=True))
        assert np.array_equal(twice, img)

    def test_rot180_equals_double_flip(self):
        img = Rng(3).uniform_array((8, 8))
        rot = apply_affine(img, AffineParams(theta=180.0))
        flipped = apply_affine(apply_affine(img, AffineParams(hflip=True)), AffineParams(vflip=True))
        assert np.abs(rot - flipped).max() <= 1e-12

    def test_outputs_stay_in_unit_interval(self):
        rng = Rng(4)
        img = rng.uniform_array((16, 16))
        for _ in range(50):
            p = sample_affine(preset("lossy"), rng, 16, 16)
            out = apply_affine(img, p)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_singular_scale_rejected(self):
        with pytest.raises(ArgumentError):
            AffineParams(zx=0.0)


class TestAugmentBatch:
    def test_none_returns_unchanged(self):
        imgs = Rng(6).uniform_array((4, 5, 5))
        out = augment_batch(imgs, preset("none"), seed=1)
        assert np.array_equal(out, imgs)

    def test_deterministic_per_seed_and_counter(self):
        imgs = Rng(7).uniform_array((5, 8, 8))
        a = augment_batch(imgs, preset("lossy"), seed=42, counter=3)
        b = augment_batch(imgs, preset("lossy"), seed=42, counter=3)
        c = augment_batch(imgs, preset("lossy"), seed=42, counter=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_lossy_changes_nonconstant_image(self):
        rng = Rng(8)
        imgs = rng.uniform_array((1, 12, 12))
        out = augment_batch(imgs, preset("lossy"), seed=5)
        assert np.abs(out - imgs).mean() > 0.0

    def test_items_independent_of_batch_composition(self):
        # image i's transform depends on (seed, counter, i) only
        imgs = Rng(9).uniform_array((3, 6, 6))
        full = augment_batch(imgs, preset("lossy"), seed=11, counter=0)
        head = augment_batch(imgs[:2], preset("lossy"), seed=11, counter=0)
        assert np.array_equal(full[:2], head)


def _reference_resize(src, out_w, out_h):
    """resize_bilinear's sampling before the shared kernel, kept as a reference."""
    h, w = src.shape
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    fx = xs - x0
    fy = ys - y0
    x0i = np.clip(x0.astype(np.int64), 0, w - 1)
    x1i = np.clip(x0.astype(np.int64) + 1, 0, w - 1)
    y0i = np.clip(y0.astype(np.int64), 0, h - 1)
    y1i = np.clip(y0.astype(np.int64) + 1, 0, h - 1)
    top = src[y0i][:, x0i] * (1.0 - fx) + src[y0i][:, x1i] * fx
    bot = src[y1i][:, x0i] * (1.0 - fx) + src[y1i][:, x1i] * fx
    return xs, ys, top * (1.0 - fy)[:, None] + bot * fy[:, None]


def _reference_affine(img, p):
    """apply_affine before the shared kernel, kept as a reference."""
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


class TestBilinearKernel:
    """resize_bilinear and apply_affine share one kernel; both must keep
    the bits of their former separate implementations."""

    def test_resize_bitwise(self):
        rng = Rng(21)
        shapes = [(48, 48, 64, 64), (1, 1, 5, 3), (7, 1, 1, 7), (64, 64, 64, 64), (3, 9, 2, 17)]
        shapes += [tuple(1 + rng.randrange(70) for _ in range(4)) for _ in range(135)]
        for h, w, out_h, out_w in shapes:
            px = (rng.uniform_array((h, w)) * 256).astype(np.uint8)
            xs, ys, want = _reference_resize(px.astype(np.float64), out_w, out_h)
            got = _bilinear(px.astype(np.float64), xs[None, :], ys[:, None])
            assert got.tobytes() == want.tobytes(), (h, w, out_h, out_w)
            out = resize_bilinear(GrayImage(w, h, px), out_w, out_h).pixels
            assert np.array_equal(out, np.floor(want + 0.5).astype(np.uint8))

    def test_lossy_warp_bitwise(self):
        rng = Rng(22)
        policies = [preset("lossy"), AugmentPolicy(hflip=True, vflip=True, rot_max=180.0, zoom_max=0.5)]
        for k in range(200):
            h, w = (64, 64) if k < 20 else (1 + rng.randrange(40), 1 + rng.randrange(40))
            img = rng.uniform_array((h, w))
            p = sample_affine(policies[k % 2], rng, w, h)
            assert apply_affine(img, p).tobytes() == _reference_affine(img, p).tobytes(), (k, h, w)
