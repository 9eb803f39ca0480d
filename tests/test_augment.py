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
from glyphlab.augment import _inverse_maps
from glyphlab.dataset import _bilinear
from glyphlab.numerics import derive_seed


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

    @pytest.mark.parametrize("name", ["lossy", "lossless", "none"])
    @pytest.mark.parametrize("index", [[4, 0, 3, 1, 2], [2, 2, 0, 4, 2, 2, 1]])
    def test_index_equals_a_pregathered_stack(self, name, index):
        # Streams are keyed by output position, so gathering first and
        # gathering by index give the same bits.
        imgs = Rng(10).uniform_array((5, 9, 7))
        got = augment_batch(imgs, preset(name), seed=12, counter=1, index=np.array(index))
        want = augment_batch(imgs[index], preset(name), seed=12, counter=1)
        assert got.shape == (len(index), 9, 7)
        assert got.tobytes() == want.tobytes()

    def test_identity_returns_no_view(self):
        imgs = Rng(11).uniform_array((3, 4, 4))
        for index in (None, np.array([2, 0])):
            out = augment_batch(imgs, preset("none"), seed=1, index=index)
            assert not np.shares_memory(out, imgs)

    @pytest.mark.parametrize("index", [
        np.array([], dtype=np.int64), np.array([[0, 1]]), np.array([0.0, 1.0]),
        np.array([0, 3]), np.array([-1, 0]),
    ], ids=["empty", "2-d", "float", "past-end", "negative"])
    def test_bad_index_rejected(self, index):
        imgs = Rng(12).uniform_array((3, 4, 4))
        for policy in ("lossy", "none"):
            with pytest.raises(ArgumentError):
                augment_batch(imgs, preset(policy), seed=1, index=index)


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


def _unchecked_params(**fields):
    """AffineParams with fields its own checks would refuse (NaN, inf),
    to reach the sampler's handling of non-finite coordinates."""
    p = AffineParams()
    for name, value in fields.items():
        object.__setattr__(p, name, value)
    return p


def _ramp(h, w):
    """Left-to-right ramp from 0.0 to 1.0."""
    return np.tile(np.linspace(0.0, 1.0, w), (h, 1))


class TestFarSamples:
    """Samples however far outside the image take the nearest edge pixel."""

    @pytest.mark.parametrize("tx", [1e19, 1e300, -1e19, -1e300])
    def test_huge_shift_reads_nearest_edge(self, tx):
        out = apply_affine(_ramp(3, 5), AffineParams(tx=tx))
        assert out.tolist() == [[1.0 if tx > 0 else 0.0] * 5] * 3

    def test_huge_vertical_shift_reads_nearest_edge(self):
        img = _ramp(5, 3).T  # rows 0.0, 0.5, 1.0
        assert apply_affine(img, AffineParams(ty=1e19)).tolist() == [[1.0] * 5] * 3
        assert apply_affine(img, AffineParams(ty=-1e300)).tolist() == [[0.0] * 5] * 3

    def test_tiny_zoom_on_odd_width(self):
        img = _ramp(2, 7)
        out = apply_affine(img, AffineParams(zx=1e-300))
        want = [[0.0] * 3 + [img[0, 3]] + [1.0] * 3] * 2
        assert out.tolist() == want

    @pytest.mark.parametrize("fields", [{"theta": math.nan}, {"tx": math.inf}, {"ty": -math.inf}])
    def test_non_finite_coordinates_give_nan_like_reference(self, fields):
        img = Rng(31).uniform_array((6, 9))
        p = _unchecked_params(**fields)
        with np.errstate(invalid="ignore"):
            out = apply_affine(img, p)
            want = _reference_affine(img, p)
        assert np.isnan(out).all()
        assert out.tobytes() == want.tobytes()

    def test_sampler_nan_coordinates_stay_nan(self):
        img = Rng(32).uniform_array((4, 4))
        sx = np.array([[np.nan, 1.5, np.inf, -np.inf]])
        sy = np.array([[0.5], [np.nan]])
        with np.errstate(invalid="ignore"):
            out = _bilinear(img, sx, sy)
        assert np.isnan(out[1]).all() and np.isnan(out[0, [0, 2, 3]]).all()
        assert out[0, 1] == _bilinear(img, np.array([[1.5]]), np.array([[0.5]]))[0, 0]


class TestValidation:
    @pytest.mark.parametrize(
        "field", ["rot_max", "wshift_max", "hshift_max", "shear_max", "zoom_max"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_policy_rejects_non_finite_maxima(self, field, value):
        with pytest.raises(ArgumentError):
            AugmentPolicy(**{field: value})

    @pytest.mark.parametrize("zoom_max", [1.0, 2.0])
    def test_policy_rejects_zoom_that_reaches_zero_scale(self, zoom_max):
        with pytest.raises(ArgumentError):
            AugmentPolicy(zoom_max=zoom_max)

    def test_policy_accepts_zoom_below_one(self):
        assert AugmentPolicy(zoom_max=0.999).zoom_max == 0.999

    @pytest.mark.parametrize("field", ["theta", "tx", "ty", "shear", "zx", "zy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite_fields(self, field, value):
        with pytest.raises(ArgumentError):
            AffineParams(**{field: value})


def _reference_batch(images, policy, seed, counter=0):
    """augment_batch as a per-image loop of sample_affine and the
    reference warp."""
    n, h, w = images.shape
    out = np.empty_like(images)
    for i in range(n):
        p = sample_affine(policy, Rng(derive_seed(seed, counter, i)), w, h)
        out[i] = _reference_affine(images[i], p)
    return out


def _reference_inverse(p):
    """The per-image 2x2 inverse of _reference_affine."""
    t = math.radians(p.theta)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    shear = np.array([[1.0, -p.shear], [0.0, 1.0]])
    scale = np.array([[p.zx, 0.0], [0.0, p.zy]])
    m = rot @ shear @ scale
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


class TestBatchMatchesReference:
    POLICIES = {
        "lossy": preset("lossy"),
        "lossless": preset("lossless"),
        "wide": AugmentPolicy(hflip=True, vflip=True, rot_max=180.0, zoom_max=0.5),
        "hflip": AugmentPolicy(hflip=True),
    }

    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (17, 23), (64, 64)])
    @pytest.mark.parametrize("n", [1, 40])
    def test_bitwise(self, name, shape, n):
        images = Rng(41 + n).uniform_array((n,) + shape)
        got = augment_batch(images, self.POLICIES[name], seed=9, counter=2)
        want = _reference_batch(images, self.POLICIES[name], seed=9, counter=2)
        assert got.tobytes() == want.tobytes()

    def test_hflip_policy_mixes_identity_and_flipped_draws(self):
        images = Rng(43).uniform_array((40, 3, 4))
        out = augment_batch(images, AugmentPolicy(hflip=True), seed=9)
        kept = [np.array_equal(out[i], images[i]) for i in range(40)]
        flipped = [np.array_equal(out[i], images[i, :, ::-1]) for i in range(40)]
        assert all(k or f for k, f in zip(kept, flipped))
        assert any(kept) and any(flipped)

    def test_stacked_inverse_matches_per_image_products(self):
        rng = Rng(44)
        params = [sample_affine(self.POLICIES["wide"], rng, 64, 64) for _ in range(300)]
        params += [sample_affine(preset("lossy"), rng, 48, 48) for _ in range(300)]
        params += [AffineParams(), AffineParams(theta=90.0), AffineParams(zx=1e-300, shear=0.2)]
        stacked = _inverse_maps(params)
        for i, p in enumerate(params):
            assert stacked[i].tobytes() == _reference_inverse(p).tobytes(), i
