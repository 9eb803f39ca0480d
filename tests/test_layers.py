"""Finite-difference oracles for every layer, plus the hand-checkable
forward contracts."""

import numpy as np
import pytest

from glyphlab import ArgumentError, DimensionError, Rng, reference_cnn
from glyphlab.models.cnn import CnnModel, _bce_grad
from glyphlab.models.layers import _ROWS, _runs, Conv2d, Dense, Flatten, MaxPool2x2, Relu, Sigmoid

EPS = 1e-6
REL_TOL = 1e-5


def assert_grad_close(analytic, fd):
    # relative where finite differences can resolve it, absolute below
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    denom = np.maximum(np.abs(analytic), np.abs(fd))
    big = denom > 1e-4
    assert (np.abs(analytic - fd)[big] / denom[big] < REL_TOL).all()
    assert (np.abs(analytic - fd)[~big] < 1e-4 * REL_TOL).all()


def central_diff(f, arr):
    flat = arr.reshape(-1)
    out = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        up = f()
        flat[i] = orig - EPS
        down = f()
        flat[i] = orig
        out[i] = (up - down) / (2 * EPS)
    return out.reshape(arr.shape)


def quadratic_head(rng, shape):
    """A fixed random linear functional: scalar loss with known gradient."""
    coeffs = rng.uniform_array(shape, -1.0, 1.0)
    return coeffs


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def naive_pool(x, g):
    """Per-window loop: np.amax forward, gradient to np.argmax (the first
    max in row-major window order, or the first NaN), exact +0.0 elsewhere."""
    n, h, w, c = x.shape
    out = np.empty((n, h // 2, w // 2, c))
    gx = np.zeros_like(x)
    for b in range(n):
        for i in range(h // 2):
            for j in range(w // 2):
                for ch in range(c):
                    win = x[b, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, ch].ravel()
                    out[b, i, j, ch] = np.amax(win)
                    k = int(np.argmax(win))
                    gx[b, 2 * i + k // 2, 2 * j + k % 2, ch] = g[b, i, j, ch]
    return out, gx


def unroll(a):
    """(n, h, w, k) -> (n * h * w, 9k) 3x3 same-padding patches, taps
    row-major and channels fastest, from a zero-padded copy of a."""
    n, h, w, k = a.shape
    pad = np.zeros((n, h + 2, w + 2, k))
    pad[:, 1:-1, 1:-1, :] = a
    cols = np.empty((n, h, w, 3, 3, k))
    for di in range(3):
        for dj in range(3):
            cols[:, :, :, di, dj, :] = pad[:, di : di + h, dj : dj + w, :]
    return cols.reshape(n * h * w, 9 * k)


def scatter_input_grad(grad_out, weights):
    """The conv input gradient by col2im: each output's patch gradient
    scatter-added onto a zero-padded gradient, in tap order."""
    o, c = weights.shape[:2]
    n, h, w, _ = grad_out.shape
    g = np.ascontiguousarray(grad_out).reshape(-1, o)
    g6 = (g @ weights.transpose(2, 3, 1, 0).reshape(-1, o).T).reshape(n, h, w, 3, 3, c)
    gpad = np.zeros((n, h + 2, w + 2, c))
    for di in range(3):
        for dj in range(3):
            gpad[:, di : di + h, dj : dj + w, :] += g6[:, :, :, di, dj, :]
    return gpad[:, 1:-1, 1:-1, :]


class ReferenceConv2d(Conv2d):
    """The convolution from zero-padded copies and fresh full-batch
    arrays: im2col of x for forward, and for the input gradient im2col of
    grad_out times the kernel flipped in space with its channel axes
    swapped (TestConvInputGradient bounds its distance from the col2im
    scatter). The weight gradient is summed the way Conv2d sums it: one
    product per run of _runs, added in run order (TestConvWeightGradient
    bounds its distance from the one full-batch product)."""

    def forward(self, x):
        n, h, w, c = x.shape
        self._in_shape = x.shape
        self._cols = unroll(x)
        out = np.empty((n * h * w, self.out_channels))
        np.matmul(self._cols, self._wmat(), out=out)
        out += self.bias
        return out.reshape(n, h, w, self.out_channels)

    def backward(self, grad_out):
        n, h, w, c = self._in_shape
        g = np.ascontiguousarray(grad_out).reshape(-1, self.out_channels)
        runs = _runs(n, h * w)
        for a, b in zip(runs, runs[1:]):
            rows = slice(a * h * w, b * h * w)
            gw = (self._cols[rows].T @ g[rows]).reshape(3, 3, self.in_channels, self.out_channels)
            self.grad_weights += gw.transpose(3, 2, 0, 1)
        self.grad_bias += g.sum(axis=0)
        wflip = self.weights[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c)
        gx = np.empty((n * h * w, c))
        np.matmul(unroll(g.reshape(n, h, w, -1)), wflip, out=gx)
        self._cols = None
        return gx.reshape(n, h, w, c)


def signed_zero_nan_draw(rng, shape):
    """Normal draws with some exact zeros of both signs and a few NaNs."""
    a = rng.normal(size=shape)
    u = rng.random(shape)
    a[u < 0.15] = 0.0
    a[(u >= 0.15) & (u < 0.3)] = -0.0
    a[u > 0.96] = np.nan
    return a


def tie_batch(seed, shape):
    """Small integers (many repeated maxima), zeros of both signs, and one
    window whose first NaN is its third tap."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=shape).astype(np.float64)
    zeros = x == 0.0
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    x[0, 0:2, 0:2, 0] = [[-0.0, 0.0], [-0.0, 0.0]]
    x[1, 2:4, 2:4, 1] = [[1.0, 2.0], [np.nan, np.nan]]
    return x


class TestConvForward:
    def test_identity_kernel(self):
        x = Rng(1).uniform_array((1, 4, 4, 1))
        conv = Conv2d(1, 1)
        conv.weights[0, 0, 1, 1] = 1.0
        assert np.array_equal(conv.forward(x), x)

    def test_ones_kernel_tap_counts(self):
        conv = Conv2d(1, 1)
        conv.weights[...] = 1.0
        out = conv.forward(np.ones((1, 4, 4, 1)))
        assert out[0, 1, 1, 0] == 9.0  # interior sees all taps
        assert out[0, 0, 0, 0] == 4.0  # corner sees a 2x2 window

    def test_zero_kernel_bias_only(self):
        conv = Conv2d(2, 3)
        conv.bias[...] = [1.0, 2.0, 3.0]
        out = conv.forward(Rng(2).uniform_array((1, 5, 5, 2)))
        assert np.allclose(out[0, :, :, 0], 1.0)
        assert np.allclose(out[0, :, :, 2], 3.0)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            Conv2d(3, 4).forward(np.zeros((1, 4, 4, 2)))


class TestConvBackward:
    def test_zero_gradient_propagates_zeros(self):
        conv = Conv2d(2, 2)
        conv.weights[...] = Rng(3).uniform_array(conv.weights.shape, -1, 1)
        x = Rng(4).uniform_array((1, 4, 4, 2))
        conv.forward(x)
        conv.zero_grads()
        gx = conv.backward(np.zeros((1, 4, 4, 2)))
        assert not gx.any()
        assert not conv.grad_weights.any()
        assert not conv.grad_bias.any()

    def test_bias_gradient_is_spatial_sum(self):
        conv = Conv2d(1, 2)
        x = Rng(5).uniform_array((2, 4, 4, 1))
        g = Rng(6).uniform_array((2, 4, 4, 2))
        conv.forward(x)
        conv.zero_grads()
        conv.backward(g)
        assert np.allclose(conv.grad_bias, g.sum(axis=(0, 1, 2)))

    def test_finite_difference_all_gradients(self):
        rng = Rng(7)
        for point in range(5):
            x = rng.uniform_array((1, 5, 5, 2), -1, 1)
            conv = Conv2d(2, 3)
            conv.weights[...] = rng.uniform_array(conv.weights.shape, -0.7, 0.7)
            conv.bias[...] = rng.uniform_array(conv.bias.shape, -0.3, 0.3)
            coeffs = quadratic_head(rng, (1, 5, 5, 3))

            def loss():
                return float((conv.forward(x) * coeffs).sum())

            loss()
            conv.zero_grads()
            gx = conv.backward(coeffs.copy()).copy()
            assert_grad_close(gx, central_diff(loss, x))
            assert_grad_close(conv.grad_weights, central_diff(loss, conv.weights))
            assert_grad_close(conv.grad_bias, central_diff(loss, conv.bias))

    def test_backward_needs_a_training_forward(self):
        rng = np.random.default_rng(13)
        conv = Conv2d(2, 3)
        x, g = rng.normal(size=(2, 5, 5, 2)), rng.normal(size=(2, 5, 5, 3))
        with pytest.raises(DimensionError, match="training forward"):
            conv.backward(g)
        conv.forward_only = True
        conv.forward(x)
        with pytest.raises(DimensionError, match="training forward"):
            conv.backward(g)
        conv.forward_only = False
        conv.forward(x)
        conv.backward(g)
        with pytest.raises(DimensionError, match="training forward"):
            conv.backward(g)


class TestConvMatchesReference:
    """Run-buffer im2col against the padded-copy reference, by bytes."""

    @staticmethod
    def _pair(c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        conv, ref = Conv2d(c_in, c_out), ReferenceConv2d(c_in, c_out)
        conv.weights[...] = ref.weights[...] = rng.normal(size=conv.weights.shape)
        conv.bias[...] = ref.bias[...] = rng.normal(size=c_out)
        return conv, ref

    @staticmethod
    def _step_and_compare(conv, ref, x, g):
        assert np.array_equal(bits(conv.forward(x)), bits(ref.forward(x)))
        conv.zero_grads()
        ref.zero_grads()
        gx, ref_gx = conv.backward(g.copy()), ref.backward(g.copy())
        assert np.array_equal(bits(gx), bits(ref_gx))
        assert np.array_equal(bits(conv.grad_weights), bits(ref.grad_weights))
        assert np.array_equal(bits(conv.grad_bias), bits(ref.grad_bias))

    @pytest.mark.parametrize("hw", [(1, 1), (2, 2), (3, 5), (8, 8)])
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_bitwise_with_signed_zeros_and_nans(self, hw, c_in, batch):
        rng = np.random.default_rng([*hw, c_in, batch])
        conv, ref = self._pair(c_in, 2, seed=c_in * 10 + batch)
        x = signed_zero_nan_draw(rng, (batch, *hw, c_in))
        g = signed_zero_nan_draw(rng, (batch, *hw, 2))
        self._step_and_compare(conv, ref, x, g)

    # Several runs of whole images, one shorter than the rest for batches
    # 5 and 9; batch 32 at 32x32, 32->32 is the benchmark's conv2.
    @pytest.mark.parametrize("batch, hw, c_in, c_out", [
        (5, (32, 32), 32, 32), (9, (16, 16), 32, 64), (32, (32, 32), 32, 32),
    ])
    def test_bitwise_across_runs(self, batch, hw, c_in, c_out):
        rng = np.random.default_rng([*hw, c_in, c_out, batch])
        conv, ref = self._pair(c_in, c_out, seed=batch)
        x = signed_zero_nan_draw(rng, (batch, *hw, c_in))
        g = signed_zero_nan_draw(rng, (batch, *hw, c_out))
        self._step_and_compare(conv, ref, x, g)
        # With this many channels nearly every sum meets a NaN, so compare
        # the same draws with their NaNs set to -0.0 as well.
        self._step_and_compare(conv, ref, np.where(np.isnan(x), -0.0, x), np.where(np.isnan(g), -0.0, g))

    # c_out below and above c_in.
    @pytest.mark.parametrize("batch, side, c_in", [(5, 32, 32), (2, 48, 1)])
    def test_run_buffers_hold_one_run(self, batch, side, c_in):
        # The bordered images, the bordered output gradients and the
        # patches are run-sized: at most _ROWS patch rows, or one image
        # when an image has more; the output is the only full-batch buffer.
        # The patches of x and of the output gradient share one buffer, in
        # the conv's workspace (its own, outside a CnnModel).
        rng = np.random.default_rng(12)
        conv = Conv2d(c_in, 4)
        conv.forward(rng.normal(size=(batch, side, side, c_in)))
        conv.backward(rng.normal(size=(batch, side, side, 4)))
        images = max(1, _ROWS // (side * side))
        assert conv._pool["border"].shape == (images, side + 2, side + 2, c_in)
        assert conv._pool["gborder"].shape == (images, side + 2, side + 2, 4)
        assert sorted(conv._pool) == ["border", "gborder", "out"]
        assert conv._work["run_cols"].shape == (images * side * side * 9 * max(c_in, 4),)
        assert sorted(conv._work) == ["run_cols"]

    def test_patch_buffer_without_input_grad(self):
        # conv1 of the 64x64 net: only x is unrolled, so 9 c_in columns.
        rng = np.random.default_rng(14)
        conv = Conv2d(1, 32)
        conv.input_grad = False
        conv.forward(rng.normal(size=(3, 64, 64, 1)))
        conv.backward(rng.normal(size=(3, 64, 64, 32)))
        assert conv._work["run_cols"].shape == (64 * 64 * 9,)
        assert sorted(conv._pool) == ["border", "out"]

    def test_bitwise_without_nans(self):
        rng = np.random.default_rng(5)
        conv, ref = self._pair(3, 4, seed=6)
        x = rng.normal(size=(2, 6, 7, 3))
        x[x < -1.0] = -0.0
        self._step_and_compare(conv, ref, x, rng.normal(size=(2, 6, 7, 4)))

    def test_reused_layer_across_shapes(self):
        # Shape changes reallocate the patch buffer; returning to a shape
        # must find its border taps zero again, not the last batch's values.
        rng = np.random.default_rng(8)
        conv, ref = self._pair(3, 2, seed=9)
        for shape in [(2, 8, 8, 3), (3, 3, 5, 3), (2, 8, 8, 3), (2, 8, 8, 3)]:
            x = rng.normal(size=shape) + 5.0  # no zeros: a stale border would show
            g = rng.normal(size=shape[:3] + (2,))
            self._step_and_compare(conv, ref, x, g)

    def test_without_input_grad_same_parameter_gradients(self):
        rng = np.random.default_rng(10)
        conv, ref = self._pair(1, 3, seed=11)
        conv.input_grad = False
        x = rng.normal(size=(3, 4, 6, 1))
        g = rng.normal(size=(3, 4, 6, 3))
        conv.forward(x)
        ref.forward(x)
        conv.zero_grads()
        ref.zero_grads()
        gx = conv.backward(g.copy())
        ref.backward(g.copy())
        assert gx.shape == x.shape and np.isnan(gx).all() and not gx.flags.writeable
        assert np.array_equal(bits(conv.grad_weights), bits(ref.grad_weights))
        assert np.array_equal(bits(conv.grad_bias), bits(ref.grad_bias))


class TestConvWeightGradient:
    """The per-run weight gradient against the one full-batch product."""

    # conv1 of the 64x64 net (one image per run) and its conv2 at batch 32.
    @pytest.mark.parametrize("batch, side, c_in, c_out", [(5, 64, 1, 32), (32, 32, 32, 32)])
    def test_close_to_full_batch_product(self, batch, side, c_in, c_out):
        rng = np.random.default_rng([batch, side, c_in])
        conv, ref = Conv2d(c_in, c_out), ReferenceConv2d(c_in, c_out)
        x = rng.normal(size=(batch, side, side, c_in))
        g = rng.normal(size=(batch, side, side, c_out)).reshape(-1, c_out)
        assert len(_runs(batch, side * side)) > 2  # several runs
        ref.forward(x)
        conv.forward(x)
        conv.backward(g.reshape(batch, side, side, c_out))

        def to_weights(m):
            return m.reshape(3, 3, c_in, c_out).transpose(3, 2, 0, 1)

        full = to_weights(ref._cols.T @ g)
        # Summing the same terms in another order moves each sum by a small
        # multiple of eps times the sum of its terms' magnitudes (here about
        # 0.1 eps); a missing or repeated run would move it by whole terms.
        scale = to_weights(np.abs(ref._cols).T @ np.abs(g))
        assert (np.abs(conv.grad_weights - full) <= np.finfo(float).eps * scale).all()


class TestConvInputGradient:
    """The transposed-convolution input gradient against the col2im scatter."""

    # conv2-conv5 of the 64x64 net at batch 32.
    @pytest.mark.parametrize("side, c_in, c_out", [(32, 32, 32), (16, 32, 64), (8, 64, 64), (4, 64, 128)])
    def test_close_to_scatter(self, side, c_in, c_out):
        rng = np.random.default_rng([side, c_in, c_out])
        conv = Conv2d(c_in, c_out)
        conv.weights[...] = rng.normal(size=conv.weights.shape)
        g = rng.normal(size=(32, side, side, c_out))
        g.reshape(-1)[rng.choice(g.size, 3, replace=False)] = np.nan
        conv.forward(rng.normal(size=(32, side, side, c_in)))
        gx = conv.backward(g.copy())
        want = scatter_input_grad(g, conv.weights)
        assert np.array_equal(np.isnan(gx), np.isnan(want))
        assert np.isnan(want).any() and not np.isnan(want).all()
        # Both sum the same nine-tap terms, in other orders: each sum moves
        # by a small multiple of eps times the sum of its terms' magnitudes,
        # far below the 1e-13 bound; a wrong tap or channel would not.
        scale = scatter_input_grad(np.abs(g), np.abs(conv.weights))
        ok = ~np.isnan(want)
        assert (np.abs(gx - want)[ok] <= 1e-13 * scale[ok]).all()


class TestPredictProba:
    """Forward-only inference against the training forward, by bytes."""

    @staticmethod
    def _convs(model):
        return [layer for layer in model.layers if isinstance(layer, Conv2d)]

    # One full chunk; an odd chunk, so chunks of 13, 13 and 6 split
    # conv1-conv3 into runs of unequal image counts; one image.
    @pytest.mark.parametrize("n, chunk", [(32, 32), (32, 13), (1, 32)])
    def test_bitwise_equal_to_training_forward(self, n, chunk):
        model = reference_cnn(64, seed=31)
        x = np.random.default_rng([n, chunk]).random((n, 64, 64))
        p = model.predict_proba(x, chunk=chunk)
        work = self._convs(model)[0]._work
        cols = out = 0
        for conv in self._convs(model):
            # Only run-sized patch buffers: no full-chunk patch matrix. The
            # five convs share them, and inference unrolls 9 c_in columns.
            assert conv._work is work
            border = conv._pool["border"]
            rows = max(_ROWS, (border.shape[1] - 2) * (border.shape[2] - 2))
            cols = max(cols, rows * 9 * conv.in_channels)
            out = max(out, (rows + 1) * conv.out_channels)
            assert conv._x is None and not conv.forward_only
        assert len(work["run_cols"]) <= cols and len(work["run_out"]) <= out
        want = np.concatenate(
            [model.forward(x[a : a + chunk, :, :, None]).copy() for a in range(0, n, chunk)]
        )
        assert np.array_equal(bits(p), bits(want))

    def test_reuses_the_training_patch_matrix(self):
        model = reference_cnn(64, seed=33)
        x = np.random.default_rng(34).random((32, 64, 64))
        want = model.forward(x[:, :, :, None]).copy()
        model.backward(np.ones(32))
        pools = [dict(conv._pool) for conv in self._convs(model)]
        work = dict(self._convs(model)[0]._work)
        assert np.array_equal(bits(model.predict_proba(x)), bits(want))
        # Inference after a training step allocates no patch buffer.
        for conv, pool in zip(self._convs(model), pools):
            assert conv._pool.keys() == pool.keys()
            assert all(conv._pool[k] is buf for k, buf in pool.items())
            assert conv._work.keys() == work.keys() == {"run_cols", "run_out"}
            assert all(conv._work[k] is buf for k, buf in work.items())
        # The last forward kept no input, so there is nothing to backward.
        with pytest.raises(DimensionError, match="training forward"):
            model.backward(np.zeros(32))

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_rejects_a_chunk_below_one(self, chunk):
        model = reference_cnn(32)
        with pytest.raises(ArgumentError, match="chunk must be >= 1"):
            model.predict_proba(np.zeros((3, 32, 32)), chunk=chunk)


class TestModelBackward:
    def test_parameter_gradients_match_full_layer_backward_bitwise(self):
        model = reference_cnn(32, seed=21)
        convs = [layer for layer in model.layers if isinstance(layer, Conv2d)]
        rng = np.random.default_rng(22)
        x = rng.random((5, 32, 32, 1))
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])

        model.zero_grads()
        model.backward(_bce_grad(model.forward(x), y))
        skipped = [g.copy() for g in model.grads]
        # Each forward spares the first layer's input gradient only.
        assert [c.input_grad for c in convs] == [False, True, True, True, True]

        model.zero_grads()
        g = _bce_grad(model.forward(x), y).reshape(-1, 1)
        model.layers[0].input_grad = True
        for layer in reversed(model.layers):
            g = layer.backward(g)
        assert g.shape == x.shape and np.isfinite(g).all()
        for a, b in zip(skipped, model.grads, strict=True):
            assert np.array_equal(bits(a), bits(b))


def list_order_step(model, x, y):
    """Forward and backward over model.layers in stored order, each layer
    on its own (every fused mark cleared, no conv pooling its output): the
    probabilities and the accumulated parameter gradients."""
    model.zero_grads()
    for layer in model.layers:
        if isinstance(layer, (Conv2d, Relu, MaxPool2x2)):
            layer.fused = False
    h = x
    for layer in model.layers:
        h = layer.forward(h)
    p = h.reshape(-1).copy()
    g = _bce_grad(p, y).reshape(-1, 1)
    for layer in reversed(model.layers):
        g = layer.backward(g)
    return p, [g.copy() for g in model.grads]


class TestExecutionOrder:
    """CnnModel runs model.layers in stored order and fuses each conv of
    more than one channel that exactly one Relu and then a MaxPool2x2
    follow; every other block runs layer by layer."""

    @staticmethod
    def _model(layers, seed):
        rng = np.random.default_rng(seed)
        for layer in layers:
            if isinstance(layer, (Conv2d, Dense)):
                layer.weights[...] = rng.normal(size=layer.weights.shape)
                layer.bias[...] = rng.normal(-0.1, 0.1, layer.bias.shape)
        return CnnModel(layers)

    @staticmethod
    def _assert_same_as_list_order(model, x, y):
        model.zero_grads()
        p = model.forward(x).copy()
        model.backward(_bce_grad(p, y))
        grads = [g.copy() for g in model.grads]
        want_p, want_grads = list_order_step(model, x, y)
        assert np.array_equal(bits(p), bits(want_p))
        for a, b in zip(grads, want_grads, strict=True):
            assert np.isfinite(a).all() and np.array_equal(bits(a), bits(b))

    def test_reference_net_pools_before_relu(self):
        model = reference_cnn(32)
        stored = list(model.layers)
        model.forward(np.random.default_rng(0).random((2, 32, 32, 1)))
        convs = [layer for layer in stored if isinstance(layer, Conv2d)]
        assert len(convs) == 5 and all(conv._taps is not None for conv in convs)
        for k in range(5):
            conv, relu, pool = stored[3 * k : 3 * k + 3]
            # The fused conv applies the ReLU to its pooled values, which
            # the ReLU and the pool hand through, holding no buffer; the
            # marks stay for the backward.
            assert relu._out is conv._pool["pooled"] is pool._out
            assert relu._out.shape == conv._taps.shape and not relu._pool
            assert conv.fused and relu.fused and pool.fused
        assert not stored[-3].fused  # the head's ReLU runs on its own
        assert model.layers == stored  # the stored (GMD1) order is untouched

    def test_hand_built_conv_pairs_through_relu(self):
        conv, relu, pool = Conv2d(1, 2), Relu(), MaxPool2x2()
        model = self._model([conv, relu, pool, Flatten(), Dense(8, 1), Sigmoid()], seed=1)
        x = np.random.default_rng(2).random((3, 4, 4, 1))
        assert model.forward(x).shape == (3,)
        assert conv._taps is not None and "out" not in conv._pool
        assert relu._out.shape == (3, 2, 2, 2)
        self._assert_same_as_list_order(model, x, np.array([0.0, 1.0, 1.0]))

    @pytest.mark.parametrize("extra_relu", [False, True])
    def test_unpaired_blocks_run_in_stored_order(self, extra_relu):
        # Block 2 has a one-channel conv, or block 1 two ReLUs before its
        # pool: either stays unpaired, its ReLUs see the full conv output.
        conv1, conv2 = Conv2d(1, 3), Conv2d(3, 1)
        block1 = [conv1, Relu()] + [Relu()] * extra_relu + [MaxPool2x2()]
        layers = block1 + [conv2, Relu(), MaxPool2x2(), Flatten(), Dense(4, 1), Sigmoid()]
        model = self._model(layers, seed=3)
        x = np.random.default_rng(4).random((4, 8, 8, 1))
        model.forward(x)
        assert (conv1._taps is None) == extra_relu and conv2._taps is None
        assert layers[1]._out.shape == ((4, 8, 8, 3) if extra_relu else (4, 4, 4, 3))
        assert "out" in conv2._pool and layers[-5]._out.shape == (4, 4, 4, 1)
        self._assert_same_as_list_order(model, x, np.array([0.0, 1.0, 1.0, 0.0]))

    def test_follows_edits_to_the_layer_list(self):
        model = reference_cnn(32, seed=5)
        x = np.random.default_rng(6).random((2, 32, 32, 1))
        conv = model.layers[0]
        model.layers.insert(2, Relu())  # conv -> ReLU -> ReLU -> pool
        model.forward(x)
        assert conv._taps is None and model.layers[2]._out.shape == (2, 32, 32, 32)
        del model.layers[2]
        model.forward(x)
        assert conv._taps is not None and model.layers[1]._out.shape == (2, 16, 16, 32)

    @pytest.mark.parametrize("inserted", [[Conv2d(1, 1)], [Conv2d(1, 1), Relu()]], ids=["conv", "conv-relu"])
    def test_input_gradient_follows_an_inserted_first_layer(self, inserted):
        # The old first conv now needs its input gradient: the inserted
        # layers' backward reads it.
        model = reference_cnn(32, seed=7)
        model.layers[:0] = inserted
        inserted[0].weights[...] = np.random.default_rng(8).normal(size=(1, 1, 3, 3))
        x = np.random.default_rng(9).random((3, 32, 32, 1))
        self._assert_same_as_list_order(model, x, np.array([0.0, 1.0, 1.0]))
        assert [c.input_grad for c in model.layers if isinstance(c, Conv2d)] == [False] + [True] * 5

    @staticmethod
    def _random_net(rng):
        # One or two blocks of a conv of one or 2-3 channels, then ReLU ->
        # pool, an extra ReLU before the pool, or the pool alone; a dense
        # head. Also the input side (4 to 16) that the pools bring to 2 or 4.
        blocks, side = int(rng.integers(1, 3)), int(rng.choice([2, 4]))
        layers, c_in = [], 1
        for _ in range(blocks):
            c_out = int(rng.choice([1, 2, 3]))
            tail = [[Relu(), MaxPool2x2()], [Relu(), Relu(), MaxPool2x2()], [MaxPool2x2()]]
            layers += [Conv2d(c_in, c_out)] + tail[int(rng.integers(3))]
            c_in = c_out
        head = [Flatten(), Dense(side * side * c_in, 2), Relu(), Dense(2, 1), Sigmoid()]
        return layers + head, side * 2**blocks

    @staticmethod
    def _edit(layers, rng):
        # Insert or delete a Relu, or swap a pool with a Relu beside it.
        kind = int(rng.integers(3))
        relus = [i for i, layer in enumerate(layers) if isinstance(layer, Relu)]
        pools = [i for i, layer in enumerate(layers) if isinstance(layer, MaxPool2x2)]
        if kind == 1 and relus:
            del layers[int(rng.choice(relus))]
        elif kind == 2:
            i = int(rng.choice(pools))
            j = i - 1 if isinstance(layers[i - 1], Relu) else i + 1
            if isinstance(layers[j], Relu):
                layers[i], layers[j] = layers[j], layers[i]
            else:
                layers[i] = MaxPool2x2()
        else:
            layers.insert(int(rng.integers(len(layers) + 1)), Relu())

    @pytest.mark.parametrize("seed", range(12))
    def test_random_nets_and_edits_bitwise_equal_to_list_order(self, seed):
        rng = np.random.default_rng([seed, 51])
        layers, side = self._random_net(rng)
        model = self._model(layers, seed)
        n = int(rng.choice([3, 9]))  # 9 images of 16x16 make two runs
        x = rng.random((n, side, side, 1))
        for _ in range(4):
            self._assert_same_as_list_order(model, x, (rng.random(n) < 0.5).astype(float))
            self._edit(model.layers, rng)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_list_order_with_nonpositive_windows(self, seed):
        # Negative conv biases leave about half the pool windows with
        # max <= 0, where the two orders route a signed zero gradient to
        # different taps (biases near -0.3 kill blocks 3-5 outright, so
        # every gradient below them is zero); three dead channels per conv
        # make every one of their sums a sum of zeros alone.
        rng = np.random.default_rng(seed)
        model = reference_cnn(32, seed=seed)
        for layer in model.layers:
            if isinstance(layer, Conv2d):
                layer.bias[...] = rng.normal(-0.1, 0.1, layer.bias.shape)
                layer.bias[rng.choice(layer.out_channels, 3, replace=False)] = -1e3
        x = rng.random((6, 32, 32, 1))
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])

        model.zero_grads()
        p = model.forward(x).copy()
        model.backward(_bce_grad(p, y))
        grads = [g.copy() for g in model.grads]
        pools = [layer for layer in model.layers if isinstance(layer, MaxPool2x2)]
        nonpositive = [float(np.mean(pool._out <= 0.0)) for pool in pools]
        assert 0.2 < min(nonpositive) and max(nonpositive) < 0.8, nonpositive
        assert all(np.any(g != 0.0) for g in grads)

        want_p, want_grads = list_order_step(model, x, y)
        assert np.array_equal(bits(p), bits(want_p))
        for a, b in zip(grads, want_grads, strict=True):
            assert np.array_equal(bits(a), bits(b))


def block_step(conv, pool, x, g, fused):
    """One forward and backward of conv -> pool -> ReLU, marked fused (as
    CnnModel.forward marks a conv -> ReLU -> pool block: the conv pools its
    own output and applies the ReLU, the pool and ReLU hand it through) or
    not: copies of the block's output, the input gradient and the
    parameter gradients. Unfused, the ReLU runs after the pool, as the
    fused conv applies it."""
    relu = Relu()
    conv.fused = relu.fused = pool.fused = fused
    y = conv.forward(x)
    assert y.shape[1] == (x.shape[1] // 2 if fused else x.shape[1])
    out = relu.forward(pool.forward(y)).copy()
    assert not (fused and relu._pool)  # a fused ReLU holds no buffer
    conv.zero_grads()
    gx = conv.backward(pool.backward(relu.backward(g.copy()))).copy()
    return [out, gx, conv.grad_weights.copy(), conv.grad_bias.copy()]


class TestFusedConvPool:
    """A conv that pools its own output run by run and applies the ReLU
    after the pool, against the layers run one after the other, by bytes."""

    @staticmethod
    def _block(c_in, c_out, seed, integer=False):
        rng = np.random.default_rng(seed)
        conv = Conv2d(c_in, c_out)
        if integer:  # exact small-integer outputs: many tied windows
            conv.weights[...] = rng.integers(-1, 2, size=conv.weights.shape)
            conv.bias[...] = rng.integers(-1, 2, size=c_out)
        else:
            conv.weights[...] = rng.normal(size=conv.weights.shape)
            conv.bias[...] = rng.normal(size=c_out)
        return conv, MaxPool2x2()

    @staticmethod
    def _compare(conv, pool, x, g):
        got = block_step(conv, pool, x, g, True)
        want = block_step(conv, pool, x, g, False)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(bits(a), bits(b))

    @staticmethod
    def _gradient(rng, shape):
        g = signed_zero_nan_draw(rng, shape)
        g[..., 1] = -0.0  # a channel whose pooled gradient is all -0.0
        return g

    # One run (8x8); runs of two and three images (32x32 at batch 5);
    # one image per run, 32 runs (64x64 at batch 32, the net's conv1).
    @pytest.mark.parametrize("batch, side, c_in, c_out", [
        (3, 8, 2, 3), (5, 32, 32, 32), (32, 64, 1, 32),
    ])
    def test_bitwise_with_signed_zeros_and_nans(self, batch, side, c_in, c_out):
        rng = np.random.default_rng([batch, side, c_in])
        conv, pool = self._block(c_in, c_out, seed=side)
        x = signed_zero_nan_draw(rng, (batch, side, side, c_in))
        g = self._gradient(rng, (batch, side // 2, side // 2, c_out))
        self._compare(conv, pool, x, g)
        # Nearly every window meets a NaN at 32 input channels, so compare
        # the same draws with their NaNs set to -0.0 as well.
        self._compare(conv, pool, np.where(np.isnan(x), -0.0, x), np.where(np.isnan(g), -0.0, g))

    @pytest.mark.parametrize("batch, side", [(3, 8), (32, 64)])
    def test_bitwise_with_tied_windows(self, batch, side):
        rng = np.random.default_rng([side, 7])
        conv, pool = self._block(2, 4, seed=batch, integer=True)
        x = tie_batch(side, (batch, side, side, 2))
        g = self._gradient(rng, (batch, side // 2, side // 2, 4))
        self._compare(conv, pool, x, g)
        self._compare(conv, pool, np.where(np.isnan(x), 1.0, x), np.where(np.isnan(g), -0.0, g))

    def test_bitwise_without_input_grad(self):
        rng = np.random.default_rng(41)
        conv, pool = self._block(1, 8, seed=42)
        conv.input_grad = False
        x = rng.normal(size=(4, 64, 64, 1))
        g = self._gradient(rng, (4, 32, 32, 8))
        got, want = (block_step(conv, pool, x, g, fused) for fused in (True, False))
        assert np.isnan(got[1]).all()
        for a, b in zip(got[::2] + got[3:], want[::2] + want[3:], strict=True):
            assert np.array_equal(bits(a), bits(b))

    def test_odd_extent_rejected(self):
        conv, pool = self._block(1, 2, seed=0)
        with pytest.raises(DimensionError, match="even extents"):
            block_step(conv, pool, np.zeros((1, 3, 4, 1)), np.zeros((1, 1, 2, 2)), fused=True)


class TestModelPairsConvAndPool:
    @staticmethod
    def _model(seed=0):
        rng = np.random.default_rng(seed)
        conv, relu, pool = Conv2d(1, 3), Relu(), MaxPool2x2()
        conv.weights[...] = rng.normal(size=conv.weights.shape)
        dense = Dense(12, 1)
        dense.weights[...] = rng.normal(size=dense.weights.shape)
        return CnnModel([conv, relu, pool, Flatten(), dense, Sigmoid()])

    def test_marks_stay_until_the_next_forward(self):
        model = self._model()
        block = model.layers[:3]
        x = np.random.default_rng(1).random((2, 4, 4, 1))
        p = model.forward(x).copy()
        assert block[0]._taps is not None and "out" not in block[0]._pool  # it ran fused
        model.backward(np.ones(2))
        assert all(layer.fused for layer in block)  # the backward reads the marks
        want, _ = list_order_step(model, x, np.zeros(2))  # which clears them
        assert np.array_equal(bits(p), bits(want))
        with pytest.raises(DimensionError):  # a failing forward marks them too
            model.forward(np.zeros((2, 4, 6, 1)))
        assert all(layer.fused for layer in block)
        assert np.array_equal(bits(model.forward(x)), bits(p))

    def test_paired_pool_backward_before_forward_raises(self):
        pool = self._model().layers[2]
        with pytest.raises(DimensionError, match="needs a forward first"):
            pool.backward(np.ones((2, 2, 2, 3)))

    def test_conv_backward_after_forward_only_raises(self):
        model = self._model()
        conv = model.layers[0]
        model.predict_proba(np.random.default_rng(2).random((2, 4, 4)))
        assert conv._taps is None
        with pytest.raises(DimensionError, match="training forward"):
            conv.backward(np.ones((2, 2, 2, 3)))
        with pytest.raises(DimensionError, match="training forward"):
            model.backward(np.ones(2))

    def test_replacing_the_pool_unpairs_the_conv(self):
        model = self._model()
        conv = model.layers[0]
        x = np.random.default_rng(3).random((2, 4, 4, 1))
        model.forward(x)
        assert conv._taps is not None
        model.layers[2] = Relu()
        model.layers[4] = Dense(48, 1)
        model.forward(x)
        assert conv._taps is None and conv._pool["out"].shape == (2 * 4 * 4, 3)
        model.backward(np.ones(2))  # every layer's backward matches its forward

    def test_one_channel_conv_stays_unpaired(self):
        # numpy sums a lone bias column pairwise, which per-run sums cannot
        # reproduce; such a conv runs unfused to keep the bits.
        conv = Conv2d(1, 1)
        model = CnnModel([conv, Relu(), MaxPool2x2(), Flatten(), Dense(4, 1), Sigmoid()])
        model.forward(np.ones((2, 4, 4, 1)))
        assert conv._taps is None and "out" in conv._pool and not conv.fused


class TestMaxPool:
    def test_unique_max_and_routing(self):
        pool = MaxPool2x2()
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        assert pool.forward(x).ravel().tolist() == [4.0]
        gx = pool.backward(np.array([[[[5.0]]]]))
        assert gx.ravel().tolist() == [0.0, 0.0, 0.0, 5.0]

    def test_tie_routes_to_first_row_major(self):
        pool = MaxPool2x2()
        x = np.full((1, 2, 2, 1), 3.3)
        assert pool.forward(x).ravel().tolist() == [3.3]
        gx = pool.backward(np.array([[[[1.0]]]]))
        assert gx.ravel().tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_odd_extent_rejected(self):
        with pytest.raises(DimensionError):
            MaxPool2x2().forward(np.zeros((1, 3, 4, 1)))

    def test_non_4d_input_rejected(self):
        with pytest.raises(DimensionError):
            MaxPool2x2().forward(np.zeros((4, 4, 1)))

    def test_matches_per_window_reference_bitwise(self):
        for seed in range(4):
            x = tie_batch(seed, (2, 4, 6, 3))
            g = np.random.default_rng(100 + seed).normal(size=(2, 2, 3, 3))
            g[0, 0, 0, :] = -0.0  # a taken -0.0 must arrive as -0.0
            ref_out, ref_gx = naive_pool(x, g)
            pool = MaxPool2x2()
            assert np.array_equal(bits(pool.forward(x)), bits(ref_out))
            assert np.array_equal(bits(pool.backward(g)), bits(ref_gx))

    def test_matches_per_window_reference_bitwise_without_nan(self):
        # A batch without NaN skips the per-tap NaN test.
        for seed in range(4):
            x = tie_batch(seed, (3, 6, 4, 2))
            x[np.isnan(x)] = 2.0
            g = np.random.default_rng(200 + seed).normal(size=(3, 3, 2, 2))
            g[1, 0, 1, :] = -0.0
            ref_out, ref_gx = naive_pool(x, g)
            pool = MaxPool2x2()
            assert np.array_equal(bits(pool.forward(x)), bits(ref_out))
            assert np.array_equal(bits(pool.backward(g)), bits(ref_gx))

    def test_finite_difference_away_from_ties(self):
        rng = Rng(8)
        for _ in range(5):
            x = rng.uniform_array((1, 4, 4, 2), -1, 1)  # continuous draws: no ties
            pool = MaxPool2x2()
            coeffs = quadratic_head(rng, (1, 2, 2, 2))

            def loss():
                return float((pool.forward(x) * coeffs).sum())

            loss()
            gx = pool.backward(coeffs.copy()).copy()
            assert_grad_close(gx, central_diff(loss, x))


class TestDense:
    def test_affine_map(self):
        dense = Dense(2, 2)
        dense.weights[...] = [[1.0, 2.0], [3.0, 4.0]]
        dense.bias[...] = [10.0, 20.0]
        out = dense.forward(np.array([[1.0, 1.0]]))
        assert out.tolist() == [[13.0, 27.0]]

    def test_finite_difference(self):
        rng = Rng(9)
        for _ in range(5):
            x = rng.uniform_array((3, 4), -1, 1)
            dense = Dense(4, 2)
            dense.weights[...] = rng.uniform_array((2, 4), -1, 1)
            dense.bias[...] = rng.uniform_array(2, -1, 1)
            coeffs = quadratic_head(rng, (3, 2))

            def loss():
                return float((dense.forward(x) * coeffs).sum())

            loss()
            dense.zero_grads()
            gx = dense.backward(coeffs.copy()).copy()
            assert_grad_close(gx, central_diff(loss, x))
            assert_grad_close(dense.grad_weights, central_diff(loss, dense.weights))
            assert_grad_close(dense.grad_bias, central_diff(loss, dense.bias))

    def test_relu_composite_finite_difference(self):
        rng = Rng(10)
        for _ in range(5):
            x = rng.uniform_array((2, 5), -1, 1)
            d1, relu, d2 = Dense(5, 4), Relu(), Dense(4, 1)
            d1.weights[...] = rng.uniform_array((4, 5), -1, 1)
            d1.bias[...] = rng.uniform_array(4, -1, 1)
            d2.weights[...] = rng.uniform_array((1, 4), -1, 1)

            def loss():
                return float(d2.forward(relu.forward(d1.forward(x))).sum())

            loss()
            for layer in (d1, d2):
                layer.zero_grads()
            gx = d1.backward(relu.backward(d2.backward(np.ones((2, 1))))).copy()
            assert_grad_close(gx, central_diff(loss, x))
            assert_grad_close(d1.grad_weights, central_diff(loss, d1.weights))


@pytest.mark.parametrize("layer, grad", [
    (MaxPool2x2(), np.ones((1, 2, 2, 1))),
    (Relu(), np.ones((1, 3))),
    (Flatten(), np.ones((1, 4))),
    (Dense(2, 1), np.ones((1, 1))),
    (Sigmoid(), np.ones((1, 1))),
], ids=["pool", "relu", "flatten", "dense", "sigmoid"])
def test_backward_before_forward_raises(layer, grad):
    with pytest.raises(DimensionError, match="needs a forward first"):
        layer.backward(grad)


# A gradient numpy would broadcast, or reshape to the same size, and one
# that numpy would refuse with a bare ValueError.
@pytest.mark.parametrize("layer, x, grad", [
    (Relu(), np.ones((1, 3)), np.ones((2, 3))),
    (Relu(), np.ones((2, 3)), np.ones((1, 3))),
    (Sigmoid(), np.ones((2, 1)), np.ones((2, 5))),
    (Sigmoid(), np.ones((2, 5)), np.ones((2, 1))),
    (Flatten(), np.ones((2, 3, 2, 1)), np.ones((1, 12))),
    (Flatten(), np.ones((2, 3, 2, 1)), np.ones((2, 5))),
], ids=["relu-broadcast", "relu", "sigmoid-broadcast", "sigmoid", "flatten-same-size", "flatten"])
def test_backward_rejects_a_gradient_of_another_shape(layer, x, grad):
    layer.forward(x)
    with pytest.raises(DimensionError, match="gradient shape .* does not match forward"):
        layer.backward(grad)


class TestActivations:
    def test_relu_values(self):
        out = Relu().forward(np.array([[-1.0, 0.0, 2.0]]))
        assert out.tolist() == [[0.0, 0.0, 2.0]]

    def test_relu_subgradient_zero_at_zero(self):
        relu = Relu()
        relu.forward(np.array([[0.0, -0.5, 0.5]]))
        gx = relu.backward(np.ones((1, 3)))
        assert gx.tolist() == [[0.0, 0.0, 1.0]]

    def test_relu_matches_mask_product_bitwise(self):
        x = tie_batch(1, (2, 4, 6, 3))
        g = np.random.default_rng(7).normal(size=x.shape)
        relu = Relu()
        out = relu.forward(x)
        # np.maximum writes +0.0 where x * (x > 0) writes -0.0 (x < 0 or
        # x == -0.0); adding +0.0 turns exactly those zeros positive.
        assert np.array_equal(bits(out), bits(x * (x > 0) + 0.0))
        assert np.array_equal(bits(relu.backward(g.copy())), bits(g * (x > 0)))

    def test_sigmoid_center(self):
        assert Sigmoid().forward(np.array([[0.0]]))[0, 0] == 0.5

    def test_sigmoid_open_interval(self):
        # strict (0, 1) over the float64-representable logit range
        out = Sigmoid().forward(np.array([[-700.0, -30.0, -1.0, 1.0, 30.0, 36.0]]))
        assert (out > 0.0).all() and (out < 1.0).all()

    def test_sigmoid_finite_difference(self):
        rng = Rng(11)
        for _ in range(5):
            x = rng.uniform_array((2, 3), -3, 3)
            sig = Sigmoid()
            coeffs = quadratic_head(rng, (2, 3))

            def loss():
                return float((sig.forward(x) * coeffs).sum())

            loss()
            gx = sig.backward(coeffs.copy()).copy()
            assert_grad_close(gx, central_diff(loss, x))

    def test_flatten_round_trip(self):
        flat = Flatten()
        x = Rng(12).uniform_array((2, 3, 4, 5))
        y = flat.forward(x)
        assert y.shape == (2, 60)
        assert np.array_equal(flat.backward(y), x)
