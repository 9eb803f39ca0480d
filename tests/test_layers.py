"""Finite-difference oracles for every layer, plus the hand-checkable
forward contracts."""

import numpy as np
import pytest

from glyphlab import DimensionError, Rng
from glyphlab.models.layers import Conv2d, Dense, Flatten, MaxPool2x2, Relu, Sigmoid

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

    def test_matches_per_window_reference_bitwise(self):
        for seed in range(4):
            x = tie_batch(seed, (2, 4, 6, 3))
            g = np.random.default_rng(100 + seed).normal(size=(2, 2, 3, 3))
            g[0, 0, 0, :] = -0.0  # a taken -0.0 must arrive as -0.0
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
