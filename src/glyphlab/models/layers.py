"""Network layers with explicit forward/backward passes.

All layers take batched channels-last inputs: images are (n, h, w, c),
vectors are (n, d). Forward caches whatever backward needs; backward
consumes the cache of the latest forward, accumulates parameter
gradients on the layer, and returns the gradient with respect to its
input (Relu writes it over grad_out).

Convolutions are 3x3 cross-correlations with same-size zero padding,
evaluated as one matrix product over unrolled patches; the input
gradient is the matching patch-gradient scatter (col2im). The patches,
their gradients and the forward product live in per-layer buffers keyed
by shape, which spares re-faulting their pages on every call (the
32->32 layer's patches are 72 MiB at batch 32). A convolution's output
and cache are therefore only valid until its next forward: run backward
first, as every trainer does.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError
from ..numerics import Tensor


def _pooled(store: dict, name: str, shape) -> np.ndarray:
    buf = store.get(name)
    if buf is None or buf.shape != shape:
        buf = store[name] = np.empty(shape)
    return buf


class Layer:
    params: list = []
    grads: list = []

    def zero_grads(self) -> None:
        for g in self.grads:
            g.fill(0.0)

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def backward(self, grad_out: Tensor) -> Tensor:
        raise NotImplementedError


class Conv2d(Layer):
    """3x3 same-padding cross-correlation with per-channel bias.

    out[b, i, j, o] = bias[o]
        + sum_{c, di, dj} weights[o, c, di, dj] * x[b, i+di-1, j+dj-1, c]
    with out-of-range x reading as 0.
    """

    def __init__(self, in_channels: int, out_channels: int):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weights = np.zeros((out_channels, in_channels, 3, 3))
        self.bias = np.zeros(out_channels)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self.params = [self.weights, self.bias]
        self.grads = [self.grad_weights, self.grad_bias]
        self._pool: dict = {}
        self._cols = None
        self._in_shape = None

    def _wmat(self) -> Tensor:
        # (9*in, out) in the patch row order: taps row-major, channels fastest.
        return self.weights.transpose(2, 3, 1, 0).reshape(-1, self.out_channels)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise DimensionError(
                f"conv expects (n, h, w, {self.in_channels}), got {x.shape}"
            )
        n, h, w, c = x.shape
        self._in_shape = x.shape

        pad = np.zeros((n, h + 2, w + 2, c))
        pad[:, 1:-1, 1:-1, :] = x
        cols = _pooled(self._pool, "cols", (n, h, w, 3, 3, c))
        for di in range(3):
            for dj in range(3):
                cols[:, :, :, di, dj, :] = pad[:, di : di + h, dj : dj + w, :]
        self._cols = cols.reshape(n * h * w, 9 * c)

        out = _pooled(self._pool, "out", (n * h * w, self.out_channels))
        np.matmul(self._cols, self._wmat(), out=out)
        out += self.bias
        return out.reshape(n, h, w, self.out_channels)

    def backward(self, grad_out: Tensor) -> Tensor:
        n, h, w, c = self._in_shape
        if grad_out.shape != (n, h, w, self.out_channels):
            raise DimensionError(f"conv gradient shape {grad_out.shape} does not match forward")
        g = np.ascontiguousarray(grad_out).reshape(-1, self.out_channels)
        gw = (self._cols.T @ g).reshape(3, 3, self.in_channels, self.out_channels)
        self.grad_weights += gw.transpose(3, 2, 0, 1)
        self.grad_bias += g.sum(axis=0)

        # Patch gradients, then scatter-add them back onto the padded grid.
        gcols = _pooled(self._pool, "gcols", (n * h * w, 9 * c))
        np.matmul(g, self._wmat().T, out=gcols)
        g6 = gcols.reshape(n, h, w, 3, 3, c)
        gpad = np.zeros((n, h + 2, w + 2, c))
        for di in range(3):
            for dj in range(3):
                gpad[:, di : di + h, dj : dj + w, :] += g6[:, :, :, di, dj, :]
        self._cols = None
        return gpad[:, 1:-1, 1:-1, :]


class MaxPool2x2(Layer):
    """Non-overlapping 2x2 max. Each window's gradient goes to its first
    maximum in row-major order, or to its first NaN, as np.argmax picks;
    every other input gets an exact +0.0."""

    def __init__(self):
        self._x = None
        self._out = None

    def forward(self, x: Tensor) -> Tensor:
        n, h, w, c = x.shape
        if h % 2 or w % 2:
            raise DimensionError(f"pooling needs even extents, got {h}x{w}")
        taps = x.reshape(n, h // 2, 2, w // 2, 2, c)
        out = np.maximum(taps[:, :, 0, :, 0], taps[:, :, 0, :, 1])
        np.maximum(out, taps[:, :, 1, :, 0], out=out)
        np.maximum(out, taps[:, :, 1, :, 1], out=out)
        self._x = x
        self._out = out
        return out

    def backward(self, grad_out: Tensor) -> Tensor:
        out = self._out
        if grad_out.shape != out.shape:
            raise DimensionError(f"pool gradient shape {grad_out.shape} does not match forward")
        n, h, w, c = self._x.shape
        taps = self._x.reshape(n, h // 2, 2, w // 2, 2, c)
        gx = np.empty((n, h, w, c))
        gtaps = gx.reshape(taps.shape)
        # In row-major tap order, a tap takes the gradient where it holds the
        # max (or a NaN) and no earlier tap took it; the last tap takes the
        # rest. Bit patterns times 0 or 1 write exact +0.0 everywhere else.
        gbits = np.asarray(grad_out, dtype=np.float64).view(np.int64)
        take = np.empty(out.shape, dtype=bool)
        left = np.ones(out.shape, dtype=bool)
        for di, dj in ((0, 0), (0, 1), (1, 0)):
            tap = taps[:, :, di, :, dj]
            np.equal(tap, out, out=take)
            take |= np.isnan(tap)
            take &= left
            left ^= take
            np.multiply(gbits, take, out=gtaps[:, :, di, :, dj].view(np.int64))
        np.multiply(gbits, left, out=gtaps[:, :, 1, :, 1].view(np.int64))
        return gx


class Relu(Layer):
    def __init__(self):
        self._out = None

    def forward(self, x: Tensor) -> Tensor:
        self._out = np.maximum(x, 0.0)
        return self._out

    def backward(self, grad_out: Tensor) -> Tensor:
        return np.multiply(grad_out, self._out > 0.0, out=grad_out)


class Flatten(Layer):
    def __init__(self):
        self._in_shape = None

    def forward(self, x: Tensor) -> Tensor:
        self._in_shape = x.shape
        return np.ascontiguousarray(x).reshape(x.shape[0], -1)

    def backward(self, grad_out: Tensor) -> Tensor:
        return grad_out.reshape(self._in_shape)


class Dense(Layer):
    """Affine map y = x W^T + b with weights shaped (out, in)."""

    def __init__(self, in_features: int, out_features: int):
        self.in_features = in_features
        self.out_features = out_features
        self.weights = np.zeros((out_features, in_features))
        self.bias = np.zeros(out_features)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self.params = [self.weights, self.bias]
        self.grads = [self.grad_weights, self.grad_bias]
        self._x = None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise DimensionError(f"dense expects (n, {self.in_features}), got {x.shape}")
        self._x = x
        return x @ self.weights.T + self.bias

    def backward(self, grad_out: Tensor) -> Tensor:
        if grad_out.shape != (self._x.shape[0], self.out_features):
            raise DimensionError(f"dense gradient shape {grad_out.shape} does not match forward")
        self.grad_weights += grad_out.T @ self._x
        self.grad_bias += grad_out.sum(axis=0)
        grad_x = grad_out @ self.weights
        self._x = None
        return grad_x


class Sigmoid(Layer):
    def __init__(self):
        self._out = None

    def forward(self, x: Tensor) -> Tensor:
        out = np.empty_like(x)
        pos = x >= 0.0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ez = np.exp(x[~pos])
        out[~pos] = ez / (1.0 + ez)
        self._out = out
        return out

    def backward(self, grad_out: Tensor) -> Tensor:
        return grad_out * self._out * (1.0 - self._out)
