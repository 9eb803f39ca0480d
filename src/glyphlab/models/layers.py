"""Network layers with explicit forward/backward passes.

All layers take batched channels-last inputs: images are (n, h, w, c),
vectors are (n, d). Forward caches whatever backward needs; backward
consumes the cache of the latest forward, refuses a gradient of another
shape than the forward's output (DimensionError), accumulates parameter
gradients on the layer, and returns the gradient with respect to its
input (Relu writes it over grad_out).

Convolutions are 3x3 cross-correlations with same-size zero padding,
evaluated as matrix products over unrolled patches (im2col). The input
gradient is the transposed convolution: the same-padding correlation of
the output gradient with the kernel flipped in space and its channel
axes swapped (Dumoulin and Visin 2016, section 4), through the same
im2col. Both directions walk the batch in runs of whole images of at
most _ROWS patch rows (one image, when an image has more):

- im2col copies a run's images (or output gradients) into the interior
  of a run-sized bordered buffer whose border is zeroed once, so one
  copy from a strided view writes the run's patch rows front to back
  (nine per-tap copies would each write them at a stride).
- forward multiplies each run's patches into that run's rows of the
  output. A whole-batch product has the same bits, but 2-thread
  OpenBLAS touches scratch that grows with its rows.
- backward unrolls each run's patches again from the input the training
  forward kept (no full-batch patch matrix is kept) and adds the run's
  weight gradient patches.T @ grad in run order; then it unrolls the
  run's output gradient into the same patch buffer and multiplies it by
  the flipped kernel into the run's input gradient. Both round unlike
  the full-batch product and the col2im scatter they replaced, so the
  training bits changed once with each.
- CnnModel fuses each block of a conv of more than one channel, then a
  Relu, then a MaxPool2x2: every forward sets fused on those three
  layers (False on every other conv, ReLU and pool), and the marks stay
  until the next forward; a layer used on its own keeps fused = False.
  A fused conv pools each run's product as soon as it is in a run-sized
  buffer, keeps one uint8 winning tap per window, and applies the ReLU
  to each pooled run; the fused ReLU and pool hand their input through.
  On the way back the ReLU masks the pooled gradient as always, and the
  conv routes each run of it through the taps into the run-sized buffer
  and carries the bias gradient's column sums into the next run as a
  leading row, which continues the row order of one full-batch
  g.sum(axis=0). So no full-batch conv output, pool input gradient or
  ReLU output exists, and for a finite gradient every bit matches the
  layers run one by one. A NaN in the pooled gradient, in a window
  whose max is <= 0, is the exception: the ReLU mask keeps it (NaN * 0
  is NaN), and the fused conv routes it to the window's first maximum
  before the ReLU, where the layers run one by one send it to the first
  tap after the ReLU, a tied 0.

The runs are near-equal in length, not full runs plus a short rest: a
product split by rows keeps the bits of the whole product only while
every piece runs through the BLAS general kernel, and a one-row piece
goes to a matrix-vector kernel that rounds differently. A convolution
whose input needs no gradient (a CnnModel's first layer, on every
forward) has input_grad set to False: its backward skips the gradient's
unroll and product.

Full-batch buffers live per layer, keyed by shape, which spares
re-faulting their pages on every call: a fused conv's pooled output
and taps, else its product; an unfused ReLU's output or pool's input
gradient. Each conv's bordered runs (of its input and of its output
gradient) are its own, since their border is written once. The
run-sized patches and product are leading elements of flat buffers in
the conv's workspace, which grow to the largest request: 9 c_in patch
columns to infer, 9 max(c_in, c_out) to train. CnnModel gives all its
convs one workspace, as only one conv runs at a time. An array a layer
returns is only valid until that layer's next forward or backward:
consume it first, as every trainer does. Layers keep references to
their inputs, not copies, so an input must stay unchanged until the
backward that follows its forward.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import DimensionError
from ..numerics import Tensor

# Patch rows per convolution run. A constant, never taken from the
# machine, so every host splits the products alike.
_ROWS = 2048


def _pooled(store: dict, name: str, shape, alloc=np.empty, dtype=np.float64) -> np.ndarray:
    buf = store.get(name)
    if buf is None or buf.shape != shape:
        buf = store[name] = alloc(shape, dtype)
    return buf


def _lead(work: dict, name: str, *shape) -> np.ndarray:
    """The leading elements of work[name], a flat buffer that grows to the
    largest request, shaped as asked."""
    size = math.prod(shape)
    if len(work.get(name, ())) < size:
        work[name] = None  # free the smaller one first
        work[name] = np.empty(size)
    return work[name][:size].reshape(shape)


def _cached(value, layer: str):
    """value, the forward cache a backward reads, unless no forward set it."""
    if value is None:
        raise DimensionError(f"{layer} backward needs a forward first")
    return value


def _check(grad: Tensor, shape: tuple, layer: str) -> None:
    if grad.shape != shape:
        raise DimensionError(f"{layer} gradient shape {grad.shape} does not match forward")


def _runs(n: int, rows_per_image: int) -> list:
    """Image bounds of near-equal runs covering n images, each run at
    most _ROWS patch rows long or a single image; the last run is the
    longest."""
    per_run = max(1, _ROWS // rows_per_image)
    count = max(1, -(-n // per_run))
    return [n * i // count for i in range(count + 1)]


def _max_pool(x: Tensor, out: Tensor, taps=None) -> None:
    """The 2x2 max of each window of x (m, h, w, c) into out (m, h/2, w/2,
    c). With taps, also each window's winning tap as a uint8 0-3 in
    row-major order: its first maximum, or its first NaN, as np.argmax
    picks. A NaN tap makes its window's max NaN, so without a NaN in out
    no tap needs the NaN test."""
    m, h, w, c = x.shape
    t = x.reshape(m, h // 2, 2, w // 2, 2, c)
    np.maximum(t[:, :, 0, :, 0], t[:, :, 0, :, 1], out=out)
    np.maximum(out, t[:, :, 1, :, 0], out=out)
    np.maximum(out, t[:, :, 1, :, 1], out=out)
    if taps is None:
        return
    # With lose_k = 1 where tap k neither equals the max nor is a NaN, the
    # winning tap is lose_0 * (1 + lose_1 * (1 + lose_2)), built from the
    # inside out in uint8 arithmetic (a masked copy per tap is ~8x slower).
    has_nan = bool(np.isnan(out).any())
    lose = np.empty(out.shape, dtype=bool)
    taps.fill(1)
    for k in (2, 1, 0):
        tap = t[:, :, k // 2, :, k % 2]
        np.not_equal(tap, out, out=lose)
        if has_nan:
            lose &= ~np.isnan(tap)
        taps *= lose.view(np.uint8)
        if k:
            taps += 1


def _unpool(grad: Tensor, taps, gx: Tensor) -> None:
    """Route each window's gradient in grad (m, h/2, w/2, c) to its tap in
    taps, writing gx (m, h, w, c). Bit patterns times 0 or 1 write an
    exact +0.0 to the other three taps and keep a -0.0 or a NaN as it is."""
    m, h, w, c = gx.shape
    gt = gx.reshape(m, h // 2, 2, w // 2, 2, c)
    gbits = np.asarray(grad, dtype=np.float64).view(np.int64)
    take = np.empty(taps.shape, dtype=bool)
    for k in range(4):
        np.equal(taps, k, out=take)
        np.multiply(gbits, take, out=gt[:, :, k // 2, :, k % 2].view(np.int64))


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

    Both directions walk the batch in runs (see the module docstring); a
    training forward keeps a reference to its input, from which backward
    unrolls each run again. With forward_only set, forward keeps nothing
    and backward raises DimensionError. With input_grad False, backward
    accumulates the parameter gradients only and returns a read-only
    all-NaN array of the input's shape in place of the input gradient.

    With fused set (CnnModel sets it on every forward when this conv has
    more than one output channel and a Relu and then a MaxPool2x2 follow
    it; on its own it stays False), forward returns the ReLU of the 2x2
    max-pool of the output and keeps each window's winning tap, and the
    backward that follows takes the pooled gradient, which the Relu has
    already masked. Values and bits are those of the layers run one
    after the other.
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
        self.input_grad = True
        self.forward_only = self.fused = False
        self._pool: dict = {}
        self._work: dict = {}
        self._x = self._taps = None

    def _wmat(self) -> Tensor:
        # (9*in, out) in the patch row order: taps row-major, channels fastest.
        return self.weights.transpose(2, 3, 1, 0).reshape(-1, self.out_channels)

    def _patches(self, x: Tensor, border: str) -> Tensor:
        """The images x (one run) unrolled, through the bordered run buffer
        named border, into the leading elements of the patch buffer."""
        m, h, w, c = x.shape
        run = self._pool[border][:m]
        run[:, 1:-1, 1:-1, :] = x
        # Patch (i, j)'s tap row di is run[:, i + di, j : j + 3] flattened.
        s0, s1, s2, s3 = run.strides
        taps = as_strided(run, (m, h, w, 3, 3 * c), (s0, s1, s2, s1, s3), writeable=False)
        patches = _lead(self._work, "run_cols", m * h * w, 9 * c)
        np.copyto(patches.reshape(taps.shape), taps)
        return patches

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise DimensionError(f"conv expects (n, h, w, {self.in_channels}), got {x.shape}")
        n, h, w, c = x.shape
        o = self.out_channels
        if self.fused and (h % 2 or w % 2):
            raise DimensionError(f"pooling needs even extents, got {h}x{w}")
        runs = _runs(n, h * w)
        longest = runs[-1] - runs[-2]
        _pooled(self._pool, "border", (longest, h + 2, w + 2, c), np.zeros)
        # a training backward unrolls the output gradient into it too
        width = c if self.forward_only or not self.input_grad else max(c, o)
        _lead(self._work, "run_cols", longest * h * w, 9 * width)
        wmat = self._wmat()
        taps = None
        if self.fused:
            # Row 0 is left for backward's bias-gradient carry.
            run_out = _lead(self._work, "run_out", longest * h * w + 1, o)
            out = _pooled(self._pool, "pooled", (n, h // 2, w // 2, o))
            if not self.forward_only:
                taps = _pooled(self._pool, "taps", out.shape, dtype=np.uint8)
            for a, b in zip(runs, runs[1:]):
                y = np.matmul(self._patches(x[a:b], "border"), wmat, out=run_out[1 : (b - a) * h * w + 1])
                y += self.bias
                _max_pool(y.reshape(b - a, h, w, -1), out[a:b], None if taps is None else taps[a:b])
                np.maximum(out[a:b], 0.0, out=out[a:b])
        else:
            out = _pooled(self._pool, "out", (n * h * w, o))
            for a, b in zip(runs, runs[1:]):
                np.matmul(self._patches(x[a:b], "border"), wmat, out=out[a * h * w : b * h * w])
            out += self.bias
            out = out.reshape(n, h, w, o)
        self._x = None if self.forward_only else x
        self._taps = taps
        return out

    def backward(self, grad_out: Tensor) -> Tensor:
        x = self._x
        if x is None:
            raise DimensionError(
                "conv backward needs a training forward first: the last forward "
                "was forward-only, or its input was spent by an earlier backward"
            )
        n, h, w, c = x.shape
        o = self.out_channels
        taps = self._taps
        _check(grad_out, (n, h, w, o) if taps is None else taps.shape, "conv")
        self._x = self._taps = None
        # A fresh gx keeps the peak RSS below a pooled one.
        runs = _runs(n, h * w)
        if taps is None:
            g = np.ascontiguousarray(grad_out).reshape(-1, o)
            gb = g.sum(axis=0)
        else:
            run_out = _lead(self._work, "run_out", (runs[-1] - runs[-2]) * h * w + 1, o)
        gw = self.grad_weights.transpose(2, 3, 1, 0)
        if self.input_grad:
            wflip = self.weights[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c)
            _pooled(self._pool, "gborder", (runs[-1] - runs[-2], h + 2, w + 2, o), np.zeros)
            gx = np.empty((n, h, w, c))
        else:
            gx = np.broadcast_to(np.nan, x.shape)
        for a, b in zip(runs, runs[1:]):
            if taps is None:
                g_run = g[a * h * w : b * h * w]
            else:
                g_run = run_out[1 : (b - a) * h * w + 1]
                _unpool(grad_out[a:b], taps[a:b], g_run.reshape(b - a, h, w, -1))
                # The bias gradient continues the column sums of g.sum(axis=0)
                # over the whole batch, which adds the rows in order from the
                # first: the running sum goes in as a leading row, starting
                # from the first run's rows (a +0.0 start would turn an all
                # -0.0 column positive).
                if a:
                    run_out[0] = gb
                    gb = run_out[: len(g_run) + 1].sum(axis=0)
                else:
                    gb = g_run.sum(axis=0)
            gw += (self._patches(x[a:b], "border").T @ g_run).reshape(gw.shape)
            if self.input_grad:
                patches = self._patches(g_run.reshape(b - a, h, w, o), "gborder")
                np.matmul(patches, wflip, out=gx[a:b].reshape(-1, c))
        self.grad_bias += gb
        return gx


class MaxPool2x2(Layer):
    """Non-overlapping 2x2 max. Each window's gradient goes to its first
    maximum in row-major order, or to its first NaN, as np.argmax picks;
    every other input gets an exact +0.0. forward keeps each window's
    winning tap (one uint8), not its input.

    With fused set (CnnModel sets it on every forward when this pool ends
    a conv -> ReLU -> pool block whose conv pools its own output; on its
    own it stays False), forward and the backward after it hand their
    input through.
    """

    def __init__(self):
        self.fused = False
        self._pool: dict = {}
        self._out = None
        self._taps = None

    def forward(self, x: Tensor) -> Tensor:
        if self.fused:
            self._out, self._taps = x, None
            return x
        if x.ndim != 4:
            raise DimensionError(f"pool expects (n, h, w, c), got {x.shape}")
        n, h, w, c = x.shape
        if h % 2 or w % 2:
            raise DimensionError(f"pooling needs even extents, got {h}x{w}")
        out = np.empty((n, h // 2, w // 2, c))
        self._taps = np.empty(out.shape, dtype=np.uint8)
        _max_pool(x, out, self._taps)
        self._out = out
        return out

    def backward(self, grad_out: Tensor) -> Tensor:
        out = _cached(self._out, "pool")
        _check(grad_out, out.shape, "pool")
        if self._taps is None:
            return grad_out
        n, h, w, c = out.shape
        gx = _pooled(self._pool, "gx", (n, 2 * h, 2 * w, c))
        _unpool(grad_out, self._taps, gx)
        return gx


class Relu(Layer):
    """max(x, 0). With fused set (CnnModel sets it on every forward for
    the ReLU between a conv and a pool that the conv fuses; on its own it
    stays False), forward hands its input through, as the conv has
    already applied the ReLU run by run. backward always masks grad_out
    in place by the forward's output being positive."""

    def __init__(self):
        self.fused = False
        self._pool: dict = {}
        self._out = None

    def forward(self, x: Tensor) -> Tensor:
        self._out = x if self.fused else np.maximum(x, 0.0, out=_pooled(self._pool, "out", x.shape))
        return self._out

    def backward(self, grad_out: Tensor) -> Tensor:
        out = _cached(self._out, "relu")
        _check(grad_out, out.shape, "relu")
        return np.multiply(grad_out, out > 0.0, out=grad_out)


class Flatten(Layer):
    def __init__(self):
        self._in_shape = None

    def forward(self, x: Tensor) -> Tensor:
        self._in_shape = x.shape
        return np.ascontiguousarray(x).reshape(x.shape[0], -1)

    def backward(self, grad_out: Tensor) -> Tensor:
        shape = _cached(self._in_shape, "flatten")
        _check(grad_out, (shape[0], math.prod(shape[1:])), "flatten")
        return grad_out.reshape(shape)


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
        x = _cached(self._x, "dense")
        _check(grad_out, (len(x), self.out_features), "dense")
        self.grad_weights += grad_out.T @ x
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
        out = _cached(self._out, "sigmoid")
        _check(grad_out, out.shape, "sigmoid")
        return grad_out * out * (1.0 - out)
