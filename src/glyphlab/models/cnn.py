"""Binary convolutional classifier and its RMSProp training loop.

The reference network is a pyramid: five conv/pool blocks whose spatial
extent halves while channels grow 1 -> 32 -> 32 -> 64 -> 64 -> 128,
then a 128-unit dense layer and a sigmoid output. At 64x64 input that
is 204,641 trainable parameters. Forward and backward walk the layers
in their stored (GMD1) order, a block being conv -> ReLU -> pool. Every
forward marks each conv of more than one channel that a ReLU and then a
pool follow directly, and that ReLU and pool, with fused = True (every
other conv, ReLU and pool gets False); the marks stay until the next
forward, and a layer used on its own keeps fused = False. A marked conv
pools its output run by run and applies the ReLU to the pooled quarter
of the values, the marked ReLU and pool hand the pooled tensor through,
and on the way back the ReLU masks the pooled gradient and the conv
routes it to the winning taps. Max commutes with ReLU, so the values
are those of each layer run on its own; a window whose max is positive
routes its gradient to the same tap, and otherwise only a zero moves,
which changes no sum's bits while the gradient is finite. (A NaN in
such a window's gradient reaches another tap than layer by layer: see
layers.py.) The convs share one run-sized workspace
for their patches and products. Loss is binary cross-entropy; training
augments each epoch's shuffled batch stream with fresh draws, keeps
validation clean, and returns the parameters from the epoch with the
lowest validation loss.
"""

from __future__ import annotations

import numpy as np

from ..augment import augment_batch
from ..dataset import LabeledDataset, content_order
from ..errors import ArgumentError, DimensionError
from ..numerics import Rng, Tensor, derive_seed, glorot_init
from .config import TrainConfig, TrainHistory
from .layers import Conv2d, Dense, Flatten, Layer, MaxPool2x2, Relu, Sigmoid
from .optim import rmsprop_init, rmsprop_step

_EPS_P = 1e-12
_TAG_INIT = 0x494E4954
_TAG_SHUFFLE = 0x53485546


class CnnModel:
    """An ordered layer stack ending in a scalar class-1 probability."""

    def __init__(self, layers: list[Layer], class_names=("0", "1")):
        self.layers = list(layers)
        self.class_names = tuple(class_names)
        work: dict = {}  # one conv runs at a time
        for layer in self.layers:
            if isinstance(layer, Conv2d):
                layer._work = work

    def forward(self, x: Tensor) -> Tensor:
        # Mark the blocks this forward fuses (see the module docstring); each
        # backward reads what its forward kept. A one-channel conv stays
        # unmarked: numpy sums its lone bias column pairwise, which a
        # run-by-run carry cannot reproduce. Only the first layer's input,
        # the images, needs no gradient.
        layers = self.layers
        marks = [False] * len(layers)
        for i, conv in enumerate(layers):
            if isinstance(conv, Conv2d):
                conv.input_grad = i > 0
                relu, pool = [*layers[i + 1 : i + 3], None, None][:2]
                if conv.out_channels > 1 and isinstance(relu, Relu) and isinstance(pool, MaxPool2x2):
                    marks[i : i + 3] = True, True, True
        for layer, mark in zip(layers, marks):
            if isinstance(layer, (Conv2d, Relu, MaxPool2x2)):
                layer.fused = mark
        for layer in layers:
            x = layer.forward(x)
        return x.reshape(-1)

    def backward(self, grad_p: Tensor) -> None:
        g = np.asarray(grad_p, dtype=np.float64).reshape(-1, 1)
        for layer in reversed(self.layers):
            g = layer.backward(g)

    @property
    def params(self) -> list:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list:
        return [g for layer in self.layers for g in layer.grads]

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def copy_params(self) -> list:
        return [p.copy() for p in self.params]

    def load_params(self, values: list) -> None:
        for p, v in zip(self.params, values, strict=True):
            if p.shape != v.shape:
                raise DimensionError(f"parameter shape mismatch: {p.shape} vs {v.shape}")
            p[...] = v

    def predict_proba(self, images: Tensor, chunk: int = 32) -> Tensor:
        """Scalar probability per image, evaluated in memory-bounded chunks
        by forward-only convolutions, which keep no input for a backward;
        after it, backward raises DimensionError until the next training
        forward. Its patch buffers are run-sized and are the ones a
        training step at the same batch already allocated. A chunk below 1
        raises ArgumentError."""
        if chunk < 1:
            raise ArgumentError(f"chunk must be >= 1, got {chunk}")
        x = np.asarray(images, dtype=np.float64)
        if x.ndim != 3:
            raise DimensionError(f"expected (n, h, w) images, got shape {x.shape}")
        out = np.empty(len(x))
        convs = [layer for layer in self.layers if isinstance(layer, Conv2d)]
        for conv in convs:
            conv.forward_only = True
        try:
            for start in range(0, len(x), chunk):
                batch = x[start : start + chunk][:, :, :, None]
                out[start : start + chunk] = self.forward(batch)
        finally:
            for conv in convs:
                conv.forward_only = False
        return out


def reference_cnn(side: int, seed: int = 0, class_names=("0", "1")) -> CnnModel:
    """Five conv/pool blocks plus dense head, Glorot-initialized.

    side must be divisible by 32 so the five pooling stages land on an
    integer grid; 64 gives a 2x2x128 = 512-wide flatten.
    """
    if side < 32 or side % 32:
        raise ArgumentError(f"input side must be a positive multiple of 32, got {side}")
    rng = Rng(derive_seed(seed, _TAG_INIT))
    channels = [1, 32, 32, 64, 64, 128]
    layers: list[Layer] = []
    for c_in, c_out in zip(channels, channels[1:]):
        conv = Conv2d(c_in, c_out)
        fan_in = c_in * 9
        conv.weights[...] = glorot_init(rng, fan_in, c_out, conv.weights.shape)
        layers += [conv, Relu(), MaxPool2x2()]
    flat = (side // 32) ** 2 * channels[-1]
    hidden = Dense(flat, 128)
    hidden.weights[...] = glorot_init(rng, flat, 128, hidden.weights.shape)
    head = Dense(128, 1)
    head.weights[...] = glorot_init(rng, 128, 1, head.weights.shape)
    layers += [Flatten(), hidden, Relu(), head, Sigmoid()]
    return CnnModel(layers, class_names)


def param_count(model: CnnModel) -> int:
    return sum(p.size for p in model.params)


def bce_loss(p, y):
    """Binary cross-entropy with probabilities clamped to
    [1e-12, 1 - 1e-12]; elementwise over matching shapes."""
    p = np.clip(np.asarray(p, dtype=np.float64), _EPS_P, 1.0 - _EPS_P)
    y = np.asarray(y, dtype=np.float64)
    out = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float(out) if out.ndim == 0 else out


def _bce_grad(p, y):
    """d(mean BCE)/dp per element, consistent with the clamped loss."""
    pc = np.clip(p, _EPS_P, 1.0 - _EPS_P)
    return (-y / pc + (1.0 - y) / (1.0 - pc)) / len(p)


def cnn_train(
    train: LabeledDataset, val: LabeledDataset, cfg: TrainConfig
) -> tuple[CnnModel, TrainHistory]:
    """Mini-batch RMSProp training of the reference network.

    Exactly two classes are required. Each epoch reshuffles the
    canonicalized sample order with a seeded stream, augments the
    epoch's training images with fresh draws (validation is never
    augmented), and records mean batch loss/accuracy plus full
    validation metrics. The returned model carries the parameters from
    the epoch with minimum validation loss.
    """
    if len(train.class_names) != 2:
        raise ArgumentError(
            f"binary training needs exactly 2 classes, got {len(train.class_names)}"
        )
    h, w = train.image_shape
    if h != w or h % 32:
        raise ArgumentError(f"images must be square with side divisible by 32, got {h}x{w}")

    order = content_order(train)
    n = len(order)

    model = reference_cnn(h, seed=cfg.seed, class_names=train.class_names)
    state = rmsprop_init(model.params)
    history = TrainHistory()
    best_params = model.copy_params()
    best_val = np.inf

    shuffle_rng = Rng(derive_seed(cfg.seed, _TAG_SHUFFLE))
    # A diverging run is reported once, by the TrainingDivergedError that
    # TrainHistory.append raises, not also by numpy's overflow warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = list(range(n))
            shuffle_rng.shuffle(perm)
            # augment_batch reads the epoch's images from the caller's
            # stack by index: no content-ordered or epoch-sized gather.
            pick = order[perm]
            y_epoch = train.labels[pick].astype(np.float64)
            x_epoch = augment_batch(train.images, cfg.augment_policy, cfg.seed, counter=epoch, index=pick)

            loss_sum = 0.0
            correct = 0.0
            for start in range(0, n, cfg.batch_size):
                xb = x_epoch[start : start + cfg.batch_size][:, :, :, None]
                yb = y_epoch[start : start + cfg.batch_size]
                p = model.forward(xb)
                loss_sum += float(bce_loss(p, yb).sum())
                correct += float(np.sum((p >= 0.5) == (yb == 1.0)))

                model.zero_grads()
                model.backward(_bce_grad(p, yb))
                if cfg.l2 > 0.0:
                    for prm, grd in zip(model.params, model.grads):
                        grd += cfg.l2 * prm
                rmsprop_step(model.params, model.grads, state, cfg.learning_rate)
            del x_epoch, xb  # so the next epoch's batch is drawn with this one freed

            val_p = model.predict_proba(val.images, chunk=cfg.batch_size)
            val_loss = float(bce_loss(val_p, val.labels).mean())
            val_acc = float(np.mean((val_p >= 0.5) == (val.labels == 1)))
            history.append(loss_sum / n, correct / n, val_loss, val_acc)
            if val_loss < best_val:
                best_val = val_loss
                best_params = model.copy_params()

    model.load_params(best_params)
    return model, history
