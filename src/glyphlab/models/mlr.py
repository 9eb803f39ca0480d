"""Multinomial logistic regression trained by full-batch descent.

The objective is mean cross-entropy plus an L2 ridge on the weights;
its gradient is (P - Y_onehot)^T X / n + l2 * W. Weights start at zero,
so the objective is convex and the run is exactly reproducible; the
internal sample order is canonicalized first, which makes the result
independent of how the caller happened to order the dataset rows.

Memory: with augmentation, training holds one augmented batch, which
augment_batch warps straight from the caller's images in content order,
and frees each epoch's batch before the next is drawn; without it,
training holds one content-ordered copy of the images. `train-mlr
--augment lossy` on 1,200 64x64 images (39 MB a copy) peaks at 112 MB
of RSS, where it held the ordered copy too at 153 MB; on 4,080 64x64
images in 34 classes (134 MB a copy, the size of the paper's CGCL set)
it peaks at 310 MB, where it peaked at 450 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..augment import augment_batch
from ..dataset import LabeledDataset, content_order
from ..errors import ArgumentError, DimensionError
from ..numerics import Tensor
from .config import TrainConfig, TrainHistory


@dataclass
class MlrModel:
    """Weight matrix (classes x flattened pixels) plus bias vector."""

    w: Tensor
    b: Tensor
    class_names: tuple

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.class_names = tuple(self.class_names)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ArgumentError(f"inconsistent parameter shapes {self.w.shape} / {self.b.shape}")
        if len(self.class_names) != self.w.shape[0] or len(self.class_names) < 2:
            raise ArgumentError("need one class name per weight row, at least two")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ArgumentError("model parameters must be finite")

    def predict_proba(self, images: Tensor) -> Tensor:
        x = np.asarray(images, dtype=np.float64).reshape(len(images), -1)
        if x.shape[1] != self.w.shape[1]:
            raise DimensionError(
                f"expected {self.w.shape[1]} features per image, got {x.shape[1]}"
            )
        return softmax_rows(_logits(x, self.w, self.b))


def _logits(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b, summed in an order fixed by the operands' shapes.

    einsum, not BLAS: numpy's einsum loop runs in the calling thread and
    adds each row's feature products in an order set by the shapes and
    strides alone, while OpenBLAS splits the product by its thread count
    (at 784 features a 1 and a 2 thread run gave different bits).
    """
    return np.einsum("nf,kf->nk", x, w) + b


def softmax_rows(z: Tensor) -> Tensor:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _ce_loss(p: Tensor, labels: np.ndarray, w: Tensor, l2: float) -> float:
    picked = np.maximum(p[np.arange(len(labels)), labels], 1e-300)
    return float(-np.mean(np.log(picked)) + 0.5 * l2 * np.sum(w * w))


def mlr_train(
    train: LabeledDataset, val: LabeledDataset, cfg: TrainConfig
) -> tuple[MlrModel, TrainHistory]:
    """Fit the regression on train, tracking val metrics each epoch.

    cfg.augment_policy, when not the identity, re-augments the training
    images with fresh draws before each epoch's gradient; validation is
    never augmented. Every epoch is one full-batch gradient step, so
    cfg.batch_size is never read: any value gives the same bytes.
    """
    if len(set(train.labels.tolist())) < 2:
        raise ArgumentError("training set must contain at least 2 classes")
    order = content_order(train)
    labels = train.labels[order]
    n = len(order)
    n_classes = len(train.class_names)
    # An augmented run warps each epoch's batch straight from train.images
    # in content order; an unaugmented one trains on one ordered copy.
    ordered = train.images[order].reshape(n, -1) if cfg.augment_policy.is_identity else None

    x_val = val.images.reshape(val.n, -1)
    y_val = val.labels
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0

    w = np.zeros((n_classes, train.images[0].size))
    b = np.zeros(n_classes)
    history = TrainHistory()
    # A diverging run is reported once, by the TrainingDivergedError that
    # TrainHistory.append raises, not also by numpy's overflow warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            if ordered is None:
                x = augment_batch(
                    train.images, cfg.augment_policy, cfg.seed, counter=epoch, index=order
                ).reshape(n, -1)
            else:
                x = ordered
            p = softmax_rows(_logits(x, w, b))
            resid = p - onehot
            # einsum, not BLAS: OpenBLAS splits this sum over the samples
            # into blocks that depend on its thread count (the bits of a
            # 1 and a 2 thread run differed at 1,200 samples, not at 512).
            grad_w = np.einsum("nk,nf->kf", resid, x) / n + cfg.l2 * w
            del x  # so the next epoch's batch is drawn with this one freed
            grad_b = resid.sum(axis=0) / n
            train_loss = _ce_loss(p, labels, w, cfg.l2)
            train_acc = float(np.mean(p.argmax(axis=1) == labels))

            w = w - cfg.learning_rate * grad_w
            b = b - cfg.learning_rate * grad_b

            p_val = softmax_rows(_logits(x_val, w, b))
            history.append(
                train_loss,
                train_acc,
                _ce_loss(p_val, y_val, w, cfg.l2),
                float(np.mean(p_val.argmax(axis=1) == y_val)),
            )
    return MlrModel(w, b, train.class_names), history
