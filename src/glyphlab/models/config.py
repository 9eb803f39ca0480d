"""Shared training configuration and per-epoch history records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..augment import AugmentPolicy, preset
from ..errors import ArgumentError, TrainingDivergedError


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-4
    l2: float = 0.0
    seed: int = 0
    augment_policy: AugmentPolicy = field(default_factory=lambda: preset("none"))

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ArgumentError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ArgumentError("epochs must be >= 0 and batch_size >= 1")
        if not (math.isfinite(self.l2) and self.l2 >= 0.0):
            raise ArgumentError(f"l2 must be finite and >= 0, got {self.l2}")


def mlr_defaults(**overrides) -> TrainConfig:
    """Full-batch logistic-regression defaults: lr 0.1, l2 1e-4, 500 epochs.
    mlr_train never reads batch_size, so its value here changes nothing."""
    base = dict(epochs=500, batch_size=1, learning_rate=0.1, l2=1e-4)
    base.update(overrides)
    return TrainConfig(**base)


def cnn_defaults(**overrides) -> TrainConfig:
    """Convolutional-network defaults: RMSProp lr 1e-4, batch 32, 30 epochs."""
    base = dict(epochs=30, batch_size=32, learning_rate=1e-4)
    base.update(overrides)
    return TrainConfig(**base)


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)

    def append(self, tl: float, ta: float, vl: float, va: float) -> None:
        """Record one epoch; a non-finite value raises
        TrainingDivergedError naming the epoch (numbered from 0, as in
        the history CSV) and the first non-finite quantity."""
        for name, v in zip(("train_loss", "train_acc", "val_loss", "val_acc"), (tl, ta, vl, va)):
            if not math.isfinite(v):
                raise TrainingDivergedError(f"training diverged at epoch {len(self)}: {name} is {v}")
        self.train_loss.append(float(tl))
        self.train_acc.append(float(ta))
        self.val_loss.append(float(vl))
        self.val_acc.append(float(va))

    def __len__(self) -> int:
        return len(self.val_loss)
