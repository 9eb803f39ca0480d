"""Evaluation machinery: ROC curves, AUC, confusion matrices, accuracy,
and detection of the epoch where validation loss starts deteriorating.

Tied scores are grouped into single ROC points, which draws diagonal
segments through tie blocks and makes the trapezoidal area equal the
Mann-Whitney statistic (ties counted half) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, UndefinedCurveError
from .numerics import Tensor


@dataclass(frozen=True)
class RocCurve:
    """Points (fpr, tpr) from (0,0) to (1,1), plus the score threshold
    that admits each point's positive set."""

    points: tuple
    thresholds: tuple

    def __post_init__(self):
        pts = tuple((float(f), float(t)) for f, t in self.points)
        if len(pts) < 2 or pts[0] != (0.0, 0.0) or pts[-1] != (1.0, 1.0):
            raise ArgumentError("curve must run from (0,0) to (1,1)")
        for (f0, t0), (f1, t1) in zip(pts, pts[1:]):
            if f1 < f0 or t1 < t0:
                raise ArgumentError("curve coordinates must be non-decreasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts m[true, predicted]."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.int64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ArgumentError(f"confusion matrix must be square, got {m.shape}")
        if (m < 0).any():
            raise ArgumentError("confusion matrix entries must be >= 0")
        object.__setattr__(self, "m", m)


def roc_curve(scores, labels) -> RocCurve:
    """Receiver operating characteristic of binary scores.

    Scores are sorted descending; each distinct score contributes one
    point covering its whole tie group.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size == 0:
        raise ArgumentError("scores and labels must be equal-length non-empty vectors")
    if np.isnan(scores).any():
        raise ArgumentError("scores must not be NaN")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedCurveError("both classes must be present to draw a curve")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]

    points = [(0.0, 0.0)]
    thresholds = [np.inf]
    tp = fp = 0
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        tp += int(np.sum(y[i:j] == 1))
        fp += int(np.sum(y[i:j] == 0))
        points.append((fp / n_neg, tp / n_pos))
        thresholds.append(float(s[i]))
        i = j
    return RocCurve(tuple(points), tuple(thresholds))


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the curve; equals the probability a random
    positive outscores a random negative, ties counted half."""
    area = 0.0
    for (f0, t0), (f1, t1) in zip(curve.points, curve.points[1:]):
        area += (f1 - f0) * (t0 + t1) / 2.0
    return area


def macro_auc_ovr(probabilities: Tensor, labels) -> tuple[np.ndarray, float]:
    """One-vs-rest AUC per class plus their unweighted mean.

    Column c of probabilities scores class c against the rest; every
    class must occur in labels.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ArgumentError(f"need an (n, C) probability matrix with C >= 2, got {p.shape}")
    if p.shape[0] != labels.size:
        raise ArgumentError("probabilities and labels disagree on sample count")
    per_class = np.empty(p.shape[1])
    for c in range(p.shape[1]):
        mask = (labels == c).astype(np.int64)
        if mask.sum() == 0:
            raise UndefinedCurveError(f"class {c} absent from labels")
        per_class[c] = auc(roc_curve(p[:, c], mask))
    return per_class, float(per_class.mean())


def confusion_matrix(pred_labels, true_labels, n_classes: int) -> ConfusionMatrix:
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape:
        raise ArgumentError("prediction and truth vectors must align")
    if pred.size and (pred.min() < 0 or pred.max() >= n_classes or true.min() < 0 or true.max() >= n_classes):
        raise ArgumentError(f"labels must lie in [0, {n_classes})")
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (true, pred), 1)
    return ConfusionMatrix(m)


def accuracy(cm: ConfusionMatrix) -> float:
    total = int(cm.m.sum())
    if total == 0:
        raise ArgumentError("accuracy undefined for an empty confusion matrix")
    return float(np.trace(cm.m)) / total


def overfit_epoch(history, patience: int = 3):
    """Index of the validation-loss minimum, reported only when the
    following `patience` epochs all sit strictly above it; None when
    training never deteriorates long enough to call it overfitting."""
    val = list(history.val_loss)
    if not val:
        raise ArgumentError("history is empty")
    best = min(range(len(val)), key=lambda i: (val[i], i))
    window = val[best + 1 : best + 1 + patience]
    if len(window) < patience:
        return None
    if all(v > val[best] for v in window):
        return best
    return None
