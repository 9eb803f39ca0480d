import numpy as np
import pytest

from glyphlab import (
    ArgumentError,
    Rng,
    TrainHistory,
    UndefinedCurveError,
    accuracy,
    auc,
    confusion_matrix,
    macro_auc_ovr,
    overfit_epoch,
    roc_curve,
)


def mann_whitney(scores, labels):
    """Brute force over all (positive, negative) pairs, ties counted half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def history_with(val_loss):
    h = TrainHistory()
    for v in val_loss:
        h.append(0.0, 0.0, v, 0.0)
    return h


class TestRocCurve:
    def test_nan_score_rejected(self):
        with pytest.raises(ArgumentError, match="NaN"):
            roc_curve([0.9, float("nan"), 0.2], [1, 0, 0])

    def test_perfect_separation_passes_corner(self):
        curve = roc_curve([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
        assert (0.0, 1.0) in curve.points
        assert auc(curve) == 1.0

    def test_all_ties_is_the_diagonal(self):
        curve = roc_curve([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0])
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))
        assert auc(curve) == 0.5

    def test_staircase_hand_value(self):
        curve = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert auc(curve) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedCurveError):
            roc_curve([0.1, 0.2], [1, 1])

    def test_coordinates_monotone_and_bounded(self):
        rng = Rng(3)
        for _ in range(50):
            n = 4 + rng.randrange(40)
            scores = [rng.randrange(6) / 5.0 for _ in range(n)]
            labels = [rng.randrange(2) for _ in range(n)]
            if len(set(labels)) < 2:
                continue
            curve = roc_curve(scores, labels)
            fs = [f for f, _ in curve.points]
            ts = [t for _, t in curve.points]
            assert fs == sorted(fs) and ts == sorted(ts)
            assert min(fs) == 0.0 and max(fs) == 1.0
            assert min(ts) == 0.0 and max(ts) == 1.0


class TestAuc:
    def test_equals_mann_whitney_with_ties(self):
        rng = Rng(7)
        done = 0
        while done < 200:
            n = 4 + rng.randrange(47)
            # mix continuous and coarsely quantized scores to force ties
            if done % 2 == 0:
                scores = [rng.randrange(8) / 7.0 for _ in range(n)]
            else:
                scores = [rng.uniform() for _ in range(n)]
            labels = [rng.randrange(2) for _ in range(n)]
            if len(set(labels)) < 2:
                continue
            got = auc(roc_curve(scores, labels))
            want = mann_whitney(scores, labels)
            assert abs(got - want) <= 1e-12
            done += 1

    def test_invariant_under_monotone_transform(self):
        rng = Rng(9)
        scores = [rng.uniform() for _ in range(30)]
        labels = [rng.randrange(2) for _ in range(30)]
        labels[0], labels[1] = 0, 1
        base = auc(roc_curve(scores, labels))
        warped = auc(roc_curve([np.exp(3 * s) for s in scores], labels))
        assert warped == pytest.approx(base, abs=1e-12)


class TestMacroAucOvr:
    def test_one_hot_perfect(self):
        labels = [0, 1, 2, 0, 1, 2]
        probs = np.eye(3)[labels]
        per_class, macro = macro_auc_ovr(probs, labels)
        assert per_class.tolist() == [1.0, 1.0, 1.0]
        assert macro == 1.0

    def test_uniform_probabilities_are_chance(self):
        labels = [0, 1, 0, 1, 0, 1]
        probs = np.full((6, 2), 0.5)
        per_class, macro = macro_auc_ovr(probs, labels)
        assert per_class.tolist() == [0.5, 0.5]
        assert macro == 0.5

    def test_absent_class_named(self):
        with pytest.raises(UndefinedCurveError) as err:
            macro_auc_ovr(np.full((4, 3), 1 / 3), [0, 1, 0, 1])
        assert "2" in str(err.value)


class TestConfusion:
    def test_perfect_predictions(self):
        cm = confusion_matrix([0, 1, 2], [0, 1, 2], 3)
        assert np.array_equal(cm.m, np.eye(3, dtype=np.int64))
        assert accuracy(cm) == 1.0

    def test_constant_predictor_single_column(self):
        cm = confusion_matrix([1, 1, 1, 1], [0, 1, 0, 1], 2)
        assert cm.m[:, 0].tolist() == [0, 0]
        assert cm.m[:, 1].tolist() == [2, 2]

    def test_hand_counts(self):
        cm = confusion_matrix([0, 1, 1, 1], [0, 0, 1, 1], 2)
        assert cm.m.tolist() == [[1, 1], [0, 2]]
        assert accuracy(cm) == pytest.approx(0.75)

    def test_total_and_permutation_invariance(self):
        rng = Rng(5)
        true = [rng.randrange(4) for _ in range(60)]
        pred = [rng.randrange(4) for _ in range(60)]
        cm = confusion_matrix(pred, true, 4)
        assert int(cm.m.sum()) == 60
        perm = list(range(60))
        rng.shuffle(perm)
        cm2 = confusion_matrix([pred[i] for i in perm], [true[i] for i in perm], 4)
        assert np.array_equal(cm.m, cm2.m)

    def test_out_of_range_label(self):
        with pytest.raises(ArgumentError):
            confusion_matrix([0, 3], [0, 1], 2)


class TestOverfitEpoch:
    def test_strictly_decreasing_never_overfits(self):
        assert overfit_epoch(history_with([1.0, 0.9, 0.8, 0.7, 0.6])) is None

    def test_direct_scan_example(self):
        assert overfit_epoch(history_with([1.0, 0.5, 0.6, 0.7, 0.8]), patience=3) == 1

    def test_patience_longer_than_tail(self):
        assert overfit_epoch(history_with([1.0, 0.5, 0.6, 0.7]), patience=3) is None

    def test_plateau_is_not_overfitting(self):
        assert overfit_epoch(history_with([0.5, 0.5, 0.5, 0.5, 0.5]), patience=3) is None

    def test_empty_history_rejected(self):
        with pytest.raises(ArgumentError):
            overfit_epoch(history_with([]))
