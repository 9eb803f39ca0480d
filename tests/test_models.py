import math

import numpy as np
import pytest

from conftest import make_blob_dataset, make_shapes_dataset
from glyphlab import (
    ArgumentError,
    LabeledDataset,
    Rng,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    bce_loss,
    cnn_train,
    mlr_train,
    param_count,
    predict_proba,
    reference_cnn,
    rmsprop_init,
    rmsprop_step,
)
from glyphlab.models.cnn import _bce_grad
from glyphlab.models.mlr import softmax_rows


class TestBceLoss:
    def test_half_probability(self):
        assert bce_loss(0.5, 1) == pytest.approx(math.log(2.0))
        assert bce_loss(0.5, 0) == pytest.approx(math.log(2.0))

    def test_clamped_perfection(self):
        assert bce_loss(1.0, 1) <= 1e-11
        assert bce_loss(0.0, 0) <= 1e-11

    def test_hand_value(self):
        assert bce_loss(0.9, 1) == pytest.approx(0.10536051565782628)


class TestRmsprop:
    def test_zero_gradient_leaves_params(self):
        p = [np.array([1.0, 2.0])]
        g = [np.zeros(2)]
        state = rmsprop_init(p)
        state.caches[0][...] = 0.5
        rmsprop_step(p, g, state, lr=0.1, rho=0.9)
        assert p[0].tolist() == [1.0, 2.0]
        assert np.allclose(state.caches[0], 0.45)  # cache decays by rho

    def test_hand_step(self):
        p = [np.array([0.0])]
        g = [np.array([1.0])]
        state = rmsprop_init(p)
        rmsprop_step(p, g, state, lr=1e-4, rho=0.9, eps=1e-8)
        assert state.caches[0][0] == pytest.approx(0.1)
        assert p[0][0] == pytest.approx(-3.1623e-4, rel=1e-4)

    def test_equal_gradients_update_identically(self):
        p = [np.array([5.0, 5.0])]
        g = [np.array([0.3, 0.3])]
        state = rmsprop_init(p)
        rmsprop_step(p, g, state, lr=0.01)
        assert p[0][0] == p[0][1]

    def test_descends_quadratic_bowl(self):
        for lr in (1e-2, 1e-3):
            x = np.array([0.7])
            state = rmsprop_init([x])
            loss0 = 0.5 * float(x[0] ** 2)
            rmsprop_step([x], [x.copy()], state, lr=lr)
            assert 0.5 * float(x[0] ** 2) < loss0


class TestMlrTrain:
    def test_separable_blobs_reach_full_accuracy(self):
        ds = make_blob_dataset(30, seed=3)
        cfg = TrainConfig(epochs=500, batch_size=1, learning_rate=0.1, l2=1e-4, seed=0)
        model, history = mlr_train(ds, ds, cfg)
        assert history.train_acc[-1] == 1.0

    def test_zero_epochs_uniform_predictions(self):
        ds = make_blob_dataset(5, seed=4)
        cfg = TrainConfig(epochs=0, batch_size=1, learning_rate=0.1, seed=0)
        model, history = mlr_train(ds, ds, cfg)
        assert len(history) == 0
        p = predict_proba(model, ds.images)
        assert np.allclose(p, 0.5)
        # a zero-initialized model scores mean cross-entropy ln C
        loss = -np.log(p[np.arange(ds.n), ds.labels]).mean()
        assert loss == pytest.approx(math.log(2.0))

    def test_predict_rows_sum_to_one(self):
        ds = make_blob_dataset(8, seed=12)
        model, _ = mlr_train(ds, ds, TrainConfig(epochs=30, batch_size=1, learning_rate=0.1))
        p = predict_proba(model, ds.images)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert ((p >= 0.0) & (p <= 1.0)).all()

    def test_gradient_matches_finite_differences(self):
        rng = Rng(6)
        n, d, c = 12, 4, 3
        x = rng.uniform_array((n, d), -1, 1)
        labels = np.array([i % c for i in range(n)])
        w = rng.uniform_array((c, d), -0.5, 0.5)
        b = rng.uniform_array(c, -0.5, 0.5)
        onehot = np.eye(c)[labels]
        l2 = 1e-3

        def loss():
            p = softmax_rows(x @ w.T + b)
            return float(-np.mean(np.log(p[np.arange(n), labels])) + 0.5 * l2 * np.sum(w * w))

        p = softmax_rows(x @ w.T + b)
        grad_w = (p - onehot).T @ x / n + l2 * w
        grad_b = (p - onehot).sum(axis=0) / n
        eps = 1e-6
        for arr, grad in ((w, grad_w), (b, grad_b)):
            flat = arr.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss()
                flat[i] = orig - eps
                down = loss()
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                a = grad.reshape(-1)[i]
                assert abs(a - fd) <= 1e-6 * max(1.0, abs(a))

    def test_single_class_rejected(self):
        ds = LabeledDataset(np.zeros((4, 1, 2)), np.zeros(4, dtype=np.int64), ("a", "b"))
        with pytest.raises(ArgumentError):
            mlr_train(ds, ds, TrainConfig(epochs=1, learning_rate=0.1))

    def test_row_order_invariance(self):
        ds = make_blob_dataset(12, seed=8)
        perm = list(range(ds.n))
        Rng(9).shuffle(perm)
        shuffled = ds.select(perm)
        cfg = TrainConfig(epochs=40, batch_size=1, learning_rate=0.1, seed=5)
        m1, h1 = mlr_train(ds, ds, cfg)
        m2, h2 = mlr_train(shuffled, ds, cfg)
        assert np.array_equal(m1.w, m2.w)
        assert h1.train_loss == h2.train_loss


class TestTrainConfigAndHistory:
    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ArgumentError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("l2", [math.nan, math.inf, -1e-4])
    def test_rejects_bad_l2(self, l2):
        with pytest.raises(ArgumentError, match="l2"):
            TrainConfig(l2=l2)

    def test_divergence_names_epoch_and_first_non_finite_quantity(self):
        h = TrainHistory()
        for _ in range(3):
            h.append(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(TrainingDivergedError, match=r"^training diverged at epoch 3: val_loss is nan$"):
            h.append(0.5, 0.5, math.nan, math.inf)
        with pytest.raises(TrainingDivergedError, match="epoch 3: train_acc is -inf"):
            h.append(0.5, -math.inf, math.nan, 0.5)
        assert len(h) == 3 and isinstance(TrainingDivergedError("x"), ArgumentError)


class TestParamCount:
    def test_empty_model(self):
        from glyphlab import CnnModel

        assert param_count(CnnModel([])) == 0

    def test_single_dense(self):
        from glyphlab import CnnModel
        from glyphlab.models.layers import Dense

        assert param_count(CnnModel([Dense(10, 1)])) == 11


class TestReferenceCnn:
    def test_parameter_count_64(self):
        assert param_count(reference_cnn(64)) == 204_641

    def test_scalar_probability_output(self):
        model = reference_cnn(32, seed=1)
        p = predict_proba(model, Rng(2).uniform_array((3, 32, 32)))
        assert p.shape == (3,)
        assert ((p > 0.0) & (p < 1.0)).all()

    def test_indivisible_side_rejected(self):
        with pytest.raises(ArgumentError):
            reference_cnn(48)

    def test_block_structure(self):
        names = [type(l).__name__ for l in reference_cnn(32).layers]
        assert names == (
            ["Conv2d", "Relu", "MaxPool2x2"] * 5 + ["Flatten", "Dense", "Relu", "Dense", "Sigmoid"]
        )


class TestCnnTrain:
    def test_zero_epochs(self):
        train = make_shapes_dataset(2, side=32, seed=1)
        model, history = cnn_train(train, train, TrainConfig(epochs=0, learning_rate=1e-3))
        assert len(history) == 0

    def test_deterministic_history(self):
        train = make_shapes_dataset(4, side=32, seed=2, noise=0.1)
        val = make_shapes_dataset(2, side=32, seed=3, noise=0.1)
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=11)
        _, h1 = cnn_train(train, val, cfg)
        _, h2 = cnn_train(train, val, cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss

    def test_row_order_invariance(self):
        train = make_shapes_dataset(4, side=32, seed=4, noise=0.1)
        perm = list(range(train.n))
        Rng(5).shuffle(perm)
        shuffled = train.select(perm)
        val = make_shapes_dataset(2, side=32, seed=6, noise=0.1)
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=7)
        m1, h1 = cnn_train(train, val, cfg)
        m2, h2 = cnn_train(shuffled, val, cfg)
        assert h1.train_loss == h2.train_loss
        for a, b in zip(m1.params, m2.params):
            assert np.array_equal(a, b)

    def test_class_count_enforced(self):
        bad = LabeledDataset(np.zeros((6, 32, 32)), np.array([0, 1, 2] * 2), ("a", "b", "c"))
        with pytest.raises(ArgumentError):
            cnn_train(bad, bad, TrainConfig(epochs=1, learning_rate=1e-3))

    def test_converges_on_separable_toy(self):
        train = make_shapes_dataset(10, side=32, seed=20)
        cfg = TrainConfig(epochs=20, batch_size=4, learning_rate=2e-3, seed=21)
        model, history = cnn_train(train, train, cfg)
        p = predict_proba(model, train.images)
        assert float(bce_loss(p, train.labels).mean()) < 0.1


class TestEndToEndGradient:
    def test_full_network_matches_finite_differences(self):
        # one-sample batch through the whole reference stack, at 5
        # random parameter points
        eps = 1e-6
        for point in range(5):
            model = reference_cnn(32, seed=100 + point)
            x = Rng(200 + point).uniform_array((1, 32, 32, 1))
            y = np.array([float(point % 2)])

            def loss():
                return float(bce_loss(model.forward(x), y).mean())

            loss()
            model.zero_grads()
            model.backward(_bce_grad(model.forward(x), y))

            coord_rng = Rng(300 + point)
            for p, g in zip(model.params, model.grads):
                flat = p.reshape(-1)
                gflat = g.reshape(-1)
                for _ in range(2):
                    i = coord_rng.randrange(flat.size)
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = loss()
                    flat[i] = orig - eps
                    down = loss()
                    flat[i] = orig
                    fd = (up - down) / (2 * eps)
                    denom = max(abs(gflat[i]), abs(fd))
                    if denom > 1e-4:
                        assert abs(gflat[i] - fd) / denom < 1e-5
                    else:
                        assert abs(gflat[i] - fd) < 1e-9
