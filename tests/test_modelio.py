import io
import struct

import numpy as np
import pytest

from conftest import make_shapes_dataset
from glyphlab import (
    CnnModel,
    CorruptFileError,
    MlrModel,
    Rng,
    load_model,
    param_count,
    predict_proba,
    reference_cnn,
    save_model,
    write_gly,
)
from glyphlab.cli import main
from glyphlab.models.layers import Conv2d, Dense


def random_mlr(rng, n_classes=4, n_features=9):
    w = rng.uniform_array((n_classes, n_features), -2, 2)
    b = rng.uniform_array(n_classes, -1, 1)
    names = tuple(f"class{i:03d}" for i in range(n_classes))
    return MlrModel(w, b, names)


class TestRoundTrip:
    def test_mlr_bitwise(self):
        rng = Rng(1)
        for _ in range(10):
            model = random_mlr(rng, 2 + rng.randrange(30), 1 + rng.randrange(40))
            buf = io.BytesIO()
            save_model(model, buf)
            back = load_model(io.BytesIO(buf.getvalue()))
            assert isinstance(back, MlrModel)
            assert np.array_equal(back.w, model.w)
            assert np.array_equal(back.b, model.b)

    def test_mlr_file_bytes_stable(self):
        model = random_mlr(Rng(2))
        b1, b2 = io.BytesIO(), io.BytesIO()
        save_model(model, b1)
        save_model(load_model(io.BytesIO(b1.getvalue())), b2)
        assert b1.getvalue() == b2.getvalue()

    def test_cnn_bitwise(self):
        model = reference_cnn(32, seed=7)
        buf = io.BytesIO()
        save_model(model, buf)
        back = load_model(io.BytesIO(buf.getvalue()))
        assert isinstance(back, CnnModel)
        assert param_count(back) == param_count(model)
        for a, b in zip(model.params, back.params):
            assert np.array_equal(a, b)

    def test_cnn_predictions_survive_round_trip(self, tmp_path):
        model = reference_cnn(32, seed=9)
        path = tmp_path / "m.gmd"
        save_model(model, path)
        back = load_model(path)
        x = Rng(10).uniform_array((4, 32, 32))
        assert np.array_equal(predict_proba(model, x), predict_proba(back, x))


class TestCorruptFiles:
    def _cnn_bytes(self):
        buf = io.BytesIO()
        save_model(reference_cnn(32, seed=3), buf)
        return buf.getvalue()

    def test_bad_magic(self):
        with pytest.raises(CorruptFileError):
            load_model(io.BytesIO(b"XXXX" + self._cnn_bytes()[4:]))

    def test_bad_version(self):
        data = bytearray(self._cnn_bytes())
        data[4:8] = struct.pack("<I", 9)
        with pytest.raises(CorruptFileError):
            load_model(io.BytesIO(bytes(data)))

    def test_unknown_kind(self):
        data = bytearray(self._cnn_bytes())
        data[8] = 7
        with pytest.raises(CorruptFileError):
            load_model(io.BytesIO(bytes(data)))

    def test_truncated_payload(self):
        data = self._cnn_bytes()
        with pytest.raises(CorruptFileError):
            load_model(io.BytesIO(data[: len(data) // 2]))

    def test_parameter_count_mismatch(self):
        data = bytearray(self._cnn_bytes())
        data[-8:] = struct.pack("<Q", 1)
        with pytest.raises(CorruptFileError):
            load_model(io.BytesIO(bytes(data)))

    def test_loaded_names_are_placeholders(self):
        back = load_model(io.BytesIO(self._cnn_bytes()))
        assert back.class_names == ("class000", "class001")

    # The first record is conv1: tag byte at 13, u32 rank at 14, extents from 18.
    @pytest.mark.parametrize(
        "offset, patch",
        [
            (14, struct.pack("<I", 65)),
            (18, struct.pack("<4I", 1, 1, 2**32 - 1, 2**32 - 1)),  # int64 product wraps negative
        ],
        ids=["conv_rank_65", "extents_product_wraps"],
    )
    def test_malformed_conv_record(self, tmp_path, offset, patch):
        data = bytearray(self._cnn_bytes())
        data[offset : offset + len(patch)] = patch
        model = tmp_path / "bad.gmd"
        model.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError):
            load_model(model)
        val = tmp_path / "val.gly"
        write_gly(make_shapes_dataset(2, side=32, seed=1), val)
        rc = main(["evaluate", "--model", str(model), "--data", str(val),
                   "--out-csv", str(tmp_path / "e.csv"), "--roc-svg", str(tmp_path / "e.svg")])
        assert rc == 3


class TestLayerChain:
    """A file whose channel or feature chain does not connect is corrupt."""

    @staticmethod
    def _broken_cnn(index, layer):
        model = reference_cnn(32, seed=5)
        model.layers[index] = layer
        return model

    @pytest.mark.parametrize(
        "index, layer",
        [
            (0, Conv2d(2, 32)),  # images carry one channel
            (3, Conv2d(16, 32)),  # conv1 puts out 32 channels
            (-2, Dense(64, 1)),  # the hidden dense layer puts out 128
        ],
        ids=["first_conv_in", "conv_chain", "dense_chain"],
    )
    def test_inconsistent_chain_is_corrupt(self, tmp_path, index, layer):
        model = tmp_path / "bad.gmd"
        save_model(self._broken_cnn(index, layer), model)
        with pytest.raises(CorruptFileError):
            load_model(model)
        val = tmp_path / "val.gly"
        write_gly(make_shapes_dataset(2, side=32, seed=1), val)
        rc = main(["evaluate", "--model", str(model), "--data", str(val),
                   "--out-csv", str(tmp_path / "e.csv"), "--roc-svg", str(tmp_path / "e.svg")])
        assert rc == 3
