"""Seeded mutation fuzz of the file loaders and of the CLI exit codes.

Every mutated GLY1, GMD1 or P5 file must either load or raise a
GlyphLabError, and the CLI must exit 0, 2 or 3 on it. The mutations
(byte flips, truncation, insertion, 0x7fffffff length fields) come from
fixed Rng seeds, so a failure reproduces exactly.
"""

import contextlib
import io
import struct

import numpy as np
import pytest

from glyphlab import (
    CnnModel,
    CorruptFileError,
    GlyphLabError,
    GrayImage,
    LabeledDataset,
    MlrModel,
    Rng,
    load_model,
    load_pgm,
    read_gly,
    save_model,
    write_gly,
    write_pgm,
)
from glyphlab.cli import main
from glyphlab.models.layers import Conv2d, Dense, Flatten, MaxPool2x2, Relu, Sigmoid

_LONG = 0x7FFFFFFF


def _base_files() -> dict:
    """Small valid files: a 2-class 4x4 dataset, a regression model and a
    conv net that fit it, and a 3x2 graymap."""
    rng = Rng(1)
    ds = LabeledDataset(rng.uniform_array((6, 4, 4)).round(2), np.arange(6) % 2, ("a", "b"))
    conv = Conv2d(1, 2)
    conv.weights[...] = rng.normal_array(conv.weights.shape)
    dense = Dense(8, 1)
    dense.weights[...] = rng.normal_array(dense.weights.shape)
    cnn = CnnModel([conv, Relu(), MaxPool2x2(), Flatten(), dense, Sigmoid()], ("a", "b"))
    mlr = MlrModel(rng.normal_array((2, 16)), rng.normal_array(2), ("a", "b"))
    files = {"gly": io.BytesIO(), "mlr": io.BytesIO(), "cnn": io.BytesIO()}
    write_gly(ds, files["gly"])
    save_model(mlr, files["mlr"])
    save_model(cnn, files["cnn"])
    files = {k: v.getvalue() for k, v in files.items()}
    files["pgm"] = write_pgm(GrayImage(3, 2, np.arange(6, dtype=np.uint8)))
    return files


BASE = _base_files()
LOADERS = {
    "gly": lambda b: read_gly(io.BytesIO(b)),
    "mlr": lambda b: load_model(io.BytesIO(b)),
    "cnn": lambda b: load_model(io.BytesIO(b)),
    "pgm": load_pgm,
}


def _long_field(kind: str) -> bytes:
    """0x7fffffff as the format writes a length: ASCII in the P5 header,
    a little-endian u32 in the binary formats."""
    return str(_LONG).encode() if kind == "pgm" else struct.pack("<I", _LONG)


def _mutate(data: bytes, rng: Rng, kind: str) -> bytes:
    b = bytearray(data)
    op = rng.randrange(4)
    if op == 0:  # flip one to three bytes
        for _ in range(1 + rng.randrange(3)):
            b[rng.randrange(len(b))] ^= 1 + rng.randrange(255)
    elif op == 1:  # truncate
        del b[rng.randrange(len(b)):]
    elif op == 2:  # insert one to eight random bytes
        at = rng.randrange(len(b) + 1)
        b[at:at] = bytes(rng.randrange(256) for _ in range(1 + rng.randrange(8)))
    else:  # overwrite with a huge length field
        at = rng.randrange(len(b))
        field = _long_field(kind)
        b[at : at + len(field)] = field
    return bytes(b)


def _loads_or_raises_glyphlab_error(kind: str, data: bytes) -> None:
    try:
        LOADERS[kind](data)
    except GlyphLabError:
        pass


@pytest.mark.parametrize("kind", sorted(BASE))
class TestLoaderFuzz:
    def test_base_file_loads(self, kind):
        LOADERS[kind](BASE[kind])

    def test_every_truncation(self, kind):
        for end in range(len(BASE[kind])):
            with pytest.raises(GlyphLabError):
                LOADERS[kind](BASE[kind][:end])

    def test_long_field_at_every_offset(self, kind):
        field = _long_field(kind)
        for at in range(len(BASE[kind])):
            b = bytearray(BASE[kind])
            b[at : at + len(field)] = field
            _loads_or_raises_glyphlab_error(kind, bytes(b))

    def test_seeded_mutations(self, kind):
        rng = Rng(0x46555A5A + len(kind) + len(BASE[kind]))
        for _ in range(1500):
            _loads_or_raises_glyphlab_error(kind, _mutate(BASE[kind], rng, kind))


def _nan_first_weight(kind: str) -> bytes:
    """The model file with its first weight (after the 13-byte header,
    the record's tag and rank, and its 2 or 4 extents) set to NaN."""
    at = 13 + 1 + 4 + 4 * (2 if kind == "mlr" else 4)
    b = bytearray(BASE[kind])
    b[at : at + 8] = struct.pack("<d", float("nan"))
    return bytes(b)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("kind", ["mlr", "cnn"])
    def test_nan_parameter_is_corrupt(self, kind):
        with pytest.raises(CorruptFileError, match="non-finite"):
            load_model(io.BytesIO(_nan_first_weight(kind)))


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestCliExitCodes:
    def test_mutated_inputs_exit_0_2_or_3(self, tmp_path):
        rng = Rng(0x434C4946)
        model, data = tmp_path / "m.gmd", tmp_path / "d.gly"
        codes = set()
        for k in range(48):
            kind = "mlr" if k % 2 else "cnn"
            model.write_bytes(BASE[kind])
            data.write_bytes(BASE["gly"])
            if k % 3 == 0:
                model.write_bytes(_mutate(BASE[kind], rng, kind))
            else:
                data.write_bytes(_mutate(BASE["gly"], rng, "gly"))
            # The reader filtered by --classes runs on every other tsne
            # and, past the first 36 mutations, in a distmap of each
            # mutated data file that no tsne reads.
            classes = ["--classes", "a,b"] if k % 2 else []
            if k % 3 == 2:
                argv = ["tsne", "--input", str(data), "--iters", "4", "--perplexity", "2", *classes,
                        "--out-csv", str(tmp_path / "t.csv"), "--out-svg", str(tmp_path / "t.svg")]
            elif k >= 36 and k % 3 == 1:
                argv = ["distmap", "--input", str(data), "--classes", "a,b",
                        "--out-csv", str(tmp_path / "d.csv"), "--out-svg", str(tmp_path / "d.svg")]
            else:
                argv = ["evaluate", "--model", str(model), "--data", str(data),
                        "--out-csv", str(tmp_path / "e.csv"), "--roc-svg", str(tmp_path / "e.svg")]
            rc = _run_quietly(argv)
            assert rc in (0, 2, 3), (k, argv[0], rc)
            codes.add(rc)
        assert {0, 3} <= codes

    def test_nan_weight_model_exits_3(self, tmp_path):
        (tmp_path / "m.gmd").write_bytes(_nan_first_weight("cnn"))
        (tmp_path / "d.gly").write_bytes(BASE["gly"])
        rc = _run_quietly(["evaluate", "--model", str(tmp_path / "m.gmd"), "--data", str(tmp_path / "d.gly"),
                           "--out-csv", str(tmp_path / "e.csv"), "--roc-svg", str(tmp_path / "e.svg")])
        assert rc == 3
