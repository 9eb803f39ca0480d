"""GMD1 model serialization.

Layout (integers little-endian, parameters 64-bit floats):

    magic 'GMD1' | u32 version=1 | u8 kind (0 = regression, 1 = conv net)
    | u32 layer_count
    | per layer: u8 tag | u32 rank | rank x u32 extents | f64 payload
    | u64 total_parameter_count

Layer tags: 0 conv3x3, 1 maxpool2x2, 2 relu, 3 flatten, 4 dense,
5 sigmoid. Parametered layers (conv, dense) describe their weight shape
in the extents and carry prod(extents) weight values followed by
extents[0] bias values; the other tags have rank 0 and no payload. The
trailing count is the sum of all payload lengths and is verified on
read, and every parameter must be finite. Class names are not part of
the format; loaded models carry placeholder names until bound to a
dataset's class table.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..dataset import read_source, write_sink
from ..errors import ArgumentError, CorruptFileError
from .cnn import CnnModel
from .layers import Conv2d, Dense, Flatten, MaxPool2x2, Relu, Sigmoid
from .mlr import MlrModel

_MAGIC = b"GMD1"
_VERSION = 1
_KIND_MLR = 0
_KIND_CNN = 1

_TAG_CONV = 0
_TAG_POOL = 1
_TAG_RELU = 2
_TAG_FLATTEN = 3
_TAG_DENSE = 4
_TAG_SIGMOID = 5

_PLAIN_TAGS = {MaxPool2x2: _TAG_POOL, Relu: _TAG_RELU, Flatten: _TAG_FLATTEN, Sigmoid: _TAG_SIGMOID}
_PLAIN_LAYERS = {tag: cls for cls, tag in _PLAIN_TAGS.items()}


def _pack_record(tag: int, weights=None, bias=None) -> bytes:
    if weights is None:
        return struct.pack("<BI", tag, 0)
    extents = weights.shape
    blob = struct.pack("<BI", tag, len(extents))
    blob += struct.pack(f"<{len(extents)}I", *extents)
    blob += weights.astype("<f8").tobytes()
    blob += bias.astype("<f8").tobytes()
    return blob


def placeholder_names(n_classes: int) -> tuple:
    """Sorted, collision-free stand-in class names for loaded models."""
    return tuple(f"class{i:03d}" for i in range(n_classes))


def save_model(model, sink) -> int:
    """Serialize an MlrModel or CnnModel; returns bytes written."""
    records = []
    total = 0
    if isinstance(model, MlrModel):
        kind = _KIND_MLR
        records.append(_pack_record(_TAG_DENSE, model.w, model.b))
        total = model.w.size + model.b.size
    elif isinstance(model, CnnModel):
        kind = _KIND_CNN
        for layer in model.layers:
            if isinstance(layer, (Conv2d, Dense)):
                tag = _TAG_CONV if isinstance(layer, Conv2d) else _TAG_DENSE
                records.append(_pack_record(tag, layer.weights, layer.bias))
                total += layer.weights.size + layer.bias.size
            else:
                records.append(_pack_record(_PLAIN_TAGS[type(layer)]))
    else:
        raise ArgumentError(f"cannot serialize object of type {type(model).__name__}")

    blob = _MAGIC + struct.pack("<IBI", _VERSION, kind, len(records))
    blob += b"".join(records)
    blob += struct.pack("<Q", total)

    return write_sink(sink, blob)


def _unpack_rank(data: bytes, pos: int):
    if pos + 4 > len(data):
        raise CorruptFileError("GMD1 record header truncated")
    (rank,) = struct.unpack_from("<I", data, pos)
    return rank, pos + 4


def _unpack_params(data: bytes, pos: int, tag: int):
    rank, pos = _unpack_rank(data, pos)
    want = 4 if tag == _TAG_CONV else 2
    if rank != want:
        raise CorruptFileError(f"layer tag {tag} must have rank {want}, got {rank}")
    if pos + 4 * rank > len(data):
        raise CorruptFileError("GMD1 extents truncated")
    extents = struct.unpack_from(f"<{rank}I", data, pos)
    pos += 4 * rank
    # Python ints: a product of u32 extents must not wrap before the size check.
    n_w = math.prod(extents)
    n_b = extents[0]
    if pos + 8 * (n_w + n_b) > len(data):
        raise CorruptFileError("GMD1 parameter payload truncated")
    weights = np.frombuffer(data, dtype="<f8", count=n_w, offset=pos).reshape(extents).copy()
    pos += 8 * n_w
    bias = np.frombuffer(data, dtype="<f8", count=n_b, offset=pos).copy()
    pos += 8 * n_b
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise CorruptFileError(f"layer tag {tag} holds non-finite parameters")
    return weights, bias, pos


def load_model(source):
    """Parse a GMD1 file into an MlrModel or CnnModel."""
    data = read_source(source)
    if len(data) < 4 or data[:4] != _MAGIC:
        raise CorruptFileError("bad GMD1 magic")
    if len(data) < 13:
        raise CorruptFileError("GMD1 header truncated")
    version, kind, count = struct.unpack_from("<IBI", data, 4)
    if version != _VERSION:
        raise CorruptFileError(f"unsupported GMD1 version {version}")
    if kind not in (_KIND_MLR, _KIND_CNN):
        raise CorruptFileError(f"unknown GMD1 model kind {kind}")

    pos = 13
    layers = []
    total = 0
    channels = 1  # images enter the first conv with one channel
    features = None  # the previous dense layer's output width
    for _ in range(count):
        if pos + 1 > len(data):
            raise CorruptFileError("GMD1 layer record truncated")
        tag = data[pos]
        pos += 1
        if tag == _TAG_CONV:
            weights, bias, pos = _unpack_params(data, pos, tag)
            if weights.shape[2:] != (3, 3):
                raise CorruptFileError(f"conv weights must be (out, in, 3, 3), got {weights.shape}")
            if weights.shape[1] != channels:
                raise CorruptFileError(
                    f"conv layer takes {weights.shape[1]} channels, but {channels} reach it"
                )
            channels = weights.shape[0]
            conv = Conv2d(weights.shape[1], weights.shape[0])
            conv.weights[...] = weights
            conv.bias[...] = bias
            layers.append(conv)
            total += weights.size + bias.size
        elif tag == _TAG_DENSE:
            weights, bias, pos = _unpack_params(data, pos, tag)
            if features is not None and weights.shape[1] != features:
                raise CorruptFileError(
                    f"dense layer takes {weights.shape[1]} inputs, but {features} reach it"
                )
            features = weights.shape[0]
            dense = Dense(weights.shape[1], weights.shape[0])
            dense.weights[...] = weights
            dense.bias[...] = bias
            layers.append(dense)
            total += weights.size + bias.size
        elif tag in _PLAIN_LAYERS:
            rank, pos = _unpack_rank(data, pos)
            if rank != 0:
                raise CorruptFileError(f"layer tag {tag} must have rank 0, got {rank}")
            layers.append(_PLAIN_LAYERS[tag]())
        else:
            raise CorruptFileError(f"unknown GMD1 layer tag {tag}")

    if pos + 8 > len(data):
        raise CorruptFileError("GMD1 trailing parameter count missing")
    (declared,) = struct.unpack_from("<Q", data, pos)
    if declared != total:
        raise CorruptFileError(f"GMD1 parameter count mismatch: header {declared}, payload {total}")

    if kind == _KIND_MLR:
        if len(layers) != 1 or not isinstance(layers[0], Dense):
            raise CorruptFileError("regression file must hold exactly one dense record")
        dense = layers[0]
        return MlrModel(dense.weights, dense.bias, placeholder_names(dense.weights.shape[0]))
    return CnnModel(layers, placeholder_names(2))
