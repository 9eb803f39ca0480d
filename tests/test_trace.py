"""The benchmark's tracer still sees every CNN layer call.

perfbench/tracer.py wraps each layer's forward and backward on its class
and times them from outside the package; the benchmark's span-count
self-check expects one conv, ReLU and pool span per block, direction and
batch. This runs the tracer unchanged on a tiny train-cnn and evaluate
and counts, and on an evaluate of a hand-built net whose blocks run
layer by layer.
"""

import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
from conftest import make_shapes_dataset
from glyphlab import CnnModel, reference_cnn, save_model, write_gly
from glyphlab.models.layers import Conv2d, Dense, Flatten, MaxPool2x2, Relu, Sigmoid

ROOT = Path(__file__).resolve().parents[1]


def trace(tmp_path, argv):
    """Run glyphlab argv in tmp_path under the tracer: the span-name counts."""
    pythonpath = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath),
               PERFBENCH_SPAWN_NS=str(time.time_ns()))
    spans_out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_out), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans_out.read_text())
    assert record["exit_code"] == 0
    return Counter(s[0] for s in record["spans"])


def layer_spans(direction, calls):
    return {f"layers.{kind}{k}.{direction}": calls
            for k in range(1, 6) for kind in ("conv", "relu", "pool")}


def test_train_cnn_traces_one_span_per_layer_and_batch(tmp_path):
    n_train, n_val, batch, epochs = 8, 4, 4, 2
    write_gly(make_shapes_dataset(n_train // 2, side=32, seed=1), tmp_path / "train.gly")
    write_gly(make_shapes_dataset(n_val // 2, side=32, seed=2), tmp_path / "val.gly")
    got = trace(tmp_path, [
        "train-cnn", "--train", "train.gly", "--val", "val.gly", "--augment", "lossy",
        "--epochs", str(epochs), "--batch", str(batch), "--seed", "3",
        "--model-out", "m.gmd", "--history-out", "h.csv"])

    steps = epochs * math.ceil(n_train / batch)
    chunks = epochs * math.ceil(n_val / batch)  # validation forwards
    assert got["cnn.forward"] == steps + chunks and got["cnn.backward"] == steps
    want = {**layer_spans("fwd", steps + chunks), **layer_spans("bwd", steps)}
    assert {name: got[name] for name in want} == want


def test_evaluate_traces_forward_spans_per_chunk_only(tmp_path):
    n_test, chunk = 40, 32  # evaluate scores in chunks of 32: two forwards
    write_gly(make_shapes_dataset(n_test // 2, side=32, seed=4), tmp_path / "test.gly")
    save_model(reference_cnn(32, seed=5), tmp_path / "cnn.gmd")
    got = trace(tmp_path, ["evaluate", "--model", "cnn.gmd", "--data", "test.gly",
                           "--out-csv", "eval.csv", "--roc-svg", "roc.svg"])

    chunks = math.ceil(n_test / chunk)
    assert got["cnn.predict_proba"] == 1 and got["cnn.forward"] == chunks
    want = layer_spans("fwd", chunks)
    assert {name: got[name] for name in want} == want
    assert got["cnn.backward"] == 0
    assert not [name for name in got if name.endswith(".bwd")]


def test_evaluate_traces_unfused_blocks_per_chunk(tmp_path):
    # A one-channel conv -> ReLU -> pool and a conv -> pool with no ReLU
    # run layer by layer; the last block fuses.
    rng = np.random.default_rng(6)
    layers = [Conv2d(1, 1), Relu(), MaxPool2x2(), Conv2d(1, 3), MaxPool2x2(),
              Conv2d(3, 2), Relu(), MaxPool2x2(), Flatten(), Dense(32, 1), Sigmoid()]
    for layer in layers:
        if isinstance(layer, (Conv2d, Dense)):
            layer.weights[...] = rng.normal(size=layer.weights.shape)
    n_test, chunk = 40, 32
    write_gly(make_shapes_dataset(n_test // 2, side=32, seed=7), tmp_path / "test.gly")
    save_model(CnnModel(layers), tmp_path / "cnn.gmd")
    got = trace(tmp_path, ["evaluate", "--model", "cnn.gmd", "--data", "test.gly",
                           "--out-csv", "eval.csv", "--roc-svg", "roc.svg"])

    chunks = math.ceil(n_test / chunk)
    labels = ["conv1", "relu1", "pool1", "conv2", "pool2", "conv3", "relu2", "pool3", "dense", "sigmoid"]
    assert got["cnn.forward"] == chunks
    assert {name: count for name, count in got.items() if name.startswith("layers.")} == {
        f"layers.{label}.fwd": chunks for label in labels}
