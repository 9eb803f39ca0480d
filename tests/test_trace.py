"""The benchmark's tracer still sees every CNN layer call.

perfbench/tracer.py wraps each layer's forward and backward on its class
and times them from outside the package; the benchmark's span-count
self-check expects one conv, ReLU and pool span per block, direction and
batch. This runs the tracer unchanged on a tiny train-cnn and counts.
"""

import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from conftest import make_shapes_dataset
from glyphlab import write_gly

ROOT = Path(__file__).resolve().parents[1]


def test_train_cnn_traces_one_span_per_layer_and_batch(tmp_path):
    n_train, n_val, batch, epochs = 8, 4, 4, 2
    write_gly(make_shapes_dataset(n_train // 2, side=32, seed=1), tmp_path / "train.gly")
    write_gly(make_shapes_dataset(n_val // 2, side=32, seed=2), tmp_path / "val.gly")
    pythonpath = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath),
               PERFBENCH_SPAWN_NS=str(time.time_ns()))
    spans_out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_out),
         "train-cnn", "--train", "train.gly", "--val", "val.gly", "--augment", "lossy",
         "--epochs", str(epochs), "--batch", str(batch), "--seed", "3",
         "--model-out", "m.gmd", "--history-out", "h.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans_out.read_text())
    assert record["exit_code"] == 0
    got = Counter(s[0] for s in record["spans"])

    steps = epochs * math.ceil(n_train / batch)
    chunks = epochs * math.ceil(n_val / batch)  # validation forwards
    assert got["cnn.forward"] == steps + chunks and got["cnn.backward"] == steps
    want = {}
    for direction, calls in (("fwd", steps + chunks), ("bwd", steps)):
        for k in range(1, 6):
            for kind in ("conv", "relu", "pool"):
                want[f"layers.{kind}{k}.{direction}"] = calls
    assert {name: got[name] for name in want} == want
