"""Memory budgets: each command holds at most one float64 copy of its
dataset (of the classes it reads), the helpers it calls build no
full-size temporaries, tSNE holds one n x n P beside its caller's
distances, UPGMA holds two squares of its active clusters, a CNN
training step keeps no full-batch patch matrix, conv output, ReLU output
or pool gradient, and text outputs are written without a bytes copy.

numpy reports its array buffers to tracemalloc, so a traced peak counts
them next to Python objects. Each test bounds the peak of one call above
what was already allocated when it started.
"""

import tracemalloc

import numpy as np

from glyphlab import (
    LabeledDataset, Rng, TsneConfig, hcluster_average, ingest_dir, pairwise_euclidean, read_gly,
    reference_cnn, tsne, write_gly,
)
from glyphlab.augment import preset
from glyphlab.cli import _write_text
from glyphlab.models import mlr_train
from glyphlab.models.cnn import _bce_grad
from glyphlab.models.config import mlr_defaults
from glyphlab.models.layers import _runs, Conv2d, MaxPool2x2

MiB = 2**20


def traced_peak(fn, *args):
    """(result, bytes at the peak of fn(*args) above the bytes before)."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base


def arrays(layer):
    """The arrays a layer holds, directly or in a dict of buffers."""
    for v in vars(layer).values():
        for a in v.values() if isinstance(v, dict) else [v]:
            if isinstance(a, np.ndarray):
                yield a


def grid_dataset(n, side, n_classes=2, seed=0):
    """Images on the 8-bit grid, as read_gly returns them."""
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, side, side)).astype(np.float64) / 255.0
    labels = np.arange(n) % n_classes
    return LabeledDataset(images, labels, tuple("abcdefgh"[:n_classes]))


def test_read_gly_holds_one_float_copy(tmp_path):
    ds = grid_dataset(300, 32)
    path = tmp_path / "d.gly"
    size = write_gly(ds, path)
    back, peak = traced_peak(read_gly, path)
    assert back.images.tobytes() == ds.images.tobytes()
    assert peak <= 1.10 * (size + ds.images.nbytes)


def test_write_gly_rounds_in_blocks(tmp_path):
    ds = grid_dataset(300, 32)
    size, peak = traced_peak(write_gly, ds, tmp_path / "d.gly")
    block = 64 * 32 * 32 * 8
    assert block < ds.images.nbytes / 4  # one float64 copy would break the bound
    assert peak <= size + block + 64 * 1024


def test_ingest_dir_holds_one_float_copy(tmp_path):
    rng = Rng(3)
    n, side = 120, 32
    for i in range(n):
        d = tmp_path / ("a" if i % 2 else "b")
        d.mkdir(exist_ok=True)
        px = bytes(rng.randrange(256) for _ in range(24 * 24))
        (d / f"{i:03d}.pgm").write_bytes(b"P5\n24 24\n255\n" + px)
    ds, peak = traced_peak(ingest_dir, tmp_path, side)
    assert ds.n == n
    # one float64 copy plus two u8 ones (the rasters and their stack)
    assert peak <= 1.25 * ds.images.nbytes + 2 * n * side * side + 64 * 1024


def test_pairwise_euclidean_builds_no_row_by_feature_square():
    # At 255 rows the Gram product pads one row, which once copied all of
    # x (10.0 MiB at 4096 features). At 512 features the squares outweigh
    # the norm block, and the Gram matrix, d and d + d.T side by side
    # (about 2 squares) broke the bound.
    for n, f in ((256, 4096), (255, 4096), (256, 512), (255, 512)):
        x = np.random.default_rng(1).random((n, f))
        _, peak = traced_peak(pairwise_euclidean, x)
        square = n * n * 8
        block = 64 * f * 8  # the squared norms of one row block
        row_block = 64 * n * 8
        bound = block + square + row_block + 64 * 1024
        assert bound < x.nbytes
        assert peak <= bound, (n, f)


def test_tsne_of_distances_holds_p_and_one_set_of_affinity_blocks():
    n = 1024
    dm = pairwise_euclidean(np.random.default_rng(2).random((n, 20)))
    cfg = TsneConfig(perplexity=20.0, iters=3, exaggeration_iters=1, seed=1)
    _, peak = traced_peak(tsne, dm, cfg)
    # Above the caller's distances: P (one square, symmetrized in place),
    # one step's upper-triangle affinity blocks (n (n + 64) / 2 floats)
    # and two row strips of the gradient, 1.67 squares; 1/4 MiB spare.
    # P beside cond + cond.T, or two steps' blocks at once, broke it.
    square = n * n * 8
    bound = square + n * (n + 64) // 2 * 8 + 2 * 64 * n * 8 + 2**18
    assert bound < 1.7 * square
    assert peak <= bound


def test_hcluster_average_holds_two_squares_of_active_clusters():
    n = 400
    dm = pairwise_euclidean(np.random.default_rng(3).random((n, 16)))
    _, peak = traced_peak(hcluster_average, dm)
    # The active clusters' square and the one-smaller square it is copied
    # into, plus O(n) rows, ids and merge records; 1/4 MiB spare. The
    # (2n-1)^2 node-id matrix read 8.5 squares.
    square = n * n * 8
    assert peak <= 2 * square + 2**18


def test_read_gly_of_some_classes_converts_only_their_rows(tmp_path):
    ds = grid_dataset(400, 32, n_classes=5)
    path = tmp_path / "d.gly"
    size = write_gly(ds, path)
    kept, peak = traced_peak(read_gly, path, ["b", "d"])
    assert kept.n == 160
    # the file's bytes, the kept rows as float64 and one block of 64
    # images' 8-bit rows
    assert peak <= size + kept.images.nbytes + 64 * 32 * 32 + 64 * 1024


def mlr_train_copies(policy):
    """Traced peak of a 3-epoch mlr_train, in float64 copies of its set."""
    train = grid_dataset(600, 32, seed=2)
    val = grid_dataset(20, 32, seed=3)
    cfg = mlr_defaults(epochs=3, augment_policy=preset(policy), seed=4)
    _, peak = traced_peak(mlr_train, train, val, cfg)
    return peak / train.images.nbytes


def test_mlr_train_holds_one_augmented_copy():
    # one augmented batch, warped straight from the caller's images: no
    # content-ordered copy, and never last epoch's batch too
    assert mlr_train_copies("lossy") < 1.5


def test_mlr_train_unaugmented_holds_one_ordered_copy():
    assert mlr_train_copies("none") < 1.25


def test_cnn_training_step_keeps_run_sized_patches():
    n = 16
    model = reference_cnn(64, seed=5)
    convs = [layer for layer in model.layers if isinstance(layer, Conv2d)]
    pools = [layer for layer in model.layers if isinstance(layer, MaxPool2x2)]
    x = np.random.default_rng(6).random((n, 64, 64))
    y = (np.arange(n) % 2).astype(np.float64)
    # Inference first, so the step's traced peak leaves out the buffers
    # a forward-only pass already holds at this batch.
    model.predict_proba(x, chunk=n)
    inference_cols = convs[0]._work["run_cols"]

    def step():
        model.backward(_bce_grad(model.forward(x[:, :, :, None]), y))

    _, peak = traced_peak(step)
    cols = out = 0
    for i, (conv, pool) in enumerate(zip(convs, pools)):
        side = 64 >> i
        runs = _runs(n, side * side)
        run_rows = (runs[-1] - runs[-2]) * side * side
        cols = max(cols, run_rows * 9 * max(conv.in_channels, conv.out_channels))
        out = max(out, (run_rows + 1) * conv.out_channels)
        # The pool keeps nothing larger than its output: no input gradient.
        pooled = n * (side // 2) ** 2 * conv.out_channels
        assert all(a.size <= pooled for a in arrays(pool))
    # Patches (of x and of the output gradient) and conv products hold one
    # run of rows (plus backward's bias-gradient carry row), never n * h * w
    # rows where the batch spans several runs (conv1-conv3).
    work = convs[0]._work
    assert len(work["run_cols"]) <= cols and len(work["run_out"]) <= out
    # What the step adds to inference's buffers: each conv's bordered run
    # of the output gradient and winning taps, the shared patch buffer
    # once it is widened from inference's 9 c_in columns to 9 max(c_in,
    # c_out) (conv3's), and the input gradients of conv2 and conv3, which
    # are alive together in conv2's backward; 1 MiB spare for run-sized
    # temporaries. The unfused blocks peaked 27.6 MiB higher, with block
    # 1's full-batch pool gradient (16 MiB) among them.
    added = sum(conv._pool[k].nbytes for conv in convs for k in ("gborder", "taps") if k in conv._pool)
    if work["run_cols"] is not inference_cols:
        added += work["run_cols"].nbytes
    input_grads = 8 * n * (32 * 32 * 32 + 16 * 16 * 32)
    assert peak < added + input_grads + 2**20


def held_bytes(model):
    """Bytes of the distinct buffers that model's layers hold, each base
    array counted once however many views of it the layers keep."""
    bases = {}

    def walk(v):
        if isinstance(v, np.ndarray):
            while isinstance(v.base, np.ndarray):
                v = v.base
            bases[id(v)] = v
        elif isinstance(v, (dict, list, tuple)):
            for item in v.values() if isinstance(v, dict) else v:
                walk(item)

    for layer in model.layers:
        walk(vars(layer))
    return sum(a.nbytes for a in bases.values())


def test_cnn_step_holds_one_workspace_and_no_relu_outputs():
    n = 16
    model = reference_cnn(64, seed=5)
    x = np.random.default_rng(6).random((n, 64, 64, 1))
    model.backward(_bce_grad(model.forward(x), (np.arange(n) % 2).astype(np.float64)))
    # Parameters and gradients (3.1 MiB), each block's pooled output and
    # winning taps (6.4 MiB), each conv's bordered runs (5.5 MiB) and one
    # run workspace shared by the five convs (10.0 MiB) come to 25.0 MiB.
    # A patch buffer and product per conv, plus a full output per ReLU
    # beside the pooled conv output it equals after the ReLU, held 44.5.
    assert held_bytes(model) < 27 * MiB


def test_write_text_encodes_without_a_bytes_copy(tmp_path):
    # Mixed 1-4 byte UTF-8 characters, so slices end inside runs of them.
    text = ("a" * 36 + "\u00e9\u20ac\U0001d11e\n") * (MiB // 4 + 3)
    path = tmp_path / "sub" / "t.svg"
    _, peak = traced_peak(_write_text, path, text)
    want = text.encode("utf-8")
    assert path.read_bytes() == want
    # A slice of 2**20 of these characters is 4 MiB as a str, and encoding
    # it reserves 4 bytes a character before it shrinks: 8 MiB at most.
    # One .encode() of the whole text reserved 40 MiB for its 11.5 MiB.
    assert len(want) > 11 * MiB and peak < 10 * MiB
