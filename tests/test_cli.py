"""End-to-end checks of every subcommand, exit codes, and byte-level
determinism of the outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glyphlab
from conftest import make_shapes_dataset
from glyphlab import read_gly, write_gly
from glyphlab.cli import main


def run_cli_with_blas_threads(threads, *argv, check=True):
    """Run the CLI in a fresh process, since OpenBLAS reads its thread
    count when it loads; returns the process with its captured output."""
    src = str(Path(glyphlab.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
    env.pop("OMP_NUM_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from glyphlab.cli import main; sys.exit(main())", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def write_pgm_tree(root, spec):
    from glyphlab import GrayImage, write_pgm

    for cname, images in spec.items():
        d = root / cname
        d.mkdir(parents=True)
        for fname, px in images.items():
            arr = np.asarray(px, dtype=np.uint8)
            (d / fname).write_bytes(write_pgm(GrayImage(arr.shape[1], arr.shape[0], arr)))


@pytest.fixture
def shapes_gly(tmp_path):
    """A small 2-class dataset file at CNN-compatible resolution."""
    path = tmp_path / "shapes.gly"
    write_gly(make_shapes_dataset(8, side=32, seed=50, noise=0.1), path)
    return path


@pytest.fixture
def shapes_val_gly(tmp_path):
    path = tmp_path / "shapes_val.gly"
    write_gly(make_shapes_dataset(3, side=32, seed=51, noise=0.1), path)
    return path


class TestIngest:
    def test_toy_tree(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        tree = {
            "A": {f"g{i}.pgm": rng.integers(0, 256, (6, 5)) for i in range(2)},
            "H": {f"g{i}.pgm": rng.integers(0, 256, (4, 4)) for i in range(3)},
        }
        write_pgm_tree(tmp_path / "raw", tree)
        out = tmp_path / "ds.gly"
        rc = main(["ingest", "--input", str(tmp_path / "raw"), "--output", str(out), "--size", "64"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "n=5 classes=2 size=64"
        ds = read_gly(out)
        assert ds.class_names == ("A", "H")
        assert ds.images.shape == (5, 64, 64)
        assert (out.parent / "ds.gly.manifest.json").exists()

    def test_missing_dir_exit_2(self, tmp_path):
        rc = main(["ingest", "--input", str(tmp_path / "nope"), "--output", str(tmp_path / "x.gly")])
        assert rc == 2

    def test_corrupt_pgm_exit_3(self, tmp_path):
        d = tmp_path / "raw" / "A"
        d.mkdir(parents=True)
        (d / "bad.pgm").write_bytes(b"P5\n4 4\n255\nxx")
        rc = main(["ingest", "--input", str(tmp_path / "raw"), "--output", str(tmp_path / "x.gly")])
        assert rc == 3


class TestTsne:
    def _run(self, tmp_path, gly, seed="5", iters="40", perplexity="4"):
        csv = tmp_path / "emb.csv"
        svg = tmp_path / "emb.svg"
        rc = main(
            ["tsne", "--input", str(gly), "--iters", iters, "--perplexity", perplexity,
             "--seed", seed, "--out-csv", str(csv), "--out-svg", str(svg)]
        )
        return rc, csv, svg

    def test_csv_and_svg_shape(self, tmp_path, shapes_gly):
        rc, csv, svg = self._run(tmp_path, shapes_gly)
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,y,z,label,class_name"
        data = [l for l in lines if not l.startswith("#")]
        kl = [l for l in lines if l.startswith("#kl,")]
        assert len(data) == 1 + 16
        assert len(kl) == 40
        assert data[1].endswith(",disk") or data[1].endswith(",square")
        assert "<svg" in svg.read_text()

    def test_distinct_color_per_class(self, tmp_path):
        # ten classes, a few samples each
        import string

        from glyphlab import LabeledDataset

        rng = np.random.default_rng(3)
        names = tuple(string.ascii_uppercase[:10])
        images = rng.random((40, 6, 6))
        labels = np.repeat(np.arange(10), 4)
        path = tmp_path / "ten.gly"
        write_gly(LabeledDataset(images.round(2), labels, names), path)
        rc, csv, svg = self._run(tmp_path, path)
        assert rc == 0
        text = svg.read_text()
        fills = {line.split('fill="')[1].split('"')[0] for line in text.splitlines() if "<circle" in line}
        assert len(fills) == 10

    def test_nan_perplexity_exit_2_before_writing(self, tmp_path, shapes_gly):
        rc, csv, svg = self._run(tmp_path, shapes_gly, perplexity="nan")
        assert rc == 2
        assert not csv.exists() and not svg.exists()

    def test_inf_perplexity_clamps_to_the_largest(self, tmp_path, shapes_gly):
        # 16 points clamp every perplexity above 5 to (16 - 1) / 3 = 5.
        outputs = []
        for perplexity in ("inf", "5"):
            rc, csv, svg = self._run(tmp_path / perplexity, shapes_gly, perplexity=perplexity)
            assert rc == 0
            outputs.append((csv.read_bytes(), svg.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_unknown_class_exit_2(self, tmp_path, shapes_gly):
        rc = main(
            ["tsne", "--input", str(shapes_gly), "--classes", "disk,ghost",
             "--out-csv", str(tmp_path / "a.csv"), "--out-svg", str(tmp_path / "a.svg")]
        )
        assert rc == 2

    def test_single_class_exit_2(self, tmp_path, shapes_gly):
        rc = main(
            ["tsne", "--input", str(shapes_gly), "--classes", "disk",
             "--out-csv", str(tmp_path / "a.csv"), "--out-svg", str(tmp_path / "a.svg")]
        )
        assert rc == 2

    def test_byte_identical_reruns(self, tmp_path, shapes_gly):
        _, csv1, svg1 = self._run(tmp_path / "r1", shapes_gly)
        _, csv2, svg2 = self._run(tmp_path / "r2", shapes_gly)
        assert csv1.read_bytes() == csv2.read_bytes()
        assert svg1.read_bytes() == svg2.read_bytes()

    def test_env_seed_used_when_flag_absent(self, tmp_path, shapes_gly, monkeypatch):
        csv1 = tmp_path / "e1.csv"
        csv2 = tmp_path / "e2.csv"
        monkeypatch.setenv("GLYPHLAB_SEED", "77")
        main(["tsne", "--input", str(shapes_gly), "--iters", "30",
              "--out-csv", str(csv1), "--out-svg", str(tmp_path / "e1.svg")])
        monkeypatch.delenv("GLYPHLAB_SEED")
        main(["tsne", "--input", str(shapes_gly), "--iters", "30", "--seed", "77",
              "--out-csv", str(csv2), "--out-svg", str(tmp_path / "e2.svg")])
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        # 150 points are three tSNE row blocks.
        gly = tmp_path / "shapes.gly"
        write_gly(make_shapes_dataset(75, side=16, seed=52, noise=0.1), gly)
        outputs = []
        for threads in ("1", "2", "4"):
            csv = tmp_path / f"t{threads}.csv"
            run_cli_with_blas_threads(
                threads, "tsne", "--input", str(gly), "--iters", "60", "--perplexity", "20",
                "--seed", "3", "--out-csv", str(csv), "--out-svg", str(tmp_path / f"t{threads}.svg"),
            )
            outputs.append(csv.read_bytes())
        assert outputs == [outputs[0]] * 3


class TestDistmap:
    def test_symmetric_csv_with_ids(self, tmp_path, shapes_gly):
        csv = tmp_path / "d.csv"
        svg = tmp_path / "d.svg"
        rc = main(["distmap", "--input", str(shapes_gly), "--classes", "disk,square",
                   "--out-csv", str(csv), "--out-svg", str(svg)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        n = 16
        assert len(lines) == n + 1
        header = lines[0].split(",")
        assert header[0] == "id" and len(header) == n + 1
        mat = np.array([[float(v) for v in l.split(",")[1:]] for l in lines[1:]])
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 0.0)
        # ribbon strips present in the svg
        assert svg.read_text().count("<rect") > n

    def test_csv_cells_are_each_cells_repr(self, tmp_path):
        from glyphlab import clustered_map, hcluster_average, pairwise_euclidean

        gly, csv = tmp_path / "s.gly", tmp_path / "d.csv"
        ds = make_shapes_dataset(20, side=16, seed=53, noise=0.3)
        write_gly(ds, gly)
        rc = main(["distmap", "--input", str(gly), "--classes", "disk,square",
                   "--out-csv", str(csv), "--out-svg", str(tmp_path / "d.svg")])
        assert rc == 0
        ds = read_gly(gly)
        dm = pairwise_euclidean(ds.images.reshape(ds.n, -1))
        dg = hcluster_average(dm)
        reordered, _ = clustered_map(dm, dg, ds.labels)
        perm = dg.leaf_order
        want = ["id," + ",".join(str(p) for p in perm)]
        want += [f"{perm[i]}," + ",".join(repr(float(v)) for v in reordered[i]) for i in range(ds.n)]
        assert csv.read_text() == "\n".join(want) + "\n"

    def test_absent_class_exit_2(self, tmp_path, shapes_gly):
        rc = main(["distmap", "--input", str(shapes_gly), "--classes", "disk,ghost",
                   "--out-csv", str(tmp_path / "d.csv"), "--out-svg", str(tmp_path / "d.svg")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["distmap", "tsne"])
    def test_named_classes_without_rows_exit_2(self, tmp_path, command):
        # Every row is of a third class: the two named ones read as no
        # images, which once failed to reshape (an uncaught ValueError).
        from glyphlab import LabeledDataset

        gly = tmp_path / "d.gly"
        write_gly(LabeledDataset(np.zeros((3, 4, 4)), np.array([2, 2, 2]), ("a", "b", "c")), gly)
        rc = main([command, "--input", str(gly), "--classes", "a,b",
                   "--out-csv", str(tmp_path / "d.csv"), "--out-svg", str(tmp_path / "d.svg")])
        assert rc == 2

    @pytest.mark.parametrize("classes,code", [("disk", 2), ("disk,ghost", 3)])
    def test_class_list_errors_against_a_corrupt_file(self, tmp_path, shapes_gly, classes, code):
        # Too few classes is found from --classes alone, before the file
        # is read; an unknown class only after every label is checked.
        gly = tmp_path / "cut.gly"
        gly.write_bytes(shapes_gly.read_bytes()[:-1])
        rc = main(["distmap", "--input", str(gly), "--classes", classes,
                   "--out-csv", str(tmp_path / "d.csv"), "--out-svg", str(tmp_path / "d.svg")])
        assert rc == code

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        # 255 images at 64x64: the Gram product pads its last 7 rows.
        from glyphlab import LabeledDataset

        gly = tmp_path / "shapes.gly"
        ds = make_shapes_dataset(128, side=64, seed=54, noise=0.1)
        write_gly(LabeledDataset(ds.images[:255], ds.labels[:255], ds.class_names), gly)
        outputs = []
        for threads in ("1", "2", "4"):
            csv, svg = tmp_path / f"d{threads}.csv", tmp_path / f"d{threads}.svg"
            run_cli_with_blas_threads(
                threads, "distmap", "--input", str(gly), "--classes", "disk,square",
                "--out-csv", str(csv), "--out-svg", str(svg),
            )
            outputs.append((csv.read_bytes(), svg.read_bytes()))
        assert outputs == [outputs[0]] * 3


class TestTrainCommands:
    def test_train_mlr_writes_model_history_manifest(self, tmp_path, shapes_gly, shapes_val_gly):
        model_out = tmp_path / "m.gmd"
        hist_out = tmp_path / "h.csv"
        rc = main(["train-mlr", "--train", str(shapes_gly), "--val", str(shapes_val_gly),
                   "--epochs", "20", "--lr", "0.1", "--seed", "3",
                   "--model-out", str(model_out), "--history-out", str(hist_out)])
        assert rc == 0
        lines = hist_out.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 21
        assert model_out.exists()
        manifest = json.loads((tmp_path / "m.gmd.manifest.json").read_text())
        assert manifest["subcommand"] == "train-mlr"
        assert manifest["seed"] == 3

    def test_train_mlr_ignores_batch(self, tmp_path, shapes_gly, shapes_val_gly):
        # mlr_train is full-batch and never reads the batch size.
        outputs = []
        for batch in ("1", "7"):
            out = tmp_path / batch
            out.mkdir()
            rc = main(["train-mlr", "--train", str(shapes_gly), "--val", str(shapes_val_gly),
                       "--epochs", "5", "--batch", batch, "--seed", "3",
                       "--model-out", str(out / "m.gmd"), "--history-out", str(out / "h.csv")])
            assert rc == 0
            outputs.append([(out / name).read_bytes() for name in ("m.gmd", "h.csv")])
        assert outputs[0] == outputs[1]

    def test_train_mlr_prints_overfit_epoch(self, tmp_path, capsys):
        train = tmp_path / "t.gly"
        val = tmp_path / "v.gly"
        write_gly(make_shapes_dataset(6, side=16, seed=81, noise=0.35, label_noise=0.3), train)
        write_gly(make_shapes_dataset(6, side=16, seed=82, noise=0.35), val)
        rc = main(["train-mlr", "--train", str(train), "--val", str(val),
                   "--epochs", "25", "--lr", "3.0", "--seed", "1",
                   "--model-out", str(tmp_path / "m.gmd"), "--history-out", str(tmp_path / "h.csv")])
        assert rc == 0
        assert "overfit_epoch=5" in capsys.readouterr().out

    def test_train_cnn_and_evaluate(self, tmp_path, shapes_gly, shapes_val_gly, capsys):
        model_out = tmp_path / "c.gmd"
        hist_out = tmp_path / "ch.csv"
        rc = main(["train-cnn", "--train", str(shapes_gly), "--val", str(shapes_val_gly),
                   "--epochs", "2", "--batch", "4", "--lr", "0.001", "--seed", "4",
                   "--model-out", str(model_out), "--history-out", str(hist_out)])
        assert rc == 0
        assert len(hist_out.read_text().splitlines()) == 3

        out_csv = tmp_path / "eval.csv"
        roc_svg = tmp_path / "roc.svg"
        rc = main(["evaluate", "--model", str(model_out), "--data", str(shapes_val_gly),
                   "--out-csv", str(out_csv), "--roc-svg", str(roc_svg)])
        assert rc == 0
        text = out_csv.read_text()
        assert "macro_auc," in text
        assert "accuracy," in text
        assert "# confusion matrix" in text
        svg = roc_svg.read_text()
        assert "polyline" in svg

    def test_train_cnn_rejects_non_binary(self, tmp_path, shapes_val_gly):
        from glyphlab import LabeledDataset

        rng = np.random.default_rng(5)
        images = rng.random((9, 32, 32)).round(2)
        ds = LabeledDataset(images, np.repeat(np.arange(3), 3), ("a", "b", "c"))
        path = tmp_path / "three.gly"
        write_gly(ds, path)
        rc = main(["train-cnn", "--train", str(path), "--val", str(shapes_val_gly),
                   "--epochs", "1", "--model-out", str(tmp_path / "x.gmd"),
                   "--history-out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_augment_exit_2(self, tmp_path, shapes_gly, shapes_val_gly, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train-cnn", "--train", str(shapes_gly), "--val", str(shapes_val_gly),
                  "--augment", "sharpen", "--model-out", str(tmp_path / "x.gmd"),
                  "--history-out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_train_history_byte_identical(self, tmp_path, shapes_gly, shapes_val_gly):
        outs = []
        for sub in ("r1", "r2"):
            d = tmp_path / sub
            d.mkdir()
            main(["train-cnn", "--train", str(shapes_gly), "--val", str(shapes_val_gly),
                  "--epochs", "2", "--batch", "4", "--lr", "0.001", "--seed", "9",
                  "--model-out", str(d / "m.gmd"), "--history-out", str(d / "h.csv")])
            outs.append((d / "h.csv").read_bytes())
            outs.append((d / "m.gmd").read_bytes())
        assert outs[0] == outs[2]
        assert outs[1] == outs[3]

    @pytest.mark.parametrize("kind", ["cnn", "mlr"])
    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exit_2_before_training(self, tmp_path, shapes_gly, shapes_val_gly, capsys, kind, lr):
        hist_out = tmp_path / "h.csv"
        rc = main([f"train-{kind}", "--train", str(shapes_gly), "--val", str(shapes_val_gly),
                   "--lr", lr, "--model-out", str(tmp_path / "m.gmd"), "--history-out", str(hist_out)])
        assert rc == 2
        assert f"learning_rate must be finite and positive, got {lr}" in capsys.readouterr().err
        assert not hist_out.exists()

    def test_divergence_exit_2_names_epoch_and_quantity(self, tmp_path, shapes_gly, shapes_val_gly, capsys):
        hist_out = tmp_path / "h.csv"
        rc = main(["train-mlr", "--train", str(shapes_gly), "--val", str(shapes_val_gly),
                   "--epochs", "5", "--lr", "1e300", "--seed", "1",
                   "--model-out", str(tmp_path / "m.gmd"), "--history-out", str(hist_out)])
        assert rc == 2
        assert "error: training diverged at epoch 0: val_loss is inf" in capsys.readouterr().err
        assert not hist_out.exists()

    @pytest.mark.parametrize("kind, value", [("cnn", "nan"), ("mlr", "inf")])
    def test_divergence_prints_only_the_error_line(self, tmp_path, shapes_gly, shapes_val_gly, kind, value):
        # Run outside pytest, whose warning capture would hide numpy's
        # overflow warnings from stderr.
        proc = run_cli_with_blas_threads(
            "1", f"train-{kind}", "--train", str(shapes_gly), "--val", str(shapes_val_gly),
            "--epochs", "2", "--lr", "1e300", "--seed", "1",
            "--model-out", str(tmp_path / "m.gmd"), "--history-out", str(tmp_path / "h.csv"),
            check=False,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: training diverged at epoch 0: val_loss is {value}"]

    # cnn, mlr: 30 training images (CNN batches of 13, 13 and 4; the MLR
    # takes all 30 at once) and 10 for validation, so no batch or half
    # batch is a multiple of 8. cnn-64: 20 training images at 64x64 in
    # batches of 13 and 7, so conv1's weight gradient sums one-image runs
    # of 4,096 rows by 9 columns. cnn-64-b32: 32 training images at 64x64
    # in one batch of 32, the benchmark's, so the input gradients of
    # conv2 and conv3 multiply 2,048-row runs of gradient patches.
    # mlr-1200: enough samples that a BLAS product summing over them
    # splits the sum by thread count. mlr-784: 600 noise images at 28x28
    # (notMNIST's 784 features) in 10 classes, where a BLAS forward
    # product's bits followed the thread count. evaluate:
    # 45 images at 64x64 are a chunk of 32 and a short one of 13, and
    # conv1-conv3 split each chunk into several runs.
    @pytest.mark.parametrize(
        "kind", ["cnn", "cnn-64", "cnn-64-b32", "mlr", "mlr-1200", "mlr-784", "evaluate"]
    )
    def test_byte_identical_across_blas_thread_counts(self, tmp_path, kind):
        from glyphlab import LabeledDataset, reference_cnn, save_model

        train, val = tmp_path / "train.gly", tmp_path / "val.gly"
        if kind == "evaluate":
            ds = make_shapes_dataset(23, side=64, seed=63, noise=0.1)
            write_gly(LabeledDataset(ds.images[:45], ds.labels[:45], ds.class_names), val)
            save_model(reference_cnn(64, seed=9, class_names=ds.class_names), tmp_path / "cnn.gmd")
        elif kind == "mlr-784":
            rng = np.random.default_rng(64)
            for path, n in ((train, 600), (val, 50)):
                images = rng.integers(0, 256, size=(n, 28, 28)) / 255.0
                write_gly(LabeledDataset(images, np.arange(n) % 10, tuple("abcdefghij")), path)
        else:
            per_class = {"cnn-64": 10, "cnn-64-b32": 16, "mlr-1200": 600}.get(kind, 15)
            side = 64 if kind.startswith("cnn-64") else 32
            write_gly(make_shapes_dataset(per_class, side=side, seed=61, noise=0.1), train)
            write_gly(make_shapes_dataset(5, side=side, seed=62, noise=0.1), val)
        outputs = []
        for threads in ("1", "2", "4"):
            first, second = tmp_path / f"a{threads}", tmp_path / f"b{threads}"
            if kind == "evaluate":
                argv = ["evaluate", "--model", str(tmp_path / "cnn.gmd"), "--data", str(val),
                        "--out-csv", str(first), "--roc-svg", str(second)]
            else:
                argv = [f"train-{kind.partition('-')[0]}", "--train", str(train), "--val", str(val),
                        "--epochs", {"mlr": "20", "mlr-1200": "2", "mlr-784": "3"}.get(kind, "1"),
                        "--batch", "32" if kind == "cnn-64-b32" else "13", "--seed", "8",
                        "--model-out", str(first), "--history-out", str(second)]
                if kind != "mlr-1200":
                    argv += ["--augment", "lossy"]
            run_cli_with_blas_threads(threads, *argv)
            outputs.append((first.read_bytes(), second.read_bytes()))
        assert outputs == [outputs[0]] * 3


class TestEvaluateErrors:
    def test_model_data_mismatch_exit_2(self, tmp_path, shapes_gly):
        # regression trained on 2 classes, evaluated against 3-class data
        from glyphlab import LabeledDataset, MlrModel, save_model

        model = MlrModel(np.zeros((2, 4)), np.zeros(2), ("a", "b"))
        mpath = tmp_path / "m.gmd"
        save_model(model, mpath)
        rng = np.random.default_rng(6)
        ds = LabeledDataset(rng.random((9, 2, 2)).round(2), np.repeat(np.arange(3), 3), ("a", "b", "c"))
        dpath = tmp_path / "d.gly"
        write_gly(ds, dpath)
        rc = main(["evaluate", "--model", str(mpath), "--data", str(dpath),
                   "--out-csv", str(tmp_path / "e.csv"), "--roc-svg", str(tmp_path / "e.svg")])
        assert rc == 2


class TestAugmentPreview:
    def test_none_policy_outputs_identical_pgms(self, tmp_path, shapes_gly):
        out = tmp_path / "previews"
        rc = main(["augment-preview", "--input", str(shapes_gly), "--policy", "none",
                   "--count", "1", "--seed", "2", "--out", str(out)])
        assert rc == 0
        ds = read_gly(shapes_gly)
        from glyphlab import load_pgm

        files = sorted(out.glob("*.pgm"))
        assert len(files) == ds.n
        img0 = load_pgm(files[0].read_bytes())
        assert np.array_equal(img0.pixels, np.floor(ds.images[0] * 255.0 + 0.5).astype(np.uint8))

    def test_lossless_outputs_are_flips(self, tmp_path, shapes_gly):
        out = tmp_path / "flips"
        rc = main(["augment-preview", "--input", str(shapes_gly), "--policy", "lossless",
                   "--count", "1", "--seed", "3", "--out", str(out)])
        assert rc == 0
        from glyphlab import load_pgm

        ds = read_gly(shapes_gly)
        for i, f in enumerate(sorted(out.glob("*.pgm"))):
            got = load_pgm(f.read_bytes()).pixels
            src = np.floor(ds.images[i] * 255.0 + 0.5).astype(np.uint8)
            candidates = [src, src[:, ::-1], src[::-1, :], src[::-1, ::-1]]
            assert any(np.array_equal(got, c) for c in candidates)

    def test_fixed_seed_reproduces_files(self, tmp_path, shapes_gly):
        blobs = []
        for sub in ("p1", "p2"):
            out = tmp_path / sub
            main(["augment-preview", "--input", str(shapes_gly), "--policy", "lossy",
                  "--count", "2", "--seed", "8", "--out", str(out)])
            blobs.append(b"".join(f.read_bytes() for f in sorted(out.glob("*.pgm"))))
        assert blobs[0] == blobs[1]

    def test_bad_policy_exit_2(self, tmp_path, shapes_gly):
        rc = main(["augment-preview", "--input", str(shapes_gly), "--policy", "wobble",
                   "--count", "1", "--out", str(tmp_path / "x")])
        assert rc == 2


class TestManifests:
    """Pins every subcommand's manifest, byte for byte, with relative paths."""

    @staticmethod
    def _expect(path, subcommand, params, seed, inputs, outputs):
        body = {"subcommand": subcommand, "params": params, "seed": seed,
                "inputs": inputs, "outputs": outputs, "version": "0.1.0"}
        assert open(path, encoding="utf-8").read() == json.dumps(body, sort_keys=True, indent=2) + "\n"

    def test_every_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GLYPHLAB_SEED", raising=False)
        write_pgm_tree(tmp_path / "raw", {"A": {"a.pgm": np.full((3, 4), 9)}, "B": {"b.pgm": np.eye(5) * 200}})
        for d in ("data", "mlr", "mlr2", "cnn", "cnn2"):
            (tmp_path / d).mkdir()
        write_gly(make_shapes_dataset(4, side=32, seed=60, noise=0.1), "data/train.gly")
        write_gly(make_shapes_dataset(2, side=32, seed=61, noise=0.1), "data/val.gly")
        expect = self._expect

        assert main(["ingest", "--input", "raw", "--output", "data/ds.gly", "--size", "8"]) == 0
        expect("data/ds.gly.manifest.json", "ingest",
               {"input": "raw", "output": "data/ds.gly", "size": 8}, 0, ["raw"], ["data/ds.gly"])

        assert main(["tsne", "--input", "data/train.gly", "--iters", "8", "--perplexity", "2",
                     "--seed", "5", "--out-csv", "emb/e.csv", "--out-svg", "emb/e.svg"]) == 0
        expect("emb/e.csv.manifest.json", "tsne",
               {"input": "data/train.gly", "classes": None, "perplexity": 2.0, "iters": 8,
                "out_csv": "emb/e.csv", "out_svg": "emb/e.svg"},
               5, ["data/train.gly"], ["emb/e.csv", "emb/e.svg"])
        assert not (tmp_path / "emb" / "e.svg.manifest.json").exists()

        # Seed from the environment; two output directories give two manifests.
        monkeypatch.setenv("GLYPHLAB_SEED", "11")
        assert main(["tsne", "--input", "data/train.gly", "--classes", "square,disk", "--iters", "8",
                     "--perplexity", "2", "--out-csv", "a/e.csv", "--out-svg", "b/e.svg"]) == 0
        for manifest in ("a/e.csv.manifest.json", "b/e.svg.manifest.json"):
            expect(manifest, "tsne",
                   {"input": "data/train.gly", "classes": "square,disk", "perplexity": 2.0, "iters": 8,
                    "out_csv": "a/e.csv", "out_svg": "b/e.svg"},
                   11, ["data/train.gly"], ["a/e.csv", "b/e.svg"])
        # A subcommand without --seed records 0 whatever the environment says.
        assert main(["distmap", "--input", "data/train.gly", "--out-csv", "d/m.csv",
                     "--out-svg", "d/m.svg"]) == 0
        expect("d/m.csv.manifest.json", "distmap",
               {"input": "data/train.gly", "classes": None, "out_csv": "d/m.csv", "out_svg": "d/m.svg"},
               0, ["data/train.gly"], ["d/m.csv", "d/m.svg"])
        monkeypatch.delenv("GLYPHLAB_SEED")

        train = ["--train", "data/train.gly", "--val", "data/val.gly"]
        runs = [
            ("train-mlr", "mlr", [], {"augment": "none", "epochs": 500, "batch": 1, "lr": 0.1}, 0),
            ("train-mlr", "mlr2", ["--augment", "lossless", "--epochs", "3", "--batch", "4",
                                   "--lr", "0.5", "--seed", "2"],
             {"augment": "lossless", "epochs": 3, "batch": 4, "lr": 0.5}, 2),
            ("train-cnn", "cnn", ["--epochs", "1"],
             {"augment": "none", "epochs": 1, "batch": 32, "lr": 0.0001}, 0),
            ("train-cnn", "cnn2", ["--augment", "lossy", "--epochs", "1", "--batch", "4",
                                   "--lr", "0.001", "--seed", "3"],
             {"augment": "lossy", "epochs": 1, "batch": 4, "lr": 0.001}, 3),
        ]
        for command, d, flags, resolved, seed in runs:
            outs = [f"{d}/m.gmd", f"{d}/h.csv"]
            assert main([command] + train + flags + ["--model-out", outs[0], "--history-out", outs[1]]) == 0
            expect(f"{d}/m.gmd.manifest.json", command,
                   dict(train="data/train.gly", val="data/val.gly", model_out=outs[0],
                        history_out=outs[1], **resolved),
                   seed, ["data/train.gly", "data/val.gly"], outs)

        assert main(["evaluate", "--model", "cnn/m.gmd", "--data", "data/val.gly",
                     "--out-csv", "ev/e.csv", "--roc-svg", "ev/r.svg"]) == 0
        expect("ev/e.csv.manifest.json", "evaluate",
               {"model": "cnn/m.gmd", "data": "data/val.gly", "out_csv": "ev/e.csv", "roc_svg": "ev/r.svg"},
               0, ["cnn/m.gmd", "data/val.gly"], ["ev/e.csv", "ev/r.svg"])

        assert main(["augment-preview", "--input", "data/val.gly", "--policy", "lossless",
                     "--count", "2", "--out", "prev"]) == 0
        expect("prev/00000_00.pgm.manifest.json", "augment-preview",
               {"input": "data/val.gly", "policy": "lossless", "count": 2, "out": "prev"},
               0, ["data/val.gly"], [f"prev/{i:05d}_{k:02d}.pgm" for k in range(2) for i in range(4)])


class TestArgumentChecks:
    def test_tsne_zero_iters_exit_2_before_writing(self, tmp_path, shapes_gly):
        rc = main(["tsne", "--input", str(shapes_gly), "--iters", "0",
                   "--out-csv", str(tmp_path / "o" / "e.csv"), "--out-svg", str(tmp_path / "o" / "e.svg")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_ingest_bad_size_exit_2(self, tmp_path, size):
        (tmp_path / "raw" / "A").mkdir(parents=True)
        rc = main(["ingest", "--input", str(tmp_path / "raw"), "--output", str(tmp_path / "x.gly"),
                   "--size", size])
        assert rc == 2
        assert not (tmp_path / "x.gly").exists()

    @pytest.mark.parametrize("message, want", [
        ("Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64",
         "error: out of memory: Unable to allocate 745. GiB for an array with shape (100000000000,)"
         " and data type float64\n"),
        ("", "error: out of memory\n"),
    ])
    def test_tsne_out_of_memory_exit_2_with_one_line(self, tmp_path, shapes_gly, monkeypatch, capsys,
                                                     message, want):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("glyphlab.cli.tsne", exhausted)
        rc = main(["tsne", "--input", str(shapes_gly), "--iters", "100000000000",
                   "--out-csv", str(tmp_path / "o" / "e.csv"), "--out-svg", str(tmp_path / "o" / "e.svg")])
        assert rc == 2
        assert capsys.readouterr().err == want
        assert not (tmp_path / "o").exists()

    def test_ingest_out_of_memory_exit_2(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr("glyphlab.cli.ingest_dir", exhausted)
        write_pgm_tree(tmp_path / "raw", {"A": {"a.pgm": np.full((3, 3), 40)}})
        rc = main(["ingest", "--input", str(tmp_path / "raw"), "--output", str(tmp_path / "x.gly"),
                   "--size", "1000000"])
        assert rc == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 7.28 TiB\n"
        assert not (tmp_path / "x.gly").exists()


class TestOutputDirectories:
    """Every output, binary or text, creates its missing parent directory."""

    def test_ingest_output(self, tmp_path):
        write_pgm_tree(tmp_path / "raw", {"A": {"a.pgm": np.full((3, 3), 40)}})
        out = tmp_path / "new" / "x.gly"
        assert main(["ingest", "--input", str(tmp_path / "raw"), "--output", str(out), "--size", "4"]) == 0
        assert read_gly(out).n == 1

    @pytest.mark.parametrize("kind", ["mlr", "cnn"])
    def test_train_model_out(self, tmp_path, shapes_gly, shapes_val_gly, kind):
        model = tmp_path / "new" / "m.gmd"
        rc = main([f"train-{kind}", "--train", str(shapes_gly), "--val", str(shapes_val_gly),
                   "--epochs", "1", "--batch", "8", "--model-out", str(model),
                   "--history-out", str(tmp_path / "h" / "h.csv")])
        assert rc == 0
        assert model.is_file()
        assert (tmp_path / "new" / "m.gmd.manifest.json").is_file()
