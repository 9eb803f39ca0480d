"""The benchmark's three workloads: inputs, CLI commands, output checks and
the span counts a traced run must show.

Each workload writes its inputs under ``in/`` of a run directory and runs
its commands with that directory as the working directory, so every path
a command sees (and writes into its manifest) is relative and the output
bytes do not depend on where the checkout lives. See README.md for why
each workload exists and which modules it should and should not move.
"""

from __future__ import annotations

import json
import math
import struct
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from glyphs import CLASS_NAMES, make_glyphs, to_u8

BATCH = 32  # train-cnn --batch, and the CLI's predict_proba chunk in evaluate


@dataclass
class Command:
    """One CLI invocation: its arguments, the files it writes (checked
    and hashed in this order), the check that parses them, and the span
    counts a traced run of it must record exactly."""

    label: str
    argv: list
    outputs: list
    check: object
    spans: dict = field(default_factory=dict)


# ---------------------------------------------------------------- checks

class CheckError(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _floats(cells) -> list:
    vals = [float(c) for c in cells]
    _require(all(math.isfinite(v) for v in vals), f"non-finite value in {cells}")
    return vals


def check_gly(path: Path, n: int, side: int, n_classes: int) -> None:
    data = path.read_bytes()
    _require(data[:4] == b"GLY1", f"{path}: bad GLY1 magic")
    version, got_n, h, w, k = struct.unpack_from("<IIIII", data, 4)
    _require((version, got_n, h, w, k) == (1, n, side, side, n_classes),
             f"{path}: header {(version, got_n, h, w, k)}")
    pos = 24
    for _ in range(k):
        (blen,) = struct.unpack_from("<H", data, pos)
        pos += 2 + blen
    _require(len(data) == pos + 2 * n + n * h * w, f"{path}: size {len(data)}")


def check_gmd(path: Path, kind: int) -> None:
    data = path.read_bytes()
    _require(data[:4] == b"GMD1" and len(data) > 21, f"{path}: bad GMD1 header")
    version, got_kind = struct.unpack_from("<IB", data, 4)
    _require((version, got_kind) == (1, kind), f"{path}: version/kind {(version, got_kind)}")


def check_svg(path: Path, min_elements: int = 1) -> None:
    root = ET.parse(path).getroot()
    _require(root.tag.endswith("svg"), f"{path}: root element {root.tag}")
    _require(sum(1 for _ in root.iter()) > min_elements, f"{path}: too few elements")


def check_manifest(path: Path, subcommand: str) -> None:
    body = json.loads(path.read_text(encoding="utf-8"))
    _require(body.get("subcommand") == subcommand, f"{path}: subcommand {body.get('subcommand')}")


def check_history(path: Path, epochs: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc", f"{path}: header")
    _require(len(lines) == epochs + 1, f"{path}: {len(lines) - 1} epochs, expected {epochs}")
    for e, line in enumerate(lines[1:]):
        cells = line.split(",")
        _require(int(cells[0]) == e, f"{path}: epoch column")
        loss, acc, vloss, vacc = _floats(cells[1:])
        _require(loss >= 0 and vloss >= 0 and 0 <= acc <= 1 and 0 <= vacc <= 1, f"{path}: {line}")


def check_tsne(path: Path, n: int, iters: int, n_classes: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines[0] == "x,y,z,label,class_name", f"{path}: header")
    rows, kl = lines[1 : n + 1], lines[n + 1 :]
    _require(len(rows) == n and len(kl) == iters, f"{path}: {len(rows)} rows, {len(kl)} KL lines")
    for row in rows:
        cells = row.split(",")
        _floats(cells[:3])
        _require(0 <= int(cells[3]) < n_classes and cells[4] == CLASS_NAMES[int(cells[3])],
                 f"{path}: label cells {cells[3:]}")
    values = []
    for i, line in enumerate(kl):
        tag, idx, v = line.split(",")
        _require(tag == "#kl" and int(idx) == i, f"{path}: KL line {line}")
        values.append(v)
    values = _floats(values)
    exaggeration = min(250, iters // 4)
    _require(values[-1] < values[exaggeration - 1],
             f"{path}: final KL {values[-1]} not below {values[exaggeration - 1]}")


def check_distmap(path: Path, n: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    _require(header[0] == "id", f"{path}: header")
    perm = [int(c) for c in header[1:]]
    _require(sorted(perm) == list(range(n)), f"{path}: ids are not a permutation of 0..{n - 1}")
    _require(len(lines) == n + 1, f"{path}: {len(lines) - 1} rows")
    m = np.array([_floats(line.split(",")[1:]) for line in lines[1:]])
    ids = [int(line.split(",", 1)[0]) for line in lines[1:]]
    _require(ids == perm, f"{path}: row ids differ from the header order")
    _require(m.shape == (n, n) and (m == m.T).all(), f"{path}: matrix not symmetric")
    _require((np.diag(m) == 0).all() and (m >= 0).all(), f"{path}: bad diagonal or sign")


def check_evaluate(path: Path, n: int, n_classes: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    pos = lines.index("class,auc") + 1
    aucs = _floats(line.split(",")[1] for line in lines[pos : pos + n_classes])
    summary = {k: v for k, v in (line.split(",") for line in lines if line.startswith(("macro_auc,", "accuracy,")))}
    macro, acc = _floats([summary["macro_auc"], summary["accuracy"]])
    _require(all(0 <= a <= 1 for a in aucs + [macro, acc]), f"{path}: AUC or accuracy outside [0, 1]")
    cm = [[int(v) for v in line.split(",")[1:]] for line in lines[-n_classes:]]
    _require(sum(map(sum, cm)) == n, f"{path}: confusion total {sum(map(sum, cm))}, expected {n}")


# ---------------------------------------------------------------- inputs

def _write_gly(path: Path, images, labels, n_classes: int) -> None:
    from glyphlab import LabeledDataset, write_gly

    write_gly(LabeledDataset(images, labels, CLASS_NAMES[:n_classes]), path)


def _write_p5_tree(root: Path, images, labels) -> None:
    from glyphlab import GrayImage, write_pgm

    pixels = to_u8(images)
    h, w = pixels.shape[1:]
    for i, (px, lab) in enumerate(zip(pixels, labels)):
        d = root / CLASS_NAMES[lab]
        d.mkdir(parents=True, exist_ok=True)
        (d / f"{i:05d}.pgm").write_bytes(write_pgm(GrayImage(w, h, px)))


def _layer_spans(fwd: int, bwd: int) -> dict:
    """Span counts of the reference network for fwd forward and bwd backward passes."""
    counts = {}
    for direction, calls in (("fwd", fwd), ("bwd", bwd)):
        if calls:
            for k in range(1, 6):
                for kind in ("conv", "relu", "pool"):
                    counts[f"layers.{kind}{k}.{direction}"] = calls
            counts[f"layers.relu6.{direction}"] = calls
            counts[f"layers.dense.{direction}"] = 2 * calls
            counts[f"layers.sigmoid.{direction}"] = calls
    return counts


# ---------------------------------------------------------------- workloads

class Workload:
    name = ""
    sizes: dict = {}

    def __init__(self, size: str, seed: int):
        self.p = self.sizes[size]
        self.seed = seed

    def setup(self, inputs: Path) -> None:
        raise NotImplementedError

    def commands(self) -> list:
        raise NotImplementedError

    def stage_metrics(self, walls: dict) -> dict:
        """Workload-specific end-to-end figures from per-command wall times."""
        raise NotImplementedError


class CnnTrainLossy(Workload):
    name = "cnn_train_lossy"
    sizes = {
        "full": {"train": 96, "val": 32, "epochs": 3},
        "smoke": {"train": 32, "val": 32, "epochs": 1},
    }

    def setup(self, inputs):
        p = self.p
        x, y = make_glyphs(self.seed, 0, [p["train"] // 2] * 2, 64)
        _write_gly(inputs / "train.gly", x, y, 2)
        x, y = make_glyphs(self.seed, 1, [p["val"] // 2] * 2, 64)
        _write_gly(inputs / "val.gly", x, y, 2)

    def commands(self):
        p = self.p
        steps = p["epochs"] * math.ceil(p["train"] / BATCH)
        chunks = p["epochs"] * math.ceil(p["val"] / BATCH)
        spans = {
            "cli.train-cnn": 1, "dataset.read_gly": 2, "cnn.cnn_train": 1,
            "dataset.content_order": 1, "augment.augment_batch": p["epochs"],
            "cnn.forward": steps + chunks, "cnn.backward": steps, "cnn.predict_proba": p["epochs"],
            "optim.rmsprop_step": steps, "io.save_model": 1, "metrics.overfit_epoch": 1,
            **_layer_spans(steps + chunks, steps),
        }

        def check(out):
            check_gmd(out / "cnn.gmd", kind=1)
            check_history(out / "history.csv", p["epochs"])
            check_manifest(out / "cnn.gmd.manifest.json", "train-cnn")

        return [Command(
            "train-cnn",
            ["train-cnn", "--train", "in/train.gly", "--val", "in/val.gly", "--augment", "lossy",
             "--epochs", str(p["epochs"]), "--batch", str(BATCH), "--seed", str(self.seed),
             "--model-out", "out/cnn.gmd", "--history-out", "out/history.csv"],
            ["cnn.gmd", "history.csv", "cnn.gmd.manifest.json"], check, spans,
        )]

    def stage_metrics(self, walls):
        images = self.p["train"] * self.p["epochs"]
        return {"cnn_train_images_per_s": (images / walls["train-cnn"], "1/s")}


class EmbedCluster(Workload):
    name = "embed_cluster"
    # tSNE runs on all ten classes; distmap on the two large ones (I, J).
    sizes = {
        "full": {"small": 55, "large": 180, "iters": 120},
        "smoke": {"small": 5, "large": 10, "iters": 100},
    }

    @property
    def n_tsne(self) -> int:
        return 8 * self.p["small"] + 2 * self.p["large"]

    def setup(self, inputs):
        p = self.p
        x, y = make_glyphs(self.seed, 0, [p["small"]] * 8 + [p["large"]] * 2, 64)
        _write_gly(inputs / "glyphs.gly", x, y, 10)

    def commands(self):
        p, n, n_d = self.p, self.n_tsne, 2 * self.p["large"]

        def check_t(out):
            check_tsne(out / "tsne.csv", n, p["iters"], 10)
            check_svg(out / "tsne.svg", n)
            check_manifest(out / "tsne.csv.manifest.json", "tsne")

        def check_d(out):
            check_distmap(out / "dist.csv", n_d)
            check_svg(out / "dist.svg", n_d * n_d)
            check_manifest(out / "dist.csv.manifest.json", "distmap")

        return [
            Command(
                "tsne",
                ["tsne", "--input", "in/glyphs.gly", "--perplexity", "30", "--iters", str(p["iters"]),
                 "--seed", str(self.seed), "--out-csv", "out/tsne.csv", "--out-svg", "out/tsne.svg"],
                ["tsne.csv", "tsne.svg", "tsne.csv.manifest.json"], check_t,
                {"cli.tsne": 1, "dataset.read_gly": 1, "eda.tsne": 1, "eda.pairwise_euclidean": 1,
                 "eda.calibrate_row": n, "eda.kl_gradient": p["iters"],
                 "eda.kl_divergence": p["iters"], "svgplot.scatter_svg": 1},
            ),
            Command(
                "distmap",
                ["distmap", "--input", "in/glyphs.gly", "--classes", "I,J",
                 "--out-csv", "out/dist.csv", "--out-svg", "out/dist.svg"],
                ["dist.csv", "dist.svg", "dist.csv.manifest.json"], check_d,
                {"cli.distmap": 1, "dataset.read_gly": 1, "eda.pairwise_euclidean": 1,
                 "eda.hcluster_average": 1, "eda.clustered_map": 1, "svgplot.heatmap_svg": 1},
            ),
        ]

    def stage_metrics(self, walls):
        return {"tsne_s": (walls["tsne"], "s"), "distmap_s": (walls["distmap"], "s")}


class IngestAugmentEval(Workload):
    name = "ingest_augment_eval"
    # P5 sources are 48x48 so ingest resizes every file to 64x64.
    sizes = {
        "full": {"files": 1200, "source": 48, "val": 128, "test": 128, "epochs": 4},
        "smoke": {"files": 40, "source": 48, "val": 32, "test": 32, "epochs": 2},
    }

    def setup(self, inputs):
        from glyphlab import reference_cnn, save_model

        p = self.p
        x, y = make_glyphs(self.seed, 0, [p["files"] // 2] * 2, p["source"])
        _write_p5_tree(inputs / "tree", x, y)
        x, y = make_glyphs(self.seed, 1, [p["val"] // 2] * 2, 64)
        _write_gly(inputs / "val.gly", x, y, 2)
        x, y = make_glyphs(self.seed, 2, [p["test"] // 2] * 2, 64)
        _write_gly(inputs / "test.gly", x, y, 2)
        save_model(reference_cnn(64, seed=self.seed, class_names=CLASS_NAMES[:2]), inputs / "cnn.gmd")

    def commands(self):
        p = self.p
        chunks = math.ceil(p["test"] / BATCH)
        # Two classes: macro_auc_ovr and the ROC plot each take one curve and its AUC per class.
        evaluate = {"cli.evaluate": 1, "io.load_model": 1, "dataset.read_gly": 1,
                    "metrics.macro_auc_ovr": 1, "metrics.roc_curve": 4, "metrics.auc": 4,
                    "metrics.confusion_matrix": 1, "metrics.accuracy": 1, "svgplot.roc_svg": 1}

        def check_i(out):
            check_gly(out / "train.gly", p["files"], 64, 2)
            check_manifest(out / "train.gly.manifest.json", "ingest")

        def check_m(out):
            check_gmd(out / "mlr.gmd", kind=0)
            check_history(out / "mlr_history.csv", p["epochs"])
            check_manifest(out / "mlr.gmd.manifest.json", "train-mlr")

        def check_eval(stem):
            def check(out):
                check_evaluate(out / f"{stem}_eval.csv", p["test"], 2)
                check_svg(out / f"{stem}_roc.svg")
                check_manifest(out / f"{stem}_eval.csv.manifest.json", "evaluate")
            return check

        def eval_cmd(stem, model):
            return ["evaluate", "--model", model, "--data", "in/test.gly",
                    "--out-csv", f"out/{stem}_eval.csv", "--roc-svg", f"out/{stem}_roc.svg"]

        def eval_outputs(stem):
            return [f"{stem}_eval.csv", f"{stem}_roc.svg", f"{stem}_eval.csv.manifest.json"]

        return [
            Command(
                "ingest",
                ["ingest", "--input", "in/tree", "--output", "out/train.gly", "--size", "64"],
                ["train.gly", "train.gly.manifest.json"], check_i,
                {"cli.ingest": 1, "dataset.ingest_dir": 1, "dataset.load_pgm": p["files"],
                 "dataset.resize_bilinear": p["files"], "dataset.write_gly": 1},
            ),
            Command(
                "train-mlr",
                ["train-mlr", "--train", "out/train.gly", "--val", "in/val.gly", "--augment", "lossy",
                 "--epochs", str(p["epochs"]), "--lr", "0.001", "--seed", str(self.seed),
                 "--model-out", "out/mlr.gmd", "--history-out", "out/mlr_history.csv"],
                ["mlr.gmd", "mlr_history.csv", "mlr.gmd.manifest.json"], check_m,
                {"cli.train-mlr": 1, "dataset.read_gly": 2, "mlr.mlr_train": 1,
                 "dataset.content_order": 1, "augment.augment_batch": p["epochs"], "io.save_model": 1,
                 "metrics.overfit_epoch": 1},
            ),
            Command(
                "evaluate-cnn", eval_cmd("cnn", "in/cnn.gmd"), eval_outputs("cnn"), check_eval("cnn"),
                {**evaluate, "cnn.predict_proba": 1, "cnn.forward": chunks, **_layer_spans(chunks, 0)},
            ),
            Command(
                "evaluate-mlr", eval_cmd("mlr", "out/mlr.gmd"), eval_outputs("mlr"), check_eval("mlr"),
                {**evaluate, "mlr.predict_proba": 1},
            ),
        ]

    def stage_metrics(self, walls):
        p = self.p
        return {
            "ingest_images_per_s": (p["files"] / walls["ingest"], "1/s"),
            "mlr_train_s": (walls["train-mlr"], "s"),
            "cnn_infer_images_per_s": (p["test"] / walls["evaluate-cnn"], "1/s"),
        }


WORKLOADS = {w.name: w for w in (CnnTrainLossy, EmbedCluster, IngestAugmentEval)}
