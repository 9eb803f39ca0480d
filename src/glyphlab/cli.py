"""Command-line surface for the glyph pipeline.

Every subcommand resolves its parameters (seed defaults to the
GLYPHLAB_SEED environment variable), runs one stage, writes CSV data
and/or SVG plots, and drops a replay manifest next to its outputs.
Identical arguments and seed always produce byte-identical files.

Exit codes: 0 success, 2 usage or validation error, 3 I/O or corrupt
file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .augment import augment_batch, preset
from .dataset import (
    GrayImage,
    LabeledDataset,
    ingest_dir,
    read_gly,
    write_gly,
    write_pgm,
)
from .eda import TsneConfig, clustered_map, hcluster_average, pairwise_euclidean, tsne
from .errors import ArgumentError, DataFormatError
from .metrics import accuracy, auc, confusion_matrix, macro_auc_ovr, overfit_epoch, roc_curve
from .models import (
    CnnModel,
    cnn_train,
    load_model,
    mlr_train,
    predict_proba,
    save_model,
)
from .models.config import TrainConfig, cnn_defaults, mlr_defaults
from .svgplot import heatmap_svg, roc_svg, scatter_svg

_ENV_SEED = "GLYPHLAB_SEED"


@dataclass
class RunManifest:
    """Everything needed to replay a run bit for bit."""

    subcommand: str
    params: dict
    seed: int
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    version: str = __version__

    def to_json(self) -> str:
        body = {
            "subcommand": self.subcommand,
            "params": self.params,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "version": self.version,
        }
        return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _write_text(path, text: str) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_manifest(manifest: RunManifest) -> None:
    # One manifest per distinct output directory, named after the first
    # output that lands there.
    seen = {}
    for out in manifest.outputs:
        parent = str(Path(out).parent)
        seen.setdefault(parent, Path(out).name)
    for parent, name in seen.items():
        _write_text(Path(parent) / f"{name}.manifest.json", manifest.to_json())


def _f(v: float) -> str:
    return repr(float(v))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ArgumentError(f"{_ENV_SEED} must be an integer, got {env!r}") from None
    return 0


def _load_dataset(path) -> LabeledDataset:
    p = Path(path)
    if not p.is_file():
        raise ArgumentError(f"no such dataset file: {path}")
    return read_gly(p)


def _parse_classes(ds: LabeledDataset, spec: str | None, minimum: int = 2) -> LabeledDataset:
    if spec is None:
        return ds
    wanted = [c for c in (s.strip() for s in spec.split(",")) if c]
    if len(wanted) < minimum:
        raise ArgumentError(f"need at least {minimum} classes, got {wanted}")
    return ds.subset_by_classes(wanted)


def cmd_ingest(args) -> int:
    root = Path(args.input)
    if not root.is_dir():
        raise ArgumentError(f"no such input directory: {args.input}")
    ds = ingest_dir(root, side=args.size)
    write_gly(ds, args.output)
    manifest = RunManifest(
        "ingest",
        {"input": str(args.input), "output": str(args.output), "size": args.size},
        seed=0,
        inputs=[str(args.input)],
        outputs=[str(args.output)],
    )
    _write_manifest(manifest)
    print(f"n={ds.n} classes={len(ds.class_names)} size={args.size}")
    return 0


def cmd_tsne(args) -> int:
    seed = _resolve_seed(args)
    ds = _parse_classes(_load_dataset(args.input), args.classes)
    cfg = TsneConfig(
        out_dims=3,
        perplexity=args.perplexity,
        iters=args.iters,
        exaggeration_iters=min(250, args.iters // 4),
        seed=seed,
    )
    emb = tsne(ds.images.reshape(ds.n, -1), cfg)

    rows = ["x,y,z,label,class_name"]
    for i in range(ds.n):
        label = int(ds.labels[i])
        rows.append(
            f"{_f(emb.y[i, 0])},{_f(emb.y[i, 1])},{_f(emb.y[i, 2])},"
            f"{label},{ds.class_names[label]}"
        )
    rows += [f"#kl,{i},{_f(v)}" for i, v in enumerate(emb.kl_history)]
    _write_text(args.out_csv, "\n".join(rows) + "\n")
    _write_text(
        args.out_svg,
        scatter_svg(emb.y[:, :2], ds.labels, ds.class_names, title="embedding"),
    )

    manifest = RunManifest(
        "tsne",
        {
            "input": str(args.input),
            "classes": args.classes,
            "perplexity": args.perplexity,
            "iters": args.iters,
            "out_csv": str(args.out_csv),
            "out_svg": str(args.out_svg),
        },
        seed=seed,
        inputs=[str(args.input)],
        outputs=[str(args.out_csv), str(args.out_svg)],
    )
    _write_manifest(manifest)
    print(f"embedded n={ds.n} classes={len(ds.class_names)} final_kl={_f(emb.kl_history[-1])}")
    return 0


def cmd_distmap(args) -> int:
    ds = _parse_classes(_load_dataset(args.input), args.classes)
    dm = pairwise_euclidean(ds.images.reshape(ds.n, -1))
    dg = hcluster_average(dm)
    reordered, ribbon = clustered_map(dm, dg, ds.labels)
    perm = dg.leaf_order

    rows = ["id," + ",".join(str(p) for p in perm)]
    for i in range(dm.n):
        rows.append(f"{perm[i]}," + ",".join(_f(v) for v in reordered[i]))
    _write_text(args.out_csv, "\n".join(rows) + "\n")
    _write_text(
        args.out_svg,
        heatmap_svg(reordered, ribbon, ds.class_names, title="clustered distance map"),
    )

    manifest = RunManifest(
        "distmap",
        {
            "input": str(args.input),
            "classes": args.classes,
            "out_csv": str(args.out_csv),
            "out_svg": str(args.out_svg),
        },
        seed=0,
        inputs=[str(args.input)],
        outputs=[str(args.out_csv), str(args.out_svg)],
    )
    _write_manifest(manifest)
    print(f"clustered n={dm.n} classes={len(ds.class_names)}")
    return 0


def _history_csv(history) -> str:
    rows = ["epoch,train_loss,train_acc,val_loss,val_acc"]
    for e in range(len(history)):
        rows.append(
            f"{e},{_f(history.train_loss[e])},{_f(history.train_acc[e])},"
            f"{_f(history.val_loss[e])},{_f(history.val_acc[e])}"
        )
    return "\n".join(rows) + "\n"


def _cmd_train(args, kind: str) -> int:
    seed = _resolve_seed(args)
    train = _load_dataset(args.train)
    val = _load_dataset(args.val)
    policy = preset(args.augment)

    base = mlr_defaults() if kind == "mlr" else cnn_defaults()
    cfg = TrainConfig(
        epochs=args.epochs if args.epochs is not None else base.epochs,
        batch_size=args.batch if args.batch is not None else base.batch_size,
        learning_rate=args.lr if args.lr is not None else base.learning_rate,
        l2=base.l2,
        seed=seed,
        augment_policy=policy,
    )
    if kind == "mlr":
        model, history = mlr_train(train, val, cfg)
    else:
        model, history = cnn_train(train, val, cfg)

    save_model(model, args.model_out)
    _write_text(args.history_out, _history_csv(history))
    manifest = RunManifest(
        f"train-{kind}",
        {
            "train": str(args.train),
            "val": str(args.val),
            "augment": args.augment,
            "epochs": cfg.epochs,
            "batch": cfg.batch_size,
            "lr": cfg.learning_rate,
            "model_out": str(args.model_out),
            "history_out": str(args.history_out),
        },
        seed=seed,
        inputs=[str(args.train), str(args.val)],
        outputs=[str(args.model_out), str(args.history_out)],
    )
    _write_manifest(manifest)
    if len(history):
        epoch = overfit_epoch(history)
        if epoch is not None:
            print(f"overfit_epoch={epoch}")
        print(
            f"trained epochs={cfg.epochs} "
            f"final_val_loss={_f(history.val_loss[-1])} final_val_acc={_f(history.val_acc[-1])}"
        )
    else:
        print("trained epochs=0")
    return 0


def cmd_evaluate(args) -> int:
    model_path = Path(args.model)
    if not model_path.is_file():
        raise ArgumentError(f"no such model file: {args.model}")
    model = load_model(model_path)
    ds = _load_dataset(args.data)

    if isinstance(model, CnnModel):
        if len(ds.class_names) != 2:
            raise ArgumentError("binary network evaluation needs a 2-class dataset")
        p1 = predict_proba(model, ds.images)
        probs = np.stack([1.0 - p1, p1], axis=1)
    else:
        if model.w.shape[0] != len(ds.class_names):
            raise ArgumentError(
                f"model has {model.w.shape[0]} classes, dataset has {len(ds.class_names)}"
            )
        if model.w.shape[1] != ds.images.shape[1] * ds.images.shape[2]:
            raise ArgumentError("model feature width does not match dataset image size")
        probs = predict_proba(model, ds.images)

    names = ds.class_names
    per_class, macro = macro_auc_ovr(probs, ds.labels)
    preds = probs.argmax(axis=1)
    cm = confusion_matrix(preds, ds.labels, len(names))
    acc = accuracy(cm)

    rows = ["# per-class AUC (one-vs-rest)", "class,auc"]
    rows += [f"{names[c]},{_f(per_class[c])}" for c in range(len(names))]
    rows += ["# summary", f"macro_auc,{_f(macro)}", f"accuracy,{_f(acc)}"]
    rows += ["# confusion matrix (rows true, cols predicted)", "," + ",".join(names)]
    rows += [f"{names[t]}," + ",".join(str(v) for v in cm.m[t]) for t in range(len(names))]
    _write_text(args.out_csv, "\n".join(rows) + "\n")

    curves = []
    for c in range(len(names)):
        curve = roc_curve(probs[:, c], (ds.labels == c).astype(np.int64))
        curves.append((f"{names[c]} (auc={auc(curve):.3f})", curve.points))
    _write_text(args.roc_svg, roc_svg(curves, title="one-vs-rest ROC"))

    manifest = RunManifest(
        "evaluate",
        {
            "model": str(args.model),
            "data": str(args.data),
            "out_csv": str(args.out_csv),
            "roc_svg": str(args.roc_svg),
        },
        seed=0,
        inputs=[str(args.model), str(args.data)],
        outputs=[str(args.out_csv), str(args.roc_svg)],
    )
    _write_manifest(manifest)
    print(f"evaluated n={ds.n} macro_auc={_f(macro)} accuracy={_f(acc)}")
    return 0


def cmd_augment_preview(args) -> int:
    seed = _resolve_seed(args)
    ds = _load_dataset(args.input)
    policy = preset(args.policy)
    if args.count < 1:
        raise ArgumentError(f"count must be >= 1, got {args.count}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    h, w = ds.image_shape
    outputs = []
    for k in range(args.count):
        batch = augment_batch(ds.images, policy, seed, counter=k)
        pixels = np.floor(batch * 255.0 + 0.5).astype(np.uint8)
        for i in range(ds.n):
            name = f"{i:05d}_{k:02d}.pgm"
            (out_dir / name).write_bytes(write_pgm(GrayImage(w, h, pixels[i])))
            outputs.append(str(out_dir / name))

    manifest = RunManifest(
        "augment-preview",
        {
            "input": str(args.input),
            "policy": args.policy,
            "count": args.count,
            "out": str(args.out),
        },
        seed=seed,
        inputs=[str(args.input)],
        outputs=outputs,
    )
    _write_manifest(manifest)
    print(f"wrote {len(outputs)} previews to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glyphlab",
        description="Glyph image toolkit: ingest, explore, train, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"glyphlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="pack a directory of P5 graymaps into a GLY1 file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--size", type=int, default=64)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tsne", help="3-D embedding of a dataset, CSV + scatter SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--classes", default=None, help="comma-separated class names (default: all)")
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", required=True)
    p.set_defaults(func=cmd_tsne)

    p = sub.add_parser("distmap", help="clustered pairwise-distance map, CSV + heatmap SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--classes", default=None, help="comma-separated class names (default: all)")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", required=True)
    p.set_defaults(func=cmd_distmap)

    for kind, help_text in (
        ("mlr", "train multinomial logistic regression"),
        ("cnn", "train the binary convolutional network"),
    ):
        p = sub.add_parser(f"train-{kind}", help=help_text)
        p.add_argument("--train", required=True)
        p.add_argument("--val", required=True)
        p.add_argument("--augment", default="none", choices=["none", "lossless", "lossy"])
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--model-out", required=True)
        p.add_argument("--history-out", required=True)
        p.set_defaults(func=lambda a, k=kind: _cmd_train(a, k))

    p = sub.add_parser("evaluate", help="AUC/accuracy/confusion CSV + ROC SVG")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--roc-svg", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("augment-preview", help="write augmented P5 samples for inspection")
    p.add_argument("--input", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment_preview)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
