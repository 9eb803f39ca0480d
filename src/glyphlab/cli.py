"""Command-line surface for the glyph pipeline.

Every subcommand resolves its parameters (seed defaults to the
GLYPHLAB_SEED environment variable), runs one stage, writes CSV data
and/or SVG plots, and drops a replay manifest next to its outputs.
Identical arguments and seed always produce byte-identical files.

Exit codes: 0 success, 2 usage or validation error, 3 I/O or corrupt
file. A stage that runs out of memory (numpy's MemoryError, say from
`tsne --iters 100000000000` or `ingest --size 1000000`) exits 2 too,
with a one-line message: the size that could not be allocated follows
from the arguments and the input, as a validation error's cause does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .models.config import cnn_defaults, mlr_defaults
from .svgplot import heatmap_svg, roc_svg, scatter_svg

_ENV_SEED = "GLYPHLAB_SEED"


_TEXT_SLICE = 1 << 20  # characters encoded per write


def _write_text(path, text: str) -> None:
    # A slice at a time, so a large text (distmap's SVG) never has a
    # second, full-size copy as bytes.
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        for i in range(0, len(text), _TEXT_SLICE):
            f.write(text[i : i + _TEXT_SLICE].encode("utf-8"))


def _write_manifest(args, inputs: list, outputs: list) -> None:
    """Record everything needed to replay a run bit for bit.

    params are the parsed arguments with their defaults resolved; one
    manifest goes to each distinct output directory, named after the
    first output that lands there.
    """
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "seed")}
    body = {
        "subcommand": args.command,
        "params": params,
        "seed": args.seed,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
    }
    text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    seen = {}
    for out in outputs:
        seen.setdefault(str(Path(out).parent), Path(out).name)
    for parent, name in seen.items():
        _write_text(Path(parent) / f"{name}.manifest.json", text)


def _f(v: float) -> str:
    return repr(float(v))


def _resolve_seed(args) -> int:
    if "seed" not in args:  # the subcommand takes no seed
        return 0
    if args.seed is not None:
        return args.seed
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ArgumentError(f"{_ENV_SEED} must be an integer, got {env!r}") from None
    return 0


def _load_dataset(path, classes=None) -> LabeledDataset:
    p = Path(path)
    if not p.is_file():
        raise ArgumentError(f"no such dataset file: {path}")
    return read_gly(p, classes)


def _parse_classes(spec: str | None, minimum: int = 2) -> list | None:
    if spec is None:
        return None
    wanted = [c for c in (s.strip() for s in spec.split(",")) if c]
    if len(wanted) < minimum:
        raise ArgumentError(f"need at least {minimum} classes, got {wanted}")
    return wanted


def _distances(args):
    """(distances, labels, class names) of the --input rows in --classes.

    Only the named classes' images are read, and they are dropped once
    the distances exist.
    """
    ds = _load_dataset(args.input, _parse_classes(args.classes))
    h, w = ds.image_shape  # not -1: numpy cannot infer it when no rows are kept
    return pairwise_euclidean(ds.images.reshape(ds.n, h * w)), ds.labels, ds.class_names


def cmd_ingest(args) -> int:
    root = Path(args.input)
    if not root.is_dir():
        raise ArgumentError(f"no such input directory: {args.input}")
    ds = ingest_dir(root, side=args.size)
    write_gly(ds, args.output)
    _write_manifest(args, [args.input], [args.output])
    print(f"n={ds.n} classes={len(ds.class_names)} size={args.size}")
    return 0


def cmd_tsne(args) -> int:
    cfg = TsneConfig(
        out_dims=3,
        perplexity=args.perplexity,
        iters=args.iters,
        exaggeration_iters=min(250, args.iters // 4),
        seed=args.seed,
    )
    dm, labels, class_names = _distances(args)
    emb = tsne(dm, cfg)

    rows = ["x,y,z,label,class_name"]
    for i in range(dm.n):
        label = int(labels[i])
        rows.append(
            f"{_f(emb.y[i, 0])},{_f(emb.y[i, 1])},{_f(emb.y[i, 2])},"
            f"{label},{class_names[label]}"
        )
    rows += [f"#kl,{i},{_f(v)}" for i, v in enumerate(emb.kl_history)]
    _write_text(args.out_csv, "\n".join(rows) + "\n")
    _write_text(
        args.out_svg,
        scatter_svg(emb.y[:, :2], labels, class_names, title="embedding"),
    )

    _write_manifest(args, [args.input], [args.out_csv, args.out_svg])
    print(f"embedded n={dm.n} classes={len(class_names)} final_kl={_f(emb.kl_history[-1])}")
    return 0


def cmd_distmap(args) -> int:
    dm, labels, class_names = _distances(args)
    dg = hcluster_average(dm)
    reordered, ribbon = clustered_map(dm, dg, labels)
    perm = dg.leaf_order

    # reordered is bitwise symmetric (pairwise_euclidean averages d and
    # d.T, and clustered_map permutes rows and columns alike), so each
    # cell is formatted once, in the row that reaches it from the
    # diagonal, and taken as it stands by the rows below.
    rows = ["id," + ",".join(str(p) for p in perm)]
    cells = np.empty((dm.n, dm.n), dtype=object)
    for i in range(dm.n):
        tail = list(map(repr, reordered[i, i:].tolist()))
        cells[i:, i] = tail
        cells[i, i:] = tail
        rows.append(f"{perm[i]}," + ",".join(cells[i].tolist()))
        cells[i] = None  # a cell's string lives until its second row is written
    _write_text(args.out_csv, "\n".join(rows) + "\n")
    _write_text(
        args.out_svg,
        heatmap_svg(reordered, ribbon, class_names, title="clustered distance map"),
    )

    _write_manifest(args, [args.input], [args.out_csv, args.out_svg])
    print(f"clustered n={dm.n} classes={len(class_names)}")
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
    train = _load_dataset(args.train)
    val = _load_dataset(args.val)
    policy = preset(args.augment)

    cfg = (mlr_defaults if kind == "mlr" else cnn_defaults)(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
        augment_policy=policy,
    )
    if kind == "mlr":
        model, history = mlr_train(train, val, cfg)
    else:
        model, history = cnn_train(train, val, cfg)

    save_model(model, args.model_out)
    _write_text(args.history_out, _history_csv(history))
    _write_manifest(args, [args.train, args.val], [args.model_out, args.history_out])
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

    _write_manifest(args, [args.model, args.data], [args.out_csv, str(args.roc_svg)])
    print(f"evaluated n={ds.n} macro_auc={_f(macro)} accuracy={_f(acc)}")
    return 0


def cmd_augment_preview(args) -> int:
    ds = _load_dataset(args.input)
    policy = preset(args.policy)
    if args.count < 1:
        raise ArgumentError(f"count must be >= 1, got {args.count}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    h, w = ds.image_shape
    outputs = []
    for k in range(args.count):
        batch = augment_batch(ds.images, policy, args.seed, counter=k)
        pixels = np.floor(batch * 255.0 + 0.5).astype(np.uint8)
        for i in range(ds.n):
            name = f"{i:05d}_{k:02d}.pgm"
            (out_dir / name).write_bytes(write_pgm(GrayImage(w, h, pixels[i])))
            outputs.append(str(out_dir / name))

    _write_manifest(args, [args.input], outputs)
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

    for kind, help_text, base, batch_help in (
        ("mlr", "train multinomial logistic regression", mlr_defaults(),
         "ignored, as training is full-batch (must still be >= 1)"),
        ("cnn", "train the binary convolutional network", cnn_defaults(),
         "mini-batch size, also the validation chunk"),
    ):
        p = sub.add_parser(f"train-{kind}", help=help_text)
        p.add_argument("--train", required=True)
        p.add_argument("--val", required=True)
        p.add_argument("--augment", default="none", choices=["none", "lossless", "lossy"])
        p.add_argument("--epochs", type=int, default=base.epochs)
        p.add_argument("--batch", type=int, default=base.batch_size, help=batch_help)
        p.add_argument("--lr", type=float, default=base.learning_rate)
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
    p.add_argument("--count", type=int, default=1,
                   help="augmented copies of each image (>= 1, no upper bound: "
                        "count x images P5 files are written)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment_preview)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = _resolve_seed(args)
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
