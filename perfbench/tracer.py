"""Run one glyphlab CLI command with timing shims around its modules.

    python3 perfbench/tracer.py SPANS_OUT [glyphlab arguments ...]

The shims are installed from outside the program: every public function
listed in FUNCTIONS is replaced by a timed wrapper in each glyphlab
module that binds it (a name imported with ``from x import f`` is looked
up in the importing module, so patching only the defining module would
record nothing), and the layer and model methods are wrapped on their
classes. Spans stay in memory and are written to SPANS_OUT as JSON when
the command returns, together with the process's own getrusage figures.
Timing never touches the command's outputs.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

FUNCTIONS = {
    "glyphlab.dataset": (
        "load_pgm", "resize_bilinear", "ingest_dir", "read_gly", "write_gly", "content_order",
    ),
    "glyphlab.augment": ("augment_batch",),
    "glyphlab.eda": (
        "tsne", "pairwise_euclidean", "calibrate_row", "kl_gradient", "kl_divergence",
        "hcluster_average", "clustered_map",
    ),
    "glyphlab.svgplot": ("scatter_svg", "heatmap_svg", "roc_svg"),
    "glyphlab.metrics": (
        "roc_curve", "auc", "macro_auc_ovr", "confusion_matrix", "accuracy", "overfit_epoch",
    ),
    "glyphlab.models.optim": ("rmsprop_step",),
    "glyphlab.models.mlr": ("mlr_train",),
    "glyphlab.models.cnn": ("cnn_train",),
    "glyphlab.models.io": ("save_model", "load_model"),
}

# Numbers kept with a span, from which the harness computes work done.
NOTES = {
    "augment.augment_batch": lambda args, result: len(result),
    "eda.kl_gradient": lambda args, result: len(args[0]),
    "svgplot.scatter_svg": lambda args, result: len(result),
    "svgplot.heatmap_svg": lambda args, result: len(result),
    "svgplot.roc_svg": lambda args, result: len(result),
}

CNN_METHODS = ("forward", "backward", "predict_proba")
MLR_METHODS = ("predict_proba",)
LAYER_CLASSES = ("Conv2d", "Relu", "MaxPool2x2", "Dense", "Sigmoid")
_LAYER_KIND = {"Conv2d": "conv", "Relu": "relu", "MaxPool2x2": "pool"}


class Tracer:
    """In-memory span recorder: [name, start_ns, end_ns, parent, note]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._labels: dict = {}
        self._layers: list = []  # keeps labelled layers alive so ids stay unique

    def timed(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        return wrapper

    def timed_layer(self, fn, suffix):
        spans, stack, clock, labels = self.spans, self._stack, time.perf_counter_ns, self._labels

        @functools.wraps(fn)
        def wrapper(layer, x):
            label = labels.get(id(layer), "unlabeled")
            rec = [f"layers.{label}.{suffix}", 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(layer, x)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[4] = [list(x.shape), list(result.shape)]
            return result

        return wrapper

    def label_model(self, model) -> None:
        """Name a model's layers conv1.., relu1.., pool1.. in stack order;
        the head's layers are dense, relu6 and sigmoid."""
        seen: dict = {}
        for layer in model.layers:
            cls = type(layer).__name__
            kind = _LAYER_KIND.get(cls, cls.lower())
            if kind in ("conv", "relu", "pool"):
                seen[kind] = seen.get(kind, 0) + 1
                kind = f"{kind}{seen[kind]}"
            self._labels[id(layer)] = kind
            self._layers.append(layer)

    def install(self) -> None:
        import glyphlab.cli  # noqa: F401  (binds every name the CLI looks up)
        from glyphlab.models import cnn as cnn_mod
        from glyphlab.models import layers as layers_mod
        from glyphlab.models import mlr as mlr_mod

        loaded = [m for n, m in sys.modules.items() if n == "glyphlab" or n.startswith("glyphlab.")]
        for mod_name, names in FUNCTIONS.items():
            short = mod_name.rsplit(".", 1)[-1]
            for name in names:
                original = getattr(sys.modules[mod_name], name)
                span = f"{short}.{name}"
                wrapped = self.timed(span, original, NOTES.get(span))
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

        for meth in MLR_METHODS:
            setattr(mlr_mod.MlrModel, meth,
                    self.timed(f"mlr.{meth}", getattr(mlr_mod.MlrModel, meth)))
        model_cls = cnn_mod.CnnModel
        for meth in CNN_METHODS:
            setattr(model_cls, meth, self.timed(f"cnn.{meth}", getattr(model_cls, meth)))
        original_init = model_cls.__init__

        @functools.wraps(original_init)
        def init(model, *args, **kwargs):
            original_init(model, *args, **kwargs)
            self.label_model(model)

        model_cls.__init__ = init
        for cls_name in LAYER_CLASSES:
            cls = getattr(layers_mod, cls_name)
            cls.forward = self.timed_layer(cls.forward, "fwd")
            cls.backward = self.timed_layer(cls.backward, "bwd")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from glyphlab.cli import main as cli_main

    startup_s = (time.time_ns() - int(os.environ["PERFBENCH_SPAWN_NS"])) / 1e9
    tracer = Tracer()
    tracer.install()
    command = argv[0] if argv else ""
    run = tracer.timed(f"cli.{command}", cli_main)
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    ru = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "command": command,
        "exit_code": code,
        "startup_s": startup_s,
        "minor_faults": ru.ru_minflt,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "max_rss_mb": ru.ru_maxrss / 1024.0,
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
