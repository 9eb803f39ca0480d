"""glyphlab benchmark: runs one workload through the real CLI and reports
end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Run it from the root of a checkout; the program is taken from ./src.
Each CLI command runs in a fresh Python process, one at a time (closed
loop, one client), spawned by launcher.py so that its peak RSS is its
own. The workload's inputs are generated from --seed and written several
times to time set-up; then the workload's command sequence is repeated
until --seconds have been spent. Every command's
exit code and outputs are checked, and its output bytes must hash the
same on every repeat. With --trace 1 the repeats alternate between plain
and traced runs (see tracer.py); the traced ones give the per-layer
metrics and must record exactly the span counts the workload predicts.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when no
command failed and every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_REPEATS = 2  # plain repeats needed to compare output hashes
DEADLINE_S = 165  # stop starting commands (and kill a hung one) after this; runs must end in 180 s
CLI = "import sys; from glyphlab.cli import main; sys.exit(main())"  # the console script's body


def blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def high_percentile(samples) -> tuple:
    """The highest of p99.9/p99/p90/p75/p50 with at least ten samples
    beyond it, as (label, value); (None, None) when there are too few."""
    xs = sorted(samples)
    for p in (99.9, 99, 90, 75, 50):
        if len(xs) * (1 - p / 100) >= 10:
            return f"p{p:g}", xs[min(len(xs) - 1, math.ceil(len(xs) * p / 100) - 1)]
    return None, None


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Launcher:
    """The launcher.py process, which spawns and measures every command.

    Start it before numpy is imported or any input is built: the peak
    RSS it reaches is the floor of every command's max RSS.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv, cwd: Path, env: dict, stderr: Path, timeout_s: float) -> dict:
        req = {"argv": argv, "cwd": str(cwd), "env": env, "stderr": str(stderr),
               "timeout_s": timeout_s}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Repeats one workload's command sequence and keeps every sample."""

    def __init__(self, workload, run_dir: Path, deadline: float, launcher: Launcher | None = None):
        self.dir = run_dir
        self.deadline = deadline
        self.launcher = launcher
        self.commands = workload.commands()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.attempted = 0
        self.launcher_max_rss_mb = 0.0  # the floor under every command's max RSS
        self.failures: list = []
        self.first_digest: dict = {}
        self.plain: list = []   # per repeat: {"run_s", "cpu_s", "peak_rss_mb", "walls"}
        self.traced: list = []  # per traced repeat: same plus "layer" metrics

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def repeat(self, traced: bool) -> None:
        out = self.dir / "out"
        clear(out)
        trace_dir = self.dir / "trace"
        if traced:
            clear(trace_dir)
        run_s = cpu_s = peak = 0.0
        walls, records = {}, []
        for i, c in enumerate(self.commands):
            self.attempted += 1
            trace_out = trace_dir / f"{i}.json" if traced else None
            res = self._spawn(c.argv, trace_out)
            run_s += res["wall_s"]
            cpu_s += res["cpu_s"]
            peak = max(peak, res["max_rss_mb"])
            walls[c.label] = res["wall_s"]
            self.launcher_max_rss_mb = max(self.launcher_max_rss_mb, res["launcher_max_rss_mb"])
            if res["code"] != 0:
                self.fail(f"{c.label}: exit {res['code']}: {res['stderr'].strip()[-400:]}")
                continue
            if res["max_rss_mb"] <= res["launcher_max_rss_mb"]:
                self.fail(f"{c.label}: max RSS {res['max_rss_mb']:.1f} MB is only the launcher's "
                          f"own {res['launcher_max_rss_mb']:.1f} MB, not the command's")
                continue
            if not self._outputs_ok(c, out):
                continue
            if traced:
                rec = json.loads(trace_out.read_text(encoding="utf-8"))
                if not self._spans_ok(c, rec):
                    continue
                records.append(rec)
        sample = {"run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": peak, "walls": walls}
        if traced:
            if len(records) == len(self.commands):
                sample["layer"] = layer_metrics(records)
                # Paired with the plain repeat just before it, so that a slow
                # period of the host, which covers both, cancels out.
                sample["overhead_s"] = run_s - self.plain[-1]["run_s"]
                self.traced.append(sample)
        else:
            self.plain.append(sample)

    def _spawn(self, argv, trace_out) -> dict:
        if trace_out is None:
            cmd = [sys.executable, "-c", CLI, *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_out), *argv]
        err_path = self.dir / "stderr.txt"
        res = self.launcher.spawn(cmd, self.dir, self.env, err_path,
                                  self.deadline - time.perf_counter())
        res["stderr"] = err_path.read_text(encoding="utf-8", errors="replace")
        return res

    def _outputs_ok(self, c, out: Path) -> bool:
        h = hashlib.sha256()
        for name in c.outputs:
            path = out / name
            if not path.is_file():
                self.fail(f"{c.label}: missing output {name}")
                return False
            h.update(name.encode() + b"\0" + path.read_bytes())
        digest = h.hexdigest()
        if c.label not in self.first_digest:
            try:
                c.check(out)
            except Exception as exc:  # any exception from a check is a failed check
                self.fail(f"{c.label}: output check: {type(exc).__name__}: {exc}")
                return False
            self.first_digest[c.label] = digest
        elif digest != self.first_digest[c.label]:
            self.fail(f"{c.label}: outputs differ from the first repeat (not deterministic)")
            return False
        return True

    def _spans_ok(self, c, rec: dict) -> bool:
        got = Counter(s[0] for s in rec["spans"])
        if got != Counter(c.spans):
            diff = {k: (got.get(k, 0), c.spans.get(k, 0))
                    for k in set(got) | set(c.spans) if got.get(k, 0) != c.spans.get(k, 0)}
            self.fail(f"{c.label}: span counts (recorded, expected) differ: {diff}")
            return False
        return True

    def digest(self) -> str:
        h = hashlib.sha256()
        for c in self.commands:
            h.update(self.first_digest.get(c.label, "missing").encode())
        return h.hexdigest()


# ---------------------------------------------------------------- per-layer metrics

def _self_times(spans) -> list:
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [(s[2] - s[1] - c) / 1e9 for s, c in zip(spans, child)]


def layer_metrics(records) -> dict:
    """Per-layer figures for one repeat from its commands' span records.

    Work figures (FLOPs, bytes) are computed from array shapes, not
    measured; see README.md for the formulas.
    """
    total = defaultdict(float)   # inclusive seconds per span name
    self_s = defaultdict(float)  # exclusive seconds per span name
    calls = Counter()
    note = defaultdict(float)
    flops = defaultdict(float)   # conv, by "convK.fwd"/"convK.bwd"
    nbytes = defaultdict(float)  # every layer, compulsory traffic
    proc = {"minor_faults": 0, "cpu_s": 0.0, "max_rss_mb": 0.0, "startup_s": []}
    for rec in records:
        proc["minor_faults"] += rec["minor_faults"]
        proc["cpu_s"] += rec["cpu_s"]
        proc["max_rss_mb"] = max(proc["max_rss_mb"], rec["max_rss_mb"])
        proc["startup_s"].append(rec["startup_s"])
        spans = rec["spans"]
        for s, own in zip(spans, _self_times(spans)):
            name = s[0]
            total[name] += (s[2] - s[1]) / 1e9
            self_s[name] += own
            calls[name] += 1
            if name.startswith("layers."):
                (ins, outs), key = s[4], name[len("layers."):]
                # fwd: ins = x, outs = y; bwd: ins = dy, outs = dx.
                nbytes[key] += 8 * (math.prod(ins) + math.prod(outs))
                if key.startswith("conv"):
                    n, h, w, c_in = ins if key.endswith("fwd") else outs
                    c_out = outs[3] if key.endswith("fwd") else ins[3]
                    gemm = 2 * n * h * w * 9 * c_in * c_out
                    flops[key] += gemm if key.endswith("fwd") else 2 * gemm
                    nbytes[key] += 8 * (9 * c_in * c_out) * (1 if key.endswith("fwd") else 2)
            elif s[4] is not None:
                note[name] += s[4]

    def per_call(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for k in range(1, 6):
        for kind in ("conv", "relu", "pool"):
            key = f"{kind}{k}"
            fwd, bwd = total[f"layers.{key}.fwd"], total[f"layers.{key}.bwd"]
            m[f"layers.{key}.fwd_s"] = (fwd, "s")
            m[f"layers.{key}.bwd_s"] = (bwd, "s")
            moved = nbytes[f"{key}.fwd"] + nbytes[f"{key}.bwd"]
            if kind == "conv":
                work = flops[f"{key}.fwd"] + flops[f"{key}.bwd"]
                m[f"layers.{key}.gflops"] = (ratio(work, fwd + bwd) / 1e9, "GFLOP/s")
                m[f"layers.{key}.fwd_flop_per_call"] = (
                    ratio(flops[f"{key}.fwd"], calls[f"layers.{key}.fwd"]), "flop")
                m[f"layers.{key}.flop_per_byte"] = (ratio(work, moved), "flop/B")
            else:
                m[f"layers.{key}.gbps"] = (ratio(moved, fwd + bwd) / 1e9, "GB/s")
                m[f"layers.{key}.fwd_bytes_per_call"] = (
                    ratio(nbytes[f"{key}.fwd"], calls[f"layers.{key}.fwd"]), "B")
    for key in ("relu6", "dense", "sigmoid"):
        m[f"layers.{key}.fwd_s"] = (total[f"layers.{key}.fwd"], "s")
        m[f"layers.{key}.bwd_s"] = (total[f"layers.{key}.bwd"], "s")

    m["cnn.forward_s"] = (total["cnn.forward"], "s")
    m["cnn.backward_s"] = (total["cnn.backward"], "s")
    m["cnn.predict_proba_s"] = (total["cnn.predict_proba"], "s")
    m["cnn.train_steps"] = (calls["cnn.backward"], "count")
    m["optim.rmsprop_step_s"] = (total["optim.rmsprop_step"], "s")
    m["optim.rmsprop_step.calls"] = (calls["optim.rmsprop_step"], "count")

    iters = calls["eda.kl_gradient"]
    n_tsne = note["eda.kl_gradient"] / iters if iters else 0
    m["eda.kl_gradient.ms_per_call"] = (per_call("eda.kl_gradient", 1e3), "ms")
    m["eda.kl_divergence.ms_per_call"] = (per_call("eda.kl_divergence", 1e3), "ms")
    m["eda.kl_gradient.calls"] = (iters, "count")
    m["eda.kl_divergence.calls"] = (calls["eda.kl_divergence"], "count")
    # Computed: one float64 pass over the n x n P per gradient and per KL.
    m["eda.nn_bytes_per_iter"] = (2 * 8 * n_tsne * n_tsne, "B")
    m["eda.calibrate_row_s"] = (total["eda.calibrate_row"], "s")
    m["eda.calibrate_row.calls"] = (calls["eda.calibrate_row"], "count")
    for name in ("pairwise_euclidean", "hcluster_average", "clustered_map"):
        m[f"eda.{name}_s"] = (total[f"eda.{name}"], "s")

    for name in ("heatmap_svg", "scatter_svg", "roc_svg"):
        m[f"svgplot.{name}_s"] = (total[f"svgplot.{name}"], "s")
    m["svgplot.bytes"] = (sum(note[f"svgplot.{n}"] for n in ("heatmap_svg", "scatter_svg", "roc_svg")), "B")

    images = note["augment.augment_batch"]
    m["augment.augment_batch_s"] = (total["augment.augment_batch"], "s")
    m["augment.images"] = (images, "count")
    m["augment.us_per_image"] = (ratio(total["augment.augment_batch"], images) * 1e6, "us")

    for name in ("load_pgm", "resize_bilinear", "read_gly", "write_gly", "content_order"):
        m[f"dataset.{name}_s"] = (total[f"dataset.{name}"], "s")
    m["dataset.load_pgm.calls"] = (calls["dataset.load_pgm"], "count")
    m["mlr.train.self_s"] = (self_s["mlr.mlr_train"], "s")
    m["mlr.predict_proba_s"] = (total["mlr.predict_proba"], "s")
    m["metrics.roc_curve_s"] = (total["metrics.roc_curve"], "s")
    m["metrics.macro_auc_ovr_s"] = (total["metrics.macro_auc_ovr"], "s")
    m["io.save_model_s"] = (total["io.save_model"], "s")
    m["io.load_model_s"] = (total["io.load_model"], "s")
    for cmd in ("ingest", "tsne", "distmap", "train-cnn", "train-mlr", "evaluate"):
        m[f"cli.{cmd.replace('-', '_')}.self_s"] = (self_s[f"cli.{cmd}"], "s")

    m["proc.minor_faults"] = (proc["minor_faults"], "count")
    m["proc.cpu_s"] = (proc["cpu_s"], "s")
    m["proc.max_rss_mb"] = (proc["max_rss_mb"], "MB")
    m["proc.startup_s"] = (statistics.mean(proc["startup_s"] or [0.0]), "s")
    return m


# ---------------------------------------------------------------- main

def low_quartile(samples) -> float:
    """25th percentile, within the samples' range.

    This is the value a run reports for an end-to-end metric. Contention
    from other tenants of the host only ever adds time, and it comes in
    slow periods of tens of seconds that can cover half a run's repeats.
    The lower quartile rejects those periods better than the median.
    Across ten seeds of embed_cluster, the spread between runs was 0.062
    of the middle value with the lower quartile and 0.097 with the median.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


def reported(name: str, samples) -> float:
    """The value a run reports for an end-to-end metric: the median of
    the set-ups for setup_s, the lower quartile of the repeats otherwise."""
    return statistics.median(samples) if name == "setup_s" else low_quartile(samples)


def summarize(samples) -> dict:
    label, value = high_percentile(samples)
    return {"p25": low_quartile(samples), "median": statistics.median(samples), "n": len(samples),
            "percentile": label, "percentile_value": value, "samples": list(samples)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="cnn_train_lossy, embed_cluster or ingest_augment_eval")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs that run every workload in seconds")
    args = ap.parse_args()

    if not (SRC / "glyphlab" / "cli.py").is_file():
        print(f"error: no glyphlab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    launcher = Launcher()  # before numpy, glyphlab or any input is in this process
    try:
        return measure(args, launcher)
    finally:
        launcher.close()


def measure(args, launcher: Launcher) -> int:
    sys.path.insert(0, str(SRC))
    import glyphlab  # noqa: F401  (set-up uses its writers; keep the import out of setup_s)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(args.seed)

    wl = WORKLOADS[args.workload](args.size, args.seed)
    run_dir = WORK / f"{wl.name}-{os.getpid()}"
    clear(run_dir)
    runner = Runner(wl, run_dir, time.perf_counter() + DEADLINE_S, launcher)
    try:
        # Every set-up writes the same files into in/. After the first one
        # the files exist, so the median times generating and rewriting
        # them rather than how fast the filesystem creates inodes, which
        # varies several-fold with what ran before. A set-up runs before
        # every repeat, so the set-up samples span the run as the repeats
        # do, instead of a few seconds that one slow period of the host
        # can cover.
        inputs = run_dir / "in"
        inputs.mkdir()
        setup_s = []

        # Repeat until the next repeat would overrun --seconds; with --trace 1
        # plain and traced repeats alternate.
        start = time.perf_counter()
        rep = 0
        while time.perf_counter() < runner.deadline:
            t0 = time.perf_counter()
            wl.setup(inputs)
            setup_s.append(time.perf_counter() - t0)
            if rep == 0:
                input_digest = tree_digest(inputs)
            runner.repeat(traced=bool(args.trace) and rep % 2 == 1)
            rep += 1
            elapsed = time.perf_counter() - start
            enough = len(runner.plain) >= MIN_REPEATS and (not args.trace or runner.traced)
            if (enough or runner.failures) and rep >= MIN_REPEATS * (1 + args.trace) \
                    and elapsed * (rep + 1) / rep > args.seconds:
                break
        if tree_digest(inputs) != input_digest:
            runner.fail("set-up: inputs differ between set-ups of the same seed")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(runner.failures)
    attempted = max(1, runner.attempted)
    plain = runner.plain or [{"run_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "walls": {}}]
    e2e = {
        "run_s": ([s["run_s"] for s in plain], "s"),
        "cpu_s": ([s["cpu_s"] for s in plain], "s"),
        "peak_rss_mb": ([s["peak_rss_mb"] for s in plain], "MB"),
        "setup_s": (setup_s, "s"),
    }
    # Workload figures come from each command's lower-quartile wall time,
    # so a rate is reported on the same footing as run_s.
    walls = defaultdict(list)
    for s in runner.plain:
        for label, wall in s["walls"].items():
            walls[label].append(wall)
    stage = {}
    if walls:
        low = wl.stage_metrics({k: low_quartile(v) for k, v in walls.items()})
        mid = wl.stage_metrics({k: statistics.median(v) for k, v in walls.items()})
        stage = {name: {"value": v, "from_median_walls": mid[name][0], "unit": u,
                        "n": len(runner.plain)} for name, (v, u) in low.items()}

    print(f"workload {wl.name} size={args.size} seed={args.seed} trace={args.trace}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"output digest {runner.digest()}  input digest {input_digest}")
    for name, (values, unit) in e2e.items():
        s = summarize(values)
        tail = f", {s['percentile']} {s['percentile_value']:.4f}" if s["percentile"] else ""
        if name == "setup_s":
            print(f"  {name:<24} {s['median']:>12.4f} {unit:<6} (median; p25 {s['p25']:.4f}{tail}; "
                  f"n={s['n']})")
        else:
            print(f"  {name:<24} {s['p25']:>12.4f} {unit:<6} (p25; median {s['median']:.4f}{tail}; "
                  f"n={s['n']})")
    for name, f in stage.items():
        print(f"  {name:<24} {f['value']:>12.4f} {f['unit']:<6} "
              f"(from p25 walls; from median walls {f['from_median_walls']:.4f}; n={f['n']})")
    print(f"  {'failed_fraction':<24} {failed / attempted:>12.4f} ratio  ({failed} of {attempted})")

    if args.trace:
        layers, units = defaultdict(list), {}
        # Without a good traced repeat every metric still prints, as 0.
        for s in runner.traced or [{"layer": layer_metrics([])}]:
            for name, (value, unit) in s["layer"].items():
                layers[name].append(value)
                units[name] = unit
        overhead = statistics.median(s["overhead_s"] for s in runner.traced) if runner.traced else 0.0
        metrics = {name: {"value": statistics.median(v), "unit": units[name]}
                   for name, v in layers.items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    else:
        metrics = {name: {"value": reported(name, v), "unit": unit} for name, (v, unit) in e2e.items()}

    details = {
        "workload": wl.name, "size": args.size, "seed": args.seed, "trace": args.trace,
        "environment": env, "output_digest": runner.digest(), "input_digest": input_digest,
        "max_rss_mb": {"harness": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                       "launcher": runner.launcher_max_rss_mb},
        "failures": runner.failures,
        "end_to_end": {name: dict(summarize(v), unit=u) for name, (v, u) in e2e.items()},
        "workload_figures": stage,
        "failed_fraction": failed / attempted,
    }
    print(f"details {json.dumps(details, sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
