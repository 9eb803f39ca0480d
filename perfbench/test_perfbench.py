"""Smoke tests for the benchmark itself; no timing bounds.

    python3 -m pytest perfbench -q      # from the root of a checkout

Each workload runs end to end at --size smoke, plain and traced, and must
report exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, CheckError, Command, check_distmap  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc) -> str:
    line = next(l for l in proc.stdout.splitlines() if l.startswith("output digest "))
    return line.split()[2]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(workload):
    plain = run_bench(ROOT, workload, 0)
    assert plain.returncode == 0, plain.stderr
    res = result(plain)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())

    traced = run_bench(ROOT, workload, 1)
    assert traced.returncode == 0, traced.stderr
    res = result(traced)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # Tracing must not change a single output byte.
    assert digest(traced) == digest(plain)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "cnn_train_lossy", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_span_count_mismatch_fails(tmp_path):
    import run

    runner = run.Runner(WORKLOADS["cnn_train_lossy"]("smoke", 1), tmp_path, deadline=0.0)
    cmd = Command("x", [], [], None, {"eda.kl_gradient": 2})
    span = ["eda.kl_gradient", 0, 1, -1, None]
    assert runner._spans_ok(cmd, {"spans": [span, span]})
    assert not runner._spans_ok(cmd, {"spans": [span]})
    assert not runner._spans_ok(cmd, {"spans": [span, span, ["eda.tsne", 0, 1, -1, None]]})
    assert len(runner.failures) == 2


def test_launcher_reports_the_commands_own_peak_rss(tmp_path):
    import run

    launcher = run.Launcher()
    try:
        # A child that touches 200 MB reports at least that, and the launcher far less.
        res = launcher.spawn([sys.executable, "-c", "b = b'x' * (200 << 20)"],
                             tmp_path, {}, tmp_path / "err.txt", 60.0)
    finally:
        launcher.close()
    assert res["code"] == 0
    assert res["launcher_max_rss_mb"] < 100 < 200 <= res["max_rss_mb"]


def test_rss_at_the_launchers_floor_fails(tmp_path):
    import run

    class FloorLauncher:
        def spawn(self, argv, cwd, env, stderr, timeout_s):
            stderr.write_text("")
            return {"code": 0, "wall_s": 1.0, "cpu_s": 1.0, "max_rss_mb": 20.0,
                    "launcher_max_rss_mb": 20.0}

    runner = run.Runner(WORKLOADS["embed_cluster"]("smoke", 1), tmp_path, 0.0, FloorLauncher())
    runner.repeat(traced=False)
    assert len(runner.failures) == 2
    assert all("launcher" in f for f in runner.failures)


def test_distmap_check_rejects_asymmetry(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("id,1,0\n1,0.0,1.0\n0,1.5,0.0\n")
    with pytest.raises(CheckError):
        check_distmap(path, 2)
    path.write_text("id,1,0\n1,0.0,1.5\n0,1.5,0.0\n")
    check_distmap(path, 2)
