"""Start the benchmark's CLI processes and measure each one.

    python3 perfbench/launcher.py      # run.py starts it; one request per stdin line

run.py starts this process first, while it is still small, and asks it to
spawn every command. On Linux a child's ``ru_maxrss`` starts from the
peak RSS of the process that spawned it (exec copies the old memory
map's high-water mark), so a command spawned straight from run.py, which
builds the inputs and parses the outputs in its own memory, would report
run.py's peak whenever that is the larger. This process imports nothing
but the standard library, so the floor it passes on stays far below what
any glyphlab command uses, and each reply carries that floor so run.py
can check it.

Request, one JSON object per line:
    {"argv": [...], "cwd": "...", "env": {...}, "stderr": "path", "timeout_s": 60.0}
Reply, one JSON object per line:
    {"code": 0, "wall_s": 1.2, "cpu_s": 2.3, "max_rss_mb": 120.4, "launcher_max_rss_mb": 9.8}

The launcher exits when its standard input closes.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time


def spawn(req: dict) -> dict:
    env = dict(req["env"], PERFBENCH_SPAWN_NS=str(time.time_ns()))
    with open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(1.0, req["timeout_s"]), proc.kill)
        killer.start()
        # wait4 rather than Popen.wait: it also returns the child's own rusage.
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped: tell Popen
    return {"code": code, "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "max_rss_mb": ru.ru_maxrss / 1024.0,
            "launcher_max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
