"""Set-up probe: one fresh process that sets a workload up and reports.

``python3 perfbench/probe.py <workload> <seed>`` imports the program, does
the workload's set-up (suites and protocols built, or kernels assembled
and first-run compiled) and prints ``ready``.  A fresh process each time
keeps caches of an earlier set-up out of the measurement.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3


def setup_seconds(root: str, workload: str, seed: int) -> List[float]:
    """Raw wall seconds of :data:`SETUPS` fresh set-ups, each from spawn
    until the probe reports ready."""
    raw = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), workload,
             str(seed)], cwd=root, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
    return raw


def main(argv: List[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    if workload == "direct_varbase":
        from w_varbase import build
    elif workload == "iss_ladder":
        from w_iss import build
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    build(seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
