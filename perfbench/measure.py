"""Timed phases, the tail-percentile rule and the printed run record."""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from calib import Calibrator

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it: ``(value, percentile, sample count)``.

    Sorted ascending, the value is the one with exactly ten samples above
    it, and its percentile is the share of samples at or below it.  With
    ten samples or fewer no percentile qualifies and the minimum is
    returned at percentile 0.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return (min(values) if values else 0.0), 0.0, n
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n, n


@dataclass
class Phase:
    """Everything a timed phase measured, raw and normalized."""

    lat_ms: List[float] = field(default_factory=list)
    raw_lat_ms: List[float] = field(default_factory=list)
    #: Busy time of the phase (calibration bursts excluded), seconds.
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    #: Normalization factor of each block, in order.
    factors: List[float] = field(default_factory=list)

    def add_block(self, raw_lat_ms: List[float], raw_busy_s: float,
                  factor: float) -> None:
        self.factors.append(factor)
        self.raw_lat_ms.extend(raw_lat_ms)
        self.lat_ms.extend(v * factor for v in raw_lat_ms)
        self.raw_busy_s += raw_busy_s
        self.busy_s += raw_busy_s * factor

    def ops_per_s(self) -> float:
        return len(self.lat_ms) / self.busy_s if self.busy_s else 0.0

    def raw_ops_per_s(self) -> float:
        return len(self.raw_lat_ms) / self.raw_busy_s if self.raw_busy_s \
            else 0.0


def run_blocks(calibrator: Calibrator, seconds: float,
               block: Callable[[float], Tuple[List[float], float]],
               block_s: float = 0.0, phase: Optional[Phase] = None) -> Phase:
    """Alternate blocks of work with calibration bursts for *seconds*.

    ``block(deadline)`` runs operations until the perf_counter *deadline*
    (at least one) and returns ``(raw latencies in ms, raw busy
    seconds)``; it must leave no work in flight.  Each block is
    normalized with the bursts on either side of it, so the shorter the
    block (*block_s*; 0 = one operation), the closer the calibration sits
    to the work it normalizes.
    """
    phase = phase or Phase()
    end = time.perf_counter() + seconds
    before = calibrator.burst()
    while True:
        now = time.perf_counter()
        if now >= end:
            break
        lat, busy = block(min(now + block_s, end))
        after = calibrator.burst()
        phase.add_block(lat, busy, calibrator.factor(before, after))
        before = after
    return phase


def rss_peak_mb(pids: List[int]) -> float:
    """Sum of the peak resident set sizes (VmHWM) of *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def process_tree(root: int) -> List[int]:
    """*root* and all its live descendants, read from /proc."""
    parents: Dict[int, List[int]] = {}
    for entry in (int(name) for name in os.listdir("/proc")
                  if name.isdigit()):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(entry)
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(parents.get(pid, []))
    return tree


class Record:
    """Metrics of one run plus the notes that explain them.

    ``emit`` prints one human-readable line per metric (name, value,
    unit), a JSON detail line, and last the one-line JSON result.
    """

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.notes: Dict[str, object] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def note(self, key: str, value: object) -> None:
        self.notes[key] = value

    def end_to_end(self, calibrator: Calibrator, phase: Phase,
                   setup_raw_s: List[float], attempted: int, failed: int,
                   mem_mb: float, cycles_per_op: float) -> None:
        """The seven end-to-end metrics, plus the raw figures and the
        tail's percentile and sample count as notes.  Set-up is normalized
        with the whole run's factor: no burst can sit beside it."""
        value, percentile, n = tail(phase.lat_ms)
        self.put("setup_s", p50(setup_raw_s) * calibrator.run_factor(), "s")
        self.put("p50_ms", p50(phase.lat_ms), "ms")
        self.put("tail_ms", value, "ms")
        self.put("ops_per_s", phase.ops_per_s(), "1/s")
        self.put("ok_frac", (attempted - failed) / attempted, "ratio")
        self.put("mem_mb", mem_mb, "MB")
        self.put("avr_cycles_per_op", cycles_per_op, "cycles")
        self.note("tail", f"p{percentile:.2f} of {n} samples")
        self.note("raw", {"p50_ms": p50(phase.raw_lat_ms),
                          "ops_per_s": phase.raw_ops_per_s(),
                          "setup_s": p50(setup_raw_s)})

    def emit(self, attempted: int, failed: int, correct: bool) -> None:
        for name, metric in self.metrics.items():
            print(f"{name} {metric['value']} {metric['unit']}")
        for key, value in self.notes.items():
            if isinstance(value, str):
                print(f"# {key}: {value}")
        print(json.dumps({"record": {"workload": self.workload,
                                     "seed": self.seed,
                                     "trace": int(self.trace),
                                     **self.notes}}, sort_keys=True))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": self.metrics}))
