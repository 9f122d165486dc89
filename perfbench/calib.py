"""Host-speed calibration and reference-host normalization.

The benchmark's host drifts in speed by up to ~2x over minutes, so a raw
wall-clock time does not repeat.  A fixed pure-Python kernel (big-int
arithmetic, an interpreter loop and a cache-missing pointer chase, the
mix the program spends its time in) is timed in short bursts between
blocks of operations while the program has no work in flight.  Each
block's host times are divided by the mean of the neighbouring burst
readings and multiplied by the reference constant passed as
``--calib-ref-ms`` (recorded in ``BENCHMARK.json``'s ``command``), so
every time stays in ms or s but reads as if measured on the reference
host, one where a burst reads that many milliseconds.

This module imports nothing from ``repro``: the calibration must not move
when the program changes.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import List, Sequence

#: Kernel repetitions per burst; the burst's median is its reading.
BURST_ROUNDS = 7

# A 160-bit modulus: secp160r1's p, spelled out so nothing is imported.
_MODULUS = (1 << 160) - (1 << 31) - 1
_BIGINT_STEPS = 500
_WORD_ROUNDS = 40
#: The pointer chase walks a random cycle over this many list slots
#: (~8 MB with their int objects: past the per-core caches).
_CHASE_NODES = 1 << 18
_CHASE_STEPS = 1200


class CalibrationKernel:
    """Fixed work (~0.6-1.4 ms on a 2-vCPU Xeon VM) in three parts, timed
    as one:

    * chained 160-bit modular squarings (big-int C code);
    * schoolbook products of 5 x 32-bit word lists (the interpreter loop
      of small-int arithmetic, indexing and allocation that word-level
      field code runs);
    * a pointer chase over a random cycle through ~8 MB, continuing where
      the previous call stopped, so each call misses the core's caches the
      way a multi-process server's larger working set does.
    """

    def __init__(self) -> None:
        order = list(range(_CHASE_NODES))
        random.Random(0).shuffle(order)
        self._next = [0] * _CHASE_NODES
        for here, there in zip(order, order[1:] + order[:1]):
            self._next[here] = there
        self._at = 0

    def __call__(self) -> int:
        x = 0x4A96B5688EF573284664698968C38BB913CBFC82
        for i in range(_BIGINT_STEPS):
            x = (x * x + i) % _MODULUS
        xs = [(x >> (32 * j)) & 0xFFFFFFFF for j in range(5)]
        ys = [0x2468ACE0, 0x11111111, 0xDEADBEEF, 0xCAFEBABE, 0x0BADF00D]
        for _ in range(_WORD_ROUNDS):
            out = [0] * 10
            acc = 0
            for k in range(9):
                for i in range(max(0, k - 4), min(k, 4) + 1):
                    acc += xs[i] * ys[k - i]
                out[k] = acc & 0xFFFFFFFF
                acc >>= 32
            out[9] = acc
            xs = [w ^ out[j] for j, w in enumerate(xs)]
        at, nxt = self._at, self._next
        for _ in range(_CHASE_STEPS):
            at = nxt[at]
        self._at = at
        return sum(xs) ^ at


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class Calibrator:
    """Calibration bursts of one run, and the factors they imply.

    A burst runs the kernel :data:`BURST_ROUNDS` times and reads as the
    median round, which shrugs off a round that an interrupt or a
    collection happened to hit.  With *cpus*, the burst is split across
    those CPUs (pinning this thread to each in turn) and reads as the
    mean of their medians: the program under test then runs in other
    processes spread over those CPUs, whose speeds drift independently.

    The host's speed flips between states faster than a second and an
    operation runs through a mix of them, so readings are combined by
    their mean: work measured between bursts *i* and *i + 1* is normalized
    with :meth:`factor` ``(i)``, the reference constant over the mean of
    both readings.
    """

    def __init__(self, ref_ms: float, cpus: Sequence[int] = (),
                 clock=time.perf_counter):
        if ref_ms <= 0:
            raise ValueError("the calibration reference must be positive")
        self.ref_ms = ref_ms
        self.cpus = tuple(cpus)
        #: One reading (ms) per burst, in order.
        self.readings: List[float] = []
        #: Every kernel round timed in the run (ms).
        self.rounds: List[float] = []
        self._clock = clock
        self._kernel = CalibrationKernel()

    def _rounds(self, count: int) -> List[float]:
        clock, kernel = self._clock, self._kernel
        out = []
        for _ in range(count):
            t0 = clock()
            kernel()
            out.append((clock() - t0) * 1e3)
        self.rounds.extend(out)
        return out

    def burst(self) -> int:
        """Time one burst; returns its index."""
        if not self.cpus:
            reading = median(self._rounds(BURST_ROUNDS))
        else:
            home = os.sched_getaffinity(0)
            per_cpu = max(3, BURST_ROUNDS // len(self.cpus))
            try:
                medians = []
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    medians.append(median(self._rounds(per_cpu)))
            finally:
                os.sched_setaffinity(0, home)
            reading = statistics.fmean(medians)
        self.readings.append(reading)
        return len(self.readings) - 1

    def factor(self, first: int, last: int = -1) -> float:
        """Reference-host factor for work between bursts *first*..*last*
        (*last* defaults to ``first + 1``, the burst right after)."""
        if last < 0:
            last = first + 1
        return normalize_factor(self.ref_ms, self.readings[first:last + 1])

    def run_factor(self) -> float:
        """Factor over every burst of the run, for work such as set-up
        that no burst can sit beside."""
        return normalize_factor(self.ref_ms, self.readings)

    def calib_ms(self) -> float:
        """Median raw kernel round over the run."""
        return median(self.rounds)

    def calib_iqr(self) -> float:
        """Within-run spread of the burst readings (IQR / median)."""
        return spread(self.readings)


def normalize_factor(ref_ms: float, readings: Sequence[float]) -> float:
    """``ref_ms`` over the mean calibration reading: multiply a raw host
    time by this to express it in reference-host units."""
    return ref_ms / statistics.fmean(readings)
