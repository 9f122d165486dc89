"""Workload ``iss_ladder``: the 160-bit x-only ladder kernel on the ISS.

``repro.kernels.LadderKernel`` in ISE mode, on the engine entry points get
with no engine argument, run repeatedly with a fresh seeded scalar and
base x each time.
"""

from __future__ import annotations

import os
import random
import resource
import time
from typing import Any, Dict, List, Tuple

import refmath
from calib import Calibrator
from measure import Phase, Record, p50, run_blocks

WHY = ("only repro.avr and repro.kernels run here, and the paper's headline "
       "measured point multiplication is the op; simulated cycles must not "
       "move under any host-side change")

#: The paper's Table II Montgomery-ladder row, kCycles on the ATmega128.
PAPER_LADDER_KCYCLES = 5545
#: Leading ops the traced run replays with spans on.
TRACED_OPS = 3
KERNEL_REPS = 30


def build(seed: int):
    """Assemble the ISE ladder kernel and run it once (first-run compile)."""
    from repro.avr.timing import Mode
    from repro.kernels import LadderKernel, OpfConstants

    kernel = LadderKernel(OpfConstants(u=65356, k=144), Mode.ISE)
    kernel.run(random.Random(f"{seed}:warm").getrandbits(160), 9)
    return kernel


class IssLadder:
    def __init__(self, root: str, seed: int, ref_ms: float, trace: bool):
        from repro.curves import params as P
        from repro.curves.params import make_suite

        self.root = root
        self.seed = seed
        self.cal = Calibrator(ref_ms)
        self.trace = trace
        self.p = P.OPF_P
        self.ref = refmath.Montgomery(P.OPF_P, P.MONTGOMERY_A,
                                      P.MONTGOMERY_B)
        self.g_table = refmath.doublings(
            self.ref, (P.MONTGOMERY_GX, P.MONTGOMERY_GY))
        #: Plain big-int suite for the host ladder the ISS is checked with.
        self.host = make_suite("montgomery", functional=True)

    def op_input(self, i: int) -> Tuple[int, Tuple[int, int]]:
        rng = random.Random(f"{self.seed}:ladder:{i}")
        k = rng.getrandbits(160)
        base = refmath.mul_doublings(self.ref, rng.randrange(1, 1 << 159),
                                     self.g_table)
        return k, base

    def run_op(self, kernel, i: int) -> Tuple[float, bool, int, int]:
        """Op *i*, timed; returns (raw ms, correct, cycles, instructions)."""
        from repro.curves.point import AffinePoint
        from repro.scalarmult import montgomery_ladder_x

        k, base = self.op_input(i)
        t0 = time.perf_counter()
        x_out, z_out, cycles = kernel.run(k, base[0])
        ms = (time.perf_counter() - t0) * 1e3
        instructions = kernel.core.instructions_retired
        f = self.host.field
        xz = montgomery_ladder_x(
            self.host.curve, k,
            AffinePoint(f.from_int(base[0]), f.from_int(base[1])), bits=160)
        p = self.p
        if z_out % p == 0 or xz.is_infinity():
            ok = z_out % p == 0 and xz.is_infinity()
        else:
            ok = x_out * pow(z_out, -1, p) % p \
                == self.host.curve.x_affine(xz).to_int()
        return ms, ok, cycles, instructions

    def run(self, seconds: float, record: Record) -> Tuple[int, int]:
        from probe import setup_seconds

        setup_raw = setup_seconds(self.root, "iss_ladder", self.seed)
        before = self.cal.burst()
        t0 = time.perf_counter()
        kernel = build(self.seed)
        first_run_s = (time.perf_counter() - t0) \
            * self.cal.factor(before, self.cal.burst())
        failures: List[int] = []
        cycles_seen: set = set()
        instr_seen: set = set()
        counter = [0]

        def block(deadline: float):
            lats, busy = [], 0.0
            while not lats or time.perf_counter() < deadline:
                i = counter[0]
                counter[0] += 1
                ms, ok, cycles, instructions = self.run_op(kernel, i)
                lats.append(ms)
                busy += ms / 1e3
                cycles_seen.add(cycles)
                instr_seen.add(instructions)
                if not ok:
                    failures.append(i)
            return lats, busy

        phase = run_blocks(self.cal, seconds, block)
        mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = counter[0]
        if len(cycles_seen) != 1:
            # The masked ladder is constant-time: one cycle count per run.
            failures.append(-1)
        cycles = max(cycles_seen)
        record.end_to_end(self.cal, phase, setup_raw, attempted,
                          len(failures), mem_mb, cycles)
        record.note("ladder", f"{cycles} ISE cycles per 160-bit ladder "
                    f"(paper Table II Montgomery: {PAPER_LADDER_KCYCLES} "
                    "kCycles on the ATmega128)")
        record.note("failures", failures[:20])
        if self.trace:
            self._layers(record, kernel, phase, first_run_s,
                         max(instr_seen), cycles)
        return attempted, len(failures)

    def _layers(self, record: Record, kernel, phase: Phase,
                first_run_s: float, instructions: int, cycles: int) -> None:
        import layers
        from ledger import Instrument, SpanLog
        from repro.avr.core import AvrCore
        from repro.kernels import LadderKernel

        m = layers.empty()
        m["avr.instructions_per_op"] = instructions
        m["avr.cycles_per_op"] = cycles
        m["avr.first_run_s"] = first_run_s
        m["avr.mips.fast"] = instructions * len(phase.lat_ms) \
            / phase.busy_s / 1e6
        m["avr.mips.trace"] = self._mips("trace", instructions)
        record.note("table1", self._table1(m))
        log = SpanLog()
        traced = []
        before = self.cal.burst()
        with Instrument(log) as inst:
            inst.method(LadderKernel, "run", "ladder_kernel", "kernels")
            inst.method(AvrCore, "run", "core.run", "avr")
            for i in range(TRACED_OPS):
                with log.span("ladder"):
                    ms, ok, _, _ = self.run_op(kernel, i)
                traced.append(ms)
                if not ok:
                    raise RuntimeError(f"traced op {i} gave a wrong result")
        factor = self.cal.factor(before, self.cal.burst())
        log.write(os.path.join(self.root, ".bench_out",
                               "spans-iss_ladder.jsonl"))
        layers.host(m, self.cal, phase)
        m["obs.trace_overhead"] = p50([t * factor for t in traced]) \
            / p50(phase.lat_ms[:TRACED_OPS])
        layers.put_all(record, m)

    def _mips(self, engine: str, instructions: int) -> float:
        """Simulated MIPS of one engine on the ladder (reference host)."""
        from repro.avr.timing import Mode
        from repro.kernels import LadderKernel, OpfConstants

        kernel = LadderKernel(OpfConstants(u=65356, k=144), Mode.ISE,
                              engine=engine)
        kernel.run(*self._ladder_args(0))  # first-run compile, untimed
        before = self.cal.burst()
        busy = 0.0
        for i in range(1, 4):
            k, x = self._ladder_args(i)
            t0 = time.perf_counter()
            kernel.run(k, x)
            busy += time.perf_counter() - t0
        busy *= self.cal.factor(before, self.cal.burst())
        return 3 * instructions / busy / 1e6

    def _ladder_args(self, i: int) -> Tuple[int, int]:
        k, base = self.op_input(i)
        return k, base[0]

    def _table1(self, m: Dict[str, Any]) -> str:
        """The Table I field kernels on the ISS: cycles, and host time per
        run on the default engine; returns the cycles beside the paper's."""
        from repro.avr.timing import Mode
        from repro.kernels import (
            KernelRunner,
            OpfConstants,
            generate_modadd,
            generate_modsub,
            generate_opf_mul_comba,
            generate_opf_mul_mac,
        )
        from repro.model.paper_data import TABLE1_RUNTIMES

        constants = OpfConstants(u=65356, k=144)
        rng = random.Random(f"{self.seed}:table1")
        a, b = rng.randrange(self.p), rng.randrange(self.p)
        generators = {
            "opf_add": lambda mode: generate_modadd(constants),
            "opf_sub": lambda mode: generate_modsub(constants),
            "opf_mul": lambda mode: (generate_opf_mul_mac(constants)
                                     if mode is Mode.ISE else
                                     generate_opf_mul_comba(constants)),
        }
        paper_rows = {"opf_add": "addition", "opf_sub": "subtraction",
                      "opf_mul": "multiplication"}
        lines = []
        for name, generate in generators.items():
            for mode in (Mode.CA, Mode.FAST, Mode.ISE):
                runner = KernelRunner(generate(mode), mode)
                _, cycles = runner.run(a, b)
                before = self.cal.burst()
                t0 = time.perf_counter()
                for _ in range(KERNEL_REPS):
                    runner.run(a, b)
                us = (time.perf_counter() - t0) / KERNEL_REPS * 1e6 \
                    * self.cal.factor(before, self.cal.burst())
                m[f"kernels.{name}.{mode.value}.cycles"] = cycles
                m[f"kernels.{name}.{mode.value}.us"] = us
                paper = TABLE1_RUNTIMES[paper_rows[name]][mode.value]
                lines.append(f"{name}/{mode.value} {cycles} (paper {paper})")
        return "; ".join(lines)
