"""Execution harness for the field-operation kernels.

A :class:`KernelRunner` owns an :class:`~repro.avr.core.AvrCore` in a chosen
mode, assembles a kernel once, and then exposes ``run(a, b) -> (result,
cycles)`` with operands placed at the canonical SRAM addresses.  The Table I
benchmarks call kernels through this harness and compare both the *values*
(against the Python OPF library) and the *cycles* (against the paper).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..avr.assembler import assemble
from ..avr.core import AvrCore
from ..avr.memory import ProgramMemory
from ..avr.profiler import Profiler
from ..avr.timing import Mode
from ..obs import trace as _trace
from .layout import ADDR_A, ADDR_B, ADDR_R, OPERAND_BYTES


class KernelRunner:
    """Assemble once, run many times with fresh operands."""

    def __init__(self, source: str, mode: Mode = Mode.CA,
                 sram_size: int = 8192, engine: str = "trace"):
        self.source = source
        self.mode = mode
        self.program = assemble(source)
        self.core = AvrCore(ProgramMemory(), mode=mode,
                            sram_size=sram_size, engine=engine)
        self.program.load_into(self.core.program)
        self.profiler: Optional[Profiler] = None

    @property
    def code_bytes(self) -> int:
        """Kernel size in flash bytes (a Table III 'ROM' contribution)."""
        return self.program.size_bytes

    def attach_profiler(self) -> Profiler:
        self.profiler = Profiler()
        self.profiler.set_symbols(self.program.symbols)
        self.core.attach_profiler(self.profiler)
        return self.profiler

    def stage(self, a: int, b: Optional[int] = None,
              operand_bytes: int = OPERAND_BYTES) -> None:
        """Place operand(s) at the canonical addresses and reset the core.

        After staging, the core is ready to run from PC 0 — callers that
        need to interpose on execution (the constant-time checker marks
        the staged operand bytes as secret and drives a
        :class:`~repro.avr.taint.TaintTracker` itself) use this instead
        of :meth:`run`.
        """
        core = self.core
        core.data.load_bytes(ADDR_A, a.to_bytes(operand_bytes, "little"))
        if b is not None:
            core.data.load_bytes(ADDR_B, b.to_bytes(operand_bytes, "little"))
        if self.profiler is not None:
            self.profiler.reset()
        core.reset(pc=0)  # also restores SP to top-of-SRAM

    def read_result(self, operand_bytes: int = OPERAND_BYTES) -> int:
        """The little-endian result currently at ``ADDR_R``."""
        return int.from_bytes(
            self.core.data.dump_bytes(ADDR_R, operand_bytes), "little"
        )

    def run(self, a: int, b: Optional[int] = None,
            operand_bytes: int = OPERAND_BYTES) -> Tuple[int, int]:
        """Execute the kernel on operand(s); returns (result, cycles).

        Operands are little-endian values of *operand_bytes* bytes placed at
        the canonical addresses; the result is read from ``ADDR_R``.
        """
        core = self.core
        self.stage(a, b, operand_bytes)
        tr = _trace.CURRENT
        span = tr.start("kernel", kind="kernel",
                        mode=self.mode.name) if tr is not None else None
        try:
            cycles = core.run()
        finally:
            if span is not None:
                span.set(cycles=core.cycles,
                         instructions=core.instructions_retired)
                tr.end(span)
        return self.read_result(operand_bytes), cycles
