"""The JAAVR substrate: an ATmega128-compatible instruction-set simulator.

* :class:`~repro.avr.core.AvrCore` — fetch/decode/execute with per-mode
  cycle accounting (CA / FAST / ISE, :class:`~repro.avr.timing.Mode`).
* :mod:`~repro.avr.assembler` / :mod:`~repro.avr.disasm` — two-pass
  assembler and disassembler over the shared encoding table.
* :class:`~repro.avr.mac.MacUnit` — the paper's (32 x 4)-bit MAC extension
  with both trigger mechanisms (SWAP re-interpretation and R24 loads).
* :class:`~repro.avr.trace.TraceEngine` — the superblock dispatcher
  behind ``AvrCore.run()`` (the ``step()`` interpreter stays the
  reference); :class:`~repro.avr.engine.FastEngine` is its basic-block
  rung for profiled runs, fault-injection and taint strides.
* :class:`~repro.avr.profiler.Profiler` — instruction-mix reporting.
* :class:`~repro.avr.taint.TaintTracker` — secret-taint shadow execution
  for constant-time verification (DESIGN.md §9, ``python -m repro
  ctcheck``).
"""

from .assembler import Assembler, AssemblyError, Program, assemble
from .core import AvrCore, ExecutionError
from .disasm import disassemble, disassemble_one
from .engine import FastEngine
from .mac import (
    MACCR_IO_ADDR,
    MACCR_LOAD_ENABLE,
    MACCR_RESET_COUNTER,
    MACCR_SWAP_ENABLE,
    MacHazardError,
    MacUnit,
)
from .memory import DataSpace, ProgramMemory, SRAM_BASE
from .profiler import Profiler, SymbolIndex
from .sreg import StatusRegister
from .taint import TAINT_RULES, TaintTracker, TaintViolation
from .timing import Mode

__all__ = [
    "Assembler",
    "AssemblyError",
    "AvrCore",
    "DataSpace",
    "ExecutionError",
    "FastEngine",
    "MACCR_IO_ADDR",
    "MACCR_LOAD_ENABLE",
    "MACCR_RESET_COUNTER",
    "MACCR_SWAP_ENABLE",
    "MacHazardError",
    "MacUnit",
    "Mode",
    "Profiler",
    "Program",
    "ProgramMemory",
    "SRAM_BASE",
    "StatusRegister",
    "SymbolIndex",
    "TAINT_RULES",
    "TaintTracker",
    "TaintViolation",
    "assemble",
    "disassemble",
    "disassemble_one",
]
