"""The JAAVR core: fetch-decode-execute with cycle accounting.

``AvrCore`` models the paper's ATmega128-compatible softcore in its three
modes (:class:`~repro.avr.timing.Mode`): CA (ATmega128 cycle timing), FAST
(improved load/store/multiply CPI) and ISE (FAST plus the (32 x 4)-bit MAC
unit of :mod:`repro.avr.mac`).

Decoded instructions are cached per flash address, so repeated kernel
executions pay the Python decode cost only once; the cache is keyed to
:attr:`ProgramMemory.version` and is dropped whenever the flash image
changes.  A program halts by executing ``BREAK`` (the convention all kernels
in :mod:`repro.kernels` follow) or when :meth:`run` hits its step budget (an
error).

:meth:`run` has one compiled dispatcher and one reference:

* :mod:`repro.avr.trace` (``engine="trace"``, the default) — straight-line
  paths stitched across CALL/RET and fall-through boundaries, compiled
  ahead of time into specialised functions and guarded per dispatch.  Its
  fallback ladder: a flash change invalidates the compiled superblocks,
  a profiled run goes to the basic-block
  :class:`~repro.avr.engine.FastEngine` (exact per-block tallies), an
  ineligible entry to one :meth:`step`.
* :meth:`step` (``engine="reference"``) — the reference interpreter, the
  simplest statement of the semantics; the differential tests hold the
  dispatcher equal to it.

The core owns the basic-block engine (:attr:`fast_engine`); the fault
injector and the taint tracker stride on it too.  Profiling works on both
engines: the interpreter records every retired instruction, the
basic-block engine folds compiled per-block tallies into the profiler at
run end — the parity tests assert identical tallies.

MAC hazards have one contract (paper Sec. IV-A, Algorithm 2): an
instruction that touches a MAC-owned register while nibble MACs are in
flight, or a trigger load that finds more than one nibble still pending,
raises :class:`~repro.avr.mac.MacHazardError`.  The MAC unit never stalls.
A consequence every tier relies on: at most two nibbles are pending at any
instruction boundary.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .instructions import EXECUTORS
from .isa import BY_NAME, InstructionSpec, decode_word
from .mac import (
    _LOAD_NAMES,
    MACCR_IO_ADDR,
    MacHazardError,
    MacUnit,
    conflicts_with_mac,
)
from .memory import IO_SREG, DataSpace, ProgramMemory
from .profiler import CALL_SEMS, RET_SEMS
from .sreg import StatusRegister
from .timing import Mode, dynamic_cycles


class ExecutionError(RuntimeError):
    """Raised for illegal opcodes or exceeded step budgets."""


class AvrCore:
    """An ATmega128-compatible core with selectable timing mode."""

    def __init__(self, program: Optional[ProgramMemory] = None,
                 mode: Mode = Mode.CA, sram_size: int = 4096,
                 engine: str = "trace"):
        if engine not in ("trace", "reference"):
            raise ValueError(f"unknown execution engine {engine!r}")
        self.program = program or ProgramMemory()
        self.mode = mode
        self.data = DataSpace(sram_size=sram_size)
        self.sreg = StatusRegister()
        self.pc = 0
        self.cycles = 0
        self.instructions_retired = 0
        self.halted = False
        self.mac = MacUnit()
        # Dynamic-timing scratch fields set by the executors.
        self.last_branch_taken = False
        self.last_skip_words = 0
        # Map SREG into the I/O space.
        self.data.io_read_hooks[IO_SREG] = lambda: self.sreg.value
        self.data.io_write_hooks[IO_SREG] = self._sreg_write
        if mode is Mode.ISE:
            self.data.io_read_hooks[MACCR_IO_ADDR] = self.mac.control_read
            self.data.io_write_hooks[MACCR_IO_ADDR] = self.mac.control_write
        # Stack pointer: top of SRAM.
        self.data.sp = self.data.size - 1
        # Decode cache: word address -> (spec, ops, words); valid only for
        # the flash image identified by ``_decode_version``.
        self._decode_cache: Dict[int, Tuple[InstructionSpec, dict, int]] = {}
        self._decode_version = self.program.version
        #: Which engine :meth:`run` uses: "trace" (the superblock
        #: dispatcher) or "reference" (the :meth:`step` interpreter).
        self.engine = engine
        self._fast_engine = None  # see the fast_engine property
        self._trace_engine = None  # lazily constructed repro.avr.trace
        #: Optional profiler (attach with :meth:`attach_profiler`).
        self.profiler = None
        #: Raw per-block tallies while the basic-block engine runs profiled
        #: (:class:`repro.avr.profiler.EngineProfile`; lazily created).
        self._engine_profile = None

    # -- helpers ---------------------------------------------------------------

    def _sreg_write(self, value: int) -> None:
        self.sreg.value = value & 0xFF

    def attach_profiler(self, profiler) -> None:
        """Attach a :class:`repro.avr.profiler.Profiler`.

        Works with both engines.  Profiled dispatcher runs keep compiled
        speed on the basic-block engine: it switches to a parallel cache of
        closures that carry the tally bookkeeping inline (a couple of
        integer increments per *block*) and folds into the profiler at run
        end.
        """
        self.profiler = profiler

    @property
    def fast_engine(self):
        """This core's basic-block :class:`~repro.avr.engine.FastEngine`.

        Built on first use and shared by every caller that executes whole
        compiled blocks on this core: the superblock dispatcher's
        fallbacks, :class:`~repro.faults.injector.FaultInjector` strides
        and :class:`~repro.avr.taint.TaintTracker` taint-free stretches.
        """
        if self._fast_engine is None:
            from .engine import FastEngine

            self._fast_engine = FastEngine(self)
        return self._fast_engine

    def reset(self, pc: int = 0) -> None:
        """Reset PC, cycle counter, MAC state and the stack pointer.

        The stack pointer is restored to top-of-SRAM, exactly as after
        construction; the rest of the data space is preserved so operands
        staged for a kernel survive the reset.
        """
        self.pc = pc
        self.cycles = 0
        self.instructions_retired = 0
        self.halted = False
        self.mac.counter = 0
        self.mac.pending.clear()
        self.mac.mac_ops = 0
        self.data.sp = self.data.size - 1

    # -- MAC notifications (called from instruction semantics) -------------------

    def notify_swap(self, reg: int, new_value: int) -> None:
        if self.mode is Mode.ISE:
            self.mac.on_swap(self.data, reg, new_value)

    def notify_load(self, reg: int) -> None:
        if self.mode is Mode.ISE:
            self.mac.on_load(self.data, reg)

    # -- execution --------------------------------------------------------------

    def decode_at(self, word_address: int) -> Tuple[InstructionSpec, dict, int]:
        if self._decode_version != self.program.version:
            self._decode_cache.clear()
            self._decode_version = self.program.version
        cached = self._decode_cache.get(word_address)
        if cached is not None:
            return cached
        word = self.program.fetch(word_address)
        spec = decode_word(word)
        if spec is None:
            raise ExecutionError(
                f"illegal opcode {word:#06x} at {word_address:#06x}"
            )
        second = (self.program.fetch(word_address + 1)
                  if spec.words == 2 else None)
        ops = spec.decode_operands(word, second)
        entry = (spec, ops, spec.words)
        self._decode_cache[word_address] = entry
        return entry

    def step(self) -> int:
        """Execute one instruction; returns the cycles it consumed."""
        if self.halted:
            raise ExecutionError("core is halted")
        pc = self.pc
        spec, ops, words = self.decode_at(pc)

        # MAC hazard check: nibble MACs scheduled by a previous load are
        # still in flight during this instruction's cycles.
        pre_pending = len(self.mac.pending)
        if pre_pending and conflicts_with_mac(spec.name, ops):
            if spec.name in _LOAD_NAMES and ops.get("d") == 24:
                # A new trigger load needs both following cycles for its own
                # MACs; more than one leftover nibble oversubscribes the unit
                # (Algorithm 2 issues a trigger at most every other cycle).
                if pre_pending > 1:
                    raise MacHazardError(
                        f"MAC issue-rate exceeded at pc={self.pc:#06x}: "
                        f"{pre_pending} nibble MACs still pending"
                    )
            else:
                raise MacHazardError(
                    f"{spec.name} touches MAC-owned registers at "
                    f"pc={self.pc:#06x} while {pre_pending} MAC(s) pending"
                )

        self.last_branch_taken = False
        self.last_skip_words = 0
        next_pc = EXECUTORS[spec.semantics](self, ops)
        cycles = dynamic_cycles(spec, self.mode, self.last_branch_taken,
                                self.last_skip_words)

        # Drain previously scheduled MACs — one per elapsed cycle.
        for _ in range(min(cycles, pre_pending)):
            self.mac.drain_one(self.data)

        self.pc = next_pc if next_pc is not None else self.pc + words
        self.cycles += cycles
        self.instructions_retired += 1
        if self.profiler is not None:
            self.profiler.record(spec, cycles, pc)
            sem = spec.semantics
            if sem in CALL_SEMS:
                self.profiler.on_call(self.pc, pc + words, self.cycles)
            elif sem in RET_SEMS:
                self.profiler.on_ret(self.cycles)
        return cycles

    def run(self, max_steps: int = 50_000_000) -> int:
        """Run until ``BREAK``; returns total cycles since the last reset.

        Dispatches to the superblock :class:`~repro.avr.trace.TraceEngine`
        unless the core was built with ``engine="reference"``
        (interpreter).  An attached profiler rides along on both engines;
        frames still open when the program halts are closed at the final
        cycle count.
        """
        if self.engine == "reference":
            cycles = self.run_reference(max_steps)
        else:
            if self._trace_engine is None:
                from .trace import TraceEngine

                self._trace_engine = TraceEngine(self)
            cycles = self._trace_engine.run(max_steps)
        if self.profiler is not None and self.halted:
            self.profiler.finish(self.cycles)
        return cycles

    def run_reference(self, max_steps: int = 50_000_000) -> int:
        """Run on the reference :meth:`step` interpreter until ``BREAK``."""
        steps = 0
        while not self.halted:
            self.step()
            steps += 1
            if steps > max_steps:
                raise ExecutionError(
                    f"step budget of {max_steps} exceeded at pc={self.pc:#06x}"
                )
        return self.cycles

    def call(self, word_address: int, max_steps: int = 50_000_000) -> int:
        """Run the subroutine at *word_address* until it halts (BREAK)."""
        self.reset(pc=word_address)
        return self.run(max_steps)
