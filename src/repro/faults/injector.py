"""Deterministic fault injection into a running :class:`AvrCore`.

The injector drives the core itself so that a fault lands at a precise,
engine-independent point: the first **instruction boundary** at which the
cycle counter has reached the fault's trigger cycle.  On a ``reference``
core that boundary is reached by single-stepping.  On a default core the
injector advances in compiled-block strides of the core's basic-block
engine (:meth:`FastEngine.step_block`; superblocks carry no fault hooks)
while the trigger is provably more than one block away — a block can cost at
most ``MAX_BLOCK_INSTRUCTIONS * MAX_INSTR_CYCLES`` cycles — and switches to
single-stepping for the final approach.  Every execution tier therefore
interrupts at the *same* boundary with the same architectural state, which
is what the parity tests in ``tests/test_faults.py`` assert.

Fault application (see :mod:`repro.faults.model` for the taxonomy):

* ``sram`` / ``reg`` / ``acc`` bit flips write the data space directly —
  a physical SEU on the SRAM macro or register file, not a bus access, so
  no I/O hooks fire.
* ``skip`` decodes the instruction at PC and advances PC past it without
  executing — the classic glitch effect.
* ``opcode`` XORs one bit into the flash word at PC, executes exactly one
  instruction through the reference interpreter, then restores the word.
  Both writes bump :attr:`ProgramMemory.version`, so the decode cache and
  any compiled blocks covering the corrupted word are invalidated and the
  compiled tiers recompile (hitting the global block cache once the original
  word is back) — transient corruption never leaks into later execution.

After all faults are applied the program runs to completion (``BREAK``)
with the core's configured engine.  Crashes — illegal opcodes, MAC hazards,
out-of-range memory traffic, exceeded step budgets — propagate to the
caller; campaigns classify them as *detected* (DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..avr.core import AvrCore
from ..avr.engine import MAX_BLOCK_INSTRUCTIONS
from ..avr.timing import MAX_INSTR_CYCLES
from .model import FaultSpec

__all__ = ["AppliedFault", "FaultInjector"]

#: A compiled block can never cost more cycles than this.
_BLOCK_CYCLE_BOUND = MAX_BLOCK_INSTRUCTIONS * MAX_INSTR_CYCLES


@dataclass(frozen=True)
class AppliedFault:
    """Where a fault actually landed: the PC/cycle at its boundary."""

    spec: FaultSpec
    pc: int
    cycle: int
    applied: bool  # False when the program halted before the trigger


class FaultInjector:
    """Run a core to completion with faults injected at their triggers.

    The core must be freshly staged (operands loaded, ``reset()`` done) and
    must not have a profiler attached — profiled runs fold their tallies
    only at run end, which an interposed fault would split.
    """

    def __init__(self, core: AvrCore, faults: Sequence[FaultSpec],
                 max_steps: int = 200_000_000):
        if core.profiler is not None:
            raise ValueError("fault injection does not support an attached "
                             "profiler; detach it first")
        self.core = core
        # Stable sort: faults sharing a trigger apply in list order.
        self.faults = sorted(faults, key=lambda s: s.cycle)
        self.max_steps = max_steps
        self._engine = (core.fast_engine if core.engine != "reference"
                        else None)

    # -- driving ------------------------------------------------------------

    def _steps_used(self) -> int:
        return self.core.instructions_retired

    def _advance_to(self, trigger: int) -> None:
        """Run until the first instruction boundary with cycles >= trigger."""
        core = self.core
        engine = self._engine
        while not core.halted and core.cycles < trigger:
            if engine is not None and (
                    core.cycles + _BLOCK_CYCLE_BOUND < trigger):
                engine.step_block()
            else:
                core.step()
            if self._steps_used() > self.max_steps:
                from ..avr.core import ExecutionError
                raise ExecutionError(
                    f"step budget of {self.max_steps} exceeded while "
                    f"advancing to fault trigger {trigger}"
                )

    # -- fault application --------------------------------------------------

    def _apply(self, spec: FaultSpec) -> None:
        core = self.core
        if spec.kind == "bitflip":
            address = spec.address
            if spec.target == "sram":
                if not 0 <= address < core.data.size:
                    raise ValueError(
                        f"sram fault address {address:#06x} outside the "
                        f"data space")
            # reg/acc addresses are register indices == data addresses.
            core.data._mem[address] ^= 1 << spec.bit
        elif spec.kind == "skip":
            _spec, _ops, words = core.decode_at(core.pc)
            core.pc += words
        else:  # opcode
            pc = core.pc
            original = core.program.fetch(pc)
            core.program.write_word(pc, original ^ (1 << spec.bit))
            try:
                core.step()
            finally:
                core.program.write_word(pc, original)

    # -- entry point --------------------------------------------------------

    def run(self) -> List[AppliedFault]:
        """Inject every fault at its trigger, then run to completion.

        Returns the per-fault application log.  Any exception the faulted
        program raises (illegal opcode, MAC hazard, memory range error,
        step budget) propagates after the architectural state has been
        synchronized — callers classify it.
        """
        core = self.core
        log: List[AppliedFault] = []
        for spec in self.faults:
            self._advance_to(spec.cycle)
            if core.halted:
                log.append(AppliedFault(spec, core.pc, core.cycles, False))
                continue
            log.append(AppliedFault(spec, core.pc, core.cycles, True))
            self._apply(spec)
        if not core.halted:
            remaining = self.max_steps - self._steps_used()
            if remaining <= 0:
                from ..avr.core import ExecutionError
                raise ExecutionError(
                    f"step budget of {self.max_steps} exhausted before "
                    f"completion")
            core.run(max_steps=remaining)
        return log
