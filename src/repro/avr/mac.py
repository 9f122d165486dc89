"""The (32 x 4)-bit Multiply-Accumulate unit (paper Section IV-A, Fig. 1).

Datapath (Figure 1): a 32-bit multiplicand read from registers R16-R19, a
4-bit multiplier nibble, a (32 x 4)-bit multiplier producing a 36-bit
product, a barrel shifter placing that product at one of the offsets
0, 4, ..., 28, and a 72-bit adder accumulating into the register file
R0-R8.  An internal 3-bit counter supplies the shift offset; it increments
with every nibble MAC and wraps after eight, so eight MACs implement a full
(32 x 32)-bit multiply-accumulate.

Two software trigger mechanisms (selected through an I/O-mapped control
register):

* **SWAP re-interpretation** (Algorithm 1): executing ``SWAP Rr`` swaps the
  register's nibbles as usual *and* feeds the new low nibble (the previous
  high nibble) to the MAC unit.
* **R24-load trigger** (Algorithm 2): any ``LD``/``LDD`` with destination
  R24 schedules two nibble MACs — low nibble then high nibble of the loaded
  byte — in the two clock cycles that follow.  The ALU keeps executing
  instructions during those cycles as long as they do not touch the
  accumulator (R0-R8) or multiplicand/operand registers (R16-R19, R24).

The MAC consumes no extra cycles of its own — this is precisely how the
paper's 552-cycle OPF multiplication hides 100 MACs under its loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

#: I/O address of the MAC control register (a reserved slot on ATmega128).
MACCR_IO_ADDR = 0x28

#: MACCR bits.
MACCR_SWAP_ENABLE = 0x01   # Algorithm 1: re-interpret SWAP
MACCR_LOAD_ENABLE = 0x02   # Algorithm 2: trigger on loads into R24
MACCR_RESET_COUNTER = 0x80  # write-1: reset the nibble counter

#: Registers holding the 32-bit multiplicand.
MULTIPLICAND_REGS = (16, 17, 18, 19)
#: Register whose loads trigger the MAC in load mode.
TRIGGER_REG = 24
#: Registers forming the 72-bit accumulator.
ACC_REGS = tuple(range(9))

_ACC_MASK = (1 << 72) - 1


class MacHazardError(RuntimeError):
    """An instruction touched MAC-owned registers while a MAC was in flight."""


@dataclass
class MacUnit:
    """Architectural state and statistics of the MAC unit."""

    #: Value of the 3-bit shift counter (0..7); offset is 4 * counter.
    counter: int = 0
    swap_enabled: bool = False
    load_enabled: bool = False
    #: Number of nibble MAC operations performed.
    mac_ops: int = 0
    #: Pending nibble values scheduled by a load into R24 (drained one per
    #: following cycle by the core).
    pending: List[int] = field(default_factory=list)

    def control_write(self, value: int) -> None:
        """Handle a write to MACCR."""
        self.swap_enabled = bool(value & MACCR_SWAP_ENABLE)
        self.load_enabled = bool(value & MACCR_LOAD_ENABLE)
        if value & MACCR_RESET_COUNTER:
            self.counter = 0
            self.pending.clear()

    def control_read(self) -> int:
        value = 0
        if self.swap_enabled:
            value |= MACCR_SWAP_ENABLE
        if self.load_enabled:
            value |= MACCR_LOAD_ENABLE
        return value

    # -- datapath ------------------------------------------------------------

    def issue_nibble(self, data_space, nibble: int) -> None:
        """One (32 x 4) MAC: acc += (R16:R19 * nibble) << (4 * counter)."""
        if not 0 <= nibble <= 0xF:
            raise ValueError(f"nibble out of range: {nibble}")
        multiplicand = data_space.reg_window(MULTIPLICAND_REGS[0], 4)
        acc = data_space.reg_window(ACC_REGS[0], 9)
        acc = (acc + ((multiplicand * nibble) << (4 * self.counter))) & _ACC_MASK
        data_space.set_reg_window(ACC_REGS[0], 9, acc)
        self.counter = (self.counter + 1) & 7
        self.mac_ops += 1

    # -- trigger handling --------------------------------------------------------

    def on_swap(self, data_space, reg: int, pre_swap_value: int) -> bool:
        """SWAP executed; returns True if a MAC was issued.

        The multiplier nibble is the register's low nibble before the
        exchange — so the canonical SWAP/SWAP pair of Algorithm 1 feeds the
        byte's nibbles in low-then-high order, matching the ascending barrel
        shift offsets.
        """
        if not self.swap_enabled:
            return False
        self.issue_nibble(data_space, pre_swap_value & 0xF)
        return True

    def on_load(self, data_space, reg: int) -> bool:
        """A load completed; schedules two MACs if it targeted R24."""
        if not self.load_enabled or reg != TRIGGER_REG:
            return False
        value = data_space.reg(TRIGGER_REG)
        self.pending.append(value & 0xF)
        self.pending.append((value >> 4) & 0xF)
        return True

    def drain_one(self, data_space) -> bool:
        """Advance one clock: perform at most one pending nibble MAC."""
        if not self.pending:
            return False
        self.issue_nibble(data_space, self.pending.pop(0))
        return True

    @property
    def busy(self) -> bool:
        return bool(self.pending)


#: Instruction names whose R24 destination is a MAC trigger (hazard-exempt:
#: one nibble may still be pending).  POP is classified with the loads
#: although it schedules no MACs.
_LOAD_NAMES = frozenset({
    "LDS", "LD_X", "LD_XP", "LD_MX", "LD_YP", "LD_MY", "LD_ZP", "LD_MZ",
    "LDD_Y", "LDD_Z", "POP",
})


def conflicts_with_mac(spec_name: str, ops: dict) -> bool:
    """Does an instruction touch MAC-owned registers?

    Used for hazard checking while load-triggered MACs are in flight: the
    paper requires the parallel instructions "do not access any of the 13
    accumulator (resp. multiplicand) registers" (R0-R8, R16-R19); a new load
    into R24 is the *next* trigger and is also excluded while MACs are
    pending.
    """
    owned = set(ACC_REGS) | set(MULTIPLICAND_REGS) | {TRIGGER_REG}
    for key in ("d", "r"):
        if key in ops:
            reg = ops[key]
            if reg in owned:
                return True
            # Word-pair instructions also touch reg+1.
            if spec_name in ("MOVW", "ADIW", "SBIW") and reg + 1 in owned:
                return True
    if spec_name in ("MUL", "MULS", "MULSU", "FMUL", "FMULS", "FMULSU"):
        return True  # the hardware multiplier writes R1:R0
    if spec_name in ("LPM_R0",):
        return True
    return False
