"""Instruction timing: the CA and FAST CPI models.

``CA`` (cycle accurate) reproduces the ATmega128's published cycles per
instruction.  ``FAST`` is JAAVR with the CYCLE_ACCURACY generic switched
off — the paper states that "the CPI-count of most load (resp. store) and
multiply instructions improves" and that a load then takes a single cycle;
concretely every SRAM access (LD/LDD/LDS/ST/STD/STS/PUSH/POP) and every
multiply drops to one cycle.

The model reproduces the paper's measured speed-ups: an unrolled 160-bit
OPF addition goes from 240 to 145 cycles (factor 1.65) and the looped OPF
multiplication from 3,314 to 2,537 cycles (factor 1.31) — see Table I and
the kernel benchmarks.

``ISE`` uses FAST timing; the MAC unit adds *no* cycles of its own (each
MAC issue rides on its triggering SWAP/load cycle, Fig. 1 discussion).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict

from .isa import TABLE, InstructionSpec


class Mode(Enum):
    """JAAVR operating modes (paper Tables I and III)."""

    CA = "CA"      # cycle-accurate ATmega128 timing
    FAST = "FAST"  # improved load/store/multiply CPI
    ISE = "ISE"    # FAST plus the (32 x 4)-bit MAC unit


#: Instructions whose CA cycle count differs from 1.
_CA_CYCLES: Dict[str, int] = {
    # memory
    "LDS": 2, "LD_X": 2, "LD_XP": 2, "LD_MX": 2, "LD_YP": 2, "LD_MY": 2,
    "LD_ZP": 2, "LD_MZ": 2, "LDD_Y": 2, "LDD_Z": 2,
    "STS": 2, "ST_X": 2, "ST_XP": 2, "ST_MX": 2, "ST_YP": 2, "ST_MY": 2,
    "ST_ZP": 2, "ST_MZ": 2, "STD_Y": 2, "STD_Z": 2,
    "PUSH": 2, "POP": 2,
    "LPM_R0": 3, "LPM_Z": 3, "LPM_ZP": 3,
    # multiply
    "MUL": 2, "MULS": 2, "MULSU": 2, "FMUL": 2, "FMULS": 2, "FMULSU": 2,
    # 16-bit immediate arithmetic
    "ADIW": 2, "SBIW": 2,
    # bit set/clear in I/O space
    "SBI": 2, "CBI": 2,
    # flow control
    "RJMP": 2, "IJMP": 2, "JMP": 3,
    "RCALL": 3, "ICALL": 3, "CALL": 4,
    "RET": 4, "RETI": 4,
}

#: Instructions that drop to 1 cycle in FAST (and ISE) mode.
_FAST_SINGLE_CYCLE = {
    "LDS", "LD_X", "LD_XP", "LD_MX", "LD_YP", "LD_MY", "LD_ZP", "LD_MZ",
    "LDD_Y", "LDD_Z",
    "STS", "ST_X", "ST_XP", "ST_MX", "ST_YP", "ST_MY", "ST_ZP", "ST_MZ",
    "STD_Y", "STD_Z",
    "PUSH", "POP",
    "MUL", "MULS", "MULSU", "FMUL", "FMULS", "FMULSU",
}

_SKIP_NAMES = {"CPSE", "SBRC", "SBRS", "SBIC", "SBIS"}
_BRANCH_NAMES = {"BRBS", "BRBC"}


#: The most cycles one instruction can take in any mode — the bound
#: :func:`dynamic_cycles` never exceeds: the slowest static entry, a taken
#: branch, or a skip over the longest instruction, whichever is largest
#: (FAST and ISE only ever drop cycles against CA).
MAX_INSTR_CYCLES = max(
    max(_CA_CYCLES.values()),
    *(_CA_CYCLES.get(name, 1) + 1 for name in _BRANCH_NAMES),
    *(_CA_CYCLES.get(name, 1) + max(spec.words for spec in TABLE)
      for name in _SKIP_NAMES),
)


def base_cycles(spec: InstructionSpec, mode: Mode) -> int:
    """Static cycle count of an instruction (before dynamic adjustments)."""
    cycles = _CA_CYCLES.get(spec.name, 1)
    if mode is not Mode.CA and spec.name in _FAST_SINGLE_CYCLE:
        cycles = 1
    return cycles


def dynamic_cycles(spec: InstructionSpec, mode: Mode,
                   branch_taken: bool, skip_words: int) -> int:
    """Total cycles including branch/skip penalties.

    Conditional branches: 1 cycle, +1 when taken.
    Skips (CPSE/SBRC/SBRS/SBIC/SBIS): 1 cycle, +1 per skipped word.
    """
    cycles = base_cycles(spec, mode)
    if spec.name in _BRANCH_NAMES and branch_taken:
        cycles += 1
    if spec.name in _SKIP_NAMES and skip_words:
        cycles += skip_words
    return cycles
