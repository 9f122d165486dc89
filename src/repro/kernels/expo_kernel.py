"""Modular exponentiation kernels: DAAA vs NAF, the ctcheck foil pair.

Two Montgomery-domain exponentiation drivers over the 160-bit OPF field,
both built on the same CALLed multiplication subroutine as the ladder
(:func:`~repro.kernels.ladder_kernel.emit_field_subroutines`):

* :func:`generate_daaa_expo_program` — **double-and-add-always** (left-to-
  right square-and-multiply-always): every bit costs one squaring plus one
  multiplication whose second operand is selected *branchlessly* between
  ``a·R`` and the Montgomery 1 through a 0x00/0xFF mask.  The driver is
  the ladder's masked bit loop; no instruction depends on the exponent,
  so the kernel verifies clean under ``python -m repro ctcheck daaa``.

* :func:`generate_naf_expo_program` — classic **NAF double-and-add**: the
  host recodes the exponent into non-adjacent-form digits (0, +1, -1) and
  the driver dispatches on each digit with conditional branches inside a
  CALLed ``digit_step`` routine.  This is the textbook high-speed-but-
  leaky shape (digit value decides whether a multiplication happens at
  all): ``python -m repro ctcheck naf`` flags the branch and the skip,
  attributed to ``digit_step`` — the ISS-level mirror of the irregular
  traces :func:`repro.analysis.leakage.leakage_report` shows for the
  Weierstrass NAF scalar multiplication.

Both kernels compute ``a^k mod p`` (host-verifiable against ``pow``); the
state lives in Montgomery domain so the shared ``mul_sub`` closes over it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..avr.assembler import assemble
from ..avr.core import AvrCore
from ..avr.memory import ProgramMemory
from ..avr.profiler import Profiler
from ..avr.timing import Mode
from .layout import ADDR_T, OpfConstants
from .ladder_kernel import (
    VAR_BYTES,
    VAR_PTR,
    emit_field_subroutines,
    generate_masked_bit_loop_driver,
)

# 20-byte working slots (this program owns the ladder's slot area).
EXPO_SLOT_NAMES = ["ACC", "ONE", "APOS", "ANEG", "MSEL", "T"]
EXPO_BASE = 0x0240
EXPO_SLOTS: Dict[str, int] = {
    name: EXPO_BASE + 0x20 * i for i, name in enumerate(EXPO_SLOT_NAMES)
}
#: Exponent bytes (DAAA) or NAF digit bytes (0x00 / 0x01 / 0xFF), little-
#: endian by significance, walked MSD-first.
ADDR_EXP = EXPO_BASE + 0x20 * len(EXPO_SLOT_NAMES)

#: The NAF driver parks the current digit here across the digit_step CALL.
VAR_DIG = ADDR_T + 14

OPERAND_BYTES = 20


def naf_digits(k: int) -> List[int]:
    """Non-adjacent-form digits of *k*, least significant first."""
    digits: List[int] = []
    while k:
        if k & 1:
            d = 2 - (k % 4)   # +1 or -1; no two adjacent non-zeros
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits or [0]


def _set_pointer(reg_low: int, address: int) -> List[str]:
    return [f"    ldi r{reg_low}, {address & 0xFF}",
            f"    ldi r{reg_low + 1}, {address >> 8}"]


def _call_mul(a: str, b: str, result: str) -> List[str]:
    """mul_sub convention (shared with the ladder): Y -> A, Z -> B, X -> R."""
    lines = _set_pointer(28, EXPO_SLOTS[a])
    lines += _set_pointer(30, EXPO_SLOTS[b])
    lines += _set_pointer(26, EXPO_SLOTS[result])
    lines.append("    call mul_sub")
    return lines


def _cselect_lines(dst: str, zero_src: str, one_src: str) -> List[str]:
    """dst = mask ? one_src : zero_src, byte-masked (mask 0x00/0xFF in r25)."""
    lines: List[str] = []
    for i in range(OPERAND_BYTES):
        lines += [
            f"    lds r16, {EXPO_SLOTS[zero_src] + i}",
            f"    lds r17, {EXPO_SLOTS[one_src] + i}",
            "    mov r18, r16",
            "    eor r18, r17",
            "    and r18, r25",
            "    eor r16, r18",
            f"    sts {EXPO_SLOTS[dst] + i}, r16",
        ]
    return lines


def generate_daaa_expo_program(constants: OpfConstants, mode: Mode,
                               exp_bytes: int = 2) -> str:
    """Square-and-multiply-always over the masked bit-loop driver."""
    constants.validate()
    if constants.num_words != 5:
        raise ValueError("the expo drivers are generated for 160-bit fields")
    if not 1 <= exp_bytes <= 20:
        raise ValueError("exponent length must be 1..20 bytes")
    lines: List[str] = [
        f"; DAAA modular exponentiation, {8 * exp_bytes} fixed rounds, "
        f"{mode.value} mode",
        "start:",
    ]
    # Per bit (mask in r25 from the driver): MSEL = bit ? a*R : 1*R, then
    # T = ACC^2 and ACC = T * MSEL — one squaring and one multiplication
    # retire every round regardless of the exponent.
    step = _cselect_lines("MSEL", "ONE", "APOS")
    step += _call_mul("ACC", "ACC", "T")
    step += _call_mul("T", "MSEL", "ACC")
    lines += generate_masked_bit_loop_driver(step, exp_bytes,
                                             scalar_addr=ADDR_EXP)
    lines += emit_field_subroutines(constants, mode)
    return "\n".join(lines) + "\n"


def generate_naf_expo_program(constants: OpfConstants, mode: Mode,
                              exp_bytes: int = 2) -> str:
    """NAF double-and-add with digit dispatch inside ``digit_step``.

    Deliberately *not* constant time: the per-digit work depends on the
    digit value, with the deciding branch and skip inside the CALLed
    ``digit_step`` routine so the constant-time checker's violations
    carry a meaningful routine attribution.
    """
    constants.validate()
    if constants.num_words != 5:
        raise ValueError("the expo drivers are generated for 160-bit fields")
    if not 1 <= exp_bytes <= 20:
        raise ValueError("exponent length must be 1..20 bytes")
    num_digits = 8 * exp_bytes + 1   # NAF of an n-bit value has <= n+1 digits
    top_digit = ADDR_EXP + num_digits - 1
    lines: List[str] = [
        f"; NAF modular exponentiation, {num_digits} digits (MSD first), "
        f"{mode.value} mode",
        "start:",
        f"    ldi r16, {top_digit & 0xFF}",
        f"    sts {VAR_PTR}, r16",
        f"    ldi r16, {top_digit >> 8}",
        f"    sts {VAR_PTR + 1}, r16",
        f"    ldi r16, {num_digits}",
        f"    sts {VAR_BYTES}, r16",
        "digit_loop:",
    ]
    # Always square: T = ACC^2, copied back.
    lines += _call_mul("ACC", "ACC", "T")
    lines.append("    call copy_t_acc")
    # Fetch the digit and dispatch.
    lines += [
        f"    lds r26, {VAR_PTR}",
        f"    lds r27, {VAR_PTR + 1}",
        "    ld r16, X",
        f"    sts {VAR_DIG}, r16",
        "    call digit_step",
        # Bookkeeping over public loop state.
        f"    lds r26, {VAR_PTR}",
        f"    lds r27, {VAR_PTR + 1}",
        "    sbiw r26, 1",
        f"    sts {VAR_PTR}, r26",
        f"    sts {VAR_PTR + 1}, r27",
        f"    lds r16, {VAR_BYTES}",
        "    dec r16",
        f"    sts {VAR_BYTES}, r16",
        "    breq all_done",
        "    jmp digit_loop",
        "all_done:",
        "    break",
        "",
        # digit 0: nothing; digit +1: ACC *= a*R; digit -1: ACC *= a^-1*R.
        "digit_step:",
        f"    lds r16, {VAR_DIG}",
        "    tst r16",
        "    brne digit_nonzero",   # <- secret-dependent branch (flagged)
        "    ret",
        "digit_nonzero:",
        "    sbrs r16, 7",          # <- secret-dependent skip (flagged)
        "    jmp digit_pos",
    ]
    lines += _call_mul("ACC", "ANEG", "T")
    lines += ["    call copy_t_acc", "    ret", "digit_pos:"]
    lines += _call_mul("ACC", "APOS", "T")
    lines += ["    call copy_t_acc", "    ret", "", "copy_t_acc:"]
    for i in range(OPERAND_BYTES):
        lines += [f"    lds r16, {EXPO_SLOTS['T'] + i}",
                  f"    sts {EXPO_SLOTS['ACC'] + i}, r16"]
    lines.append("    ret")
    lines.append("")
    lines += emit_field_subroutines(constants, mode)
    return "\n".join(lines) + "\n"


class ExpoKernel:
    """Assemble once, run ``a^k mod p`` on the simulator; host-verified.

    *method* is ``"daaa"`` (constant-time, masked select) or ``"naf"``
    (leaky digit dispatch).  The exponent is staged little-endian at
    ``ADDR_EXP`` — raw bytes for DAAA, recoded NAF digit bytes for NAF —
    which is what a constant-time check marks secret.
    """

    def __init__(self, constants: OpfConstants, mode: Mode,
                 method: str = "daaa", exp_bytes: int = 2,
                 engine: str = "trace"):
        if method not in ("daaa", "naf"):
            raise ValueError(f"unknown exponentiation method {method!r}")
        self.constants = constants
        self.mode = mode
        self.method = method
        self.exp_bytes = exp_bytes
        generator = (generate_daaa_expo_program if method == "daaa"
                     else generate_naf_expo_program)
        self.program = assemble(generator(constants, mode, exp_bytes))
        self.core = AvrCore(ProgramMemory(num_words=65536), mode=mode,
                            sram_size=4096, engine=engine)
        self.program.load_into(self.core.program)
        self.profiler: Optional[Profiler] = None

    @property
    def code_bytes(self) -> int:
        return self.program.size_bytes

    @property
    def secret_region(self) -> Tuple[int, int]:
        """(address, length) of the staged secret exponent material."""
        if self.method == "naf":
            return ADDR_EXP, 8 * self.exp_bytes + 1
        return ADDR_EXP, self.exp_bytes

    def attach_profiler(self) -> Profiler:
        self.profiler = Profiler()
        self.profiler.set_symbols(self.program.symbols)
        self.core.attach_profiler(self.profiler)
        return self.profiler

    def load_operands(self, k: int, a: int) -> None:
        """Stage base, its Montgomery constants and the exponent; reset."""
        bits = 8 * self.exp_bytes
        if not 0 <= k < (1 << bits):
            raise ValueError(f"exponent must fit in {bits} bits")
        p = self.constants.p
        if not 1 <= a < p:
            raise ValueError("base must be in [1, p)")
        r = 1 << 160
        data = self.core.data
        data.load_bytes(EXPO_SLOTS["ACC"], (r % p).to_bytes(20, "little"))
        data.load_bytes(EXPO_SLOTS["ONE"], (r % p).to_bytes(20, "little"))
        data.load_bytes(EXPO_SLOTS["APOS"],
                        (a * r % p).to_bytes(20, "little"))
        data.load_bytes(EXPO_SLOTS["ANEG"],
                        (pow(a, -1, p) * r % p).to_bytes(20, "little"))
        if self.method == "naf":
            digits = naf_digits(k)
            address, length = self.secret_region
            buf = bytearray(length)
            for i, d in enumerate(digits):
                buf[i] = d & 0xFF   # 0 -> 0x00, +1 -> 0x01, -1 -> 0xFF
            data.load_bytes(address, bytes(buf))
        else:
            data.load_bytes(ADDR_EXP, k.to_bytes(self.exp_bytes, "little"))
        if self.profiler is not None:
            self.profiler.reset()
        self.core.reset(pc=0)  # also restores SP to top-of-SRAM

    def result(self) -> int:
        """``a^k mod p``, converted out of the Montgomery domain."""
        p = self.constants.p
        acc = int.from_bytes(
            self.core.data.dump_bytes(EXPO_SLOTS["ACC"], 20), "little")
        return acc * pow(1 << 160, -1, p) % p

    def run(self, k: int, a: int,
            max_steps: int = 200_000_000) -> Tuple[int, int]:
        """Execute; returns ``(a^k mod p, cycles)``."""
        self.load_operands(k, a)
        cycles = self.core.run(max_steps=max_steps)
        return self.result(), cycles
