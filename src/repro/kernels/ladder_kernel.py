"""A complete Montgomery-ladder scalar multiplication in AVR assembly.

This is the paper's actual experiment, end to end on the simulator: the
x-only ladder over the 160-bit OPF Montgomery curve, built from the field
kernels as CALLed subroutines — per scalar bit one differential addition and
one doubling (the doubling's small-constant multiplication by
``(A + 2)/4 = 3`` is two modular additions), driven by a branch-free
constant-round loop over all 160 scalar bits: each bit becomes a 0x00/0xFF
mask feeding conditional swaps, so no instruction's execution depends on
the scalar and the kernel verifies clean under ``python -m repro ctcheck``
(DESIGN.md §9).

Where Table II's Montgomery row is otherwise *estimated* (operation counts ×
per-op costs), :class:`LadderKernel` produces a **measured** cycle count:
the whole 5-6 MCycle computation executes instruction by instruction on the
JAAVR core, in CA, FAST or ISE mode.

Ladder state (20-byte little-endian slots in SRAM): R0 = (X1 : Z1) starts
at the point at infinity (1 : 0), R1 = (X2 : Z2) at (x_P : 1); after
processing the scalar MSB-first, R0 holds (X : Z) of k*P.

Per-bit step (d = the pair to double, a = the pair receiving the sum)::

    t1 = dx + dz        t5 = t1 * t4        u  = t1^2   -> t5
    t2 = dx - dz        t6 = t2 * t3        v  = t2^2   -> t6
    t3 = ax + az        t7 = t5 + t6        dx'= u * v
    t4 = ax - az        t8 = t5 - t6        c  = u - v  -> t7
    ax' = t7^2          t9 = t8^2           w  = 3c + v -> t8
    az' = x_P * t9                          dz'= c * w

9 multiplications and 10 additions/subtractions per bit, matching the
paper's 5.3 M + 4 S (squarings run through the multiplication kernel, and
the 0.3 M small-constant product is the two additions of ``3c``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..avr.assembler import assemble
from ..avr.core import AvrCore
from ..avr.memory import ProgramMemory
from ..avr.profiler import Profiler
from ..avr.timing import Mode
from ..obs import trace as _trace
from .addsub_kernel import generate_modadd, generate_modsub
from .layout import ADDR_T, OpfConstants
from .mul_kernels import generate_opf_mul_comba, generate_opf_mul_mac

# ---------------------------------------------------------------------------
# Memory map (everything 20-byte slots unless noted)
# ---------------------------------------------------------------------------

SLOT_NAMES = ["X1", "Z1", "X2", "Z2", "T1", "T2", "T3", "T4", "T5", "T6",
              "T7", "T8", "T9", "BASEX"]
SLOT_BASE = 0x0240
SLOTS: Dict[str, int] = {
    name: SLOT_BASE + 0x20 * i for i, name in enumerate(SLOT_NAMES)
}
ADDR_SCALAR = SLOT_BASE + 0x20 * len(SLOT_NAMES)

# Driver loop variables (the field subroutines clobber every register, so
# loop state lives in SRAM above the mul kernel's pointer-save slots).
VAR_PTR = ADDR_T + 8      # 2 bytes: address of the current scalar byte
VAR_CUR = ADDR_T + 10     # the shifting current byte
VAR_BITS = ADDR_T + 11    # bits left in the current byte
VAR_BYTES = ADDR_T + 12   # bytes left
VAR_MASK = ADDR_T + 13    # the bit's 0x00/0xFF swap mask (masked driver)


def _set_pointer(reg_low: int, address: int) -> List[str]:
    return [f"    ldi r{reg_low}, {address & 0xFF}",
            f"    ldi r{reg_low + 1}, {address >> 8}"]


def _call_mul(a: str, b: str, result: str) -> List[str]:
    """Multiplication subroutine convention: Y -> A, Z -> B, X -> result."""
    lines = _set_pointer(28, SLOTS[a])
    lines += _set_pointer(30, SLOTS[b])
    lines += _set_pointer(26, SLOTS[result])
    lines.append("    call mul_sub")
    return lines


def _call_addsub(sub_name: str, a: str, b: str, result: str) -> List[str]:
    """Add/sub subroutine convention: X -> A, Y -> B, Z -> result."""
    lines = _set_pointer(26, SLOTS[a])
    lines += _set_pointer(28, SLOTS[b])
    lines += _set_pointer(30, SLOTS[result])
    lines.append(f"    call {sub_name}")
    return lines


def _ladder_step(double_pair: Tuple[str, str],
                 add_pair: Tuple[str, str]) -> List[str]:
    """One ladder rung: double *double_pair* in place, sum into *add_pair*."""
    dx, dz = double_pair
    ax, az = add_pair
    lines: List[str] = []
    lines += _call_addsub("add_sub", dx, dz, "T1")
    lines += _call_addsub("sub_sub", dx, dz, "T2")
    lines += _call_addsub("add_sub", ax, az, "T3")
    lines += _call_addsub("sub_sub", ax, az, "T4")
    # Differential addition (difference = the affine base point).
    lines += _call_mul("T1", "T4", "T5")
    lines += _call_mul("T2", "T3", "T6")
    lines += _call_addsub("add_sub", "T5", "T6", "T7")
    lines += _call_addsub("sub_sub", "T5", "T6", "T8")
    lines += _call_mul("T7", "T7", ax)
    lines += _call_mul("T8", "T8", "T9")
    lines += _call_mul("BASEX", "T9", az)
    # Doubling.
    lines += _call_mul("T1", "T1", "T5")
    lines += _call_mul("T2", "T2", "T6")
    lines += _call_mul("T5", "T6", dx)
    lines += _call_addsub("sub_sub", "T5", "T6", "T7")   # c = u - v
    lines += _call_addsub("add_sub", "T7", "T7", "T8")   # 2c
    lines += _call_addsub("add_sub", "T8", "T7", "T9")   # 3c = a24 * c
    lines += _call_addsub("add_sub", "T6", "T9", "T8")   # w = v + 3c
    lines += _call_mul("T7", "T8", dz)
    return lines


def _cswap_lines(pairs: List[Tuple[str, str]],
                 load_mask: bool = False) -> List[str]:
    """Branchless conditional swap of 20-byte slot *pairs* under the mask.

    The 0x00/0xFF mask sits in r25 (reloaded from ``VAR_MASK`` when
    *load_mask* is set — the field subroutines clobber every register, so
    the post-step swap must re-fetch it).  Classic masked byte swap:
    ``t = (a ^ b) & mask; a ^= t; b ^= t`` — no flags are consulted, no
    branch taken, identical instruction stream for both mask values.
    """
    lines: List[str] = []
    if load_mask:
        lines.append(f"    lds r25, {VAR_MASK}")
    for a, b in pairs:
        for i in range(20):
            lines += [
                f"    lds r16, {SLOTS[a] + i}",
                f"    lds r17, {SLOTS[b] + i}",
                "    mov r18, r16",
                "    eor r18, r17",
                "    and r18, r25",
                "    eor r16, r18",
                "    eor r17, r18",
                f"    sts {SLOTS[a] + i}, r16",
                f"    sts {SLOTS[b] + i}, r17",
            ]
    return lines


def generate_masked_bit_loop_driver(step: List[str],
                                    scalar_bytes: int,
                                    scalar_addr: Optional[int] = None
                                    ) -> List[str]:
    """A branch-free MSB-first bit loop around a single fixed-role *step*.

    Instead of dispatching to mirrored step bodies with a conditional
    branch on the (secret) scalar bit, each round shifts the bit into the
    carry and materialises it as a 0x00/0xFF mask — ``SBC r25, r25``
    computes ``-C`` regardless of r25's prior contents — which the step
    body consumes via masked conditional swaps/selects (``VAR_MASK``).
    The only branches left are the DEC/BREQ loop counters over public
    state, so the driver verifies clean under ``python -m repro ctcheck``
    (DESIGN.md §9); the cycle count is constant by construction.
    """
    base_addr = scalar_addr if scalar_addr is not None else ADDR_SCALAR
    top_byte = base_addr + scalar_bytes - 1
    lines = [
        f"    ldi r16, {top_byte & 0xFF}",
        f"    sts {VAR_PTR}, r16",
        f"    ldi r16, {top_byte >> 8}",
        f"    sts {VAR_PTR + 1}, r16",
        f"    ldi r16, {scalar_bytes}",
        f"    sts {VAR_BYTES}, r16",
        "byte_loop:",
        f"    lds r26, {VAR_PTR}",
        f"    lds r27, {VAR_PTR + 1}",
        "    ld r16, X",
        f"    sts {VAR_CUR}, r16",
        "    ldi r16, 8",
        f"    sts {VAR_BITS}, r16",
        "bit_loop:",
        f"    lds r16, {VAR_CUR}",
        "    lsl r16",
        f"    sts {VAR_CUR}, r16",   # STS leaves C for the SBC below
        "    sbc r25, r25",          # mask = -C: 0xFF if the bit is set
        f"    sts {VAR_MASK}, r25",
    ]
    lines += step
    lines += [
        f"    lds r16, {VAR_BITS}",
        "    dec r16",
        f"    sts {VAR_BITS}, r16",
        "    breq bits_done",
        "    jmp bit_loop",
        "bits_done:",
        f"    lds r26, {VAR_PTR}",
        f"    lds r27, {VAR_PTR + 1}",
        "    sbiw r26, 1",
        f"    sts {VAR_PTR}, r26",
        f"    sts {VAR_PTR + 1}, r27",
        f"    lds r16, {VAR_BYTES}",
        "    dec r16",
        f"    sts {VAR_BYTES}, r16",
        "    breq all_done",
        "    jmp byte_loop",
        "all_done:",
        "    break",
        "",
    ]
    return lines


def generate_bit_loop_driver(step_zero: List[str], step_one: List[str],
                             scalar_bytes: int,
                             skip_msb: bool = False,
                             scalar_addr: Optional[int] = None) -> List[str]:
    """A constant-round MSB-first bit loop around two balanced step bodies.

    The driver keeps its loop state in SRAM (the field subroutines clobber
    every register).  With ``skip_msb`` the first bit is consumed without a
    step — the co-Z ladder's convention, whose initial DBLU handles the
    (always-set) top bit.
    """
    base_addr = scalar_addr if scalar_addr is not None else ADDR_SCALAR
    top_byte = base_addr + scalar_bytes - 1
    lines = [
        f"    ldi r16, {top_byte & 0xFF}",
        f"    sts {VAR_PTR}, r16",
        f"    ldi r16, {top_byte >> 8}",
        f"    sts {VAR_PTR + 1}, r16",
        f"    ldi r16, {scalar_bytes}",
        f"    sts {VAR_BYTES}, r16",
    ]
    if skip_msb:
        # Pre-shift the top byte once and start its bit counter at 7.
        lines += [
            f"    lds r26, {VAR_PTR}",
            f"    lds r27, {VAR_PTR + 1}",
            "    ld r16, X",
            "    lsl r16",
            f"    sts {VAR_CUR}, r16",
            "    ldi r16, 7",
            f"    sts {VAR_BITS}, r16",
            "    jmp bit_loop",
        ]
    lines += [
        "byte_loop:",
        f"    lds r26, {VAR_PTR}",
        f"    lds r27, {VAR_PTR + 1}",
        "    ld r16, X",
        f"    sts {VAR_CUR}, r16",
        "    ldi r16, 8",
        f"    sts {VAR_BITS}, r16",
        "bit_loop:",
        f"    lds r16, {VAR_CUR}",
        "    lsl r16",
        f"    sts {VAR_CUR}, r16",
        "    brcs to_bit_one",
        "    nop",                      # balance the taken-branch cycle
        "    jmp bit_zero",
        "to_bit_one:",
        "    jmp bit_one",
        "bit_zero:",
    ]
    lines += step_zero
    lines.append("    jmp bit_end")
    lines.append("bit_one:")
    lines += step_one
    # Balance the bit-zero path's 3-cycle JMP so both paths cost the same.
    lines += ["    nop", "    nop", "    nop"]
    lines.append("bit_end:")
    lines += [
        f"    lds r16, {VAR_BITS}",
        "    dec r16",
        f"    sts {VAR_BITS}, r16",
        "    breq bits_done",
        "    jmp bit_loop",
        "bits_done:",
        f"    lds r26, {VAR_PTR}",
        f"    lds r27, {VAR_PTR + 1}",
        "    sbiw r26, 1",
        f"    sts {VAR_PTR}, r26",
        f"    sts {VAR_PTR + 1}, r27",
        f"    lds r16, {VAR_BYTES}",
        "    dec r16",
        f"    sts {VAR_BYTES}, r16",
        "    breq all_done",
        "    jmp byte_loop",
        "all_done:",
        "    break",
        "",
    ]
    return lines


def emit_field_subroutines(constants: OpfConstants, mode: Mode) -> List[str]:
    """The three callable field routines shared by the ladder programs."""
    lines = ["mul_sub:"]
    if mode is Mode.ISE:
        lines.append(generate_opf_mul_mac(constants, subroutine=True))
    else:
        lines.append(generate_opf_mul_comba(constants, subroutine=True))
    lines.append("add_sub:")
    lines.append(generate_modadd(constants, subroutine=True))
    lines.append("sub_sub:")
    lines.append(generate_modsub(constants, subroutine=True))
    return lines


def generate_ladder_program(constants: OpfConstants, mode: Mode,
                            scalar_bytes: int = 20) -> str:
    """The complete program: driver loop + field-op subroutines."""
    constants.validate()
    if constants.num_words != 5:
        raise ValueError("the ladder driver is generated for 160-bit fields")
    if not 1 <= scalar_bytes <= 20:
        raise ValueError("scalar length must be 1..20 bytes")
    lines: List[str] = [
        f"; Montgomery-ladder scalar multiplication, {8 * scalar_bytes} "
        f"fixed rounds, {mode.value} mode",
        "start:",
    ]
    # One fixed-role step — double R0 = (X1, Z1), sum into R1 = (X2, Z2) —
    # bracketed by masked conditional swaps: a set bit swaps R0/R1 before
    # the step and back after it, with no branch on the scalar.
    swaps = [("X1", "X2"), ("Z1", "Z2")]
    step = _cswap_lines(swaps)
    step += _ladder_step(("X1", "Z1"), ("X2", "Z2"))
    step += _cswap_lines(swaps, load_mask=True)
    lines += generate_masked_bit_loop_driver(step, scalar_bytes)
    lines += emit_field_subroutines(constants, mode)
    return "\n".join(lines) + "\n"


class LadderKernel:
    """Assemble once, run full scalar multiplications on the simulator."""

    def __init__(self, constants: OpfConstants, mode: Mode,
                 scalar_bytes: int = 20, engine: str = "trace"):
        self.constants = constants
        self.mode = mode
        self.scalar_bytes = scalar_bytes
        self._engine = engine
        self.program = assemble(
            generate_ladder_program(constants, mode, scalar_bytes)
        )
        self.core = AvrCore(ProgramMemory(num_words=65536), mode=mode,
                            sram_size=4096, engine=engine)
        self.program.load_into(self.core.program)
        self.profiler: Optional[Profiler] = None

    def reset_core(self) -> None:
        """Replace the core with a factory-fresh one (same program).

        Fault campaigns call this between trials: a bit flip in untouched
        SRAM (or a corrupted stack region) must not leak into the next
        run.  Compiled superblocks and basic blocks are re-served from
        their global caches, so the rebuild costs microseconds, not a
        recompile.
        """
        self.core = AvrCore(ProgramMemory(num_words=65536), mode=self.mode,
                            sram_size=4096, engine=self._engine)
        self.program.load_into(self.core.program)
        if self.profiler is not None:
            self.core.attach_profiler(self.profiler)

    @property
    def code_bytes(self) -> int:
        return self.program.size_bytes

    def attach_profiler(self) -> Profiler:
        """Attach an ISS profiler named through the ladder's symbol table."""
        self.profiler = Profiler()
        self.profiler.set_symbols(self.program.symbols)
        self.core.attach_profiler(self.profiler)
        return self.profiler

    def load_operands(self, k: int, base_x: int) -> None:
        """Stage ladder state, scalar and base point; reset the core.

        Factored out of :meth:`run` so a fault campaign can stage a trial
        and then drive the core through a
        :class:`~repro.faults.injector.FaultInjector` instead of
        :meth:`AvrCore.run`.
        """
        bits = 8 * self.scalar_bytes
        if not 0 <= k < (1 << bits):
            raise ValueError(f"scalar must fit in {bits} bits")
        p = self.constants.p
        r = 1 << 160
        one_m = r % p
        base_m = base_x * r % p
        data = self.core.data
        data.load_bytes(SLOTS["X1"], one_m.to_bytes(20, "little"))
        data.load_bytes(SLOTS["Z1"], (0).to_bytes(20, "little"))
        data.load_bytes(SLOTS["X2"], base_m.to_bytes(20, "little"))
        data.load_bytes(SLOTS["Z2"], one_m.to_bytes(20, "little"))
        data.load_bytes(SLOTS["BASEX"], base_m.to_bytes(20, "little"))
        data.load_bytes(ADDR_SCALAR,
                        k.to_bytes(self.scalar_bytes, "little"))
        if self.profiler is not None:
            self.profiler.reset()
        self.core.reset(pc=0)  # also restores SP to top-of-SRAM

    def output_state(self) -> Dict[str, int]:
        """Raw (Montgomery-domain) ladder output slots after a run.

        R0 = (X1 : Z1) is the result k*P; R1 = (X2 : Z2) is the ladder's
        retained companion (k+1)*P — kept accessible because the coherence
        countermeasure (:meth:`validate_output`) needs both.
        """
        data = self.core.data
        return {name: int.from_bytes(data.dump_bytes(SLOTS[name], 20),
                                     "little")
                for name in ("X1", "Z1", "X2", "Z2")}

    def validate_output(self, k: int, curve, base) -> Optional[str]:
        """Host-side countermeasure chain; returns the failed check or None.

        Mirrors what hardened device firmware would run after the ladder
        (DESIGN.md §7), in escalating cost order:

        * ``"scalar-integrity"`` — the SRAM scalar buffer no longer holds
          ``k`` (the driver never writes it, so any change is a fault);
        * ``"output-format"`` — Z of the result is 0 (k*P = O is not
          reachable for campaign scalars);
        * ``"on-curve"`` — the affine x of R0 lifts to no curve point;
        * ``"ladder-coherence"`` — Okeya-Sakurai y-recovery from
          (x(R0), x(R1)) leaves the curve, i.e. R1 - R0 != P.

        *curve* / *base* are the host-side Montgomery curve and affine
        base point over the same prime (the R factors of the Montgomery-
        domain slots cancel in the projective ratios).
        """
        p = self.constants.p
        if curve.field.p != p:
            raise ValueError("validation curve is over a different prime")
        data = self.core.data
        buf = data.dump_bytes(ADDR_SCALAR, self.scalar_bytes)
        if int.from_bytes(buf, "little") != k:
            return "scalar-integrity"
        state = self.output_state()
        z1 = state["Z1"] % p
        if z1 == 0:
            return "output-format"
        f = curve.field
        x0 = state["X1"] * pow(z1, -1, p) % p
        try:
            curve.lift_x(x0)
        except ValueError:
            return "on-curve"
        z2 = state["Z2"] % p
        if z2 == 0:
            # (k+1)P = O means kP = -P: coherent only if x0 = x(P).
            if x0 != base.x.to_int():
                return "ladder-coherence"
            return None
        x_next = state["X2"] * pow(z2, -1, p) % p
        recovered = curve.recover_y(base, f.from_int(x0),
                                    f.from_int(x_next))
        if not curve.is_on_curve(recovered):
            return "ladder-coherence"
        return None

    def run(self, k: int, base_x: int,
            max_steps: int = 200_000_000) -> Tuple[int, int, int]:
        """Execute the ladder; returns (X, Z, cycles) with x(kP) = X/Z.

        The multiplication kernel computes Montgomery products, so the
        ladder state is kept in the Montgomery domain (value * R mod p);
        on a real device these constants would be precomputed once.  The
        R factors cancel in the returned projective ratio X/Z.
        """
        self.load_operands(k, base_x)
        tr = _trace.CURRENT
        span = tr.start("ladder_kernel", kind="kernel",
                        mode=self.mode.name,
                        scalar_bits=8 * self.scalar_bytes) \
            if tr is not None else None
        try:
            cycles = self.core.run(max_steps=max_steps)
        finally:
            if span is not None:
                span.set(cycles=self.core.cycles,
                         instructions=self.core.instructions_retired)
                tr.end(span)
        data = self.core.data
        x_out = int.from_bytes(data.dump_bytes(SLOTS["X1"], 20), "little")
        z_out = int.from_bytes(data.dump_bytes(SLOTS["Z1"], 20), "little")
        return x_out, z_out, cycles

    def affine_x(self, k: int, base_x: int) -> Optional[int]:
        """Convenience: the affine x of k*P (None at infinity).

        The projective-to-affine inversion runs host-side; the paper's
        on-device Montgomery inverse is modelled separately (Table I).
        """
        x_out, z_out, _ = self.run(k, base_x)
        p = self.constants.p
        if z_out % p == 0:
            return None
        return x_out * pow(z_out % p, -1, p) % p
