"""The co-Z Montgomery ladder for Weierstraß curves, in AVR assembly.

The second measured constant-round scalar multiplication: the paper's "Mon"
rows for secp160r1 / Weierstraß / GLV use Hutter, Joye and Sierra's
10-register co-Z ladder; this kernel executes the (X, Y)-only variant
(ZADDC + ZADDU per bit: 14 multiplication-kernel calls and 19
additions/subtractions) end to end on the simulator over the OPF
Weierstraß curve, per scalar bit, in a constant-round driver.

State: co-Z pairs R0 = (X0, Y0), R1 = (X1, Y1) in SRAM slots, Montgomery-
domain values.  The initial DBLU (R1 = 2P, R0 = P rescaled, handling the
scalar's always-set top bit) is loaded host-side as precomputed constants;
the 159 remaining bits run in assembly.  The final co-Z pair is returned
raw — the projective-to-affine recovery (one inversion) is host-side, as
with the x-only ladder kernel.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..avr.assembler import assemble
from ..avr.core import AvrCore
from ..avr.memory import ProgramMemory
from ..avr.timing import Mode
from .ladder_kernel import (
    VAR_BITS,
    VAR_BYTES,
    VAR_CUR,
    VAR_PTR,
    emit_field_subroutines,
    generate_bit_loop_driver,
)
from .layout import OpfConstants

COZ_SLOT_NAMES = ["X0", "Y0", "X1", "Y1",
                  "U1", "U2", "U3", "U4", "U5", "U6",
                  "U7", "U8", "U9", "U10", "U11", "U12"]
COZ_SLOT_BASE = 0x0240
COZ_SLOTS: Dict[str, int] = {
    name: COZ_SLOT_BASE + 0x20 * i for i, name in enumerate(COZ_SLOT_NAMES)
}
COZ_ADDR_SCALAR = COZ_SLOT_BASE + 0x20 * len(COZ_SLOT_NAMES)


def _ptr(reg_low: int, address: int) -> List[str]:
    return [f"    ldi r{reg_low}, {address & 0xFF}",
            f"    ldi r{reg_low + 1}, {address >> 8}"]


def _mul(a: str, b: str, result: str) -> List[str]:
    lines = _ptr(28, COZ_SLOTS[a])
    lines += _ptr(30, COZ_SLOTS[b])
    lines += _ptr(26, COZ_SLOTS[result])
    lines.append("    call mul_sub")
    return lines


def _addsub(name: str, a: str, b: str, result: str) -> List[str]:
    lines = _ptr(26, COZ_SLOTS[a])
    lines += _ptr(28, COZ_SLOTS[b])
    lines += _ptr(30, COZ_SLOTS[result])
    lines.append(f"    call {name}")
    return lines


def _coz_step(bx: str, by: str, ax: str, ay: str) -> List[str]:
    """One rung: ZADDC(R_b, R_other) then ZADDU; R_b doubles in place.

    (bx, by) is the register pair selected by the scalar bit, (ax, ay) the
    other.  Temp discipline mirrors the Python reference
    (:func:`repro.scalarmult.ladder.zaddc_xy` / ``zaddu_xy``); every write
    goes to a slot whose previous value is already consumed.
    """
    lines: List[str] = []
    # --- ZADDC(P = R_b, Q = R_other) ---
    lines += _addsub("sub_sub", bx, ax, "U1")       # px - qx
    lines += _mul("U1", "U1", "U2")                 # C
    lines += _mul(bx, "U2", "U3")                   # W1
    lines += _mul(ax, "U2", "U4")                   # W2
    lines += _addsub("sub_sub", by, ay, "U5")       # py - qy
    lines += _mul("U5", "U5", "U6")                 # D-
    lines += _addsub("sub_sub", "U3", "U4", "U7")   # W1 - W2
    lines += _mul(by, "U7", "U8")                   # A1
    lines += _addsub("sub_sub", "U6", "U3", "U6")
    lines += _addsub("sub_sub", "U6", "U4", "U6")   # X_S
    lines += _addsub("add_sub", by, ay, "U9")       # py + qy
    lines += _mul("U9", "U9", "U10")                # D+
    lines += _addsub("sub_sub", "U10", "U3", "U10")
    lines += _addsub("sub_sub", "U10", "U4", "U10")  # X_D
    lines += _addsub("sub_sub", "U3", "U6", "U11")
    lines += _mul("U5", "U11", "U12")
    lines += _addsub("sub_sub", "U12", "U8", "U11")  # Y_S
    lines += _addsub("sub_sub", "U3", "U10", "U12")
    lines += _mul("U9", "U12", "U5")
    lines += _addsub("sub_sub", "U5", "U8", "U12")   # Y_D
    # --- ZADDU(S = (U6, U11), D = (U10, U12)) ---
    lines += _addsub("sub_sub", "U6", "U10", "U1")   # xs - xd
    lines += _mul("U1", "U1", "U2")                  # C'
    lines += _mul("U6", "U2", ax)                    # W1' -> new R_other.x
    lines += _mul("U10", "U2", "U4")                 # W2'
    lines += _addsub("sub_sub", "U11", "U12", "U5")  # ys - yd
    lines += _mul("U5", "U5", "U7")                  # D''
    lines += _addsub("sub_sub", ax, "U4", "U8")      # W1' - W2'
    lines += _mul("U11", "U8", ay)                   # A1' -> new R_other.y
    lines += _addsub("sub_sub", "U7", ax, bx)
    lines += _addsub("sub_sub", bx, "U4", bx)        # X3 -> new R_b.x
    lines += _addsub("sub_sub", ax, bx, "U8")        # W1' - X3
    lines += _mul("U5", "U8", "U2")
    lines += _addsub("sub_sub", "U2", ay, by)        # Y3 -> new R_b.y
    return lines


def generate_coz_ladder_program(constants: OpfConstants, mode: Mode,
                                scalar_bytes: int = 20) -> str:
    """Driver (MSB consumed by the host-side DBLU) + field subroutines."""
    constants.validate()
    if constants.num_words != 5:
        raise ValueError("the co-Z driver is generated for 160-bit fields")
    if not 1 <= scalar_bytes <= 20:
        raise ValueError("scalar length must be 1..20 bytes")
    lines: List[str] = [
        f"; co-Z (X,Y)-only ladder, {8 * scalar_bytes - 1} rounds, "
        f"{mode.value} mode",
        "start:",
    ]
    lines += generate_bit_loop_driver(
        _coz_step("X0", "Y0", "X1", "Y1"),   # bit = 0: double R0
        _coz_step("X1", "Y1", "X0", "Y0"),   # bit = 1: double R1
        scalar_bytes,
        skip_msb=True,
        scalar_addr=COZ_ADDR_SCALAR,
    )
    lines += emit_field_subroutines(constants, mode)
    return "\n".join(lines) + "\n"


class CozLadderKernel:
    """Run the in-assembly co-Z ladder over the OPF Weierstraß curve."""

    def __init__(self, constants: OpfConstants, mode: Mode, curve_a: int,
                 scalar_bytes: int = 20, engine: str = "trace"):
        self.constants = constants
        self.mode = mode
        self.curve_a = curve_a % constants.p
        self.scalar_bytes = scalar_bytes
        self.program = assemble(
            generate_coz_ladder_program(constants, mode, scalar_bytes)
        )
        self.core = AvrCore(ProgramMemory(num_words=65536), mode=mode,
                            sram_size=4096, engine=engine)
        self.program.load_into(self.core.program)

    @property
    def code_bytes(self) -> int:
        return self.program.size_bytes

    def _dblu(self, x: int, y: int) -> Tuple[int, int, int, int]:
        """Host-side initial doubling with co-Z update (plain domain)."""
        p = self.constants.p
        x_sq = x * x % p
        m = (3 * x_sq + self.curve_a) % p
        y_sq = y * y % p
        s = 4 * x * y_sq % p
        x2 = (m * m - 2 * s) % p
        y2 = (m * (s - x2) - 8 * y_sq * y_sq) % p
        return x2, y2, s, 8 * y_sq * y_sq % p   # (R1 = 2P, R0 = P')

    def run(self, k: int, base_x: int, base_y: int,
            max_steps: int = 400_000_000,
            ) -> Tuple[Tuple[int, int, int, int], int]:
        """Execute the ladder for a scalar with its top bit set.

        Returns ((X0, Y0, X1, Y1) co-Z state, cycles); x(kP) = X0/Z^2 for
        the implicit common Z (see :meth:`verify_against`).
        """
        bits = 8 * self.scalar_bytes
        if not (1 << (bits - 1)) <= k < (1 << bits):
            raise ValueError(
                f"the co-Z driver needs a full-length scalar "
                f"(top bit of {bits} set)"
            )
        p = self.constants.p
        r = 1 << 160
        x1, y1, x0, y0 = self._dblu(base_x, base_y)
        data = self.core.data
        for name, value in (("X0", x0), ("Y0", y0), ("X1", x1), ("Y1", y1)):
            data.load_bytes(COZ_SLOTS[name],
                            (value * r % p).to_bytes(20, "little"))
        data.load_bytes(COZ_ADDR_SCALAR,
                        k.to_bytes(self.scalar_bytes, "little"))
        self.core.reset(pc=0)  # also restores SP to top-of-SRAM
        cycles = self.core.run(max_steps=max_steps)
        r_inv = pow(r, -1, p)
        state = tuple(
            int.from_bytes(data.dump_bytes(COZ_SLOTS[name], 20), "little")
            * r_inv % p
            for name in ("X0", "Y0", "X1", "Y1")
        )
        return state, cycles  # plain-domain co-Z values

    def affine_consistency(self, state: Tuple[int, int, int, int],
                           expected: Tuple[int, int]) -> bool:
        """Does the co-Z X0/Y0 represent the expected affine point?

        (X0, Y0) = (x Z^2, y Z^3) for some Z, so X0^3 * y^2 == Y0^2 * x^3.
        """
        p = self.constants.p
        x0, y0 = state[0], state[1]
        x, y = expected
        return (pow(x0, 3, p) * pow(y, 2, p) - pow(y0, 2, p)
                * pow(x, 3, p)) % p == 0
