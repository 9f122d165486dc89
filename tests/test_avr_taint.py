"""Secret-taint propagation on the ISS, per instruction class.

DESIGN.md §9: the tracker shadows data space byte-for-byte, SREG
flag-for-flag and the MAC accumulator nibble-queue-for-nibble-queue;
taint reaching a branch decision or a memory address is a violation.
"""

import pytest

from repro.avr import AvrCore, Mode, ProgramMemory, assemble
from repro.avr import sreg as F
from repro.avr.instructions import EXECUTORS
from repro.avr.taint import TAINT_RULES, TaintTracker

from iss_tiers import make_core

SECRET = 0x0100  # an SRAM scratch address the programs below read
PUBLIC = 0x0110


def make_tracker(source, mode=Mode.CA, tier="trace", data=()):
    core = make_core(tier, mode=mode, sram_size=4096)
    program = assemble(source)
    program.load_into(core.program)
    for address, value in data:
        core.data.load_bytes(address, bytes([value]))
    tracker = TaintTracker(core, symbols=program.symbols)
    return core, tracker


def run_tainted(source, mode=Mode.CA, tier="trace", data=(),
                secret=((SECRET, 1),)):
    core, tracker = make_tracker(source, mode=mode, tier=tier,
                                 data=data)
    for address, length in secret:
        tracker.mark_data(address, length)
    tracker.run()
    return core, tracker


class TestRuleCoverage:
    def test_rules_cover_executors_exactly(self):
        """One propagation rule per executor semantic — no gaps, no
        orphans.  A new instruction cannot land without a taint rule."""
        assert set(TAINT_RULES) == set(EXECUTORS)


class TestAluPropagation:
    def test_add_unions_operands_and_flags(self):
        src = f"""
            lds r16, {SECRET}
            ldi r17, 5
            add r17, r16
            break
        """
        _, tracker = run_tainted(src)
        assert tracker.register_tainted(17)
        assert tracker.flag_tainted(F.C) and tracker.flag_tainted(F.Z)
        assert tracker.violations == []

    def test_public_computation_stays_public(self):
        src = """
            ldi r16, 5
            ldi r17, 7
            add r17, r16
            break
        """
        _, tracker = run_tainted(src)
        assert not tracker.register_tainted(17)
        assert not tracker.flag_tainted(F.C)

    def test_eor_self_launders(self):
        """EOR d,d yields architectural zero — public whatever went in."""
        src = f"""
            lds r16, {SECRET}
            eor r16, r16
            break
        """
        _, tracker = run_tainted(src)
        assert not tracker.register_tainted(16)
        assert not tracker.flag_tainted(F.Z)

    def test_sub_self_launders(self):
        src = f"""
            lds r16, {SECRET}
            sub r16, r16
            break
        """
        _, tracker = run_tainted(src)
        assert not tracker.register_tainted(16)

    def test_sbc_self_is_the_carry_mask_idiom(self):
        """SBC d,d == -C: the output taint is exactly the C flag's."""
        src = f"""
            lds r16, {SECRET}
            lsl r16
            sbc r25, r25
            break
        """
        _, tracker = run_tainted(src, data=[(SECRET, 0x81)])
        assert tracker.register_tainted(25)
        assert tracker.violations == []

    def test_mov_and_mul_propagate(self):
        src = f"""
            lds r16, {SECRET}
            mov r17, r16
            ldi r18, 3
            mul r17, r18
            break
        """
        _, tracker = run_tainted(src, data=[(SECRET, 7)])
        assert tracker.register_tainted(17)
        assert tracker.register_tainted(0) and tracker.register_tainted(1)


class TestLoadStore:
    def test_taint_round_trips_through_memory(self):
        src = f"""
            lds r16, {SECRET}
            sts {PUBLIC}, r16
            lds r17, {PUBLIC}
            break
        """
        _, tracker = run_tainted(src)
        assert tracker.data_tainted(PUBLIC)
        assert tracker.register_tainted(17)
        assert tracker.violations == []

    def test_store_of_public_clears_shadow(self):
        src = f"""
            ldi r16, 0
            sts {SECRET}, r16
            break
        """
        _, tracker = run_tainted(src)
        assert not tracker.data_tainted(SECRET)

    def test_tainted_pointer_is_an_addr_violation(self):
        src = f"""
            lds r26, {SECRET}
            ldi r27, 0x01
            ld r16, X
            break
        """
        _, tracker = run_tainted(src, data=[(SECRET, 0x20)])
        kinds = [v.kind for v in tracker.violations]
        assert kinds == ["addr"]
        assert "LD" in tracker.violations[0].instruction

    def test_tainted_lpm_pointer_is_an_addr_violation(self):
        src = f"""
            lds r30, {SECRET}
            ldi r31, 0
            lpm r16, Z
            break
        """
        _, tracker = run_tainted(src)
        assert [v.kind for v in tracker.violations] == ["addr"]
        # Flash contents are public even so.
        assert not tracker.register_tainted(16)

    def test_push_pop_moves_taint_through_the_stack(self):
        src = f"""
            lds r16, {SECRET}
            push r16
            pop r17
            break
        """
        _, tracker = run_tainted(src)
        assert tracker.register_tainted(17)
        assert tracker.violations == []


class TestMacAccumulator:
    MUL32 = f"""
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

    @staticmethod
    def _run(secret_addr):
        core = AvrCore(ProgramMemory(), mode=Mode.ISE, sram_size=4096)
        assemble(TestMacAccumulator.MUL32).load_into(core.program)
        core.data.load_bytes(0x60, (0x12345678).to_bytes(4, "little"))
        core.data.load_bytes(0x70, (0xCAFEBABE).to_bytes(4, "little"))
        tracker = TaintTracker(core)
        tracker.mark_data(secret_addr, 4)
        tracker.run()
        assert core.data.reg_window(0, 9) == 0x12345678 * 0xCAFEBABE
        return tracker

    def test_secret_multiplicand_taints_accumulator(self):
        tracker = self._run(0x60)
        assert all(tracker.register_tainted(r) for r in range(9))
        assert tracker.violations == []

    def test_secret_multiplier_taints_accumulator(self):
        tracker = self._run(0x70)
        assert all(tracker.register_tainted(r) for r in range(9))
        assert tracker.violations == []

    def test_public_mac_run_stays_public(self):
        tracker = self._run(PUBLIC)  # secret marked elsewhere entirely
        assert not any(tracker.register_tainted(r) for r in range(9))


class TestBranchViolations:
    def test_conditional_branch_on_tainted_flag(self):
        src = f"""
            lds r16, {SECRET}
            tst r16
            brne done
            nop
        done:
            break
        """
        _, tracker = run_tainted(src, data=[(SECRET, 1)])
        assert len(tracker.violations) == 1
        v = tracker.violations[0]
        assert v.kind == "branch"
        assert v.cycle_skew == 1
        assert "Z" in v.detail

    def test_skip_on_tainted_register(self):
        src = f"""
            lds r16, {SECRET}
            sbrs r16, 0
            nop
            break
        """
        _, tracker = run_tainted(src)
        assert [v.kind for v in tracker.violations] == ["branch"]

    def test_public_branch_is_fine(self):
        src = f"""
            lds r16, {SECRET}
            ldi r17, 4
        loop:
            dec r17
            brne loop
            break
        """
        _, tracker = run_tainted(src)
        assert tracker.violations == []
        assert tracker.register_tainted(16)  # taint alive but undecided

    def test_violation_sites_deduplicate_with_counts(self):
        src = f"""
            lds r18, {SECRET}
            ldi r17, 3
        loop:
            lsr r18
            brcs skip        ; tainted C, hit every iteration
        skip:
            dec r17
            brne loop
            break
        """
        _, tracker = run_tainted(src, data=[(SECRET, 0b101)])
        assert len(tracker.violations) == 1
        assert tracker.violations[0].count == 3


class TestAttribution:
    def test_violation_names_the_containing_routine(self):
        src = f"""
            lds r16, {SECRET}
            call leaky
            break
        leaky:
            tst r16
            brne leaky_done
            nop
        leaky_done:
            ret
        """
        _, tracker = run_tainted(src, data=[(SECRET, 1)])
        assert len(tracker.violations) == 1
        assert tracker.violations[0].routine == "leaky"

    def test_top_level_attribution(self):
        src = f"""
            lds r16, {SECRET}
            sbrc r16, 1
            nop
            break
        """
        _, tracker = run_tainted(src)
        assert tracker.violations[0].routine == "(top)"


class TestEngineParity:
    # After the EOR the taint set is empty, so tracker.run() hands the
    # public loop to the basic-block fast engine; the reference run must
    # agree on every observable.
    MIXED = f"""
        lds r16, {SECRET}
        add r16, r16
        eor r16, r16
        sts {SECRET}, r16    ; public zero overwrites the secret byte
        ldi r17, 50
    loop:
        subi r17, 1
        brne loop
        break
    """

    LEAKY = f"""
        lds r16, {SECRET}
        ldi r17, 5
    loop:
        lsr r16
        brcs odd
        nop
    odd:
        dec r17
        brne loop
        break
    """

    @pytest.mark.parametrize("source", [MIXED, LEAKY])
    def test_fast_and_reference_agree(self, source):
        results = {}
        for tier in ("fast", "reference"):
            core, tracker = run_tainted(source, tier=tier,
                                        data=[(SECRET, 0x5A)])
            results[tier] = {
                "cycles": core.cycles,
                "instructions": core.instructions_retired,
                "violations": [v.as_dict() for v in tracker.violations],
                "summary": tracker.summary(),
                "live": tracker.live_taint_bytes(),
            }
        assert results["fast"] == results["reference"]

    def test_fast_engine_actually_engages_when_taint_dies(self):
        core, tracker = run_tainted(self.MIXED, tier="fast")
        assert not tracker.any_live()
        assert core.halted
        assert core._fast_engine is not None and core._fast_engine.blocks
