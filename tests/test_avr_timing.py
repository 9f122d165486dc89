"""CA and FAST cycle accounting (the paper's Table I mode distinction)."""

import pytest

from repro.avr import AvrCore, Mode, ProgramMemory, assemble
from repro.avr.isa import BY_NAME, TABLE
from repro.avr.timing import MAX_INSTR_CYCLES, base_cycles, dynamic_cycles


def cycles_of(source: str, mode: Mode) -> int:
    core = AvrCore(ProgramMemory(), mode=mode)
    assemble(source).load_into(core.program)
    core.run()
    return core.cycles - 1  # exclude the final BREAK cycle


class TestStaticCycles:
    @pytest.mark.parametrize("name,ca,fast", [
        ("ADD", 1, 1), ("MOV", 1, 1), ("LDI", 1, 1), ("NOP", 1, 1),
        ("MUL", 2, 1), ("MULS", 2, 1), ("FMUL", 2, 1),
        ("LD_X", 2, 1), ("LDD_Y", 2, 1), ("LDS", 2, 1),
        ("ST_X", 2, 1), ("STD_Z", 2, 1), ("STS", 2, 1),
        ("PUSH", 2, 1), ("POP", 2, 1),
        ("ADIW", 2, 2), ("SBIW", 2, 2),
        ("RJMP", 2, 2), ("IJMP", 2, 2), ("JMP", 3, 3),
        ("RCALL", 3, 3), ("CALL", 4, 4), ("RET", 4, 4), ("RETI", 4, 4),
        ("SBI", 2, 2), ("CBI", 2, 2),
        ("LPM_Z", 3, 3), ("IN", 1, 1), ("OUT", 1, 1),
    ])
    def test_base_cycles(self, name, ca, fast):
        spec = BY_NAME[name]
        assert base_cycles(spec, Mode.CA) == ca
        assert base_cycles(spec, Mode.FAST) == fast
        assert base_cycles(spec, Mode.ISE) == fast  # ISE uses FAST timing


class TestDynamicCycles:
    def test_branch_taken_penalty(self):
        spec = BY_NAME["BRBS"]
        assert dynamic_cycles(spec, Mode.CA, False, 0) == 1
        assert dynamic_cycles(spec, Mode.CA, True, 0) == 2

    def test_skip_penalty(self):
        spec = BY_NAME["CPSE"]
        assert dynamic_cycles(spec, Mode.CA, False, 0) == 1
        assert dynamic_cycles(spec, Mode.CA, False, 1) == 2
        assert dynamic_cycles(spec, Mode.CA, False, 2) == 3


class TestProgramCycleCounts:
    def test_straightline_ca(self):
        # ldi(1) + ldi(1) + mul(2) + st X(2) = 6
        src = "ldi r16, 3\n ldi r17, 4\n mul r16, r17\n st X, r0\n break"
        assert cycles_of(src, Mode.CA) == 6

    def test_straightline_fast(self):
        # mul and st drop to 1 cycle: 1 + 1 + 1 + 1 = 4
        src = "ldi r16, 3\n ldi r17, 4\n mul r16, r17\n st X, r0\n break"
        assert cycles_of(src, Mode.FAST) == 4

    def test_loop_timing_ca(self):
        # ldi(1) + 3x dec(1) + 2x brne-taken(2) + 1x brne-fall-through(1)
        src = "ldi r16, 3\nloop:\n dec r16\n brne loop\n break"
        assert cycles_of(src, Mode.CA) == 1 + 3 * 1 + 2 * 2 + 1

    def test_skip_over_two_word_instruction_costs_three(self):
        src = ("ldi r16, 1\n ldi r17, 1\n cpse r16, r17\n sts 0x200, r16\n"
               " break")
        # ldi + ldi + cpse(1 + 2 skipped words) = 1 + 1 + 3
        assert cycles_of(src, Mode.CA) == 5

    def test_call_ret_roundtrip_cycles(self):
        src = "rcall f\n rjmp end\nf:\n ret\nend:\n break"
        # rcall(3) + ret(4) + rjmp(2)
        assert cycles_of(src, Mode.CA) == 9

    def test_fast_mode_strictly_faster_on_memory_code(self):
        src = "\n".join(["ldi r26, 0x60", "ldi r27, 0"]
                        + ["ld r0, X+"] * 10 + ["st -X, r0"] * 10
                        + ["break"])
        assert cycles_of(src, Mode.FAST) < cycles_of(src, Mode.CA)

    def test_alu_code_same_speed_in_both_modes(self):
        src = "\n".join(["ldi r16, 1", "ldi r17, 2"]
                        + ["add r16, r17", "eor r17, r16"] * 10 + ["break"])
        assert cycles_of(src, Mode.FAST) == cycles_of(src, Mode.CA)


class TestPaperSpeedupShape:
    """FAST-vs-CA gains concentrate in loads/stores/multiplies (Sec. IV)."""

    def test_load_heavy_speedup_near_2x(self):
        src = "\n".join(["ldi r28, 0x60", "ldi r29, 0"]
                        + ["ldd r0, Y+1"] * 50 + ["break"])
        ca = cycles_of(src, Mode.CA)
        fast = cycles_of(src, Mode.FAST)
        assert 1.8 < ca / fast < 2.0

    def test_mul_speedup_2x(self):
        src = "\n".join(["ldi r16, 7", "ldi r17, 9"]
                        + ["mul r16, r17"] * 50 + ["break"])
        ca = cycles_of(src, Mode.CA)
        fast = cycles_of(src, Mode.FAST)
        assert ca - fast == 50


class TestInstructionCycleBound:
    """``MAX_INSTR_CYCLES`` bounds every instruction in every mode; the
    fault injector's block stride is derived from it."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_no_instruction_exceeds_the_bound(self, mode):
        longest = max(spec.words for spec in TABLE)
        worst = max(dynamic_cycles(spec, mode, taken, skip)
                    for spec in TABLE
                    for taken in (False, True)
                    for skip in range(longest + 1))
        assert worst <= MAX_INSTR_CYCLES

    def test_bound_is_attained(self):
        # CALL/RET/RETI take 4 CA cycles: the bound is tight, not padded.
        assert MAX_INSTR_CYCLES == 4
        assert dynamic_cycles(BY_NAME["CALL"], Mode.CA, False, 0) == 4

    def test_injector_block_stride_uses_the_bound(self):
        from repro.avr.engine import MAX_BLOCK_INSTRUCTIONS
        from repro.faults import injector

        assert injector._BLOCK_CYCLE_BOUND == (MAX_BLOCK_INSTRUCTIONS
                                               * MAX_INSTR_CYCLES)
