"""The compiled tiers vs the reference ``step()`` interpreter.

Every test runs the same program on one core per tier — the reference
interpreter, the block-compiling fast engine and the superblock dispatcher
(:mod:`iss_tiers`) — and asserts *architecturally identical* outcomes:
registers, memory, SREG, PC, cycle count, instructions retired and MAC
state.  The compiled tiers claim bit- and cycle-exactness, so any
divergence here is a bug by definition, including on the error paths (MAC
hazards, illegal opcodes, exceeded step budgets) where compiled code must
reconstruct partial-block state.
"""

import pytest

from repro.avr import (
    AvrCore,
    ExecutionError,
    MACCR_LOAD_ENABLE,
    MACCR_SWAP_ENABLE,
    MacHazardError,
    Mode,
    ProgramMemory,
    assemble,
)
from repro.kernels import KernelRunner, OpfConstants, generate_opf_mul_mac
from repro.obs.metrics import METRICS

from iss_tiers import TIERS, build, make_core


def _fresh_core(tier, mode=Mode.CA, sram=1024):
    return make_core(tier, mode=mode, sram_size=sram)


def _state(core):
    return {
        "mem": bytes(core.data._mem),
        "sreg": core.sreg.value,
        "pc": core.pc,
        "cycles": core.cycles,
        "retired": core.instructions_retired,
        "halted": core.halted,
        "sp": core.data.sp,
        "mac": (core.mac.counter, core.mac.mac_ops,
                list(core.mac.pending),
                core.mac.swap_enabled, core.mac.load_enabled),
    }


def run_both(source, mode=Mode.CA, sram=1024, init=None):
    """Run on every tier; assert identical outcomes; return fast state."""
    states = {}
    for tier in TIERS:
        core = _fresh_core(tier, mode, sram)
        assemble(source).load_into(core.program)
        if init:
            init(core)
        err = None
        try:
            core.run()
        except (MacHazardError, ExecutionError, IndexError) as exc:
            err = (type(exc).__name__, str(exc))
        states[tier] = (_state(core), err)
    assert states["fast"] == states["reference"]
    assert states["trace"] == states["reference"]
    return states["fast"]


class TestCategoryEquivalence:
    """Directed programs per instruction family, every tier."""

    def test_alu_flag_chains(self):
        run_both(
            "    ldi r16, 0xFE\n"
            "    ldi r17, 0x03\n"
            "    add r16, r17\n"      # carry out
            "    adc r16, r17\n"
            "    subi r16, 0x10\n"
            "    sbci r17, 0x00\n"
            "    and r16, r17\n"
            "    eor r17, r16\n"
            "    com r16\n"
            "    neg r17\n"
            "    inc r16\n"
            "    dec r16\n"
            "    lsr r16\n"
            "    ror r17\n"
            "    asr r16\n"
            "    swap r17\n"
            "    break\n"
        )

    def test_word_ops_and_movw(self):
        run_both(
            "    ldi r24, 0xF0\n"
            "    ldi r25, 0x0F\n"
            "    adiw r24, 0x21\n"
            "    sbiw r24, 0x3F\n"
            "    movw r30, r24\n"
            "    mov r18, r31\n"
            "    break\n"
        )

    def test_mul_family(self):
        run_both(
            "    ldi r20, 0xE7\n"
            "    ldi r21, 0x95\n"
            "    mul r20, r21\n"
            "    movw r24, r0\n"
            "    muls r20, r21\n"
            "    mulsu r20, r21\n"
            "    break\n"
        )

    def test_loads_stores_displacement_and_autoinc(self):
        def init(core):
            core.data.load_bytes(0x120, bytes(range(1, 33)))
        run_both(
            "    ldi r26, 0x20\n"
            "    ldi r27, 0x01\n"
            "    ldi r28, 0x30\n"
            "    ldi r29, 0x01\n"
            "    ldi r30, 0x40\n"
            "    ldi r31, 0x01\n"
            "    ld r4, X+\n"
            "    ld r5, X\n"
            "    ld r6, -X\n"
            "    ldd r7, Y+13\n"
            "    ldd r8, Z+0\n"
            "    st Z+, r4\n"
            "    st -Z, r5\n"
            "    std Y+5, r6\n"
            "    sts 0x0155, r7\n"
            "    lds r9, 0x0155\n"
            "    break\n",
            init=init,
        )

    def test_branches_skips_and_loops(self):
        run_both(
            "    ldi r16, 5\n"
            "    clr r17\n"
            "loop:\n"
            "    add r17, r16\n"
            "    dec r16\n"
            "    brne loop\n"
            "    cpi r17, 15\n"
            "    breq good\n"
            "    ldi r18, 0xEE\n"
            "good:\n"
            "    sbrc r17, 0\n"
            "    ldi r19, 1\n"
            "    sbrs r17, 1\n"
            "    ldi r20, 2\n"
            "    cpse r19, r20\n"
            "    ldi r21, 3\n"
            "    break\n"
        )

    def test_stack_call_ret(self):
        run_both(
            "    ldi r24, 7\n"
            "    rcall double\n"
            "    push r24\n"
            "    push r24\n"
            "    pop r25\n"
            "    break\n"
            "double:\n"
            "    lsl r24\n"
            "    ret\n"
        )

    def test_modes_cycle_accounting(self):
        src = (
            "    ldi r26, 0x00\n"
            "    ldi r27, 0x01\n"
            "    ldi r16, 4\n"
            "again:\n"
            "    ld r0, X+\n"
            "    st X, r0\n"
            "    dec r16\n"
            "    brne again\n"
            "    break\n"
        )
        ca = run_both(src, mode=Mode.CA)
        fast = run_both(src, mode=Mode.FAST)
        # Same architectural work, fewer cycles in the single-cycle model.
        assert ca[0]["retired"] == fast[0]["retired"]
        assert ca[0]["cycles"] > fast[0]["cycles"]


MAC_PROLOGUE = (
    f"    ldi r24, {MACCR_SWAP_ENABLE | MACCR_LOAD_ENABLE}\n"
    "    out 0x28, r24\n"
)


class TestMacParity:
    def test_load_trigger_and_drain(self):
        def init(core):
            core.data.load_bytes(0x140, bytes([0xAB, 0xCD, 0x12]))
        run_both(
            "    ldi r16, 0x78\n"
            "    mov r16, r16\n"     # park multiplicand bytes
            "    ldi r26, 0x40\n"
            "    ldi r27, 0x01\n"
            + MAC_PROLOGUE +
            "    ld r24, X+\n"
            "    nop\n"
            "    ld r24, X+\n"
            "    nop\n"
            "    nop\n"
            "    break\n",
            mode=Mode.ISE, init=init,
        )

    def test_swap_trigger(self):
        run_both(
            MAC_PROLOGUE +
            "    ldi r25, 0x3C\n"
            "    mov r10, r25\n"
            "    swap r10\n"
            "    nop\n"
            "    nop\n"
            "    break\n",
            mode=Mode.ISE,
        )

    def test_back_to_back_triggers_raise_identically(self):
        """Back-to-back trigger loads: every tier raises MacHazardError
        with the same message *and* identical partially-executed state."""
        def init(core):
            core.data.load_bytes(0x150, bytes([0x34, 0x56]))
        state, err = run_both(
            "    ldi r26, 0x50\n"
            "    ldi r27, 0x01\n"
            f"    ldi r24, {MACCR_LOAD_ENABLE}\n"
            "    out 0x28, r24\n"
            "    ld r24, X+\n"
            "    ld r24, X+\n"
            "    break\n",
            mode=Mode.ISE, init=init,
        )
        assert err is not None and err[0] == "MacHazardError"

    def test_mac_register_conflict_raises_identically(self):
        def init(core):
            core.data.load_bytes(0x160, bytes([0x5A]))
        _, err = run_both(
            "    ldi r26, 0x60\n"
            "    ldi r27, 0x01\n"
            f"    ldi r24, {MACCR_LOAD_ENABLE}\n"
            "    out 0x28, r24\n"
            "    ld r24, X+\n"      # schedules two nibble MACs
            "    clr r4\n"          # touches a MAC-owned register
            "    break\n",
            mode=Mode.ISE, init=init,
        )
        assert err is not None and err[0] == "MacHazardError"
        assert "touches MAC-owned registers" in err[1]

    def test_mac_kernel_full_parity(self):
        c = OpfConstants(u=65356, k=144)
        src = generate_opf_mul_mac(c)
        fast = build(KernelRunner, src, Mode.ISE, tier="fast")
        ref = KernelRunner(src, Mode.ISE, engine="reference")
        a = pow(3, 99, c.p)
        b = pow(7, 55, c.p)
        assert fast.run(a, b) == ref.run(a, b)
        assert fast.core.data._mem == ref.core.data._mem
        assert fast.core.mac.mac_ops == ref.core.mac.mac_ops


class TestErrorPathParity:
    def test_illegal_opcode(self):
        def init(core):
            core.program.write_word(2, 0xFF0F)  # no such encoding
        _, err = run_both("    nop\n    nop\n    nop\n    break\n", init=init)
        assert err is not None and err[0] == "ExecutionError"
        assert "illegal opcode" in err[1]

    def test_out_of_range_store(self):
        _, err = run_both(
            "    ldi r30, 0xFF\n"
            "    ldi r31, 0x7F\n"
            "    st Z, r30\n"
            "    break\n",
            sram=256,
        )
        assert err is not None

    def test_step_budget_exceeded(self):
        src = "spin:\n    rjmp spin\n"
        outcomes = {}
        for tier in TIERS:
            core = _fresh_core(tier)
            assemble(src).load_into(core.program)
            with pytest.raises(ExecutionError, match="step budget"):
                core.run(max_steps=1000)
            outcomes[tier] = (core.pc, core.instructions_retired,
                              core.cycles)
        assert outcomes["fast"] == outcomes["reference"]
        assert outcomes["trace"] == outcomes["reference"]


class TestInvalidation:
    """Flash writes must invalidate decoded/compiled views of the program."""

    def test_reload_replaces_compiled_blocks(self):
        core = _fresh_core("fast")
        assemble("    ldi r24, 1\n    break\n").load_into(core.program)
        core.run()
        assert core.data.reg(24) == 1
        assemble("    ldi r24, 2\n    break\n").load_into(core.program)
        core.reset()
        core.run()
        assert core.data.reg(24) == 2

    def test_write_word_invalidates_single_patch(self):
        core = _fresh_core("fast")
        program = assemble("    ldi r24, 1\n    break\n")
        program.load_into(core.program)
        core.run()
        patched = assemble("    ldi r24, 9\n    break\n").words[0]
        core.program.write_word(0, patched)
        core.reset()
        core.run()
        assert core.data.reg(24) == 9

    def test_version_counter_bumps(self):
        mem = ProgramMemory()
        v0 = mem.version
        mem.write_word(0, 0x0000)
        assert mem.version > v0

    def test_decode_cache_refreshes_on_reload(self):
        """The reference interpreter's decode cache obeys version too."""
        core = _fresh_core("reference")
        assemble("    ldi r24, 1\n    break\n").load_into(core.program)
        core.run()
        assemble("    ldi r24, 7\n    break\n").load_into(core.program)
        core.reset()
        core.run()
        assert core.data.reg(24) == 7


class TestReset:
    def test_reset_restores_stack_pointer(self):
        core = _fresh_core("fast")
        assemble(
            "    ldi r24, 5\n"
            "    push r24\n"
            "    push r24\n"
            "    break\n"
        ).load_into(core.program)
        top = core.data.size - 1
        core.run()
        assert core.data.sp == top - 2
        core.reset()
        assert core.data.sp == top
        assert core.pc == 0 and core.cycles == 0
        assert not core.halted

    def test_reset_preserves_data_space(self):
        core = _fresh_core("fast")
        core.data.load_bytes(0x200, b"\x11\x22\x33")
        core.reset()
        assert core.data.dump_bytes(0x200, 3) == b"\x11\x22\x33"


class TestEngineSelection:
    def test_default_is_the_superblock_dispatcher(self):
        c = OpfConstants(u=65356, k=144)
        runner = KernelRunner(generate_opf_mul_mac(c), Mode.ISE)
        assert runner.core.engine == "trace"
        before = METRICS.snapshot()
        runner.run(pow(3, 99, c.p), pow(7, 55, c.p))
        after = METRICS.snapshot()
        ticked = [name for name in ("avr_superblocks_compiled",
                                    "avr_superblock_cache_hits")
                  if after.get(name, 0) > before.get(name, 0)]
        assert ticked, "the default run dispatched no superblock"

    def test_fast_is_not_an_engine(self):
        # The basic-block engine is the dispatcher's internal rung.
        with pytest.raises(ValueError):
            AvrCore(ProgramMemory(), engine="fast")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            AvrCore(ProgramMemory(), engine="jit")

    def test_profiler_rides_the_fast_engine(self):
        # A profiler never forces the reference interpreter: the default
        # dispatcher hands profiled runs to the basic-block engine, which
        # dispatches to profiled closures and folds block tallies in.
        core = AvrCore(ProgramMemory())
        assemble("    nop\n    break\n").load_into(core.program)
        from repro.avr import Profiler
        prof = Profiler()
        core.attach_profiler(prof)
        core.run()
        assert core._fast_engine is not None
        assert core._fast_engine.profiled_blocks  # profiled cache was used
        assert prof.instruction_counts["NOP"] == 1
        assert prof.instruction_counts["BREAK"] == 1
        assert prof.total_cycles == core.cycles
