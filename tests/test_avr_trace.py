"""Directed tests for the superblock dispatcher behind ``AvrCore.run()``.

The trace tier AOT-specialises straight-line paths — stitched across
CALL/RET and fall-through boundaries — into single Python closures with
registers in locals and dead SREG flag computation elided.  Everything
here checks the tier against the reference interpreter and the
basic-block fast engine (:mod:`iss_tiers`) at full architectural
fidelity: memory image, SREG, PC, cycle count and instructions retired.

Four angles:

* kernel parity — the measured bench kernels (ladder, MAC/Comba field
  multiplication, modular add/sub) bit- and cycle-exact three-way, across
  modes;
* superblock formation — stitching across subroutine calls, the global
  compile cache, ineligible entries;
* SREG dead-flag elision — property tests (hypothesis) asserting the
  flag-visible state stays identical whenever an SREG-reading instruction
  follows (BRxx, ADC/SBC, SBRC/SBRS, ``IN 0x3F``, PUSH of SREG),
  including interrupt-flag windows opened and closed mid-block;
* invalidation — flash writes yank guards mid-session and the tier must
  resume bit-exactly on the fallback ladder.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.avr import AvrCore, Mode, ProgramMemory, assemble
from repro.avr.trace import _TRACE_CACHE, compile_superblock
from repro.kernels import LadderKernel, OpfConstants
from repro.kernels.addsub_kernel import generate_modadd, generate_modsub
from repro.kernels.mul_kernels import (generate_opf_mul_comba,
                                       generate_opf_mul_mac)
from repro.kernels.runner import KernelRunner

from iss_tiers import TIERS as ENGINES, build, make_core

CONSTANTS = OpfConstants(u=65356, k=144)


def _snap(core):
    return (bytes(core.data._mem), core.sreg.value, core.pc,
            core.cycles, core.instructions_retired)


def _run_source(source, engine, mode=Mode.CA, pre=None):
    core = make_core(engine, mode=mode)
    assemble(source).load_into(core.program)
    if pre is not None:
        pre(core)
    core.run()
    return core


def _three_way(source, mode=Mode.CA, pre=None):
    """Run *source* on all three engines; assert identical final state."""
    ref, fast, trc = (_run_source(source, e, mode, pre) for e in ENGINES)
    assert _snap(fast) == _snap(ref), source
    assert _snap(trc) == _snap(ref), source
    return ref


class TestTraceKernelParity:
    """The measured kernels, bit- and cycle-exact across all three tiers."""

    @pytest.mark.parametrize("mode", [Mode.ISE, Mode.FAST],
                             ids=lambda m: m.value)
    def test_ladder_three_way(self, mode):
        outputs = []
        for engine in ENGINES:
            kernel = build(LadderKernel, CONSTANTS, mode, scalar_bytes=2,
                           tier=engine)
            result = kernel.run(0xB6C3, 0x1234)
            core = kernel.core
            outputs.append((result, core.sreg.value,
                            core.instructions_retired))
        assert outputs[0] == outputs[1] == outputs[2]

    FIELD_CASES = [
        ("mac-ise-error", generate_opf_mul_mac, Mode.ISE),
        ("comba-ca", generate_opf_mul_comba, Mode.CA),
        ("comba-fast", generate_opf_mul_comba, Mode.FAST),
        ("modadd-ca", generate_modadd, Mode.CA),
        ("modsub-fast", generate_modsub, Mode.FAST),
    ]

    @pytest.mark.parametrize("label,gen,mode", FIELD_CASES,
                             ids=[c[0] for c in FIELD_CASES])
    def test_field_kernels_three_way(self, label, gen, mode):
        source = gen(CONSTANTS)
        a, b = 123456789, 987654321
        snaps = []
        for engine in ENGINES:
            runner = build(KernelRunner, source, mode, tier=engine)
            result, cycles = runner.run(a, b)
            snaps.append((result, cycles, _snap(runner.core)))
        assert snaps[0] == snaps[1] == snaps[2], label


class TestSuperblockFormation:
    def _trace_core(self, source, mode=Mode.CA):
        core = AvrCore(ProgramMemory(), mode=mode, engine="trace")
        assemble(source).load_into(core.program)
        return core

    def test_straightline_program_is_one_superblock(self):
        core = self._trace_core(
            "    ldi r16, 5\n"
            "    ldi r17, 9\n"
            "    add r16, r17\n"
            "    mov r18, r16\n"
            "    break\n"
        )
        fn = compile_superblock(core, 0)
        assert fn is not None
        assert fn._n_instructions == 5
        assert "def _superblock" in fn._source

    def test_superblock_stitches_across_call_and_ret(self):
        # Two instructions, a CALL into a three-instruction body, RET,
        # two more, BREAK: a basic-block compiler sees four blocks; the
        # superblock scanner follows the static call target and the
        # matching return, producing one trace covering all of it.
        core = self._trace_core(
            "    ldi r16, 1\n"
            "    ldi r17, 2\n"
            "    rcall body\n"
            "    mov r19, r18\n"
            "    break\n"
            "body:\n"
            "    add r16, r17\n"
            "    mov r18, r16\n"
            "    ret\n"
        )
        fn = compile_superblock(core, 0)
        assert fn is not None
        assert fn._n_instructions == 8  # all of it, call and ret included
        ref = _three_way(
            "    ldi r16, 1\n"
            "    ldi r17, 2\n"
            "    rcall body\n"
            "    mov r19, r18\n"
            "    break\n"
            "body:\n"
            "    add r16, r17\n"
            "    mov r18, r16\n"
            "    ret\n"
        )
        assert ref.data.reg(19) == 3

    def test_identical_programs_share_the_global_cache(self):
        source = (
            "    ldi r20, 7\n"
            "    inc r20\n"
            "    break\n"
        )
        first = compile_superblock(self._trace_core(source), 0)
        second = compile_superblock(self._trace_core(source), 0)
        assert first is second  # served from _TRACE_CACHE by fingerprint
        assert any(fn is first for fn in _TRACE_CACHE.values())

    def test_io_escape_entry_is_ineligible(self):
        # OUT to a non-SREG I/O register must run on the interpreter so
        # write hooks fire; as a superblock *entry* that means there is
        # no superblock at all and the dispatcher single-steps.
        core = self._trace_core(
            "    out 0x10, r16\n"
            "    break\n"
        )
        assert compile_superblock(core, 0) is None

    def test_dispatcher_populates_superblock_table(self):
        core = self._trace_core(
            "    ldi r16, 3\n"
            "loop:\n"
            "    dec r16\n"
            "    brne loop\n"
            "    break\n"
        )
        core.run()
        assert core._trace_engine is not None
        assert core._trace_engine.superblocks
        assert core.data.reg(16) == 0

    def test_zero_progress_entry_takes_a_reference_step(self):
        # X points into I/O space, so the LD heading its superblock
        # side-exits before retiring anything; the dispatcher must
        # reference-step it instead of spinning.
        source = (
            "    ldi r26, 0x30\n"
            "    ldi r27, 0\n"
            "    ld r16, X\n"
            "    break\n"
        )
        _three_way(source)


# -- SREG dead-flag elision properties ------------------------------------

#: Flag-writing ALU soup: arithmetic, logic, shifts, and direct SREG bit
#: sets/clears — including SEI/CLI so interrupt-enable windows open and
#: close mid-block.
ALU_OPS = (
    "inc r16", "dec r16", "com r16", "neg r16",
    "lsr r16", "ror r16", "asr r16", "swap r16",
    "andi r16, 0x5A", "ori r16, 0x21", "subi r16, 7", "sbci r16, 3",
    "cpi r16, 44", "add r16, r17", "adc r16, r17",
    "sub r16, r17", "sbc r16, r17", "eor r16, r17", "mov r16, r17",
    "sec", "clc", "sez", "clz", "sen", "cln", "sev", "clv",
    "ses", "cls", "seh", "clh", "set", "clt", "sei", "cli",
)

#: Every SREG-reading shape the issue names, as suffix line lists.  The
#: conditional branches cover all eight flag bits in both senses.
READERS = tuple(
    [[f"{br} past", "inc r18", "past:"]
     for br in ("brcs", "brcc", "breq", "brne", "brmi", "brpl",
                "brvs", "brvc", "brlt", "brge", "brhs", "brhc",
                "brts", "brtc", "brie", "brid")]
    + [
        ["adc r18, r19"],
        ["sbc r18, r19"],
        ["sbrc r16, 3", "inc r18"],
        ["sbrs r16, 6", "inc r18"],
        ["in r18, 0x3F"],
        ["in r18, 0x3F", "push r18"],  # PUSH of SREG
    ]
)


class TestSregDeadFlagElision:
    """Eliding dead flag computation must never be observable.

    The trace compiler drops SREG updates no later instruction reads; the
    property is that whenever *any* SREG-reading instruction follows —
    at any distance — the flag-visible state (and hence every downstream
    architectural effect) is identical across all three engines.
    """

    @staticmethod
    def _program(r16, r17, body, reader):
        lines = [f"    ldi r16, {r16}", f"    ldi r17, {r17}",
                 "    ldi r18, 0", "    ldi r19, 85"]
        lines += [f"    {op}" for op in body]
        for line in reader:
            indent = "" if line.endswith(":") else "    "
            lines.append(indent + line)
        lines.append("    break")
        return "\n".join(lines) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(r16=st.integers(0, 255), r17=st.integers(0, 255),
           body=st.lists(st.sampled_from(ALU_OPS), min_size=1,
                         max_size=16),
           reader=st.sampled_from(READERS))
    def test_flag_visible_state_identical(self, r16, r17, body, reader):
        _three_way(self._program(r16, r17, body, reader))

    @settings(max_examples=30, deadline=None)
    @given(r16=st.integers(0, 255),
           body=st.lists(
               st.sampled_from([op for op in ALU_OPS
                                if op not in ("sei", "cli")]),
               min_size=1, max_size=8))
    def test_interrupt_window_reads_see_every_flag(self, r16, body):
        # The I bit flips around a full-SREG read *and* a PUSH of SREG
        # inside the window: the elider must keep every bit of the ALU
        # soup live because IN 0x3F reads all eight.
        lines = [f"    ldi r16, {r16}", "    ldi r17, 3", "    sei"]
        lines += [f"    {op}" for op in body]
        lines += ["    in r18, 0x3F", "    push r18", "    cli",
                  "    in r19, 0x3F", "    break"]
        core = _three_way("\n".join(lines) + "\n")
        assert core.data.reg(18) & 0x80  # window open at first read
        assert not core.data.reg(19) & 0x80  # closed at second


class TestTraceInvalidation:
    LOOP = (
        "    ldi r16, 10\n"
        "loop:\n"
        "    subi r16, 1\n"
        "    brne loop\n"
        "    ldi r17, 42\n"
        "    break\n"
    )

    def test_flash_write_invalidates_superblocks(self):
        core = AvrCore(ProgramMemory(), engine="trace")
        assemble(self.LOOP).load_into(core.program)
        core.run()
        assert core.data.reg(17) == 42
        engine = core._trace_engine
        assert engine.superblocks
        # Patch the final immediate: LDI r17, 42 -> LDI r17, 99.
        patched = assemble("    ldi r17, 99\n").words[0]
        core.program.write_word(3, patched)
        core.reset(pc=0)
        core.run()
        assert core.data.reg(17) == 99  # stale superblock would say 42
        assert engine.version == core.program.version
