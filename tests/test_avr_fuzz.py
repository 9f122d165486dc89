"""Differential fuzzing of the simulator against big-int ground truth.

Random multi-precision programs are generated as AVR assembly, run through
the full assembler → encoder → decoder → executor pipeline, and the final
memory state is compared against the same computation done with Python
integers.  This catches interaction bugs no per-instruction test sees
(flag threading across long chains, pointer auto-increment interplay,
encode/decode corner cases under real register pressure).
"""

import random

import pytest

from repro.avr import AvrCore, Mode, ProgramMemory, assemble

from iss_tiers import TIERS, make_core

SRC_ADDR_A = 0x100
SRC_ADDR_B = 0x140
DST_ADDR = 0x180


def run_program(source: str, a: int, b: int, nbytes: int,
                mode: Mode = Mode.CA) -> AvrCore:
    core = AvrCore(ProgramMemory(), mode=mode)
    assemble(source).load_into(core.program)
    core.data.load_bytes(SRC_ADDR_A, a.to_bytes(nbytes, "little"))
    core.data.load_bytes(SRC_ADDR_B, b.to_bytes(nbytes, "little"))
    core.run()
    return core


def _pointer_setup() -> str:
    return (
        f"    ldi r26, {SRC_ADDR_A & 0xFF}\n"
        f"    ldi r27, {SRC_ADDR_A >> 8}\n"
        f"    ldi r28, {SRC_ADDR_B & 0xFF}\n"
        f"    ldi r29, {SRC_ADDR_B >> 8}\n"
        f"    ldi r30, {DST_ADDR & 0xFF}\n"
        f"    ldi r31, {DST_ADDR >> 8}\n"
    )


def gen_addsub_chain(nbytes: int, subtract: bool) -> str:
    op0, opc = ("sub", "sbc") if subtract else ("add", "adc")
    body = []
    for i in range(nbytes):
        body.append("    ld r0, X+")
        body.append("    ld r1, Y+")
        body.append(f"    {op0 if i == 0 else opc} r0, r1")
        body.append("    st Z+, r0")
    return _pointer_setup() + "\n".join(body) + "\n    break\n"


def gen_shift_right(nbytes: int) -> str:
    """dst = a >> 1 (MSB-first ROR walk; Y re-pointed at A for LDD)."""
    body = [f"    ldi r28, {SRC_ADDR_A & 0xFF}",
            f"    ldi r29, {SRC_ADDR_A >> 8}",
            "    clc"]
    for i in range(nbytes - 1, -1, -1):
        body.append(f"    ldd r0, Y+{i}")
        body.append("    ror r0")
        body.append(f"    std Z+{i}, r0")
    return _pointer_setup() + "\n".join(body) + "\n    break\n"


def gen_negate(nbytes: int) -> str:
    """dst = (-a) mod 2^(8n): complement plus carried increment.

    COM forces the carry flag to 1, so the running increment carry lives in
    r3 and is re-extracted after every byte's ADD.
    """
    body = ["    clr r2", "    ldi r19, 1", "    mov r3, r19"]
    for _ in range(nbytes):
        body.append("    ld r0, X+")
        body.append("    com r0")
        body.append("    add r0, r3")
        body.append("    clr r3")
        body.append("    rol r3")       # capture the increment carry
        body.append("    st Z+, r0")
    return _pointer_setup() + "\n".join(body) + "\n    break\n"


def gen_skip_chain(nbytes: int) -> str:
    """dst = popcount-style fold with data-dependent SBRC/SBRS skips.

    Every byte of A steers eight skip instructions, so a superblock's
    predicted-not-taken arms side-exit mid-trace about half the time —
    the resume path (dispatcher re-entry at the skip target) is exercised
    on random data rather than only at block boundaries.
    """
    body = ["    clr r20", "    clr r21"]
    for _ in range(nbytes):
        body.append("    ld r0, X+")
        for bit in range(8):
            body.append(f"    sbrc r0, {bit}")
            body.append("    inc r20")
            body.append(f"    sbrs r0, {bit}")
            body.append("    inc r21")
    body.append("    st Z+, r20")
    body.append("    st Z+, r21")
    return _pointer_setup() + "\n".join(body) + "\n    break\n"


def gen_byte_mul_accumulate(nbytes: int) -> str:
    """dst(2 bytes) = sum of a[i] * b[i] (mod 2^16)."""
    body = ["    clr r4", "    clr r5"]
    for _ in range(nbytes):
        body.append("    ld r16, X+")
        body.append("    ld r17, Y+")
        body.append("    mul r16, r17")
        body.append("    add r4, r0")
        body.append("    adc r5, r1")
    body.append("    st Z+, r4")
    body.append("    st Z+, r5")
    return _pointer_setup() + "\n".join(body) + "\n    break\n"


class TestDifferentialFuzz:
    @pytest.mark.parametrize("nbytes", [1, 2, 5, 13, 20])
    def test_addition_chains(self, nbytes):
        rng = random.Random(nbytes)
        source = gen_addsub_chain(nbytes, subtract=False)
        for _ in range(30):
            a = rng.getrandbits(8 * nbytes)
            b = rng.getrandbits(8 * nbytes)
            core = run_program(source, a, b, nbytes)
            got = int.from_bytes(core.data.dump_bytes(DST_ADDR, nbytes),
                                 "little")
            assert got == (a + b) % (1 << (8 * nbytes))

    @pytest.mark.parametrize("nbytes", [1, 3, 8, 20])
    def test_subtraction_chains(self, nbytes):
        rng = random.Random(nbytes + 100)
        source = gen_addsub_chain(nbytes, subtract=True)
        for _ in range(30):
            a = rng.getrandbits(8 * nbytes)
            b = rng.getrandbits(8 * nbytes)
            core = run_program(source, a, b, nbytes)
            got = int.from_bytes(core.data.dump_bytes(DST_ADDR, nbytes),
                                 "little")
            assert got == (a - b) % (1 << (8 * nbytes))

    @pytest.mark.parametrize("nbytes", [1, 2, 7, 16])
    def test_right_shift(self, nbytes):
        rng = random.Random(nbytes + 200)
        source = gen_shift_right(nbytes)
        for _ in range(30):
            a = rng.getrandbits(8 * nbytes)
            core = run_program(source, a, 0, nbytes)
            got = int.from_bytes(core.data.dump_bytes(DST_ADDR, nbytes),
                                 "little")
            assert got == a >> 1

    @pytest.mark.parametrize("nbytes", [1, 4, 11])
    def test_negation(self, nbytes):
        rng = random.Random(nbytes + 300)
        source = gen_negate(nbytes)
        for _ in range(30):
            a = rng.getrandbits(8 * nbytes)
            core = run_program(source, a, 0, nbytes)
            got = int.from_bytes(core.data.dump_bytes(DST_ADDR, nbytes),
                                 "little")
            assert got == (-a) % (1 << (8 * nbytes))

    @pytest.mark.parametrize("nbytes", [1, 5, 12])
    def test_mul_accumulate(self, nbytes):
        rng = random.Random(nbytes + 400)
        source = gen_byte_mul_accumulate(nbytes)
        for _ in range(30):
            a = rng.getrandbits(8 * nbytes)
            b = rng.getrandbits(8 * nbytes)
            core = run_program(source, a, b, nbytes)
            got = int.from_bytes(core.data.dump_bytes(DST_ADDR, 2), "little")
            ab = a.to_bytes(nbytes, "little")
            bb = b.to_bytes(nbytes, "little")
            expect = sum(x * y for x, y in zip(ab, bb)) % (1 << 16)
            assert got == expect

    def test_modes_agree_on_values(self):
        """CA and FAST differ only in cycles, never in architectural state."""
        rng = random.Random(500)
        source = gen_addsub_chain(9, subtract=False)
        for _ in range(10):
            a, b = rng.getrandbits(72), rng.getrandbits(72)
            ca = run_program(source, a, b, 9, Mode.CA)
            fast = run_program(source, a, b, 9, Mode.FAST)
            assert ca.data.dump_bytes(DST_ADDR, 9) \
                == fast.data.dump_bytes(DST_ADDR, 9)
            assert ca.cycles > fast.cycles


class TestEngineDifferentialFuzz:
    """All three execution engines against each other on random programs.

    The value-level fuzz classes above check the simulator against big-int
    ground truth; this one checks the *engines against each other* —
    ``step()`` reference, block-compiling fast, superblock trace — on the
    same programs, asserting the full architectural state: memory image,
    SREG, PC, cycles and instructions retired.  Compilation at either
    tier cannot silently diverge in flags or timing even where the
    destination bytes happen to agree.
    """

    ENGINES = TIERS

    GENERATORS = [
        lambda n: gen_addsub_chain(n, subtract=False),
        lambda n: gen_addsub_chain(n, subtract=True),
        gen_shift_right,
        gen_negate,
        gen_byte_mul_accumulate,
        gen_skip_chain,
    ]

    @staticmethod
    def _run_engine(engine, source, a, b, nbytes, mode):
        core = make_core(engine, mode=mode)
        assemble(source).load_into(core.program)
        core.data.load_bytes(SRC_ADDR_A, a.to_bytes(nbytes, "little"))
        core.data.load_bytes(SRC_ADDR_B, b.to_bytes(nbytes, "little"))
        core.run()
        return (bytes(core.data._mem), core.sreg.value, core.pc,
                core.cycles, core.instructions_retired)

    @pytest.mark.parametrize("mode", [Mode.CA, Mode.FAST, Mode.ISE])
    def test_trace_three_way_on_generated_programs(self, mode):
        rng = random.Random(0xE46)
        for gen in self.GENERATORS:
            for nbytes in (1, 3, 9, 20):
                source = gen(nbytes)
                for _ in range(4):
                    a = rng.getrandbits(8 * nbytes)
                    b = rng.getrandbits(8 * nbytes)
                    ref, fast, trace = (
                        self._run_engine(e, source, a, b, nbytes, mode)
                        for e in self.ENGINES)
                    assert fast == ref, (gen, nbytes, mode)
                    assert trace == ref, (gen, nbytes, mode)

    def test_trace_three_way_on_random_alu_pipelines(self):
        rng = random.Random(0xBEEF)
        ops = [asm for asm, _ in TestRandomAluPrograms.OPS]
        for _ in range(40):
            start = rng.getrandbits(8)
            body = [rng.choice(ops) for _ in range(rng.randrange(1, 30))]
            source = f"    ldi r16, {start}\n" + "\n".join(
                f"    {asm}" for asm in body
            ) + "\n    break\n"
            results = []
            for engine in self.ENGINES:
                core = make_core(engine)
                assemble(source).load_into(core.program)
                core.run()
                results.append((bytes(core.data._mem), core.sreg.value,
                                core.pc, core.cycles,
                                core.instructions_retired))
            assert results[0] == results[1] == results[2], source


class TestTraceForcedFallback:
    """Mid-run guard invalidations must resume bit-exactly.

    A hooked OUT instruction is an I/O escape — the superblock containing
    it has already side-exited before the hook runs — and the hook then
    yanks a guard out from under the trace tier: a flash write bumping
    ``ProgramMemory.version`` invalidates all superblocks at the next
    dispatch.  Every engine must land in the identical final state.
    """

    #: An unhooked I/O address the fuzz programs poke mid-run.
    TRIGGER_IO = 0x10

    def _run(self, engine, source, a, nbytes, hook_factory):
        core = make_core(engine, mode=Mode.CA)
        assemble(source).load_into(core.program)
        core.data.load_bytes(SRC_ADDR_A, a.to_bytes(nbytes, "little"))
        core.data.io_write_hooks[self.TRIGGER_IO] = hook_factory(core)
        core.run()
        return (bytes(core.data._mem), core.sreg.value, core.pc,
                core.cycles, core.instructions_retired)

    @staticmethod
    def _interrupted_chain(nbytes: int) -> str:
        """An add chain with a hooked OUT dropped mid-stream."""
        lines = _pointer_setup().rstrip("\n").split("\n")
        body = []
        for i in range(nbytes):
            body.append("    ld r0, X+")
            body.append(f"    {'add' if i == 0 else 'adc'} r0, r0")
            if i == nbytes // 2:
                body.append(f"    out {TestTraceForcedFallback.TRIGGER_IO},"
                            " r0")
            body.append("    st Z+, r0")
        return "\n".join(lines + body) + "\n    break\n"

    @pytest.mark.parametrize("nbytes", [4, 9, 20])
    def test_trace_resumes_after_flash_version_bump(self, nbytes):
        rng = random.Random(nbytes + 0x7A)
        source = self._interrupted_chain(nbytes)

        def hook_factory(core):
            # Rewrite a flash word far past the program: the code keeps
            # its meaning but the version bump invalidates every
            # compiled superblock before the next dispatch.
            return lambda value: core.program.write_word(0x3000, value)

        for _ in range(5):
            a = rng.getrandbits(8 * nbytes)
            states = [self._run(e, source, a, nbytes, hook_factory)
                      for e in TestEngineDifferentialFuzz.ENGINES]
            assert states[0] == states[1] == states[2]


class TestRandomAluPrograms:
    """Random straight-line single-register ALU pipelines vs a Python fold."""

    OPS = [
        ("inc r16", lambda v: (v + 1) & 0xFF),
        ("dec r16", lambda v: (v - 1) & 0xFF),
        ("com r16", lambda v: (~v) & 0xFF),
        ("swap r16", lambda v: ((v << 4) | (v >> 4)) & 0xFF),
        ("lsr r16", lambda v: v >> 1),
        ("andi r16, 0x5A", lambda v: v & 0x5A),
        ("ori r16, 0x21", lambda v: v | 0x21),
        ("subi r16, 7", lambda v: (v - 7) & 0xFF),
    ]

    def test_random_pipelines(self):
        rng = random.Random(0xF022)
        for _ in range(60):
            start = rng.getrandbits(8)
            chosen = [rng.choice(self.OPS) for _ in range(rng.randrange(1, 25))]
            source = f"    ldi r16, {start}\n" + "\n".join(
                f"    {asm}" for asm, _ in chosen
            ) + "\n    break\n"
            core = AvrCore(ProgramMemory())
            assemble(source).load_into(core.program)
            core.run()
            expect = start
            for _, fn in chosen:
                expect = fn(expect)
            assert core.data.reg(16) == expect, source
