"""The MAC queue bound every execution tier relies on.

The hazard contract has one form: an instruction that touches a MAC-owned
register while nibble MACs are pending raises ``MacHazardError``, and so
does a trigger load that finds more than one nibble still pending.  A
trigger load is therefore issued with at most one leftover nibble, and
that nibble drains during the load's own cycle, so at most two nibbles
are pending at any instruction boundary.  The superblock dispatcher
specialises on the pending length and keeps no rung for deeper queues;
these tests hold the bound on seeded random ISE programs, with and
without the skip and opcode faults of :mod:`repro.faults`, and check that
a program trying to build the queue past two raises identically on every
tier.
"""

import random

import pytest

from repro.avr import (
    AvrCore,
    ExecutionError,
    MacHazardError,
    Mode,
    ProgramMemory,
    assemble,
)
from repro.faults import FaultInjector, generate_faults

from iss_tiers import TIERS, make_core

#: Operand window the random programs load from (X, Y and LDS targets).
DATA_ADDR = 0x100

_SETUP = (
    f"    ldi r26, {DATA_ADDR & 0xFF}\n"
    f"    ldi r27, {DATA_ADDR >> 8}\n"
    f"    ldi r28, {DATA_ADDR & 0xFF}\n"
    f"    ldi r29, {DATA_ADDR >> 8}\n"
    "    ldi r20, 0x83\n"          # swap + load triggers, counter reset
    "    out 0x28, r20\n"
)

#: (weight, instruction template) — loads into R24 in every addressing
#: form (``POP r24`` meets the trigger-load hazard rule but schedules no
#: MACs), SWAPs of owned and scratch registers, MACCR writes, multi-cycle
#: and MAC-conflicting instructions.
_MENU = [
    (6, "    ld r24, X+"),
    (4, "    ldd r24, Y+{k}"),
    (3, "    lds r24, {addr}"),
    (2, "    push r10\n    pop r24"),
    (3, "    swap r10"),
    (1, "    swap r16"),
    (2, "    ldi r20, {maccr}\n    out 0x28, r20"),
    (2, "    lds r10, {addr}"),
    (2, "    sts {addr}, r11"),
    (2, "    push r11\n    pop r12"),
    (1, "    adiw r30, 1"),
    (1, "    mul r10, r11"),
    (6, "    nop"),
    (3, "    mov r10, r11"),
    (3, "    inc r12"),
    (1, "    add r0, r1"),
    (1, "    ldi r17, {k}"),
    (2, "    ld r25, X"),
]
_MACCR_VALUES = (0x00, 0x01, 0x02, 0x03, 0x81, 0x82, 0x83)


def random_program(rng: random.Random, length: int) -> str:
    weights = [w for w, _ in _MENU]
    lines = [_SETUP]
    for _ in range(length):
        _, template = rng.choices(_MENU, weights)[0]
        lines.append(template.format(
            k=rng.randrange(32),
            addr=DATA_ADDR + rng.randrange(64),
            maccr=rng.choice(_MACCR_VALUES),
        ) + "\n")
    lines.append("    break\n")
    return "".join(lines)


def _checked_core(source: str, seed: int, depths: list) -> AvrCore:
    """A reference core whose every completed step asserts the bound.

    *depths* collects the pending length after each step, so callers can
    show that the programs reach the bound rather than sit below it.
    """
    core = AvrCore(ProgramMemory(), mode=Mode.ISE, engine="reference")
    assemble(source).load_into(core.program)
    core.data.load_bytes(DATA_ADDR,
                         random.Random(seed).randbytes(96))
    step = core.step

    def checked_step():
        cycles = step()  # MacHazardError propagates: the other outcome
        depth = len(core.mac.pending)
        assert depth <= 2, f"{depth} nibbles pending at pc={core.pc:#06x}"
        depths.append(depth)
        return cycles

    core.step = checked_step
    return core


class TestPendingBound:
    """Every step raises MacHazardError or leaves <= 2 nibbles pending."""

    def test_random_programs(self):
        depths: list = []
        hazards = 0
        for seed in range(150):
            rng = random.Random(seed)
            core = _checked_core(random_program(rng, 40), seed, depths)
            try:
                core.run(max_steps=10_000)
            except MacHazardError:
                hazards += 1
        # Both outcomes occur and the bound is reached, not just respected.
        assert hazards and hazards < 150
        assert max(depths) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs_under_code_faults(self, seed):
        depths: list = []
        outcomes = {"ok": 0, "hazard": 0, "crash": 0}
        for i in range(25):
            program_seed = 1000 * (seed + 1) + i
            rng = random.Random(program_seed)
            source = random_program(rng, 40)
            clean = _checked_core(source, program_seed, [])
            try:
                clean.run(max_steps=10_000)
            except MacHazardError:
                pass
            faults = generate_faults(3, program_seed,
                                     max(2, clean.cycles),
                                     registers=False, code=True)
            core = _checked_core(source, program_seed, depths)
            try:
                FaultInjector(core, faults, max_steps=10_000).run()
                outcomes["ok"] += 1
            except MacHazardError:
                outcomes["hazard"] += 1
            except (ExecutionError, IndexError):
                # A corrupted opcode may decode as illegal, run out of the
                # data space or loop past the step budget.
                outcomes["crash"] += 1
        assert outcomes["ok"] and outcomes["hazard"]
        assert max(depths) == 2


class TestQueueOverflowRaisesOnEveryTier:
    """A trigger load that would push the queue past two raises the same
    ``MacHazardError`` from the same architectural state on every tier
    (back-to-back ``LD r24, X+`` is ``test_avr_engine``'s case)."""

    CASES = {
        "ldd-lds": f"    ldd r24, Y+1\n    lds r24, {DATA_ADDR + 7}\n",
        # Steady issue every other cycle holds the queue at two; dropping
        # the gap instruction once overflows it.
        "pipeline": ("    ld r24, X+\n    nop\n" * 3
                     + "    ld r24, X+\n    ld r24, X+\n"),
        # The second trigger reads I/O space: the superblock ends before
        # it and the dispatcher's ineligible-entry step meets two pending.
        "io-entry": "    ld r24, X+\n    lds r24, 0x30\n",
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_same_error_same_state(self, label):
        source = _SETUP + self.CASES[label] + "    break\n"
        outcomes = []
        for tier in TIERS:
            core = make_core(tier, mode=Mode.ISE)
            assemble(source).load_into(core.program)
            core.data.load_bytes(DATA_ADDR, bytes(range(1, 65)))
            with pytest.raises(MacHazardError) as exc:
                core.run()
            outcomes.append((
                str(exc.value), bytes(core.data._mem), core.sreg.value,
                core.pc, core.cycles, core.instructions_retired,
                core.mac.counter, core.mac.mac_ops, list(core.mac.pending),
            ))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert "issue-rate exceeded" in outcomes[0][0]
        assert len(outcomes[0][-1]) == 2
