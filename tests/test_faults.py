"""The fault model and the ISS fault injector (DESIGN.md §7).

Covers the spec taxonomy and its validation, seeded campaign generation,
the precise semantics of each injection kind on a directed program, and —
the load-bearing property — that an injected fault trace is architecturally
identical under the reference interpreter, the block-compiling fast engine
and the superblock dispatcher.
"""

import pytest

from repro.avr import Mode, assemble
from repro.avr.profiler import Profiler
from repro.faults import (
    FaultInjector,
    FaultSpec,
    FaultyMult,
    LadderFault,
    flip_element,
    generate_faults,
    generate_ladder_faults,
)

from iss_tiers import TIERS, build, make_core

#: r16 accumulates 40 ones; the sum is stored then the core halts.
#: CA timing: 2 cycles of ldi, then 1 cycle per add — the add finishing
#: at cycle 2 + n is number n (1-based), so trigger cycles map exactly
#: onto partial sums.
_SUM_PROGRAM = (
    "    ldi r16, 0\n"
    "    ldi r17, 1\n"
    + "    add r16, r17\n" * 40
    + "    sts 0x0100, r16\n"
    "    break\n"
)

_RESULT_ADDR = 0x0100


def _fresh(tier="reference"):
    core = make_core(tier, mode=Mode.CA, sram_size=1024)
    assemble(_SUM_PROGRAM).load_into(core.program)
    return core


def _state(core):
    return {
        "mem": bytes(core.data._mem),
        "sreg": core.sreg.value,
        "pc": core.pc,
        "cycles": core.cycles,
        "retired": core.instructions_retired,
        "halted": core.halted,
    }


class TestFaultSpec:
    def test_valid_specs(self):
        FaultSpec(cycle=5, target="sram", kind="bitflip", address=0x100,
                  bit=7)
        FaultSpec(cycle=5, target="reg", kind="bitflip", address=31, bit=0)
        FaultSpec(cycle=5, target="acc", kind="bitflip", address=8, bit=3)
        FaultSpec(cycle=5, target="code", kind="skip")
        FaultSpec(cycle=5, target="code", kind="opcode", bit=15)

    @pytest.mark.parametrize("kwargs", [
        dict(cycle=-1, target="sram", kind="bitflip"),  # negative trigger
        dict(cycle=5, target="code", kind="bitflip"),   # flips need data
        dict(cycle=5, target="sram", kind="skip"),      # skips are code-only
        dict(cycle=5, target="reg", kind="bitflip", address=32),
        dict(cycle=5, target="acc", kind="bitflip", address=9),
        dict(cycle=5, target="sram", kind="bitflip", bit=8),
        dict(cycle=5, target="code", kind="opcode", bit=16),
        dict(cycle=5, target="bus", kind="bitflip"),
        dict(cycle=5, target="code", kind="glitch"),
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_as_dict_roundtrip(self):
        spec = FaultSpec(cycle=9, target="reg", kind="bitflip", address=4,
                         bit=2)
        assert FaultSpec(**spec.as_dict()) == spec


class TestGenerateFaults:
    def test_deterministic(self):
        a = generate_faults(50, 3, max_cycle=1000,
                            sram_ranges=[(0x100, 0x200)])
        b = generate_faults(50, 3, max_cycle=1000,
                            sram_ranges=[(0x100, 0x200)])
        assert a == b
        assert a != generate_faults(50, 4, max_cycle=1000,
                                    sram_ranges=[(0x100, 0x200)])

    def test_respects_menu_and_ranges(self):
        faults = generate_faults(200, 1, max_cycle=500,
                                 sram_ranges=[(0x80, 0x90)],
                                 accumulator=False)
        assert all(1 <= f.cycle < 500 for f in faults)
        assert all(f.target != "acc" for f in faults)
        for f in faults:
            if f.target == "sram":
                assert 0x80 <= f.address < 0x90
            elif f.target == "reg":
                assert 0 <= f.address < 32

    def test_accumulator_only_when_enabled(self):
        faults = generate_faults(300, 2, max_cycle=500, accumulator=True)
        assert any(f.target == "acc" for f in faults)
        assert all(0 <= f.address <= 8
                   for f in faults if f.target == "acc")


class TestInjectorSemantics:
    def test_clean_run_sums_to_40(self):
        core = _fresh()
        core.run()
        assert core.data._mem[_RESULT_ADDR] == 40

    def test_register_bitflip_alters_partial_sum(self):
        # Boundary at cycle 12 = after 10 adds: r16 holds 10; flipping
        # bit 0 makes it 11, and the remaining 30 adds carry it to 41.
        core = _fresh()
        spec = FaultSpec(cycle=12, target="reg", kind="bitflip",
                         address=16, bit=0)
        log = FaultInjector(core, [spec]).run()
        assert log[0].applied and log[0].cycle == 12
        assert core.data._mem[_RESULT_ADDR] == 41

    def test_sram_bitflip_hits_result_cell(self):
        # Flip a bit of the (still zero) result cell early; the final
        # store overwrites it, so the program output is clean — but the
        # flip itself must have landed.
        core = _fresh()
        spec = FaultSpec(cycle=3, target="sram", kind="bitflip",
                         address=_RESULT_ADDR, bit=5)
        FaultInjector(core, [spec]).run()
        assert core.data._mem[_RESULT_ADDR] == 40

    def test_skip_drops_one_add(self):
        core = _fresh()
        spec = FaultSpec(cycle=12, target="code", kind="skip")
        log = FaultInjector(core, [spec]).run()
        assert log[0].applied
        assert core.data._mem[_RESULT_ADDR] == 39

    def test_opcode_corruption_is_transient(self):
        core = _fresh()
        pc = 2 + 10  # word address of add number 11 (two ldi words first)
        original = core.program.fetch(pc)
        version_before = core.program.version
        spec = FaultSpec(cycle=12, target="code", kind="opcode", bit=10)
        try:
            FaultInjector(core, [spec]).run()
        except Exception:
            pass  # an illegal mutant opcode is a legitimate outcome
        assert core.program.fetch(pc) == original  # flash restored
        assert core.program.version >= version_before + 2  # corrupt+restore

    def test_fault_after_halt_is_not_applied(self):
        core = _fresh()
        spec = FaultSpec(cycle=10_000, target="reg", kind="bitflip",
                         address=16, bit=0)
        log = FaultInjector(core, [spec]).run()
        assert not log[0].applied
        assert core.data._mem[_RESULT_ADDR] == 40

    def test_multiple_faults_apply_in_cycle_order(self):
        core = _fresh()
        specs = [
            FaultSpec(cycle=22, target="reg", kind="bitflip", address=16,
                      bit=1),
            FaultSpec(cycle=12, target="reg", kind="bitflip", address=16,
                      bit=0),
        ]
        log = FaultInjector(core, specs).run()
        assert [entry.cycle for entry in log] == [12, 22]
        # after 10 adds: 10 -> 11; after 20: 21 -> 23; 20 more adds: 43.
        assert core.data._mem[_RESULT_ADDR] == 43

    def test_rejects_profiled_core(self):
        core = _fresh()
        core.attach_profiler(Profiler())
        with pytest.raises(ValueError):
            FaultInjector(core, [])

    def test_step_budget_enforced(self):
        core = _fresh()
        spec = FaultSpec(cycle=12, target="reg", kind="bitflip",
                         address=16, bit=0)
        with pytest.raises(Exception):
            FaultInjector(core, [spec], max_steps=5).run()


class TestEngineParity:
    """The same fault trace must be bit-identical across tiers."""

    @pytest.mark.parametrize("spec", [
        FaultSpec(cycle=12, target="reg", kind="bitflip", address=16,
                  bit=0),
        FaultSpec(cycle=17, target="sram", kind="bitflip",
                  address=_RESULT_ADDR, bit=3),
        FaultSpec(cycle=12, target="code", kind="skip"),
        FaultSpec(cycle=12, target="code", kind="opcode", bit=10),
    ])
    def test_directed_program_parity(self, spec):
        outcomes = {}
        for tier in TIERS:
            core = _fresh(tier)
            err = None
            try:
                log = FaultInjector(core, [spec]).run()
                landed = (log[0].pc, log[0].cycle, log[0].applied)
            except Exception as exc:
                landed, err = None, type(exc).__name__
            outcomes[tier] = (_state(core), landed, err)
        assert outcomes["reference"] == outcomes["fast"]
        assert outcomes["reference"] == outcomes["trace"]

    def test_ladder_kernel_parity(self):
        from repro.curves.params import MONTGOMERY_GX, OPF_K, OPF_U
        from repro.kernels import LadderKernel, OpfConstants
        constants = OpfConstants(u=OPF_U, k=OPF_K)
        spec = FaultSpec(cycle=150_000, target="sram", kind="bitflip",
                         address=0x0240 + 3, bit=2)
        outcomes = {}
        for tier in TIERS:
            kernel = build(LadderKernel, constants, Mode.CA, scalar_bytes=1,
                           tier=tier)
            kernel.load_operands(0xB5, MONTGOMERY_GX)
            log = FaultInjector(kernel.core, [spec],
                                max_steps=2_000_000).run()
            outcomes[tier] = (kernel.output_state(), kernel.core.cycles,
                              log[0].pc, log[0].cycle)
        assert outcomes["reference"] == outcomes["fast"]
        assert outcomes["reference"] == outcomes["trace"]


class TestPyFaults:
    def test_flip_element_is_involutive(self):
        from repro.curves.params import make_montgomery
        field = make_montgomery(functional=True).curve.field
        x = field.from_int(12345)
        assert flip_element(flip_element(x, 7), 7) == x
        assert flip_element(x, 7) != x

    def test_ladder_fault_validation(self):
        with pytest.raises(ValueError):
            LadderFault(rung=0, register="r2", coord="x", bit=0)
        with pytest.raises(ValueError):
            LadderFault(rung=0, register="r0", coord="w", bit=0)
        with pytest.raises(ValueError):
            LadderFault(rung=-1, register="r0", coord="x", bit=0)

    def test_generate_ladder_faults_deterministic(self):
        assert generate_ladder_faults(20, 5, rungs=160) \
            == generate_ladder_faults(20, 5, rungs=160)

    def test_faulty_mult_corrupts_exactly_one_call(self):
        from repro.curves.params import make_secp160r1
        from repro.scalarmult import adapter_for, scalar_mult_naf
        suite = make_secp160r1(functional=True)

        def clean(k, point):
            return scalar_mult_naf(adapter_for(suite.curve, point), k)

        faulty = FaultyMult(clean, call_index=1, kind="x", bit=4)
        golden = clean(9, suite.base)
        assert faulty(9, suite.base) == golden          # call 0: clean
        corrupted = faulty(9, suite.base)               # call 1: faulted
        assert corrupted != golden
        assert corrupted.x == flip_element(golden.x, 4)
        assert faulty(9, suite.base) == golden          # call 2: clean

    def test_faulty_mult_scalar_kind_leaves_key_clean(self):
        from repro.curves.params import make_secp160r1
        from repro.scalarmult import adapter_for, scalar_mult_naf
        suite = make_secp160r1(functional=True)

        def clean(k, point):
            return scalar_mult_naf(adapter_for(suite.curve, point), k)

        faulty = FaultyMult(clean, call_index=0, kind="scalar", bit=1)
        assert faulty(9, suite.base) == clean(9 ^ 2, suite.base)
        assert faulty(9, suite.base) == clean(9, suite.base)
