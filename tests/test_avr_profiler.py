"""Compiled-speed profiling: the fast engine's compile-time fold must match
the reference interpreter tally for tally, plus CALL/RET attribution.
Profiled runs of the default superblock dispatcher ride the same fold."""

import time

import pytest

from repro.avr import profiler as profiler_mod
from repro.avr.profiler import BlockStatic, EngineProfile, Profiler, group_of
from repro.avr.timing import Mode
from repro.kernels import (
    KernelRunner,
    LadderKernel,
    OpfConstants,
    generate_modadd,
    generate_modsub,
    generate_opf_mul_comba,
    generate_opf_mul_mac,
)

from iss_tiers import TIERS, build

CONSTANTS = OpfConstants(u=65356, k=144)
P = CONSTANTS.p
A, B = pow(3, 77, P), pow(5, 91, P)


def _tallies(prof):
    return (
        dict(prof.instruction_counts),
        dict(prof.cycle_counts),
        prof.total_instructions,
        prof.total_cycles,
        dict(prof.pc_counts),
        dict(prof.pc_cycles),
    )


class TestGroups:
    def test_addressing_modes_collapse(self):
        assert group_of("LD_XP") == "LD"
        assert group_of("ST_MY") == "ST"
        assert group_of("BRBS") == "BRANCH"
        assert group_of("BRBC") == "BRANCH"

    def test_plain_mnemonics_pass_through(self):
        assert group_of("MUL") == "MUL"
        assert group_of("MOVW") == "MOVW"


KERNELS = [
    ("modadd", generate_modadd, Mode.CA),
    ("modadd", generate_modadd, Mode.ISE),
    ("modsub", generate_modsub, Mode.FAST),
    ("comba", generate_opf_mul_comba, Mode.CA),
    ("comba", generate_opf_mul_comba, Mode.FAST),
    ("mac", generate_opf_mul_mac, Mode.ISE),
]


class TestEngineParity:
    """Both producers must yield identical per-group/per-PC numbers."""

    @pytest.mark.parametrize("name,gen,mode", KERNELS,
                             ids=[f"{n}/{m.value}" for n, _, m in KERNELS])
    def test_kernel_tallies_match_reference(self, name, gen, mode):
        source = gen(CONSTANTS)
        results = {}
        for tier in TIERS:
            runner = build(KernelRunner, source, mode, tier=tier)
            prof = runner.attach_profiler()
            runner.run(A, B)
            results[tier] = _tallies(prof)
            assert prof.total_cycles == runner.core.cycles
            assert prof.total_instructions == \
                runner.core.instructions_retired
        assert results["fast"] == results["reference"]
        assert results["trace"] == results["reference"]

    def test_repeated_runs_refold_cleanly(self):
        """The fold re-arms the block tallies, so a second profiled run
        produces the same numbers, not doubled or stale ones."""
        runner = build(KernelRunner, generate_opf_mul_mac(CONSTANTS),
                       Mode.ISE, tier="fast")
        prof = runner.attach_profiler()
        runner.run(A, B)
        first = _tallies(prof)
        runner.run(A, B)  # run() resets the profiler, refolds on exit
        assert _tallies(prof) == first

    @pytest.mark.parametrize("mode", [Mode.CA, Mode.ISE],
                             ids=["CA", "ISE"])
    def test_ladder_call_attribution_matches_reference(self, mode):
        k = (pow(7, 123, P) | 1) % (1 << 8)
        results = {}
        for tier in TIERS:
            kernel = build(LadderKernel, CONSTANTS, mode, scalar_bytes=1,
                           tier=tier)
            prof = kernel.attach_profiler()
            kernel.run(k, 9)
            results[tier] = (
                _tallies(prof),
                prof.routines(),
                sorted(prof.folded_stacks()),
                prof.frames,
            )
        assert results["fast"] == results["reference"]
        assert results["trace"] == results["reference"]

    def test_ladder_routine_table_names_the_field_subroutines(self):
        kernel = LadderKernel(CONSTANTS, Mode.ISE, scalar_bytes=1)
        prof = kernel.attach_profiler()
        kernel.run(0x2B, 9)
        names = {prof.name_for(pc) for pc in prof.routines() if pc != -1}
        assert {"mul_sub", "add_sub", "sub_sub"} <= names
        report = prof.routine_report()
        assert "mul_sub" in report and "(top)" in report
        # The multiplication subroutine dominates, as in the paper.
        by_name = {prof.name_for(pc): row
                   for pc, row in prof.routines().items() if pc != -1}
        assert by_name["mul_sub"]["cum"] > prof.total_cycles / 2
        stacks = prof.folded_stacks()
        assert any(line.startswith("main;mul_sub ") for line in stacks)


class TestProfilerUnit:
    def test_call_stack_flat_and_cumulative(self):
        prof = Profiler()
        prof.on_call(100, 5, 10)   # outer frame opens at cycle 10
        prof.on_call(200, 7, 20)   # nested frame opens at cycle 20
        prof.on_ret(50)            # inner: 30 cycles, all flat
        prof.on_ret(100)           # outer: 90 total, 60 flat
        table = prof.routines()
        assert table[200] == {"calls": 1, "flat": 30, "cum": 30}
        assert table[100] == {"calls": 1, "flat": 60, "cum": 90}
        assert prof.frames == [(200, 20, 50, 1), (100, 10, 100, 0)]
        assert sorted(prof.folded_stacks()) == [
            "main;sub_0x0064 60",
            "main;sub_0x0064;sub_0x00c8 30",
        ]

    def test_finish_closes_open_frames(self):
        prof = Profiler()
        prof.on_call(100, 5, 10)
        prof.finish(40)
        assert prof.routines()[100]["cum"] == 30

    def test_unmatched_ret_is_ignored(self):
        prof = Profiler()
        prof.on_ret(100)  # mid-run attach: RET without a profiled CALL
        assert prof.frames == []

    def test_name_for_uses_nearest_symbol(self):
        prof = Profiler()
        assert prof.name_for(16) == "sub_0x0010"
        prof.set_symbols({"start": 0, "mul_sub": 10})
        assert prof.name_for(10) == "mul_sub"
        assert prof.name_for(12) == "mul_sub+0x2"
        assert prof.name_for(5) == "start+0x5"

    def test_frame_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(profiler_mod, "MAX_FRAMES", 2)
        prof = Profiler()
        for i in range(3):
            prof.on_call(100, 5, 10 * i)
            prof.on_ret(10 * i + 5)
        assert len(prof.frames) == 2
        assert prof.frames_dropped == 1
        assert prof.routines()[100]["calls"] == 3  # aggregates keep counting

    def test_reset_clears_everything(self):
        prof = Profiler()
        prof.on_call(100, 5, 10)
        prof.on_ret(40)
        prof.reset()
        assert prof.frames == [] and prof.total_cycles == 0
        assert prof.routines()[-1] == {"calls": 1, "flat": 0, "cum": 0}


class TestEngineProfileFold:
    def test_hits_and_extras_expand(self):
        ep = EngineProfile()
        static = BlockStatic(((0, "NOP", 1), (1, "BRANCH", 1)), (1,))
        ep.register(0, static)
        ep.counts[0][0] = 3   # three complete executions
        ep.counts[0][1] = 2   # two taken-branch extra cycles overall
        prof = Profiler()
        ep.fold_into(prof)
        assert dict(prof.instruction_counts) == {"NOP": 3, "BRANCH": 3}
        assert dict(prof.cycle_counts) == {"NOP": 3, "BRANCH": 5}
        assert prof.total_instructions == 6
        assert prof.total_cycles == 8
        assert prof.pc_cycles[1] == 5
        # Fold re-arms: a second fold adds nothing.
        ep.fold_into(prof)
        assert prof.total_cycles == 8

    def test_partials_count_completed_prefix(self):
        ep = EngineProfile()
        ep.register(0, BlockStatic(((0, "NOP", 1), (1, "MUL", 2)), ()))
        ep.partials.append((0, 1))  # aborted after the NOP retired
        prof = Profiler()
        ep.fold_into(prof)
        assert dict(prof.instruction_counts) == {"NOP": 1}
        assert prof.total_cycles == 1
        assert ep.partials == []

    def test_events_replay_into_call_stack(self):
        ep = EngineProfile()
        ep.events.append((0, 100, 5, 10))  # call to pc 100 at cycle 10
        ep.events.append((1, 0, 0, 40))    # ret at cycle 40
        prof = Profiler()
        ep.fold_into(prof)
        assert prof.routines()[100]["cum"] == 30
        assert ep.events == []


@pytest.mark.bench
class TestProfiledEngineOverhead:
    """Opt-in (--run-bench): profiling must ride the fast engine, costing
    at most 2x the unprofiled fast engine — not fall back to the ~10x
    slower reference interpreter."""

    @staticmethod
    def _best_ratio(plain_run, profiled_run, reps):
        plain_run()      # warm the block caches before timing
        profiled_run()
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(reps):
                plain_run()
            plain_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(reps):
                profiled_run()
            prof_s = time.perf_counter() - t0
            best = min(best, prof_s / plain_s)
        return best

    def test_table1_kernel_overhead_within_2x(self):
        # The worst case for the fold: a single 620-cycle straight-line
        # kernel, where the per-run fold is the whole overhead.
        source = generate_opf_mul_mac(CONSTANTS)
        plain = build(KernelRunner, source, Mode.ISE, tier="fast")
        profiled = build(KernelRunner, source, Mode.ISE, tier="fast")
        prof = profiled.attach_profiler()
        ratio = self._best_ratio(lambda: plain.run(A, B),
                                 lambda: profiled.run(A, B), reps=200)
        assert ratio <= 2.0, (
            f"profiled fast engine {ratio:.2f}x the unprofiled one")
        reference = KernelRunner(source, Mode.ISE, engine="reference")
        ref_prof = reference.attach_profiler()
        reference.run(A, B)
        assert _tallies(prof) == _tallies(ref_prof)

    def test_ladder_overhead_within_2x(self):
        # The representative workload: ~50 kilocycles per run with real
        # CALL/RET event traffic riding along.
        k = 0xB7
        plain = build(LadderKernel, CONSTANTS, Mode.ISE, scalar_bytes=1,
                      tier="fast")
        profiled = build(LadderKernel, CONSTANTS, Mode.ISE, scalar_bytes=1,
                         tier="fast")
        prof = profiled.attach_profiler()
        ratio = self._best_ratio(lambda: plain.run(k, 9),
                                 lambda: profiled.run(k, 9), reps=5)
        assert ratio <= 2.0, (
            f"profiled fast engine {ratio:.2f}x the unprofiled one")
        reference = LadderKernel(CONSTANTS, Mode.ISE, scalar_bytes=1,
                                 engine="reference")
        ref_prof = reference.attach_profiler()
        reference.run(k, 9)
        assert _tallies(prof) == _tallies(ref_prof)
