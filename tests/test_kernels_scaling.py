"""Generalised kernels: arbitrary OPF sizes and the two MAC schedules.

The paper argues its co-design is 'flexible and scalable' because the
arithmetic is software; these tests pin that down: the same generators emit
correct kernels for 64-256-bit OPFs, and costs scale the way the FIPS
operation counts predict (quadratically for the products, linearly for the
reduction).
"""

import random

import pytest

from repro.avr.timing import Mode
from repro.kernels import (
    KernelRunner,
    OpfConstants,
    generate_modadd,
    generate_modsub,
    generate_opf_mul_comba,
    generate_opf_mul_mac,
)
from repro.mpa import (
    MontgomeryContext,
    fips_montgomery_opf,
    from_words,
    modadd_incomplete,
    modsub_incomplete,
    to_words,
)

#: One 16-bit u per supported size, chosen so p = u * 2^k + 1 need not be
#: prime — the kernels only rely on the low-weight word shape.
SIZES = [(32771, 48), (33003, 80), (40961, 112), (65356, 144),
         (40963, 176), (50001, 208), (60001, 240)]


def _check_mul(constants, runner, rng, trials=15):
    s = constants.num_words
    ctx = MontgomeryContext.create(constants.p)
    r_bound = 1 << constants.bits
    for _ in range(trials):
        a, b = rng.randrange(r_bound), rng.randrange(r_bound)
        got, _ = runner.run(a, b, operand_bytes=constants.operand_bytes)
        expect = from_words(
            fips_montgomery_opf(to_words(a, s), to_words(b, s), ctx)
        )
        assert got == expect, (constants.bits, hex(a), hex(b))


class TestAllSizes:
    @pytest.mark.parametrize("u,k", SIZES, ids=lambda v: str(v))
    def test_addsub(self, u, k):
        constants = OpfConstants(u=u, k=k)
        rng = random.Random(u)
        p, nb = constants.p, constants.operand_bytes
        s = constants.num_words
        pw = to_words(p, s)
        r_bound = 1 << constants.bits
        add = KernelRunner(generate_modadd(constants), Mode.CA)
        sub = KernelRunner(generate_modsub(constants), Mode.CA)
        for _ in range(20):
            a, b = rng.randrange(r_bound), rng.randrange(r_bound)
            got, _ = add.run(a, b, operand_bytes=nb)
            assert got == from_words(
                modadd_incomplete(to_words(a, s), to_words(b, s), pw)
            )
            got, _ = sub.run(a, b, operand_bytes=nb)
            assert got == from_words(
                modsub_incomplete(to_words(a, s), to_words(b, s), pw)
            )

    @pytest.mark.parametrize("u,k", SIZES, ids=lambda v: str(v))
    def test_comba_mul(self, u, k):
        constants = OpfConstants(u=u, k=k)
        runner = KernelRunner(generate_opf_mul_comba(constants), Mode.CA)
        _check_mul(constants, runner, random.Random(u + 1))

    @pytest.mark.parametrize("u,k", SIZES, ids=lambda v: str(v))
    def test_mac_mul(self, u, k):
        constants = OpfConstants(u=u, k=k)
        runner = KernelRunner(generate_opf_mul_mac(constants), Mode.ISE)
        _check_mul(constants, runner, random.Random(u + 2))


class TestScalingShape:
    def test_comba_scales_quadratically(self):
        """CA multiplication cycles track the s^2 + s word-mul count."""
        cycles = {}
        for u, k in SIZES:
            constants = OpfConstants(u=u, k=k)
            runner = KernelRunner(generate_opf_mul_comba(constants), Mode.CA)
            _, cyc = runner.run(3, 5, operand_bytes=constants.operand_bytes)
            cycles[constants.num_words] = cyc
        for s in cycles:
            per_op = cycles[s] / (s * s + s)
            assert 100 < per_op < 160, (s, per_op)  # ~cycles per word-MAC

    def test_mac_advantage_grows_with_size(self):
        """The ISE speed-up factor grows with the operand length (more of
        the work is multiplications the MAC absorbs)."""
        ratios = []
        for u, k in [(40961, 112), (65356, 144), (60001, 240)]:
            constants = OpfConstants(u=u, k=k)
            nb = constants.operand_bytes
            ca = KernelRunner(generate_opf_mul_comba(constants),
                              Mode.CA).run(7, 9, operand_bytes=nb)[1]
            ise = KernelRunner(generate_opf_mul_mac(constants),
                               Mode.ISE).run(7, 9, operand_bytes=nb)[1]
            ratios.append(ca / ise)
        assert ratios == sorted(ratios)
        assert ratios[-1] > 6.0

    def test_addition_scales_linearly(self):
        cycles = {}
        for u, k in SIZES:
            constants = OpfConstants(u=u, k=k)
            runner = KernelRunner(generate_modadd(constants), Mode.CA)
            _, cyc = runner.run(1, 2, operand_bytes=constants.operand_bytes)
            cycles[constants.operand_bytes] = cyc
        small = [n for n in cycles if n <= 20]
        for n in small:
            assert 6 * n < cycles[n] < 12 * n + 60, (n, cycles[n])


class TestMacSchedules:
    def test_optimized_beats_plain(self):
        constants = OpfConstants(u=65356, k=144)
        plain = KernelRunner(generate_opf_mul_mac(constants, optimized=False),
                             Mode.ISE)
        opt = KernelRunner(generate_opf_mul_mac(constants, optimized=True),
                           Mode.ISE)
        _, plain_cycles = plain.run(123, 456)
        _, opt_cycles = opt.run(123, 456)
        assert opt_cycles < plain_cycles
        # Paper: 552 with a conditional final subtraction; the branchless
        # constant-time subtraction walk (DESIGN.md par.9) costs ~30 extra
        # cycles on top of the scheduling overhead.
        assert opt_cycles <= 670

    def test_schedules_agree_on_values(self):
        constants = OpfConstants(u=65356, k=144)
        rng = random.Random(99)
        plain = KernelRunner(generate_opf_mul_mac(constants, optimized=False),
                             Mode.ISE)
        opt = KernelRunner(generate_opf_mul_mac(constants, optimized=True),
                           Mode.ISE)
        for _ in range(25):
            a, b = rng.getrandbits(160), rng.getrandbits(160)
            assert plain.run(a, b)[0] == opt.run(a, b)[0]

    def test_optimized_mix_is_movw_heavy(self):
        """The prefetch schedule reproduces the paper's MOVW-rich mix."""
        constants = OpfConstants(u=65356, k=144)
        runner = KernelRunner(generate_opf_mul_mac(constants), Mode.ISE)
        profiler = runner.attach_profiler()
        runner.run(11, 13)
        mix = profiler.mix()
        assert mix["MOVW"] >= 60        # paper: 83
        assert mix["NOP"] <= 80         # paper: 31; plain schedule: 150
        assert mix["LDD"] + mix.get("LD", 0) >= 200  # paper: 204 loads

    def test_both_schedules_hazard_free(self):
        """Neither schedule trips the MAC hazard checker."""
        constants = OpfConstants(u=65356, k=144)
        for optimized in (False, True):
            runner = KernelRunner(
                generate_opf_mul_mac(constants, optimized=optimized),
                Mode.ISE,
            )
            runner.run(0xFFFF_FFFF, 0xFFFF_FFFF)  # would raise on a hazard
