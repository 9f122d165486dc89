"""Ablation: why FIPS + OPF?  (the paper's core algorithmic design choice)

Compares the Montgomery-multiplication organisations (SOS / CIOS / FIPS /
OPF-FIPS) by word-multiplication count and by priced AVR cycles, plus the
OPF-vs-generalized-Mersenne reduction contrast the paper draws in
Section II-A.  Output: ``_output/ablation_montgomery_methods.txt``.
"""

import pytest

from conftest import save_table
from repro.avr.timing import Mode
from repro.kernels import KernelRunner, OpfConstants, generate_opf_mul_comba
from repro.mpa import (
    MontgomeryContext,
    WordOpCounter,
    cios_montgomery,
    fips_montgomery,
    fips_montgomery_opf,
    sos_montgomery,
    to_words,
)

P = 65356 * (1 << 144) + 1
CTX = MontgomeryContext.create(P)

METHODS = [
    ("SOS", sos_montgomery),
    ("CIOS", cios_montgomery),
    ("FIPS", fips_montgomery),
    ("FIPS-OPF", fips_montgomery_opf),
]


def _measured_block_cycles_ca() -> float:
    """Measured CA cycles of one 32x32 MAC block: the CA Comba kernel's
    cycles on the ISS divided by its 30 blocks."""
    constants = OpfConstants(u=65356, k=144)
    runner = KernelRunner(generate_opf_mul_comba(constants), Mode.CA)
    _, cycles = runner.run(pow(3, 77, P), pow(5, 91, P))
    return cycles / 30.0


BLOCK_CYCLES_CA = _measured_block_cycles_ca()


def _count(fn):
    counter = WordOpCounter()
    fn(to_words(0xAAAA, 5), to_words(0x5555, 5), CTX, counter)
    return counter


class TestMethodComparison:
    def test_word_mul_counts(self, benchmark, output_dir):
        def measure():
            return {name: _count(fn).mul for name, fn in METHODS}

        counts = benchmark(measure)
        assert counts["SOS"] == counts["CIOS"] == counts["FIPS"] == 55
        assert counts["FIPS-OPF"] == 30
        lines = ["Montgomery multiplication organisations (s = 5 words):",
                 f"{'method':<10}{'word muls':>10}{'est CA cycles':>16}"]
        for name, muls in counts.items():
            lines.append(f"{name:<10}{muls:>10}"
                         f"{muls * BLOCK_CYCLES_CA:>16,.0f}")
        lines.append("")
        lines.append("The OPF low-weight prime halves the multiplication "
                     "count (2s^2+s -> s^2+s),")
        lines.append("which is the paper's reason for pairing OPFs with "
                     "the MAC unit.")
        save_table(output_dir, "ablation_montgomery_methods.txt",
                   "\n".join(lines))

    def test_opf_reduction_is_linear(self, benchmark):
        def overhead():
            from repro.mpa import mul_product_scanning

            counter = WordOpCounter()
            mul_product_scanning(to_words(3, 5), to_words(5, 5),
                                 counter=counter)
            product_only = counter.mul
            return _count(fips_montgomery_opf).mul - product_only

        extra = benchmark(overhead)
        assert extra == 5  # exactly s extra word muls (paper Section III-B)

    def test_python_throughput(self, benchmark):
        """Wall-clock sanity: the OPF variant is also the fastest in the
        Python model (fewer big-int ops)."""
        a = to_words(0x1234567890ABCDEF, 5)
        b = to_words(0xFEDCBA0987654321, 5)

        result = benchmark(fips_montgomery_opf, a, b, CTX)
        assert result is not None
