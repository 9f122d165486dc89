"""Drift gate: the quoted measured cycle counts match a fresh measurement.

The committed ``benchmarks/_output/`` tables, README and EXPERIMENTS.md
quote the ISS cycle counts of the 160-bit ladder (CA, FAST, ISE) and of
the Table I field kernels.  Those numbers are exact and deterministic, so
any kernel change that moves them must regenerate the outputs
(``pytest benchmarks --benchmark-disable``) and fix the quoted text in
the same change.  This test re-measures them on the simulator and fails
on the first stale quote.

Time budget: the ISE ladder (the headline number) runs in full on the
default superblock dispatcher.  Compiling superblocks for the unrolled
CA/FAST Comba bodies costs seconds per mode, so those two ladders are
measured at 1- and 2-byte scalars on the core's basic-block rung (cycle-
identical to every other tier by the parity suites) and extrapolated:
the masked ladder is constant-time with a fixed per-byte bit loop, so its
cycles are exactly affine in the scalar length.  ``test_measured_ladder``
in ``benchmarks/`` measures the full 20-byte ladders directly, and this
test compares against its committed output, so a broken extrapolation
would fail loudly rather than hide drift.
"""

import pathlib
import re

import pytest

from repro.analysis import generate_table1
from repro.analysis.tables import measure_kernel_cycles
from repro.avr.timing import Mode
from repro.kernels import LadderKernel, OpfConstants
from repro.model.paper_data import TABLE1_RUNTIMES, table3_row

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "benchmarks" / "_output"
MODES = ("CA", "FAST", "ISE")
#: The fixed full-length scalar of ``benchmarks/test_measured_ladder.py``
#: (the ladder is constant-cycle, so any scalar measures the same).
SCALAR = 0xB3A5C99D06A1527E4D5EF9232D8F1C07355A9E11


def _read(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8")


def _pct(measured: int, paper: int) -> str:
    """A signed delta as the docs print it: ``+14.0%`` / ``−10.9%``."""
    delta = 100 * (measured / paper - 1)
    return f"{'+' if delta >= 0 else '−'}{abs(delta):.1f}%"


def _short_ladder_cycles(constants, mode: Mode, scalar_bytes: int) -> int:
    kernel = LadderKernel(constants, mode, scalar_bytes=scalar_bytes)
    kernel.load_operands(SCALAR % (1 << (8 * scalar_bytes)), 9)
    return kernel.core.fast_engine.run()


@pytest.fixture(scope="module")
def ladder_cycles():
    constants = OpfConstants(u=65356, k=144)
    out = {"ISE": LadderKernel(constants, Mode.ISE).run(SCALAR, 9)[2]}
    for mode in ("CA", "FAST"):
        one, two = (_short_ladder_cycles(constants, Mode(mode), n)
                    for n in (1, 2))
        out[mode] = two + 18 * (two - one)
    return out


@pytest.fixture(scope="module")
def kernel_cycles():
    return measure_kernel_cycles()


def _paper_ladder(mode: str) -> int:
    return table3_row("montgomery", mode).point_mult_cycles


class TestCommittedOutputs:
    def test_measured_ladder_table(self, ladder_cycles):
        text = _read(OUTPUT / "measured_ladder.txt")
        for mode in MODES:
            cycles, paper = ladder_cycles[mode], _paper_ladder(mode)
            row = (f"{mode:<6}{cycles:>12,}{paper:>12,}"
                   f"{100 * (cycles / paper - 1):>8.1f}%")
            assert row in text.splitlines(), row
        speedup = ladder_cycles["CA"] / ladder_cycles["ISE"]
        assert f"speed-up: {speedup:.2f}x" in text

    def test_per_mode_ladder_files(self, ladder_cycles):
        for mode in MODES:
            text = _read(OUTPUT / f"measured_ladder_{mode.lower()}.txt")
            assert f"  cycles        : {ladder_cycles[mode]:,}" in text

    def test_table1(self, kernel_cycles):
        # generate_table1 re-measures every kernel on the ISS (the
        # kernel_cycles fixture has compiled them once already).
        assert _read(OUTPUT / "table1.txt") == \
            generate_table1().render() + "\n"


class TestQuotedText:
    def test_experiments_flagship_table(self, ladder_cycles):
        text = _read(ROOT / "EXPERIMENTS.md")
        for mode in MODES:
            cycles, paper = ladder_cycles[mode], _paper_ladder(mode)
            row = f"| {mode} | {cycles:,} | {paper:,} | {_pct(cycles, paper)} |"
            assert row in text, row
        speedup = ladder_cycles["CA"] / ladder_cycles["ISE"]
        assert f"CA→ISE speed-up {speedup:.2f}×" in text

    def test_experiments_table1_rows(self, kernel_cycles):
        text = _read(ROOT / "EXPERIMENTS.md")
        rows = re.findall(
            r"^\| (addition|subtraction|multiplication) \| (CA|FAST|ISE) "
            r"\| ([\d,]+) \| ([\d,]+) \| ([^|]+) \|$", text, re.M)
        assert {(op, mode) for op, mode, *_ in rows} >= {
            ("multiplication", m) for m in MODES}
        for op, mode, measured, paper, delta in rows:
            cycles = kernel_cycles[op][mode]
            assert int(paper.replace(",", "")) == TABLE1_RUNTIMES[op][mode]
            assert (measured, delta.strip()) == (
                f"{cycles:,}", _pct(cycles, TABLE1_RUNTIMES[op][mode])), \
                (op, mode)

    def test_readme_ladder_quotes(self, ladder_cycles):
        text = _read(ROOT / "README.md")
        ise = ladder_cycles["ISE"]
        row = (f"| Measured 160-bit ladder (ISE) | "
               f"{_paper_ladder('ISE'):,} cycles | {ise:,} cycles |")
        assert row in text, row
        speedup = ladder_cycles["CA"] / ladder_cycles["ISE"]
        assert f"{speedup:.2f}× (measured ladder)" in text
        # The `profile ladder` example: the (top) frame's cumulative
        # cycles are the whole ISE ladder.
        top = re.search(r"^\(top\)\s+1\s+\d+\s+(\d+)\s+100\.0%$", text,
                        re.M)
        assert top is not None and int(top.group(1)) == ise
