"""Instruction-mix, hotspot and call-stack profiling.

The paper breaks its 552-cycle ISE multiplication down by instruction type
(204 loads of which 100 trigger MACs, 40 stores, 83 MOVW, 40 SWAP, 31 NOP).
Attaching a :class:`Profiler` to a core produces the same kind of breakdown
for our kernels — plus a per-PC hotspot table and CALL/RCALL/ICALL-RET
call-stack attribution (flat and cumulative cycles per assembly routine,
with flame-graph-shaped folded stacks).

Two producers feed the same :class:`Profiler`:

* the reference interpreter (:meth:`repro.avr.core.AvrCore.step`) records
  every retired instruction directly, and
* the block-compiling fast engine records per-*block* execution counts into
  an :class:`EngineProfile` (its compiled closures carry the bookkeeping as
  a couple of integer increments per block) which
  :meth:`EngineProfile.fold_into` expands into identical per-group,
  per-PC and per-routine tallies after the run.

The parity tests assert both producers yield the same numbers.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .isa import InstructionSpec

#: Collapse addressing-mode variants into the display groups the paper uses.
_GROUPS = {
    "LD_X": "LD", "LD_XP": "LD", "LD_MX": "LD",
    "LD_YP": "LD", "LD_MY": "LD", "LD_ZP": "LD", "LD_MZ": "LD",
    "LDD_Y": "LDD", "LDD_Z": "LDD", "LDS": "LDS",
    "ST_X": "ST", "ST_XP": "ST", "ST_MX": "ST",
    "ST_YP": "ST", "ST_MY": "ST", "ST_ZP": "ST", "ST_MZ": "ST",
    "STD_Y": "STD", "STD_Z": "STD", "STS": "STS",
    "BRBS": "BRANCH", "BRBC": "BRANCH",
}


def group_of(name: str) -> str:
    """The display group a mnemonic is tallied under."""
    return _GROUPS.get(name, name)


class SymbolIndex:
    """Nearest-symbol lookup over an assembler label table.

    Shared by the profiler's routine attribution and the constant-time
    checker's violation reports (:mod:`repro.avr.taint`): ``name_for``
    returns the nearest label at or below a PC (``name+0xN`` for interior
    addresses, ``sub_0x......`` when no table is installed).
    """

    def __init__(self, symbols: Optional[Dict[str, int]] = None):
        self._index: List[Tuple[int, str]] = []
        if symbols:
            self.set_symbols(symbols)

    def set_symbols(self, symbols: Dict[str, int]) -> None:
        self._index = sorted((addr, name) for name, addr in symbols.items())

    def name_for(self, pc: int) -> str:
        """Best label for *pc*: the nearest symbol at or below it."""
        if self._index:
            i = bisect.bisect_right(self._index, (pc, "￿")) - 1
            if i >= 0:
                addr, name = self._index[i]
                if addr == pc:
                    return name
                return f"{name}+{pc - addr:#x}"
        return f"sub_{pc:#06x}"


#: Instruction semantics that open / close a call frame.
CALL_SEMS = frozenset({"rcall", "call", "icall"})
RET_SEMS = frozenset({"ret", "reti"})

#: Upper bound on retained call frames (Chrome export memory safety); the
#: aggregate routine tables keep counting past it.
MAX_FRAMES = 200_000


@dataclass
class Profiler:
    """Counts retired instructions/cycles per group, PC and call frame."""

    instruction_counts: Counter = field(default_factory=Counter)
    cycle_counts: Counter = field(default_factory=Counter)
    total_instructions: int = 0
    total_cycles: int = 0
    #: Per-PC hotspot tallies (word address -> retired count / cycles).
    pc_counts: Counter = field(default_factory=Counter)
    pc_cycles: Counter = field(default_factory=Counter)
    #: Closed call frames as ``(entry_pc, start_cycle, end_cycle, depth)``,
    #: in close order, capped at :data:`MAX_FRAMES`.
    frames: List[Tuple[int, int, int, int]] = field(default_factory=list)
    frames_dropped: int = 0
    #: Label -> word address, used to name routines (set via
    #: :meth:`set_symbols`; kernel harnesses pass their assembler symbols).
    symbols: Optional[Dict[str, int]] = None

    def __post_init__(self) -> None:
        # Live call stack: [entry_pc, start_cycle, child_cycles].
        self._stack: List[List[int]] = []
        self._flat: Counter = Counter()       # entry_pc -> flat cycles
        self._cum: Counter = Counter()        # entry_pc -> cumulative cycles
        self._calls: Counter = Counter()      # entry_pc -> invocation count
        self._folded: Counter = Counter()     # tuple(entry pcs) -> flat cyc
        self._toplevel_cycles = 0             # cycles inside top-level calls
        self._index = SymbolIndex(self.symbols)

    # -- configuration -------------------------------------------------------

    def set_symbols(self, symbols: Dict[str, int]) -> None:
        """Install an assembler symbol table for routine naming."""
        self.symbols = dict(symbols)
        self._index.set_symbols(self.symbols)

    def name_for(self, pc: int) -> str:
        """Best label for *pc*: the nearest symbol at or below it."""
        return self._index.name_for(pc)

    # -- recording (reference interpreter and engine fold) -------------------

    def record(self, spec: InstructionSpec, cycles: int,
               pc: Optional[int] = None) -> None:
        group = _GROUPS.get(spec.name, spec.name)
        self.instruction_counts[group] += 1
        self.cycle_counts[group] += cycles
        self.total_instructions += 1
        self.total_cycles += cycles
        if pc is not None:
            self.pc_counts[pc] += 1
            self.pc_cycles[pc] += cycles

    def on_call(self, target_pc: int, return_pc: int, cycles: int) -> None:
        """A call instruction retired; *cycles* is the core's cycle count
        just after it (the callee's frame starts there)."""
        self._stack.append([target_pc, cycles, 0])

    def on_ret(self, cycles: int) -> None:
        """A return retired at core cycle count *cycles*."""
        if not self._stack:
            return  # RET without a profiled CALL (e.g. mid-run attach)
        entry_pc, start, child = self._stack.pop()
        total = max(0, cycles - start)
        flat = max(0, total - child)
        self._flat[entry_pc] += flat
        self._cum[entry_pc] += total
        self._calls[entry_pc] += 1
        path = tuple(f[0] for f in self._stack) + (entry_pc,)
        self._folded[path] += flat
        if self._stack:
            self._stack[-1][2] += total
        else:
            self._toplevel_cycles += total
        if len(self.frames) < MAX_FRAMES:
            self.frames.append((entry_pc, start, cycles, len(self._stack)))
        else:
            self.frames_dropped += 1

    def finish(self, cycles: int) -> None:
        """Close frames still open at the end of a run (e.g. after BREAK)."""
        while self._stack:
            self.on_ret(cycles)

    def reset(self) -> None:
        self.instruction_counts.clear()
        self.cycle_counts.clear()
        self.total_instructions = 0
        self.total_cycles = 0
        self.pc_counts.clear()
        self.pc_cycles.clear()
        self.frames.clear()
        self.frames_dropped = 0
        self._stack.clear()
        self._flat.clear()
        self._cum.clear()
        self._calls.clear()
        self._folded.clear()
        self._toplevel_cycles = 0

    # -- reports -------------------------------------------------------------

    def mix(self) -> Dict[str, int]:
        """Instruction counts sorted by frequency (descending)."""
        return dict(self.instruction_counts.most_common())

    def report(self) -> str:
        lines = [f"{'group':<8}{'count':>8}{'cycles':>8}"]
        for group, count in self.instruction_counts.most_common():
            lines.append(
                f"{group:<8}{count:>8}{self.cycle_counts[group]:>8}"
            )
        lines.append(
            f"{'total':<8}{self.total_instructions:>8}{self.total_cycles:>8}"
        )
        return "\n".join(lines)

    def hotspots(self, limit: int = 10) -> List[Tuple[int, int, int]]:
        """Top PCs by cycles as ``(pc, cycles, count)`` rows."""
        return [(pc, cyc, self.pc_counts[pc])
                for pc, cyc in self.pc_cycles.most_common(limit)]

    def routines(self) -> Dict[int, Dict[str, int]]:
        """Flat/cumulative cycle attribution per called routine.

        The implicit top-level frame (everything outside any CALL) appears
        under pc ``-1``; recursive routines double-count in ``cum`` (the
        classic gprof caveat — irrelevant for the non-recursive kernels).
        """
        table: Dict[int, Dict[str, int]] = {}
        for pc in self._cum:
            table[pc] = {"calls": self._calls[pc],
                         "flat": self._flat[pc],
                         "cum": self._cum[pc]}
        table[-1] = {"calls": 1,
                     "flat": max(0, self.total_cycles
                                 - self._toplevel_cycles),
                     "cum": self.total_cycles}
        return table

    def routine_report(self, limit: int = 20) -> str:
        """The flat+cumulative table, named through the symbol table."""
        rows = sorted(self.routines().items(),
                      key=lambda kv: kv[1]["cum"], reverse=True)
        lines = [f"{'routine':<24}{'calls':>8}{'flat cyc':>12}"
                 f"{'cum cyc':>12}{'cum %':>8}"]
        total = max(1, self.total_cycles)
        for pc, row in rows[:limit]:
            name = "(top)" if pc == -1 else self.name_for(pc)
            lines.append(f"{name:<24}{row['calls']:>8}{row['flat']:>12}"
                         f"{row['cum']:>12}{100 * row['cum'] / total:>7.1f}%")
        return "\n".join(lines)

    def folded_stacks(self) -> List[str]:
        """Flame-graph-shaped output: ``main;callee;... flat_cycles``.

        Feed directly to ``flamegraph.pl`` or any folded-stack renderer.
        """
        lines = []
        top_flat = max(0, self.total_cycles - self._toplevel_cycles)
        if top_flat:
            lines.append(f"main {top_flat}")
        for path, flat in sorted(self._folded.items()):
            if not flat:
                continue
            names = ";".join(self.name_for(pc) for pc in path)
            lines.append(f"main;{names} {flat}")
        return lines


# ---------------------------------------------------------------------------
# Fast-engine accumulation
# ---------------------------------------------------------------------------


class BlockStatic:
    """Compile-time profile of one basic block (shared via the block cache).

    ``instrs`` lists ``(pc, group, base_cycles)`` per instruction;
    ``sites`` maps each dynamic-extra site (taken branch or skip)
    to the index of the instruction it belongs to.  The per-group and
    per-PC aggregates are precomputed here so the per-run fold is a
    handful of ``Counter.update`` calls (C-speed dict merges) instead of
    a Python loop over every instruction — this is what keeps profiled
    runs of short, straight-line kernels within the documented 2x of the
    unprofiled fast engine.
    """

    __slots__ = ("instrs", "sites", "group_counts", "group_cycles",
                 "pc_counts", "pc_cycles", "n_instrs", "base_cycles")

    def __init__(self, instrs: Tuple[Tuple[int, str, int], ...],
                 sites: Tuple[int, ...]):
        self.instrs = instrs
        self.sites = sites
        group_counts: Dict[str, int] = {}
        group_cycles: Dict[str, int] = {}
        pc_counts: Dict[int, int] = {}
        pc_cycles: Dict[int, int] = {}
        total = 0
        for pc, group, cyc in instrs:
            group_counts[group] = group_counts.get(group, 0) + 1
            group_cycles[group] = group_cycles.get(group, 0) + cyc
            pc_counts[pc] = pc_counts.get(pc, 0) + 1
            pc_cycles[pc] = pc_cycles.get(pc, 0) + cyc
            total += cyc
        self.group_counts = group_counts
        self.group_cycles = group_cycles
        self.pc_counts = pc_counts
        self.pc_cycles = pc_cycles
        self.n_instrs = len(instrs)
        self.base_cycles = total


class EngineProfile:
    """Raw per-block tallies filled in by profiled compiled blocks.

    Per block start PC one mutable list ``[hits, ext_0, ext_1, ...]``: the
    closure bumps ``hits`` once per complete execution and adds dynamic
    extra *cycles* into its site slots inline.  Executions aborted by an
    exception append ``(start_pc, completed_instructions)`` to
    ``partials``; call/return terminators append ``(kind, target,
    return_pc, cycle)`` events.  :meth:`fold_into` expands everything into
    a :class:`Profiler` and re-arms the arrays, so folding is incremental
    across multiple ``run()`` calls.
    """

    def __init__(self):
        self.counts: Dict[int, List[int]] = {}
        self.statics: Dict[int, BlockStatic] = {}
        self.partials: List[Tuple[int, int]] = []
        #: (0=call, 1=ret, target_pc, return_pc, cycle_count) events.
        self.events: List[Tuple[int, int, int, int]] = []

    def register(self, start_pc: int, static: BlockStatic) -> None:
        """Arm the counters for a (re)compiled block."""
        self.statics[start_pc] = static
        self.counts[start_pc] = [0] * (1 + len(static.sites))

    def fold_into(self, profiler: Profiler) -> None:
        """Expand raw block tallies into *profiler* and zero them."""
        for start_pc, cnt in self.counts.items():
            static = self.statics[start_pc]
            hits = cnt[0]
            if hits:
                if hits == 1:
                    profiler.instruction_counts.update(static.group_counts)
                    profiler.cycle_counts.update(static.group_cycles)
                    profiler.pc_counts.update(static.pc_counts)
                    profiler.pc_cycles.update(static.pc_cycles)
                else:
                    profiler.instruction_counts.update(
                        {g: c * hits
                         for g, c in static.group_counts.items()})
                    profiler.cycle_counts.update(
                        {g: c * hits
                         for g, c in static.group_cycles.items()})
                    profiler.pc_counts.update(
                        {pc: c * hits
                         for pc, c in static.pc_counts.items()})
                    profiler.pc_cycles.update(
                        {pc: c * hits
                         for pc, c in static.pc_cycles.items()})
                profiler.total_instructions += static.n_instrs * hits
                profiler.total_cycles += static.base_cycles * hits
                cnt[0] = 0
            for j, instr_index in enumerate(static.sites):
                ext = cnt[1 + j]
                if ext:
                    pc, group, _ = static.instrs[instr_index]
                    profiler.cycle_counts[group] += ext
                    profiler.pc_cycles[pc] += ext
                    profiler.total_cycles += ext
                    cnt[1 + j] = 0
        for start_pc, completed in self.partials:
            static = self.statics.get(start_pc)
            if static is None:
                continue
            for pc, group, cyc in static.instrs[:completed]:
                profiler.instruction_counts[group] += 1
                profiler.cycle_counts[group] += cyc
                profiler.pc_counts[pc] += 1
                profiler.pc_cycles[pc] += cyc
                profiler.total_instructions += 1
                profiler.total_cycles += cyc
        self.partials.clear()
        for kind, target, return_pc, cycle in self.events:
            if kind == 0:
                profiler.on_call(target, return_pc, cycle)
            else:
                profiler.on_ret(cycle)
        self.events.clear()
