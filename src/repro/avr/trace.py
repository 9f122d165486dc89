"""The superblock dispatcher behind :meth:`AvrCore.run`.

The block-compiling fast engine (:mod:`repro.avr.engine`) stops every
compiled run at the first control transfer, so a measured kernel — a
straight-line multiplication body behind an ``RCALL``, a ladder step of a
dozen subroutine calls — re-enters the dispatcher thousands of times per
run and keeps every register in the ``bytearray`` backing the data space.
This module compiles **superblocks** instead: maximal straight-line paths
stitched *across* CALL/RET and fall-through boundaries, specialised into a
single Python function per entry point.

What a superblock buys over a basic block:

* **Registers live in Python locals** for the whole path.  Every ``m[17]``
  subscript of the fast engine becomes a ``LOAD_FAST``; the register file
  is read once in the prologue and written back once at each exit.  (In
  ISE mode R0..R8 stay in memory — they *are* the MAC accumulator, and the
  accumulator flush writes ``m[0:9]``.)
* **Dead SREG flags are elided.**  A backward liveness pass over the whole
  path finds flag bits that are overwritten before any possible reader
  (``BRxx``, ``ADC``/``SBC``/``ROR``, ``BLD``, ``IN 0x3F``) or exit; the
  per-instruction flag equations are only emitted for live bits.  In the
  unrolled carry chains of the field kernels this removes most of the
  H/S/V/N computations, which dominate the fast engine's per-ALU-op cost.
* **Control flow is predicted statically** and compiled out: CALL pushes
  its return address and falls through into the callee, RET is guarded
  against the compile-time return address, backward conditional branches
  are predicted taken, forward branches and skips predicted not taken.
  The unpredicted arm of every guard is a **side exit** that synchronises
  the architectural state and returns to the dispatcher.
* **No per-instruction I/O checks.**  Instructions that reach the I/O
  space or hooked addresses (``IN``/``OUT`` except SREG, ``SBI``/``CBI``/
  ``SBIC``/``SBIS``, out-of-SRAM ``LDS``/``STS``) terminate the superblock
  *before* they execute; indirect memory traffic carries a single bounds
  test (the same test the fast engine pays) that doubles as the side exit.
  Inside a superblock, memory-mapped I/O is therefore provably untouched.
* The MAC nibble queue of ISE mode is inlined exactly as in the fast
  engine (the emitters are shared), with the pending-drain schedule woven
  through the stitched path.

Fallback ladder (the tier is legal only when its guards hold):

* ``core.program.version`` is checked on every dispatch — a flash write
  invalidates all superblocks before the next one runs.
* An attached profiler delegates the whole run to :class:`FastEngine`,
  which carries exact per-block tallies; taint tracking and fault
  injection drive the core's :attr:`~AvrCore.fast_engine` / reference
  stepping themselves.
* A PC whose first instruction is ineligible (I/O escape, illegal opcode)
  executes one reference :meth:`AvrCore.step` — hooks and exceptions
  behave exactly as in the interpreter.

Exactness contract: identical to the fast engine's — registers, SRAM,
SREG, PC, cycle count, retired-instruction count and exception behaviour
match the reference interpreter bit for bit.  ``tests/test_avr_trace.py``
asserts this three ways (directed kernels, SREG liveness property tests,
forced mid-superblock fallbacks) and ``tests/test_avr_fuzz.py`` runs the
three-way differential fuzz (reference, fast engine, superblocks).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import METRICS
from .encoding import sign_extend
from .isa import InstructionSpec, instruction_words
from .mac import _LOAD_NAMES, MacHazardError, conflicts_with_mac
from .timing import Mode, base_cycles
from .engine import (
    _ACC_MASK,
    _INDIRECT,
    _Gen,
    _emit_instruction,
    _emit_pop_return,
    _emit_push_return,
    _touched_regs,
)

__all__ = ["TraceEngine", "compile_superblock", "MAX_TRACE_INSTRUCTIONS"]

_M_COMPILED = METRICS.counter(
    "avr_superblocks_compiled", "superblocks compiled to closures")
_M_CACHE_HITS = METRICS.counter(
    "avr_superblock_cache_hits", "superblocks served from the global cache")

#: Superblock length cap.  Large enough to swallow a full unrolled field
#: multiplication behind its CALL; small enough to keep single-function
#: compile latency in the tens of milliseconds.
MAX_TRACE_INSTRUCTIONS = 2400

#: Compile-time return-address stack depth for CALL/RET stitching.
_MAX_CALL_DEPTH = 64


class _SideExit(Exception):
    """Internal: a superblock guard failed; state is synced by the handler."""


#: Semantics that may exit or raise *before* their architectural writes
#: commit (memory-bounds side exits, stack traffic, flash reads) — full
#: SREG liveness is required on entry to them.
_PRECHECK_SEMS = frozenset(_INDIRECT) | frozenset({
    "ldd_y", "ldd_z", "std_y", "std_z", "push", "pop",
    "rcall", "call", "icall", "ret", "reti",
    "lpm_r0", "lpm_z", "lpm_zp",
})

#: SREG bits architecturally written per semantics (full layout:
#: C=0x01 Z=0x02 N=0x04 V=0x08 S=0x10 H=0x20 T=0x40 I=0x80).
_SREG_WRITES = {
    "add": 0x3F, "adc": 0x3F, "sub": 0x3F, "sbc": 0x3F, "subi": 0x3F,
    "sbci": 0x3F, "cp": 0x3F, "cpc": 0x3F, "cpi": 0x3F, "neg": 0x3F,
    "adiw": 0x1F, "sbiw": 0x1F,
    "and": 0x1E, "andi": 0x1E, "or": 0x1E, "ori": 0x1E, "eor": 0x1E,
    "inc": 0x1E, "dec": 0x1E,
    "com": 0x1F, "lsr": 0x1F, "ror": 0x1F, "asr": 0x1F,
    "mul": 0x03, "muls": 0x03, "mulsu": 0x03,
    "fmul": 0x03, "fmuls": 0x03, "fmulsu": 0x03,
    "bst": 0x40, "reti": 0x80,
}


def _sreg_rw(sem: str, ops: dict) -> Tuple[int, int]:
    """(reads, writes) SREG bit masks of one instruction."""
    reads = 0
    if sem in ("adc", "ror"):
        reads = 0x01
    elif sem in ("sbc", "sbci", "cpc"):
        reads = 0x03  # borrow in, and Z is kept (multi-byte compares)
    elif sem == "bld":
        reads = 0x40
    elif sem in ("brbs", "brbc"):
        reads = 1 << ops["s"]
    elif sem == "in" and ops.get("A") == 0x3F:
        reads = 0xFF
    if sem in ("bset", "bclr"):
        writes = 1 << ops["s"]
    elif sem == "out" and ops.get("A") == 0x3F:
        writes = 0xFF
    else:
        writes = _SREG_WRITES.get(sem, 0)
    return reads, writes


def _is_escape(spec: InstructionSpec, ops: dict, size: int) -> bool:
    """Would this instruction reach I/O hooks / non-SRAM constant space?

    Such instructions terminate the superblock: the dispatcher executes
    them on the reference interpreter, where every hook semantics holds.
    LPM is escaped too — its flash read is the one in-superblock operation
    that could raise from an uncontrolled site, and the static MAC/pointer
    state fixups below are only emitted at explicit exit sites.
    """
    sem = spec.semantics
    if sem in ("sbi", "cbi", "sbic", "sbis"):
        return True
    if sem in ("in", "out"):
        return ops["A"] != 0x3F
    if sem in ("lds", "sts"):
        return not (0x5F < ops["k"] < size)
    if sem in ("lpm_r0", "lpm_z", "lpm_zp"):
        return True
    return False


def _flag_liveness(items: List[tuple], mode: Mode,
                   exit_ics: Optional[set] = None) -> List[int]:
    """Backward SREG liveness: the live-bit mask *after* each trace index.

    Every potential exporter of SREG forces full liveness: side-exit arms
    and RET guards export after their instruction retires; instructions
    that can exit or raise *before* committing export ahead of themselves.
    Without *exit_ics* every prechecked / MAC-hazard-candidate semantics
    is assumed to be such an exporter; with it (the second compilation
    pass) only the instruction indices that actually emitted an exit or
    raise site — hoisted epoch guards, residual inline bounds tests,
    unconditional hazard raises — count, which strips the flag
    materialisation the memory traffic of the first pass forced.
    """
    ise = mode is Mode.ISE
    n = len(items)
    live = [0xFF] * n
    cur = 0xFF  # liveness at the superblock end (the epilogue exports SREG)
    for i in range(n - 1, -1, -1):
        _, spec, ops, flow = items[i]
        if flow[0] in ("branch", "skip", "ret"):
            cur = 0xFF  # the unpredicted arm / guard mismatch side-exits
        live[i] = cur
        reads, writes = _sreg_rw(spec.semantics, ops)
        cur = (cur & ~writes & 0xFF) | reads
        if exit_ics is not None:
            if i in exit_ics:
                cur = 0xFF  # a real pre-instruction exit/raise site
        elif spec.semantics in _PRECHECK_SEMS or (
                ise and conflicts_with_mac(spec.name, ops)):
            cur = 0xFF  # potential pre-instruction exit/raise site
    return live


class _TraceGen(_Gen):
    """Code generator specialising the fast-engine emitters to a superblock.

    Retargets registers to locals, intersects flag materialisation with the
    liveness pass, turns memory bounds checks into side exits and — the big
    ISE win — evaluates the whole MAC nibble-queue evolution at compile
    time.  Along a straight-line path the queue is deterministic: pushes
    happen at trigger loads (``load_enabled`` cannot change inside a
    superblock, because ``OUT MACCR`` is an I/O escape), drains consume
    ``min(cycles, pre-pending)`` per instruction, and hazard verdicts
    follow from the queue length.  Given the entry state ``(pending length,
    load_enabled, swap_enabled)`` — part of the superblock key — every
    ``if pl:`` / ``if dirty:`` / ``if not mok:`` test of the fast engine
    becomes either nothing or an unconditional statement.
    """

    def __init__(self, mode: Mode, size: int,
                 pcs: List[int], live: List[int],
                 mac_entry: Optional[tuple]):
        super().__init__(mode, size, profiled=False)
        self._pcs = pcs
        self._live = live
        self.rused: set = set()
        self.rwritten: set = set()
        self.sp_used = False
        self.sp_written = False
        self._region_start = 0
        # Lowest promoted register: ISE keeps the MAC accumulator R0..R8
        # in memory — the lazy accumulator flush writes m[0:9] directly.
        self._lo = 9 if self.ise else 0
        # Deferred pointer write-back: X/Y/Z updates park in the ``p26``/
        # ``p28``/``p30`` locals; the register bytes materialise on first
        # architectural read/write of R26..R31 and at every exit site.
        self._pdirty: Dict[int, bool] = {}
        # Static MAC model (ISE): the whole queue evolution is evaluated
        # at compile time.  ``_nibq`` holds one (expr, pair, half) entry
        # per pending nibble — entry nibbles read ``pend[j]`` in place,
        # in-trace pushes are materialised into unique ``w{n}`` byte
        # locals.  ``_ndrained`` counts issued nibble MACs (it *is* the
        # ``mops`` delta and, with the entry counter ``_mc0``, the shift
        # position of every issue); ``_ncons`` counts consumed entry
        # nibbles (the ``del pend[:c]`` at exits).
        if mac_entry is not None:
            pl0, self._mc0, self._lden, self._swen = mac_entry
        else:
            pl0, self._mc0 = 0, 0
            self._lden = self._swen = False
        self._nibq: List[tuple] = [(f"pend[{j}]", None, 0)
                                   for j in range(pl0)]
        self._ncons = 0
        self._ndrained = 0
        self._wn = 0
        self._mdirty = False
        self._mmok = False
        self._pp_cap = pl0
        # Deferred accumulator terms: issued nibble MACs park here as
        # (expr, absolute counter index, pair, half) and are emitted as a
        # single factored ``acc += mulc * (...)`` at the next flush point
        # (accumulator read, multiplicand reload, exit, or the size cap).
        self._accbuf: List[tuple] = []
        # Affine bounds-guard hoisting: per pointer/SP local, one *epoch*
        # of statically known ±k updates.  All accesses of an epoch are
        # covered by a single range guard patched in at :meth:`finalize`;
        # the per-access bounds tests are elided.
        self._aff: Dict[str, dict] = {}
        self._guards: List[dict] = []
        self._last_adef: Optional[Tuple[str, int]] = None
        #: Instruction indices that emitted a pre-commit exit/raise site
        #: (epoch guard, inline bounds test, hazard raise).  Feeds the
        #: second-pass flag liveness refinement.
        self.exit_ics: set = set()

    # -- state-access hook overrides ---------------------------------------

    def _ptr_materialize(self, base: int) -> None:
        if self._pdirty.get(base):
            self._pdirty[base] = False
            self.rwritten.add(base)
            self.rwritten.add(base + 1)
            self.w(f"r{base} = p{base} & 0xFF")
            self.w(f"r{base + 1} = p{base} >> 8")

    def reg(self, i: int) -> str:
        if i < self._lo:
            return f"m[{i}]"
        if 26 <= i <= 31:
            self._ptr_materialize(26 if i < 28 else 28 if i < 30 else 30)
        self.rused.add(i)
        return f"r{i}"

    def wreg(self, i: int, expr: str) -> None:
        if i < self._lo:
            self.w(f"m[{i}] = {expr}")
            return
        if 26 <= i <= 31:
            # The sibling byte must hold its architectural value before
            # this one is overwritten (the pair cache is then dropped by
            # the caller's ptr_invalidate).
            self._ptr_materialize(26 if i < 28 else 28 if i < 30 else 30)
        self.rwritten.add(i)
        self.w(f"r{i} = {expr}")

    def sp_load(self) -> None:
        self.sp_used = True  # loaded once in the prologue

    def sp_store(self) -> None:
        self.sp_used = True
        self.sp_written = True  # written back at every exit

    def ptr_use(self, base: int) -> str:
        var = f"p{base}"
        if not self.ptrs.get(base):
            self.w(f"{var} = {self.reg(base)} | ({self.reg(base + 1)} << 8)")
            self.ptrs[base] = True
        return var

    def ptr_sync(self, base: int) -> None:
        # Deferred: the pointer's truth lives in the local until a register
        # read/write or an exit forces the bytes out (``_ptr_materialize``).
        self._pdirty[base] = True

    def mark(self, ic: int) -> None:
        self._peephole(self._region_start)
        super().mark(ic)
        self._region_start = len(self.lines)
        self._last_adef = None

    def finalize(self) -> None:
        self._peephole(self._region_start)
        self._region_start = len(self.lines)
        self._patch_guards()

    def precheck(self, addr: str) -> None:
        # The bounds test the fast engine pays on every indirect access,
        # turned into a side exit that fires *before* the instruction
        # commits any state; the reference interpreter then re-executes it
        # with full hook semantics.  When the address is an affine offset
        # of a tracked pointer epoch the per-access test is elided entirely
        # — the epoch's hoisted range guard (:meth:`_aff_access`) subsumes
        # it.
        if addr == "A":
            adef = self._last_adef
            if adef is not None and self._aff_access(adef[0], adef[1]):
                return
        elif addr == "sp" or addr.startswith("p"):
            if self._aff_access(addr, 0):
                return
        i = self.cur_ic
        self.exit_ics.add(i)
        fix = "".join(s + "; " for s in self._exit_stmts())
        self.w(f"if not (0x5F < {addr} < {self.size}): "
               f"{fix}epc = {self._pcs[i]}; ei = {i}; raise _SX")

    # -- affine bounds-guard hoisting ----------------------------------------

    # Pointer/SP evolution inside a superblock is almost entirely affine:
    # ``ld -X`` / ``st Z+`` / ``push`` move the pointer by a compile-time
    # constant, ``ldd``/``std`` access at a constant displacement.  The
    # tracker below parses exactly those emitted line shapes; any other
    # assignment to a tracked local ends its *epoch*.  Every epoch gets
    # one hoisted guard at its first access — ``LO < p < HI`` with LO/HI
    # folding the extreme access offset *and* the extreme pointer
    # position (so no ``& 0xFFFF`` wrap can occur past the guard) — and
    # all later accesses of the epoch are emitted bare.  A guard failure
    # side-exits at the *guard's* instruction boundary; the dispatcher
    # resumes there and the re-dispatched path (whose own first access
    # re-guards, eventually at instruction index 0) falls back to a
    # reference step.

    _AFF_UPD = re.compile(r"^(p\d+|sp) = \(\1 ([+-]) (\d+)\) & 0xFFFF$")
    _AFF_ADEF = re.compile(r"^A = \((p\d+|sp) ([+-]) (\d+)\) & 0xFFFF$")
    _AFF_ADEF_Q = re.compile(r"^A = (p\d+) \+ (\d+)$")
    _AFF_KILL = re.compile(r"^(p\d+|sp) = ")

    def w(self, line: str) -> None:
        if self.ind == 2:  # top-level instruction body only
            self._aff_track(line)
        super().w(line)

    def _aff_track(self, line: str) -> None:
        m = self._AFF_UPD.match(line)
        if m:
            k = int(m.group(3))
            self._aff_shift(m.group(1), k if m.group(2) == "+" else -k)
            return
        m = self._AFF_ADEF.match(line)
        if m:
            k = int(m.group(3))
            self._last_adef = (m.group(1),
                               k if m.group(2) == "+" else -k)
            return
        m = self._AFF_ADEF_Q.match(line)
        if m:
            self._last_adef = (m.group(1), int(m.group(2)))
            return
        if line.startswith("A = "):
            self._last_adef = None  # unrecognised address form
            return
        m = self._AFF_KILL.match(line)
        if m:
            var = m.group(1)
            adef = self._last_adef
            if line == f"{var} = A" and adef is not None \
                    and adef[0] == var:
                # Pre-decrement commit: the pointer takes the already
                # checked affine address.
                self._aff_shift(var, adef[1])
            else:
                self._aff.pop(var, None)  # reload/unknown: epoch over

    def _aff_shift(self, var: str, delta: int) -> None:
        ep = self._aff.get(var)
        if ep is None:
            return  # moves before an epoch's first access need no range
        ep["delta"] += delta
        gd = ep["g"]
        if ep["delta"] < gd["pmin"]:
            gd["pmin"] = ep["delta"]
        elif ep["delta"] > gd["pmax"]:
            gd["pmax"] = ep["delta"]

    def _aff_access(self, var: str, off: int) -> bool:
        """Register an access at ``var + off``; True if guard-covered."""
        if self.ind != 2:
            return False  # guards are hoisted at top level only
        ep = self._aff.get(var)
        if ep is None:
            i = self.cur_ic
            self.exit_ics.add(i)
            gd = {
                "var": var, "tag": f"#G{len(self._guards)}",
                "epc": self._pcs[i], "ei": i,
                "fix": self._exit_stmts(),
                "amin": off, "amax": off, "pmin": 0, "pmax": 0,
            }
            self._guards.append(gd)
            self._aff[var] = {"delta": 0, "g": gd}
            self.w(gd["tag"])  # placeholder, patched in _patch_guards
            return True
        gd = ep["g"]
        a = ep["delta"] + off
        if a < gd["amin"]:
            gd["amin"] = a
        elif a > gd["amax"]:
            gd["amax"] = a
        return True

    def _patch_guards(self) -> None:
        """Replace guard placeholders with the final epoch range tests.

        For a guard-time pointer value ``V``, every epoch access lands at
        ``V + a`` with ``a`` in [amin, amax] and the pointer itself visits
        ``V + q`` with ``q`` in [pmin, pmax]; the test keeps all accesses
        inside SRAM *and* all pointer positions inside 16 bits, so every
        masked update past the guard equals its unmasked affine value.
        The side exit re-uses the state fixups captured at the guard site
        — the exit happens at that instruction boundary, exactly as the
        per-access test it replaces.
        """
        if not self._guards:
            return
        ind = "    " * 2
        where = {ln[len(ind):]: j for j, ln in enumerate(self.lines)
                 if ln.startswith(ind + "#G")}
        for gd in self._guards:
            lo = max(0x5F - gd["amin"], -gd["pmin"] - 1)
            hi = min(self.size - gd["amax"], 0x10000 - gd["pmax"])
            fix = "".join(s + "; " for s in gd["fix"])
            self.lines[where[gd["tag"]]] = (
                f"{ind}if not ({lo} < {gd['var']} < {hi}): "
                f"{fix}epc = {gd['epc']}; ei = {gd['ei']}; raise _SX")

    # -- load-fusing peephole -----------------------------------------------

    _PEEP_LOAD = re.compile(r"^(\s*)v = (m\[[^\]]+\])$")
    _PEEP_V = re.compile(r"\bv\b")
    _PEEP_A = re.compile(r"^(\s*)A = (.+)$")
    _PEEP_AUSE = re.compile(r"\bA\b")

    def _peephole(self, start: int) -> None:
        """Fuse the ``A``/``v`` temporaries out of one instruction's lines.

        The ``A`` pass folds a single-use address temporary into its one
        consumer (``v = m[A]``, ``m[A] = X`` or a pre-decrement commit
        ``pN = A``) — with the per-access bounds test hoisted into the
        epoch guard, most address temporaries become single-use.  The
        ``v`` pass then fuses the load temporary: ``v = m[E]; rN = v;
        wK = v`` (a MAC trigger load) becomes ``wK = m[E]; rN = wK``, and
        a plain ``v = m[E]; rN = v`` with no later ``v`` use becomes
        ``rN = m[E]``.  Runs before the next :meth:`mark`, so the
        line→instruction map stays exact.
        """
        lines = self.lines
        i = start
        while i < len(lines) - 1:
            ma = self._PEEP_A.match(lines[i])
            if ma:
                ind, expr = ma.group(1), ma.group(2)
                uses = [j for j in range(i + 1, len(lines))
                        if self._PEEP_AUSE.search(lines[j])]
                if len(uses) == 1 and uses[0] == i + 1:
                    nxt = lines[i + 1]
                    repl = None
                    m = re.match(rf"^{ind}(\w+) = m\[A\]$", nxt)
                    if m:
                        repl = f"{ind}{m.group(1)} = m[{expr}]"
                    else:
                        m = re.match(rf"^{ind}m\[A\] = (.+)$", nxt)
                        if m:
                            repl = f"{ind}m[{expr}] = {m.group(1)}"
                        else:
                            m = re.match(rf"^{ind}(p\d+|sp) = A$", nxt)
                            if m:
                                repl = f"{ind}{m.group(1)} = {expr}"
                    if repl is not None:
                        lines[i] = repl
                        del lines[i + 1]
                        continue
            i += 1
        i = start
        while i < len(lines) - 1:
            mload = self._PEEP_LOAD.match(lines[i])
            if mload:
                ind, src = mload.group(1), mload.group(2)
                mreg = re.match(rf"^{ind}(r\d+|m\[\d+\]) = v$",
                                lines[i + 1])
                if mreg:
                    dst = mreg.group(1)
                    mw = (re.match(rf"^{ind}(w\d+) = v$", lines[i + 2])
                          if i + 2 < len(lines) else None)
                    if mw:
                        wv = mw.group(1)
                        lines[i] = f"{ind}{wv} = {src}"
                        lines[i + 1] = f"{ind}{dst} = {wv}"
                        del lines[i + 2]
                        i += 2
                        continue
                    if not any(self._PEEP_V.search(x)
                               for x in lines[i + 2:]):
                        lines[i] = f"{ind}{dst} = {src}"
                        del lines[i + 1]
                        i += 1
                        continue
            i += 1

    # -- static MAC model ---------------------------------------------------

    #: Deferred-term cap: bounds both the factored expression length and
    #: the copies of the pending flush embedded in cold exit chains.
    _ACCBUF_MAX = 12

    def mac_snapshot(self) -> tuple:
        return (list(self._nibq), self._ncons, self._ndrained,
                self._mdirty, self._mmok, dict(self._pdirty),
                list(self._accbuf))

    def mac_restore(self, snap: tuple) -> None:
        (nibq, self._ncons, self._ndrained,
         self._mdirty, self._mmok, pdirty, accbuf) = snap
        self._nibq = list(nibq)
        self._pdirty = dict(pdirty)
        self._accbuf = list(accbuf)

    def _mac_lazy(self) -> None:
        if not self._mdirty:
            self.w("acc = int.from_bytes(m[0:9], 'little')")
            self.w("dirty = True")
            self._mdirty = True
        if not self._mmok:
            # Deferred terms reference the *current* ``mulc`` value: they
            # must land in ``acc`` before the local is reassigned.
            self._flush_acc()
            self.w(f"mulc = {self.reg(16)} | ({self.reg(17)} << 8)"
                   f" | ({self.reg(18)} << 16) | ({self.reg(19)} << 24)")
            self._mmok = True

    def _acc_sum(self) -> str:
        """Factored sum of the deferred terms, lo/hi pairs recombined.

        A pushed byte ``w`` whose two nibbles issued back to back (and
        without crossing a counter wrap) contributes ``w << 4*pos`` —
        the nibble decomposition of Algorithm 2 cancels out — so a whole
        epoch of nibble MACs costs one wide multiply.
        """
        parts = []
        buf = self._accbuf
        j = 0
        while j < len(buf):
            expr, ab, pair, half = buf[j]
            if (pair is not None and half == 0 and j + 1 < len(buf)
                    and buf[j + 1][2] == pair
                    and buf[j + 1][1] == ab + 1 and (ab & 7) != 7):
                expr = f"w{pair}"
                j += 2
            else:
                j += 1
            sh = (ab & 7) << 2
            parts.append(expr if sh == 0 else f"({expr} << {sh})")
        return parts[0] if len(parts) == 1 else \
            "(" + " + ".join(parts) + ")"

    def _acc_flush_stmt(self) -> Optional[str]:
        if not self._accbuf:
            return None
        return f"acc += mulc * {self._acc_sum()}"

    def _flush_acc(self) -> None:
        stmt = self._acc_flush_stmt()
        if stmt is not None:
            self.w(stmt)
            self._accbuf = []

    def _issue_batch(self, k: int) -> None:
        """Drain *k* pending nibbles into the deferred-term buffer.

        Every issue's counter position is a compile-time constant, so the
        terms carry static shifts and the whole batch is bookkeeping-free
        at runtime until the next flush point.
        """
        self._mac_lazy()
        taken = self._nibq[:k]
        del self._nibq[:k]
        self._ncons += sum(1 for _, pair, _ in taken if pair is None)
        ab = self._mc0 + self._ndrained
        for expr, pair, half in taken:
            self._accbuf.append(
                (f"({expr})" if pair is None else expr, ab, pair, half))
            ab += 1
        self._ndrained += k
        if len(self._accbuf) >= self._ACCBUF_MAX:
            self._flush_acc()

    def mac_issue(self, nibble_expr: str = "", from_pend: bool = False
                  ) -> None:
        # Direct issue (SWAP snooping): one nibble at the current static
        # counter position, bypassing the queue.  Materialised into a
        # unique local — the source operand is a transient.
        self._mac_lazy()
        wid = self._wn
        self._wn += 1
        self.w(f"w{wid} = {nibble_expr}")
        self._accbuf.append(
            (f"w{wid}", self._mc0 + self._ndrained, None, 0))
        self._ndrained += 1
        if len(self._accbuf) >= self._ACCBUF_MAX:
            self._flush_acc()

    def mac_sched(self, expr: str) -> None:
        wid = self._wn
        self._wn += 1
        self.w(f"w{wid} = {expr}")
        self._nibq.append((f"(w{wid} & 0xF)", wid, 0))
        self._nibq.append((f"(w{wid} >> 4)", wid, 1))

    def mac_load_trigger(self, expr: str) -> None:
        if self._lden:
            self.mac_sched(expr)

    def mac_swap_snoop(self, expr: str) -> None:
        if self._swen:
            self.mac_issue(expr)

    def mac_flush_low(self) -> None:
        if self._mdirty:
            self._flush_acc()
            self.w(f"m[0:9] = (acc & {_ACC_MASK}).to_bytes(9, 'little')")
            self.w("dirty = False")
            self._mdirty = False

    def mac_invalidate_mulc(self) -> None:
        self._mmok = False

    def hazards(self, pc: int, spec: InstructionSpec, ops: dict) -> None:
        """Compile-time MAC hazard resolution.

        The queue length is static, so the verdict is too: a conflict
        emits nothing (queue empty) or an unconditional raise.
        """
        if not self.ise:
            return
        mpl = len(self._nibq)
        if mpl and conflicts_with_mac(spec.name, ops):
            if spec.name in _LOAD_NAMES and ops.get("d") == 24:
                if mpl > 1:
                    self._emit_hazard_raise(
                        f"MAC issue-rate exceeded at pc={pc:#06x}: "
                        f"{mpl} nibble MACs still pending")
            else:
                self._emit_hazard_raise(
                    f"{spec.name} touches MAC-owned registers at "
                    f"pc={pc:#06x} while {mpl} MAC(s) pending")
        self._pp_cap = len(self._nibq)

    def _emit_hazard_raise(self, msg: str) -> None:
        # The raise always fires (the queue depth is static), so the exit
        # fixups run unconditionally right before it and the generic
        # exception handler sees synchronised mc/mops/pend/pointer state.
        self.exit_ics.add(self.cur_ic)
        for s in self._exit_stmts():
            self.w(s)
        self.w(f"raise MacHazardError({msg!r})")

    def drains(self, cycles: int) -> None:
        if not self.ise:
            return
        k = min(cycles, self._pp_cap)
        if k > 0:
            self._issue_batch(k)

    def flag_need(self, written: int) -> int:
        return written & self._live[self.cur_ic]

    def escape(self, *calls: str) -> None:  # pragma: no cover - scanner bug
        raise AssertionError("superblock scanner let an I/O escape through")

    def mem_read(self, dest: str, addr: str, wrap: bool = False) -> None:
        # precheck() already proved 0x5F < addr < size.
        self.w(f"{dest} = m[{addr}]")

    def mem_write(self, addr: str, value: str, wrap: bool = False) -> None:
        self.w(f"m[{addr}] = {value}")

    # -- exit-state fixups and side exits -----------------------------------

    def _exit_stmts(self) -> List[str]:
        """Statements restoring the externally visible state at an exit.

        The hot path carries none of the fast engine's per-instruction
        ``mc``/``mops``/``pend``/pointer bookkeeping — it is all static —
        so every site where control can leave the superblock re-creates
        that state from compile-time knowledge.  Pure: the fall-through
        path continues from the unchanged compile-time state.
        """
        out: List[str] = []
        if self.ise:
            flush = self._acc_flush_stmt()
            if flush is not None:
                out.append(flush)
            if self._ndrained:
                out.append(f"mc = {(self._mc0 + self._ndrained) & 7}")
                out.append(f"mops = {self._ndrained}")
            if self._ncons:
                out.append(f"del pend[:{self._ncons}]")
            rem = [e for e, pair, _ in self._nibq if pair is not None]
            if rem:
                tail = ",)" if len(rem) == 1 else ")"
                out.append("pend += (" + ", ".join(rem) + tail)
        for b in (26, 28, 30):
            if self._pdirty.get(b):
                self.rwritten.add(b)
                self.rwritten.add(b + 1)
                out.append(f"r{b} = p{b} & 0xFF")
                out.append(f"r{b + 1} = p{b} >> 8")
        return out

    def emit_exit_fixups(self) -> None:
        for s in self._exit_stmts():
            self.w(s)

    def side_exit(self, ei: int, epc) -> None:
        """Exit to the dispatcher with *ei* instructions retired, PC *epc*."""
        fix = "".join(s + "; " for s in self._exit_stmts())
        self.w(f"{fix}epc = {epc}; ei = {ei}; raise _SX")


# ---------------------------------------------------------------------------
# Superblock scanning
# ---------------------------------------------------------------------------


def _scan_superblock(core, start_pc: int):
    """Collect the straight-line stitched path at *start_pc*.

    Returns ``(items, trailing_npc, skip_lookahead, key_words)``.  Each
    item is ``(pc, spec, ops, flow)`` where *flow* describes how the path
    continues past the instruction:

    ``("line",)``
        ordinary fall-through instruction.
    ``("goto", target)``
        RJMP/JMP stitched through; the path continues at *target*.
    ``("call", target, return_pc)``
        RCALL/CALL stitched into its callee; *return_pc* is pushed both
        architecturally and onto the compile-time return stack.
    ``("ret", expected)``
        RET whose popped address is guarded against the compile-time
        *expected*; a mismatch side-exits.
    ``("branch", target, predicted_taken)``
        conditional branch; the unpredicted arm side-exits.
    ``("skip", skip_pc, skip_words)``
        CPSE/SBRC/SBRS predicted not to skip; skipping side-exits.
    ``("terminal",)``
        last instruction, emitted exactly as in a fast-engine block (both
        arms set ``npc``; the epilogue exports state).

    The scan ends at: the instruction cap, a PC already on the path (loop
    closed), an I/O escape or undecodable word (left to the dispatcher;
    *trailing_npc* is then that PC), BREAK/IJMP/ICALL/RETI, RET with an
    empty stack, or a branch whose predicted successor is already on the
    path.
    """
    prog = core.program
    size = core.data.size
    items: List[tuple] = []
    key_words: List[int] = []
    visited = set()
    ret_stack: List[int] = []
    skip_lookahead: Optional[int] = None
    trailing_npc: Optional[int] = None
    pc = start_pc

    while True:
        if len(items) >= MAX_TRACE_INSTRUCTIONS or pc in visited:
            trailing_npc = pc
            break
        try:
            spec, ops, words = core.decode_at(pc)
        except Exception:
            trailing_npc = pc  # dispatcher re-raises via a reference step
            break
        if _is_escape(spec, ops, size):
            trailing_npc = pc  # dispatcher runs the hooked instruction
            break
        visited.add(pc)
        for off in range(words):
            key_words.append(prog.fetch(pc + off))
        sem = spec.semantics

        if sem in ("break", "ijmp", "icall", "reti"):
            items.append((pc, spec, ops, ("terminal",)))
            break
        if sem in ("rjmp", "jmp"):
            target = (ops["k"] if sem == "jmp"
                      else pc + 1 + sign_extend(ops["k"], 12))
            if target in visited or target < 0:
                items.append((pc, spec, ops, ("terminal",)))
                break
            items.append((pc, spec, ops, ("goto", target)))
            pc = target
            continue
        if sem in ("rcall", "call"):
            target = (ops["k"] if sem == "call"
                      else pc + 1 + sign_extend(ops["k"], 12))
            if (target in visited or target < 0
                    or len(ret_stack) >= _MAX_CALL_DEPTH):
                items.append((pc, spec, ops, ("terminal",)))
                break
            ret_stack.append(pc + words)
            items.append((pc, spec, ops, ("call", target, pc + words)))
            pc = target
            continue
        if sem == "ret":
            if not ret_stack:
                items.append((pc, spec, ops, ("terminal",)))
                break
            expected = ret_stack.pop()
            if expected in visited:
                items.append((pc, spec, ops, ("terminal",)))
                break
            items.append((pc, spec, ops, ("ret", expected)))
            pc = expected
            continue
        if sem in ("brbs", "brbc"):
            target = pc + 1 + sign_extend(ops["k"], 7)
            predicted_taken = target <= pc  # backward branches close loops
            cont = target if predicted_taken else pc + 1
            if cont in visited or cont < 0:
                items.append((pc, spec, ops, ("terminal",)))
                break
            items.append((pc, spec, ops,
                          ("branch", target, predicted_taken)))
            pc = cont
            continue
        if sem in ("cpse", "sbrc", "sbrs"):
            try:
                nword = prog.fetch(pc + 1)
            except IndexError:
                # Skipped slot outside flash: the terminal emission defers
                # the fetch (and its error) to runtime, exactly as the
                # fast engine does.
                key_words.append(-1)
                items.append((pc, spec, ops, ("terminal",)))
                break
            nwords = instruction_words(nword)
            if pc + 1 in visited:
                key_words.append(nword)
                skip_lookahead = nwords
                items.append((pc, spec, ops, ("terminal",)))
                break
            items.append((pc, spec, ops, ("skip", pc + 1 + nwords, nwords)))
            pc = pc + 1
            continue
        items.append((pc, spec, ops, ("line",)))
        pc += words

    return items, trailing_npc, skip_lookahead, key_words


# ---------------------------------------------------------------------------
# Superblock compilation
# ---------------------------------------------------------------------------


def _pre_body(g: _TraceGen, i: int, pc: int, spec: InstructionSpec,
              ops: dict) -> None:
    """Shared pre-body emission for internally stitched control flow.

    Mirrors the opening of :func:`repro.avr.engine._emit_instruction`:
    the instruction mark, MAC hazard handling and the ISE accumulator
    flush for instructions that touch R0..R8 directly.
    """
    sem = spec.semantics
    g.mark(i)
    g.hazards(pc, spec, ops)
    if g.ise and any(v <= 8 for v in _touched_regs(sem, ops)):
        g.mac_flush_low()


def _emit_internal_branch(g: _TraceGen, i: int, pc: int, ops: dict,
                          sem: str, target: int,
                          predicted_taken: bool) -> None:
    cond = f"sreg >> {ops['s']} & 1"
    taken_if = cond if sem == "brbs" else f"not ({cond})"
    fall_if = f"not ({cond})" if sem == "brbs" else cond
    if predicted_taken:
        snap = g.mac_snapshot()
        g.w(f"if {fall_if}:")
        g.ind += 1
        g.drains(1)
        g.side_exit(i + 1, pc + 1)
        g.ind -= 1
        g.mac_restore(snap)  # the exit arm's drains never happened here
        g.extra("1")
        g.drains(2)
    else:
        snap = g.mac_snapshot()
        g.w(f"if {taken_if}:")
        g.ind += 1
        g.extra("1")
        g.drains(2)
        g.side_exit(i + 1, target)
        g.ind -= 1
        g.mac_restore(snap)
        g.drains(1)


def _skip_cond(g: _TraceGen, ops: dict, sem: str) -> str:
    if sem == "cpse":
        return f"{g.reg(ops['d'])} == {g.reg(ops['r'])}"
    bit = f"{g.reg(ops['d'])} >> {ops['b']} & 1"
    return f"not ({bit})" if sem == "sbrc" else bit


def _emit_internal_skip(g: _TraceGen, i: int, ops: dict, sem: str,
                        skip_pc: int, skip_words: int) -> None:
    snap = g.mac_snapshot()
    g.w(f"if {_skip_cond(g, ops, sem)}:")
    g.ind += 1
    g.extra(str(skip_words))
    g.drains(1 + skip_words)
    g.side_exit(i + 1, skip_pc)
    g.ind -= 1
    g.mac_restore(snap)
    g.drains(1)


def _emit_terminal_branch(g: _TraceGen, pc: int, ops: dict,
                          sem: str) -> None:
    """Terminal BRBS/BRBC: both arms set ``npc``, exactly as the fast
    engine emits them — but each arm's static MAC drains start from the
    same pre-instruction state."""
    target = pc + 1 + sign_extend(ops["k"], 7)
    cond = f"sreg >> {ops['s']} & 1"
    snap = g.mac_snapshot()
    g.w(f"if {cond}:" if sem == "brbs" else f"if not ({cond}):")
    g.ind += 1
    g.extra("1")
    g.w(f"npc = {target}")
    g.drains(2)
    g.emit_exit_fixups()
    g.ind -= 1
    g.mac_restore(snap)
    g.w("else:")
    g.ind += 1
    g.w(f"npc = {pc + 1}")
    g.drains(1)
    g.emit_exit_fixups()
    g.ind -= 1


def _emit_terminal_skip(g: _TraceGen, pc: int, ops: dict, sem: str,
                        skip_lookahead: Optional[int]) -> None:
    """Terminal CPSE/SBRC/SBRS, mirroring the fast engine arm for arm."""
    snap = g.mac_snapshot()
    g.w(f"if {_skip_cond(g, ops, sem)}:")
    g.ind += 1
    if skip_lookahead is None:
        # The skipped slot lies outside flash: reproduce the reference
        # interpreter's fetch error from the same state (the fixups run
        # first, so the generic handler exports synchronised MAC state).
        g.emit_exit_fixups()
        g.w(f"prog.fetch({pc + 1})")
        g.w("raise AssertionError('unreachable')")
    else:
        g.extra(str(skip_lookahead))
        g.w(f"npc = {pc + 1 + skip_lookahead}")
        g.drains(1 + skip_lookahead)
        g.emit_exit_fixups()
    g.ind -= 1
    g.mac_restore(snap)
    g.w("else:")
    g.ind += 1
    g.w(f"npc = {pc + 1}")
    g.drains(1)
    g.emit_exit_fixups()
    g.ind -= 1


def _stmt_lines(stmts: List[str], indent: str, per_line: int = 8) -> str:
    """Join short statements into ``; ``-chained source lines."""
    out = []
    for i in range(0, len(stmts), per_line):
        out.append(indent + "; ".join(stmts[i:i + per_line]) + "\n")
    return "".join(out)


# Global superblock cache: key -> closure, shared across cores (the key
# covers everything the generated source depends on).
_TRACE_CACHE: Dict[tuple, Any] = {}
_TRACE_CACHE_MAX = 512


def _program_fingerprint(prog) -> tuple:
    """Cheap per-version identity of the loaded flash image.

    Keys the global superblock cache without re-scanning the path: the
    hash is computed once per ``ProgramMemory`` version and memoised on
    the instance, so a warm cache costs one attribute read per dispatch
    miss instead of a full decode walk.
    """
    fp = getattr(prog, "_trace_fp", None)
    if fp is None or fp[0] != prog.version:
        used = prog.used_words
        fp = (prog.version, hash(tuple(prog.words[:used])), used)
        prog._trace_fp = fp
    return fp[1], fp[2]


def compile_superblock(core, start_pc: int):
    """Compile (or fetch from the global cache) the superblock at *start_pc*.

    Returns ``None`` when the entry instruction itself is ineligible (an
    I/O escape or an undecodable word) — the dispatcher then takes one
    reference step instead.
    """
    mode, size = core.mode, core.data.size
    if mode is Mode.ISE:
        # The static MAC model specialises on the entry state — including
        # the 3-bit issue counter, so every drain's shift position is a
        # compile-time constant; the dispatcher keys its superblock table
        # the same way.
        mac_entry = (len(core.mac.pending), core.mac.counter,
                     core.mac.load_enabled, core.mac.swap_enabled)
    else:
        mac_entry = None
    key = (start_pc, mode, size, mac_entry,
           _program_fingerprint(core.program))
    fn = _TRACE_CACHE.get(key)
    if fn is not None:
        _M_CACHE_HITS.inc()
        return fn

    items, trailing_npc, skip_lookahead, _ = _scan_superblock(
        core, start_pc)
    if not items:
        return None
    n = len(items)
    cycles = [base_cycles(spec, mode) for _, spec, _, _ in items]
    cyc_before = [0]
    for c in cycles:
        cyc_before.append(cyc_before[-1] + c)
    pcs = [pc for pc, _, _, _ in items]
    pcs.append(trailing_npc if trailing_npc is not None else 0)

    def emit(live: List[int]) -> _TraceGen:
        g = _TraceGen(mode, size, pcs, live, mac_entry)
        for i, (pc, spec, ops, flow) in enumerate(items):
            kind = flow[0]
            sem = spec.semantics
            if kind == "terminal" and sem in ("brbs", "brbc"):
                _pre_body(g, i, pc, spec, ops)
                _emit_terminal_branch(g, pc, ops, sem)
                continue
            if kind == "terminal" and sem in ("cpse", "sbrc", "sbrs"):
                _pre_body(g, i, pc, spec, ops)
                _emit_terminal_skip(g, pc, ops, sem, skip_lookahead)
                continue
            if kind in ("line", "terminal"):
                _emit_instruction(g, i, pc, spec, ops, cycles[i],
                                  skip_lookahead if i == n - 1 else None)
                continue
            _pre_body(g, i, pc, spec, ops)
            if kind == "goto":
                pass  # the successor is compiled in; only cycles remain
            elif kind == "call":
                _emit_push_return(g, flow[2])
            elif kind == "ret":
                _emit_pop_return(g)
            elif kind == "branch":
                _emit_internal_branch(g, i, pc, ops, sem, flow[1], flow[2])
            elif kind == "skip":
                _emit_internal_skip(g, i, ops, sem, flow[1], flow[2])
            if kind in ("goto", "call", "ret"):
                g.drains(cycles[i])
                if kind == "ret":
                    g.w(f"if npc != {flow[1]}:")
                    g.ind += 1
                    g.side_exit(i + 1, "npc")
                    g.ind -= 1

        if items[-1][3][0] != "terminal":
            g.w(f"npc = {trailing_npc}")
        last_sem = items[-1][1].semantics
        if not (items[-1][3][0] == "terminal" and last_sem in (
                "brbs", "brbc", "cpse", "sbrc", "sbrs")):
            # Terminal branches/skips emitted their (arm-specific) fixups
            # already; every other trace end exports state here.
            g.emit_exit_fixups()
        g.finalize()
        return g

    # Two-pass flag liveness: the first pass assumes every prechecked
    # semantics exports SREG, then reports the exit sites it actually
    # emitted (most bounds tests hoist into a few epoch guards); liveness
    # recomputed against the real sites strips the flag materialisation
    # the memory traffic forced.  Exit-site placement does not depend on
    # liveness, so the second pass emits the same guard structure.
    live = _flag_liveness(items, mode)
    g = emit(live)
    refined = _flag_liveness(items, mode, exit_ics=g.exit_ics)
    if refined != live:
        g = emit(refined)

    ise = mode is Mode.ISE
    regs = sorted(g.rused | g.rwritten)
    wregs = sorted(g.rwritten)
    loads = [f"r{i} = m[{i}]" for i in regs]
    if g.sp_used:
        loads.append("sp = m[0x5D] | (m[0x5E] << 8)")
    stores = [f"m[{i}] = r{i}" for i in wregs]
    if g.sp_written:
        stores.append("m[0x5D] = sp & 0xFF")
        stores.append("m[0x5E] = sp >> 8")
    mac_sync = (
        "        if dirty:\n"
        f"            m[0:9] = (acc & {_ACC_MASK}).to_bytes(9, 'little')\n"
        "        mac.counter = mc\n"
        "        if mops:\n"
        "            mac.mac_ops += mops\n"
    ) if ise else ""

    header = (
        "    data = core.data\n"
        "    m = data._mem\n"
        "    sregobj = core.sreg\n"
        "    sreg = sregobj.value\n"
        "    prog = core.program\n"
        + ("    mac = core.mac\n"
           "    pend = mac.pending\n"
           "    mc = mac.counter\n"
           "    mops = 0\n"
           "    dirty = False\n" if ise else "")
        + _stmt_lines(loads, "    ")
        + "    x = 0\n"
    )
    body = "\n".join(g.lines)
    base_line = header.count("\n") + 3
    line_to_ic = [0] * len(g.lines)
    for (start, icv), (end, _) in zip(g.marks,
                                      g.marks[1:] + [(len(g.lines), 0)]):
        for j in range(start, end):
            line_to_ic[j] = icv
    sync8 = mac_sync + _stmt_lines(stores, "        ")
    sync4 = (mac_sync.replace("        ", "    ") if ise else "") \
        + _stmt_lines(stores, "    ")
    src = (
        "def _superblock(core):\n"
        + header
        + "    try:\n"
        f"{body}\n"
        "    except _SX:\n"
        + sync8
        + "        sregobj.value = sreg\n"
        "        core.pc = epc\n"
        "        core.cycles += _CYC[ei] + x\n"
        "        core.instructions_retired += ei\n"
        "        return\n"
        "    except Exception as e:\n"
        f"        ic = _L2I[e.__traceback__.tb_lineno - {base_line}]\n"
        + sync8
        + "        sregobj.value = sreg\n"
        "        core.pc = _PCS[ic]\n"
        "        core.cycles += _CYC[ic] + x\n"
        "        core.instructions_retired += ic\n"
        "        raise\n"
        + sync4
        + "    sregobj.value = sreg\n"
        "    core.pc = npc\n"
        f"    core.cycles += {cyc_before[-1]} + x\n"
        f"    core.instructions_retired += {n}\n"
    )
    gbl = {
        "MacHazardError": MacHazardError,
        "_SX": _SideExit,
        "_PCS": tuple(pcs),
        "_CYC": tuple(cyc_before),
        "_L2I": tuple(line_to_ic),
    }
    code = compile(src, f"<avr-superblock@{start_pc:#06x}>", "exec")
    exec(code, gbl)
    fn = gbl["_superblock"]
    fn._source = src
    fn._n_instructions = n
    _M_COMPILED.inc()
    if len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
        _TRACE_CACHE.clear()
    _TRACE_CACHE[key] = fn
    return fn


class TraceEngine:
    """Guarded superblock dispatcher with a transparent fallback ladder.

    Per dispatch it checks the flash version (invalidating on any change);
    profiled runs delegate wholly to the core's fast engine, whose closures
    carry exact tally bookkeeping.  Entry PCs that cannot head a
    superblock — and superblock executions that make no progress because
    the very first instruction side-exits (an indirect access landing in
    I/O space) — take a single reference step, so hook semantics are
    always the interpreter's.
    """

    def __init__(self, core):
        self.core = core
        self.superblocks: Dict[int, Any] = {}
        self.version = -1

    def invalidate(self) -> None:
        """Drop all compiled superblocks (flash changed under us)."""
        self.superblocks.clear()

    def run(self, max_steps: int = 50_000_000) -> int:
        core = self.core
        if core.profiler is not None:
            # The fast engine's profiled closures reproduce the reference
            # tallies exactly; superblocks carry no tally bookkeeping.
            return core.fast_engine.run(max_steps)
        sbs = self.superblocks
        sbs_get = sbs.get
        missing = _MISSING
        ise = core.mode is Mode.ISE
        mac = core.mac
        pending = mac.pending
        retired_start = core.instructions_retired
        while not core.halted:
            if core.program.version != self.version:
                self.invalidate()
                self.version = core.program.version
            pc = core.pc
            if ise:
                # Superblocks are specialised on the MAC entry state (at
                # most two nibbles pending at any instruction boundary).
                key = (pc, len(pending), mac.counter,
                       mac.load_enabled, mac.swap_enabled)
            else:
                key = pc
            fn = sbs_get(key, missing)
            if fn is missing:
                fn = compile_superblock(core, pc)
                sbs[key] = fn
            if fn is None:
                core.step()  # ineligible entry: I/O escape, illegal word
            else:
                before = core.instructions_retired
                fn(core)
                if (core.instructions_retired == before
                        and not core.halted):
                    # The entry instruction itself side-exited (indirect
                    # access into I/O space): reference-step it once.
                    core.step()
            if core.instructions_retired - retired_start > max_steps:
                from .core import ExecutionError

                raise ExecutionError(
                    f"step budget of {max_steps} exceeded"
                    f" at pc={core.pc:#06x}"
                )
        return core.cycles


_MISSING = object()
