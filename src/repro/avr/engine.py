"""The block-compiling fast engine: the dispatcher's basic-block rung.

The reference interpreter (:meth:`AvrCore.step`) pays the full Python toll —
decode-cache lookup, executor dispatch through a dict of closures, operand
dicts, a chain of :class:`StatusRegister` method calls per flag update and a
``dynamic_cycles()`` call — on every one of the millions of instructions a
single 160-bit ladder retires.  This module removes that toll without
changing a single observable bit:

* Flash is predecoded into **basic blocks**: maximal straight-line runs
  ending at a control transfer (branch, jump, call, return, skip, ``BREAK``)
  or at the block-length cap.
* Each block is compiled into **one Python closure** generated as source and
  ``exec``-ed once.  Operand dicts are flattened into integer literals,
  executors are inlined and specialised (an ``LDD r2, Y+3`` becomes three
  lines of direct ``bytearray`` indexing), SREG lives in a local integer
  with the exact flag equations of :mod:`repro.avr.sreg` folded in, and the
  block's cycle count is a compile-time constant plus the dynamically taken
  branch/skip extras.
* The MAC/hazard machinery is compiled in **only when the core runs in ISE
  mode** — CA and FAST blocks carry no trace of it.  In ISE blocks the
  hazard verdict of :func:`repro.avr.mac.conflicts_with_mac` is evaluated at
  compile time (operands are constants), so non-conflicting instructions pay
  a single pending-count check.  The 72-bit accumulator is promoted from
  R0..R8 into a block-local integer while MACs are in flight — flushed back
  before any instruction that statically touches R0..R8, around every
  I/O-space escape, and at block exit — and the 32-bit multiplicand is
  cached until an instruction writes R16..R19, so a nibble MAC costs a
  handful of integer operations instead of a 9-byte pack/unpack.
* Compiled blocks are cached globally, keyed by the raw instruction words
  plus the compilation parameters, so a program assembled repeatedly (the
  test-suite pattern) compiles once per process.
* Every cache is keyed to :attr:`ProgramMemory.version`; reloading or
  self-modifying flash invalidates compiled blocks and decoded instructions
  alike.

Exactness contract: for any program, the engine produces the registers,
SRAM, SREG, PC, cycle count and retired-instruction count of the reference
interpreter — and raises the same exception type from the same architectural
state for MAC hazards, illegal opcodes and out-of-range memory traffic.
``tests/test_avr_fuzz.py`` enforces this differentially on random programs,
``tests/test_avr_engine.py`` on directed ones.

Role: :meth:`AvrCore.run` dispatches through :mod:`repro.avr.trace`;
this engine is not selected by ``engine=``.  It is the rung the dispatcher
falls back to for profiled runs (the only tier with exact per-block
tallies), and the compiled stride of fault injection and taint
tracking.  Each core owns one instance
(:attr:`AvrCore.fast_engine`).

The engine assumes the I/O hook layout installed by :class:`AvrCore` (SREG
always, MACCR in ISE mode).  Additional hooks on other I/O addresses still
work: all I/O-region traffic funnels through ``DataSpace.read`` /
``DataSpace.write`` exactly as in the interpreter, with the SREG local
synchronised around every such call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs.metrics import METRICS
from .encoding import sign_extend
from .isa import InstructionSpec, instruction_words
from .mac import _LOAD_NAMES, MacHazardError, conflicts_with_mac
from .profiler import BlockStatic, EngineProfile, group_of
from .timing import Mode, base_cycles

__all__ = ["FastEngine", "compile_block", "MAX_BLOCK_INSTRUCTIONS"]

_M_COMPILED = METRICS.counter(
    "avr_blocks_compiled", "basic blocks compiled to closures")
_M_CACHE_HITS = METRICS.counter(
    "avr_block_cache_hits", "compiled blocks served from the global cache")

#: Block-length cap: bounds single-closure size (and compile latency) while
#: keeping the fully unrolled multiplication kernels to a handful of blocks.
MAX_BLOCK_INSTRUCTIONS = 320

#: Semantics keys that terminate a basic block.
_ENDERS = frozenset({
    "break", "ret", "reti", "rjmp", "jmp", "ijmp", "rcall", "call", "icall",
    "brbs", "brbc", "cpse", "sbrc", "sbrs", "sbic", "sbis",
})

#: Terminators whose cycle count depends on a runtime condition.
_CONDITIONAL = frozenset({
    "brbs", "brbc", "cpse", "sbrc", "sbrs", "sbic", "sbis",
})

#: Semantics that actually schedule MACs on a load into R24 (POP does not —
#: it is only hazard-classified as a trigger, matching ``AvrCore.step``).
_MAC_LOAD_SEMS = frozenset({
    "lds", "ld_x", "ld_xp", "ld_mx", "ld_yp", "ld_my", "ld_zp", "ld_mz",
    "ldd_y", "ldd_z",
})

# (pointer low register, pre-decrement, post-increment) per indirect mode.
_INDIRECT = {
    "ld_x": (26, False, False), "ld_xp": (26, False, True),
    "ld_mx": (26, True, False),
    "ld_yp": (28, False, True), "ld_my": (28, True, False),
    "ld_zp": (30, False, True), "ld_mz": (30, True, False),
    "st_x": (26, False, False), "st_xp": (26, False, True),
    "st_mx": (26, True, False),
    "st_yp": (28, False, True), "st_my": (28, True, False),
    "st_zp": (30, False, True), "st_mz": (30, True, False),
}

# 72-bit accumulator mask of the MAC unit.
_ACC_MASK = "0x" + "F" * 18

#: Semantics that write the register named by their ``d`` operand.
_WRITER_SEMS = frozenset({
    "add", "adc", "sub", "sbc", "subi", "sbci", "adiw", "sbiw",
    "and", "andi", "or", "ori", "eor", "com", "neg", "inc", "dec",
    "lsr", "ror", "asr", "swap", "bld", "mov", "movw", "ldi", "lds",
    "ld_x", "ld_xp", "ld_mx", "ld_yp", "ld_my", "ld_zp", "ld_mz",
    "ldd_y", "ldd_z", "pop", "in", "lpm_z", "lpm_zp",
})

_MUL_SEMS = frozenset({"mul", "muls", "mulsu", "fmul", "fmuls", "fmulsu"})


def _written_regs(sem: str, ops: dict) -> tuple:
    """Registers the instruction writes directly through ``m``.

    Pointer updates (R26..R31) are irrelevant to the MAC caches and are
    deliberately omitted; they can never alias R0..R8 or R16..R19.
    """
    if sem in _MUL_SEMS:
        return (0, 1)
    if sem == "lpm_r0":
        return (0,)
    if sem not in _WRITER_SEMS:
        return ()
    d = ops["d"]
    if sem in ("movw", "adiw", "sbiw"):
        return (d, d + 1)
    return (d,)


def _touched_regs(sem: str, ops: dict) -> list:
    """Registers the instruction reads or writes directly through ``m``."""
    regs = [v for k, v in ops.items() if k in ("d", "r")]
    if sem == "movw":
        regs += (ops["d"] + 1, ops["r"] + 1)
    regs.extend(_written_regs(sem, ops))
    return regs



# Global compiled-block cache: key -> closure.  Keyed by everything the
# generated source depends on, so it is shared safely across cores.
_CACHE: Dict[tuple, object] = {}
_CACHE_MAX = 4096


class _Gen:
    """Source accumulator with indentation tracking."""

    def __init__(self, mode: Mode, size: int, profiled: bool = False):
        self.mode = mode
        self.ise = mode is Mode.ISE
        self.size = size
        self.profiled = profiled
        #: Dynamic-extra sites in emission order; each entry is the index
        #: of the instruction the site's cycles belong to (see
        #: :class:`repro.avr.profiler.BlockStatic`).
        self.sites: List[int] = []
        self.cur_ic = 0
        self.lines: List[str] = []
        self.ind = 2  # 4-space units; the body sits inside ``def`` + ``try``
        #: Whether the current instruction took the ``pp`` pending snapshot.
        self.have_pp = False
        #: Pointer-pair caches (base register -> local ``p26``/``p28``/``p30``
        #: holds the 16-bit pointer).  Validity is tracked at compile time:
        #: established on first use, maintained by the pre/post-update
        #: emitters, reloaded after I/O escapes and dropped when an
        #: instruction writes the pair directly.
        self.ptrs: Dict[int, bool] = {}
        #: ``(first line index, instruction index)`` markers; compiled into
        #: the line-number -> instruction map the exception sync uses, so
        #: instruction bodies carry no ``ic`` bookkeeping at all.
        self.marks: List[Tuple[int, int]] = []

    def mark(self, ic: int) -> None:
        self.marks.append((len(self.lines), ic))
        self.cur_ic = ic

    def extra(self, amount: str) -> None:
        """Emit a dynamic-extra cycle update (``x += amount``).

        In profiled blocks the same amount is also accumulated into this
        site's slot of the block's tally list, so the profiler can later
        attribute the extra cycles to the owning instruction's group/PC.
        """
        self.w(f"x += {amount}")
        if self.profiled:
            slot = len(self.sites) + 1  # slot 0 is the block hit counter
            self.sites.append(self.cur_ic)
            self.w(f"bp[{slot}] += {amount}")

    def ptr_use(self, base: int) -> str:
        var = f"p{base}"
        if not self.ptrs.get(base):
            self.w(f"{var} = m[{base}] | (m[{base + 1}] << 8)")
            self.ptrs[base] = True
        return var

    def w(self, line: str) -> None:
        self.lines.append("    " * self.ind + line)

    # -- state-access hooks -------------------------------------------------
    # Every emitter goes through these instead of hard-coding ``m[...]`` /
    # ``sreg = ...`` strings, so a subclass (the superblock compiler in
    # :mod:`repro.avr.trace`) can re-target registers to locals, elide dead
    # flag computations and turn the bounds check of a memory access into a
    # side exit.  The base implementations reproduce the historical fast
    # engine code exactly.

    def reg(self, i: int) -> str:
        """Expression reading register *i*."""
        return f"m[{i}]"

    def wreg(self, i: int, expr: str) -> None:
        """Statement writing *expr* to register *i*."""
        self.w(f"m[{i}] = {expr}")

    def sp_load(self) -> None:
        """Bring the stack pointer into the local ``sp``."""
        self.w("sp = m[0x5D] | (m[0x5E] << 8)")

    def sp_store(self) -> None:
        """Write the local ``sp`` back to the SPL/SPH bytes."""
        self.w("m[0x5D] = sp & 0xFF; m[0x5E] = sp >> 8")

    def ptr_sync(self, base: int) -> None:
        """Write a pointer-pair local back to its register bytes."""
        var = f"p{base}"
        self.w(f"m[{base}] = {var} & 0xFF; m[{base + 1}] = {var} >> 8")

    def ptr_invalidate(self, base: int) -> None:
        """An instruction wrote a pointer byte directly: drop the pair."""
        self.ptrs[base] = False

    def precheck(self, addr: str) -> None:
        """Hook before an instruction commits state around a memory access.

        No-op here: the base :meth:`mem_read`/:meth:`mem_write` carry their
        own bounds check with an I/O escape.  The superblock compiler emits
        a side exit instead, and it must fire *before* any architectural
        state (pre-decremented pointers, the pushed-to SP) is modified.
        """

    def flag_need(self, written: int) -> int:
        """Subset of the *written* SREG bits whose values must materialize.

        The base engine materializes every written flag.  The superblock
        compiler intersects with the liveness of the following code — a
        flag overwritten before any possible reader need not be computed.
        Emitting more bits than strictly needed is always correct.
        """
        return written

    def sreg_set(self, written: int, parts, need: int) -> None:
        """Assign SREG from *parts*: ``(bit_mask, expr)`` pairs.

        *written* is the union of bits the instruction architecturally
        writes; *need* (a subset, from :meth:`flag_need`) selects which are
        materialized.  An expr of ``None`` means the bit is forced to zero
        (covered by the keep-mask).  With ``need == 0`` no code is emitted.
        """
        if not need:
            return
        exprs = [e for bit, e in parts if (need & bit) and e is not None]
        keep = ~need & 0xFF
        if keep:
            exprs.insert(0, f"(sreg & {'0x%02X' % keep})")
        if len(exprs) == 1:
            self.w(f"sreg = {exprs[0]}")
        else:
            self.w("sreg = (" + " | ".join(exprs) + ")")

    def mac_sched(self, expr: str) -> None:
        """Append the two nibbles of loaded byte *expr* to the MAC queue."""
        self.w(f"pend += ({expr} & 0xF, {expr} >> 4)")
        self.w("pl += 2")

    def mac_load_trigger(self, expr: str) -> None:
        """Algorithm 2: a load into R24 schedules two nibble MACs."""
        self.w("if lden:")
        self.ind += 1
        self.mac_sched(expr)
        self.ind -= 1

    def mac_swap_snoop(self, expr: str) -> None:
        """Algorithm 1: the MAC snoops SWAP, multiplying by the low nibble."""
        self.w("if swen:")
        self.ind += 1
        self.mac_issue(expr)
        self.ind -= 1

    def mac_flush_low(self) -> None:
        """Flush the lazy accumulator before a direct R0..R8 access."""
        self.w("if dirty:")
        self.w(f"    m[0:9] = (acc & {_ACC_MASK}).to_bytes(9, 'little')")
        self.w("    dirty = False")

    def mac_invalidate_mulc(self) -> None:
        """An instruction wrote R16..R19: the cached multiplicand is stale."""
        self.w("mok = False")

    # -- shared fragments ---------------------------------------------------

    def escape(self, *calls: str) -> None:
        """Emit data/I-O-space call(s) with full machine-state sync.

        The interpreter's hooks observe the architectural state (the SREG
        byte, the MAC accumulator in R0..R8, MACCR control bits), and an OUT
        to MACCR may reset the MAC mid-block — so every block-local cache is
        flushed before the call and reloaded after it.
        """
        self.w("sregobj.value = sreg")
        if self.ise:
            self.w("if dirty:")
            self.w(f"    m[0:9] = (acc & {_ACC_MASK})"
                   ".to_bytes(9, 'little')")
            self.w("    dirty = False")
            self.w("mac.counter = mc")
            self.w("if mops:")
            self.w("    mac.mac_ops += mops")
            self.w("    mops = 0")
        for call in calls:
            self.w(call)
        self.w("sreg = sregobj.value")
        if self.ise:
            self.w("mc = mac.counter")
            self.w("pl = len(pend)")
            self.w("swen = mac.swap_enabled")
            self.w("lden = mac.load_enabled")
            self.w("mok = False")
        # A write into 0x00..0x1F may have retargeted a pointer pair; the
        # locals keep the pre-call values (which in-flight pointer updates
        # must use, as the interpreter fetches the pointer once), so only
        # the caches' compile-time validity is dropped.
        for base in self.ptrs:
            self.ptrs[base] = False

    def mem_read(self, dest: str, addr: str, wrap: bool = False) -> None:
        """``dest = data_space[addr]`` with the I/O/bounds fallback.

        With ``wrap``, *addr* may exceed 0xFFFF by a displacement; the
        wrapped address is then < 0x5F, so only the fallback re-masks.
        """
        mask = " & 0xFFFF" if wrap else ""
        self.w(f"if 0x5F < {addr} < {self.size}:")
        self.w(f"    {dest} = m[{addr}]")
        self.w("else:")
        self.ind += 1
        self.escape(f"{dest} = data.read({addr}{mask})")
        self.ind -= 1

    def mem_write(self, addr: str, value: str, wrap: bool = False) -> None:
        mask = " & 0xFFFF" if wrap else ""
        self.w(f"if 0x5F < {addr} < {self.size}:")
        self.w(f"    m[{addr}] = {value}")
        self.w("else:")
        self.ind += 1
        self.escape(f"data.write({addr}{mask}, {value})")
        self.ind -= 1

    def _mac_lazy(self) -> None:
        """Lazy-load the ``acc``/``dirty`` and ``mulc``/``mok`` caches."""
        self.w("if not dirty:")
        self.w("    acc = int.from_bytes(m[0:9], 'little')")
        self.w("    dirty = True")
        self.w("if not mok:")
        self.w(f"    mulc = {self.reg(16)} | ({self.reg(17)} << 8)"
               f" | ({self.reg(18)} << 16) | ({self.reg(19)} << 24)")
        self.w("    mok = True")

    def mac_issue(self, nibble_expr: str = "", from_pend: bool = False
                  ) -> None:
        """Inline ``MacUnit.issue_nibble`` (nibble already in 0..15).

        The accumulator lives in the block-local ``acc`` while ``dirty``
        (R0..R8 then hold the pre-load bytes); the multiplicand is cached in
        ``mulc`` while ``mok``.  Both load lazily so blocks with no MAC
        traffic never pay for them.  The 72-bit wrap is deferred to the
        flush sites (addition commutes with reduction mod 2**72), so an
        issue is adds and shifts only.  With *from_pend* the nibble is
        dequeued from the front of the pending queue.
        """
        self._mac_lazy()
        if from_pend:
            self.w("pl -= 1")
            nibble_expr = "pend.pop(0)"
        self.w(f"acc += (mulc * ({nibble_expr})) << (mc << 2)")
        self.w("mc = (mc + 1) & 7")
        self.w("mops += 1")

    def drains(self, cycles: int) -> None:
        """Post-execution drains: ``min(cycles, pre_pending)`` nibble MACs.

        The pre-execution pending count caps the drain: for instructions
        that cannot append (everything but a trigger load) it equals ``pl``
        at this point, so no snapshot is needed; trigger loads and hazard
        checks take the ``pp`` snapshot in :meth:`hazards`.  The ``pl``
        re-check mirrors ``drain_one``'s empty guard — an OUT to MACCR with
        the reset bit clears the pending queue mid-instruction.
        """
        if not self.ise:
            return
        cap = "pp" if self.have_pp else "pl"
        if cycles == 1:
            self.w(f"if pp and pl:" if self.have_pp else "if pl:")
            self.ind += 1
            self.mac_issue(from_pend=True)
            self.ind -= 1
        else:
            self.w(f"for _q in range(min({cycles}, {cap})):")
            self.ind += 1
            self.w("if not pl:")
            self.w("    break")
            self.mac_issue(from_pend=True)
            self.ind -= 1

    def hazards(self, pc: int, spec: InstructionSpec, ops: dict) -> None:
        """Pre-execution MAC hazard check; the conflict verdict is
        compile-time, only the pending count is tested at runtime."""
        if not self.ise:
            return
        self.have_pp = conflicts_with_mac(spec.name, ops)
        if not self.have_pp:
            return
        self.w("pp = pl")
        if spec.name in _LOAD_NAMES and ops.get("d") == 24:
            self.w("if pp > 1:")
            self.w("    raise MacHazardError(")
            self.w(f"        f\"MAC issue-rate exceeded at pc={pc:#06x}:"
                   " {pp} nibble MACs still pending\")")
        else:
            self.w("if pp:")
            self.w("    raise MacHazardError(")
            self.w(f"        f\"{spec.name} touches MAC-owned registers"
                   f" at pc={pc:#06x} while "
                   "{pp} MAC(s) pending\")")


# ---------------------------------------------------------------------------
# Per-semantics emitters.  Each writes the exact state updates of the
# corresponding executor in repro.avr.instructions, with operands folded to
# constants.  SREG bit layout: C=0 Z=1 N=2 V=3 S=4 H=5 T=6 I=7.
# ---------------------------------------------------------------------------


def _emit_add(g, ops, carry: bool):
    d, r = ops["d"], ops["r"]
    g.w(f"a = {g.reg(d)}; b = {g.reg(r)}")
    if carry:
        g.w("c = sreg & 1")
        g.w("t = a + b + c")
    else:
        g.w("t = a + b")
    g.w("r_ = t & 0xFF")
    g.wreg(d, "r_")
    c = "c" if carry else "0"
    need = g.flag_need(0x3F)
    if need & 0x18:
        g.w("v = ((a ^ r_) & (b ^ r_) & 0x80) >> 7")
    if need & 0x1C:
        g.w("n = r_ >> 7")
    g.sreg_set(0x3F, [
        (0x20, f"((((a & 0xF) + (b & 0xF) + {c}) >> 4) & 1) << 5"),
        (0x10, "(n ^ v) << 4"),
        (0x08, "v << 3"),
        (0x04, "n << 2"),
        (0x02, "(0 if r_ else 2)"),
        (0x01, "t >> 8"),
    ], need)


def _emit_sub(g, ops, carry: bool, imm: bool, store: bool):
    # SUB/SBC/SUBI/SBCI/CP/CPC/CPI; the with-carry forms keep Z (only ever
    # clear it), which is what makes multi-byte compares work.
    d = ops["d"]
    b = str(ops["K"]) if imm else g.reg(ops["r"])
    g.w(f"a = {g.reg(d)}; b = {b}")
    if carry:
        g.w("c = sreg & 1")
        g.w("r_ = (a - b - c) & 0xFF")
    else:
        g.w("r_ = (a - b) & 0xFF")
    if store:
        g.wreg(d, "r_")
    c = "c" if carry else "0"
    z = "(0 if r_ else (sreg & 2))" if carry else "(0 if r_ else 2)"
    need = g.flag_need(0x3F)
    if need & 0x18:
        g.w("v = ((a ^ b) & (a ^ r_) & 0x80) >> 7")
    if need & 0x1C:
        g.w("n = r_ >> 7")
    g.sreg_set(0x3F, [
        (0x20, f"(1 if (b & 0xF) + {c} > (a & 0xF) else 0) << 5"),
        (0x10, "(n ^ v) << 4"),
        (0x08, "v << 3"),
        (0x04, "n << 2"),
        (0x02, z),
        (0x01, f"(1 if b + {c} > a else 0)"),
    ], need)


def _emit_adiw(g, ops, sub: bool):
    d, K = ops["d"], ops["K"]
    g.w(f"p = {g.reg(d)} | ({g.reg(d + 1)} << 8)")
    need = g.flag_need(0x1F)
    if sub:
        g.w(f"r_ = (p - {K}) & 0xFFFF")
        if need & 0x01:
            g.w(f"cf = 1 if {K} > p else 0")
        if need & 0x18:
            g.w("v = (p & ~r_ & 0x8000) >> 15")
    else:
        g.w(f"t = p + {K}")
        g.w("r_ = t & 0xFFFF")
        if need & 0x01:
            g.w("cf = 1 if t > 0xFFFF else 0")
        if need & 0x18:
            g.w("v = (~p & r_ & 0x8000) >> 15")
    g.wreg(d, "r_ & 0xFF")
    g.wreg(d + 1, "r_ >> 8")
    if need & 0x1C:
        g.w("n = r_ >> 15")
    g.sreg_set(0x1F, [
        (0x10, "(n ^ v) << 4"),
        (0x08, "v << 3"),
        (0x04, "n << 2"),
        (0x02, "(0 if r_ else 2)"),
        (0x01, "cf"),
    ], need)


def _emit_logic(g, ops, op: str, imm: bool):
    d = ops["d"]
    b = str(ops["K"]) if imm else g.reg(ops["r"])
    g.w(f"r_ = {g.reg(d)} {op} {b}")
    g.wreg(d, "r_")
    need = g.flag_need(0x1E)
    if need & 0x14:
        g.w("n = r_ >> 7")
    g.sreg_set(0x1E, [
        (0x10, "n << 4"),
        (0x08, None),
        (0x04, "n << 2"),
        (0x02, "(0 if r_ else 2)"),
    ], need)


def _emit_com(g, ops):
    d = ops["d"]
    g.w(f"r_ = ~{g.reg(d)} & 0xFF")
    g.wreg(d, "r_")
    need = g.flag_need(0x1F)
    if need & 0x14:
        g.w("n = r_ >> 7")
    g.sreg_set(0x1F, [
        (0x10, "n << 4"),
        (0x08, None),
        (0x04, "n << 2"),
        (0x02, "(0 if r_ else 2)"),
        (0x01, "1"),
    ], need)


def _emit_neg(g, ops):
    d = ops["d"]
    g.w(f"a = {g.reg(d)}")
    g.w("r_ = -a & 0xFF")
    g.wreg(d, "r_")
    need = g.flag_need(0x3F)
    if need & 0x1C:
        g.w("n = r_ >> 7")
    if need & 0x18:
        g.w("v = 1 if r_ == 0x80 else 0")
    g.sreg_set(0x3F, [
        (0x20, "(((r_ >> 3) | (a >> 3)) & 1) << 5"),
        (0x10, "(n ^ v) << 4"),
        (0x08, "v << 3"),
        (0x04, "n << 2"),
        (0x02, "(0 if r_ else 2)"),
        (0x01, "(1 if r_ else 0)"),
    ], need)


def _emit_incdec(g, ops, dec: bool):
    d = ops["d"]
    g.w(f"r_ = ({g.reg(d)} {'-' if dec else '+'} 1) & 0xFF")
    g.wreg(d, "r_")
    need = g.flag_need(0x1E)
    if need & 0x1C:
        g.w("n = r_ >> 7")
    if need & 0x18:
        g.w(f"v = 1 if r_ == {'0x7F' if dec else '0x80'} else 0")
    g.sreg_set(0x1E, [
        (0x10, "(n ^ v) << 4"),
        (0x08, "v << 3"),
        (0x04, "n << 2"),
        (0x02, "(0 if r_ else 2)"),
    ], need)


def _emit_shift(g, ops, kind: str):
    d = ops["d"]
    g.w(f"a = {g.reg(d)}")
    if kind == "lsr":
        g.w("r_ = a >> 1")
    elif kind == "ror":
        g.w("r_ = (a >> 1) | ((sreg & 1) << 7)")
    else:  # asr
        g.w("r_ = (a >> 1) | (a & 0x80)")
    need = g.flag_need(0x1F)
    if need & 0x0C:
        g.w("n = 0" if kind == "lsr" else "n = r_ >> 7")
    g.wreg(d, "r_")
    if need & 0x19:
        g.w("co = a & 1")
    # flags_shift_right: C = carry out, V = N ^ C, S = N ^ V = C.
    g.sreg_set(0x1F, [
        (0x10, "co << 4"),
        (0x08, "(n ^ co) << 3"),
        (0x04, "n << 2"),
        (0x02, "(0 if r_ else 2)"),
        (0x01, "co"),
    ], need)


def _emit_swap(g, ops):
    d = ops["d"]
    g.w(f"a = {g.reg(d)}")
    g.wreg(d, "(a << 4 | a >> 4) & 0xFF")
    if g.ise:
        # Algorithm 1: the MAC snoops SWAP and multiplies by the register's
        # low nibble *before* the exchange.
        g.mac_swap_snoop("a & 0xF")


def _emit_mul(g, ops, kind: str):
    d, r = ops["d"], ops["r"]
    rd, rr = g.reg(d), g.reg(r)
    sa = f"({rd} - 256 if {rd} & 0x80 else {rd})"
    sb = f"({rr} - 256 if {rr} & 0x80 else {rr})"
    if kind in ("mul", "fmul"):
        g.w(f"p = {rd} * {rr}")
    elif kind in ("muls", "fmuls"):
        g.w(f"p = ({sa} * {sb}) & 0xFFFF")
    else:  # mulsu, fmulsu
        g.w(f"p = ({sa} * {rr}) & 0xFFFF")
    need = g.flag_need(0x03)
    if kind.startswith("f"):
        if need & 0x01:
            g.w("cf = (p >> 15) & 1")
        g.w("p = (p << 1) & 0xFFFF")
        g.wreg(0, "p & 0xFF")
        g.wreg(1, "p >> 8")
        g.sreg_set(0x03, [(0x02, "(0 if p else 2)"), (0x01, "cf")], need)
    else:
        g.wreg(0, "p & 0xFF")
        g.wreg(1, "(p >> 8) & 0xFF")
        g.sreg_set(0x03, [(0x02, "(0 if p & 0xFFFF else 2)"),
                          (0x01, "((p >> 15) & 1)")], need)


def _emit_load_tail(g, ops, sem: str) -> None:
    """Common tail of every true load: write Rd, schedule MACs if R24."""
    d = ops["d"]
    g.wreg(d, "v")
    if g.ise and d == 24 and sem in _MAC_LOAD_SEMS:
        # Algorithm 2: a load into R24 schedules two nibble MACs, drained
        # one per cycle by the instructions that follow.
        g.mac_load_trigger("v")


def _emit_ld_indirect(g, ops, sem: str):
    ptr, pre_dec, post_inc = _INDIRECT[sem]
    pv = g.ptr_use(ptr)
    if pre_dec:
        # Address first: a superblock side exit must fire before the
        # pointer pair is architecturally modified.
        g.w(f"A = ({pv} - 1) & 0xFFFF")
        g.precheck("A")
        g.w(f"{pv} = A")
        g.ptr_sync(ptr)
        g.mem_read("v", pv)
    else:
        g.precheck(pv)
        g.mem_read("v", pv)
    _emit_load_tail(g, ops, sem)
    if post_inc:
        # After the destination write, so `ld r26, X+` matches step().
        g.w(f"{pv} = ({pv} + 1) & 0xFFFF")
        g.ptr_sync(ptr)


def _emit_ldd(g, ops, sem: str):
    ptr = 28 if sem == "ldd_y" else 30
    pv = g.ptr_use(ptr)
    if ops["q"]:
        # The unmasked sum only differs from the wrapped address when it
        # exceeds 0xFFFF — and then both land in the fallback (the wrapped
        # value is < 0x5F), which re-masks.
        g.w(f"A = {pv} + {ops['q']}")
        g.precheck("A")
        g.mem_read("v", "A", wrap=True)
    else:
        g.precheck(pv)
        g.mem_read("v", pv)
    _emit_load_tail(g, ops, sem)


def _emit_lds(g, ops):
    k = ops["k"]
    if 0x5F < k < g.size:
        g.w(f"v = m[{k}]")
    else:
        g.escape(f"v = data.read({k})")
    _emit_load_tail(g, ops, "lds")


def _emit_st_indirect(g, ops, sem: str):
    ptr, pre_dec, post_inc = _INDIRECT[sem]
    pv = g.ptr_use(ptr)
    if pre_dec:
        g.w(f"A = ({pv} - 1) & 0xFFFF")
        g.precheck("A")
        g.w(f"{pv} = A")
        g.ptr_sync(ptr)
    else:
        g.precheck(pv)
    g.mem_write(pv, g.reg(ops["d"]))
    if post_inc:
        g.w(f"{pv} = ({pv} + 1) & 0xFFFF")
        g.ptr_sync(ptr)


def _emit_std(g, ops, sem: str):
    ptr = 28 if sem == "std_y" else 30
    pv = g.ptr_use(ptr)
    if ops["q"]:
        g.w(f"A = {pv} + {ops['q']}")
        g.precheck("A")
        g.mem_write("A", g.reg(ops["d"]), wrap=True)
    else:
        g.precheck(pv)
        g.mem_write(pv, g.reg(ops["d"]))


def _emit_sts(g, ops):
    k = ops["k"]
    if 0x5F < k < g.size:
        g.w(f"m[{k}] = {g.reg(ops['d'])}")
    else:
        g.escape(f"data.write({k}, m[{ops['d']}])")


def _emit_push(g, ops):
    g.sp_load()
    g.precheck("sp")
    g.mem_write("sp", g.reg(ops["d"]))
    g.w("sp = (sp - 1) & 0xFFFF")
    g.sp_store()


def _emit_pop(g, ops):
    g.sp_load()
    g.w("A = (sp + 1) & 0xFFFF")
    g.precheck("A")
    g.w("sp = A")
    g.sp_store()
    g.mem_read("v", "A")
    g.wreg(ops["d"], "v")


def _emit_in(g, ops):
    if ops["A"] == 0x3F:  # SREG is served from the live local
        g.wreg(ops["d"], "sreg")
    else:
        g.escape(f"m[{ops['d']}] = data.io_read({ops['A']})")


def _emit_out(g, ops):
    if ops["A"] == 0x3F:
        g.w(f"v = {g.reg(ops['d'])}")
        g.w("m[0x5F] = v")
        g.w("sreg = v")
    else:
        g.escape(f"data.io_write({ops['A']}, m[{ops['d']}])")


def _emit_sbi_cbi(g, ops, set_bit: bool):
    A, b = ops["A"], ops["b"]
    if set_bit:
        g.escape(f"data.io_write({A}, data.io_read({A}) | {1 << b})")
    else:
        g.escape(
            f"data.io_write({A}, data.io_read({A}) & {~(1 << b) & 0xFF})")


def _emit_lpm(g, ops, sem: str):
    pv = g.ptr_use(30)
    dest = 0 if sem == "lpm_r0" else ops["d"]
    g.wreg(dest, f"prog.read_byte({pv})")
    if sem == "lpm_zp":
        g.w(f"{pv} = ({pv} + 1) & 0xFFFF")
        g.ptr_sync(30)


def _emit_push_return(g, return_pc: int) -> None:
    # Big-endian on the stack, high byte deeper, matching _push_return.
    # Both addresses are checked before either write commits, so a
    # superblock side exit cannot leave a half-pushed return address.
    g.sp_load()
    g.w("A = (sp - 1) & 0xFFFF")
    g.precheck("sp")
    g.precheck("A")
    g.mem_write("sp", str(return_pc & 0xFF))
    g.mem_write("A", str((return_pc >> 8) & 0xFF))
    g.w("sp = (sp - 2) & 0xFFFF")
    g.sp_store()


def _emit_pop_return(g) -> None:
    g.sp_load()
    g.w("A = (sp + 1) & 0xFFFF")
    g.precheck("A")
    g.mem_read("hi", "A")
    g.w("A = (sp + 2) & 0xFFFF")
    g.precheck("A")
    g.mem_read("lo", "A")
    g.w("sp = A")
    g.sp_store()
    g.w("npc = (hi << 8) | lo")


# ---------------------------------------------------------------------------
# Block scanning and compilation
# ---------------------------------------------------------------------------


def _scan(core, start_pc: int):
    """Collect the basic block at *start_pc*.

    Returns ``(instrs, next_pc, illegal, key_words)`` where *instrs* is a
    list of ``(pc, spec, ops)``, *next_pc* is the fall-through address and
    *illegal* marks a decode failure at *next_pc* (the block ends just
    before it and re-raises through ``decode_at`` at runtime).
    """
    prog = core.program
    instrs: List[Tuple[int, InstructionSpec, dict]] = []
    key_words: List[int] = []
    pc = start_pc
    illegal = False
    while len(instrs) < MAX_BLOCK_INSTRUCTIONS:
        try:
            spec, ops, words = core.decode_at(pc)
        except Exception:
            illegal = True
            break
        for w in range(words):
            key_words.append(prog.fetch(pc + w))
        instrs.append((pc, spec, ops))
        pc += words
        if spec.semantics in _ENDERS:
            break
    return instrs, pc, illegal, key_words


def _emit_instruction(g: _Gen, i: int, pc: int, spec: InstructionSpec,
                      ops: dict, cyc: int,
                      skip_lookahead: Optional[int]) -> None:
    """Emit one instruction: hazards, inlined semantics, MAC drains and (for
    terminators) the ``npc`` assignment plus dynamic cycle extras."""
    sem = spec.semantics
    g.mark(i)
    g.hazards(pc, spec, ops)
    if g.ise and any(v <= 8 for v in _touched_regs(sem, ops)):
        # The instruction reads or writes accumulator registers directly:
        # R0..R8 must hold the truth before its body runs.  Writes are then
        # live in ``m``, so the cache stays invalid until the next MAC.
        g.mac_flush_low()

    if sem in ("add", "adc"):
        _emit_add(g, ops, carry=(sem == "adc"))
    elif sem in ("sub", "sbc", "cp", "cpc"):
        _emit_sub(g, ops, carry=sem in ("sbc", "cpc"), imm=False,
                  store=sem in ("sub", "sbc"))
    elif sem in ("subi", "sbci", "cpi"):
        _emit_sub(g, ops, carry=(sem == "sbci"), imm=True,
                  store=sem in ("subi", "sbci"))
    elif sem in ("adiw", "sbiw"):
        _emit_adiw(g, ops, sub=(sem == "sbiw"))
    elif sem in ("and", "andi"):
        _emit_logic(g, ops, "&", imm=sem.endswith("i"))
    elif sem in ("or", "ori"):
        _emit_logic(g, ops, "|", imm=sem.endswith("i"))
    elif sem == "eor":
        _emit_logic(g, ops, "^", imm=False)
    elif sem == "com":
        _emit_com(g, ops)
    elif sem == "neg":
        _emit_neg(g, ops)
    elif sem in ("inc", "dec"):
        _emit_incdec(g, ops, dec=(sem == "dec"))
    elif sem in ("lsr", "ror", "asr"):
        _emit_shift(g, ops, sem)
    elif sem == "swap":
        _emit_swap(g, ops)
    elif sem == "bld":
        d, b = ops["d"], ops["b"]
        rd = g.reg(d)
        g.wreg(d, f"({rd} | {1 << b}) if sreg & 0x40"
                  f" else {rd} & {~(1 << b) & 0xFF}")
    elif sem == "bst":
        if g.flag_need(0x40):
            g.w(f"sreg = (sreg | 0x40) if {g.reg(ops['d'])}"
                f" >> {ops['b']} & 1 else sreg & 0xBF")
    elif sem == "bset":
        if g.flag_need(1 << ops["s"]):
            g.w(f"sreg |= {1 << ops['s']}")
    elif sem == "bclr":
        if g.flag_need(1 << ops["s"]):
            g.w(f"sreg &= {~(1 << ops['s']) & 0xFF}")
    elif sem in ("mul", "muls", "mulsu", "fmul", "fmuls", "fmulsu"):
        _emit_mul(g, ops, sem)
    elif sem == "mov":
        g.wreg(ops["d"], g.reg(ops["r"]))
    elif sem == "movw":
        d, r = ops["d"], ops["r"]
        g.wreg(d, g.reg(r))
        g.wreg(d + 1, g.reg(r + 1))
    elif sem == "ldi":
        g.wreg(ops["d"], str(ops["K"]))
    elif sem == "lds":
        _emit_lds(g, ops)
    elif sem in _INDIRECT and sem.startswith("ld"):
        _emit_ld_indirect(g, ops, sem)
    elif sem in ("ldd_y", "ldd_z"):
        _emit_ldd(g, ops, sem)
    elif sem == "sts":
        _emit_sts(g, ops)
    elif sem in _INDIRECT:
        _emit_st_indirect(g, ops, sem)
    elif sem in ("std_y", "std_z"):
        _emit_std(g, ops, sem)
    elif sem == "push":
        _emit_push(g, ops)
    elif sem == "pop":
        _emit_pop(g, ops)
    elif sem == "in":
        _emit_in(g, ops)
    elif sem == "out":
        _emit_out(g, ops)
    elif sem == "sbi":
        _emit_sbi_cbi(g, ops, set_bit=True)
    elif sem == "cbi":
        _emit_sbi_cbi(g, ops, set_bit=False)
    elif sem in ("lpm_r0", "lpm_z", "lpm_zp"):
        _emit_lpm(g, ops, sem)
    elif sem == "nop":
        g.w("pass")
    elif sem == "break":
        g.w("core.halted = True")
        g.w(f"npc = {pc}")
    elif sem == "rjmp":
        g.w(f"npc = {pc + 1 + sign_extend(ops['k'], 12)}")
    elif sem == "jmp":
        g.w(f"npc = {ops['k']}")
    elif sem == "ijmp":
        g.w(f"npc = {g.reg(30)} | ({g.reg(31)} << 8)")
    elif sem == "rcall":
        _emit_push_return(g, pc + 1)
        g.w(f"npc = {pc + 1 + sign_extend(ops['k'], 12)}")
    elif sem == "call":
        _emit_push_return(g, pc + 2)
        g.w(f"npc = {ops['k']}")
    elif sem == "icall":
        _emit_push_return(g, pc + 1)
        g.w(f"npc = {g.reg(30)} | ({g.reg(31)} << 8)")
    elif sem in ("ret", "reti"):
        if sem == "reti":
            # step() sets I before the stack pops (exception-order parity).
            g.w("sreg |= 0x80")
        _emit_pop_return(g)
    elif sem in ("brbs", "brbc"):
        target = pc + 1 + sign_extend(ops["k"], 7)
        cond = f"sreg >> {ops['s']} & 1"
        g.w(f"if {cond}:" if sem == "brbs" else f"if not ({cond}):")
        g.ind += 1
        g.extra("1")
        g.w(f"npc = {target}")
        g.drains(2)
        g.ind -= 1
        g.w("else:")
        g.ind += 1
        g.w(f"npc = {pc + 1}")
        g.drains(1)
        g.ind -= 1
    elif sem in ("cpse", "sbrc", "sbrs", "sbic", "sbis"):
        if sem == "cpse":
            cond = f"{g.reg(ops['d'])} == {g.reg(ops['r'])}"
        elif sem in ("sbrc", "sbrs"):
            bit = f"{g.reg(ops['d'])} >> {ops['b']} & 1"
            cond = f"not ({bit})" if sem == "sbrc" else bit
        else:
            g.escape(f"v = data.io_read({ops['A']})")
            bit = f"v >> {ops['b']} & 1"
            cond = f"not ({bit})" if sem == "sbic" else bit
        g.w(f"if {cond}:")
        g.ind += 1
        if skip_lookahead is None:
            # The skipped slot lies outside flash: reproduce the reference
            # interpreter's fetch error from the same state.
            g.w(f"prog.fetch({pc + 1})")
            g.w("raise AssertionError('unreachable')")
        else:
            g.extra(str(skip_lookahead))
            g.w(f"npc = {pc + 1 + skip_lookahead}")
            g.drains(1 + skip_lookahead)
        g.ind -= 1
        g.w("else:")
        g.ind += 1
        g.w(f"npc = {pc + 1}")
        g.drains(1)
        g.ind -= 1
    else:  # pragma: no cover - the ISA table is closed
        raise NotImplementedError(f"no emitter for semantics {sem!r}")

    written = _written_regs(sem, ops)
    if g.ise and any(16 <= v <= 19 for v in written):
        g.mac_invalidate_mulc()
    if sem in ("adiw", "sbiw") and ops["d"] in (26, 28, 30):
        # Pointer arithmetic: ``r_`` is the new pair value — refresh the
        # cache rather than dropping it.
        g.w(f"p{ops['d']} = r_")
        g.ptrs[ops["d"]] = True
    else:
        for v in written:
            if 26 <= v <= 31:
                g.ptr_invalidate(v & ~1)
    if sem not in _CONDITIONAL:
        g.drains(cyc)


def compile_block(core, start_pc: int, profiled: bool = False):
    """Compile (or fetch from the global cache) the block at *start_pc*.

    With *profiled*, the closure additionally bumps its hit counter and
    dynamic-extra site slots in ``core._engine_profile`` (one integer
    increment per block plus one per taken branch/skip), records
    partial executions on exceptions, and stamps call/return events —
    everything :meth:`repro.avr.profiler.EngineProfile.fold_into` needs to
    reproduce the reference interpreter's tallies exactly.
    """
    instrs, next_pc, illegal, key_words = _scan(core, start_pc)
    mode, size = core.mode, core.data.size

    if not instrs:
        # Decode fails immediately: delegate to decode_at at runtime so the
        # exception type, message and architectural state match step().
        def _illegal_block(core):
            core.decode_at(start_pc)
            raise AssertionError(  # pragma: no cover - decode_at must raise
                f"stale illegal block at {start_pc:#06x}")

        _illegal_block._prof_static = None
        return _illegal_block

    # Skip terminators need the skipped instruction's word count; at the
    # flash boundary the fetch is deferred to runtime (it must raise there).
    skip_lookahead: Optional[int] = None
    last_pc, last_spec, _ = instrs[-1]
    if last_spec.semantics in ("cpse", "sbrc", "sbrs", "sbic", "sbis"):
        try:
            word = core.program.fetch(last_pc + 1)
        except IndexError:
            key_words.append(-1)
        else:
            skip_lookahead = instruction_words(word)
            key_words.append(word)

    key = (start_pc, mode, size, illegal, profiled, tuple(key_words))
    fn = _CACHE.get(key)
    if fn is not None:
        _M_CACHE_HITS.inc()
        return fn

    g = _Gen(mode, size, profiled)
    cycles = [base_cycles(spec, mode) for _, spec, _ in instrs]
    cyc_before = [0]
    for c in cycles:
        cyc_before.append(cyc_before[-1] + c)
    pcs = [pc for pc, _, _ in instrs] + [next_pc]

    for i, (pc, spec, ops) in enumerate(instrs):
        _emit_instruction(g, i, pc, spec, ops, cycles[i], skip_lookahead)
    last_sem = instrs[-1][1].semantics
    if profiled and last_sem in ("rcall", "call", "icall", "ret", "reti"):
        # Call/return terminators stamp a frame event with the core's cycle
        # count *after* this block retires — exactly the value the reference
        # interpreter passes to on_call/on_ret (both paths stamp post-retire,
        # so the attribution is cycle-identical).
        stamp = f"core.cycles + {cyc_before[-1]} + x"
        if last_sem in ("ret", "reti"):
            g.w(f"ep.events.append((1, 0, 0, {stamp}))")
        else:
            ret_pc = last_pc + (2 if last_sem == "call" else 1)
            g.w(f"ep.events.append((0, npc, {ret_pc}, {stamp}))")
    if last_sem not in _ENDERS:
        # Length-capped block or an illegal decode just past it.
        g.w(f"npc = {next_pc}")
        if illegal:
            # All emitted instructions completed: account for them in the
            # exception sync, then re-raise the exact decode error.
            g.mark(len(instrs))
            g.w(f"core.decode_at({next_pc})")

    # The ISE header/footer promote the MAC state into locals: ``mc`` (the
    # 3-bit counter), ``pl`` (pending-queue length), ``swen``/``lden``
    # (control bits), ``mops`` (nibble-MAC tally) and the lazily-loaded
    # ``acc``/``dirty`` and ``mulc``/``mok`` caches (see ``_Gen.mac_issue``).
    ise = mode is Mode.ISE
    mac_sync = (
        "        if dirty:\n"
        f"            m[0:9] = (acc & {_ACC_MASK}).to_bytes(9, 'little')\n"
        "        mac.counter = mc\n"
        "        if mops:\n"
        "            mac.mac_ops += mops\n"
    )
    body = "\n".join(g.lines)
    header = (
        "    data = core.data\n"
        "    m = data._mem\n"
        "    sregobj = core.sreg\n"
        "    sreg = sregobj.value\n"
        "    prog = core.program\n"
        + ("    mac = core.mac\n"
           "    pend = mac.pending\n"
           "    mc = mac.counter\n"
           "    pl = len(pend)\n"
           "    swen = mac.swap_enabled\n"
           "    lden = mac.load_enabled\n"
           "    mops = 0\n"
           "    dirty = False\n"
           "    mok = False\n" if ise else "")
        + ("    ep = core._engine_profile\n"
           f"    bp = ep.counts[{start_pc}]\n" if profiled else "")
        + "    x = 0\n"
    )
    # Instruction bodies carry no index bookkeeping; the exception sync
    # recovers the faulting instruction from the raise site's line number.
    # The first body line sits at ``def`` + header + ``try:`` + 1.
    base_line = header.count("\n") + 3
    line_to_ic = [0] * len(g.lines)
    for (start, icv), (end, _) in zip(g.marks,
                                      g.marks[1:] + [(len(g.lines), 0)]):
        for j in range(start, end):
            line_to_ic[j] = icv
    src = (
        "def _block(core):\n"
        + header
        + "    try:\n"
        f"{body}\n"
        "    except Exception as e:\n"
        f"        ic = _L2I[e.__traceback__.tb_lineno - {base_line}]\n"
        + (mac_sync if ise else "")
        + ("        ep.partials.append((" f"{start_pc}" ", ic))\n"
           if profiled else "")
        + "        sregobj.value = sreg\n"
        "        core.pc = _PCS[ic]\n"
        "        core.cycles += _CYC[ic] + x\n"
        "        core.instructions_retired += ic\n"
        "        raise\n"
        + (mac_sync.replace("        ", "    ") if ise else "")
        + ("    bp[0] += 1\n" if profiled else "")
        + "    sregobj.value = sreg\n"
        "    core.pc = npc\n"
        f"    core.cycles += {cyc_before[-1]} + x\n"
        f"    core.instructions_retired += {len(instrs)}\n"
    )
    gbl = {
        "MacHazardError": MacHazardError,
        "_PCS": tuple(pcs),
        "_CYC": tuple(cyc_before),
        "_L2I": tuple(line_to_ic),
    }
    code = compile(src, f"<avr-block@{start_pc:#06x}>", "exec")
    exec(code, gbl)
    fn = gbl["_block"]
    fn._source = src
    fn._n_instructions = len(instrs)
    if profiled:
        fn._prof_static = BlockStatic(
            tuple((pc, group_of(spec.name), cycles[i])
                  for i, (pc, spec, _) in enumerate(instrs)),
            tuple(g.sites))
    else:
        fn._prof_static = None
    _M_COMPILED.inc()
    if len(_CACHE) >= _CACHE_MAX:
        _CACHE.clear()
    _CACHE[key] = fn
    return fn


class FastEngine:
    """Per-core block dispatcher with version-keyed invalidation.

    With a profiler attached to the core, dispatch switches to a separate
    cache of *profiled* closures (same semantics, plus tally bookkeeping)
    and folds the raw block counts into the profiler when the run ends —
    including on exceptions, so a faulted run still reports every retired
    instruction.
    """

    def __init__(self, core):
        self.core = core
        self.blocks: Dict[int, object] = {}
        self.profiled_blocks: Dict[int, object] = {}
        self.version = -1

    def invalidate(self) -> None:
        """Drop all compiled blocks (flash changed under us)."""
        self.blocks.clear()
        self.profiled_blocks.clear()

    def step_block(self) -> None:
        """Execute exactly one compiled block from the current PC.

        The fault injector's stride: it advances in block units while a
        fault trigger is provably more than one block away, then switches
        to the reference :meth:`~repro.avr.core.AvrCore.step` for the
        final approach, so faults land on the same instruction boundary
        under either engine.  Unlike :meth:`run`, the flash version is
        re-checked on *every* call — a transient opcode corruption between
        blocks must invalidate before the next dispatch.  Unprofiled only
        (the injector rejects profiled cores).
        """
        core = self.core
        if core.program.version != self.version:
            self.invalidate()
            self.version = core.program.version
        pc = core.pc
        fn = self.blocks.get(pc)
        if fn is None:
            fn = compile_block(core, pc, False)
            self.blocks[pc] = fn
        fn(core)

    def run(self, max_steps: int = 50_000_000) -> int:
        core = self.core
        if core.program.version != self.version:
            self.invalidate()
            self.version = core.program.version
        profiler = core.profiler
        profiled = profiler is not None
        if profiled:
            ep = core._engine_profile
            if ep is None:
                ep = core._engine_profile = EngineProfile()
            blocks = self.profiled_blocks
        else:
            ep = None
            blocks = self.blocks
        blocks_get = blocks.get
        retired_start = core.instructions_retired
        try:
            while not core.halted:
                pc = core.pc
                fn = blocks_get(pc)
                if fn is None:
                    fn = compile_block(core, pc, profiled)
                    if profiled and fn._prof_static is not None:
                        ep.register(pc, fn._prof_static)
                    blocks[pc] = fn
                fn(core)
                if core.instructions_retired - retired_start > max_steps:
                    from .core import ExecutionError

                    raise ExecutionError(
                        f"step budget of {max_steps} exceeded"
                        f" at pc={core.pc:#06x}"
                    )
        finally:
            if profiled:
                ep.fold_into(profiler)
        return core.cycles
