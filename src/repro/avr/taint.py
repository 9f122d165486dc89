"""Dynamic secret-taint tracking over the ISS (DESIGN.md §9).

A :class:`TaintTracker` wraps an :class:`~repro.avr.core.AvrCore` and runs
it with a byte-granular taint shadow: callers mark secret bytes (e.g. the
scalar staged in SRAM), and every retired instruction propagates taint
through its destination registers, the SREG flags (tracked per flag bit)
and — in ISE mode — the (32 x 4)-bit MAC unit's accumulator and pending
nibble queue.  A **violation** is recorded whenever tainted data reaches

* a conditional-branch or skip decision (``BRBS``/``BRBC``/``CPSE``/
  ``SBRC``/``SBRS``/``SBIC``/``SBIS``, plus indirect jumps and tainted
  return addresses) — on this core every such decision also skews the
  cycle count, so each branch violation carries its ``cycle_skew``;
* a load/store address (including ``LPM`` program-memory table lookups
  and a tainted stack pointer).

This is the ctgrind/dudect tradition restated on the cycle-accurate ISS:
taint is an over-approximation (any tainted input taints the whole
output; constant results such as ``EOR d,d`` are recognised as public),
so a clean verdict is a strong constant-time argument for the exercised
trace, while each violation pinpoints PC, disassembly and the enclosing
CALL/RET routine.

Engine interaction: while any taint is live the tracker single-steps the
reference interpreter (the only place per-instruction propagation is
possible); whenever the shadow state is completely clean it executes
whole compiled blocks through the core's basic-block
:meth:`~repro.avr.engine.FastEngine.step_block` (superblocks carry no
taint hooks), unless the core was built with ``engine="reference"``.
Verdicts are therefore bit-identical under both engines by construction —
the parity tests assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import sreg as F
from .disasm import disassemble_one
from .isa import instruction_words
from .mac import MACCR_IO_ADDR, MACCR_RESET_COUNTER
from .memory import IO_BASE, IO_SREG, REG_X, REG_Y, REG_Z
from .profiler import SymbolIndex
from .timing import Mode

__all__ = ["TaintTracker", "TaintViolation", "TAINT_RULES"]

# Per-flag taint bits, aligned with the SREG bit numbers.
_FC, _FZ, _FN, _FV, _FS, _FH, _FT, _FI = (1 << b for b in range(8))

_ARITH = _FC | _FZ | _FN | _FV | _FS | _FH   # ADD/SUB/NEG family
_WORD = _FC | _FZ | _FN | _FV | _FS          # ADIW/SBIW
_SHIFT = _FC | _FZ | _FN | _FV | _FS         # LSR/ROR/ASR
_LOGIC = _FZ | _FN | _FS                     # AND/OR/EOR (V cleared)
_INCDEC = _FZ | _FN | _FV | _FS

# Data-space addresses of the memory-mapped CPU registers.
_SPL_DATA = IO_BASE + 0x3D
_SPH_DATA = IO_BASE + 0x3E
_SREG_DATA = IO_BASE + IO_SREG
_MACCR_DATA = IO_BASE + MACCR_IO_ADDR

#: Semantics that schedule MACs on a load into R24 (mirrors the core's
#: ``notify_load`` sites; POP never notifies).
_MAC_LOAD_SEMS = frozenset({
    "lds", "ld_x", "ld_xp", "ld_mx", "ld_yp", "ld_my", "ld_zp", "ld_mz",
    "ldd_y", "ldd_z",
})


@dataclass
class TaintViolation:
    """One distinct (kind, pc) site where taint reached a decision/address.

    ``kind`` is ``"branch"`` (conditional branch/skip decision, indirect
    jump target or return address) or ``"addr"`` (load/store/LPM address,
    tainted stack pointer).  ``cycle_skew`` is the extra cycles the taken
    path costs over the not-taken path (every skewed site is also a
    data-dependent cycle count); ``count`` tallies repeat hits.
    """

    kind: str
    pc: int
    instruction: str
    routine: str
    location: str
    detail: str
    cycle_skew: int = 0
    count: int = 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "pc": self.pc,
            "instruction": self.instruction,
            "routine": self.routine,
            "location": self.location,
            "detail": self.detail,
            "cycle_skew": self.cycle_skew,
            "count": self.count,
        }


TaintRule = Callable[["TaintTracker", "AvrCore", Dict[str, int]], None]

#: Semantics key -> taint-propagation rule, run *before* the executor (a
#: test asserts this table covers every key in ``EXECUTORS``).
TAINT_RULES: Dict[str, TaintRule] = {}


def _rule(*keys: str) -> Callable[[TaintRule], TaintRule]:
    def register(fn: TaintRule) -> TaintRule:
        for key in keys:
            TAINT_RULES[key] = fn
        return fn
    return register


class TaintTracker:
    """Taint shadow + violation recorder driving an :class:`AvrCore`."""

    def __init__(self, core, symbols: Optional[Dict[str, int]] = None):
        self.core = core
        #: One shadow byte per data-space byte (registers, I/O, SRAM).
        self.mem = bytearray(core.data.size)
        #: Per-flag SREG taint bitmask (bit numbers match ``repro.avr.sreg``).
        self.flags = 0
        #: Taint of the MAC unit's pending nibble queue (ISE mode).
        self.mac_pending: List[int] = []
        self._ise = core.mode is Mode.ISE
        self.symbols = SymbolIndex(symbols)
        #: Call stack of routine entry PCs (violation attribution).
        self._frames: List[int] = []
        #: (kind, pc) -> violation, in first-occurrence order.
        self._violations: Dict[Tuple[str, int], TaintViolation] = {}

    # -- marking / inspection ------------------------------------------------

    def mark_data(self, address: int, length: int = 1) -> None:
        """Mark *length* data-space bytes starting at *address* as secret."""
        if address < 0 or address + length > len(self.mem):
            raise IndexError("taint mark exceeds the data space")
        for i in range(address, address + length):
            self.mem[i] = 1

    def mark_register(self, index: int, count: int = 1) -> None:
        """Mark general-purpose registers (data addresses 0..31)."""
        if index < 0 or index + count > 32:
            raise IndexError("register taint mark out of range")
        self.mark_data(index, count)

    def clear(self) -> None:
        """Drop all taint (shadow bytes, flag bits, MAC queue)."""
        for i in range(len(self.mem)):
            self.mem[i] = 0
        self.flags = 0
        self.mac_pending.clear()

    def data_tainted(self, address: int, length: int = 1) -> bool:
        return any(self.mem[address:address + length])

    def register_tainted(self, index: int, count: int = 1) -> bool:
        return self.data_tainted(index, count)

    def flag_tainted(self, bit: int) -> bool:
        return bool((self.flags >> bit) & 1)

    def live_taint_bytes(self) -> int:
        return len(self.mem) - self.mem.count(0)

    def any_live(self) -> bool:
        """Is any taint live (shadow, flags or MAC queue)?"""
        if self.flags or self.mac_pending:
            return True
        return self.mem.count(0) != len(self.mem)

    @property
    def violations(self) -> List[TaintViolation]:
        return list(self._violations.values())

    def summary(self) -> Dict[str, int]:
        """Violation tallies: distinct sites, total hits, per kind, skewed."""
        vs = self._violations.values()
        return {
            "sites": len(self._violations),
            "hits": sum(v.count for v in vs),
            "branch": sum(1 for v in vs if v.kind == "branch"),
            "addr": sum(1 for v in vs if v.kind == "addr"),
            "cycle_skew_sites": sum(1 for v in vs if v.cycle_skew),
        }

    # -- internal helpers ----------------------------------------------------

    def _set_flags(self, mask: int, tainted: int) -> None:
        if tainted:
            self.flags |= mask
        else:
            self.flags &= ~mask

    def _flag_taint(self, bit: int) -> int:
        return (self.flags >> bit) & 1

    def _sp_taint(self) -> int:
        return self.mem[_SPL_DATA] | self.mem[_SPH_DATA]

    def _read_taint(self, address: int) -> int:
        """Taint of a data-space read (SREG reads see the flag taints)."""
        if address == _SREG_DATA:
            return 1 if self.flags else 0
        if 0 <= address < len(self.mem):
            return self.mem[address]
        return 0

    def _write_taint(self, address: int, tainted: int, value: int) -> None:
        """Shadow a data-space write; *value* is the byte being written
        (needed to mirror MACCR side effects on the taint queue)."""
        if 0 <= address < len(self.mem):
            self.mem[address] = tainted
        if address == _SREG_DATA:
            self.flags = 0xFF if tainted else 0
        elif self._ise and address == _MACCR_DATA:
            if value & MACCR_RESET_COUNTER:
                self.mac_pending.clear()

    def _taint_mac_acc(self, extra: int) -> None:
        """OR *extra* taint into the MAC accumulator registers R0..R8."""
        if extra:
            for i in range(9):
                self.mem[i] = 1

    def _mult_taint(self) -> int:
        m = self.mem
        return m[16] | m[17] | m[18] | m[19]

    def _violate(self, kind: str, detail: str, cycle_skew: int = 0) -> None:
        pc = self.core.pc
        key = (kind, pc)
        existing = self._violations.get(key)
        if existing is not None:
            existing.count += 1
            return
        words = self.core.program.words
        second = words[pc + 1] if pc + 1 < len(words) else None
        try:
            text, _ = disassemble_one(words[pc], second, address=pc)
        except Exception:
            text = "?"
        routine = (self.symbols.name_for(self._frames[-1])
                   if self._frames else "(top)")
        self._violations[key] = TaintViolation(
            kind=kind, pc=pc, instruction=text, routine=routine,
            location=self.symbols.name_for(pc), detail=detail,
            cycle_skew=cycle_skew,
        )

    def _skip_skew(self) -> int:
        """Cycles a taken skip adds: the words of the skipped instruction."""
        try:
            return instruction_words(self.core.program.fetch(self.core.pc + 1))
        except IndexError:
            return 1

    # -- stepping ------------------------------------------------------------

    def step(self) -> int:
        """Propagate taint for the next instruction, then execute it."""
        core = self.core
        spec, ops, _ = core.decode_at(core.pc)
        rule = TAINT_RULES.get(spec.semantics)
        if rule is not None:
            rule(self, core, ops)
        cycles = core.step()
        if self._ise and self.mac_pending:
            self._resync_mac()
        return cycles

    def _resync_mac(self) -> None:
        """Mirror the MACs the core drained this step into the accumulator
        taint (drained = our queue length minus the core's)."""
        pend = len(self.core.mac.pending)
        mult = self._mult_taint()
        while len(self.mac_pending) > pend:
            nibble = self.mac_pending.pop(0)
            self._taint_mac_acc(nibble | mult)

    def run(self, max_steps: int = 200_000_000) -> int:
        """Run to ``BREAK``: stepped while taint is live, compiled blocks
        (non-reference cores) while the shadow state is completely clean."""
        from .core import ExecutionError

        core = self.core
        compiled = core.engine != "reference"
        steps = 0
        while not core.halted:
            if self.any_live():
                self.step()
                steps += 1
            elif compiled:
                before = core.instructions_retired
                core.fast_engine.step_block()
                steps += core.instructions_retired - before
            else:
                core.step()
                steps += 1
            if steps > max_steps:
                raise ExecutionError(
                    f"taint-run step budget of {max_steps} exceeded "
                    f"at pc={core.pc:#06x}"
                )
        return core.cycles


# ---------------------------------------------------------------------------
# Propagation rules (run before the executor; see DESIGN.md §9)
# ---------------------------------------------------------------------------


@_rule("add")
def _t_add(tr, core, ops):
    t = tr.mem[ops["d"]] | tr.mem[ops["r"]]
    tr._set_flags(_ARITH, t)
    tr.mem[ops["d"]] = t


@_rule("adc")
def _t_adc(tr, core, ops):
    t = tr.mem[ops["d"]] | tr.mem[ops["r"]] | tr._flag_taint(F.C)
    tr._set_flags(_ARITH, t)
    tr.mem[ops["d"]] = t


@_rule("sub")
def _t_sub(tr, core, ops):
    # SUB d,d yields the constant 0 with constant flags.
    t = 0 if ops["d"] == ops["r"] else tr.mem[ops["d"]] | tr.mem[ops["r"]]
    tr._set_flags(_ARITH, t)
    tr.mem[ops["d"]] = t


@_rule("sbc")
def _t_sbc(tr, core, ops):
    # SBC d,d is the branchless mask idiom: the result is -C, so the only
    # dependence is the carry flag.
    if ops["d"] == ops["r"]:
        t = tr._flag_taint(F.C)
    else:
        t = tr.mem[ops["d"]] | tr.mem[ops["r"]] | tr._flag_taint(F.C)
    z = t | tr._flag_taint(F.Z)   # keep_z: old Z participates
    tr._set_flags(_ARITH & ~_FZ, t)
    tr._set_flags(_FZ, z)
    tr.mem[ops["d"]] = t


@_rule("subi")
def _t_subi(tr, core, ops):
    t = tr.mem[ops["d"]]
    tr._set_flags(_ARITH, t)
    tr.mem[ops["d"]] = t


@_rule("sbci")
def _t_sbci(tr, core, ops):
    t = tr.mem[ops["d"]] | tr._flag_taint(F.C)
    z = t | tr._flag_taint(F.Z)
    tr._set_flags(_ARITH & ~_FZ, t)
    tr._set_flags(_FZ, z)
    tr.mem[ops["d"]] = t


@_rule("adiw", "sbiw")
def _t_adiw(tr, core, ops):
    d = ops["d"]
    t = tr.mem[d] | tr.mem[d + 1]
    tr._set_flags(_WORD, t)
    tr.mem[d] = tr.mem[d + 1] = t


@_rule("and", "or")
def _t_logic2(tr, core, ops):
    t = tr.mem[ops["d"]] | tr.mem[ops["r"]]
    tr._set_flags(_LOGIC, t)
    tr._set_flags(_FV, 0)
    tr.mem[ops["d"]] = t


@_rule("eor")
def _t_eor(tr, core, ops):
    # EOR d,d (the CLR alias) yields the constant 0: public.
    t = 0 if ops["d"] == ops["r"] else tr.mem[ops["d"]] | tr.mem[ops["r"]]
    tr._set_flags(_LOGIC, t)
    tr._set_flags(_FV, 0)
    tr.mem[ops["d"]] = t


@_rule("andi", "ori")
def _t_logici(tr, core, ops):
    t = tr.mem[ops["d"]]
    tr._set_flags(_LOGIC, t)
    tr._set_flags(_FV, 0)
    tr.mem[ops["d"]] = t


@_rule("com")
def _t_com(tr, core, ops):
    t = tr.mem[ops["d"]]
    tr._set_flags(_LOGIC, t)
    tr._set_flags(_FV | _FC, 0)   # V cleared, C always set
    tr.mem[ops["d"]] = t


@_rule("neg")
def _t_neg(tr, core, ops):
    t = tr.mem[ops["d"]]
    tr._set_flags(_ARITH, t)
    tr.mem[ops["d"]] = t


@_rule("inc", "dec")
def _t_incdec(tr, core, ops):
    t = tr.mem[ops["d"]]
    tr._set_flags(_INCDEC, t)
    tr.mem[ops["d"]] = t


@_rule("lsr", "asr")
def _t_shift(tr, core, ops):
    t = tr.mem[ops["d"]]
    tr._set_flags(_SHIFT, t)
    tr.mem[ops["d"]] = t


@_rule("ror")
def _t_ror(tr, core, ops):
    t = tr.mem[ops["d"]] | tr._flag_taint(F.C)
    tr._set_flags(_SHIFT, t)
    tr.mem[ops["d"]] = t


@_rule("swap")
def _t_swap(tr, core, ops):
    # Register taint unchanged (a nibble permutation); in ISE mode with
    # SWAP re-interpretation enabled this issues one MAC immediately.
    if tr._ise and core.mac.swap_enabled:
        tr._taint_mac_acc(tr.mem[ops["d"]] | tr._mult_taint())


@_rule("bld")
def _t_bld(tr, core, ops):
    tr.mem[ops["d"]] |= tr._flag_taint(F.T)


@_rule("bst")
def _t_bst(tr, core, ops):
    tr._set_flags(_FT, tr.mem[ops["d"]])


@_rule("bset", "bclr")
def _t_bsetclr(tr, core, ops):
    tr._set_flags(1 << ops["s"], 0)


@_rule("cp")
def _t_cp(tr, core, ops):
    tr._set_flags(_ARITH, tr.mem[ops["d"]] | tr.mem[ops["r"]])


@_rule("cpc")
def _t_cpc(tr, core, ops):
    t = tr.mem[ops["d"]] | tr.mem[ops["r"]] | tr._flag_taint(F.C)
    z = t | tr._flag_taint(F.Z)
    tr._set_flags(_ARITH & ~_FZ, t)
    tr._set_flags(_FZ, z)


@_rule("cpi")
def _t_cpi(tr, core, ops):
    tr._set_flags(_ARITH, tr.mem[ops["d"]])


@_rule("mul", "muls", "mulsu", "fmul", "fmuls", "fmulsu")
def _t_mul(tr, core, ops):
    t = tr.mem[ops["d"]] | tr.mem[ops["r"]]
    tr.mem[0] = tr.mem[1] = t
    tr._set_flags(_FC | _FZ, t)


@_rule("mov")
def _t_mov(tr, core, ops):
    tr.mem[ops["d"]] = tr.mem[ops["r"]]


@_rule("movw")
def _t_movw(tr, core, ops):
    tr.mem[ops["d"]] = tr.mem[ops["r"]]
    tr.mem[ops["d"] + 1] = tr.mem[ops["r"] + 1]


@_rule("ldi")
def _t_ldi(tr, core, ops):
    tr.mem[ops["d"]] = 0


def _load_common(tr, core, ops, sem: str, address: int,
                 address_taint: int) -> None:
    if address_taint:
        tr._violate("addr", "load address derived from secret data")
    t = tr._read_taint(address)
    d = ops["d"]
    tr.mem[d] = t
    if (tr._ise and core.mac.load_enabled and d == 24
            and sem in _MAC_LOAD_SEMS):
        # The trigger load schedules two nibble MACs (low, then high).
        tr.mac_pending.append(t)
        tr.mac_pending.append(t)


@_rule("lds")
def _t_lds(tr, core, ops):
    _load_common(tr, core, ops, "lds", ops["k"], 0)


def _indirect_addr(core, pointer: int, pre_dec: bool,
                   offset: int = 0) -> int:
    addr = core.data.reg_pair(pointer)
    if pre_dec:
        addr = (addr - 1) & 0xFFFF
    return (addr + offset) & 0xFFFF


def _make_ld_rule(sem: str, pointer: int, pre_dec: bool = False):
    @_rule(sem)
    def rule(tr, core, ops, _sem=sem, _p=pointer, _pre=pre_dec):
        at = tr.mem[_p] | tr.mem[_p + 1]
        _load_common(tr, core, ops, _sem, _indirect_addr(core, _p, _pre), at)
    return rule


_make_ld_rule("ld_x", REG_X)
_make_ld_rule("ld_xp", REG_X)
_make_ld_rule("ld_mx", REG_X, pre_dec=True)
_make_ld_rule("ld_yp", REG_Y)
_make_ld_rule("ld_my", REG_Y, pre_dec=True)
_make_ld_rule("ld_zp", REG_Z)
_make_ld_rule("ld_mz", REG_Z, pre_dec=True)


@_rule("ldd_y")
def _t_ldd_y(tr, core, ops):
    at = tr.mem[REG_Y] | tr.mem[REG_Y + 1]
    _load_common(tr, core, ops, "ldd_y",
                 _indirect_addr(core, REG_Y, False, ops["q"]), at)


@_rule("ldd_z")
def _t_ldd_z(tr, core, ops):
    at = tr.mem[REG_Z] | tr.mem[REG_Z + 1]
    _load_common(tr, core, ops, "ldd_z",
                 _indirect_addr(core, REG_Z, False, ops["q"]), at)


def _store_common(tr, core, ops, address: int, address_taint: int) -> None:
    if address_taint:
        tr._violate("addr", "store address derived from secret data")
    tr._write_taint(address, tr.mem[ops["d"]], core.data.reg(ops["d"]))


@_rule("sts")
def _t_sts(tr, core, ops):
    _store_common(tr, core, ops, ops["k"], 0)


def _make_st_rule(sem: str, pointer: int, pre_dec: bool = False):
    @_rule(sem)
    def rule(tr, core, ops, _p=pointer, _pre=pre_dec):
        at = tr.mem[_p] | tr.mem[_p + 1]
        _store_common(tr, core, ops, _indirect_addr(core, _p, _pre), at)
    return rule


_make_st_rule("st_x", REG_X)
_make_st_rule("st_xp", REG_X)
_make_st_rule("st_mx", REG_X, pre_dec=True)
_make_st_rule("st_yp", REG_Y)
_make_st_rule("st_my", REG_Y, pre_dec=True)
_make_st_rule("st_zp", REG_Z)
_make_st_rule("st_mz", REG_Z, pre_dec=True)


@_rule("std_y")
def _t_std_y(tr, core, ops):
    at = tr.mem[REG_Y] | tr.mem[REG_Y + 1]
    _store_common(tr, core, ops,
                  _indirect_addr(core, REG_Y, False, ops["q"]), at)


@_rule("std_z")
def _t_std_z(tr, core, ops):
    at = tr.mem[REG_Z] | tr.mem[REG_Z + 1]
    _store_common(tr, core, ops,
                  _indirect_addr(core, REG_Z, False, ops["q"]), at)


@_rule("push")
def _t_push(tr, core, ops):
    if tr._sp_taint():
        tr._violate("addr", "push through a tainted stack pointer")
    sp = core.data.sp
    if 0 <= sp < len(tr.mem):
        tr.mem[sp] = tr.mem[ops["d"]]


@_rule("pop")
def _t_pop(tr, core, ops):
    if tr._sp_taint():
        tr._violate("addr", "pop through a tainted stack pointer")
    sp = (core.data.sp + 1) & 0xFFFF
    tr.mem[ops["d"]] = tr._read_taint(sp)


@_rule("in")
def _t_in(tr, core, ops):
    a = ops["A"]
    if a == IO_SREG:
        t = 1 if tr.flags else 0
    else:
        t = tr.mem[IO_BASE + a]
    tr.mem[ops["d"]] = t


@_rule("out")
def _t_out(tr, core, ops):
    tr._write_taint(IO_BASE + ops["A"], tr.mem[ops["d"]],
                    core.data.reg(ops["d"]))


@_rule("sbi", "cbi")
def _t_sbicbi(tr, core, ops):
    # Constant-bit read-modify-write: the byte's taint is unchanged, but a
    # MACCR reset bit set via SBI still clears the pending queue.
    addr = IO_BASE + ops["A"]
    if tr._ise and addr == _MACCR_DATA:
        spec, _, _ = core.decode_at(core.pc)
        value = core.data.io_read(ops["A"])
        if spec.semantics == "sbi":
            value |= 1 << ops["b"]
        else:
            value &= ~(1 << ops["b"])
        tr._write_taint(addr, tr.mem[addr], value & 0xFF)


@_rule("lpm_r0")
def _t_lpm_r0(tr, core, ops):
    if tr.mem[REG_Z] | tr.mem[REG_Z + 1]:
        tr._violate("addr", "program-memory read indexed by secret data")
    tr.mem[0] = 0   # flash contents are public


@_rule("lpm_z", "lpm_zp")
def _t_lpm_z(tr, core, ops):
    if tr.mem[REG_Z] | tr.mem[REG_Z + 1]:
        tr._violate("addr", "program-memory read indexed by secret data")
    tr.mem[ops["d"]] = 0


@_rule("rjmp", "jmp", "nop", "break")
def _t_nop(tr, core, ops):
    pass


@_rule("ijmp")
def _t_ijmp(tr, core, ops):
    if tr.mem[REG_Z] | tr.mem[REG_Z + 1]:
        tr._violate("branch", "indirect jump through a tainted Z pointer")


def _call_target(tr, core, sem: str, ops) -> int:
    from .encoding import sign_extend

    if sem == "call":
        return ops["k"]
    if sem == "rcall":
        return core.pc + 1 + sign_extend(ops["k"], 12)
    return core.data.reg_pair(REG_Z)


@_rule("rcall", "call", "icall")
def _t_call(tr, core, ops):
    spec, _, _ = core.decode_at(core.pc)
    sem = spec.semantics
    if sem == "icall" and (tr.mem[REG_Z] | tr.mem[REG_Z + 1]):
        tr._violate("branch", "indirect call through a tainted Z pointer")
    if tr._sp_taint():
        tr._violate("addr", "call pushes through a tainted stack pointer")
    sp = core.data.sp
    for offset in (0, 1):   # the pushed return address is public
        addr = (sp - offset) & 0xFFFF
        if 0 <= addr < len(tr.mem):
            tr.mem[addr] = 0
    tr._frames.append(_call_target(tr, core, sem, ops))


@_rule("ret", "reti")
def _t_ret(tr, core, ops):
    sp = core.data.sp
    t = tr._read_taint((sp + 1) & 0xFFFF) | tr._read_taint((sp + 2) & 0xFFFF)
    if t:
        tr._violate("branch", "return through a tainted return address")
    if tr._frames:
        tr._frames.pop()
    spec, _, _ = core.decode_at(core.pc)
    if spec.semantics == "reti":
        tr._set_flags(_FI, 0)


@_rule("brbs", "brbc")
def _t_branch(tr, core, ops):
    if tr._flag_taint(ops["s"]):
        tr._violate(
            "branch",
            f"conditional branch on tainted {F.FLAG_NAMES[ops['s']]} flag",
            cycle_skew=1,
        )


@_rule("cpse")
def _t_cpse(tr, core, ops):
    t = tr.mem[ops["d"]] | tr.mem[ops["r"]]   # CPSE leaves SREG untouched
    if t:
        tr._violate("branch", "CPSE skip decided by tainted registers",
                    cycle_skew=tr._skip_skew())


@_rule("sbrc", "sbrs")
def _t_sbrcs(tr, core, ops):
    if tr.mem[ops["d"]]:
        tr._violate("branch", "register-bit skip decided by tainted data",
                    cycle_skew=tr._skip_skew())


@_rule("sbic", "sbis")
def _t_sbics(tr, core, ops):
    a = ops["A"]
    t = (1 if tr.flags else 0) if a == IO_SREG else tr.mem[IO_BASE + a]
    if t:
        tr._violate("branch", "I/O-bit skip decided by tainted data",
                    cycle_skew=tr._skip_skew())
