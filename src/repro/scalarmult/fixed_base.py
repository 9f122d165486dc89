"""Fixed-base scalar multiplication with cached radix-2^w comb tables.

The generic algorithms in :mod:`repro.scalarmult.algorithms` walk the
scalar bit by bit and pay ~n doublings per multiplication.  When the base
point is *fixed* (key generation, ECDSA/Schnorr nonce commitments, any
``k*G``), all doublings can be moved into a one-time precomputation: with
window width ``w`` and scalar length ``bits`` the table stores

    T[i][j] = j * 2^(w*i) * G        for j in 1 .. 2^w - 1

and evaluating ``k*G`` decomposes ``k`` into ``ceil(bits/w)`` radix-2^w
digits, costing one mixed addition per *nonzero* digit — no doublings at
all.  For a 160-bit scalar at w = 4 that is ~40 additions instead of
~160 doublings + ~53 additions, a measured 4-8x win (BENCH_serve.json).

The paper avoids such tables on the sensor node ("a minimal amount of
memory", Section V-B); the serving gateway of :mod:`repro.serve` is the
opposite regime — RAM is plentiful, the base point never changes, and
thousands of fixed-base operations amortize one table build.  Tables are
therefore cached per (curve, base, width, bits) in a process-wide LRU
cache with an explicit byte budget (:class:`FixedBaseCache`), built once
per serving process (or once before a fork) and shared by every request
the process serves.

Family support mirrors :mod:`repro.scalarmult.adapters`:

* Weierstraß/GLV — Jacobian accumulator, 8M + 3S mixed additions, table
  rows normalized to affine with one batched inversion per row.
* Twisted Edwards — extended accumulator, unified mixed additions (the
  complete law makes table evaluation exception-free by construction).
* Montgomery — full-point affine chord-and-tangent arithmetic (the
  reference path; x-only ladders cannot consume a comb).  Supported for
  completeness and cross-checking, but the ladder remains the production
  path for x-only ECDH.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..curves.edwards import TwistedEdwardsCurve
from ..curves.montgomery import MontgomeryCurve
from ..curves.point import AffinePoint, MaybePoint
from ..curves.weierstrass import WeierstrassCurve
from ..obs import trace as _trace
from ..obs.metrics import METRICS
from ..obs.trace import traced
from .window import batch_invert

__all__ = [
    "DEFAULT_WIDTH",
    "DEFAULT_BUDGET_BYTES",
    "FixedBaseTable",
    "FixedBaseCache",
    "TABLE_CACHE",
    "comb_table_ram_bytes",
    "default_scalar_bits",
    "scalar_mult_fixed_base",
]

#: Default comb width; 4 bits balances table RAM (~25 KiB per 160-bit
#: curve) against the addition count (one per nonzero 4-bit digit).
DEFAULT_WIDTH = 4

#: Default per-process table budget.  Generous for a gateway (a 160-bit
#: w=4 table is ~25 KiB; the budget holds all five curve families many
#: times over) yet bounded, so a misbehaving caller cannot grow tables
#: without limit.
DEFAULT_BUDGET_BYTES = 1 << 20

_TABLES_BUILT = METRICS.counter(
    "fixed_base_tables_built", "comb precomputation tables constructed")
_CACHE_HITS = METRICS.counter(
    "fixed_base_cache_hits", "fixed-base table cache hits")
_CACHE_EVICTIONS = METRICS.counter(
    "fixed_base_cache_evictions", "tables evicted to respect the budget")


def default_scalar_bits(curve) -> int:
    """Scalar length a table covers by default: the field size plus the
    Hasse slack (group order can exceed p by one bit) plus one."""
    return curve.field.p.bit_length() + 2


def comb_table_ram_bytes(width: int, bits: int, field_bytes: int = 20) -> int:
    """RAM a full comb table costs: 2 coordinates per entry.

    ``ceil(bits/width)`` windows of ``2^width - 1`` affine points each.
    The real table may be slightly smaller on low-order (toy) curves
    whose rows contain the point at infinity.
    """
    if width < 1 or width > 16:
        raise ValueError("comb width must be in 1..16")
    if bits < 1:
        raise ValueError("scalar length must be positive")
    windows = -(-bits // width)
    return windows * ((1 << width) - 1) * 2 * field_bytes


class FixedBaseTable:
    """One immutable comb table for a (curve, base, width, bits) tuple.

    Rows hold affine points (``None`` marks the point at infinity, which
    only occurs when the base has small order — toy curves); evaluation
    accumulates in the family's cheapest projective system.
    """

    def __init__(self, curve, base: AffinePoint,
                 width: int = DEFAULT_WIDTH, bits: Optional[int] = None):
        if width < 1 or width > 8:
            raise ValueError("comb width must be in 1..8")
        if not curve.is_on_curve(base):
            raise ValueError("base point is not on the curve")
        self.curve = curve
        self.base = base
        self.width = width
        self.bits = bits if bits is not None else default_scalar_bits(curve)
        if self.bits < 1:
            raise ValueError("scalar length must be positive")
        self.windows = -(-self.bits // width)
        self._mask = (1 << width) - 1
        tr = _trace.CURRENT
        if tr is not None:
            with tr.span("fixed_base_precompute", kind="scalarmult",
                         counter=curve.field.counter, width=width,
                         bits=self.bits, windows=self.windows):
                self.rows = self._build()
        else:
            self.rows = self._build()
        _TABLES_BUILT.inc()

    # -- construction --------------------------------------------------------

    def _build(self) -> List[List[Optional[AffinePoint]]]:
        if isinstance(self.curve, MontgomeryCurve):
            return self._build_affine()
        if isinstance(self.curve, TwistedEdwardsCurve):
            return self._build_projective(edwards=True)
        if isinstance(self.curve, WeierstrassCurve):
            return self._build_projective(edwards=False)
        raise TypeError(
            f"no fixed-base strategy for {type(self.curve).__name__}")

    def _build_projective(self, edwards: bool) -> List[List[Optional[AffinePoint]]]:
        """Shared Weierstraß/Edwards build: projective rows, one batched
        inversion per row (plus the row's 2^w * G_i hand-off point)."""
        curve = self.curve
        count = self._mask  # entries per row: 1 .. 2^w - 1
        rows: List[List[Optional[AffinePoint]]] = []
        g: Optional[AffinePoint] = self.base  # affine 2^(w*i) * G
        for _ in range(self.windows):
            projs = []
            acc = curve.from_affine(g)
            projs.append(acc)
            for _j in range(count - 1):
                acc = curve.add_mixed(acc, g)
                projs.append(acc)
            # Hand-off point for the next row: 2^w * G_i.
            nxt = curve.from_affine(g)
            for _d in range(self.width):
                nxt = curve.double(nxt) if not edwards else curve.double(
                    nxt, compute_t=True)
            projs.append(nxt)
            affines = self._normalize(projs, edwards)
            rows.append(affines[:-1])
            g = affines[-1]
            if g is None and isinstance(curve, TwistedEdwardsCurve):
                g = curve.affine_identity()
        return rows

    def _normalize(self, projs, edwards: bool) -> List[Optional[AffinePoint]]:
        """Batch projective-to-affine: one inversion for the whole row."""
        live = [(i, p) for i, p in enumerate(projs) if not p.z.is_zero()]
        out: List[Optional[AffinePoint]] = [None] * len(projs)
        if not live:
            return out
        z_invs = batch_invert([p.z for _i, p in live])
        for (i, p), z_inv in zip(live, z_invs):
            if edwards:
                out[i] = AffinePoint(p.x * z_inv, p.y * z_inv)
            else:
                z2 = z_inv.square()
                out[i] = AffinePoint(p.x * z2, p.y * z2 * z_inv)
        return out

    def _build_affine(self) -> List[List[Optional[AffinePoint]]]:
        """Montgomery build via full-point affine reference arithmetic."""
        curve = self.curve
        count = self._mask
        rows: List[List[Optional[AffinePoint]]] = []
        g: MaybePoint = self.base
        for _ in range(self.windows):
            row: List[Optional[AffinePoint]] = []
            acc = g
            for _j in range(count):
                row.append(acc)
                acc = curve.affine_add(acc, g)
            rows.append(row)
            for _d in range(self.width):
                g = curve.affine_add(g, g)
        return rows

    # -- evaluation ----------------------------------------------------------

    def multiply(self, k: int) -> MaybePoint:
        """``k * base`` from the table: one mixed addition per nonzero
        radix-2^w digit of *k*, zero doublings."""
        if k < 0:
            raise ValueError("scalar must be non-negative")
        if k.bit_length() > self.bits:
            raise ValueError(
                f"scalar of {k.bit_length()} bits exceeds the table's "
                f"{self.bits}-bit coverage")
        curve = self.curve
        if isinstance(curve, MontgomeryCurve):
            acc_a: MaybePoint = None
            for i in range(self.windows):
                digit = (k >> (i * self.width)) & self._mask
                if digit:
                    acc_a = curve.affine_add(acc_a, self.rows[i][digit - 1])
            return acc_a
        acc = curve.identity
        if isinstance(curve, TwistedEdwardsCurve):
            for i in range(self.windows):
                digit = (k >> (i * self.width)) & self._mask
                if digit:
                    entry = self.rows[i][digit - 1]
                    if entry is not None:
                        acc = curve.add_mixed(acc, entry)
        else:
            for i in range(self.windows):
                digit = (k >> (i * self.width)) & self._mask
                if digit:
                    acc = curve.add_mixed(acc, self.rows[i][digit - 1])
        return curve.to_affine(acc)

    # -- sizing --------------------------------------------------------------

    @property
    def ram_bytes(self) -> int:
        """Actual table footprint: 2 coordinates per stored affine point."""
        field_bytes = (self.curve.field.p.bit_length() + 7) // 8
        entries = sum(1 for row in self.rows for p in row if p is not None)
        return entries * 2 * field_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FixedBaseTable({self.curve.name}, w={self.width}, "
                f"bits={self.bits}, ram={self.ram_bytes}B)")


CacheKey = Tuple[str, int, int, int, int, int]


class FixedBaseCache:
    """Process-wide LRU table cache with an explicit byte budget.

    Keys are value-based — ``(curve.name, p, base.x, base.y, width,
    bits)`` — so two freshly constructed :class:`CurveSuite` objects for
    the same named curve share one table.  A single table larger than the
    budget is refused outright; otherwise least-recently-used tables are
    evicted until the new table fits.

    Fork-safety: the cache is plain process-local state.  Forked
    processes either inherit built tables copy-on-write (the shard
    supervisor builds its warm tables before forking for exactly this)
    or build their own on first use; they never write back to the
    parent.
    """

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES):
        if budget_bytes < 1:
            raise ValueError("budget must be positive")
        self.budget_bytes = budget_bytes
        self._tables: "OrderedDict[CacheKey, FixedBaseTable]" = OrderedDict()

    @staticmethod
    def _key(curve, base: AffinePoint, width: int, bits: int) -> CacheKey:
        return (curve.name, curve.field.p, base.x.to_int(), base.y.to_int(),
                width, bits)

    def get(self, curve, base: AffinePoint, width: int = DEFAULT_WIDTH,
            bits: Optional[int] = None) -> FixedBaseTable:
        """The cached table for this tuple, building it on first use."""
        if bits is None:
            bits = default_scalar_bits(curve)
        key = self._key(curve, base, width, bits)
        table = self._tables.get(key)
        if table is not None:
            self._tables.move_to_end(key)
            _CACHE_HITS.inc()
            return table
        table = FixedBaseTable(curve, base, width=width, bits=bits)
        if table.ram_bytes > self.budget_bytes:
            raise ValueError(
                f"fixed-base table needs {table.ram_bytes} bytes, over the "
                f"{self.budget_bytes}-byte budget; lower the width")
        self._admit(key, table)
        return table

    def _admit(self, key: CacheKey, table: FixedBaseTable) -> None:
        """Insert under the byte budget, evicting LRU entries to fit."""
        while (self.ram_bytes + table.ram_bytes > self.budget_bytes
               and self._tables):
            self._tables.popitem(last=False)
            _CACHE_EVICTIONS.inc()
        self._tables[key] = table

    @property
    def ram_bytes(self) -> int:
        return sum(t.ram_bytes for t in self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def clear(self) -> None:
        self._tables.clear()

    def stats(self) -> Dict[str, int]:
        return {"tables": len(self._tables), "ram_bytes": self.ram_bytes,
                "budget_bytes": self.budget_bytes}


#: The process-wide cache (one per serving process after fork).
TABLE_CACHE = FixedBaseCache()

_fb_counter = lambda curve, *a, **kw: curve.field.counter  # noqa: E731
_fb_attrs = lambda curve, base, k, *a, **kw: (              # noqa: E731
    {"scalar_bits": k.bit_length()})


@traced("scalar_mult_fixed_base", kind="scalarmult",
        counter=_fb_counter, attrs_fn=_fb_attrs)
def scalar_mult_fixed_base(curve, base: AffinePoint, k: int,
                           width: int = DEFAULT_WIDTH,
                           bits: Optional[int] = None,
                           cache: Optional[FixedBaseCache] = TABLE_CACHE,
                           ) -> MaybePoint:
    """``k * base`` through a (cached) comb table.

    Pass ``cache=None`` to build a throwaway table (benchmarking the
    build itself); any scalar longer than the table's coverage raises
    ``ValueError`` — callers that may see oversized scalars (e.g. blinded
    ones) should catch it and fall back to a variable-base method.
    """
    if cache is None:
        return FixedBaseTable(curve, base, width=width, bits=bits).multiply(k)
    return cache.get(curve, base, width=width, bits=bits).multiply(k)
