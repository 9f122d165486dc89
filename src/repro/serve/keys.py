"""Server-resident named keys: tenancy, quotas and the key journal.

The serving stack's multi-tenant key subsystem (DESIGN.md §8 "Named
keys").  Instead of hauling private scalars over the wire on every
request, a tenant creates a **named key** once (``key_create``) and
signs or agrees with ``params.key = "<name>"`` afterwards — the secret
never appears in a request or reply again.  Three cooperating pieces:

* :class:`KeyRegistry` — the per-process view of the key namespace.
  Each serving process owns one: it answers the ``key_create`` /
  ``key_rotate`` / ``key_delete`` / ``key_info`` ops at admission
  (like ``stats``) and resolves ``(tenant, name, generation)`` to a
  private scalar when a named-key request executes.
* **The journal** — an append-only NDJSON file, one line per mutation.
  A mutation holds the file's exclusive ``flock`` while it catches up
  with the file, validates, appends one line (``O_APPEND`` + fsync)
  and reads its own line back, so every read offset comes from the
  file and sibling writers can neither interleave a check-then-append
  nor shift each other's offsets.  Readers tail the file from their
  last offset, tolerating a trailing partial line.  Replay is how
  keys survive a respawn and how sibling serving processes see each
  other's mutations: a lookup miss triggers a tail refresh before
  failing.  File order is the total order — every reader folds the
  same lines the same way.
* **Tenants + quotas** — each tenant has an auth token, a live-key
  budget (``max_keys``) and a request-rate token bucket
  (``rate`` / ``burst``).  A drained bucket sheds with the typed
  ``QuotaExceeded`` reply — deliberately distinct from ``Overloaded``
  (the *server's* bounded queue), so clients can tell "you are over
  your budget" from "the service is saturated".  In the default
  **open** mode any well-formed tenant name self-registers with the
  derived token of :func:`tenant_token`; a ``tenants=`` config dict
  (the server's ``--tenants-file``) switches to **strict** mode where
  unknown tenants are ``Unauthorized``.

Rotation is **generation-tagged**: ``key_rotate`` appends a new
generation rather than overwriting, and the server pins each admitted
request to the generation it saw at admission (``params
.key_generation``), so a request already queued completes under the
key it was admitted with while new requests pick up the new
generation.  All generations stay resolvable from the journal;
``key_delete`` retires the whole name.

Key derivation is deterministic (the serve doctrine: nothing reads a
TRNG): the private scalar is derived from
``(tenant, name, generation, seed)`` via the same double-SHA-256
expansion the ``keygen`` op uses, so the loadgen's byte-stable
summaries hold for named-key streams too.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs.metrics import METRICS
from .protocol import (
    KEY_NAME,
    TENANT_NAME,
    ProtocolError,
    QuotaExceeded,
    Unauthorized,
    to_hex,
)

__all__ = [
    "DEFAULT_BURST",
    "DEFAULT_MAX_KEYS",
    "DEFAULT_RATE",
    "KeyRecord",
    "KeyRef",
    "KeyRegistry",
    "Tenant",
    "TokenBucket",
    "derive_key_scalar",
    "tenant_token",
]

#: Default per-tenant quota knobs (open mode; a ``tenants=`` config
#: overrides them per tenant).  Env-tunable so operators can raise the
#: fleet default without a config file.
DEFAULT_MAX_KEYS = int(os.environ.get("REPRO_TENANT_MAX_KEYS", "32"))
DEFAULT_RATE = float(os.environ.get("REPRO_TENANT_RATE", "200"))
DEFAULT_BURST = int(os.environ.get("REPRO_TENANT_BURST", "64"))

_CREATES = METRICS.counter(
    "serve_keys_created_total", "named keys created")
_ROTATES = METRICS.counter(
    "serve_keys_rotated_total", "named-key generations rotated in")
_DELETES = METRICS.counter(
    "serve_keys_deleted_total", "named keys deleted")
_RESOLVES = METRICS.counter(
    "serve_key_resolves_total", "named-key lookups resolved to a scalar")
_REPLAYS = METRICS.counter(
    "serve_key_journal_replays_total",
    "journal lines applied by tail refreshes (own appends included)")
_QUOTA_SHED = METRICS.counter(
    "serve_quota_shed_total",
    "requests shed with a QuotaExceeded reply (all tenants)")


def tenant_token(name: str) -> str:
    """The derived auth token of *name* in open-tenancy mode.

    Deterministic on purpose: tests, the loadgen and quick-start
    clients need no out-of-band secret exchange.  Production strict
    mode replaces it with per-tenant tokens from ``--tenants-file``.
    """
    digest = hashlib.sha256(b"repro-serve-tenant-token:" + name.encode())
    return digest.hexdigest()[:32]


def derive_key_scalar(tenant: str, name: str, generation: int,
                      seed: str, order: Optional[int] = None,
                      bits: int = 159) -> int:
    """Deterministic private scalar for one key generation.

    Mirrors the ``keygen`` op's derivation (double SHA-256 expansion,
    uniform-ish in ``[1, order-1]`` when the order is known, top-bit
    clamped otherwise) over a tag that binds tenant, name, generation
    and caller seed — rotating always lands on a fresh scalar.
    """
    from .worker import derive_scalar

    tag = f"key:{tenant}:{name}:{generation}:{seed}"
    return derive_scalar(tag, order=order, bits=bits)


class TokenBucket:
    """Per-tenant request-rate limiter (the quota shed's clockwork).

    Classic leaky-bucket refill: ``level`` tokens up to ``burst``,
    refilled at ``rate`` per second of *time_fn* time; :meth:`allow`
    takes one token or reports the bucket dry.  Refill happens lazily
    on each call, so an idle bucket costs nothing.  ``time_fn`` is
    injectable for the boundary tests.
    """

    __slots__ = ("rate", "burst", "level", "_t_last", "_time")

    def __init__(self, rate: float, burst: int,
                 time_fn: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst < 1:
            raise ValueError("need rate > 0 and burst >= 1")
        self.rate = rate
        self.burst = burst
        self.level = float(burst)  # a fresh tenant starts with full burst
        self._time = time_fn
        self._t_last = time_fn()

    def _refill(self) -> None:
        now = self._time()
        elapsed = now - self._t_last
        if elapsed > 0:
            self.level = min(float(self.burst),
                             self.level + elapsed * self.rate)
        self._t_last = now

    def allow(self) -> bool:
        """Take one token; False = shed (no partial admission)."""
        self._refill()
        if self.level >= 1.0:
            self.level -= 1.0
            return True
        return False

    @property
    def tokens(self) -> float:
        """Current level after a refill (telemetry, not admission)."""
        self._refill()
        return self.level


@dataclass
class KeyRecord:
    """One named key: current generation plus its retained history."""

    tenant: str
    name: str
    curve: str
    generation: int
    #: Generation -> private scalar.  All generations stay resolvable
    #: (the journal is append-only) so queued requests pinned to an
    #: older generation complete under the key they were admitted with.
    generations: Dict[int, int] = field(default_factory=dict)
    #: Wire-form public part of the *current* generation: a point
    #: object for Weierstrass/Edwards curves, ``{"x": hex}`` for the
    #: x-only Montgomery lane.
    public: Optional[Dict[str, str]] = None
    deleted: bool = False

    def info(self) -> Dict[str, Any]:
        """The ``key_info`` result object (no secret material)."""
        return {"name": self.name, "curve": self.curve,
                "generation": self.generation,
                "generations": len(self.generations),
                "public": self.public, "deleted": self.deleted}


@dataclass
class KeyRef:
    """A resolved key use: what a request signs with."""

    private: int
    generation: int
    curve: str


class Tenant:
    """One tenant's auth token, quota state and key namespace."""

    def __init__(self, name: str, token: str, max_keys: int,
                 rate: float, burst: int,
                 time_fn: Callable[[], float] = time.monotonic):
        self.name = name
        self.token = token
        self.max_keys = max_keys
        self.bucket = TokenBucket(rate, burst, time_fn)
        self.keys: Dict[str, KeyRecord] = {}

    def live_keys(self) -> int:
        return sum(1 for rec in self.keys.values() if not rec.deleted)

    def snapshot(self) -> Dict[str, Any]:
        """The tenant's row in the ``stats`` op's ``tenants`` section."""
        return {
            "keys": self.live_keys(),
            "max_keys": self.max_keys,
            "rate": self.bucket.rate,
            "burst": self.bucket.burst,
            "tokens": round(self.bucket.tokens, 3),
        }


class KeyRegistry:
    """One process's view of the tenant/key namespace.

    With a *journal_path*, every mutation appends one NDJSON line under
    the journal's exclusive lock and every lookup miss tails the file
    for lines other processes appended since — which is all the
    cross-process coordination there is.  Without a path the registry
    is memory-only (the server-free direct execution path).
    """

    def __init__(self, journal_path: Optional[str] = None,
                 tenants: Optional[Dict[str, Dict[str, Any]]] = None,
                 time_fn: Callable[[], float] = time.monotonic):
        self.journal_path = journal_path
        self._time = time_fn
        self._offset = 0
        self._partial = b""
        #: Strict-mode tenant config (None = open mode: any well-formed
        #: name self-registers with the derived token).
        self._config = tenants
        self._tenants: Dict[str, Tenant] = {}
        if tenants is not None:
            for name, spec in tenants.items():
                if not TENANT_NAME.fullmatch(name):
                    raise ValueError(f"bad tenant name {name!r}")
                self._materialize(name, spec)
        self.refresh()

    # -- tenancy -------------------------------------------------------------

    def _materialize(self, name: str,
                     spec: Optional[Dict[str, Any]] = None) -> Tenant:
        spec = spec or {}
        tenant = Tenant(
            name,
            token=spec.get("token", tenant_token(name)),
            max_keys=int(spec.get("max_keys", DEFAULT_MAX_KEYS)),
            rate=float(spec.get("rate", DEFAULT_RATE)),
            burst=int(spec.get("burst", DEFAULT_BURST)),
            time_fn=self._time)
        self._tenants[name] = tenant
        return tenant

    def _tenant(self, name: str) -> Tenant:
        """The tenant's state, self-registering in open mode."""
        tenant = self._tenants.get(name)
        if tenant is None:
            if self._config is not None:
                raise Unauthorized(f"unknown tenant {name!r}")
            tenant = self._materialize(name)
        return tenant

    def authorize(self, name: str, token: Any) -> Tenant:
        """Token check; raises :class:`Unauthorized` on mismatch."""
        tenant = self._tenant(name)
        if not isinstance(token, str) or token != tenant.token:
            raise Unauthorized(f"bad token for tenant {name!r}")
        return tenant

    def throttle(self, tenant: Tenant) -> None:
        """One request's worth of rate quota; raises
        :class:`QuotaExceeded` (the typed shed) when the bucket is dry."""
        if not tenant.bucket.allow():
            _QUOTA_SHED.inc()
            METRICS.counter(
                f"serve_tenant_{tenant.name}_quota_shed_total").inc()
            raise QuotaExceeded(
                f"tenant {tenant.name!r} is over its "
                f"{tenant.bucket.rate:g}/s rate (burst "
                f"{tenant.bucket.burst}); retry with backoff")

    def tenants_snapshot(self) -> Dict[str, Any]:
        """Per-tenant quota/key state for the ``stats`` op."""
        return {name: tenant.snapshot()
                for name, tenant in sorted(self._tenants.items())}

    # -- the journal ---------------------------------------------------------

    @contextlib.contextmanager
    def _mutation(self):
        """Hold the journal's exclusive lock and catch up under it.

        Yields a function that records one entry: appended to the
        journal (one ``O_APPEND`` write + fsync) and then read back by
        :meth:`refresh`, so the state and the read offset both come
        from the file, never from this writer's own arithmetic.  The
        caller's checks between entering and recording see every line
        any sibling appended before the lock was granted.  Memory-only
        registries apply the entry directly.
        """
        if self.journal_path is None:
            yield self._apply
            return
        fd = os.open(self.journal_path,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # released by close()
            self.refresh()

            def record(entry: Dict[str, Any]) -> None:
                os.write(fd, (json.dumps(entry, sort_keys=True,
                                         separators=(",", ":"))
                              + "\n").encode())
                os.fsync(fd)
                self.refresh()

            yield record
        finally:
            os.close(fd)

    def refresh(self) -> int:
        """Tail the journal from the last offset; returns lines applied.

        A trailing partial line (a concurrent writer mid-append, or a
        crash between write and fsync) is buffered and retried on the
        next refresh rather than parsed as garbage.
        """
        if self.journal_path is None \
                or not os.path.exists(self.journal_path):
            return 0
        with open(self.journal_path, "rb") as fh:
            fh.seek(self._offset)
            data = self._partial + fh.read()
            self._offset = fh.tell()
        lines = data.split(b"\n")
        self._partial = lines.pop()  # b"" when data ends in a newline
        applied = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue  # a torn historical line; skip, never crash
            if isinstance(entry, dict):
                self._apply(entry)
                applied += 1
        if applied:
            _REPLAYS.inc(applied)
        return applied

    def _apply(self, entry: Dict[str, Any]) -> None:
        """Fold one journal line into the in-memory state (file order
        is the total order; every reader applies identically)."""
        action = entry.get("action")
        tenant_name = entry.get("tenant")
        name = entry.get("name")
        if not isinstance(tenant_name, str) or not isinstance(name, str):
            return
        try:
            tenant = self._tenant(tenant_name)
        except Unauthorized:
            return  # strict mode dropped this tenant; ignore its keys
        if action in ("create", "rotate"):
            try:
                generation = int(entry["generation"])
                private = int(entry["private"], 16)
            except (KeyError, TypeError, ValueError):
                return
            record = tenant.keys.get(name)
            if record is None or record.deleted:
                record = KeyRecord(tenant=tenant_name, name=name,
                                   curve=entry.get("curve", "secp160r1"),
                                   generation=generation)
                tenant.keys[name] = record
            record.generations[generation] = private
            if generation >= record.generation:
                record.generation = generation
                record.public = entry.get("public")
                record.deleted = False
        elif action == "delete":
            record = tenant.keys.get(name)
            if record is not None:
                record.deleted = True

    # -- the lifecycle ops ---------------------------------------------------

    def _public_for(self, curve: str, private: int) -> Dict[str, str]:
        """The wire-form public part (computed once per mutation, never
        on the request path)."""
        from ..curves.params import make_suite
        from ..scalarmult import (
            adapter_for,
            montgomery_ladder_x,
            scalar_mult_naf,
        )

        suite = make_suite(curve)
        if curve == "montgomery":
            xz = montgomery_ladder_x(suite.curve, private, suite.base,
                                     bits=suite.scalar_bits)
            return {"x": to_hex(suite.curve.x_affine(xz).to_int())}
        point = scalar_mult_naf(adapter_for(suite.curve, suite.base),
                                private)
        if point is None:
            raise ProtocolError(
                "derived private key maps the base to infinity")
        return {"x": to_hex(point.x.to_int()),
                "y": to_hex(point.y.to_int())}

    def _derive(self, curve: str, tenant: str, name: str,
                generation: int, seed: str) -> int:
        from ..curves.params import make_suite

        suite = make_suite(curve)
        if curve == "montgomery":
            return derive_key_scalar(tenant, name, generation, seed,
                                     bits=suite.scalar_bits)
        if suite.order is not None:
            return derive_key_scalar(tenant, name, generation, seed,
                                     order=suite.order)
        return derive_key_scalar(tenant, name, generation, seed)

    def create(self, tenant_name: str, name: str, curve: str,
               seed: Optional[str] = None) -> Dict[str, Any]:
        """``key_create``: derive generation 1, journal it, return the
        public half (the private scalar never leaves the server)."""
        with self._mutation() as record_entry:
            tenant = self._tenant(tenant_name)
            record = tenant.keys.get(name)
            if record is not None and not record.deleted:
                raise ProtocolError(
                    f"key {name!r} already exists (generation "
                    f"{record.generation}); rotate or delete it")
            if tenant.live_keys() >= tenant.max_keys:
                _QUOTA_SHED.inc()
                METRICS.counter(
                    f"serve_tenant_{tenant_name}_quota_shed_total").inc()
                raise QuotaExceeded(
                    f"tenant {tenant_name!r} is at its {tenant.max_keys}-"
                    "key budget; delete a key first")
            generation = 1
            private = self._derive(curve, tenant_name, name, generation,
                                   seed or name)
            public = self._public_for(curve, private)
            record_entry({"action": "create", "tenant": tenant_name,
                          "name": name, "curve": curve,
                          "generation": generation,
                          "private": to_hex(private), "public": public})
        _CREATES.inc()
        METRICS.counter(f"serve_tenant_{tenant_name}_keys_total").inc()
        return {"name": name, "curve": curve, "generation": generation,
                "public": public}

    def rotate(self, tenant_name: str, name: str,
               seed: Optional[str] = None) -> Dict[str, Any]:
        """``key_rotate``: append the next generation.  Requests already
        admitted stay pinned to the generation they saw; everything
        admitted after this returns uses the new one."""
        with self._mutation() as record_entry:
            record = self._record(tenant_name, name)
            generation = record.generation + 1
            private = self._derive(record.curve, tenant_name, name,
                                   generation,
                                   seed or f"{name}:{generation}")
            public = self._public_for(record.curve, private)
            record_entry({"action": "rotate", "tenant": tenant_name,
                          "name": name, "curve": record.curve,
                          "generation": generation,
                          "private": to_hex(private), "public": public})
        _ROTATES.inc()
        return {"name": name, "curve": record.curve,
                "generation": generation, "public": public}

    def delete(self, tenant_name: str, name: str) -> Dict[str, Any]:
        """``key_delete``: retire the name (all generations)."""
        with self._mutation() as record_entry:
            self._record(tenant_name, name)
            record_entry({"action": "delete", "tenant": tenant_name,
                          "name": name})
        _DELETES.inc()
        return {"name": name, "deleted": True}

    def info(self, tenant_name: str, name: str) -> Dict[str, Any]:
        """``key_info``: public metadata, never secret material."""
        self.refresh()
        return self._record(tenant_name, name).info()

    def _record(self, tenant_name: str, name: str) -> KeyRecord:
        tenant = self._tenant(tenant_name)
        record = tenant.keys.get(name)
        if record is None or record.deleted:
            # A sibling process may have created it since our last tail.
            self.refresh()
            record = tenant.keys.get(name)
        if record is None:
            raise ProtocolError(
                f"tenant {tenant_name!r} has no key {name!r}")
        if record.deleted:
            raise ProtocolError(f"key {name!r} was deleted")
        return record

    def resolve(self, tenant_name: str, name: str,
                generation: Optional[int] = None) -> KeyRef:
        """``(tenant, name[, generation])`` -> the scalar to use.

        No generation asks for the current one; an explicit generation
        (the server's admission pin, or a client pin) must exist —
        retired generations stay resolvable, unknown ones are
        ``BadRequest``.  Misses tail the journal before failing, which
        is how one serving process sees a key a sibling created moments
        ago.
        """
        record = self._record(tenant_name, name)
        if generation is None:
            generation = record.generation
        private = record.generations.get(generation)
        if private is None:
            self.refresh()
            private = record.generations.get(generation)
        if private is None:
            raise ProtocolError(
                f"key {name!r} has no generation {generation}")
        _RESOLVES.inc()
        return KeyRef(private=private, generation=generation,
                      curve=record.curve)

    # -- bookkeeping ---------------------------------------------------------

    def key_count(self) -> int:
        return sum(t.live_keys() for t in self._tenants.values())
