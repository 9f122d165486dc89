"""Request execution for the ECC service.

Every serving process owns one :class:`WorkerState`: freshly constructed
curve suites, protocol objects wired to a fixed-base-aware scalar
multiplier, cached RSA Montgomery engines, and the process's named-key
registry.  :class:`~repro.serve.server.EccServer` calls
:func:`execute_request` on its own event loop for each dequeued request
(:func:`_execute_traced` for traced ones); the load generator's direct
path and the test suite call it with no server at all.

Every handler is **deterministic**: key generation derives scalars from
the request's seed (HKDF-ish SHA-256 expansion), signatures use the
RFC-6979-style nonces of :mod:`repro.protocols`, and nothing reads a
TRNG — the property the load generator's byte-stable summaries and the
serve determinism tests rely on.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..curves.params import CurveSuite, make_suite
from ..curves.point import AffinePoint
from ..faults.model import FaultDetectedError
from ..obs.metrics import METRICS, render_prometheus
from ..obs.trace import Span, Tracer
from ..protocols import Ecdsa, Rsa, RsaKeyPair, Schnorr, XOnlyEcdh
from ..protocols.ecdh import FullPointEcdh, KeyPair
from ..scalarmult import adapter_for, montgomery_ladder_x, scalar_mult_naf
from ..scalarmult.fixed_base import DEFAULT_WIDTH, TABLE_CACHE
from . import protocol
from .keys import KeyRegistry
from .protocol import ProtocolError, from_hex, point_param, to_hex

__all__ = [
    "WorkerState",
    "derive_scalar",
    "execute_request",
    "worker_state",
]

import hashlib

#: Default scalar range for curves without an exactly known order.
_DEFAULT_SCALAR_BITS = 159

_REQUESTS = METRICS.counter(
    "serve_worker_requests_total", "requests executed by this worker")
_ERRORS = METRICS.counter(
    "serve_worker_errors_total", "requests that produced an error reply")


def derive_scalar(seed: str, order: Optional[int] = None,
                  bits: int = _DEFAULT_SCALAR_BITS) -> int:
    """Deterministic private scalar from a request seed.

    ``order`` given: uniform-ish in [1, order-1].  Otherwise: *bits* wide
    with the top bit clamped set, mirroring
    :meth:`~repro.protocols.ecdh.XOnlyEcdh.generate_keypair`.
    """
    digest = hashlib.sha256(b"repro-serve-keygen:" + seed.encode()).digest()
    digest += hashlib.sha256(digest).digest()
    value = int.from_bytes(digest, "big")
    if order is not None:
        return 1 + value % (order - 1)
    return (value & ((1 << (bits - 1)) - 1)) | (1 << (bits - 2))


class WorkerState:
    """Per-process suites, protocol objects, fixed-base plumbing and the
    named-key registry.

    *keys* is the :class:`~repro.serve.keys.KeyRegistry` that named-key
    ops resolve against and the ``key_*`` handlers mutate; the server
    passes its journal-backed registry, and without one the state builds
    a memory-only registry of its own (the server-free direct path).
    """

    def __init__(self, hardened: bool = False, fb_width: int = DEFAULT_WIDTH,
                 fixed_base: bool = True,
                 keys: Optional[KeyRegistry] = None):
        self.hardened = hardened
        self.fb_width = fb_width
        self.fixed_base = fixed_base
        self.keys = keys if keys is not None else KeyRegistry()
        self._suites: Dict[str, CurveSuite] = {}
        self._protos: Dict[Any, Any] = {}
        self._rsa: Dict[int, Rsa] = {}

    # -- lazy construction ---------------------------------------------------

    def suite(self, key: str) -> CurveSuite:
        suite = self._suites.get(key)
        if suite is None:
            suite = self._suites[key] = make_suite(key)
        return suite

    def fixed_table(self, key: str):
        """The comb table for *key*'s base point (cached process-wide,
        so a table the shard supervisor built before forking is used
        as inherited)."""
        suite = self.suite(key)
        return TABLE_CACHE.get(suite.curve, suite.base, width=self.fb_width)

    def warm(self, curves) -> None:
        """Pre-build the fixed-base tables the workload will hit."""
        if not self.fixed_base:
            return
        for key in curves:
            if key == "montgomery":
                continue  # x-only ladder path; no comb table
            self.fixed_table(key)

    def mult_for(self, key: str) -> Callable:
        """A ``(k, point) -> MaybePoint`` backend: comb table when the
        point is the curve's fixed base and the scalar fits, NAF
        double-and-add otherwise."""
        suite = self.suite(key)

        def mult(k: int, point: AffinePoint):
            if (self.fixed_base and point.x == suite.base.x
                    and point.y == suite.base.y):
                try:
                    return self.fixed_table(key).multiply(k)
                except ValueError:
                    pass  # oversized (e.g. blinded) scalar: variable-base
            return scalar_mult_naf(adapter_for(suite.curve, point), k)

        return mult

    def _proto(self, kind: str, key: str, factory: Callable):
        cache_key = (kind, key)
        proto = self._protos.get(cache_key)
        if proto is None:
            proto = self._protos[cache_key] = factory()
        return proto

    def ecdsa(self, key: str) -> Ecdsa:
        suite = self.suite(key)
        return self._proto("ecdsa", key, lambda: Ecdsa(
            suite.curve, suite.base, suite.order,
            mult=self.mult_for(key), hardened=self.hardened))

    def schnorr(self, key: str) -> Schnorr:
        suite = self.suite(key)
        return self._proto("schnorr", key, lambda: Schnorr(
            suite.curve, suite.base, suite.order,
            mult=self.mult_for(key), hardened=self.hardened))

    def ecdh(self, key: str) -> FullPointEcdh:
        suite = self.suite(key)
        return self._proto("ecdh", key, lambda: FullPointEcdh(
            suite.curve, suite.base, suite.order,
            mult=self.mult_for(key), hardened=self.hardened))

    def xonly(self) -> XOnlyEcdh:
        suite = self.suite("montgomery")
        return self._proto("xonly", "montgomery", lambda: XOnlyEcdh(
            suite.curve, suite.base, scalar_bits=suite.scalar_bits,
            hardened=self.hardened))

    def rsa(self, n: int, e: int, d: int) -> Rsa:
        engine = self._rsa.get(n)
        if engine is None or engine.key.e != e or engine.key.d != d:
            if len(self._rsa) >= 4:  # tiny LRU-ish bound; keys rarely churn
                self._rsa.pop(next(iter(self._rsa)))
            engine = self._rsa[n] = Rsa(
                RsaKeyPair(n=n, e=e, d=d, bits=n.bit_length()))
        return engine


_STATE: Optional[WorkerState] = None


def worker_state() -> WorkerState:
    """The process's default state, created on demand (the state
    :func:`execute_request` uses when the caller passes none)."""
    global _STATE
    if _STATE is None:
        _STATE = WorkerState()
    return _STATE


# -- handlers ----------------------------------------------------------------


def _affine(suite: CurveSuite, obj: Any, what: str) -> AffinePoint:
    coords = point_param(obj, what)
    return AffinePoint(suite.field.from_int(coords["x"]),
                       suite.field.from_int(coords["y"]))


def _point_result(point) -> Dict[str, Any]:
    if point is None:
        return {"infinity": True}
    return {"point": {"x": to_hex(point.x.to_int()),
                      "y": to_hex(point.y.to_int())}}


def _secret_scalar(state: WorkerState, curve: Optional[str],
                   params: Dict[str, Any], what: str = "private") -> int:
    """The op's secret scalar: inline hex, or a named-key resolution.

    ``params.key`` carries a stored key's name (the tenant was injected
    into the params by :func:`execute_request`; the server pinned
    ``key_generation`` at admission).  The scalar comes out of the
    state's registry — it was never on the wire.
    """
    if "key" in params:
        ref = state.keys.resolve(params.get("tenant") or "",
                               params["key"],
                               params.get("key_generation"))
        if curve is not None and ref.curve != curve:
            raise ProtocolError(
                f"key {params['key']!r} lives on curve {ref.curve!r}, "
                f"not {curve!r}")
        return ref.private
    return from_hex(params[what], what)


def _handle_keygen(state: WorkerState, curve: str,
                   params: Dict[str, Any]) -> Dict[str, Any]:
    seed = params["seed"]
    if not isinstance(seed, str) or not seed:
        raise ProtocolError("seed must be a nonempty string")
    suite = state.suite(curve)
    if curve == "montgomery":
        private = derive_scalar(seed, bits=suite.scalar_bits)
        xz = montgomery_ladder_x(suite.curve, private, suite.base,
                                 bits=suite.scalar_bits)
        return {"private": to_hex(private),
                "public_x": to_hex(suite.curve.x_affine(xz).to_int())}
    private = derive_scalar(seed, order=suite.order)
    public = state.mult_for(curve)(private, suite.base)
    if public is None:
        raise ProtocolError("derived private key maps the base to infinity")
    result = _point_result(public)
    result["private"] = to_hex(private)
    result["public"] = result.pop("point")
    return result


def _handle_ecdh(state: WorkerState, curve: str,
                 params: Dict[str, Any]) -> Dict[str, Any]:
    private = _secret_scalar(state, curve, params)
    suite = state.suite(curve)
    if curve == "montgomery":
        from ..protocols.ecdh import XOnlyKeyPair

        peer_x = from_hex(params["peer"], "peer")
        ecdh = state.xonly()
        own = XOnlyKeyPair(private=private, public_x=0)  # only .private used
        shared = ecdh.shared_secret(own, peer_x)
        return {"shared_x": to_hex(shared)}
    peer = _affine(suite, params["peer"], "peer")
    ecdh = state.ecdh(curve)
    own = KeyPair(private=private, public=suite.base)
    shared = ecdh.shared_secret(own, peer)
    return {"shared": {"x": to_hex(shared.x.to_int()),
                       "y": to_hex(shared.y.to_int())}}


def _handle_scalarmult(state: WorkerState, curve: str,
                       params: Dict[str, Any]) -> Dict[str, Any]:
    k = from_hex(params["k"], "k")
    suite = state.suite(curve)
    if curve == "montgomery":
        if "point" in params:
            x = from_hex(params["point"], "point")
            base = suite.curve.lift_x(x)
        else:
            base = suite.base
        xz = montgomery_ladder_x(suite.curve, k, base,
                                 bits=suite.scalar_bits)
        if xz.is_infinity():
            return {"infinity": True}
        return {"x": to_hex(suite.curve.x_affine(xz).to_int())}
    if "point" in params:
        point = _affine(suite, params["point"], "point")
        if not suite.curve.is_on_curve(point):
            raise ProtocolError("point is not on the curve")
        result = scalar_mult_naf(adapter_for(suite.curve, point), k)
    else:
        result = state.mult_for(curve)(k, suite.base)
    return _point_result(result)


def _msg_bytes(params: Dict[str, Any]) -> bytes:
    msg = params["msg"]
    if not isinstance(msg, str):
        raise ProtocolError("msg must be a hex string")
    try:
        return bytes.fromhex(msg) if msg else b""
    except ValueError:
        raise ProtocolError("msg is not valid hex") from None


def _handle_ecdsa_sign(state: WorkerState, curve: str,
                       params: Dict[str, Any]) -> Dict[str, Any]:
    signature = state.ecdsa(curve).sign(
        _secret_scalar(state, curve, params), _msg_bytes(params))
    return {"r": to_hex(signature.r), "s": to_hex(signature.s)}


def _handle_ecdsa_verify(state: WorkerState, curve: str,
                         params: Dict[str, Any]) -> Dict[str, Any]:
    from ..protocols.ecdsa import Signature

    suite = state.suite(curve)
    public = _affine(suite, params["public"], "public")
    signature = Signature(r=from_hex(params["r"], "r"),
                          s=from_hex(params["s"], "s"))
    valid = state.ecdsa(curve).verify(public, _msg_bytes(params), signature)
    return {"valid": bool(valid)}


def _handle_schnorr_sign(state: WorkerState, curve: str,
                         params: Dict[str, Any]) -> Dict[str, Any]:
    signature = state.schnorr(curve).sign(
        _secret_scalar(state, curve, params), _msg_bytes(params))
    return {"e": to_hex(signature.challenge),
            "s": to_hex(signature.response)}


def _handle_schnorr_verify(state: WorkerState, curve: str,
                           params: Dict[str, Any]) -> Dict[str, Any]:
    from ..protocols.schnorr import SchnorrSignature

    suite = state.suite(curve)
    public = _affine(suite, params["public"], "public")
    signature = SchnorrSignature(challenge=from_hex(params["e"], "e"),
                                 response=from_hex(params["s"], "s"))
    valid = state.schnorr(curve).verify(public, _msg_bytes(params), signature)
    return {"valid": bool(valid)}


def _handle_rsa_sign(state: WorkerState, curve: Optional[str],
                     params: Dict[str, Any]) -> Dict[str, Any]:
    rsa = state.rsa(from_hex(params["n"], "n"), from_hex(params["e"], "e"),
                    from_hex(params["d"], "d"))
    digest = from_hex(params["digest"], "digest")
    if not 0 <= digest < rsa.key.n:
        raise ProtocolError("digest out of range for the modulus")
    return {"sig": to_hex(rsa.sign(digest))}


def _handle_rsa_verify(state: WorkerState, curve: Optional[str],
                       params: Dict[str, Any]) -> Dict[str, Any]:
    n = from_hex(params["n"], "n")
    e = from_hex(params["e"], "e")
    engine = state._rsa.get(n)
    if engine is not None and engine.key.e == e:
        rsa = engine
    else:
        rsa = Rsa(RsaKeyPair(n=n, e=e, d=0, bits=n.bit_length()))
    sig = from_hex(params["sig"], "sig")
    if not 0 <= sig < n:
        raise ProtocolError("signature out of range for the modulus")
    valid = rsa.verify(from_hex(params["digest"], "digest"), sig)
    return {"valid": bool(valid)}


def _handle_stats(state: WorkerState, curve: Optional[str],
                  params: Dict[str, Any]) -> Dict[str, Any]:
    """Process-local telemetry (the server-free direct path's ``stats``).

    A live :class:`~repro.serve.server.EccServer` intercepts ``stats``
    at accept and answers with its queue state; this handler serves the
    same schema from the process registry so ``--workers 0`` /
    in-process callers get a useful answer too.
    """
    fmt = params.get("format", "json")
    scope = params.get("scope", "shard")
    if scope not in ("shard", "cluster"):
        raise ProtocolError(
            f"stats scope must be 'shard' or 'cluster', got {scope!r}")
    # No shard siblings on the direct path: "cluster" is this process.
    if fmt == "prometheus":
        return {"format": "prometheus", "text": render_prometheus(METRICS)}
    if fmt != "json":
        raise ProtocolError(
            f"stats format must be 'json' or 'prometheus', got {fmt!r}")
    return {
        "format": "json",
        "scope": "shard",
        "shard": None,
        "pid": os.getpid(),
        "queue_depth": 0,
        "queue_capacity": 0,
        "counters": {k: v for k, v in METRICS.counters_snapshot().items()
                     if k.startswith(("serve_", "fixed_base_"))},
        "histograms": METRICS.histogram_summaries(prefix="serve_"),
    }


def _handle_key_create(state: WorkerState, curve: str,
                       params: Dict[str, Any]) -> Dict[str, Any]:
    """Named-key lifecycle against the state's registry.

    A live :class:`~repro.serve.server.EccServer` dispatches the ``key_*``
    ops to these handlers at admission (like ``stats``), with the
    authorized tenant in ``params``; the server-free direct path reaches
    them through :func:`execute_request`.
    """
    return state.keys.create(params.get("tenant") or "",
                                params["name"], curve,
                                params.get("seed"))


def _handle_key_rotate(state: WorkerState, curve: Optional[str],
                       params: Dict[str, Any]) -> Dict[str, Any]:
    return state.keys.rotate(params.get("tenant") or "",
                                params["name"], params.get("seed"))


def _handle_key_delete(state: WorkerState, curve: Optional[str],
                       params: Dict[str, Any]) -> Dict[str, Any]:
    return state.keys.delete(params.get("tenant") or "",
                                params["name"])


def _handle_key_info(state: WorkerState, curve: Optional[str],
                     params: Dict[str, Any]) -> Dict[str, Any]:
    return state.keys.info(params.get("tenant") or "",
                              params["name"])


_HANDLERS: Dict[str, Callable] = {
    "stats": _handle_stats,
    "key_create": _handle_key_create,
    "key_rotate": _handle_key_rotate,
    "key_delete": _handle_key_delete,
    "key_info": _handle_key_info,
    "keygen": _handle_keygen,
    "ecdh": _handle_ecdh,
    "scalarmult": _handle_scalarmult,
    "ecdsa_sign": _handle_ecdsa_sign,
    "ecdsa_verify": _handle_ecdsa_verify,
    "schnorr_sign": _handle_schnorr_sign,
    "schnorr_verify": _handle_schnorr_verify,
    "rsa_sign": _handle_rsa_sign,
    "rsa_verify": _handle_rsa_verify,
}

assert set(_HANDLERS) == set(protocol.OPS), "handler table drifted from OPS"


def execute_request(req: Dict[str, Any],
                    state: Optional[WorkerState] = None) -> Dict[str, Any]:
    """Run one validated request to a reply dict (never raises)."""
    state = state or worker_state()
    _REQUESTS.inc()
    METRICS.counter(f"serve_worker_op_{req['op']}_total").inc()
    params = req.get("params") or {}
    if "tenant" in req:
        # Tenant-scoped request: hand the tenant down to the handler so
        # named-key resolution stays (tenant, name)-scoped.  A copy —
        # the inbound request object is never mutated.
        params = dict(params, tenant=req["tenant"])
    try:
        result = _HANDLERS[req["op"]](state, req.get("curve"), params)
        return protocol.ok_reply(req["id"], result)
    except ProtocolError as exc:
        _ERRORS.inc()
        return protocol.error_reply(req["id"], exc.error_type, str(exc))
    except (ValueError, ZeroDivisionError, KeyError, TypeError) as exc:
        _ERRORS.inc()
        return protocol.error_reply(req["id"], "BadRequest", str(exc))
    except FaultDetectedError as exc:
        _ERRORS.inc()
        return protocol.error_reply(req["id"], "Internal",
                                    f"fault countermeasure tripped: {exc}")
    except Exception as exc:  # pragma: no cover - defense in depth
        _ERRORS.inc()
        return protocol.error_reply(req["id"], "Internal",
                                    f"{type(exc).__name__}: {exc}")


def _execute_traced(
        req: Dict[str, Any], state: WorkerState, trace_id: str,
) -> Tuple[Dict[str, Any], List[Span]]:
    """Run one request under a fresh tracer; returns (reply, root spans).

    The root span is tagged with the inbound trace context; the spans
    instrumented through scalarmult / curves / field nest underneath
    automatically, so the record the server joins
    (:mod:`repro.obs.assemble`) reaches down to the kernel level.
    """
    tracer = Tracer()
    with tracer:
        with tracer.span("worker", kind="serve", trace=trace_id,
                         op=req["op"], curve=req.get("curve")):
            reply = execute_request(req, state)
    return reply, tracer.roots
