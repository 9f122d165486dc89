"""Wire protocol of the ECC service: newline-delimited JSON.

One request per line, one reply per line, correlated by a caller-chosen
``id`` (replies may arrive out of order — ``stats``, key lifecycle ops
and load-shed replies are answered at admission, ahead of queued work).

Request grammar::

    {"id": <int>=0>, "op": <op>, "curve": <curve|absent>,
     "params": {...}, "deadline_ms": <number, optional>,
     "trace": <8..32 lowercase hex chars, optional>,
     "tenant": <tenant name, key ops and named key use only>,
     "token": <tenant auth token, paired with tenant>}

Reply grammar::

    {"id": <int>, "ok": true,  "result": {...}, "meta": {...}?}
    {"id": <int>, "ok": false, "error": {"type": <type>, "message": str},
     "meta": {...}?}

``trace`` is the distributed-tracing context (DESIGN.md §8): a client
that sets it (or a server started with ``--tracing``, which stamps one
at accept) gets the execution's spans recorded under that id and the id
echoed back in the reply's ``meta.trace``, joinable into one
end-to-end span tree by :mod:`repro.obs.assemble`.  The ``stats`` op is
the operational telemetry endpoint: it takes no curve, is answered by
the serving process without queueing (so it stays reachable under
overload), and returns queue depth, shed counts and
per-(op, curve) latency percentiles — or, with ``params.format =
"prometheus"``, the whole metrics registry in Prometheus text
exposition format.  Under the shard supervisor of
:mod:`repro.serve.shard`, ``params.scope = "cluster"`` makes any one
shard answer for the whole cluster (counters summed across the
shards' stats board); the default ``scope = "shard"`` stays local and
carries the answering shard's index.  The ``stats`` result is JSON by
default and the full Prometheus text exposition with ``params.format =
"prometheus"`` (shard scope only; ``scope = "cluster"`` with the
Prometheus format is a ``BadRequest``).

**Named keys and tenancy** (DESIGN.md §8, :mod:`repro.serve.keys`):
the ``key_create`` / ``key_rotate`` / ``key_delete`` / ``key_info``
lifecycle ops manage server-resident keys in a per-tenant namespace.
They require the top-level ``tenant`` (matching :data:`TENANT_NAME`)
and ``token`` fields; so does any request whose ``params.key`` names a
server-resident key instead of carrying an inline secret.  The
secret-bearing ops (``ecdsa_sign``, ``schnorr_sign``, ``ecdh``) take
*exactly one* of ``params.private`` (inline hex scalar) or
``params.key`` (a stored key's name, :data:`KEY_NAME`); with ``key``,
the optional ``params.key_generation`` pins a specific generation
(the server pins the current one at admission otherwise, so rotation
never races in-flight work).  On any other request, ``tenant`` /
``token`` are rejected — tenancy is opt-in per request, never ambient.

Error types are closed-world (:data:`ERROR_TYPES`): ``BadRequest``
(malformed or semantically invalid request — never retry),
``Overloaded`` (bounded queue was full, the typed load-shed reply —
retry with backoff), ``DeadlineExceeded`` (the request's budget elapsed
while queued), ``Unauthorized`` (unknown tenant or bad token — fix
credentials, never retry as-is), ``QuotaExceeded`` (the *tenant's*
budget — key count or request rate — is exhausted, distinct from
``Overloaded`` so callers can tell their own quota from server
saturation; retry with backoff or raise the quota), ``Internal``
(handler raised — server-side log has the detail).

All big integers travel as lowercase hex strings without an ``0x``
prefix (:func:`to_hex` / :func:`from_hex`); points as ``{"x": hex,
"y": hex}`` objects, x-only Montgomery values as bare hex.  The op
table (:data:`OPS`) names, for every operation, the curve families it
supports and the parameter schema — :func:`validate_request` enforces
all of it server-side so workers only ever see well-formed requests.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional

__all__ = [
    "CURVES",
    "ERROR_TYPES",
    "KEY_NAME",
    "KEY_OPS",
    "OPS",
    "ORDER_CURVES",
    "ProtocolError",
    "Overloaded",
    "DeadlineExceeded",
    "Unauthorized",
    "QuotaExceeded",
    "OpSpec",
    "TENANT_NAME",
    "TRACE_ID",
    "decode_reply",
    "decode_request",
    "encode_reply",
    "encode_request",
    "error_reply",
    "from_hex",
    "ok_reply",
    "point_param",
    "to_hex",
    "validate_request",
]

#: Curve keys the service accepts (the suite registry of
#: :mod:`repro.curves.params`).
CURVES: FrozenSet[str] = frozenset(
    {"secp160r1", "weierstrass", "edwards", "montgomery", "glv"})

#: Curves with an exactly known prime group order — the only ones that
#: can run order-arithmetic protocols (ECDSA, Schnorr).
ORDER_CURVES: FrozenSet[str] = frozenset({"secp160r1", "glv"})

ERROR_TYPES = ("BadRequest", "Overloaded", "DeadlineExceeded",
               "Unauthorized", "QuotaExceeded", "Internal")

#: Wire form of a trace id: 8..32 lowercase hex chars (the generator,
#: :func:`repro.obs.trace.new_trace_id`, emits 16).
TRACE_ID = re.compile(r"[0-9a-f]{8,32}")

#: Tenant names double as Prometheus metric-name fragments
#: (``serve_tenant_<name>_requests_total``), so the charset is the
#: metric-safe subset: lowercase alphanumerics and underscores only.
TENANT_NAME = re.compile(r"[a-z][a-z0-9_]{0,23}")

#: Named-key names: same shape as tenant names but allowing dashes and
#: dots (they never appear in metric names), up to 64 chars.
KEY_NAME = re.compile(r"[a-z][a-z0-9_.-]{0,63}")

#: The key-lifecycle ops: answered inline at admission (like
#: ``stats``), always tenant-scoped.
KEY_OPS: FrozenSet[str] = frozenset(
    {"key_create", "key_rotate", "key_delete", "key_info"})


class ProtocolError(ValueError):
    """A request that violates the wire protocol (maps to BadRequest)."""

    error_type = "BadRequest"


class Overloaded(ProtocolError):
    """Typed load-shed: the server's bounded queue was full."""

    error_type = "Overloaded"


class DeadlineExceeded(ProtocolError):
    """The request's deadline elapsed before a worker picked it up."""

    error_type = "DeadlineExceeded"


class Unauthorized(ProtocolError):
    """Unknown tenant (strict mode) or wrong auth token."""

    error_type = "Unauthorized"


class QuotaExceeded(ProtocolError):
    """The tenant's own budget (key count or request rate) is spent.

    Deliberately distinct from :class:`Overloaded`: that one means the
    *server* is saturated; this one means *you* are over quota and no
    amount of server capacity will admit the request.
    """

    error_type = "QuotaExceeded"


def to_hex(value: int) -> str:
    """Canonical integer encoding: lowercase hex, no prefix, no sign."""
    if value < 0:
        raise ProtocolError("negative integers are not representable")
    return format(value, "x")


def from_hex(text: Any, what: str = "integer") -> int:
    if not isinstance(text, str) or not text:
        raise ProtocolError(f"{what} must be a nonempty hex string")
    try:
        return int(text, 16)
    except ValueError:
        raise ProtocolError(f"{what} is not valid hex: {text[:40]!r}") from None


def point_param(obj: Any, what: str = "point") -> Dict[str, int]:
    """Decode a ``{"x": hex, "y": hex}`` object to plain ints."""
    if not isinstance(obj, dict):
        raise ProtocolError(f"{what} must be an object with x and y")
    return {"x": from_hex(obj.get("x"), f"{what}.x"),
            "y": from_hex(obj.get("y"), f"{what}.y")}


@dataclass(frozen=True)
class OpSpec:
    """Validation schema of one operation."""

    name: str
    #: Curve families the op runs on; empty = the op takes no curve.
    curves: FrozenSet[str]
    #: Required parameter names (presence is checked; each handler does
    #: the value-level decode via from_hex/point_param).
    required: FrozenSet[str]
    #: Optional parameter names.
    optional: FrozenSet[str] = frozenset()
    #: Name of the op's inline-secret parameter, if it has one.  Such
    #: ops take *exactly one* of the secret or ``key`` (a stored key's
    #: name, tenant-scoped); ``key_generation`` is only valid with
    #: ``key``.
    secret: Optional[str] = None


def _spec(name: str, curves, required, optional=(),
          secret: Optional[str] = None) -> OpSpec:
    return OpSpec(name, frozenset(curves), frozenset(required),
                  frozenset(optional), secret)


#: The service's operation table.
OPS: Dict[str, OpSpec] = {spec.name: spec for spec in (
    _spec("keygen", CURVES, ["seed"]),
    _spec("ecdh", CURVES, ["peer"], secret="private"),
    _spec("scalarmult", CURVES, ["k"], ["point"]),
    _spec("ecdsa_sign", ORDER_CURVES, ["msg"], secret="private"),
    _spec("ecdsa_verify", ORDER_CURVES, ["public", "msg", "r", "s"]),
    _spec("schnorr_sign", ORDER_CURVES, ["msg"], secret="private"),
    _spec("schnorr_verify", ORDER_CURVES, ["public", "msg", "e", "s"]),
    _spec("rsa_sign", (), ["n", "e", "d", "digest"]),
    _spec("rsa_verify", (), ["n", "e", "digest", "sig"]),
    # Operational telemetry: answered inline at accept (never queued,
    # so it works under overload); the worker handler covers the
    # server-free direct path.  ``scope="cluster"`` asks a serving
    # process under the supervisor to aggregate across its siblings.
    _spec("stats", (), [], ["format", "scope"]),
    # Named-key lifecycle (repro.serve.keys): tenant-scoped, answered
    # inline at accept like ``stats`` — mutations hit the journal, not
    # the request queue.  ``key_create`` takes the curve the key lives
    # on; the others resolve it from the stored record.
    _spec("key_create", CURVES, ["name"], ["seed"]),
    _spec("key_rotate", (), ["name"], ["seed"]),
    _spec("key_delete", (), ["name"]),
    _spec("key_info", (), ["name"]),
)}


def validate_request(obj: Any) -> Dict[str, Any]:
    """Structural + semantic validation; returns the request dict.

    Raises :class:`ProtocolError` with a caller-actionable message on
    any violation.  Parameter *values* are validated by the worker's
    handlers (which decode hex and run the curve-level checks).
    """
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    req_id = obj.get("id")
    if not isinstance(req_id, int) or isinstance(req_id, bool) or req_id < 0:
        raise ProtocolError("request id must be a non-negative integer")
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {sorted(OPS)}")
    spec = OPS[op]
    curve = obj.get("curve")
    if spec.curves:
        if curve not in spec.curves:
            raise ProtocolError(
                f"op {op!r} requires curve in {sorted(spec.curves)}, "
                f"got {curve!r}")
    elif curve is not None:
        raise ProtocolError(f"op {op!r} takes no curve")
    params = obj.get("params")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ProtocolError("params must be an object")
    missing = spec.required - params.keys()
    if missing:
        raise ProtocolError(
            f"op {op!r} is missing params {sorted(missing)}")
    allowed = spec.required | spec.optional
    if spec.secret is not None:
        allowed = allowed | {spec.secret, "key", "key_generation"}
    unknown = params.keys() - allowed
    if unknown:
        raise ProtocolError(
            f"op {op!r} got unknown params {sorted(unknown)}")
    uses_key = False
    if spec.secret is not None:
        has_secret = spec.secret in params
        has_key = "key" in params
        if has_secret == has_key:
            raise ProtocolError(
                f"op {op!r} takes exactly one of params.{spec.secret} "
                "(inline secret) or params.key (stored key name)")
        if has_key:
            uses_key = True
            key = params["key"]
            if not isinstance(key, str) or not KEY_NAME.fullmatch(key):
                raise ProtocolError(
                    "params.key must name a stored key "
                    "([a-z][a-z0-9_.-], max 64 chars)")
            generation = params.get("key_generation")
            if generation is not None and (
                    not isinstance(generation, int)
                    or isinstance(generation, bool) or generation < 1):
                raise ProtocolError(
                    "params.key_generation must be a positive integer")
        elif "key_generation" in params:
            raise ProtocolError(
                "params.key_generation is only valid with params.key")
    if op in KEY_OPS:
        name = params.get("name")
        if not isinstance(name, str) or not KEY_NAME.fullmatch(name):
            raise ProtocolError(
                "params.name must be a key name "
                "([a-z][a-z0-9_.-], max 64 chars)")
        seed = params.get("seed")
        if seed is not None and not isinstance(seed, str):
            raise ProtocolError("params.seed must be a string")
    tenant = obj.get("tenant")
    if op in KEY_OPS or uses_key:
        if not isinstance(tenant, str) or not TENANT_NAME.fullmatch(tenant):
            raise ProtocolError(
                f"op {op!r} requires a tenant "
                "([a-z][a-z0-9_], max 24 chars)")
        token = obj.get("token")
        if not isinstance(token, str) or not token:
            raise ProtocolError(
                "tenant-scoped requests require a token string")
    elif tenant is not None or obj.get("token") is not None:
        raise ProtocolError(
            "tenant/token are only valid on key ops or named-key use")
    deadline = obj.get("deadline_ms")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(
                deadline, bool) or deadline <= 0:
            raise ProtocolError("deadline_ms must be a positive number")
    trace = obj.get("trace")
    if trace is not None:
        if not isinstance(trace, str) or not TRACE_ID.fullmatch(trace):
            raise ProtocolError(
                "trace must be 8..32 lowercase hex characters")
    unknown_top = obj.keys() - {"id", "op", "curve", "params",
                                "deadline_ms", "trace", "tenant", "token"}
    if unknown_top:
        raise ProtocolError(
            f"unknown request fields {sorted(unknown_top)}")
    return obj


# -- encode / decode ---------------------------------------------------------


def encode_request(req: Dict[str, Any]) -> bytes:
    """One validated request as an NDJSON line (canonical key order)."""
    validate_request(req)
    return (json.dumps(req, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse + validate one request line."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    return validate_request(obj)


def ok_reply(req_id: int, result: Dict[str, Any],
             meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    reply: Dict[str, Any] = {"id": req_id, "ok": True, "result": result}
    if meta:
        reply["meta"] = meta
    return reply


def error_reply(req_id: int, error_type: str, message: str,
                meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    if error_type not in ERROR_TYPES:
        raise ValueError(f"unknown error type {error_type!r}")
    reply: Dict[str, Any] = {
        "id": req_id, "ok": False,
        "error": {"type": error_type, "message": message},
    }
    if meta:
        reply["meta"] = meta
    return reply


def encode_reply(reply: Dict[str, Any]) -> bytes:
    return (json.dumps(reply, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def decode_reply(line: bytes) -> Dict[str, Any]:
    """Parse + structurally validate one reply line (client side)."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"reply is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("reply must be a JSON object")
    if not isinstance(obj.get("id"), int):
        raise ProtocolError("reply lacks an integer id")
    ok = obj.get("ok")
    if ok is True:
        if not isinstance(obj.get("result"), dict):
            raise ProtocolError("ok reply lacks a result object")
    elif ok is False:
        error = obj.get("error")
        if not isinstance(error, dict) or error.get("type") not in ERROR_TYPES:
            raise ProtocolError("error reply lacks a typed error object")
    else:
        raise ProtocolError("reply lacks a boolean ok")
    return obj
