"""repro.serve — the ECC service.

An asyncio TCP server (:mod:`repro.serve.server`) speaking
newline-delimited JSON (:mod:`repro.serve.protocol`) that executes each
admitted request inline on its own event loop
(:mod:`repro.serve.worker`), with fixed-base comb tables
(:mod:`repro.scalarmult.fixed_base`) making the common fixed-point
operations several times faster than the variable-base path.
``--workers N`` runs N such serving processes behind one port
(:mod:`repro.serve.shard`).
Server-resident named keys, tenancy and quotas live in
:mod:`repro.serve.keys` (the ``key_create`` / ``key_rotate`` /
``key_delete`` / ``key_info`` ops, plus ``params.key`` on sign/ECDH).
Clients live in :mod:`repro.serve.client`; the deterministic load
generator / benchmark driver in :mod:`repro.serve.loadgen`.
"""

from .keys import KeyRegistry, TokenBucket, tenant_token
from .protocol import (
    CURVES,
    ERROR_TYPES,
    KEY_OPS,
    OPS,
    ORDER_CURVES,
    DeadlineExceeded,
    Overloaded,
    ProtocolError,
    QuotaExceeded,
    Unauthorized,
)
from .server import EccServer, ServeConfig

__all__ = [
    "CURVES",
    "ERROR_TYPES",
    "KEY_OPS",
    "KeyRegistry",
    "OPS",
    "ORDER_CURVES",
    "DeadlineExceeded",
    "EccServer",
    "Overloaded",
    "ProtocolError",
    "QuotaExceeded",
    "ServeConfig",
    "TokenBucket",
    "Unauthorized",
    "tenant_token",
]
