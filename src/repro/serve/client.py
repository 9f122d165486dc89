"""Clients for the ECC service: blocking and asyncio.

Both speak the NDJSON protocol of :mod:`repro.serve.protocol` and
correlate replies by request ``id`` — the server answers ``stats``, key
lifecycle ops and load-shed replies at admission, ahead of queued
work, so replies can arrive out of order and the clients reorder them
transparently.

* :class:`ServeClient` — synchronous, socket-per-client.  ``call()``
  for one-at-a-time RPC, ``call_many()`` to pipeline a whole request
  list in one write burst (this is what fills the server's bounded
  queue).
* :class:`AsyncServeClient` — asyncio twin with the same surface;
  ``call()`` is a coroutine and concurrent callers share one
  connection (a background reader task routes replies to futures).

Both clients originate trace context: ``call(..., trace=True)`` stamps
a fresh :func:`~repro.obs.trace.new_trace_id` on the request (or pass a
specific id string), and ``stats()`` wraps the served telemetry op —
``stats(format="prometheus")`` returns the scrape text directly.

Tenant-scoped requests (the named-key subsystem of
:mod:`repro.serve.keys`) take ``tenant=`` on ``call()`` /
``request()``: the auth token defaults to the open-mode derived token
(:func:`~repro.serve.keys.tenant_token`), or pass ``token=`` for
strict-mode deployments.  The ``key_create`` / ``key_rotate`` /
``key_delete`` / ``key_info`` convenience methods wrap the lifecycle
ops; afterwards sign/ECDH with ``params={"key": "<name>"}`` instead of
an inline ``private``.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
from typing import Any, Dict, List, Optional, Union

from ..obs.trace import new_trace_id
from . import protocol

__all__ = ["ServeClient", "AsyncServeClient", "ServeError"]


def _trace_field(trace: Union[bool, str, None]) -> Optional[str]:
    """Resolve the ``trace=`` convenience argument to a wire trace id."""
    if trace is None or trace is False:
        return None
    if trace is True:
        return new_trace_id()
    return trace


def _tenant_fields(req: Dict[str, Any], tenant: Optional[str],
                   token: Optional[str]) -> Dict[str, Any]:
    """Stamp tenant/token on *req* (token defaults to the derived
    open-mode token of the tenant)."""
    if tenant is not None:
        from .keys import tenant_token

        req["tenant"] = tenant
        req["token"] = token if token is not None else tenant_token(tenant)
    return req


class ServeError(RuntimeError):
    """A typed error reply, surfaced as an exception by ``call()``."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


def _raise_on_error(reply: Dict[str, Any]) -> Dict[str, Any]:
    if not reply["ok"]:
        error = reply["error"]
        raise ServeError(error["type"], error["message"])
    return reply["result"]


class ServeClient:
    """Blocking client over one TCP connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 9477,
                 timeout: Optional[float] = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._ids = itertools.count(1)

    def close(self) -> None:
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def request(self, op: str, curve: Optional[str] = None,
                params: Optional[Dict[str, Any]] = None,
                deadline_ms: Optional[float] = None,
                trace: Union[bool, str, None] = None,
                tenant: Optional[str] = None,
                token: Optional[str] = None) -> Dict[str, Any]:
        """Build a well-formed request dict with a fresh id."""
        req: Dict[str, Any] = {"id": next(self._ids), "op": op,
                               "params": params or {}}
        if curve is not None:
            req["curve"] = curve
        if deadline_ms is not None:
            req["deadline_ms"] = deadline_ms
        trace_id = _trace_field(trace)
        if trace_id is not None:
            req["trace"] = trace_id
        return _tenant_fields(req, tenant, token)

    def call(self, op: str, curve: Optional[str] = None,
             params: Optional[Dict[str, Any]] = None,
             deadline_ms: Optional[float] = None,
             trace: Union[bool, str, None] = None,
             tenant: Optional[str] = None,
             token: Optional[str] = None) -> Dict[str, Any]:
        """One RPC; returns the result dict or raises :class:`ServeError`."""
        req = self.request(op, curve, params, deadline_ms, trace,
                           tenant, token)
        [reply] = self.call_raw([req])
        return _raise_on_error(reply)

    # -- named-key lifecycle (repro.serve.keys) ------------------------------

    def key_create(self, tenant: str, name: str,
                   curve: str = "secp160r1", seed: Optional[str] = None,
                   token: Optional[str] = None) -> Dict[str, Any]:
        """Create a server-resident key; returns its public half.

        Sign afterwards with ``params={"key": name}`` — the private
        scalar never travels on the wire."""
        params: Dict[str, Any] = {"name": name}
        if seed is not None:
            params["seed"] = seed
        return self.call("key_create", curve, params,
                         tenant=tenant, token=token)

    def key_rotate(self, tenant: str, name: str,
                   seed: Optional[str] = None,
                   token: Optional[str] = None) -> Dict[str, Any]:
        """Rotate in a new key generation (old ones stay resolvable)."""
        params: Dict[str, Any] = {"name": name}
        if seed is not None:
            params["seed"] = seed
        return self.call("key_rotate", params=params,
                         tenant=tenant, token=token)

    def key_delete(self, tenant: str, name: str,
                   token: Optional[str] = None) -> Dict[str, Any]:
        """Retire a named key (all generations)."""
        return self.call("key_delete", params={"name": name},
                         tenant=tenant, token=token)

    def key_info(self, tenant: str, name: str,
                 token: Optional[str] = None) -> Dict[str, Any]:
        """Public metadata of a named key (never secret material)."""
        return self.call("key_info", params={"name": name},
                         tenant=tenant, token=token)

    def stats(self, format: Optional[str] = None,
              scope: Optional[str] = None) -> Any:
        """The served ``stats`` op.  ``format="prometheus"`` returns the
        exposition text; default returns the structured result dict.
        ``scope="cluster"`` aggregates across a sharded server's lanes
        (JSON only)."""
        params = {k: v for k, v in (("format", format), ("scope", scope))
                  if v}
        result = self.call("stats", params=params or None)
        return result["text"] if format == "prometheus" else result

    def call_raw(self, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Pipeline a request list; replies in *request* order, errors
        returned as reply dicts rather than raised."""
        if not requests:
            return []
        payload = b"".join(protocol.encode_request(r) for r in requests)
        self._sock.sendall(payload)
        by_id: Dict[int, Dict[str, Any]] = {}
        want = {r["id"] for r in requests}
        if len(want) != len(requests):
            raise ValueError("duplicate request ids in one pipeline")
        while len(by_id) < len(requests):
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            reply = protocol.decode_reply(line)
            if reply["id"] in want:
                by_id[reply["id"]] = reply
        return [by_id[r["id"]] for r in requests]

    def call_many(self, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Pipeline + unwrap: list of result dicts, raising on the first
        error reply (use :meth:`call_raw` to inspect errors per-request)."""
        return [_raise_on_error(r) for r in self.call_raw(requests)]


class AsyncServeClient:
    """Asyncio client; concurrent ``call()``s share one connection."""

    def __init__(self):
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = itertools.count(1)
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._reader_task: Optional[asyncio.Task] = None

    @classmethod
    async def connect(cls, host: str = "127.0.0.1",
                      port: int = 9477) -> "AsyncServeClient":
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(
            host, port)
        client._reader_task = asyncio.create_task(client._read_loop())
        return client

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ConnectionError("client closed"))
        self._pending.clear()

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                reply = protocol.decode_reply(line)
                future = self._pending.pop(reply["id"], None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection"))
            self._pending.clear()

    async def call_raw_one(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Send one pre-built request, await its reply dict."""
        future = asyncio.get_running_loop().create_future()
        self._pending[req["id"]] = future
        self._writer.write(protocol.encode_request(req))
        await self._writer.drain()
        return await future

    async def call(self, op: str, curve: Optional[str] = None,
                   params: Optional[Dict[str, Any]] = None,
                   deadline_ms: Optional[float] = None,
                   trace: Union[bool, str, None] = None,
                   tenant: Optional[str] = None,
                   token: Optional[str] = None) -> Dict[str, Any]:
        req: Dict[str, Any] = {"id": next(self._ids), "op": op,
                               "params": params or {}}
        if curve is not None:
            req["curve"] = curve
        if deadline_ms is not None:
            req["deadline_ms"] = deadline_ms
        trace_id = _trace_field(trace)
        if trace_id is not None:
            req["trace"] = trace_id
        reply = await self.call_raw_one(_tenant_fields(req, tenant, token))
        return _raise_on_error(reply)

    async def key_create(self, tenant: str, name: str,
                         curve: str = "secp160r1",
                         seed: Optional[str] = None,
                         token: Optional[str] = None) -> Dict[str, Any]:
        """Async twin of :meth:`ServeClient.key_create`."""
        params: Dict[str, Any] = {"name": name}
        if seed is not None:
            params["seed"] = seed
        return await self.call("key_create", curve, params,
                               tenant=tenant, token=token)

    async def key_rotate(self, tenant: str, name: str,
                         seed: Optional[str] = None,
                         token: Optional[str] = None) -> Dict[str, Any]:
        """Async twin of :meth:`ServeClient.key_rotate`."""
        params: Dict[str, Any] = {"name": name}
        if seed is not None:
            params["seed"] = seed
        return await self.call("key_rotate", params=params,
                               tenant=tenant, token=token)

    async def key_delete(self, tenant: str, name: str,
                         token: Optional[str] = None) -> Dict[str, Any]:
        """Async twin of :meth:`ServeClient.key_delete`."""
        return await self.call("key_delete", params={"name": name},
                               tenant=tenant, token=token)

    async def key_info(self, tenant: str, name: str,
                       token: Optional[str] = None) -> Dict[str, Any]:
        """Async twin of :meth:`ServeClient.key_info`."""
        return await self.call("key_info", params={"name": name},
                               tenant=tenant, token=token)

    async def stats(self, format: Optional[str] = None,
                    scope: Optional[str] = None) -> Any:
        """Async twin of :meth:`ServeClient.stats`."""
        params = {k: v for k, v in (("format", format), ("scope", scope))
                  if v}
        result = await self.call("stats", params=params or None)
        return result["text"] if format == "prometheus" else result

    async def call_raw(
            self, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Pipeline a request list concurrently; replies in request order."""
        return list(await asyncio.gather(
            *(self.call_raw_one(r) for r in requests)))
