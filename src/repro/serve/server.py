"""The asyncio serving process: admission, backpressure and inline
execution.

Request lifecycle (the "per-stage" pipeline DESIGN.md §8 documents, each
stage metered).  One serving process runs the whole pipeline on its own
event loop; ``--workers N`` with N > 1 runs N of them behind one
listening port under the supervisor of :mod:`repro.serve.shard`::

    listen port (one process, or SO_REUSEPORT / redirector for N > 1)
      |-- process 0 -----------------------------------------------------.
      |   accept -> decode -> admission -> [bounded queue] -> execute -> reply
      |               |          |               |              |
      |          BadRequest  auth, quota,    Overloaded   execute_request
      |          replies     key ops, pin    load-shed    on this loop
      |-- process 1 ... (same pipeline, own event loop and tables)

* **Backpressure** is an explicit bounded :class:`asyncio.Queue`
  (``queue_depth``).  A full queue does not slow the reader down — it
  sheds: the client gets a typed ``Overloaded`` reply immediately and
  the ``serve_shed_total`` counter ticks.  Per-request deadlines are
  honoured at dequeue: a request whose budget elapsed while queued is
  answered ``DeadlineExceeded`` without being executed.
* **Execution** is inline: one executor task dequeues a request, runs
  :func:`~repro.serve.worker.execute_request` against this process's
  :class:`~repro.serve.worker.WorkerState` (suites, comb tables,
  protocol objects, the named-key registry), resolves the reply and
  yields to the loop before the next one.  Connection readers therefore
  keep admitting and shedding between requests, and ``stats`` is
  answered within one request's compute (about 1 ms for a keygen,
  about 7 ms for a ``key_rotate``).
* **Observability**: latency histograms (``serve_queue_us``,
  ``serve_worker_us`` — one request's execution — ``serve_latency_us``,
  and one ``serve_op_latency_us_<op>_<curve>`` per op/curve pair) and
  throughput/shed counters live in the process-wide registry.
* **Distributed tracing** (``--tracing``, or a client-set ``trace``
  field): a traced request runs under its own tracer; the server joins
  its span tree and the stage timestamps into a
  :class:`~repro.obs.assemble.RequestTrace` and feeds the
  :class:`~repro.obs.assemble.FlightRecorder` tail-sampling ring
  (``--slowlog`` capacity, ``--slowlog-out`` Chrome-trace dump).
* **Operational endpoint**: the ``stats`` op is answered inline at
  accept — queue depth, shed counts, per-(op, curve) latency
  percentiles, or the full registry as Prometheus text exposition
  (``params.format = "prometheus"``) — so telemetry stays reachable
  even when the bounded queue is shedding.  Under the shard supervisor,
  ``params.scope = "cluster"`` aggregates counters across every
  serving process via the shared stats board, from any one socket.

``python -m repro serve`` is this module's CLI; the in-process
:class:`EccServer` API is what the load generator, the benchmark
harness and the tests drive.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs.assemble import FlightRecorder, RequestTrace
from ..obs.metrics import METRICS, render_prometheus
from ..obs.trace import new_trace_id
from ..scalarmult.fixed_base import DEFAULT_WIDTH
from . import protocol
from .worker import WorkerState, _execute_traced, execute_request

__all__ = ["ServeConfig", "EccServer", "main"]

_REQUESTS = METRICS.counter(
    "serve_requests_total", "requests accepted off the wire")
_BAD = METRICS.counter(
    "serve_bad_requests_total", "lines rejected before queueing")
_SHED = METRICS.counter(
    "serve_shed_total", "requests shed with an Overloaded reply")
_DEADLINE = METRICS.counter(
    "serve_deadline_total", "requests expired while queued")
_REPLIES = METRICS.counter(
    "serve_replies_total", "replies written back to clients")
_QUEUE_US = METRICS.histogram(
    "serve_queue_us", "time from enqueue to dequeue, microseconds")
_WORKER_US = METRICS.histogram(
    "serve_worker_us", "execution of one request, microseconds")
_LATENCY_US = METRICS.histogram(
    "serve_latency_us", "enqueue-to-reply per request, microseconds")


@dataclass
class ServeConfig:
    """Tunables of one server instance (all exposed as CLI flags)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral (the bound port lands in EccServer.port)
    #: Serving processes: 1 = this process alone; N > 1 = the shard
    #: supervisor of :mod:`repro.serve.shard` with N serving processes.
    workers: int = 1
    queue_depth: int = 128
    #: Server-wide default deadline; None = requests wait indefinitely.
    deadline_ms: Optional[float] = None
    hardened: bool = False
    fixed_base: bool = True
    fb_width: int = DEFAULT_WIDTH
    #: Curve suites whose fixed-base tables are built before serving
    #: (by the supervisor before it forks, when there is one).
    warm_curves: Tuple[str, ...] = ("secp160r1",)
    #: This server's index under the shard supervisor (labels metrics
    #: and the ``stats`` reply); None = unsharded.
    shard: Optional[int] = None
    #: Bind the listener with SO_REUSEPORT so sibling serving processes
    #: can share one (host, port).
    reuse_port: bool = False
    #: Stamp a trace id on every accepted request (clients may also set
    #: their own ``trace`` field regardless of this switch).
    tracing: bool = False
    #: Flight-recorder capacity: the N slowest traced requests kept.
    slowlog: int = 64
    #: Dump the flight recorder as Chrome trace JSON here on stop().
    slowlog_out: Optional[str] = None
    #: Path of the named-key journal (:mod:`repro.serve.keys`).  None =
    #: the server materializes a private temp journal on start() and
    #: removes it on stop(); the shard supervisor sets one shared path
    #: so every serving process sees the same keys.
    keys_journal: Optional[str] = None
    #: Strict-mode tenant config (``{name: {token, max_keys, rate,
    #: burst}}``, the parsed ``--tenants-file``); None = open tenancy
    #: (any well-formed tenant self-registers with its derived token).
    tenants: Optional[Dict[str, Dict[str, Any]]] = None


@dataclass
class _Pending:
    request: Dict[str, Any]
    future: "asyncio.Future[Dict[str, Any]]"
    t_enqueue: float
    deadline_s: Optional[float]  # absolute perf_counter() instant
    # Distributed-tracing fields (None/0 on the untraced hot path).
    trace_id: Optional[str] = None
    t_accept_ns: int = 0
    t_dispatch_ns: Optional[int] = None
    spans: Optional[List[Dict[str, Any]]] = None


class EccServer:
    """One TCP service instance executing its requests inline."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._executor: Optional[asyncio.Task] = None
        self._connections: set = set()
        #: Suites, comb tables, protocol objects and the key registry
        #: every request executes against; built in start().
        self.state: Optional[WorkerState] = None
        #: Tail-sampling ring of the slowest traced requests (--slowlog).
        self.recorder = FlightRecorder(self.config.slowlog)
        #: Cross-shard stats board (:class:`~repro.serve.shard
        #: .StatsBoard`), installed by the shard runtime before start();
        #: None on an unsharded server.
        self.board = None
        #: Named-key registry (:mod:`repro.serve.keys`); built in start()
        #: over ``config.keys_journal``.
        self.keys = None
        self._journal_owned = False  # temp journal to unlink on stop()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "EccServer":
        from .keys import KeyRegistry

        cfg = self.config
        if cfg.workers < 1:
            raise ValueError("need at least one serving process")
        if cfg.keys_journal is None:
            # Standalone server: a private journal, removed on stop().
            # The shard supervisor hands every process one shared path.
            fd, cfg.keys_journal = tempfile.mkstemp(
                prefix="repro-keys-", suffix=".ndjson")
            os.close(fd)
            self._journal_owned = True
        self.keys = KeyRegistry(journal_path=cfg.keys_journal,
                                tenants=cfg.tenants)
        self.state = WorkerState(hardened=cfg.hardened, fb_width=cfg.fb_width,
                                 fixed_base=cfg.fixed_base, keys=self.keys)
        self.state.warm(cfg.warm_curves)
        self._queue = asyncio.Queue(maxsize=cfg.queue_depth)
        self._executor = asyncio.create_task(self._execute_loop())
        self._server = await asyncio.start_server(
            self._on_connection, cfg.host, cfg.port,
            reuse_port=cfg.reuse_port or None)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Unblock connection handlers parked in readline() so their
        # tasks finish before the loop tears them down.
        for writer in list(self._connections):
            writer.close()
        await asyncio.sleep(0)
        if self._executor is not None:
            self._executor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._executor
        if self.config.slowlog_out and len(self.recorder):
            written = self.recorder.dump(self.config.slowlog_out)
            print(f"slowlog: {written} slowest request trees -> "
                  f"{self.config.slowlog_out}", file=sys.stderr)
        if self._journal_owned and self.config.keys_journal:
            with contextlib.suppress(OSError):
                os.unlink(self.config.keys_journal)
            self._journal_owned = False

    async def __aenter__(self) -> "EccServer":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        reply_tasks: set = set()

        async def write_reply(reply: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(protocol.encode_reply(reply))
                await writer.drain()
            _REPLIES.inc()

        async def await_and_reply(pending: _Pending) -> None:
            reply = await pending.future
            lat_us = (time.perf_counter() - pending.t_enqueue) * 1e6
            _LATENCY_US.observe(lat_us)
            req = pending.request
            METRICS.histogram(
                f"serve_op_latency_us_{req['op']}_{req.get('curve') or 'all'}",
                "enqueue-to-reply per (op, curve), microseconds",
            ).observe(lat_us)
            if pending.trace_id is not None:
                reply.setdefault("meta", {})["trace"] = pending.trace_id
                self._record_trace(pending, reply)
            await write_reply(reply)

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if line.isspace():
                    continue
                try:
                    request = protocol.decode_request(line)
                except protocol.ProtocolError as exc:
                    _BAD.inc()
                    req_id = self._salvage_id(line)
                    await write_reply(protocol.error_reply(
                        req_id, "BadRequest", str(exc)))
                    continue
                _REQUESTS.inc()
                if request["op"] == "stats":
                    # Telemetry is answered inline, never queued — the
                    # whole point is reachability while overloaded.
                    await write_reply(self._stats_reply(request))
                    continue
                if "tenant" in request:
                    # Tenant-scoped: authorize + rate-quota, answer key
                    # lifecycle ops inline (journal writes), pin the key
                    # generation on named use.
                    reply = self._keys_admission(request)
                    if reply is not None:
                        await write_reply(reply)
                        continue
                if self.config.tracing and "trace" not in request:
                    request["trace"] = new_trace_id()
                pending = self._make_pending(request)
                try:
                    self._queue.put_nowait(pending)
                except asyncio.QueueFull:
                    _SHED.inc()
                    await write_reply(protocol.error_reply(
                        request["id"], "Overloaded",
                        f"queue depth {self.config.queue_depth} exceeded; "
                        "retry with backoff"))
                    continue
                task = asyncio.create_task(await_and_reply(pending))
                reply_tasks.add(task)
                task.add_done_callback(reply_tasks.discard)
            if reply_tasks:
                await asyncio.gather(*reply_tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # server teardown: end the handler cleanly
        finally:
            self._connections.discard(writer)
            for task in reply_tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _keys_admission(self, request: Dict[str, Any]
                        ) -> Optional[Dict[str, Any]]:
        """Admission control for tenant-scoped requests.

        Authorizes the (tenant, token) pair, charges the tenant's rate
        bucket, then either answers a ``key_*`` lifecycle op inline
        (like ``stats`` — a journal write must not wait behind the
        request queue) or admits a named-key use: the key's **current
        generation is pinned** into ``params.key_generation`` right
        here, so a rotation landing a microsecond later cannot retire
        the key under a queued request, and the ``token`` is stripped
        so credentials never enter the queue.  Returns the
        reply to write immediately, or None for an admitted request
        that continues to the queue.
        """
        op = request["op"]
        params = request.get("params") or {}
        try:
            tenant = self.keys.authorize(request["tenant"],
                                         request.get("token"))
            METRICS.counter(
                f"serve_tenant_{tenant.name}_requests_total").inc()
            self.keys.throttle(tenant)
            if op in protocol.KEY_OPS:
                if op == "key_create":
                    result = self.keys.create(
                        tenant.name, params["name"], request["curve"],
                        params.get("seed"))
                elif op == "key_rotate":
                    result = self.keys.rotate(tenant.name, params["name"],
                                              params.get("seed"))
                elif op == "key_delete":
                    result = self.keys.delete(tenant.name, params["name"])
                else:
                    result = self.keys.info(tenant.name, params["name"])
                reply = protocol.ok_reply(request["id"], result)
            else:
                if params.get("key_generation") is None:
                    ref = self.keys.resolve(tenant.name, params["key"])
                    request["params"] = dict(params,
                                             key_generation=ref.generation)
                request.pop("token", None)
                return None
        except protocol.ProtocolError as exc:
            reply = protocol.error_reply(request["id"], exc.error_type,
                                         str(exc))
        trace_id = request.get("trace")
        if trace_id is not None:
            reply.setdefault("meta", {})["trace"] = trace_id
        return reply

    def _make_pending(self, request: Dict[str, Any]) -> _Pending:
        now = time.perf_counter()
        deadline_ms = request.get("deadline_ms", self.config.deadline_ms)
        deadline_s = None if deadline_ms is None else now + deadline_ms / 1e3
        trace_id = request.get("trace")
        return _Pending(request=request,
                        future=asyncio.get_running_loop().create_future(),
                        t_enqueue=now, deadline_s=deadline_s,
                        trace_id=trace_id,
                        t_accept_ns=(time.perf_counter_ns()
                                     if trace_id is not None else 0))

    def _record_trace(self, pending: _Pending,
                      reply: Dict[str, Any]) -> None:
        """Close the book on one traced request: join-ready record in."""
        self.recorder.record(RequestTrace(
            trace_id=pending.trace_id,
            req_id=pending.request["id"],
            op=pending.request["op"],
            curve=pending.request.get("curve"),
            server_pid=os.getpid(),
            t_accept_ns=pending.t_accept_ns,
            t_dispatch_ns=pending.t_dispatch_ns,
            t_reply_ns=time.perf_counter_ns(),
            spans=pending.spans or [],
            status="ok" if reply.get("ok") else
                   reply.get("error", {}).get("type", "Internal"),
        ))

    @staticmethod
    def _salvage_id(line: bytes) -> int:
        """Best-effort id recovery so even a BadRequest reply correlates."""
        import json

        try:
            obj = json.loads(line)
            req_id = obj.get("id") if isinstance(obj, dict) else None
            if isinstance(req_id, int) and not isinstance(req_id, bool) \
                    and req_id >= 0:
                return req_id
        except (json.JSONDecodeError, UnicodeDecodeError):
            pass
        return 0

    # -- execution -----------------------------------------------------------

    async def _execute_loop(self) -> None:
        """Dequeue and execute one request at a time, yielding to the
        loop after each so readers keep admitting and shedding."""
        while True:
            self._execute(await self._queue.get())
            await asyncio.sleep(0)

    def _execute(self, item: _Pending) -> None:
        now = time.perf_counter()
        _QUEUE_US.observe((now - item.t_enqueue) * 1e6)
        if item.future.done():
            return  # the connection went away while this was queued
        if item.deadline_s is not None and now > item.deadline_s:
            _DEADLINE.inc()
            item.future.set_result(protocol.error_reply(
                item.request["id"], "DeadlineExceeded",
                "deadline elapsed while queued"))
            return
        if item.trace_id is None:
            reply = execute_request(item.request, self.state)
        else:
            item.t_dispatch_ns = time.perf_counter_ns()
            reply, item.spans = _execute_traced(item.request, self.state,
                                                item.trace_id)
        _WORKER_US.observe((time.perf_counter() - now) * 1e6)
        item.future.set_result(reply)

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Flat snapshot of the serve metrics (counters + histograms)."""
        snap = METRICS.snapshot()
        return {name: value for name, value in snap.items()
                if name.startswith(("serve_", "fixed_base_"))}

    def stats_result(self, params: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
        """The ``stats`` op's result object (protocol schema in
        :mod:`repro.serve.protocol`): live queue state plus the
        per-(op, curve) latency percentiles, or the whole registry in
        Prometheus text exposition with ``format="prometheus"``.

        ``scope="cluster"`` (JSON only) answers for every shard on the
        stats board — counters summed, per-shard payloads attached —
        so any one shard's socket serves whole-cluster telemetry."""
        params = params or {}
        fmt = params.get("format", "json")
        scope = params.get("scope", "shard")
        if scope not in ("shard", "cluster"):
            raise protocol.ProtocolError(
                f"stats scope must be 'shard' or 'cluster', got {scope!r}")
        if fmt == "prometheus":
            if scope == "cluster":
                raise protocol.ProtocolError(
                    "cluster scope is JSON-only; scrape each shard for "
                    "labelled expositions")
            self._refresh_gauges()
            return {"format": "prometheus",
                    "text": render_prometheus(METRICS)}
        if fmt != "json":
            raise protocol.ProtocolError(
                f"stats format must be 'json' or 'prometheus', got {fmt!r}")
        if scope == "cluster":
            return self._cluster_stats()
        return self._shard_payload()

    def _shard_payload(self) -> Dict[str, Any]:
        """This process's shard-scope JSON stats (also what the shard
        runtime publishes to the stats board)."""
        counters = {name: value
                    for name, value in METRICS.counters_snapshot().items()
                    if name.startswith(("serve_", "fixed_base_"))}
        return {
            "format": "json",
            "scope": "shard",
            "shard": self.config.shard,
            "pid": os.getpid(),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_capacity": self.config.queue_depth,
            "counters": counters,
            "histograms": METRICS.histogram_summaries(prefix="serve_"),
            "slowlog": {"capacity": self.recorder.capacity,
                        "size": len(self.recorder),
                        "recorded": self.recorder.recorded},
            "tenants": (self.keys.tenants_snapshot()
                        if self.keys is not None else {}),
        }

    def _cluster_stats(self) -> Dict[str, Any]:
        """Cluster-scope aggregation over the shard stats board.

        Publishes this shard's own fresh payload first (so the answer
        is never staler than the asking request), then sums counters
        and queue state across every readable slot.  Unsharded servers
        degrade to a one-shard cluster.  Histogram summaries are
        per-shard only — percentile summaries do not merge — so they
        stay inside each ``shards[i]`` payload.
        """
        own = self._shard_payload()
        if self.board is None:
            shards = [own]
        else:
            self.board.publish(self.config.shard or 0, own)
            shards = self.board.read_all()
        counters: Dict[str, float] = {}
        for payload in shards:
            for name, value in payload.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        return {
            "format": "json",
            "scope": "cluster",
            "shard_count": len(shards),
            "queue_depth": sum(p.get("queue_depth", 0) for p in shards),
            "queue_capacity": sum(p.get("queue_capacity", 0)
                                  for p in shards),
            "counters": dict(sorted(counters.items())),
            "shards": shards,
        }

    def _refresh_gauges(self) -> None:
        METRICS.gauge(
            "serve_queue_depth", "requests queued right now",
        ).set(self._queue.qsize() if self._queue else 0)
        METRICS.gauge(
            "serve_slowlog_size", "traced requests held by the recorder",
        ).set(len(self.recorder))

    def _stats_reply(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            result = self.stats_result(request.get("params"))
        except protocol.ProtocolError as exc:
            return protocol.error_reply(request["id"], "BadRequest",
                                        str(exc))
        reply = protocol.ok_reply(request["id"], result)
        trace_id = request.get("trace")
        if trace_id is not None:
            reply.setdefault("meta", {})["trace"] = trace_id
        return reply


async def _serve_forever(config: ServeConfig) -> int:
    server = EccServer(config)
    await server.start()
    print(f"repro.serve listening on {config.host}:{server.port} "
          f"(1 process, queue_depth={config.queue_depth})", flush=True)
    loop = asyncio.get_running_loop()
    forever = asyncio.ensure_future(server._server.serve_forever())
    # SIGTERM drains through stop() too (slowlog dump, temp journal
    # removal); SIGINT already unwinds via KeyboardInterrupt ->
    # asyncio.run cancellation.
    with contextlib.suppress(NotImplementedError):
        loop.add_signal_handler(signal.SIGTERM, forever.cancel)
    try:
        await forever
    except asyncio.CancelledError:
        pass
    finally:
        with contextlib.suppress(NotImplementedError):
            loop.remove_signal_handler(signal.SIGTERM)
        await server.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="ECC service over newline-delimited JSON / TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9477,
                        help="TCP port (default 9477; 0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=1,
                        help="serving processes, each executing its "
                             "requests inline (1 = this process alone; "
                             "N > 1 starts the supervisor: one port, "
                             "respawn, cluster stats)")
    parser.add_argument("--no-reuseport", action="store_true",
                        help="with --workers > 1: force the port-per-"
                             "process supervisor + round-robin redirector "
                             "even where SO_REUSEPORT is available")
    parser.add_argument("--queue-depth", type=int, default=128,
                        help="bounded queue size per process; beyond it "
                             "requests are shed with a typed Overloaded "
                             "reply")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="server-wide default per-request deadline")
    parser.add_argument("--hardened", action="store_true",
                        help="run the fault-hardened protocol paths "
                             "(slower: redundancy + verify-after-sign)")
    parser.add_argument("--no-fixed-base", action="store_true",
                        help="disable fixed-base comb tables (baseline)")
    parser.add_argument("--fb-width", type=int, default=DEFAULT_WIDTH,
                        help="comb window width in bits")
    parser.add_argument("--warm", default="secp160r1",
                        help="comma-separated curves whose tables are "
                             "built before serving ('' = none)")
    parser.add_argument("--tracing", action="store_true",
                        help="stamp a trace id on every request, record "
                             "its span tree and keep the slowest request "
                             "trees in the flight recorder")
    parser.add_argument("--slowlog", type=int, default=64,
                        help="flight-recorder capacity: N slowest traced "
                             "requests retained (default 64)")
    parser.add_argument("--slowlog-out", default=None, metavar="PATH",
                        help="dump the flight recorder as Chrome trace "
                             "JSON on shutdown")
    parser.add_argument("--keys-journal", default=None, metavar="PATH",
                        help="named-key journal path (append-only "
                             "NDJSON; survives restarts). Default: a "
                             "private temp file removed on shutdown")
    parser.add_argument("--tenants-file", default=None, metavar="PATH",
                        help="strict-tenancy config: JSON object of "
                             "{tenant: {token, max_keys, rate, burst}}. "
                             "Default: open tenancy with derived tokens")
    args = parser.parse_args(argv)
    warm = tuple(c for c in args.warm.split(",") if c)
    for curve in warm:
        if curve not in protocol.CURVES:
            parser.error(f"unknown curve {curve!r} in --warm")
    if args.slowlog < 1:
        parser.error("--slowlog must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    tenants = None
    if args.tenants_file is not None:
        import json

        try:
            with open(args.tenants_file, encoding="utf-8") as fh:
                tenants = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--tenants-file unreadable: {exc}")
        if not isinstance(tenants, dict) or not all(
                isinstance(name, str)
                and protocol.TENANT_NAME.fullmatch(name)
                and isinstance(spec, dict)
                for name, spec in tenants.items()):
            parser.error("--tenants-file must map tenant names "
                         "([a-z][a-z0-9_], max 24 chars) to config "
                         "objects")
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms, hardened=args.hardened,
        fixed_base=not args.no_fixed_base, fb_width=args.fb_width,
        warm_curves=warm, tracing=args.tracing, slowlog=args.slowlog,
        slowlog_out=args.slowlog_out, keys_journal=args.keys_journal,
        tenants=tenants,
    )
    if args.workers > 1:
        from .shard import run_cluster

        return run_cluster(config,
                           reuseport=False if args.no_reuseport else None)
    try:
        return asyncio.run(_serve_forever(config))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
