"""Deterministic load generator + serving benchmark.

``python -m repro loadgen`` builds a reproducible request stream from a
seed and a mix spec, drives it at a server (external ``--target``, an
in-process server with ``--workers 1``, a fresh cluster of N serving
processes with ``--workers N``, or the server-free direct path with
``--workers 0``), and writes a **byte-stable** JSONL summary:
every request's reply keyed by id, canonical JSON, no timestamps — two
runs with the same seed against a correct server produce identical
bytes.  That property is the serve determinism gate (``--check`` runs
the stream twice against fresh servers and compares).

``--bench`` switches to the serving benchmark: keygen on secp160r1
measured through four execution paths —

* ``direct``      one request at a time, variable-base NAF
                  double-and-add (the repository's pre-serve
                  capability: the baseline),
* ``fixedbase``   one request at a time through the comb tables of
                  :mod:`repro.scalarmult.fixed_base`,
* ``served``      the full pipeline: pipelined client, in-process
                  server executing inline, fixed-base tables,
* ``served_traced``  the same with end-to-end request tracing on — its
                  ratio to the untraced twin is the measured tracing
                  overhead,

plus the scale-out legs ``mixed/secp160r1/shard<N>``: the default
mixed workload against a fresh cluster of N serving processes of
:mod:`repro.serve.shard` (port-per-process mode, ``4*N`` round-robin
client connections), and the tenancy legs of
:mod:`repro.serve.keys` — ``ecdsa/secp160r1/inline_shard<N>`` vs
``named_shard<N>`` (the same ECDSA stream with inline private scalars
vs server-resident named keys, per process count; their ratio is the
named-key overhead, floored by ``REPRO_NAMED_MIN_RATIO``) and
``ecdsa/secp160r1/quota`` (a deliberately over-budget tenant stream;
the recorded ``named/quota_shed_fraction`` must clear
``REPRO_QUOTA_SHED_MIN``, proving the token bucket actually sheds).

``--tenants N`` switches the normal run to named-key mode: the
secret-bearing ops in the mix reference per-tenant server-resident
keys (created by a deterministic setup phase before the clock starts)
instead of carrying inline scalars, spread round-robin over N tenants.

Results append to ``BENCH_serve.json`` using the run-record schema of
:mod:`repro.analysis.bench` (``family: "serve"``; ``ips`` is operations
per second).  Served entries also carry a ``latency_ms`` summary
(count/mean/p50/p95/p99 of per-request accept-to-reply latency).
Four floors gate the run (all env-overridable):
``served/direct >= SERVE_MIN_SCALING``, ``fixedbase/direct >=
FIXED_BASE_MIN_SPEEDUP``, ``served_traced/served >= TRACED_MIN_RATIO``
(the tracing hot-path guard) and ``shard<N>/shard1 >=
SHARD_MIN_SCALING`` — with two or more cores; a single-core host falls
back to the ``SHARD_SINGLE_CORE_MIN`` anti-regression check, since
parallel processes cannot outrun one process there.  The served
floor is carried by the fixed-base algorithmic win (measured ~4-5x on
secp160r1), not by parallelism — by design, so the gate is meaningful
on any CI shape.

``--trace`` turns on request tracing for the normal (non-bench) run:
every reply's trace id is joined into a cross-process span tree by
:mod:`repro.obs.assemble`, the merged Chrome export is schema-checked,
and ``--slowlog PATH`` dumps the slowest trees.  ``--scrape`` pulls the
Prometheus text exposition through the wire after the run.
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import hashlib
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis import bench
from ..curves.params import CurveSuite, make_suite
from ..obs.assemble import FlightRecorder, RequestTrace, assemble, \
    records_to_chrome
from ..obs.export import validate_chrome
from ..scalarmult import adapter_for, montgomery_ladder_x, scalar_mult_naf
from . import protocol
from .client import AsyncServeClient
from .keys import tenant_token
from .protocol import to_hex
from .server import EccServer, ServeConfig
from .worker import WorkerState, derive_scalar, execute_request

__all__ = [
    "DEFAULT_MIX",
    "FIXED_BASE_MIN_SPEEDUP",
    "NAMED_MIN_RATIO",
    "QUOTA_SHED_MIN",
    "SERVE_MIN_SCALING",
    "SERVE_OUTPUT",
    "SHARD_MIN_SCALING",
    "SHARD_SINGLE_CORE_MIN",
    "TRACED_MIN_RATIO",
    "build_key_setup",
    "build_requests",
    "check_serve_against_baseline",
    "main",
    "parse_mix",
    "run_bench_serve",
    "run_direct",
    "run_processes",
    "run_served",
    "summarize",
]

#: Ops the generator can synthesise parameters for without a prior
#: server round-trip (the verify ops need a signature to verify and are
#: exercised by the test suite instead).
LOADGEN_OPS = frozenset(
    {"keygen", "ecdh", "scalarmult", "ecdsa_sign", "schnorr_sign"})

DEFAULT_MIX = ("keygen:secp160r1=6,ecdsa_sign:secp160r1=2,"
               "schnorr_sign:secp160r1=1,scalarmult:secp160r1=1")

#: Floor on served (pipelined, fixed-base) vs direct single-request
#: throughput for keygen/secp160r1.
SERVE_MIN_SCALING = float(os.environ.get("REPRO_SERVE_MIN_SCALING", "2.0"))

#: Floor on the fixed-base comb speedup over variable-base NAF alone.
FIXED_BASE_MIN_SPEEDUP = float(
    os.environ.get("REPRO_FIXED_BASE_MIN_SPEEDUP", "1.5"))

#: Floor on traced/untraced served throughput: the tracing hot-path
#: guard.  A same-run ratio (not an absolute wall-clock) so it holds on
#: any CI shape; measured ~0.9+ locally, the floor leaves headroom for
#: noisy shared runners.
TRACED_MIN_RATIO = float(os.environ.get("REPRO_SERVE_TRACED_MIN", "0.70"))

#: Floor on multi-process vs one-process throughput (same run, mixed
#: workload) — the scale-out gate.  Only meaningful where there are
#: cores to scale onto; see :data:`SHARD_SINGLE_CORE_MIN`.
SHARD_MIN_SCALING = float(os.environ.get("REPRO_SHARD_MIN_SCALING", "1.5"))

#: On a single-core host more processes cannot beat one — the gate
#: degrades to an anti-regression check: the supervisor/redirector
#: fan-out must not *collapse* throughput below this fraction of the
#: one-process figure.
SHARD_SINGLE_CORE_MIN = float(
    os.environ.get("REPRO_SHARD_SINGLE_CORE_MIN", "0.6"))

#: Floor on named-key vs inline-key throughput at the same process
#: count.  Named use adds admission work (auth, token bucket,
#: generation pin) and a registry lookup, but no extra curve arithmetic —
#: it must stay within striking distance of the inline path.
NAMED_MIN_RATIO = float(os.environ.get("REPRO_NAMED_MIN_RATIO", "0.6"))

#: Floor on the quota leg's shed fraction: a stream sized several times
#: over its tenant's burst+rate budget must actually get the majority
#: of itself shed with QuotaExceeded — a bucket that admits everything
#: is a bug the throughput numbers would never catch.
QUOTA_SHED_MIN = float(os.environ.get("REPRO_QUOTA_SHED_MIN", "0.2"))

SERVE_OUTPUT = "BENCH_serve.json"

#: Serve throughput wobbles more than the ISS microbenchmarks (process
#: startup, client scheduling) — the regression gate is correspondingly
#: loose.
SERVE_CHECK_THRESHOLD = 0.50


# -- request synthesis -------------------------------------------------------


def parse_mix(spec: str) -> List[Tuple[Tuple[str, str], int]]:
    """``op:curve=weight,...`` -> [((op, curve), weight)] (order kept)."""
    entries: List[Tuple[Tuple[str, str], int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            opcurve, weight_s = part.split("=")
            op, curve = opcurve.split(":")
            weight = int(weight_s)
        except ValueError:
            raise ValueError(
                f"mix entry {part!r} is not op:curve=weight") from None
        if op not in LOADGEN_OPS:
            raise ValueError(
                f"op {op!r} not generatable; pick from {sorted(LOADGEN_OPS)}")
        spec_op = protocol.OPS[op]
        if curve not in spec_op.curves:
            raise ValueError(
                f"op {op!r} does not run on curve {curve!r} "
                f"(supported: {sorted(spec_op.curves)})")
        if weight < 1:
            raise ValueError(f"weight must be >= 1 in {part!r}")
        entries.append(((op, curve), weight))
    if not entries:
        raise ValueError("mix selects no operations")
    return entries


class _SuiteCache:
    def __init__(self):
        self._suites: Dict[str, CurveSuite] = {}

    def __call__(self, key: str) -> CurveSuite:
        suite = self._suites.get(key)
        if suite is None:
            suite = self._suites[key] = make_suite(key)
        return suite


def _peer_param(suites: _SuiteCache, curve: str, seed: str) -> Any:
    """A deterministic valid peer public key for ecdh requests."""
    suite = suites(curve)
    tag = f"{seed}:peer:{curve}"
    if curve == "montgomery":
        private = derive_scalar(tag, bits=suite.scalar_bits)
        xz = montgomery_ladder_x(suite.curve, private, suite.base,
                                 bits=suite.scalar_bits)
        return to_hex(suite.curve.x_affine(xz).to_int())
    private = derive_scalar(tag, order=suite.order)
    public = scalar_mult_naf(adapter_for(suite.curve, suite.base), private)
    return {"x": to_hex(public.x.to_int()), "y": to_hex(public.y.to_int())}


def _key_name(curve: str) -> str:
    """The loadgen's per-curve named-key name (one key per tenant per
    curve keeps the setup phase small)."""
    return f"lg-{curve}"


def build_key_setup(tenants: int, mix: str = DEFAULT_MIX,
                    seed: int = 0) -> List[Dict[str, Any]]:
    """The deterministic ``key_create`` phase for a named-key stream.

    One key per (tenant, curve-with-a-secret-op-in-the-mix) pair, ids
    from 1000001 so they never collide with stream ids.  Driven before
    the clock starts; :func:`build_requests` with the same *tenants*
    emits the matching ``params.key`` references.
    """
    weights = parse_mix(mix)
    curves = sorted({curve for (op, curve), _ in weights
                     if protocol.OPS[op].secret is not None})
    requests: List[Dict[str, Any]] = []
    rid = 1000000
    for t in range(tenants):
        tenant = f"t{t}"
        for curve in curves:
            rid += 1
            requests.append({
                "id": rid, "op": "key_create", "curve": curve,
                "params": {"name": _key_name(curve),
                           "seed": f"lg:{seed}"},
                "tenant": tenant, "token": tenant_token(tenant)})
    return requests


def build_requests(n: int, mix: str = DEFAULT_MIX, seed: int = 0,
                   tenants: int = 0) -> List[Dict[str, Any]]:
    """The deterministic request stream: same (n, mix, seed) -> same list.

    With ``tenants > 0`` the secret-bearing ops (sign, ECDH) reference
    the per-tenant server-resident keys of :func:`build_key_setup`
    (``params.key``) instead of carrying inline scalars, round-robin
    over ``t0 .. t<tenants-1>`` — still fully deterministic, since the
    named keys derive from the same seed machinery.
    """
    weights = parse_mix(mix)
    pattern: List[Tuple[str, str]] = []
    for opcurve, weight in weights:
        pattern.extend([opcurve] * weight)
    suites = _SuiteCache()
    peers: Dict[str, Any] = {}
    requests: List[Dict[str, Any]] = []
    for i in range(n):
        op, curve = pattern[i % len(pattern)]
        tag = hashlib.sha256(
            f"repro-loadgen:{seed}:{i}".encode()).hexdigest()
        named = tenants > 0 and protocol.OPS[op].secret is not None
        if op == "keygen":
            params: Dict[str, Any] = {"seed": tag}
        elif op == "scalarmult":
            params = {"k": to_hex(derive_scalar(tag))}
        elif op == "ecdh":
            if curve not in peers:
                peers[curve] = _peer_param(suites, curve, str(seed))
            if named:
                params = {"key": _key_name(curve), "peer": peers[curve]}
            else:
                suite = suites(curve)
                if curve == "montgomery":
                    private = derive_scalar(tag, bits=suite.scalar_bits)
                elif suite.order is not None:
                    private = derive_scalar(tag, order=suite.order)
                else:
                    private = derive_scalar(tag)
                params = {"private": to_hex(private),
                          "peer": peers[curve]}
        else:  # ecdsa_sign / schnorr_sign: order curves only (parse_mix)
            if named:
                params = {"key": _key_name(curve), "msg": tag}
            else:
                suite = suites(curve)
                params = {"private": to_hex(derive_scalar(
                    tag, order=suite.order)), "msg": tag}
        request = {"id": i + 1, "op": op, "curve": curve,
                   "params": params}
        if named:
            tenant = f"t{i % tenants}"
            request["tenant"] = tenant
            request["token"] = tenant_token(tenant)
        requests.append(request)
    return requests


def summarize(requests: Sequence[Dict[str, Any]],
              replies: Sequence[Dict[str, Any]]) -> bytes:
    """The byte-stable JSONL: one canonical line per request, id order.

    Deliberately carries no timestamps or latencies — only fields that
    are deterministic under a fixed seed, so the bytes double as the
    determinism gate's comparison key.
    """
    lines = []
    for req, reply in zip(requests, replies):
        row: Dict[str, Any] = {"id": req["id"], "op": req["op"],
                               "curve": req.get("curve"),
                               "ok": reply["ok"]}
        row["result" if reply["ok"] else "error"] = (
            reply["result"] if reply["ok"] else reply["error"])
        lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode()


# -- execution paths ---------------------------------------------------------


def run_direct(requests: Sequence[Dict[str, Any]],
               fixed_base: bool = True,
               warm: Sequence[str] = ("secp160r1",),
               setup: Sequence[Dict[str, Any]] = ()
               ) -> Tuple[List[Dict[str, Any]], float]:
    """One request at a time, in-process, no server: the baseline path.

    With ``fixed_base=False`` this is exactly the repository's pre-serve
    capability — variable-base NAF per request.  Table builds happen
    before the clock starts so the wall time measures steady state.
    A named-key *setup* phase (``build_key_setup``) runs against the
    fresh state's own key registry, also before the clock.
    """
    state = WorkerState(fixed_base=fixed_base)
    state.warm(warm)
    if setup:
        for req in setup:
            reply = execute_request(req, state)
            if not reply["ok"]:
                raise RuntimeError(
                    f"direct key setup failed: {reply['error']}")
    t0 = time.perf_counter()
    replies = [execute_request(req, state) for req in requests]
    return replies, time.perf_counter() - t0


async def _drive(targets: Sequence[Tuple[str, int]],
                 requests: Sequence[Dict[str, Any]],
                 rate: float = 0.0,
                 client_times: Optional[Dict[str, Tuple[int, int]]] = None,
                 connections: int = 1
                 ) -> Tuple[List[Dict[str, Any]], List[float], float]:
    """Pipeline the stream at *targets*; per-request latencies in ms.

    Opens ``connections`` client connections, connection *j* to
    ``targets[j % len(targets)]`` (deterministic round-robin — this is
    how the multi-process benchmark spreads load without depending on the
    kernel's SO_REUSEPORT hashing), and sends request *i* down
    connection ``i % connections``.  The single-server single-connection
    case is ``targets=[(host, port)], connections=1``.

    With *client_times*, each traced reply's send/receive
    ``perf_counter_ns`` stamps are stored under its trace id — the
    client half of the joined span tree.
    """
    if not targets:
        raise ValueError("need at least one (host, port) target")
    connections = max(1, min(connections, max(1, len(requests))))
    clients = []
    try:
        for j in range(connections):
            host, port = targets[j % len(targets)]
            clients.append(await AsyncServeClient.connect(host, port))
        latencies: List[float] = [0.0] * len(requests)
        loop = asyncio.get_running_loop()
        t_start = loop.time()

        async def one(i: int, req: Dict[str, Any]) -> Dict[str, Any]:
            if rate > 0:
                delay = t_start + i / rate - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            t0_ns = time.perf_counter_ns()
            reply = await clients[i % connections].call_raw_one(req)
            t1_ns = time.perf_counter_ns()
            latencies[i] = (t1_ns - t0_ns) / 1e6
            if client_times is not None:
                trace_id = (reply.get("meta") or {}).get("trace")
                if trace_id:
                    client_times[trace_id] = (t0_ns, t1_ns)
            return reply

        t0 = time.perf_counter()
        replies = list(await asyncio.gather(
            *(one(i, req) for i, req in enumerate(requests))))
        wall = time.perf_counter() - t0
    finally:
        for client in clients:
            await client.close()
    return replies, latencies, wall


async def _scrape(host: str, port: int) -> str:
    """One wire round-trip of the Prometheus stats exposition."""
    async with await AsyncServeClient.connect(host, port) as client:
        return await client.stats(format="prometheus")


async def _run_setup(targets: Sequence[Tuple[str, int]],
                     setup: Sequence[Dict[str, Any]]) -> None:
    """Drive a ``key_create`` setup phase (untimed) and insist it took."""
    if not setup:
        return
    replies, _lat, _wall = await _drive(targets, setup)
    bad = [r for r in replies if not r["ok"]]
    if bad:
        raise RuntimeError(f"key setup failed: {bad[0]['error']}")


async def run_served(requests: Sequence[Dict[str, Any]],
                     rate: float = 0.0,
                     target: Optional[Tuple[str, int]] = None,
                     queue_depth: Optional[int] = None,
                     fixed_base: bool = True,
                     warm: Sequence[str] = ("secp160r1",),
                     tracing: bool = False,
                     trace_sink: Optional[List[RequestTrace]] = None,
                     scrape_sink: Optional[List[str]] = None,
                     client_times: Optional[Dict[str, Tuple[int, int]]] = None,
                     connections: int = 1,
                     setup: Sequence[Dict[str, Any]] = (),
                     tenants_config: Optional[Dict[str, Any]] = None
                     ) -> Tuple[List[Dict[str, Any]], List[float], float]:
    """Drive the stream at ``target`` or a fresh in-process server.

    ``connections`` client connections share the stream round-robin
    (the high-concurrency mode; default one pipelined connection).
    A named-key *setup* phase (``build_key_setup``) is driven before
    the timed stream; ``tenants_config`` applies a strict-tenancy /
    quota config to the in-process server (:class:`~repro.serve.server
    .ServeConfig` ``tenants``).  In-process extras: ``tracing`` turns
    on server-side trace stamping, ``trace_sink`` receives the server's
    :class:`RequestTrace` records after the run, ``scrape_sink``
    receives one Prometheus exposition scraped through the wire while
    the server is still up, and ``client_times`` collects client-side
    stamps (see :func:`_drive`).
    """
    if target is not None:
        await _run_setup([target], setup)
        result = await _drive([target], requests, rate, client_times,
                              connections)
        if scrape_sink is not None:
            scrape_sink.append(await _scrape(target[0], target[1]))
        return result
    if queue_depth is None:
        # Open-loop pipelining enqueues the whole stream at once; size
        # the queue so the loadgen itself never triggers load-shedding.
        queue_depth = max(2 * len(requests), 128)
    # When the caller wants every record, the flight recorder must not
    # evict: size it past the stream length.
    slowlog = max(64, 2 * len(requests)) if trace_sink is not None else 64
    config = ServeConfig(port=0, queue_depth=queue_depth,
                         fixed_base=fixed_base, warm_curves=tuple(warm),
                         tracing=tracing, slowlog=slowlog,
                         tenants=tenants_config)
    server = EccServer(config)
    await server.start()
    try:
        await _run_setup([(config.host, server.port)], setup)
        result = await _drive([(config.host, server.port)], requests,
                              rate, client_times, connections)
        if scrape_sink is not None:
            scrape_sink.append(await _scrape(config.host, server.port))
        if trace_sink is not None:
            trace_sink.extend(server.recorder.slowest())
        return result
    finally:
        await server.stop()


async def run_processes(requests: Sequence[Dict[str, Any]],
                        workers: int,
                        connections: Optional[int] = None,
                        rate: float = 0.0,
                        fixed_base: bool = True,
                        warm: Sequence[str] = ("secp160r1",),
                        reuseport: bool = False,
                        setup: Sequence[Dict[str, Any]] = (),
                        tenants_config: Optional[Dict[str, Any]] = None
                        ) -> Tuple[List[Dict[str, Any]], List[float], float]:
    """Drive the stream at a fresh cluster of *workers* serving
    processes (:mod:`repro.serve.shard`).

    Defaults to port-per-process mode with the client round-robining
    its connections across the processes' direct ports — deterministic
    load placement, which is what the benchmark legs need (the kernel's
    SO_REUSEPORT hashing assigns whole connections arbitrarily).  With
    ``reuseport=True`` every connection goes to the one shared public
    port instead.  ``connections`` defaults to ``4 * workers`` so each
    process sees concurrent load.  A named-key *setup* phase is driven
    through process 0 only — the shared journal is what makes the keys
    visible to every other process, so this doubles as a live exercise
    of that property.
    """
    from .shard import ShardCluster  # deferred: keeps import cycles out

    if connections is None:
        connections = 4 * workers
    queue_depth = max(2 * len(requests), 128)
    config = ServeConfig(port=0, workers=workers, queue_depth=queue_depth,
                         fixed_base=fixed_base, warm_curves=tuple(warm),
                         tenants=tenants_config)
    cluster = ShardCluster(config, reuseport=reuseport)
    await cluster.start()
    try:
        if reuseport:
            targets = [(config.host, cluster.port)]
        else:
            targets = [(config.host, port)
                       for port in cluster.shard_ports if port is not None]
        await _run_setup(targets[:1], setup)
        return await _drive(targets, requests, rate,
                            connections=connections)
    finally:
        await cluster.stop()


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1,
              max(0, round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _latency_report(latencies: Sequence[float], wall: float,
                    n_err: int) -> str:
    ordered = sorted(latencies)
    n = len(ordered)
    ops = n / wall if wall > 0 else 0.0
    return (f"{n} requests in {wall:.2f} s ({ops:.1f} ops/s), "
            f"{n_err} errors; latency ms "
            f"p50={_percentile(ordered, 50):.1f} "
            f"p95={_percentile(ordered, 95):.1f} "
            f"p99={_percentile(ordered, 99):.1f}")


def _latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """Per-request latency histogram summary for a bench entry (ms)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return {"count": n,
            "mean": sum(ordered) / n if n else 0.0,
            "p50": _percentile(ordered, 50),
            "p95": _percentile(ordered, 95),
            "p99": _percentile(ordered, 99)}


# -- serving benchmark -------------------------------------------------------


def _bench_entry(engine: str, n: int, wall: float,
                 latencies: Optional[Sequence[float]] = None,
                 kernel: str = "keygen") -> Dict[str, Any]:
    entry = {
        "name": f"{kernel}/secp160r1/{engine}",
        "family": "serve",
        "kernel": kernel,
        "mode": "secp160r1",
        "engine": engine,
        "reps": n,
        "instructions": 1,  # one keygen per rep; ips is ops per second
        "cycles_per_run": 0,
        "wall_s": wall,
        "ips": n / wall if wall > 0 else 0.0,
    }
    if latencies:
        entry["latency_ms"] = _latency_summary(latencies)
    return entry


def _assert_all_ok(replies: Sequence[Dict[str, Any]], what: str) -> None:
    errors = [r for r in replies if not r["ok"]]
    if errors:
        raise RuntimeError(
            f"{what}: {len(errors)} error replies, first: "
            f"{errors[0]['error']}")


def run_bench_serve(n: Optional[int] = None, smoke: bool = False,
                    shard_counts: Optional[Sequence[int]] = None,
                    label: Optional[str] = None) -> Dict[str, Any]:
    """Measure the serving execution paths; return a schema-1 run record.

    Covers the single-process paths (direct / fixedbase / served /
    served_traced) on a keygen stream, then the scale-out legs
    (``mixed/secp160r1/shard<N>``): the DEFAULT_MIX workload against a
    fresh cluster of N serving processes in deterministic
    port-per-process mode, with ``4 * N`` client connections.  Raises
    ``RuntimeError`` on any error reply.  Floor checking is the
    caller's job (:func:`main` gates on the record's speedups).
    """
    if n is None:
        n = 64 if smoke else 192
    if shard_counts is None:
        shard_counts = (1, 2) if smoke else (1, 2, 4)
    requests = build_requests(n, mix="keygen:secp160r1=1", seed=1601)

    entries: List[Dict[str, Any]] = []
    replies, wall = run_direct(requests, fixed_base=False)
    _assert_all_ok(replies, "direct")
    entries.append(_bench_entry("direct", n, wall))

    replies, wall = run_direct(requests, fixed_base=True)
    _assert_all_ok(replies, "fixedbase")
    entries.append(_bench_entry("fixedbase", n, wall))

    # The served leg and its traced twin: their ratio is the measured
    # tracing overhead, floor-checked by check_floors.
    for engine, tracing in (("served", False), ("served_traced", True)):
        replies, lat, wall = asyncio.run(
            run_served(requests, tracing=tracing))
        _assert_all_ok(replies, engine)
        entries.append(_bench_entry(engine, n, wall, lat))

    direct_ips = entries[0]["ips"]
    speedups = {
        f"keygen/secp160r1/{e['engine']}:direct": e["ips"] / direct_ips
        for e in entries[1:]
    }
    served, traced = entries[-2:]
    speedups["keygen/secp160r1/served_traced:served"] = (
        traced["ips"] / served["ips"] if served["ips"] else 0.0)

    # Scale-out legs: the mixed workload against fresh clusters of N
    # serving processes, port-per-process + client round-robin for
    # deterministic placement.  Sized so the 2-process side lasts at
    # least 0.5 s on a 2-core host: shorter bursts read mostly
    # scheduling noise.
    n_shard = 600 if smoke else 1200
    shard_requests = build_requests(n_shard, mix=DEFAULT_MIX, seed=1602)
    shard_ips: Dict[int, float] = {}
    for count in shard_counts:
        replies, lat, wall = asyncio.run(run_processes(
            shard_requests, workers=count))
        _assert_all_ok(replies, f"shard{count}")
        entry = _bench_entry(f"shard{count}", n_shard, wall, lat,
                             kernel="mixed")
        entries.append(entry)
        shard_ips[count] = entry["ips"]
    base_count = min(shard_counts) if shard_counts else None
    if base_count is not None and shard_ips.get(base_count):
        for count in shard_counts:
            if count == base_count:
                continue
            speedups[f"mixed/secp160r1/shard{count}:shard{base_count}"] = (
                shard_ips[count] / shard_ips[base_count])

    # Tenancy legs (repro.serve.keys): the same ECDSA stream through a
    # fresh cluster twice per process count — inline private scalars vs
    # server-resident named keys over two tenants (setup through process
    # 0; resolution everywhere else rides the shared journal).  Their
    # ratio is the full cost of auth + token bucket + generation pin +
    # key resolution.
    n_sign = 12 if smoke else 24
    sign_mix = "ecdsa_sign:secp160r1=1"
    inline_requests = build_requests(n_sign, mix=sign_mix, seed=1603)
    named_requests = build_requests(n_sign, mix=sign_mix, seed=1603,
                                    tenants=2)
    named_setup = build_key_setup(2, sign_mix, seed=1603)
    for count in (1, 2):
        replies, lat, wall = asyncio.run(run_processes(
            inline_requests, workers=count))
        _assert_all_ok(replies, f"inline_shard{count}")
        inline = _bench_entry(f"inline_shard{count}", n_sign, wall, lat,
                              kernel="ecdsa")
        entries.append(inline)
        replies, lat, wall = asyncio.run(run_processes(
            named_requests, workers=count, setup=named_setup))
        _assert_all_ok(replies, f"named_shard{count}")
        named = _bench_entry(f"named_shard{count}", n_sign, wall, lat,
                             kernel="ecdsa")
        entries.append(named)
        if inline["ips"]:
            speedups[f"ecdsa/secp160r1/named_shard{count}:"
                     f"inline_shard{count}"] = named["ips"] / inline["ips"]

    # Quota-shed leg: one tenant with a deliberately tiny budget (burst
    # 8, 25/s) under an open-loop stream several times that size.  The
    # token bucket must shed the overflow with typed QuotaExceeded
    # replies — anything else (Overloaded, errors) fails the run, and
    # the recorded shed fraction is floor-checked.
    n_quota = 40
    quota_requests = build_requests(n_quota, mix=sign_mix, seed=1604,
                                    tenants=1)
    quota_setup = build_key_setup(1, sign_mix, seed=1604)
    quota_config = {"t0": {"rate": 25.0, "burst": 8}}
    replies, lat, wall = asyncio.run(run_served(
        quota_requests, setup=quota_setup, tenants_config=quota_config))
    shed = sum(1 for r in replies if not r["ok"]
               and r["error"]["type"] == "QuotaExceeded")
    stray = [r for r in replies if not r["ok"]
             and r["error"]["type"] != "QuotaExceeded"]
    if stray:
        raise RuntimeError(
            f"quota leg: {len(stray)} non-QuotaExceeded errors, first: "
            f"{stray[0]['error']}")
    entries.append(_bench_entry("quota", n_quota, wall, lat,
                                kernel="ecdsa"))
    speedups["named/quota_shed_fraction"] = shed / n_quota

    record = {
        "schema": 1,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "label": label or ("serve-smoke" if smoke else "serve"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": max(shard_counts) if shard_counts else 1,
        "entries": entries,
        "speedups": speedups,
    }
    bench.validate_run_record(record)
    return record


def render_serve(record: Dict[str, Any]) -> str:
    lines = [f"serving throughput ({record['label']}; keygen legs "
             f"n={record['entries'][0]['reps']}, shard legs run the "
             "default mixed workload)", ""]
    lines.append(f"{'path':<28}{'reps':>6}{'wall s':>9}{'ops/s':>10}")
    lines.append("-" * 53)
    for entry in record["entries"]:
        lines.append(f"{entry['name']:<28}{entry['reps']:>6}"
                     f"{entry['wall_s']:>9.2f}{entry['ips']:>10.1f}")
    lines.append("")
    lines.append("speedups (vs the direct path; shardN vs one process):")
    for key in sorted(record["speedups"]):
        lines.append(f"  {key:<40}{record['speedups'][key]:>6.2f}x")
    return "\n".join(lines)


def check_floors(record: Dict[str, Any],
                 scaling_floor: float = SERVE_MIN_SCALING,
                 fixed_base_floor: float = FIXED_BASE_MIN_SPEEDUP,
                 traced_floor: float = TRACED_MIN_RATIO,
                 shard_floor: float = SHARD_MIN_SCALING,
                 cpus: Optional[int] = None) -> int:
    """Enforce the serve speedup floors; returns a shell exit code.

    The shard floor compares multi-shard to one-shard throughput from
    the same run and needs cores to be meaningful: with ``cpus`` (or
    ``os.cpu_count()``) below 2, it degrades to the
    :data:`SHARD_SINGLE_CORE_MIN` anti-regression check instead.
    Records without shard legs (pre-scale-out history) skip the gate.
    """
    speedups = record["speedups"]
    failed = False
    fb = speedups.get("keygen/secp160r1/fixedbase:direct", 0.0)
    if fb < fixed_base_floor:
        print(f"FAIL: fixed-base speedup {fb:.2f}x is below the "
              f"{fixed_base_floor:.2f}x floor")
        failed = True
    served_keys = [k for k in speedups
                   if k.startswith("keygen/") and k.endswith(":direct")
                   and "/fixedbase:" not in k and "_traced" not in k]
    best_key = max(served_keys, key=lambda k: speedups[k], default=None)
    if best_key is None or speedups[best_key] < scaling_floor:
        got = speedups.get(best_key, 0.0) if best_key else 0.0
        print(f"FAIL: served throughput scaling {got:.2f}x is below the "
              f"{scaling_floor:.2f}x floor")
        failed = True
    # The tracing hot-path guard: traced throughput as a fraction of
    # its untraced twin, from the same run.
    for key in sorted(k for k in speedups
                      if "_traced:" in k and not k.endswith(":direct")):
        ratio = speedups[key]
        if ratio < traced_floor:
            print(f"FAIL: traced/untraced throughput ratio {ratio:.2f} "
                  f"({key}) is below the {traced_floor:.2f} floor")
            failed = True
    # The scale-out gate: best multi-process/one-process ratio.
    shard_keys = [k for k in speedups
                  if k.startswith("mixed/secp160r1/shard")
                  and ":shard" in k]
    shard_note = ""
    if shard_keys:
        if cpus is None:
            cpus = os.cpu_count() or 1
        best_shard = max(speedups[k] for k in shard_keys)
        if cpus >= 2:
            if best_shard < shard_floor:
                print(f"FAIL: shard scaling {best_shard:.2f}x is below "
                      f"the {shard_floor:.2f}x floor ({cpus} cpus)")
                failed = True
            shard_note = (f", shards {best_shard:.2f}x >= "
                          f"{shard_floor:.2f}x")
        else:
            # One core: parallel processes cannot outrun one; only
            # guard against the fan-out collapsing throughput.
            if best_shard < SHARD_SINGLE_CORE_MIN:
                print(f"FAIL: single-core shard throughput ratio "
                      f"{best_shard:.2f} is below the "
                      f"{SHARD_SINGLE_CORE_MIN:.2f} anti-regression floor")
                failed = True
            shard_note = (f", shards {best_shard:.2f}x >= "
                          f"{SHARD_SINGLE_CORE_MIN:.2f}x "
                          "(single-core fallback)")
    # The named-key overhead gate: named/inline throughput per process
    # count must stay above NAMED_MIN_RATIO.  Records predating the key
    # subsystem carry no such entries and skip the gate.
    named_note = ""
    named_keys = [k for k in speedups
                  if "/named_shard" in k and ":inline_shard" in k]
    if named_keys:
        worst_key = min(named_keys, key=lambda k: speedups[k])
        worst = speedups[worst_key]
        if worst < NAMED_MIN_RATIO:
            print(f"FAIL: named/inline throughput ratio {worst:.2f} "
                  f"({worst_key}) is below the {NAMED_MIN_RATIO:.2f} "
                  "floor")
            failed = True
        named_note = f", named {worst:.2f} >= {NAMED_MIN_RATIO:.2f}"
    quota = speedups.get("named/quota_shed_fraction")
    if quota is not None:
        if quota < QUOTA_SHED_MIN:
            print(f"FAIL: quota shed fraction {quota:.2f} is below the "
                  f"{QUOTA_SHED_MIN:.2f} floor (the token bucket is not "
                  "shedding)")
            failed = True
        named_note += f", quota shed {quota:.2f} >= {QUOTA_SHED_MIN:.2f}"
    if not failed:
        print(f"OK: fixed-base {fb:.2f}x >= {fixed_base_floor:.2f}x, "
              f"served {speedups[best_key]:.2f}x >= {scaling_floor:.2f}x, "
              f"traced ratio floors hold{shard_note}{named_note}")
    return 1 if failed else 0


def check_serve_against_baseline(path: str = SERVE_OUTPUT,
                                 threshold: float = SERVE_CHECK_THRESHOLD
                                 ) -> int:
    """Fresh smoke serve-bench vs the last committed BENCH_serve.json
    record (read-only; called from ``python -m repro bench --check``)."""
    if not os.path.exists(path):
        print(f"serve --check: no baseline at {path}; skipping")
        return 0
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list) or not records:
        print(f"serve --check: {path} holds no run records")
        return 1
    baseline = records[-1]
    bench.validate_run_record(baseline)
    fresh = run_bench_serve(smoke=True, label="check")
    rows = bench.compare_records(fresh, baseline, threshold)
    if not rows:
        print("serve --check: no overlapping entries with the baseline")
        return 1
    print(f"serve --check vs {baseline['label']} run of "
          f"{baseline['timestamp']} (tolerance -{threshold:.0%})\n")
    print(f"{'path':<28}{'baseline ops/s':>15}{'fresh ops/s':>13}"
          f"{'ratio':>8}")
    print("-" * 64)
    failed = False
    for row in rows:
        flag = "  REGRESSED" if row["regressed"] else ""
        failed = failed or row["regressed"]
        print(f"{row['name']:<28}{row['baseline_ips']:>15.1f}"
              f"{row['fresh_ips']:>13.1f}{row['ratio']:>8.2f}{flag}")
    print()
    print("FAIL: serving throughput regressed beyond tolerance" if failed
          else "OK: serving throughput within tolerance")
    return 1 if failed else 0


# -- trace reporting ---------------------------------------------------------


def _report_traces(records: List[RequestTrace],
                   client_times: Dict[str, Tuple[int, int]],
                   replies: Sequence[Dict[str, Any]],
                   slowlog_path: Optional[str]) -> int:
    """Join, validate and (optionally) dump the run's trace records.

    Every traced reply must resolve to an assembled span tree and the
    merged Chrome export must pass :func:`validate_chrome`; returns a
    shell exit code.
    """
    for rec in records:
        stamps = client_times.get(rec.trace_id)
        if stamps is not None:
            rec.client_t0_ns, rec.client_t1_ns = stamps
    trees = assemble(records)
    chrome = records_to_chrome(records)
    validate_chrome(chrome)
    traced = [r for r in replies if (r.get("meta") or {}).get("trace")]
    joined = sum(1 for r in traced if r["meta"]["trace"] in trees)
    print(f"tracing: {joined}/{len(traced)} traced replies joined into "
          f"span trees ({len(chrome['traceEvents'])} chrome events, "
          "validate_chrome clean)", file=sys.stderr)
    if not traced or joined != len(traced):
        print("loadgen --trace: FAIL, not every reply resolved to an "
              "assembled span tree", file=sys.stderr)
        return 1
    if slowlog_path:
        ring = FlightRecorder(capacity=min(32, max(1, len(records))))
        for rec in records:
            ring.record(rec)
        written = ring.dump(slowlog_path)
        print(f"slowlog: wrote the {written} slowest request trees to "
              f"{slowlog_path}", file=sys.stderr)
    return 0


# -- CLI ---------------------------------------------------------------------


def _parse_target(text: str) -> Tuple[str, int]:
    host, _, port_s = text.rpartition(":")
    try:
        return (host or "127.0.0.1"), int(port_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"target must be host:port, got {text!r}") from None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description="Deterministic ECC-service load generator and "
                    "serving benchmark.",
    )
    parser.add_argument("--target", type=_parse_target, default=None,
                        help="host:port of a running server (default: "
                             "start an in-process one)")
    parser.add_argument("--workers", type=int, default=1,
                        help="serving processes: 0 = no server (direct "
                             "in-process execution), 1 = one in-process "
                             "server (default), N > 1 = a fresh cluster "
                             "of N processes (port-per-process, "
                             "deterministic round-robin)")
    parser.add_argument("--connections", type=int, default=0,
                        help="client connections to spread the stream "
                             "over (default 1, or 4 per process with "
                             "--workers > 1)")
    parser.add_argument("--n", type=int, default=200,
                        help="requests to send (ignored with --duration)")
    parser.add_argument("--mix", default=DEFAULT_MIX,
                        help="op:curve=weight list (default: %(default)s)")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="requests per second; 0 = open loop "
                             "(pipeline everything at once)")
    parser.add_argument("--duration", type=float, default=None,
                        help="seconds to run at --rate (sets n = "
                             "rate * duration; requires --rate > 0)")
    parser.add_argument("--seed", type=int, default=7,
                        help="stream seed; same seed -> same bytes")
    parser.add_argument("--tenants", type=int, default=0,
                        help="spread secret-bearing ops over N tenants "
                             "using server-resident named keys (one "
                             "untimed key_create per tenant and curve "
                             "before the stream); 0 = inline secrets "
                             "(default)")
    parser.add_argument("--out", default="-",
                        help="JSONL summary path ('-' = stdout)")
    parser.add_argument("--check", action="store_true",
                        help="determinism gate: run the stream twice "
                             "against fresh servers, require zero errors "
                             "and identical summary bytes")
    parser.add_argument("--bench", action="store_true",
                        help="serving benchmark (direct / fixedbase / "
                             "served / served_traced on keygen/secp160r1, "
                             "1 / 2 / 4 serving processes on the mixed "
                             "workload, named-key vs inline ECDSA legs "
                             "and a quota-shed leg); appends to "
                             "BENCH_serve.json and enforces the speedup "
                             "floors")
    parser.add_argument("--bench-output", default=SERVE_OUTPUT,
                        help="run-record file for --bench (default "
                             f"{SERVE_OUTPUT}; 'none' disables writing)")
    parser.add_argument("--smoke", action="store_true",
                        help="with --bench: smaller rep count")
    parser.add_argument("--no-fixed-base", action="store_true",
                        help="disable fixed-base tables on the started "
                             "server(s) / direct path")
    parser.add_argument("--label", default=None,
                        help="free-form label stored in the bench record")
    parser.add_argument("--trace", action="store_true",
                        help="end-to-end request tracing: stamp every "
                             "request, join the cross-process span trees "
                             "and schema-check the merged Chrome export "
                             "(in-process server only)")
    parser.add_argument("--slowlog", default=None, metavar="PATH",
                        help="with --trace: dump the slowest request "
                             "trees as Chrome trace JSON to PATH")
    parser.add_argument("--scrape", action="store_true",
                        help="scrape the server's Prometheus stats "
                             "exposition through the wire after the run "
                             "and print it to stdout")
    args = parser.parse_args(argv)

    if args.bench:
        record = run_bench_serve(smoke=args.smoke, label=args.label)
        print(render_serve(record))
        print()
        status = check_floors(record)
        if args.bench_output != "none":
            bench.append_record(record, args.bench_output)
            print(f"appended run record to {args.bench_output}")
        return status

    if args.duration is not None:
        if args.rate <= 0:
            parser.error("--duration requires --rate > 0")
        n = max(1, int(args.rate * args.duration))
    else:
        n = args.n
    fixed_base = not args.no_fixed_base
    if args.tenants < 0:
        parser.error("--tenants must be >= 0")
    if args.tenants and args.check and args.target is not None:
        parser.error("--check with --tenants needs fresh servers (the "
                     "second pass would re-create the keys); drop "
                     "--target")
    requests = build_requests(n, mix=args.mix, seed=args.seed,
                              tenants=args.tenants)
    setup = (build_key_setup(args.tenants, args.mix, seed=args.seed)
             if args.tenants else [])

    if args.workers < 0:
        parser.error("--workers must be >= 0")
    if args.connections < 0:
        parser.error("--connections must be >= 0")
    cluster = args.workers > 1
    if cluster:
        if args.target is not None:
            parser.error("--workers > 1 starts its own cluster; it cannot "
                         "be used with --target")
        if args.trace:
            parser.error("--trace joins in-process records; forked "
                         "serving processes are out of reach (use the "
                         "server's --tracing + slowlog instead)")
        if args.scrape:
            parser.error("--scrape reads one server; against a cluster "
                         "use the stats op with scope=cluster")
    if args.trace and args.target is not None:
        parser.error("--trace joins records from the in-process server; "
                     "it cannot be used with --target")
    if (args.trace or args.scrape) and args.target is None \
            and args.workers == 0:
        parser.error("--trace/--scrape need a server (--workers >= 1 "
                     "or --target)")
    if args.slowlog and not args.trace:
        parser.error("--slowlog requires --trace")
    connections = args.connections or (4 * args.workers if cluster
                                       else 1)
    trace_sink: Optional[List[RequestTrace]] = [] if args.trace else None
    scrape_sink: Optional[List[str]] = [] if args.scrape else None
    client_times: Dict[str, Tuple[int, int]] = {}

    def one_run() -> Tuple[List[Dict[str, Any]], List[float], float]:
        if cluster:
            return asyncio.run(run_processes(
                requests, workers=args.workers, connections=connections,
                rate=args.rate, fixed_base=fixed_base, setup=setup))
        if args.target is None and args.workers == 0:
            replies, wall = run_direct(requests, fixed_base=fixed_base,
                                       setup=setup)
            return replies, [], wall
        return asyncio.run(run_served(
            requests, rate=args.rate, target=args.target,
            fixed_base=fixed_base, tracing=args.trace,
            trace_sink=trace_sink, scrape_sink=scrape_sink,
            client_times=client_times if args.trace else None,
            connections=connections, setup=setup))

    replies, latencies, wall = one_run()
    summary = summarize(requests, replies)
    n_err = sum(1 for r in replies if not r["ok"])
    if args.check:
        replies2, _lat2, _wall2 = one_run()
        summary2 = summarize(requests, replies2)
        if n_err:
            print(f"loadgen --check: FAIL, {n_err} error replies")
            return 1
        if summary != summary2:
            print("loadgen --check: FAIL, summaries differ between runs")
            return 1
        print(f"loadgen --check: OK, {n} requests, zero errors, "
              "byte-identical summaries across two runs")
    if args.out == "-":
        if not args.check:
            sys.stdout.buffer.write(summary)
            sys.stdout.buffer.flush()
    else:
        with open(args.out, "wb") as fh:
            fh.write(summary)
    print(_latency_report(latencies, wall, n_err) if latencies
          else f"{n} requests in {wall:.2f} s "
               f"({n / wall if wall else 0.0:.1f} ops/s), {n_err} errors",
          file=sys.stderr)
    if trace_sink is not None:
        status = _report_traces(trace_sink, client_times, replies,
                                args.slowlog)
        if status:
            return status
    if scrape_sink:
        sys.stdout.write(scrape_sink[-1])
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
