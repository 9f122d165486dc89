"""Scale-out serving: N serving processes behind one listening port.

``python -m repro serve --workers N`` with N > 1 (and the loadgen's
``--workers N``) runs through this module.  The **supervisor** process:

1. builds the warm curves' comb tables into its process-wide
   :data:`~repro.scalarmult.fixed_base.TABLE_CACHE` before it forks and
   keeps them there, so every serving process — respawned ones too —
   inherits them copy-on-write instead of precomputing;
2. creates a :class:`StatsBoard` — one crc-framed shared-memory slot
   per serving process that each one periodically publishes its stats
   payload into, which is what lets any single process answer
   ``stats`` with ``scope="cluster"``;
3. forks N **serving processes** (shards), each running its own event
   loop with a full :class:`~repro.serve.server.EccServer` (accept
   loop, admission, bounded queue, inline execution);
4. monitors the children and **respawns** any shard that dies, without
   the listening port ever going away.

Two ingress modes:

* **SO_REUSEPORT** (default where the platform has it): every shard
  binds the same (host, port) and the kernel spreads incoming
  connections across their accept queues.  The supervisor holds an
  extra bound-but-never-listening socket on the port for the cluster's
  lifetime, so the port survives even a moment where every shard is
  mid-respawn and an ephemeral port (``--port 0``) cannot be stolen.
* **Port-per-shard redirector** (``--no-reuseport``, or platforms
  without the option): shards listen on their own ephemeral ports and
  the supervisor runs a tiny round-robin TCP byte proxy on the public
  port.  Deterministic connection placement makes this the mode the
  benchmark legs use; production prefers SO_REUSEPORT (no extra hop).

Each shard stamps ``shard="<i>"`` as a registry-wide metric label
(:meth:`~repro.obs.metrics.MetricsRegistry.set_label`), so per-shard
Prometheus scrapes stay distinguishable after aggregation.  Token
buckets and key quotas are per serving process (docs/tenancy.md).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import os
import signal
import socket
import struct
import sys
import time
import zlib
from dataclasses import replace
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional

from ..obs.metrics import METRICS
from .server import EccServer, ServeConfig
from .worker import WorkerState

__all__ = [
    "PUBLISH_INTERVAL",
    "ShardCluster",
    "StatsBoard",
    "reuseport_available",
    "run_cluster",
]

_RESPAWNS = METRICS.counter(
    "serve_shard_respawns_total",
    "shard processes respawned by the supervisor")

#: Seconds between a shard's periodic stats-board publications (each
#: ``scope="cluster"`` request also publishes the answering shard
#: fresh, so this only bounds the staleness of the *other* slots).
PUBLISH_INTERVAL = float(
    os.environ.get("REPRO_SHARD_PUBLISH_INTERVAL", "0.25"))

#: Seconds the supervisor's monitor sleeps between liveness sweeps.
_MONITOR_INTERVAL = 0.2

#: Seconds to wait for a freshly spawned shard to report its port.
_SPAWN_TIMEOUT = 60.0


def reuseport_available() -> bool:
    """Whether this platform can share one listening port across
    processes (Linux/BSD yes; the fallback is the redirector)."""
    return hasattr(socket, "SO_REUSEPORT")


# -- the cross-shard stats board ---------------------------------------------

_BOARD_MAGIC = b"RSB1"
_BOARD_HEADER = struct.Struct(">4sII")  # magic, slots, slot_size
_SLOT_HEADER = struct.Struct(">II")     # crc32(payload), payload length


class StatsBoard:
    """One shared-memory slot per shard for JSON stats payloads.

    Single writer per slot (the owning shard), any number of readers.
    Writers lay the payload down first and the crc32+length header
    last; a reader that catches a torn write sees a crc mismatch and
    skips the slot rather than parsing garbage — there are no locks.
    """

    #: Per-slot capacity; a full stats payload is a few KiB.
    SLOT_SIZE = 32768

    def __init__(self, shm: shared_memory.SharedMemory, slots: int,
                 slot_size: int, owner: bool):
        self._shm = shm
        self.slots = slots
        self.slot_size = slot_size
        self._owner = owner

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def create(cls, slots: int,
               slot_size: int = SLOT_SIZE) -> "StatsBoard":
        if slots < 1:
            raise ValueError("a stats board needs at least one slot")
        size = _BOARD_HEADER.size + slots * slot_size
        shm = shared_memory.SharedMemory(create=True, size=size)
        shm.buf[:size] = b"\x00" * size  # all slot headers = empty
        shm.buf[:_BOARD_HEADER.size] = _BOARD_HEADER.pack(
            _BOARD_MAGIC, slots, slot_size)
        return cls(shm, slots, slot_size, owner=True)

    @classmethod
    def attach(cls, name: str) -> "StatsBoard":
        shm = shared_memory.SharedMemory(name=name)
        if shm.size < _BOARD_HEADER.size:
            shm.close()
            raise ValueError(f"segment {name!r} is too short for a "
                             "stats board")
        magic, slots, slot_size = _BOARD_HEADER.unpack_from(shm.buf, 0)
        if magic != _BOARD_MAGIC \
                or shm.size < _BOARD_HEADER.size + slots * slot_size:
            shm.close()
            raise ValueError(f"segment {name!r} is not a stats board")
        return cls(shm, slots, slot_size, owner=False)

    def _slot_offset(self, index: int) -> int:
        if not 0 <= index < self.slots:
            raise IndexError(f"slot {index} outside 0..{self.slots - 1}")
        return _BOARD_HEADER.size + index * self.slot_size

    def publish(self, index: int, payload: Dict[str, Any]) -> None:
        """Write *payload* into slot *index* (payload first, header
        last).  Oversized payloads drop their ``histograms`` before
        giving up."""
        data = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode()
        limit = self.slot_size - _SLOT_HEADER.size
        if len(data) > limit and "histograms" in payload:
            slim = dict(payload)
            slim.pop("histograms")
            data = json.dumps(slim, sort_keys=True,
                              separators=(",", ":")).encode()
        if len(data) > limit:
            raise ValueError(f"stats payload of {len(data)} bytes exceeds "
                             f"the {limit}-byte slot")
        offset = self._slot_offset(index)
        body = offset + _SLOT_HEADER.size
        self._shm.buf[body:body + len(data)] = data
        self._shm.buf[offset:body] = _SLOT_HEADER.pack(
            zlib.crc32(data), len(data))

    def read(self, index: int) -> Optional[Dict[str, Any]]:
        """Slot *index*'s payload, or ``None`` when empty or torn."""
        offset = self._slot_offset(index)
        crc, length = _SLOT_HEADER.unpack_from(self._shm.buf, offset)
        if length == 0 or length > self.slot_size - _SLOT_HEADER.size:
            return None
        body = offset + _SLOT_HEADER.size
        data = bytes(self._shm.buf[body:body + length])
        if zlib.crc32(data) != crc:
            return None  # torn write in progress; reader skips
        try:
            payload = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def read_all(self) -> List[Dict[str, Any]]:
        """Every readable slot, in slot order."""
        payloads = []
        for index in range(self.slots):
            payload = self.read(index)
            if payload is not None:
                payloads.append(payload)
        return payloads

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        if not self._owner:
            raise ValueError("only the creating process may unlink")
        self._shm.unlink()


# -- shard child process -----------------------------------------------------


def _shard_entry(index: int, config: ServeConfig, board_name: str,
                 conn) -> None:
    """Child-process entry point of one shard (picklable top-level)."""
    # The fork copied the supervisor's signal setup: a SIGTERM handler
    # that only writes to the supervisor loop's wakeup fd.  Restore the
    # defaults so a signal that lands before this shard's own loop
    # installs its handlers still ends the process.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        asyncio.run(_shard_serve(index, config, board_name, conn))
    except KeyboardInterrupt:  # supervisor ^C reaches the process group
        pass


async def _shard_serve(index: int, config: ServeConfig, board_name: str,
                       conn) -> None:
    # Forked process reporting metrics: drop the supervisor's inherited
    # tallies (its table builds included), then take the shard identity
    # label (reset keeps labels).
    METRICS.reset_for_fork()
    METRICS.set_label("shard", str(index))
    try:
        board: Optional[StatsBoard] = StatsBoard.attach(board_name)
    except (ValueError, OSError):
        board = None
    server = EccServer(config)
    server.board = board
    try:
        await server.start()
    except OSError as exc:
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
        conn.close()
        return
    conn.send({"port": server.port})
    conn.close()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    with contextlib.suppress(NotImplementedError, ValueError):
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)
    publisher = asyncio.create_task(
        _publish_loop(server, board, index))
    try:
        await stop.wait()
    finally:
        publisher.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await publisher
        await server.stop()
        if board is not None:
            board.close()


async def _publish_loop(server: EccServer, board: Optional[StatsBoard],
                        index: int) -> None:
    if board is None:
        return
    while True:
        with contextlib.suppress(ValueError, IndexError):
            board.publish(index, server._shard_payload())
        await asyncio.sleep(PUBLISH_INTERVAL)


# -- the supervisor ----------------------------------------------------------


def _reserve_port(host: str, port: int) -> socket.socket:
    """Bind (never listen) a SO_REUSEPORT socket: reserves the port for
    the cluster's lifetime.  TCP SYNs only match *listening* sockets,
    so this adds no accept queue — it just pins the number while shards
    come and go."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


class ShardCluster:
    """Supervisor of ``config.workers`` serving processes plus their
    shared state.

    ``await start()`` warms the comb tables, creates the board, forks
    the shards and (without SO_REUSEPORT) starts the redirector;
    :attr:`port` is then the one public port.  ``await stop()`` tears
    everything down and unlinks the board.  The respawn monitor keeps
    :attr:`respawns` and the ``serve_shard_respawns_total`` counter.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 *, reuseport: Optional[bool] = None, respawn: bool = True):
        self.config = config or ServeConfig()
        shards = self.config.workers
        if shards < 1:
            raise ValueError("need at least one serving process")
        self.shards = shards
        self.reuseport = (reuseport_available() if reuseport is None
                          else reuseport)
        if self.reuseport and not reuseport_available():
            raise ValueError("SO_REUSEPORT is not available here; use "
                             "reuseport=False (port-per-shard mode)")
        self.respawn_enabled = respawn
        self.port: Optional[int] = None
        #: Live per-shard listening ports (== [port]*N with reuseport).
        self.shard_ports: List[Optional[int]] = [None] * shards
        self.respawns = 0
        self.board: Optional[StatsBoard] = None
        self._ctx = multiprocessing.get_context("fork")
        self._procs: List[Optional[multiprocessing.Process]] = \
            [None] * shards
        self._reserve: Optional[socket.socket] = None
        self._redirector: Optional[asyncio.AbstractServer] = None
        self._monitor: Optional[asyncio.Task] = None
        self._rr = 0
        self._stopping = False
        self._journal_owned = False  # shared temp key journal to unlink

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ShardCluster":
        cfg = self.config
        if cfg.keys_journal is None:
            # One shared named-key journal for the whole cluster: every
            # shard replays and appends to the same file, which is what
            # makes a key created via shard 0 resolvable on shard N —
            # and what lets a respawned shard pick its keys back up
            # (DESIGN.md §8).
            import tempfile

            fd, cfg.keys_journal = tempfile.mkstemp(
                prefix="repro-keys-cluster-", suffix=".ndjson")
            os.close(fd)
            self._journal_owned = True
        # Built once here and kept: every fork, respawns included,
        # inherits the tables copy-on-write (their
        # fixed_base_tables_built counters stay at zero).
        WorkerState(fixed_base=cfg.fixed_base,
                    fb_width=cfg.fb_width).warm(cfg.warm_curves)
        self.board = StatsBoard.create(self.shards)
        if self.reuseport:
            self._reserve = _reserve_port(cfg.host, cfg.port)
            self.port = self._reserve.getsockname()[1]
        for index in range(self.shards):
            await self._spawn(index)
        if not self.reuseport:
            self._redirector = await asyncio.start_server(
                self._redirect, cfg.host, cfg.port)
            self.port = self._redirector.sockets[0].getsockname()[1]
        if self.respawn_enabled:
            self._monitor = asyncio.create_task(self._monitor_loop())
        return self

    async def stop(self) -> None:
        self._stopping = True
        if self._monitor is not None:
            self._monitor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor
        if self._redirector is not None:
            self._redirector.close()
            await self._redirector.wait_closed()
        loop = asyncio.get_running_loop()
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is None:
                continue
            await loop.run_in_executor(None, proc.join, 5)
            if proc.is_alive():  # pragma: no cover - stuck shard
                proc.kill()
                await loop.run_in_executor(None, proc.join, 5)
        if self._reserve is not None:
            self._reserve.close()
        if self.board is not None:
            self.board.close()
            self.board.unlink()
        if self._journal_owned and self.config.keys_journal:
            with contextlib.suppress(OSError):
                os.unlink(self.config.keys_journal)
            self._journal_owned = False

    async def __aenter__(self) -> "ShardCluster":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- shard processes -----------------------------------------------------

    def _shard_config(self, index: int) -> ServeConfig:
        return replace(
            self.config,
            port=self.port if self.reuseport else 0,
            reuse_port=self.reuseport,
            shard=index,
            # The supervisor owns slowlog dumping, not N clashing files.
            slowlog_out=None,
        )

    async def _spawn(self, index: int) -> None:
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_shard_entry, name=f"repro-shard-{index}",
            args=(index, self._shard_config(index), self.board.name,
                  send_conn),
            # Daemonic: if the supervisor exits without stop(), its
            # multiprocessing atexit hook still ends every shard.
            daemon=True)
        proc.start()
        send_conn.close()
        try:
            port = await self._await_port(recv_conn, proc)
        finally:
            recv_conn.close()
        self._procs[index] = proc
        self.shard_ports[index] = port

    @staticmethod
    async def _await_port(conn, proc) -> int:
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if conn.poll():
                msg = conn.recv()
                if isinstance(msg, dict) and "port" in msg:
                    return msg["port"]
                raise RuntimeError(f"shard failed to start: {msg}")
            if not proc.is_alive():
                raise RuntimeError(
                    f"shard died during startup (exit {proc.exitcode})")
            await asyncio.sleep(0.02)
        raise RuntimeError("timed out waiting for a shard to report "
                           "its port")

    async def _monitor_loop(self) -> None:
        """Respawn dead shards; the listener never drops meanwhile (the
        reserve socket or the redirector holds the public port)."""
        while True:
            await asyncio.sleep(_MONITOR_INTERVAL)
            for index in range(self.shards):
                proc = self._procs[index]
                if proc is None or proc.is_alive() or self._stopping:
                    continue
                proc.join()
                self.respawns += 1
                _RESPAWNS.inc()
                print(f"shard {index} exited (code {proc.exitcode}); "
                      "respawning", file=sys.stderr)
                try:
                    await self._spawn(index)
                except RuntimeError as exc:  # pragma: no cover - races
                    print(f"shard {index} respawn failed: {exc}",
                          file=sys.stderr)

    # -- the port-per-shard redirector ---------------------------------------

    async def _redirect(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
        """Round-robin one inbound connection onto a live shard and pump
        bytes both ways (protocol-agnostic: NDJSON framing passes
        through untouched)."""
        upstream = None
        for _attempt in range(self.shards):
            index = self._rr % self.shards
            self._rr += 1
            port = self.shard_ports[index]
            if port is None:
                continue
            try:
                upstream = await asyncio.open_connection(
                    self.config.host, port)
                break
            except OSError:
                continue  # dead shard mid-respawn: try the next one
        if upstream is None:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            return
        up_reader, up_writer = upstream

        async def pump(src: asyncio.StreamReader,
                       dst: asyncio.StreamWriter) -> None:
            try:
                while True:
                    data = await src.read(65536)
                    if not data:
                        break
                    dst.write(data)
                    await dst.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            # Half-close so in-flight replies still drain the other way.
            with contextlib.suppress(Exception):
                if dst.can_write_eof():
                    dst.write_eof()

        try:
            await asyncio.gather(pump(reader, up_writer),
                                 pump(up_reader, writer))
        except asyncio.CancelledError:
            pass  # loop teardown mid-pump; finish cleanly, not cancelled
        finally:
            for w in (up_writer, writer):
                w.close()
                with contextlib.suppress(Exception):
                    await w.wait_closed()


def run_cluster(config: ServeConfig,
                reuseport: Optional[bool] = None) -> int:
    """Run a cluster of ``config.workers`` serving processes until
    SIGINT/SIGTERM (the ``python -m repro serve --workers N`` path)."""

    async def _run() -> int:
        cluster = ShardCluster(config, reuseport=reuseport)
        await cluster.start()
        mode = ("SO_REUSEPORT" if cluster.reuseport
                else "port-per-shard redirector")
        print(f"repro.serve supervisor listening on "
              f"{config.host}:{cluster.port} ({cluster.shards} serving "
              f"processes, {mode})", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            loop.add_signal_handler(signal.SIGINT, stop.set)
        try:
            await stop.wait()
        finally:
            await cluster.stop()
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 0
