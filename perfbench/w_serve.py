"""Workload ``serve_named``: a served named-key mix over a closed loop.

A ``python -m repro serve`` subprocess runs in its default process layout;
the benchmark passes only deployment settings (port, key journal, tenants
file).  Two connections (this host's core count) drive it as a closed
loop: each sends its next request when the previous reply arrives.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Tuple

import refmath
from calib import Calibrator
from measure import Phase, Record, p50, process_tree, rss_peak_mb, \
    run_blocks

WHY = ("every op is a 7-14 ms comb-table op, so the serve stack is the "
       "largest share of latency here of any workload; rotations put "
       "registry and journal writes, and their scalar mult on the accept "
       "loop, beside the registry reads")

CURVE = "secp160r1"
CONNECTIONS = 2
TENANTS = ("alpha", "bravo", "charlie", "delta")
KEY_NAMES = ("sig-a", "sig-b")
#: keygen : ECDSA sign : Schnorr sign : key_rotate, all on CURVE.
MIX = (("keygen", 10), ("ecdsa_sign", 5), ("schnorr_sign", 3),
       ("key_rotate", 1))
#: Quotas far above any reachable throughput, so no program speed-up can
#: trip a QuotaExceeded by itself.
QUOTA = {"max_keys": 64, "rate": 1e6, "burst": 1000000}
ROUND = sum(weight for _, weight in MIX)
#: The stream's first rounds replayed in-process for the exact field-op
#: counts and the worker's service time.
REPLAY_OPS = 2 * ROUND
SETUPS = 3
CLIENT_TIMEOUT_S = 30.0
#: Wall time of one block of closed-loop traffic between calibration
#: bursts: short, so the bursts sit close to the work they normalize.
BLOCK_S = 0.2


class Conn:
    """One blocking NDJSON connection."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=CLIENT_TIMEOUT_S)
        self.file = self.sock.makefile("rb")

    def call(self, req: Dict[str, Any]) -> Tuple[Dict[str, Any], float, float]:
        line = (json.dumps(req, separators=(",", ":")) + "\n").encode()
        t_send = time.perf_counter()
        self.sock.sendall(line)
        reply = self.file.readline()
        t_recv = time.perf_counter()
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply), t_send, t_recv

    def close(self) -> None:
        self.file.close()
        self.sock.close()


class OpStream:
    """Op *i* of a seed, derived from the seed and i alone.

    The stream runs in rounds of :data:`ROUND` ops, each round a seeded
    shuffle of the exact mix, so every stretch of the stream has the mix's
    proportions and rotations are spread out rather than bunched.
    """

    def __init__(self, seed: int, tokens: Dict[str, str]):
        self.seed = seed
        self.tokens = tokens
        self._round = [kind for kind, weight in MIX for _ in range(weight)]

    def op(self, i: int, tenant_prefix: str = "") -> Dict[str, Any]:
        kind = random.Random(f"{self.seed}:round:{i // ROUND}").sample(
            self._round, ROUND)[i % ROUND]
        rng = random.Random(f"{self.seed}:op:{i}")
        tenant = rng.choice(TENANTS)
        key = rng.choice(KEY_NAMES)
        msg = rng.randbytes(32).hex()
        req: Dict[str, Any] = {"id": i, "op": kind}
        if kind == "keygen":
            req.update(curve=CURVE, params={"seed": f"{self.seed}-{i}"})
            return req
        req["tenant"] = tenant_prefix + tenant
        req["token"] = self.tokens.get(tenant, "")
        if kind == "key_rotate":
            req["params"] = {"name": key, "seed": f"{self.seed}-{i}"}
        else:
            req.update(curve=CURVE, params={"key": key, "msg": msg})
        return req


class Server:
    """The ``repro serve`` subprocess and its files."""

    def __init__(self, root: str, workdir: str, tenants: Dict[str, Any]):
        os.makedirs(workdir, exist_ok=True)
        self.journal = os.path.join(workdir, "keys.ndjson")
        tenants_file = os.path.join(workdir, "tenants.json")
        if os.path.exists(self.journal):
            os.unlink(self.journal)
        with open(tenants_file, "w", encoding="utf-8") as fh:
            json.dump(tenants, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self._log = open(os.path.join(workdir, "server.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--keys-journal", self.journal, "--tenants-file", tenants_file],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log)
        self.port = self._await_port(60.0)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        out = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 0.5)
            if ready:
                line = out.readline().decode(errors="replace")
                if not line:
                    break
                if "listening on" in line:
                    return int(line.split("listening on", 1)[1].split()[0]
                               .rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("repro serve did not come up")

    def tree(self) -> List[int]:
        return process_tree(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM the server and wait for it and its pool to end."""
        pids = [p for p in self.tree() if p != self.proc.pid]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 10
        while pids and time.monotonic() < deadline:
            pids = [p for p in pids if os.path.exists(f"/proc/{p}")]
            time.sleep(0.05)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def stats(conn: Conn) -> Dict[str, Any]:
    reply, _, _ = conn.call({"id": 0, "op": "stats", "params": {}})
    return reply["result"]


class ServeNamed:
    def __init__(self, root: str, seed: int, ref_ms: float, trace: bool):
        self.root = root
        self.seed = seed
        # The server's processes run on every CPU this one may use.
        self.cal = Calibrator(ref_ms, cpus=sorted(os.sched_getaffinity(0)))
        self.trace = trace
        self.workdir = os.path.join(root, ".bench_out", "serve_named")
        rng = random.Random(f"{seed}:tokens")
        self.tokens = {t: rng.randbytes(16).hex() for t in TENANTS}
        self.tenants_cfg = {t: dict(QUOTA, token=self.tokens[t])
                            for t in TENANTS}
        self.stream = OpStream(seed, self.tokens)
        from repro.curves import params as P

        self.n = P.SECP160R1_N
        self.ref = refmath.ShortWeierstrass(P.SECP160R1_P, P.SECP160R1_A,
                                            P.SECP160R1_B)
        self.g_table = refmath.doublings(
            self.ref, (P.SECP160R1_GX, P.SECP160R1_GY))
        #: (tenant, key) -> {generation: (public point, t_sent, t_recv)}
        self.history: Dict[Tuple[str, str], Dict[int, tuple]] = {}
        self._tables: Dict[tuple, list] = {}

    # -- set-up --------------------------------------------------------------

    def _setup_once(self) -> Tuple[Server, Dict]:
        server = Server(self.root, self.workdir, self.tenants_cfg)
        try:
            history = self._warm_and_create(server)
        except BaseException:
            server.stop()
            raise
        return server, history

    def _warm_and_create(self, server: Server) -> Dict:
        from repro.serve.server import ServeConfig

        workers = ServeConfig().workers
        conns = [Conn(server.port) for _ in range(CONNECTIONS)]
        try:
            # Warm every pool worker: pairs of requests in two (op, curve)
            # groups are dispatched as two concurrent batches, until the
            # merged counters show one comb table built per worker.
            with ThreadPoolExecutor(CONNECTIONS) as pool:
                for attempt in range(200):
                    reqs = [{"id": 1, "op": "keygen", "curve": CURVE,
                             "params": {"seed": f"warm-{attempt}"}},
                            {"id": 2, "op": "scalarmult", "curve": CURVE,
                             "params": {"k": "abcdef"}}]
                    for fut in [pool.submit(c.call, r)
                                for c, r in zip(conns, reqs)]:
                        fut.result()
                    counters = stats(conns[0])["counters"]
                    if counters.get("fixed_base_tables_built", 0) \
                            + counters.get("fixed_base_tables_loaded", 0) \
                            >= workers:
                        break
                else:
                    raise RuntimeError("pool workers never warmed")
            history = {}
            for tenant in TENANTS:
                for name in KEY_NAMES:
                    reply, _, _ = conns[0].call({
                        "id": 3, "op": "key_create", "curve": CURVE,
                        "tenant": tenant, "token": self.tokens[tenant],
                        "params": {"name": name,
                                   "seed": f"{self.seed}-{tenant}-{name}"}})
                    if not reply.get("ok"):
                        raise RuntimeError(f"key_create failed: {reply}")
                    pub = reply["result"]["public"]
                    history[(tenant, name)] = {
                        1: ((int(pub["x"], 16), int(pub["y"], 16)),
                            float("-inf"), float("-inf"))}
            return history
        finally:
            for c in conns:
                c.close()

    # -- the timed phase -----------------------------------------------------

    def _conn_loop(self, conn_box: list, deadline: float, block: int,
                   records: list, counter: list, lock: threading.Lock):
        while time.perf_counter() < deadline:
            with lock:
                i = counter[0]
                counter[0] += 1
            req = self.stream.op(i)
            t_send = time.perf_counter()
            try:
                reply, t_send, t_recv = conn_box[0].call(req)
            except (OSError, ValueError, ConnectionError) as exc:
                records.append((i, req, None, t_send, time.perf_counter(),
                                block, f"client: {type(exc).__name__}"))
                conn_box[0].close()
                conn_box[0] = Conn(self.port)
                continue
            records.append((i, req, reply, t_send, t_recv, block, None))

    def _queue_poller(self, stop: threading.Event, peak: list) -> None:
        conn = Conn(self.port)
        try:
            while not stop.is_set():
                depth = stats(conn).get("queue_depth", 0)
                peak[0] = max(peak[0], depth)
                stop.wait(0.05)
        finally:
            conn.close()

    def run(self, seconds: float, record: Record) -> Tuple[int, int]:
        setup_raw = []
        server = None
        for _ in range(SETUPS if not self.trace else 1):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server, self.history = self._setup_once()
            setup_raw.append(time.perf_counter() - t0)
        self.port = server.port
        try:
            return self._measure(server, seconds, record, setup_raw)
        finally:
            server.stop()

    def _measure(self, server: Server, seconds: float, record: Record,
                 setup_raw: List[float]):
        conns = [[Conn(server.port)] for _ in range(CONNECTIONS)]
        side = Conn(server.port)
        records: list = []
        counter = [0]
        lock = threading.Lock()
        phase = Phase()
        peak = [0]
        before = stats(side)
        pool = ThreadPoolExecutor(CONNECTIONS + 1)

        def block(deadline: float):
            index = len(phase.factors)
            start = len(records)
            t0 = time.perf_counter()
            stop = threading.Event()
            poller = (pool.submit(self._queue_poller, stop, peak)
                      if self.trace else None)
            futs = [pool.submit(self._conn_loop, box, deadline, index,
                                records, counter, lock) for box in conns]
            for fut in futs:
                fut.result()
            busy = time.perf_counter() - t0
            stop.set()
            if poller is not None:
                poller.result()
            return [(r[4] - r[3]) * 1e3 for r in records[start:]], busy

        try:
            run_blocks(self.cal, seconds, block, BLOCK_S, phase)
            after = stats(side)
            tree = server.tree()
            mem_mb = rss_peak_mb(tree)
        finally:
            pool.shutdown(wait=True)
            for box in conns:
                box[0].close()
            side.close()
        failures = self._verify(records)
        attempted = len(records)
        failed = len(failures)

        replay = self._replay()
        record.end_to_end(self.cal, phase, setup_raw, attempted, failed,
                          mem_mb, replay["cycles_per_op"])
        record.note("journal", f"{server.journal} on "
                    f"{_fs_type(server.journal)} (the repo checkout; the "
                    "benchmark writes only inside it)")
        record.note("failures", failures[:20])
        if self.trace:
            self._layers(record, phase, records, before, after,
                         peak[0], server, replay)
        return attempted, failed

    # -- verification --------------------------------------------------------

    def _public_table(self, point) -> list:
        table = self._tables.get(point)
        if table is None:
            table = self._tables[point] = refmath.doublings(self.ref, point)
        return table

    def _verify(self, records: list) -> List[str]:
        failures = []
        rotations = [r for r in records if r[1]["op"] == "key_rotate"]
        for i, req, reply, t_send, t_recv, block, err in rotations:
            if err is None and reply.get("ok"):
                res = reply["result"]
                pub = (int(res["public"]["x"], 16),
                       int(res["public"]["y"], 16))
                key = (req["tenant"], req["params"]["name"])
                if not self.ref.on_curve(pub):
                    failures.append(f"{i}: rotated public off the curve")
                self.history[key][res["generation"]] = (pub, t_send, t_recv)
        for key, gens in self.history.items():
            if sorted(gens) != list(range(1, len(gens) + 1)):
                failures.append(f"{key}: generations {sorted(gens)}")
        for i, req, reply, t_send, t_recv, block, err in records:
            if err is not None:
                failures.append(f"{i}: {err}")
            elif not reply.get("ok"):
                failures.append(f"{i}: {reply.get('error')}")
            elif req["op"] == "keygen":
                res = reply["result"]
                private = int(res["private"], 16)
                pub = (int(res["public"]["x"], 16),
                       int(res["public"]["y"], 16))
                if private != refmath.keygen_scalar(req["params"]["seed"],
                                                    self.n) or pub != \
                        refmath.mul_doublings(self.ref, private,
                                              self.g_table):
                    failures.append(f"{i}: keygen output mismatch")
            elif req["op"] in ("ecdsa_sign", "schnorr_sign"):
                if not self._verify_signature(req, reply["result"],
                                              t_send, t_recv):
                    failures.append(f"{i}: {req['op']} does not verify")
        return failures

    def _verify_signature(self, req, result, t_send, t_recv) -> bool:
        """Valid under some generation that could have been current:
        not superseded before the request was sent, and rotated in before
        the reply arrived."""
        gens = self.history[(req["tenant"], req["params"]["key"])]
        msg = bytes.fromhex(req["params"]["msg"])
        for gen, (pub, sent, recv) in sorted(gens.items()):
            newer = gens.get(gen + 1)
            if sent >= t_recv or (newer is not None and newer[2] < t_send):
                continue
            table = self._public_table(pub)
            if req["op"] == "ecdsa_sign":
                ok = refmath.ecdsa_verify(self.ref, self.g_table, self.n,
                                          table, msg, int(result["r"], 16),
                                          int(result["s"], 16))
            else:
                ok = refmath.schnorr_verify(self.ref, self.g_table, self.n,
                                            table, msg, int(result["e"], 16),
                                            int(result["s"], 16))
            if ok:
                return True
        return False

    # -- in-process replay of the op stream ----------------------------------

    def _replay(self) -> Dict[str, Any]:
        """The stream's first :data:`REPLAY_OPS` ops through the worker's
        own entry point in this process: exact field-op counts and the
        service time, and in the traced run the compute-layer ledger."""
        from repro.avr.timing import Mode
        from repro.model.cycles import costs_for
        from repro.model.opcost import price
        from repro.serve.worker import WorkerState, execute_request

        state = WorkerState()
        before = self.cal.burst()
        t0 = time.perf_counter()
        state.warm((CURVE,))
        build_s = (time.perf_counter() - t0) \
            * self.cal.factor(before, self.cal.burst())
        field = state.suite(CURVE).field
        costs = costs_for(Mode.ISE, "paper", field.cost_profile)

        def run_ops(prefix: str, log=None):
            """Create the keys, run the ops; returns (normalized ms,
            counter deltas, factor)."""
            for tenant in TENANTS:
                for name in KEY_NAMES:
                    execute_request({"id": 0, "op": "key_create",
                                     "curve": CURVE, "tenant": prefix + tenant,
                                     "params": {"name": name,
                                                "seed": f"{self.seed}-{tenant}"
                                                        f"-{name}"}}, state)
            lats, deltas = [], []
            before = self.cal.burst()
            for i in range(REPLAY_OPS):
                req = self.stream.op(i, tenant_prefix=prefix)
                req.pop("token", None)
                snap = field.counter.copy()
                t0 = time.perf_counter()
                if log is None:
                    reply = execute_request(req, state)
                else:
                    with log.span(req["op"]):
                        reply = execute_request(req, state)
                lats.append((time.perf_counter() - t0) * 1e3)
                deltas.append(field.counter.delta(snap))
                if not reply.get("ok"):
                    raise RuntimeError(f"replayed op {i} failed: {reply}")
            factor = self.cal.factor(before, self.cal.burst())
            return [v * factor for v in lats], deltas, factor

        lats, deltas, _ = run_ops("")
        out: Dict[str, Any] = {
            "cycles_per_op": sum(price(d, costs) for d in deltas)
            / REPLAY_OPS,
            "service_ms": lats, "deltas": deltas, "table_build_s": build_s}
        if self.trace:
            from ledger import Instrument, SpanLog, instrument_compute

            log = SpanLog()
            with Instrument(log) as inst:
                instrument_compute(inst)
                traced, _, factor = run_ops("tr", log)
            out.update(log=log, traced_ms=traced, traced_factor=factor)
            log.write(os.path.join(self.root, ".bench_out",
                                   "spans-serve_named.jsonl"))
        return out

    # -- the traced run's per-layer metrics ----------------------------------

    def _layers(self, record, phase, records, before, after,
                queue_peak, server, replay) -> None:
        import layers
        from ledger import span_p50_ms

        factor = self.cal.run_factor()
        hist = after.get("histograms", {})
        c0, c1 = before["counters"], after["counters"]

        def delta(name: str) -> float:
            return c1.get(name, 0) - c0.get(name, 0)

        server_p50 = hist.get("serve_latency_us", {}).get("p50", 0) / 1e3 \
            * factor
        client_p50 = p50(phase.lat_ms)
        service = p50(replay["service_ms"])
        m = layers.empty()
        m["serve.server_p50_ms"] = server_p50
        m["serve.pool_p50_ms"] = hist.get("serve_worker_us", {}).get(
            "p50", 0) / 1e3 * factor
        m["serve.wire_ms"] = client_p50 - server_p50
        batches = delta("serve_batches_total")
        m["serve.batch_mean"] = (delta("serve_worker_requests_total")
                                 / batches if batches else 0.0)
        m["serve.queue_max"] = queue_peak
        m["serve.shed"] = delta("serve_shed_total") \
            + delta("serve_quota_shed_total")
        m["worker.service_p50_ms"] = service
        m["serve.overhead_p50_ms"] = client_p50 - service
        rot, overlap = _rotation_latencies(records, phase.factors)
        m["keys.rotate_p50_ms"] = p50(rot)
        m["keys.overlap_p50_ms"] = p50(overlap)
        m["keys.journal_bytes"] = os.path.getsize(server.journal)
        log, traced_factor = replay["log"], replay["traced_factor"]
        for name, span in (("protocols.ecdsa_sign_ms", "ecdsa_sign"),
                           ("protocols.schnorr_sign_ms", "schnorr_sign"),
                           ("scalarmult.fixed_base_ms", "fixed_base"),
                           ("scalarmult.naf_ms", "naf")):
            m[name] = span_p50_ms(log, span) * traced_factor
        m["scalarmult.table_build_s"] = replay["table_build_s"]
        m["scalarmult.fixed_base_tables_built"] = c1.get(
            "fixed_base_tables_built", 0)
        m["scalarmult.fixed_base_tables_loaded"] = c1.get(
            "fixed_base_tables_loaded", 0)
        layers.compute_ledger(m, log, replay["deltas"], REPLAY_OPS,
                              traced_factor)
        layers.host(m, self.cal, phase)
        m["obs.trace_overhead"] = p50(replay["traced_ms"]) / service
        layers.put_all(record, m)


def _rotation_latencies(records: list, factors: List[float]):
    """Normalized latencies of rotations, and of other ops in flight
    while a rotation was."""
    rotations = [(r[3], r[4]) for r in records
                 if r[1]["op"] == "key_rotate"]
    rot, overlap = [], []
    for rec in records:
        ms = (rec[4] - rec[3]) * 1e3 * factors[rec[5]]
        if rec[1]["op"] == "key_rotate":
            rot.append(ms)
        elif any(s < rec[4] and rec[3] < e for s, e in rotations):
            overlap.append(ms)
    return rot, overlap


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding *path* (from /proc/mounts)."""
    best, fstype = "", "unknown"
    real = os.path.realpath(path)
    try:
        with open("/proc/mounts", encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if (real == mount or real.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype
