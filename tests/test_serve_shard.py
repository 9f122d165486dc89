"""The scale-out layer: stats board, shard cluster, respawn, cluster
stats aggregation, copy-on-write table inheritance, and process
hygiene of the ``serve --workers N`` supervisor.

No pytest-asyncio in the image: every test drives its own event loop
through ``asyncio.run``.  Cluster tests fork real serving processes,
so they are the slowest tests in the serving suite — kept few and
multi-purpose on purpose.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig
from repro.serve.shard import (
    ShardCluster,
    StatsBoard,
    reuseport_available,
)

SEED = "shard-test-seed"


def run(coro):
    return asyncio.run(coro)


def _config(**overrides):
    defaults = dict(port=0, workers=2, warm_curves=("secp160r1",))
    defaults.update(overrides)
    return ServeConfig(**defaults)


# -- the stats board ---------------------------------------------------------


class TestStatsBoard:
    def test_publish_read_roundtrip(self):
        board = StatsBoard.create(2)
        try:
            board.publish(0, {"shard": 0, "counters": {"a": 1}})
            board.publish(1, {"shard": 1, "counters": {"a": 2}})
            assert board.read(0)["counters"] == {"a": 1}
            payloads = board.read_all()
            assert [p["shard"] for p in payloads] == [0, 1]
        finally:
            board.close()
            board.unlink()

    def test_empty_slot_reads_none_and_is_skipped(self):
        board = StatsBoard.create(3)
        try:
            board.publish(1, {"shard": 1})
            assert board.read(0) is None
            assert board.read(2) is None
            assert [p["shard"] for p in board.read_all()] == [1]
        finally:
            board.close()
            board.unlink()

    def test_torn_slot_is_skipped_not_parsed(self):
        board = StatsBoard.create(1)
        try:
            board.publish(0, {"shard": 0, "x": "y" * 64})
            # Corrupt one payload byte behind the crc header: a reader
            # racing a torn write must skip the slot, never parse junk.
            offset = board._slot_offset(0) + 16
            board._shm.buf[offset] ^= 0xFF
            assert board.read(0) is None
            assert board.read_all() == []
        finally:
            board.close()
            board.unlink()

    def test_attach_sees_creator_payloads(self):
        board = StatsBoard.create(2)
        try:
            board.publish(0, {"shard": 0})
            attached = StatsBoard.attach(board.name)
            try:
                assert attached.slots == 2
                assert attached.read(0) == {"shard": 0}
            finally:
                attached.close()
        finally:
            board.close()
            board.unlink()

    def test_oversized_payload_drops_histograms_then_raises(self):
        board = StatsBoard.create(1, slot_size=256)
        try:
            board.publish(0, {"histograms": {"h": "x" * 512}, "ok": 1})
            assert board.read(0) == {"ok": 1}
            with pytest.raises(ValueError, match="slot"):
                board.publish(0, {"blob": "x" * 512})
        finally:
            board.close()
            board.unlink()

    def test_slot_index_bounds(self):
        board = StatsBoard.create(1)
        try:
            with pytest.raises(IndexError):
                board.read(1)
            with pytest.raises(IndexError):
                board.publish(-1, {})
        finally:
            board.close()
            board.unlink()


# -- the cluster -------------------------------------------------------------


def _keygen(port):
    with ServeClient(port=port) as client:
        return client.call("keygen", "secp160r1", {"seed": SEED})


def _cluster_stats(port, deadline_s=10.0, want_shards=2, min_per_shard=0):
    """Poll one shard's cluster-scope stats until every shard is on the
    board (publish interval 0.25 s) **and** every shard's own payload
    shows at least *min_per_shard* served requests — the answering
    shard publishes itself fresh, but the other slots lag by up to one
    publish interval, so waiting on the summed counter alone is racy."""
    deadline = time.monotonic() + deadline_s
    stats = None
    with ServeClient(port=port) as client:
        while time.monotonic() < deadline:
            stats = client.stats(scope="cluster")
            per_shard = [p["counters"].get("serve_requests_total", 0)
                         for p in stats["shards"]]
            if stats["shard_count"] >= want_shards \
                    and all(n >= min_per_shard for n in per_shard):
                return stats
            time.sleep(0.1)
    raise AssertionError(f"cluster stats never converged: {stats}")


class TestShardCluster:
    def test_redirector_cluster_end_to_end(self):
        """One multi-purpose scenario over a 2-shard redirector-mode
        cluster: requests through the public port and through each
        shard's direct port, deterministic results across shards,
        cluster-scope stats aggregation, and copy-on-write table
        inheritance (shards use the supervisor's tables, never build)."""
        async def scenario():
            loop = asyncio.get_running_loop()
            async with ShardCluster(_config(), reuseport=False) as cluster:
                assert cluster.port
                assert len(cluster.shard_ports) == 2
                # Through the redirector (round-robin placement).
                via_public = [
                    await loop.run_in_executor(None, _keygen, cluster.port)
                    for _ in range(2)]
                # Straight at each shard.
                via_direct = [
                    await loop.run_in_executor(None, _keygen, port)
                    for port in cluster.shard_ports]
                stats = await loop.run_in_executor(
                    None, lambda: _cluster_stats(
                        cluster.shard_ports[0], min_per_shard=1))
            return via_public, via_direct, stats

        via_public, via_direct, stats = run(scenario())
        # Same seed -> same key, whichever shard served it.
        assert len({r["private"] for r in via_public + via_direct}) == 1
        assert stats["scope"] == "cluster"
        assert stats["shard_count"] == 2
        assert {p["shard"] for p in stats["shards"]} == {0, 1}
        # Counters are summed across shards: the two direct requests
        # alone guarantee both shards contributed.
        per_shard = [p["counters"].get("serve_requests_total", 0)
                     for p in stats["shards"]]
        assert all(n >= 1 for n in per_shard)
        assert stats["counters"]["serve_requests_total"] == sum(per_shard)
        # The supervisor built the warm table before forking: every
        # shard found it in its inherited cache, and the build counter
        # stays flat (zero) across the whole cluster.
        assert stats["counters"].get("fixed_base_tables_built", 0) == 0
        assert all(p["counters"].get("fixed_base_cache_hits", 0) >= 1
                   for p in stats["shards"])

    def test_dead_shard_respawns_and_port_survives(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            async with ShardCluster(_config(), reuseport=False) as cluster:
                await loop.run_in_executor(None, _keygen, cluster.port)
                victim = cluster._procs[0]
                victim.kill()
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    proc = cluster._procs[0]
                    if cluster.respawns >= 1 and proc is not None \
                            and proc.is_alive() and proc is not victim:
                        break
                    await asyncio.sleep(0.05)
                else:
                    raise AssertionError("shard 0 was never respawned")
                # The public port answered before, during and after.
                result = await loop.run_in_executor(
                    None, _keygen, cluster.port)
                respawns = cluster.respawns
            return result, respawns

        result, respawns = run(scenario())
        assert "private" in result
        assert respawns >= 1

    @pytest.mark.skipif(not reuseport_available(),
                        reason="platform lacks SO_REUSEPORT")
    def test_reuseport_cluster_smoke(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            async with ShardCluster(_config(), reuseport=True) as cluster:
                assert cluster.port > 0
                # Every shard binds the same public port.
                assert cluster.shard_ports == [cluster.port] * 2
                return await loop.run_in_executor(
                    None, _keygen, cluster.port)

        assert "private" in run(scenario())

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardCluster(_config(workers=0))


# -- the supervisor process --------------------------------------------------


def _children(pid):
    """Direct child pids of *pid* (Linux procfs)."""
    path = f"/proc/{pid}/task/{pid}/children"
    try:
        with open(path, encoding="ascii") as fh:
            return {int(tok) for tok in fh.read().split()}
    except FileNotFoundError:
        return set()


def _shards(pid):
    """The serving processes under supervisor *pid*: forked children
    sharing its command line (unlike multiprocessing's helpers)."""
    def cmdline(p):
        try:
            with open(f"/proc/{p}/cmdline", "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    own = cmdline(pid)
    return {child for child in _children(pid) if cmdline(child) == own}


def _descendants(pid):
    found, stack = set(), [pid]
    while stack:
        for child in _children(stack.pop()):
            if child not in found:
                found.add(child)
                stack.append(child)
    return found


def _alive(pid):
    """True unless *pid* is gone or a zombie (dead, awaiting reaping)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.mark.skipif(not os.path.exists("/proc/self/task"),
                    reason="needs Linux procfs")
class TestSupervisorProcess:
    def test_sigkilled_process_respawns_and_sigterm_leaves_no_orphans(
            self, tmp_path):
        """``serve --workers 2`` end to end: a SIGKILLed serving process
        is respawned while requests keep succeeding on the one port, and
        SIGTERM to the supervisor leaves no descendant alive."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2",
             "--port", "0", "--keys-journal", str(tmp_path / "keys.ndjson")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        seen = set()
        try:
            line = proc.stdout.readline().decode()
            assert "listening on" in line, line
            port = int(line.split("listening on", 1)[1].split()[0]
                       .rsplit(":", 1)[1])
            before = _wait_for(lambda: len(_shards(proc.pid)) == 2
                               and _shards(proc.pid), 30, "two shards")
            seen |= _descendants(proc.pid)
            expected = _keygen(port)
            victim = min(before)
            os.kill(victim, signal.SIGKILL)
            after = _wait_for(
                lambda: (kids := _shards(proc.pid)) - before
                and len(kids) == 2 and kids, 30, "a respawned shard")
            assert victim not in after
            seen |= _descendants(proc.pid)
            # Fresh connections, spread by the kernel over both shards.
            for _ in range(6):
                assert _keygen(port) == expected
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:  # a failed assertion above
                proc.terminate()
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()
        _wait_for(lambda: not any(_alive(pid) for pid in seen), 10,
                  f"descendants {sorted(seen)} to exit")
