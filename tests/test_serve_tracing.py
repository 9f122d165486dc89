"""End-to-end request tracing and the served stats op.

The invariants: a traced request's reply carries its trace id, the id
resolves to a joined span tree client -> request -> queue/worker ->
kernel spans, the merged Chrome export is schema-clean, and telemetry
stays reachable through the wire.

No pytest-asyncio in the image: every test drives its own event loop
through ``asyncio.run``.
"""

import asyncio
import json

import pytest

from repro.obs.assemble import assemble, records_to_chrome
from repro.obs.export import validate_chrome
from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.loadgen import build_requests, run_served
from repro.serve.server import EccServer, ServeConfig


def run(coro):
    return asyncio.run(coro)


async def _start(**overrides):
    defaults = dict(port=0, workers=1)
    defaults.update(overrides)
    server = EccServer(ServeConfig(**defaults))
    await server.start()
    return server


SEED = "serve-tracing-seed"


def _descendants(span):
    out = []
    stack = list(span.children)
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


class TestTracedRoundtrip:
    def test_reply_trace_id_joins_into_span_tree(self):
        async def scenario():
            server = await _start(tracing=True)
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    req = {"id": 1, "op": "keygen", "curve": "secp160r1",
                           "params": {"seed": SEED}}
                    reply = await client.call_raw_one(req)
                finally:
                    await client.close()
                return reply, server.recorder.slowest()
            finally:
                await server.stop()

        reply, records = run(scenario())
        assert reply["ok"] is True
        trace_id = reply["meta"]["trace"]
        assert len(records) == 1
        rec = records[0]
        assert rec.trace_id == trace_id
        assert rec.spans  # executed in the serving process, spans kept
        assert rec.t_dispatch_ns is not None

        trees = assemble(records)
        tree = trees[trace_id]
        assert tree.name == "request"
        names = [child.name for child in tree.children]
        assert "queue" in names and "worker" in names
        worker = tree.children[names.index("worker")]
        assert worker.attrs["trace"] == trace_id
        # Kernel spans (the scalarmult / curves / field instrumentation)
        # nest under the worker span.
        kernels = _descendants(worker)
        assert kernels, "worker shard carries no kernel spans"
        assert all(s.t0_ns >= worker.t0_ns and s.t1_ns <= worker.t1_ns
                   for s in kernels)

        chrome = records_to_chrome(records)
        validate_chrome(chrome)
        lanes = chrome["metadata"]["lanes"]
        assert list(lanes) == [str(rec.server_pid)]

    def test_client_supplied_trace_id_round_trips(self):
        async def scenario():
            server = await _start()  # tracing NOT enabled server-side
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    await client.call("keygen", "secp160r1",
                                      {"seed": SEED}, trace="feed" * 4)
                finally:
                    await client.close()
                return server.recorder.get("feed" * 4)
            finally:
                await server.stop()

        rec = run(scenario())
        assert rec is not None
        assert rec.op == "keygen" and rec.status == "ok"

    def test_untraced_requests_leave_no_records(self):
        async def scenario():
            server = await _start()
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    reply = await client.call_raw_one(
                        {"id": 1, "op": "keygen", "curve": "secp160r1",
                         "params": {"seed": SEED}})
                finally:
                    await client.close()
                return reply, len(server.recorder)
            finally:
                await server.stop()

        reply, recorded = run(scenario())
        assert "meta" not in reply
        assert recorded == 0

    def test_error_reply_recorded_with_status(self):
        async def scenario():
            server = await _start(tracing=True)
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    reply = await client.call_raw_one(
                        {"id": 9, "op": "keygen", "curve": "secp160r1",
                         "params": {"seed": SEED}, "deadline_ms": 1e-6})
                finally:
                    await client.close()
                return reply, server.recorder.slowest()
            finally:
                await server.stop()

        reply, records = run(scenario())
        assert reply["ok"] is False
        assert reply["meta"]["trace"]
        assert len(records) == 1
        assert records[0].status == "DeadlineExceeded"
        assert records[0].spans == []  # expired in the queue, never ran

    def test_slowlog_out_dumps_chrome_json_on_stop(self, tmp_path):
        path = tmp_path / "slow.json"

        async def scenario():
            server = await _start(tracing=True, slowlog_out=str(path))
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    await client.call("keygen", "secp160r1", {"seed": SEED})
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(scenario())
        with open(path, "r", encoding="utf-8") as fh:
            validate_chrome(json.load(fh))


class TestStatsOp:
    def test_stats_through_the_wire(self):
        async def scenario():
            server = await _start()
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    await client.call("keygen", "secp160r1", {"seed": SEED})
                    return await client.stats()
                finally:
                    await client.close()
            finally:
                await server.stop()

        stats = run(scenario())
        assert stats["format"] == "json"
        assert stats["queue_capacity"] == 128
        assert stats["queue_depth"] >= 0
        assert stats["counters"]["serve_requests_total"] >= 1
        assert stats["counters"]["serve_worker_requests_total"] >= 1
        assert "serve_latency_us" in stats["histograms"]
        summary = stats["histograms"]["serve_latency_us"]
        assert summary["count"] >= 1
        assert summary["p50"] <= summary["p99"]
        assert stats["slowlog"]["capacity"] == 64

    def test_stats_prometheus_exposition(self):
        async def scenario():
            server = await _start()
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    await client.call("keygen", "secp160r1", {"seed": SEED})
                    return await client.stats(format="prometheus")
                finally:
                    await client.close()
            finally:
                await server.stop()

        text = run(scenario())
        assert "# TYPE serve_requests_total counter\n" in text
        assert "# TYPE serve_latency_us histogram\n" in text
        assert 'serve_latency_us_bucket{le="+Inf"}' in text
        assert "# TYPE serve_queue_depth gauge\n" in text

    def test_stats_sync_client(self):
        async def scenario():
            server = await _start()
            loop = asyncio.get_running_loop()

            def blocking():
                with ServeClient(port=server.port) as client:
                    client.call("keygen", "secp160r1", {"seed": SEED})
                    return client.stats(), client.stats(format="prometheus")

            try:
                return await loop.run_in_executor(None, blocking)
            finally:
                await server.stop()

        stats, text = run(scenario())
        assert stats["format"] == "json"
        assert text.startswith("# ")

    def test_stats_bad_format_is_typed_error(self):
        async def scenario():
            server = await _start()
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    with pytest.raises(ServeError) as exc_info:
                        await client.call("stats",
                                          params={"format": "yaml"})
                    return exc_info.value.error_type
                finally:
                    await client.close()
            finally:
                await server.stop()

        assert run(scenario()) == "BadRequest"

    def test_stats_reachable_while_queue_is_stalled(self):
        """``stats`` is answered at accept, never queued: on the very
        connection whose pipelined keygens back up the queue, its reply
        overtakes them and shows the backlog."""
        async def scenario():
            server = await _start(queue_depth=8)
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    work = [{"id": i + 1, "op": "keygen",
                             "curve": "secp160r1",
                             "params": {"seed": f"{SEED}:{i}"}}
                            for i in range(8)]
                    stats_req = {"id": 99, "op": "stats", "params": {}}
                    return await client.call_raw(work + [stats_req])
                finally:
                    await client.close()
            finally:
                await server.stop()

        replies = run(scenario())
        assert all(r["ok"] for r in replies)
        stats = replies[-1]["result"]
        assert stats["queue_depth"] >= 1  # the backlog is visible


class TestLoadgenTracing:
    def test_every_reply_joins_and_chrome_validates(self):
        requests = build_requests(6, mix="keygen:secp160r1=1", seed=99)
        trace_sink, scrape_sink, client_times = [], [], {}
        replies, latencies, _wall = run(run_served(
            requests, tracing=True, trace_sink=trace_sink,
            scrape_sink=scrape_sink, client_times=client_times))
        assert all(r["ok"] for r in replies)
        assert len(trace_sink) == len(requests)
        trees = assemble(trace_sink)
        for reply in replies:
            trace_id = reply["meta"]["trace"]
            assert trace_id in trees
        # Client stamps attach and wrap the server span.
        assert len(client_times) == len(requests)
        for rec in trace_sink:
            rec.client_t0_ns, rec.client_t1_ns = client_times[rec.trace_id]
        trees = assemble(trace_sink)
        assert all(t.name == "client" for t in trees.values())
        validate_chrome(records_to_chrome(trace_sink))
        # The scrape went through the wire while the server was up.
        assert len(scrape_sink) == 1
        assert "serve_requests_total" in scrape_sink[0]
