"""End-to-end serve tests: TCP roundtrips, backpressure, fairness of
the inline executor, deadlines, and the serve metrics.

No pytest-asyncio in the image: every test drives its own event loop
through ``asyncio.run``.
"""

import asyncio
import json

import pytest

from repro.obs.metrics import METRICS
from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.server import EccServer, ServeConfig


def run(coro):
    return asyncio.run(coro)


async def _start(**overrides):
    defaults = dict(port=0, workers=1)
    defaults.update(overrides)
    server = EccServer(ServeConfig(**defaults))
    await server.start()
    return server


SEED = "serve-test-seed"


class TestRoundtrips:
    def test_keygen_ecdsa_sign_verify(self):
        async def scenario():
            server = await _start()
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    key = await client.call("keygen", "secp160r1",
                                            {"seed": SEED})
                    sig = await client.call(
                        "ecdsa_sign", "secp160r1",
                        {"private": key["private"], "msg": "00ff"})
                    verdict = await client.call(
                        "ecdsa_verify", "secp160r1",
                        {"public": key["public"], "msg": "00ff",
                         "r": sig["r"], "s": sig["s"]})
                    bad = await client.call(
                        "ecdsa_verify", "secp160r1",
                        {"public": key["public"], "msg": "00fe",
                         "r": sig["r"], "s": sig["s"]})
                finally:
                    await client.close()
                return verdict, bad
            finally:
                await server.stop()

        verdict, bad = run(scenario())
        assert verdict == {"valid": True}
        assert bad == {"valid": False}

    def test_schnorr_and_ecdh_and_scalarmult(self):
        async def scenario():
            server = await _start()
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    key_a = await client.call("keygen", "glv",
                                              {"seed": SEED + ":a"})
                    key_b = await client.call("keygen", "glv",
                                              {"seed": SEED + ":b"})
                    sig = await client.call(
                        "schnorr_sign", "glv",
                        {"private": key_a["private"], "msg": "aa"})
                    verdict = await client.call(
                        "schnorr_verify", "glv",
                        {"public": key_a["public"], "msg": "aa",
                         "e": sig["e"], "s": sig["s"]})
                    ab = await client.call(
                        "ecdh", "glv", {"private": key_a["private"],
                                        "peer": key_b["public"]})
                    ba = await client.call(
                        "ecdh", "glv", {"private": key_b["private"],
                                        "peer": key_a["public"]})
                    mult = await client.call(
                        "scalarmult", "glv", {"k": key_a["private"]})
                finally:
                    await client.close()
                return verdict, ab, ba, mult, key_a
            finally:
                await server.stop()

        verdict, ab, ba, mult, key_a = run(scenario())
        assert verdict == {"valid": True}
        assert ab == ba  # the ECDH agreement property, through the wire
        assert mult["point"] == key_a["public"]

    def test_montgomery_xonly_path(self):
        async def scenario():
            server = await _start(warm_curves=())
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    key_a = await client.call("keygen", "montgomery",
                                              {"seed": SEED + ":a"})
                    key_b = await client.call("keygen", "montgomery",
                                              {"seed": SEED + ":b"})
                    ab = await client.call(
                        "ecdh", "montgomery",
                        {"private": key_a["private"],
                         "peer": key_b["public_x"]})
                    ba = await client.call(
                        "ecdh", "montgomery",
                        {"private": key_b["private"],
                         "peer": key_a["public_x"]})
                finally:
                    await client.close()
                return ab, ba
            finally:
                await server.stop()

        ab, ba = run(scenario())
        assert ab == ba

    def test_sync_client_pipeline(self):
        async def scenario():
            server = await _start()
            loop = asyncio.get_running_loop()

            def blocking():
                with ServeClient(port=server.port) as client:
                    reqs = [client.request("keygen", "secp160r1",
                                           {"seed": f"{SEED}:{i}"})
                            for i in range(5)]
                    results = client.call_many(reqs)
                    with pytest.raises(ServeError) as exc_info:
                        client.call("keygen", "secp160r1", {"seed": ""})
                    return results, exc_info.value.error_type

            try:
                return await loop.run_in_executor(None, blocking)
            finally:
                await server.stop()

        results, error_type = run(scenario())
        assert len(results) == 5
        assert len({r["private"] for r in results}) == 5
        assert error_type == "BadRequest"


class TestErrorPaths:
    def test_bad_line_gets_typed_reply_with_salvaged_id(self):
        async def scenario():
            server = await _start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"this is not json\n")
                writer.write(b'{"id": 42, "op": "divine"}\n')
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return first, second
            finally:
                await server.stop()

        first, second = run(scenario())
        assert first["ok"] is False
        assert first["error"]["type"] == "BadRequest"
        assert first["id"] == 0  # unsalvageable line
        assert second["id"] == 42  # id recovered from the bad request
        assert second["error"]["type"] == "BadRequest"

    def test_overloaded_shed_is_typed(self):
        """Inline fairness: one connection floods past ``queue_depth``
        through the real executor (nothing stalled by hand).  The
        overflow gets typed ``Overloaded`` replies, and a ``stats``
        request on a second connection is answered while the flood is
        still queued — the executor yields after every request."""
        depth, flood = 16, 48

        async def scenario():
            server = await _start(queue_depth=depth)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                side = await AsyncServeClient.connect(port=server.port)
                try:
                    writer.write(b"".join(
                        json.dumps({"id": i + 1, "op": "keygen",
                                    "curve": "secp160r1",
                                    "params": {"seed": f"{SEED}:{i}"}}
                                   ).encode() + b"\n"
                        for i in range(flood)))
                    await writer.drain()
                    # Sheds are written at admission, so the first reply
                    # back is one: the whole flood has been admitted.
                    replies = [json.loads(await reader.readline())]
                    stats = await side.stats()
                    while len(replies) < flood:
                        replies.append(json.loads(await reader.readline()))
                finally:
                    await side.close()
                    writer.close()
                    await writer.wait_closed()
                return replies, stats
            finally:
                await server.stop()

        replies, stats = run(scenario())
        assert sorted(r["id"] for r in replies) == list(range(1, flood + 1))
        shed = [r for r in replies if not r["ok"]]
        assert shed and all(r["error"]["type"] == "Overloaded"
                            for r in shed)
        assert flood - len(shed) >= depth  # the queue itself was filled
        assert replies[0] in shed
        # Answered mid-flood: the queue still held admitted requests.
        assert stats["queue_depth"] >= 1

    def test_expired_deadline_rejected_before_work(self):
        async def scenario():
            server = await _start()
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    return await client.call_raw_one(
                        {"id": 1, "op": "keygen", "curve": "secp160r1",
                         "params": {"seed": "a"}, "deadline_ms": 1e-6})
                finally:
                    await client.close()
            finally:
                await server.stop()

        reply = run(scenario())
        assert reply["ok"] is False
        assert reply["error"]["type"] == "DeadlineExceeded"

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            run(EccServer(ServeConfig(workers=0)).start())


class TestObservability:
    def test_execution_metrics_land_in_the_server_registry(self):
        before = METRICS.counters_snapshot()
        executions = METRICS.snapshot().get("serve_worker_us_count", 0)

        async def scenario():
            server = await _start()
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    await client.call_raw(
                        [{"id": i + 1, "op": "keygen", "curve": "secp160r1",
                          "params": {"seed": f"{SEED}:{i}"}}
                         for i in range(6)])
                finally:
                    await client.close()
                return server.stats()
            finally:
                await server.stop()

        stats = run(scenario())
        after = METRICS.counters_snapshot()

        def grew(name):
            return after.get(name, 0) - before.get(name, 0)

        # Pipeline and execution counters share one process registry.
        assert grew("serve_requests_total") >= 6
        assert grew("serve_replies_total") >= 6
        assert grew("serve_worker_requests_total") >= 6
        assert grew("serve_worker_op_keygen_total") >= 6
        # One serve_worker_us observation per executed request.
        assert stats["serve_worker_us_count"] - executions >= 6
        # Histograms flattened into the stats snapshot.
        assert stats["serve_latency_us_count"] >= 6
        assert stats["serve_latency_us_p99"] > 0
