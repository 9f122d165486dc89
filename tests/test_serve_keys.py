"""The named-key subsystem: token buckets, the key registry and its
journal, tenancy validation, and the server/cluster round-trips.

No pytest-asyncio in the image: every test drives its own event loop
through ``asyncio.run``.  The cluster test forks real shard processes
and is kept single and multi-purpose on purpose (create on one shard,
use through another, per-tenant cluster counters, forced respawn).
"""

import asyncio
import json
import threading
import time

import pytest

from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.keys import (
    KeyRegistry,
    TokenBucket,
    derive_key_scalar,
    tenant_token,
)
from repro.serve.protocol import (
    ProtocolError,
    QuotaExceeded,
    Unauthorized,
    to_hex,
    validate_request,
)
from repro.serve.server import EccServer, ServeConfig
from repro.serve.shard import ShardCluster


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# -- the token bucket --------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_drains_to_shed(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, time_fn=clock)
        assert [bucket.allow() for _ in range(4)] == [
            True, True, True, False]

    def test_refill_boundary_is_exact(self):
        """One token refills at exactly 1/rate elapsed — a hair before,
        the bucket is still dry (no partial admission)."""
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1, time_fn=clock)
        assert bucket.allow()
        assert not bucket.allow()
        clock.advance(0.2499)  # 1/rate = 0.25 s per token
        assert not bucket.allow()
        clock.advance(0.0001)
        assert bucket.allow()
        assert not bucket.allow()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, time_fn=clock)
        assert bucket.allow() and bucket.allow()
        clock.advance(60.0)  # a long idle stretch refills to burst, not more
        assert bucket.tokens == pytest.approx(2.0)
        assert [bucket.allow() for _ in range(3)] == [True, True, False]

    def test_rejects_bad_parameters(self):
        for rate, burst in ((0.0, 1), (-1.0, 1), (1.0, 0)):
            with pytest.raises(ValueError):
                TokenBucket(rate, burst)


# -- the registry and its journal --------------------------------------------


class TestKeyRegistry:
    def test_create_resolve_info_lifecycle(self):
        reg = KeyRegistry()
        created = reg.create("alice", "signer", "secp160r1", seed="s1")
        assert created["generation"] == 1
        assert set(created["public"]) == {"x", "y"}
        assert "private" not in created
        ref = reg.resolve("alice", "signer")
        assert ref.generation == 1 and ref.curve == "secp160r1"
        assert to_hex(ref.private) not in json.dumps(created)
        info = reg.info("alice", "signer")
        assert info["generation"] == 1 and info["generations"] == 1
        assert not info["deleted"]

    def test_derivation_is_deterministic_and_generation_bound(self):
        a = derive_key_scalar("t", "k", 1, "seed")
        assert a == derive_key_scalar("t", "k", 1, "seed")
        assert a != derive_key_scalar("t", "k", 2, "seed")
        assert a != derive_key_scalar("t2", "k", 1, "seed")

    def test_duplicate_create_rejected(self):
        reg = KeyRegistry()
        reg.create("alice", "signer", "secp160r1")
        with pytest.raises(ProtocolError, match="already exists"):
            reg.create("alice", "signer", "secp160r1")

    def test_rotate_keeps_old_generations_resolvable(self):
        reg = KeyRegistry()
        reg.create("alice", "signer", "secp160r1", seed="s1")
        gen1 = reg.resolve("alice", "signer").private
        rotated = reg.rotate("alice", "signer")
        assert rotated["generation"] == 2
        assert reg.resolve("alice", "signer").generation == 2
        assert reg.resolve("alice", "signer").private != gen1
        # The admission pin of a queued request still resolves.
        assert reg.resolve("alice", "signer", generation=1).private == gen1
        with pytest.raises(ProtocolError, match="no generation"):
            reg.resolve("alice", "signer", generation=9)

    def test_delete_retires_then_name_is_reusable(self):
        reg = KeyRegistry()
        reg.create("alice", "signer", "secp160r1")
        reg.delete("alice", "signer")
        with pytest.raises(ProtocolError, match="deleted"):
            reg.resolve("alice", "signer")
        with pytest.raises(ProtocolError, match="deleted"):
            reg.info("alice", "signer")
        assert reg.key_count() == 0
        # The retired name can be created anew, back at generation 1.
        assert reg.create("alice", "signer", "secp160r1")["generation"] == 1

    def test_max_keys_quota_is_typed(self):
        reg = KeyRegistry(tenants={"alice": {"max_keys": 2}})
        token = tenant_token("alice")
        reg.authorize("alice", token)
        reg.create("alice", "k1", "secp160r1")
        reg.create("alice", "k2", "secp160r1")
        with pytest.raises(QuotaExceeded, match="budget"):
            reg.create("alice", "k3", "secp160r1")
        # Deleting frees budget.
        reg.delete("alice", "k1")
        reg.create("alice", "k3", "secp160r1")

    def test_journal_replay_restores_state(self, tmp_path):
        """A fresh registry over the same journal (a respawned shard)
        folds every mutation back, including rotation history."""
        path = str(tmp_path / "keys.ndjson")
        reg = KeyRegistry(journal_path=path)
        reg.create("alice", "signer", "secp160r1", seed="s1")
        reg.rotate("alice", "signer")
        reg.create("bob", "agree", "glv")
        reg.delete("bob", "agree")

        replayed = KeyRegistry(journal_path=path)
        assert replayed.resolve("alice", "signer").generation == 2
        assert (replayed.resolve("alice", "signer", generation=1).private
                == reg.resolve("alice", "signer", generation=1).private)
        with pytest.raises(ProtocolError, match="deleted"):
            replayed.resolve("bob", "agree")

    def test_refresh_on_miss_sees_sibling_writer(self, tmp_path):
        """Two registries over one journal: a miss tails the file, so a
        key created by a sibling process resolves without any other
        coordination."""
        path = str(tmp_path / "keys.ndjson")
        writer = KeyRegistry(journal_path=path)
        reader = KeyRegistry(journal_path=path)
        writer.create("alice", "signer", "secp160r1")
        ref = reader.resolve("alice", "signer")  # miss -> tail -> hit
        assert ref.private == writer.resolve("alice", "signer").private
        writer.rotate("alice", "signer")
        assert reader.resolve("alice", "signer", generation=2).generation == 2

    def test_trailing_partial_line_is_buffered_not_parsed(self, tmp_path):
        path = str(tmp_path / "keys.ndjson")
        writer = KeyRegistry(journal_path=path)
        writer.create("alice", "k1", "secp160r1")
        line = (json.dumps({
            "action": "create", "tenant": "alice", "name": "k2",
            "curve": "secp160r1", "generation": 1,
            "private": "0f", "public": {"x": "1", "y": "2"}},
            sort_keys=True, separators=(",", ":")) + "\n").encode()
        with open(path, "ab") as fh:  # a writer caught mid-append
            fh.write(line[:20])
        reader = KeyRegistry(journal_path=path)
        reader.resolve("alice", "k1")  # the torn tail never crashes a read
        with pytest.raises(ProtocolError, match="no key"):
            reader.resolve("alice", "k2")
        with open(path, "ab") as fh:  # the append completes
            fh.write(line[20:])
        assert reader.resolve("alice", "k2").private == 0x0F



def _racing(registry, sibling):
    """Make *registry*'s next mutation start *sibling* on another thread
    while it computes the new public key — the window in which a
    lock-free sibling writer used to append.  Returns the started
    threads (join them after the mutation)."""
    threads = []
    compute = registry._public_for

    def slow_public_for(curve, private):
        del registry._public_for  # one mutation only
        thread = threading.Thread(target=sibling)
        thread.start()
        threads.append(thread)
        thread.join(0.3)  # an unlocked sibling appends right here
        return compute(curve, private)

    registry._public_for = slow_public_for
    return threads


class TestJournalWriters:
    """Two writable registries on one journal: sibling serving
    processes, here on two threads."""

    def test_stale_writer_cannot_create_an_existing_name(self, tmp_path):
        path = str(tmp_path / "keys.ndjson")
        a = KeyRegistry(journal_path=path)
        b = KeyRegistry(journal_path=path)  # stale from here on
        a.create("alice", "k", "secp160r1", seed="a")
        with pytest.raises(ProtocolError, match="already exists") as exc:
            b.create("alice", "k", "secp160r1", seed="b")
        assert exc.value.error_type == "BadRequest"
        # Racing creates of one name: exactly one wins, the loser gets
        # the typed error, and both registries hold one public key.
        outcome = {}

        def a_creates():
            try:
                outcome["a"] = a.create("alice", "r", "secp160r1", seed="a")
            except ProtocolError as err:
                outcome["a"] = err

        threads = _racing(b, a_creates)
        try:
            outcome["b"] = b.create("alice", "r", "secp160r1", seed="b")
        except ProtocolError as err:
            outcome["b"] = err
        for thread in threads:
            thread.join(30)
        errors = [v for v in outcome.values() if isinstance(v, Exception)]
        assert len(outcome) == 2 and len(errors) == 1
        assert errors[0].error_type == "BadRequest"
        assert "already exists" in str(errors[0])
        for name in ("k", "r"):
            assert a.info("alice", name) == b.info("alice", name)
            assert (a.resolve("alice", name).private
                    == b.resolve("alice", name).private)

    def test_interleaved_mutations_are_not_lost(self, tmp_path):
        path = str(tmp_path / "keys.ndjson")
        a = KeyRegistry(journal_path=path)
        b = KeyRegistry(journal_path=path)
        threads = _racing(
            b, lambda: a.create("alice", "ka", "secp160r1", seed="a"))
        b.create("alice", "kb", "secp160r1", seed="b")
        for thread in threads:
            thread.join(30)
        # Each writer mutates the other's key, then every view, caught
        # up with the file — and a fresh replay — holds all four.
        a.rotate("alice", "kb")
        b.rotate("alice", "ka")
        fresh = KeyRegistry(journal_path=path)
        for reg in (a, b, fresh):
            reg.refresh()
            for name in ("ka", "kb"):
                assert reg.resolve("alice", name).generation == 2
                assert reg.info("alice", name) == fresh.info("alice", name)
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line) for line in lines)


# -- tenancy and auth --------------------------------------------------------


class TestTenancy:
    def test_open_mode_derived_token(self):
        reg = KeyRegistry()
        tenant = reg.authorize("alice", tenant_token("alice"))
        assert tenant.name == "alice"
        with pytest.raises(Unauthorized, match="bad token"):
            reg.authorize("alice", "wrong")
        with pytest.raises(Unauthorized):
            reg.authorize("alice", None)

    def test_strict_mode_rejects_unknown_tenants(self):
        reg = KeyRegistry(tenants={"ops": {"token": "sekrit", "rate": 5.0}})
        assert reg.authorize("ops", "sekrit").bucket.rate == 5.0
        with pytest.raises(Unauthorized, match="bad token"):
            reg.authorize("ops", tenant_token("ops"))
        with pytest.raises(Unauthorized, match="unknown tenant"):
            reg.authorize("mallory", tenant_token("mallory"))

    def test_throttle_sheds_with_quota_exceeded(self):
        clock = FakeClock()
        reg = KeyRegistry(tenants={"t0": {"rate": 10.0, "burst": 2}},
                          time_fn=clock)
        tenant = reg.authorize("t0", tenant_token("t0"))
        reg.throttle(tenant)
        reg.throttle(tenant)
        with pytest.raises(QuotaExceeded, match="rate"):
            reg.throttle(tenant)
        clock.advance(0.1)  # one token back at 10/s
        reg.throttle(tenant)

    def test_tenants_snapshot_shape(self):
        reg = KeyRegistry(tenants={"t0": {"max_keys": 4}})
        reg.create("t0", "k", "secp160r1")
        snap = reg.tenants_snapshot()["t0"]
        assert snap["keys"] == 1 and snap["max_keys"] == 4
        assert snap["tokens"] <= snap["burst"]


# -- protocol validation -----------------------------------------------------


def _sign_req(**params):
    merged = {"msg": "00ff"}
    merged.update(params)
    return {"id": 1, "op": "ecdsa_sign", "curve": "secp160r1",
            "params": merged}


class TestKeyProtocol:
    def test_named_use_requires_tenant_and_token(self):
        req = _sign_req(key="signer")
        with pytest.raises(ProtocolError, match="tenant"):
            validate_request(req)
        req.update(tenant="alice", token=tenant_token("alice"))
        assert validate_request(req)["params"]["key"] == "signer"

    def test_exactly_one_of_key_and_inline_secret(self):
        both = dict(_sign_req(key="signer", private="7"),
                    tenant="a", token="t")
        with pytest.raises(ProtocolError, match="exactly one"):
            validate_request(both)
        with pytest.raises(ProtocolError, match="exactly one"):
            validate_request(_sign_req())

    def test_key_generation_rules(self):
        base = dict(tenant="alice", token=tenant_token("alice"))
        assert validate_request(dict(
            _sign_req(key="k", key_generation=2), **base))
        for bad in (0, -1, "2", True, 1.5):
            with pytest.raises(ProtocolError, match="key_generation"):
                validate_request(dict(
                    _sign_req(key="k", key_generation=bad), **base))
        # A generation pin without a key reference is meaningless.
        with pytest.raises(ProtocolError):
            validate_request(dict(
                _sign_req(private="7", key_generation=1), **base))

    def test_tenant_fields_rejected_on_plain_ops(self):
        req = {"id": 1, "op": "keygen", "curve": "secp160r1",
               "params": {"seed": "x"}, "tenant": "alice",
               "token": tenant_token("alice")}
        with pytest.raises(ProtocolError, match="tenant"):
            validate_request(req)

    def test_key_ops_validate(self):
        req = {"id": 1, "op": "key_create", "curve": "secp160r1",
               "params": {"name": "signer"}, "tenant": "alice",
               "token": tenant_token("alice")}
        assert validate_request(req)["op"] == "key_create"
        with pytest.raises(ProtocolError, match="tenant"):
            validate_request({k: v for k, v in req.items()
                              if k not in ("tenant", "token")})
        with pytest.raises(ProtocolError, match="name"):
            validate_request(dict(req, params={"name": "Bad Name!"}))
        with pytest.raises(ProtocolError, match="tenant"):
            validate_request(dict(req, tenant="Not-Metric-Safe"))


# -- the server end to end ---------------------------------------------------


async def _start(**overrides):
    defaults = dict(port=0, workers=1)
    defaults.update(overrides)
    server = EccServer(ServeConfig(**defaults))
    await server.start()
    return server


class TestServedKeys:
    def test_named_sign_roundtrip_and_generation_pinning(self):
        """The acceptance scenario through the server: create, sign by
        name (resolved from the server's registry), verify
        against the returned public key, rotate, and check that a
        pinned generation reproduces the pre-rotation signature while
        the unpinned path picks up the new one."""
        async def scenario():
            server = await _start()
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    created = await client.key_create(
                        "alice", "signer", "secp160r1", seed="s1")
                    sig1 = await client.call(
                        "ecdsa_sign", "secp160r1",
                        {"key": "signer", "msg": "00ff"}, tenant="alice")
                    verdict = await client.call(
                        "ecdsa_verify", "secp160r1",
                        {"public": created["public"], "msg": "00ff",
                         "r": sig1["r"], "s": sig1["s"]})
                    rotated = await client.key_rotate("alice", "signer")
                    pinned = await client.call(
                        "ecdsa_sign", "secp160r1",
                        {"key": "signer", "key_generation": 1,
                         "msg": "00ff"}, tenant="alice")
                    fresh = await client.call(
                        "ecdsa_sign", "secp160r1",
                        {"key": "signer", "msg": "00ff"}, tenant="alice")
                    info = await client.key_info("alice", "signer")
                finally:
                    await client.close()
                return created, sig1, verdict, rotated, pinned, fresh, info
            finally:
                await server.stop()

        created, sig1, verdict, rotated, pinned, fresh, info = run(
            scenario())
        assert created["generation"] == 1 and "private" not in created
        assert verdict == {"valid": True}
        assert rotated["generation"] == 2
        assert pinned == sig1          # the in-flight pin, byte-exact
        assert fresh != sig1           # the new generation signs anew
        assert info["generation"] == 2 and info["generations"] == 2

    def test_quota_shed_is_typed_distinct_from_overload(self):
        """A drained bucket sheds with QuotaExceeded — never the
        server's Overloaded — and the stats op reports the tenant."""
        async def scenario():
            server = await _start(
                tenants={"t0": {"rate": 1.0, "burst": 2}})
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    await client.key_create("t0", "k", "secp160r1")
                    replies = []
                    for _ in range(6):
                        try:
                            await client.call(
                                "ecdsa_sign", "secp160r1",
                                {"key": "k", "msg": "aa"}, tenant="t0")
                            replies.append("ok")
                        except ServeError as exc:
                            replies.append(exc.error_type)
                    stats = await client.stats()
                finally:
                    await client.close()
                return replies, stats
            finally:
                await server.stop()

        replies, stats = run(scenario())
        # burst 2 minus the key_create leaves one token for the stream.
        assert replies.count("QuotaExceeded") >= 4
        assert "Overloaded" not in replies
        tenant = stats["tenants"]["t0"]
        assert tenant["burst"] == 2 and tenant["keys"] == 1
        counters = stats["counters"]
        assert counters.get("serve_quota_shed_total", 0) >= 4
        assert counters.get("serve_tenant_t0_quota_shed_total", 0) >= 4
        assert counters.get("serve_tenant_t0_requests_total", 0) >= 6

    def test_bad_token_and_strict_mode_unauthorized(self):
        async def scenario():
            server = await _start(tenants={"ops": {"token": "sekrit"}})
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    outcomes = []
                    for tenant, token in (("ops", "wrong"),
                                          ("mallory", "anything")):
                        try:
                            await client.key_create(
                                tenant, "k", "secp160r1", token=token)
                            outcomes.append("ok")
                        except ServeError as exc:
                            outcomes.append(exc.error_type)
                    created = await client.key_create(
                        "ops", "k", "secp160r1", token="sekrit")
                finally:
                    await client.close()
                return outcomes, created
            finally:
                await server.stop()

        outcomes, created = run(scenario())
        assert outcomes == ["Unauthorized", "Unauthorized"]
        assert created["generation"] == 1


# -- the cluster acceptance scenario -----------------------------------------


class TestClusterKeys:
    def test_cross_shard_keys_survive_respawn(self):
        """The PR's acceptance property, one multi-purpose scenario:
        a key created through shard 0 signs through shard 1 (journal
        visibility), the private scalar never appears in any reply,
        per-tenant counters aggregate in cluster stats, and after shard
        0 is killed and respawned the key still resolves (journal
        replay)."""
        config = ServeConfig(port=0, workers=2,
                             warm_curves=("secp160r1",))

        def sync_ops(ports):
            wire = []
            with ServeClient(port=ports[0]) as c0:
                created = c0.key_create("acme", "signer", "secp160r1",
                                        seed="s1")
                wire.append(json.dumps(created))
            with ServeClient(port=ports[1]) as c1:
                sig = c1.call("ecdsa_sign", "secp160r1",
                              {"key": "signer", "msg": "00ff"},
                              tenant="acme")
                wire.append(json.dumps(sig))
                verdict = c1.call(
                    "ecdsa_verify", "secp160r1",
                    {"public": created["public"], "msg": "00ff",
                     "r": sig["r"], "s": sig["s"]})
            return created, sig, verdict, wire

        def cluster_stats(port):
            deadline = time.monotonic() + 10.0
            stats = None
            with ServeClient(port=port) as client:
                while time.monotonic() < deadline:
                    stats = client.stats(scope="cluster")
                    if stats["counters"].get(
                            "serve_tenant_acme_requests_total", 0) >= 2:
                        return stats
                    time.sleep(0.1)
            raise AssertionError(f"per-tenant counters never "
                                 f"aggregated: {stats}")

        def sign_after_respawn(port):
            with ServeClient(port=port) as client:
                return client.call("ecdsa_sign", "secp160r1",
                                   {"key": "signer", "msg": "00ff"},
                                   tenant="acme")

        async def scenario():
            loop = asyncio.get_running_loop()
            async with ShardCluster(config, reuseport=False) as cluster:
                created, sig, verdict, wire = await loop.run_in_executor(
                    None, sync_ops, cluster.shard_ports)
                stats = await loop.run_in_executor(
                    None, cluster_stats, cluster.shard_ports[1])
                victim = cluster._procs[0]
                victim.terminate()
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    proc = cluster._procs[0]
                    if cluster.respawns >= 1 and proc is not None \
                            and proc.is_alive() and proc is not victim:
                        break
                    await asyncio.sleep(0.05)
                else:
                    raise AssertionError("shard 0 was never respawned")
                resigned = await loop.run_in_executor(
                    None, sign_after_respawn, cluster.shard_ports[0])
            return created, sig, verdict, wire, stats, resigned

        created, sig, verdict, wire, stats, resigned = run(scenario())
        assert verdict == {"valid": True}
        # The secret never crossed the wire: the deterministic
        # derivation tells us exactly what scalar the server holds.
        from repro.curves.params import make_suite
        private = derive_key_scalar("acme", "signer", 1, "s1",
                                    order=make_suite("secp160r1").order)
        for reply in wire:
            assert to_hex(private) not in reply
            assert "private" not in json.loads(reply)
        # Per-tenant counters aggregated across the cluster.
        assert stats["counters"]["serve_tenant_acme_requests_total"] >= 2
        # The respawned shard replayed the journal: same key, same
        # generation, and (deterministic nonce) the same signature.
        assert resigned == sig
