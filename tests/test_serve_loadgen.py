"""Load generator: deterministic streams, byte-stable summaries, the
serve determinism gate, and the bench record schema."""

import asyncio
import json

import pytest

from repro.analysis.bench import validate_entry, validate_run_record
from repro.serve import loadgen
from repro.serve.loadgen import (
    DEFAULT_MIX,
    build_requests,
    parse_mix,
    run_direct,
    run_served,
    summarize,
)
from repro.serve.protocol import validate_request


class TestMix:
    def test_default_mix_parses(self):
        entries = parse_mix(DEFAULT_MIX)
        assert sum(w for _oc, w in entries) == 10

    def test_rejects_malformed(self):
        for bad in ("keygen", "keygen:secp160r1", "keygen=3",
                    "keygen:secp160r1=0", "keygen:secp160r1=x", ""):
            with pytest.raises(ValueError):
                parse_mix(bad)

    def test_rejects_unsupported_combinations(self):
        with pytest.raises(ValueError, match="not generatable"):
            parse_mix("ecdsa_verify:secp160r1=1")
        with pytest.raises(ValueError, match="does not run"):
            parse_mix("ecdsa_sign:edwards=1")


class TestStream:
    def test_deterministic_and_valid(self):
        a = build_requests(40, seed=7)
        b = build_requests(40, seed=7)
        assert a == b
        for req in a:
            validate_request(req)  # every generated request is well-formed
        assert [r["id"] for r in a] == list(range(1, 41))

    def test_seed_changes_stream(self):
        assert build_requests(10, seed=7) != build_requests(10, seed=8)

    def test_mix_weights_respected(self):
        reqs = build_requests(
            20, mix="keygen:secp160r1=3,scalarmult:glv=1", seed=1)
        ops = [r["op"] for r in reqs]
        assert ops.count("keygen") == 15
        assert ops.count("scalarmult") == 5

    def test_ecdh_requests_carry_valid_peer(self):
        reqs = build_requests(4, mix="ecdh:secp160r1=1", seed=3)
        replies, _wall = run_direct(reqs, warm=())
        assert all(r["ok"] for r in replies)


class TestSummary:
    def test_byte_stable_across_paths(self):
        """Direct, fixed-base and served execution must produce the
        same bytes: the serving stack changes performance, never
        results (the ISSUE's determinism gate)."""
        reqs = build_requests(12, seed=7)
        direct, _ = run_direct(reqs, fixed_base=False, warm=())
        fixed, _ = run_direct(reqs, fixed_base=True)
        served, _lat, _w = asyncio.run(run_served(reqs))
        assert summarize(reqs, direct) == summarize(reqs, fixed)
        assert summarize(reqs, direct) == summarize(reqs, served)

    def test_served_twice_identical(self):
        reqs = build_requests(10, seed=11)
        one, _l1, _w1 = asyncio.run(run_served(reqs))
        two, _l2, _w2 = asyncio.run(run_served(reqs))
        assert summarize(reqs, one) == summarize(reqs, two)

    def test_summary_is_canonical_jsonl(self):
        reqs = build_requests(3, seed=1)
        replies, _ = run_direct(reqs)
        lines = summarize(reqs, replies).decode().splitlines()
        assert len(lines) == 3
        for line in lines:
            row = json.loads(line)
            assert row["ok"] is True
            assert json.dumps(row, sort_keys=True,
                              separators=(",", ":")) == line


class TestBenchRecord:
    def test_serve_entries_validate(self):
        entry = loadgen._bench_entry("served", 8, 0.5)
        validate_entry(entry)
        assert entry["ips"] == pytest.approx(16.0)
        # Records committed before the inline executor name pool legs.
        validate_entry(dict(entry, engine="pool4",
                            name="keygen/secp160r1/pool4"))

    def test_traced_engine_validates_and_carries_latency(self):
        entry = loadgen._bench_entry("served_traced", 8, 0.5,
                                     latencies=[1.0, 2.0, 3.0, 10.0])
        validate_entry(entry)
        summary = entry["latency_ms"]
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(4.0)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_traced_ratio_floor_enforced(self, capsys):
        record = {"speedups": {
            "keygen/secp160r1/fixedbase:direct": 4.0,
            "keygen/secp160r1/served:direct": 3.0,
            "keygen/secp160r1/served_traced:direct": 1.2,
            "keygen/secp160r1/served_traced:served": 0.4,
        }}
        assert loadgen.check_floors(record) == 1
        assert "traced/untraced" in capsys.readouterr().out
        record["speedups"]["keygen/secp160r1/served_traced:served"] = 0.9
        assert loadgen.check_floors(record) == 0

    def test_shard_entries_validate(self):
        entry = loadgen._bench_entry("shard2", 60, 0.8, kernel="mixed",
                                     latencies=[1.0, 2.0])
        validate_entry(entry)
        assert entry["name"] == "mixed/secp160r1/shard2"

    def test_shard_floor_multicore(self, capsys):
        record = {"speedups": {
            "keygen/secp160r1/fixedbase:direct": 4.0,
            "keygen/secp160r1/served:direct": 3.0,
            "mixed/secp160r1/shard2:shard1": 1.8,
        }}
        assert loadgen.check_floors(record, cpus=4) == 0
        capsys.readouterr()
        record["speedups"]["mixed/secp160r1/shard2:shard1"] = 1.1
        assert loadgen.check_floors(record, cpus=4) == 1
        assert "shard scaling" in capsys.readouterr().out

    def test_shard_floor_single_core_fallback(self, capsys):
        """On one core shards can't scale; only the anti-regression
        bound applies (REPRO_SHARD_SINGLE_CORE_MIN, default 0.6)."""
        record = {"speedups": {
            "keygen/secp160r1/fixedbase:direct": 4.0,
            "keygen/secp160r1/served:direct": 3.0,
            "mixed/secp160r1/shard2:shard1": 1.01,
        }}
        assert loadgen.check_floors(record, cpus=1) == 0
        assert "single-core" in capsys.readouterr().out
        record["speedups"]["mixed/secp160r1/shard2:shard1"] = 0.3
        assert loadgen.check_floors(record, cpus=1) == 1
        assert "anti-regression" in capsys.readouterr().out

    def test_records_without_shard_legs_skip_the_gate(self):
        record = {"speedups": {
            "keygen/secp160r1/fixedbase:direct": 4.0,
            "keygen/secp160r1/served:direct": 3.0,
        }}
        assert loadgen.check_floors(record, cpus=1) == 0

    def test_bad_serve_entries_rejected(self):
        entry = loadgen._bench_entry("served", 8, 0.5)
        with pytest.raises(ValueError, match="engine"):
            validate_entry(dict(entry, engine="warp9",
                                name="keygen/secp160r1/warp9"))
        with pytest.raises(ValueError, match="curve"):
            validate_entry(dict(entry, mode="p256",
                                name="keygen/p256/served"))
        with pytest.raises(ValueError, match="cycle"):
            validate_entry(dict(entry, cycles_per_run=3))

    @pytest.mark.bench
    def test_bench_record_and_floors(self):
        record = loadgen.run_bench_serve(smoke=True)
        validate_run_record(record)
        assert loadgen.check_floors(record) == 0


class TestCli:
    def test_check_mode_passes(self, capsys, tmp_path):
        out = tmp_path / "stream.jsonl"
        assert loadgen.main(["--workers", "1", "--n", "12", "--seed", "7",
                             "--check", "--out", str(out)]) == 0
        assert "OK" in capsys.readouterr().out
        assert out.read_bytes().count(b"\n") == 12

    def test_direct_mode_writes_summary(self, tmp_path):
        out = tmp_path / "direct.jsonl"
        assert loadgen.main(["--workers", "0", "--n", "6", "--seed", "3",
                             "--out", str(out)]) == 0
        rows = [json.loads(line) for line in
                out.read_bytes().decode().splitlines()]
        assert len(rows) == 6 and all(r["ok"] for r in rows)

    def test_duration_requires_rate(self):
        with pytest.raises(SystemExit):
            loadgen.main(["--duration", "1"])
