"""Trace assembly: span-tree joins, Chrome lanes, and the tail-sampling
flight recorder."""

import json

import pytest

from repro.obs.assemble import (
    FlightRecorder,
    RequestTrace,
    assemble,
    assemble_one,
    records_to_chrome,
)
from repro.obs.export import validate_chrome
from repro.obs.trace import Span


def _worker_spans(t0, t1, trace="ab" * 8):
    """A worker span with one kernel-level child."""
    worker = Span("worker", kind="serve",
                  attrs={"trace": trace, "op": "keygen",
                         "curve": "secp160r1"})
    worker.t0_ns, worker.t1_ns = t0, t1
    kernel = Span("scalar_mult_fixed_base", kind="scalarmult")
    kernel.t0_ns, kernel.t1_ns = t0 + 100, t1 - 100
    worker.children.append(kernel)
    return worker


def _shape(span):
    """A span tree as nested tuples, for equality checks."""
    return (span.name, span.kind, span.t0_ns, span.t1_ns, span.attrs,
            [_shape(child) for child in span.children])


def _record(trace_id="ab" * 8, accept=10_000, dispatch=12_000, reply=30_000,
            server_pid=4000, with_spans=True, **overrides):
    kwargs = dict(
        trace_id=trace_id, req_id=1, op="keygen", curve="secp160r1",
        server_pid=server_pid, t_accept_ns=accept, t_dispatch_ns=dispatch,
        t_reply_ns=reply,
        spans=[_worker_spans(dispatch + 500, reply - 500, trace=trace_id)]
        if with_spans else [],
    )
    kwargs.update(overrides)
    return RequestTrace(**kwargs)


class TestAssembleOne:
    def test_join_nests_queue_and_worker_under_request(self):
        tree = assemble_one(_record())
        assert tree.name == "request"
        assert tree.attrs["trace"] == "ab" * 8
        assert tree.t0_ns == 10_000 and tree.t1_ns == 30_000
        names = [child.name for child in tree.children]
        assert names == ["queue", "worker"]
        worker = tree.children[1]
        assert worker.attrs["op"] == "keygen"
        assert [c.name for c in worker.children] == [
            "scalar_mult_fixed_base"]

    def test_client_stamps_wrap_the_server_span(self):
        rec = _record(client_t0_ns=9_000, client_t1_ns=31_000)
        tree = assemble_one(rec)
        assert tree.name == "client"
        assert tree.t0_ns == 9_000 and tree.t1_ns == 31_000
        assert [c.name for c in tree.children] == ["request"]

    def test_children_clamped_into_parent_window(self):
        # Spans whose stamps leak outside accept..reply must be clamped,
        # never produce negative durations.
        rec = _record(spans=[_worker_spans(1_000, 99_000)])
        tree = assemble_one(rec)
        worker = tree.children[1]
        assert worker.t0_ns >= tree.t0_ns
        assert worker.t1_ns <= tree.t1_ns
        kernel = worker.children[0]
        assert kernel.t0_ns >= worker.t0_ns
        assert kernel.t1_ns <= worker.t1_ns
        assert kernel.dur_ns >= 0

    def test_assembling_twice_yields_equal_trees(self):
        # Grafted spans are clamped in place; a second assembly of the
        # same record (a slowlog dump after a chrome export) must agree,
        # including when every stamp leaks out of the client window.
        for rec in (_record(client_t0_ns=9_000, client_t1_ns=31_000),
                    _record(spans=[_worker_spans(1_000, 99_000)],
                            client_t0_ns=500, client_t1_ns=5_000)):
            first = _shape(assemble_one(rec))
            assert _shape(assemble_one(rec)) == first

    def test_undispatched_record_has_no_queue_span(self):
        rec = _record(dispatch=None, with_spans=False, status="Overloaded")
        tree = assemble_one(rec)
        assert tree.children == []
        assert tree.attrs["status"] == "Overloaded"

    def test_assemble_keys_by_trace_id(self):
        records = [_record(trace_id="aa" * 8), _record(trace_id="bb" * 8)]
        trees = assemble(records)
        assert set(trees) == {"aa" * 8, "bb" * 8}


class TestChromeExport:
    def test_one_lane_per_pid_and_valid_schema(self):
        records = [
            _record(trace_id="aa" * 8, server_pid=4000,
                    client_t0_ns=9_000, client_t1_ns=31_000),
            _record(trace_id="bb" * 8, server_pid=4001, accept=40_000,
                    dispatch=41_000, reply=60_000),
        ]
        chrome = records_to_chrome(records)
        validate_chrome(chrome)
        lanes = chrome["metadata"]["lanes"]
        # Client lane and one lane per serving process.
        assert set(lanes) == {"0", "4000", "4001"}
        assert lanes["0"] == "client"
        assert lanes["4000"].startswith("serve[")
        assert lanes["4001"].startswith("serve[")
        by_name = {}
        for e in chrome["traceEvents"]:
            if e.get("ph") == "X":
                by_name.setdefault(e["name"], set()).add(e["pid"])
        assert by_name["client"] == {0}
        # The request, its execution and the kernel children all sit on
        # the lane of the process that served them.
        for name in ("request", "worker", "scalar_mult_fixed_base"):
            assert by_name[name] == {4000, 4001}

    def test_timestamps_relative_and_nonnegative(self):
        chrome = records_to_chrome([_record()])
        xs = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in xs) == 0.0
        assert all(e["dur"] >= 0 for e in xs)

    def test_export_is_json_serializable(self):
        chrome = records_to_chrome([_record()])
        validate_chrome(json.loads(json.dumps(chrome)))


class TestFlightRecorder:
    def test_keeps_the_n_slowest(self):
        ring = FlightRecorder(capacity=3)
        for i, dur in enumerate([50, 10, 90, 20, 70]):
            ring.record(_record(trace_id=f"{i:02d}" * 8, accept=0,
                                dispatch=1, reply=dur, with_spans=False))
        assert ring.recorded == 5
        assert len(ring) == 3
        assert [r.dur_ns for r in ring.slowest()] == [90, 70, 50]

    def test_fast_request_does_not_evict(self):
        ring = FlightRecorder(capacity=2)
        ring.record(_record(trace_id="aa" * 8, accept=0, reply=100,
                            with_spans=False))
        ring.record(_record(trace_id="bb" * 8, accept=0, reply=200,
                            with_spans=False))
        ring.record(_record(trace_id="cc" * 8, accept=0, reply=1,
                            with_spans=False))
        assert {r.trace_id for r in ring.slowest()} == {"aa" * 8, "bb" * 8}

    def test_get_by_trace_id(self):
        ring = FlightRecorder()
        rec = _record()
        ring.record(rec)
        assert ring.get(rec.trace_id) is rec
        assert ring.get("ff" * 8) is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_writes_valid_chrome_json(self, tmp_path):
        ring = FlightRecorder(capacity=4)
        ring.record(_record())
        path = tmp_path / "slow.json"
        written = ring.dump(str(path))
        assert written == 1
        with open(path, "r", encoding="utf-8") as fh:
            validate_chrome(json.load(fh))
