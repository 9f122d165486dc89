"""Join request stage stamps and execution spans into end-to-end trees.

The serving stack (DESIGN.md §8) stamps each traced request's stages as
it moves through a serving process (accept -> queue -> execute ->
reply) and runs the cryptography under a fresh
:class:`~repro.obs.trace.Tracer`, keeping its span tree; the client
may stamp its own send/receive times in another process.  This module
does the join.

* :class:`RequestTrace` is the per-request record the server accumulates
  as the request moves through the pipeline — trace id, stage
  timestamps and the execution's spans (plus optional client-side
  send/receive stamps when the client participates, as the load
  generator does).
* :func:`assemble` turns records into one :class:`~repro.obs.trace.Span`
  tree per request: ``client -> request -> queue/worker`` with the
  execution's own spans (scalarmult, point ops, kernel runs) grafted
  under the worker span.
* :func:`records_to_chrome` renders record sets as a Chrome
  trace-event object with **one lane per pid** (the client and each
  serving process render as separate "processes"),
  `validate_chrome`-clean.
* :class:`FlightRecorder` is the tail-sampling ring: it keeps the N
  slowest completed requests' records, the data behind the server's
  ``--slowlog`` dump and the loadgen ``--slowlog`` flag.

All timestamps are ``time.perf_counter_ns`` values.  On one host every
process reads the same monotonic clock, so client and server stamps
interleave on a common timeline without clock translation; the
assembler still clamps children into their parent's window so rounding
can never produce the negative durations ``validate_chrome`` rejects.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .trace import Span

__all__ = [
    "RequestTrace",
    "FlightRecorder",
    "assemble",
    "assemble_one",
    "records_to_chrome",
]


@dataclass
class RequestTrace:
    """Everything one traced request left behind."""

    trace_id: str
    req_id: int
    op: str
    curve: Optional[str]
    server_pid: int
    t_accept_ns: int
    #: Set when the executor dequeued the request to run it.
    t_dispatch_ns: Optional[int] = None
    #: Set when the reply was written back to the client.
    t_reply_ns: Optional[int] = None
    #: The execution's root spans; empty when the request never ran —
    #: shed, expired, or answered inline.
    spans: List[Span] = field(default_factory=list)
    #: "ok" or the error type of the reply.
    status: str = "ok"
    #: Client-side send/receive stamps (same monotonic clock), when the
    #: client recorded them — the load generator does.
    client_t0_ns: Optional[int] = None
    client_t1_ns: Optional[int] = None

    @property
    def dur_ns(self) -> int:
        """Accept-to-reply duration (0 while the request is in flight)."""
        if self.t_reply_ns is None:
            return 0
        return max(0, self.t_reply_ns - self.t_accept_ns)


def _clamp(span: Span, lo: int, hi: int) -> None:
    """Force *span* (recursively) inside [lo, hi] so stamp rounding
    never yields a child that leaks outside its parent."""
    span.t0_ns = min(max(span.t0_ns, lo), hi)
    span.t1_ns = min(max(span.t1_ns, span.t0_ns), hi)
    for child in span.children:
        _clamp(child, span.t0_ns, span.t1_ns)


def assemble_one(record: RequestTrace) -> Span:
    """One record -> one joined span tree (see module docstring).

    The returned root is the outermost span that exists for the request:
    the client span when the record carries client stamps, else the
    server-side request span.  The record's own spans are grafted and
    clamped in place; clamping is idempotent, so assembling a record
    again yields an equal tree.
    """
    t_end = record.t_reply_ns if record.t_reply_ns is not None \
        else record.t_accept_ns
    request = Span("request", kind="serve", attrs={
        "trace": record.trace_id, "id": record.req_id, "op": record.op,
        "curve": record.curve, "pid": record.server_pid,
        "status": record.status,
    })
    request.t0_ns, request.t1_ns = record.t_accept_ns, t_end
    if record.t_dispatch_ns is not None:
        queued = Span("queue", kind="serve",
                      attrs={"trace": record.trace_id})
        queued.t0_ns, queued.t1_ns = record.t_accept_ns, record.t_dispatch_ns
        request.children.append(queued)
    request.children.extend(record.spans)
    for child in request.children:
        _clamp(child, request.t0_ns, request.t1_ns)
    if record.client_t0_ns is None or record.client_t1_ns is None:
        return request
    client = Span("client", kind="serve", attrs={
        "trace": record.trace_id, "id": record.req_id, "op": record.op})
    client.t0_ns, client.t1_ns = record.client_t0_ns, record.client_t1_ns
    client.children.append(request)
    _clamp(request, client.t0_ns, client.t1_ns)
    return client


def assemble(records: List[RequestTrace]) -> Dict[str, Span]:
    """Join every record into its span tree, keyed by trace id."""
    return {rec.trace_id: assemble_one(rec) for rec in records}


def records_to_chrome(records: List[RequestTrace]) -> Dict[str, Any]:
    """Chrome trace-event JSON for a record set, one lane per pid.

    The client and every serving process get their own "process" row
    (named via ``process_name`` metadata events); each span lands on
    the lane of the pid that produced it, in microseconds relative to
    the earliest accept.  Validated by :func:`repro.obs.export
    .validate_chrome` (a test pins this).
    """
    base = min((r.client_t0_ns if r.client_t0_ns is not None
                else r.t_accept_ns for r in records), default=0)
    events: List[Dict[str, Any]] = []
    lanes: Dict[int, str] = {}

    def lane(pid: int, name: str) -> int:
        if pid not in lanes:
            lanes[pid] = name
            events.append({"ph": "M", "name": "process_name",
                           "pid": pid, "tid": 0, "args": {"name": name}})
        return pid

    def emit(span: Span, target: int, server: int) -> None:
        events.append({
            "ph": "X", "name": span.name, "cat": span.kind,
            "pid": target, "tid": 1,
            "ts": max(0.0, round((span.t0_ns - base) / 1000, 3)),
            "dur": max(0.0, round(span.dur_ns / 1000, 3)),
            "args": {k: v for k, v in span.attrs.items() if v is not None},
        })
        for child in span.children:
            # The request span (under a client root) moves to the
            # serving process's lane; everything else stays put.
            emit(child, server if child.name == "request" else target,
                 server)

    for rec in records:
        tree = assemble_one(rec)
        server = lane(rec.server_pid, f"serve[{rec.server_pid}]")
        emit(tree, lane(0, "client") if tree.name == "client" else server,
             server)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {"lanes": {str(pid): name
                               for pid, name in sorted(lanes.items())}},
    }


class FlightRecorder:
    """Tail-sampling ring: the N slowest completed request records.

    ``record()`` is O(log N) (a bounded min-heap on accept-to-reply
    duration); the common fast path — a request quicker than the current
    floor with the ring full — is one comparison.  This is the data
    behind the ``--slowlog`` dumps: after an incident the ring holds the
    worst requests' full span trees, no log scraping required.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._heap: List[Tuple[int, int, RequestTrace]] = []
        self._seq = 0
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._heap)

    def record(self, rec: RequestTrace) -> None:
        self.recorded += 1
        if len(self._heap) >= self.capacity:
            if rec.dur_ns <= self._heap[0][0]:
                return
            heapq.heapreplace(self._heap, (rec.dur_ns, self._seq, rec))
        else:
            heapq.heappush(self._heap, (rec.dur_ns, self._seq, rec))
        self._seq += 1

    def slowest(self) -> List[RequestTrace]:
        """Records in the ring, slowest first."""
        return [rec for _dur, _seq, rec in
                sorted(self._heap, key=lambda t: (-t[0], t[1]))]

    def get(self, trace_id: str) -> Optional[RequestTrace]:
        for _dur, _seq, rec in self._heap:
            if rec.trace_id == trace_id:
                return rec
        return None

    def to_chrome(self) -> Dict[str, Any]:
        return records_to_chrome(self.slowest())

    def dump(self, path: str) -> int:
        """Write the ring as Chrome trace JSON; returns records written."""
        slowest = self.slowest()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records_to_chrome(slowest), fh, sort_keys=True)
            fh.write("\n")
        return len(slowest)
