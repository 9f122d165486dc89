"""Observability: hierarchical tracing, metrics, and exports.

The paper argues entirely by attribution — per-instruction-group cycle
breakdowns (Fig. 1) and weighted field-op sums (Tables I-III).  This
package makes the same attribution available on demand, at fast-engine
speed, for any kernel / curve / mode:

* :mod:`repro.obs.trace` — a lightweight span tracer auto-instrumented
  through ``scalarmult``, ``curves``, ``field`` and the kernel runner,
  capturing field-/word-op counter deltas and ISS cycle deltas per span.
* :mod:`repro.obs.metrics` — a process-wide counter/gauge registry
  snapshotted into every export.
* :mod:`repro.obs.export` — JSONL events and Chrome trace-event
  (``chrome://tracing`` / Perfetto) output, plus the schema validator.

Engine-speed ISS profiling itself lives with the core it observes
(:mod:`repro.avr.profiler`); this package consumes its results.  The
architecture is documented in DESIGN.md §4 "Observability"; the export
layer additionally carries the fault-campaign record stream of
DESIGN.md §7 "Fault model & countermeasures" and the constant-time
verdict stream of DESIGN.md §9 "Constant-time verification".
"""

from .assemble import (
    FlightRecorder,
    RequestTrace,
    assemble,
    assemble_one,
    records_to_chrome,
)
from .export import (
    ctcheck_events,
    ctcheck_to_jsonl,
    fault_events,
    faults_to_jsonl,
    profiler_events,
    span_events,
    to_chrome,
    to_jsonl,
    validate_chrome,
)
from .metrics import METRICS, MetricsRegistry, render_prometheus
from .trace import (
    CURRENT,
    Span,
    Tracer,
    install,
    new_trace_id,
    traced,
    uninstall,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "render_prometheus",
    "CURRENT",
    "Span",
    "Tracer",
    "install",
    "traced",
    "uninstall",
    "new_trace_id",
    "FlightRecorder",
    "RequestTrace",
    "assemble",
    "assemble_one",
    "records_to_chrome",
    "ctcheck_events",
    "ctcheck_to_jsonl",
    "fault_events",
    "faults_to_jsonl",
    "profiler_events",
    "span_events",
    "to_chrome",
    "to_jsonl",
    "validate_chrome",
]
