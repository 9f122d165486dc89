"""A tiny process-wide metrics registry.

Long-lived counters, gauges and latency histograms that are cheap enough
to live in hot-ish paths (block compilation, span creation, kernel runs,
request serving) and are snapshotted into every observability export, so
a profile or bench artifact carries the engine-health numbers it was
produced under.

The registry is intentionally minimal — named counters (monotonic),
gauges (set-to-latest) and log-bucketed histograms with a dict snapshot —
not a Prometheus client.  (The "Exports + CLI" piece of DESIGN.md §4
"Observability".)

Fork-safety (DESIGN.md §8 "Serving layer"): ``METRICS`` is plain
process-global state.  A forked child inherits the parent's tallies,
which would double-count the moment it reported them, so forked
processes MUST call :meth:`MetricsRegistry.reset_for_fork` before doing
any work (each serving process under the shard supervisor does).
Nothing here is shared memory — aggregation across processes is
explicit: the shard supervisor's stats board sums the snapshots each
process publishes.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from typing import Dict, List, Optional, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "METRICS",
           "render_prometheus"]

Number = Union[int, float]


class Counter:
    """Monotonic counter; ``inc`` is a single attribute add."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value (last write wins)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


#: Geometric bucket boundaries shared by every histogram: 1 µs .. ~67 s
#: in powers of two.  Fixed boundaries keep observe() to one bisect.
_BUCKET_BOUNDS: List[float] = [2.0 ** i for i in range(27)]


class Histogram:
    """Log-bucketed distribution (latencies in µs by convention).

    ``observe`` is one binary search + one list increment; quantiles are
    estimated by linear interpolation inside the winning bucket, which
    is accurate to the bucket's factor-of-two resolution — plenty for
    p50/p95/p99 dashboards and regression gates.
    """

    __slots__ = ("name", "help", "buckets", "count", "sum")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.buckets = [0] * (len(_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: Number) -> None:
        self.buckets[bisect_left(_BUCKET_BOUNDS, value)] += 1
        self.count += 1
        self.sum += value

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100]) or 0.0 when empty."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in 0..100")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if seen + n >= rank:
                lo = _BUCKET_BOUNDS[i - 1] if i > 0 else 0.0
                hi = (_BUCKET_BOUNDS[i] if i < len(_BUCKET_BOUNDS)
                      else self.sum / self.count * 4 + lo)
                frac = (rank - seen) / n
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
            seen += n
        return _BUCKET_BOUNDS[-1]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "p50": round(self.percentile(50), 3),
            "p95": round(self.percentile(95), 3),
            "p99": round(self.percentile(99), 3),
        }


class MetricsRegistry:
    """Named metrics with idempotent registration and a dict snapshot."""

    def __init__(self):
        self._metrics: Dict[str, Union[Counter, Gauge]] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._pid = os.getpid()
        #: Default labels stamped on every Prometheus sample — process
        #: identity (e.g. ``shard="2"``), never per-request dimensions.
        self._labels: Dict[str, str] = {}

    def set_label(self, name: str, value: Optional[str]) -> None:
        """Set (or with ``None``, drop) a registry-wide default label.

        The shard supervisor labels each serving process once at entry;
        :meth:`reset_for_fork` deliberately keeps labels, so a process
        forked after labelling keeps its identity in its own
        expositions.
        """
        if not _PROM_NAME_OK.fullmatch(name):
            raise ValueError(f"label name {name!r} is not a valid "
                             "Prometheus label name")
        if value is None:
            self._labels.pop(name, None)
        else:
            self._labels[name] = str(value)

    def labels(self) -> Dict[str, str]:
        """A copy of the registry-wide default labels."""
        return dict(self._labels)

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._metrics.get(name)
        if metric is None and name in self._histograms:
            raise TypeError(f"metric {name!r} is registered as a histogram")
        if metric is None:
            metric = self._metrics[name] = Counter(name, help)
        elif not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is registered as a gauge")
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._metrics.get(name)
        if metric is None and name in self._histograms:
            raise TypeError(f"metric {name!r} is registered as a histogram")
        if metric is None:
            metric = self._metrics[name] = Gauge(name, help)
        elif not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} is registered as a counter")
        return metric

    def histogram(self, name: str, help: str = "") -> Histogram:
        if name in self._metrics:
            raise TypeError(f"metric {name!r} is registered as a scalar")
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, help)
        return hist

    def get(self, name: str) -> Optional[Union[Counter, Gauge, Histogram]]:
        metric = self._metrics.get(name)
        if metric is not None:
            return metric
        return self._histograms.get(name)

    def snapshot(self) -> Dict[str, Number]:
        """Current values of every registered metric (name -> value).

        Histograms flatten to ``<name>_count`` / ``<name>_p50`` /
        ``<name>_p95`` / ``<name>_p99`` entries so the snapshot stays a
        flat name -> number mapping every exporter understands.
        """
        snap = {name: m.value for name, m in sorted(self._metrics.items())}
        for name, hist in sorted(self._histograms.items()):
            summary = hist.summary()
            snap[f"{name}_count"] = summary["count"]
            snap[f"{name}_p50"] = summary["p50"]
            snap[f"{name}_p95"] = summary["p95"]
            snap[f"{name}_p99"] = summary["p99"]
        return snap

    def histogram_summaries(self,
                            prefix: str = "") -> Dict[str, Dict[str, float]]:
        """Percentile summaries of every histogram (optionally filtered
        by name prefix) — the structured form the served ``stats`` op
        returns, where the flat :meth:`snapshot` spelling would force
        clients to reassemble names."""
        return {name: hist.summary()
                for name, hist in sorted(self._histograms.items())
                if name.startswith(prefix)}

    def counters_snapshot(self) -> Dict[str, Number]:
        """Counter values only — the summable subset a process reports."""
        return {name: m.value for name, m in sorted(self._metrics.items())
                if isinstance(m, Counter)}

    def reset(self) -> None:
        """Zero every metric (tests; production code never resets)."""
        for metric in self._metrics.values():
            metric.value = 0
        for hist in self._histograms.values():
            hist.buckets = [0] * (len(_BUCKET_BOUNDS) + 1)
            hist.count = 0
            hist.sum = 0.0

    def reset_for_fork(self) -> None:
        """Mandatory first call in a forked child: drop inherited tallies.

        Re-stamps the owning pid so :meth:`check_fork_isolation` can
        flag a child that skipped isolation.
        """
        self.reset()
        self._pid = os.getpid()

    def check_fork_isolation(self) -> bool:
        """True when this process owns the registry's tallies."""
        return self._pid == os.getpid()


_PROM_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def _prom_name(name: str) -> str:
    """Coerce a registry name into the Prometheus metric-name alphabet."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _PROM_NAME_OK.fullmatch(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _prom_num(value: Number) -> str:
    """Numbers in exposition format (integers without a trailing .0)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    """Render a label set (plus a pre-formatted *extra* pair like
    ``le="8"``) as ``{k="v",...}``; empty string when there are none."""
    pairs = [f'{name}="' + value.replace("\\", "\\\\").replace('"', '\\"')
             .replace("\n", "\\n") + '"'
             for name, value in sorted(labels.items())]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(registry: Optional["MetricsRegistry"] = None) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Counters and gauges render as single samples; histograms render as
    the conventional cumulative ``_bucket{le=...}`` series (our fixed
    power-of-two bounds plus ``+Inf``) with ``_sum`` and ``_count``
    samples, so the output is directly scrapeable — the served ``stats``
    op with ``format="prometheus"`` hands back exactly this string.
    Registry-wide default labels (:meth:`MetricsRegistry.set_label`,
    e.g. the shard index) are stamped on every sample, merged with the
    histogram ``le`` pair.
    """
    reg = registry if registry is not None else METRICS
    labels = _prom_labels(reg._labels)
    lines: List[str] = []
    for name, metric in sorted(reg._metrics.items()):
        pname = _prom_name(name)
        kind = "counter" if isinstance(metric, Counter) else "gauge"
        if metric.help:
            lines.append(f"# HELP {pname} {metric.help}")
        lines.append(f"# TYPE {pname} {kind}")
        lines.append(f"{pname}{labels} {_prom_num(metric.value)}")
    for name, hist in sorted(reg._histograms.items()):
        pname = _prom_name(name)
        if hist.help:
            lines.append(f"# HELP {pname} {hist.help}")
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for bound, count in zip(_BUCKET_BOUNDS, hist.buckets):
            cumulative += count
            bucket = _prom_labels(reg._labels,
                                  extra=f'le="{format(bound, "g")}"')
            lines.append(f"{pname}_bucket{bucket} {cumulative}")
        inf = _prom_labels(reg._labels, extra='le="+Inf"')
        lines.append(f"{pname}_bucket{inf} {hist.count}")
        lines.append(f"{pname}_sum{labels} {_prom_num(hist.sum)}")
        lines.append(f"{pname}_count{labels} {hist.count}")
    return "\n".join(lines) + "\n"


#: The process-wide registry every subsystem registers against.
METRICS = MetricsRegistry()
