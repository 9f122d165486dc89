"""Metrics registry: histograms, cross-process counter merging, fork
isolation (the worker-safety audit of the serving PR), and the
Prometheus text exposition."""

import os

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, render_prometheus


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert reg.snapshot()["x"] == 5

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_collisions_raise(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.gauge("g")
        reg.histogram("h")
        with pytest.raises(TypeError):
            reg.gauge("c")
        with pytest.raises(TypeError):
            reg.counter("g")
        with pytest.raises(TypeError):
            reg.histogram("c")
        with pytest.raises(TypeError):
            reg.counter("h")
        with pytest.raises(TypeError):
            reg.gauge("h")


class TestHistogram:
    def test_empty_summary(self):
        hist = Histogram("lat")
        assert hist.summary() == {"count": 0, "mean": 0.0, "p50": 0.0,
                                  "p95": 0.0, "p99": 0.0}

    def test_percentiles_bound_observations(self):
        hist = Histogram("lat")
        for v in (10, 20, 30, 1000):
            hist.observe(v)
        assert hist.count == 4
        assert hist.mean == pytest.approx(265.0)
        # Log-bucketed estimates are bucket-accurate: the p50 must land
        # within a factor of two of the true median.
        assert 8 <= hist.percentile(50) <= 64
        assert hist.percentile(99) <= 2048
        assert hist.percentile(0) <= hist.percentile(100)

    def test_percentile_validates_range(self):
        with pytest.raises(ValueError):
            Histogram("lat").percentile(101)

    def test_registry_snapshot_flattens(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(100)
        snap = reg.snapshot()
        assert snap["lat_count"] == 1
        assert snap["lat_p50"] > 0
        assert "lat_p95" in snap and "lat_p99" in snap

    def test_percentile_empty_histogram_is_zero(self):
        hist = Histogram("lat")
        for q in (0, 50, 99, 100):
            assert hist.percentile(q) == 0.0

    def test_percentile_single_sample(self):
        hist = Histogram("lat")
        hist.observe(100)
        # Every percentile must land in the sample's bucket (64, 128].
        for q in (0, 50, 95, 99, 100):
            assert 64 <= hist.percentile(q) <= 128
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["mean"] == pytest.approx(100.0)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_snapshot_flattens_empty_histogram_to_zeroes(self):
        reg = MetricsRegistry()
        reg.histogram("lat")
        snap = reg.snapshot()
        assert snap["lat_count"] == 0
        assert snap["lat_p50"] == 0.0
        assert snap["lat_p99"] == 0.0

    def test_histogram_summaries_filters_by_prefix(self):
        reg = MetricsRegistry()
        reg.histogram("serve_latency_us").observe(5)
        reg.histogram("other_us").observe(7)
        summaries = reg.histogram_summaries(prefix="serve_")
        assert set(summaries) == {"serve_latency_us"}
        assert summaries["serve_latency_us"]["count"] == 1
        assert set(reg.histogram_summaries()) == {"other_us",
                                                  "serve_latency_us"}


class TestPrometheusExposition:
    def test_counters_gauges_and_help(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", help="requests seen").inc(3)
        reg.gauge("depth").set(7)
        text = render_prometheus(reg)
        assert "# HELP reqs_total requests seen\n" in text
        assert "# TYPE reqs_total counter\n" in text
        assert "\nreqs_total 3\n" in text
        assert "# TYPE depth gauge\n" in text
        assert "\ndepth 7\n" in text
        assert text.endswith("\n")

    def test_histogram_renders_cumulative_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_us")
        for v in (1, 3, 1000):
            hist.observe(v)
        text = render_prometheus(reg)
        assert "# TYPE lat_us histogram\n" in text
        assert 'lat_us_bucket{le="1"} 1\n' in text
        assert 'lat_us_bucket{le="4"} 2\n' in text
        assert 'lat_us_bucket{le="+Inf"} 3\n' in text
        assert "lat_us_sum 1004\n" in text
        assert "lat_us_count 3\n" in text
        # Cumulative series must be monotone non-decreasing.
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("lat_us_bucket")]
        assert counts == sorted(counts)

    def test_metric_names_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("serve.op-latency us").inc()
        text = render_prometheus(reg)
        assert "serve_op_latency_us 1\n" in text


class TestCrossProcessMerge:
    def test_counters_snapshot_excludes_gauges_and_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(9)
        reg.histogram("h").observe(1)
        assert reg.counters_snapshot() == {"c": 2}


class TestForkIsolation:
    def test_reset_for_fork_zeroes_and_restamps(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        reg.histogram("h").observe(3)
        reg._pid = 1  # simulate an inherited parent registry
        assert not reg.check_fork_isolation()
        reg.reset_for_fork()
        assert reg.check_fork_isolation()
        assert reg.counters_snapshot()["c"] == 0
        assert reg.snapshot()["h_count"] == 0

    def test_forked_worker_reports_isolated_counters(self):
        """A real fork: the child resets, works, and reports only its
        own tallies — the parent's stay untouched."""
        import multiprocessing

        def child(conn):
            from repro.obs.metrics import METRICS

            METRICS.reset_for_fork()
            METRICS.counter("fork_test_total").inc(3)
            conn.send(METRICS.counters_snapshot())
            conn.close()

        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        from repro.obs.metrics import METRICS

        before = METRICS.counters_snapshot().get("fork_test_total", 0)
        proc = ctx.Process(target=child, args=(child_conn,))
        proc.start()
        snapshot = parent_conn.recv()
        proc.join(timeout=30)
        assert snapshot["fork_test_total"] == 3
        assert METRICS.counters_snapshot().get(
            "fork_test_total", 0) == before
        assert os.getpid() != proc.pid
