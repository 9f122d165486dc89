"""Hierarchical span tracing, counter deltas and the metrics registry."""

import pytest

from repro.curves.params import make_montgomery
from repro.field.counters import FieldOpCounter
from repro.mpa.counters import WordOpCounter
from repro.obs import trace as trace_mod
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, install, traced, uninstall
from repro.scalarmult.ladder import montgomery_ladder_x


class FakeClock:
    """Deterministic nanosecond clock: +1000 ns per reading."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1000
        return self.now


def _priced_counter():
    """A counter whose mul costs 30 word muls and 3 loads, add 5 adds."""
    counter = FieldOpCounter()
    counter.derive_words(add=WordOpCounter(add=5), sub=WordOpCounter(sub=5),
                         mul=WordOpCounter(mul=30, load=3))
    return counter


@pytest.fixture
def tracer():
    return Tracer(clock=FakeClock())


class TestSpanLifecycle:
    def test_nesting_follows_call_order(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner", kind="point") as inner:
                pass
            with tracer.span("sibling"):
                pass
        assert tracer.roots == [outer]
        assert [c.name for c in outer.children] == ["inner", "sibling"]
        assert inner.kind == "point"
        assert [(s.name, d) for s, d in tracer.walk()] == [
            ("outer", 0), ("inner", 1), ("sibling", 1)]
        assert tracer.span_count() == 3
        assert outer.dur_ns > 0

    def test_attrs_via_kwargs_and_set(self, tracer):
        with tracer.span("kernel", mode="ISE") as span:
            span.set(cycles=620)
        assert span.attrs == {"mode": "ISE", "cycles": 620}

    def test_mismatched_end_closes_skipped_frames(self, tracer):
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.end(outer)  # an exception skipped inner's end
        assert inner.t1_ns == outer.t1_ns
        assert tracer._stack == []

    def test_install_uninstall(self, tracer):
        assert trace_mod.CURRENT is None
        with tracer:
            assert trace_mod.CURRENT is tracer
            uninstall(Tracer())  # not the installed one: no-op
            assert trace_mod.CURRENT is tracer
        assert trace_mod.CURRENT is None

    def test_counter_delta_attached_on_close(self, tracer):
        counter = _priced_counter()
        counter.mul = 7
        with tracer.span("op", counter=counter):
            counter.mul += 2
        span = tracer.roots[0]
        assert span.attrs["field_ops"] == {"mul": 2}
        assert span.attrs["word_ops"] == {"mul": 60, "load": 6}

    def test_counter_without_costs_has_no_word_ops(self, tracer):
        counter = FieldOpCounter()
        with tracer.span("op", counter=counter):
            counter.mul += 2
        span = tracer.roots[0]
        assert span.attrs["field_ops"] == {"mul": 2}
        assert "word_ops" not in span.attrs

    def test_cost_fn_prices_the_delta(self):
        tr = Tracer(clock=FakeClock(),
                    cost_fn=lambda delta: 100 * delta.mul)
        counter = FieldOpCounter()
        with tr.span("op", counter=counter):
            counter.mul += 3
        assert tr.roots[0].attrs["cycles_est"] == 300.0

    def test_cost_fn_failure_is_not_fatal(self):
        def boom(delta):
            raise RuntimeError("no costs")
        tr = Tracer(clock=FakeClock(), cost_fn=boom)
        counter = FieldOpCounter()
        with tr.span("op", counter=counter):
            counter.add += 1
        span = tr.roots[0]
        assert span.attrs["field_ops"] == {"add": 1}
        assert "cycles_est" not in span.attrs

    def test_empty_delta_adds_no_attrs(self, tracer):
        counter = FieldOpCounter()
        with tracer.span("op", counter=counter):
            pass
        assert "field_ops" not in tracer.roots[0].attrs


class TestTracedDecorator:
    def test_untraced_call_passes_through(self):
        calls = []

        @traced("f")
        def f(x):
            calls.append(x)
            return x + 1

        assert trace_mod.CURRENT is None
        assert f(1) == 2
        assert calls == [1]

    def test_traced_call_opens_a_span(self):
        holder = FieldOpCounter()

        @traced("work", kind="point",
                counter=lambda n: holder,
                attrs_fn=lambda n: {"n": n})
        def work(n):
            holder.sqr += n
            return n

        with Tracer(clock=FakeClock()) as tr:
            assert work(4) == 4
        span = tr.roots[0]
        assert (span.name, span.kind) == ("work", "point")
        assert span.attrs["n"] == 4
        assert span.attrs["field_ops"] == {"sqr": 4}


class TestFieldInstrumentation:
    def test_field_ops_gated_off_by_default(self, toy_opf):
        a = toy_opf.from_int(5)
        with Tracer(clock=FakeClock()) as tr:
            toy_opf.mul(a, a)
        assert tr.roots == []

    def test_field_ops_spans_carry_word_deltas(self, toy_opf):
        a, b = toy_opf.from_int(5), toy_opf.from_int(7)
        with Tracer(field_ops=True, clock=FakeClock()) as tr:
            toy_opf.mul(a, b)
            toy_opf.add(a, b)
        names = [s.name for s in tr.roots]
        assert names == ["mul", "add"]
        mul_span = tr.roots[0]
        assert mul_span.kind == "field"
        assert mul_span.attrs["field_ops"] == {"mul": 1}
        assert mul_span.attrs["word_ops"]["mul"] > 0

    def test_ladder_span_tree(self):
        suite = make_montgomery()
        k = 0b1011
        with Tracer(field_ops=True, clock=FakeClock()) as tr:
            montgomery_ladder_x(suite.curve, k, suite.base, bits=4)
        root = tr.roots[0]
        assert root.name == "montgomery_ladder_x"
        assert root.kind == "scalarmult"
        assert root.attrs["scalar_bits"] == 4
        kinds = {s.kind for s, _ in tr.walk()}
        assert {"scalarmult", "point", "field"} <= kinds
        # One xadd + one xdbl per processed bit.
        point_names = [s.name for s in root.children
                       if s.kind == "point"]
        assert point_names.count("xadd") == 4
        assert point_names.count("xdbl") == 4
        xadd = next(s for s in root.children if s.name == "xadd")
        assert xadd.attrs["field_ops"]["mul"] >= 3
        # The root's delta covers everything its children did.
        assert root.attrs["field_ops"]["mul"] == sum(
            s.attrs.get("field_ops", {}).get("mul", 0)
            for s in root.children)

    def test_untraced_runs_stay_untraced(self, toy_opf):
        a = toy_opf.from_int(5)
        before = toy_opf.counter.mul
        toy_opf.mul(a, a)  # no tracer installed
        assert toy_opf.counter.mul == before + 1


class TestCounterCopies:
    """delta()/copy() keep the word costs, so they price their words."""

    def test_field_counter_copy_is_independent(self):
        c = _priced_counter()
        c.mul = 3
        snap = c.copy()
        c.mul += 1
        assert (snap.mul, snap.words.mul, snap.words.load) == (3, 90, 9)

    def test_field_counter_delta_includes_words(self):
        c = _priced_counter()
        c.mul, c.add = 3, 1
        snap = c.copy()
        c.mul += 2
        c.add += 4
        delta = c.delta(snap)
        assert (delta.mul, delta.add) == (2, 4)
        assert delta.words.mul == 60
        assert delta.words.add == 20
        assert delta.words.load == 6
        assert delta.words.total() == 86

    def test_word_counter_copy_and_delta(self):
        w = WordOpCounter(mul=5, add=2)
        snap = w.copy()
        w.mul += 3
        assert snap.mul == 5
        assert w.delta(snap).snapshot() == {
            "mul": 3, "add": 0, "sub": 0, "load": 0, "store": 0,
            "shift": 0}


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        c = reg.counter("compiled", "blocks compiled")
        c.inc()
        c.inc(4)
        g = reg.gauge("depth")
        g.set(7)
        assert reg.snapshot() == {"compiled": 5, "depth": 7}
        assert reg.counter("compiled") is c  # idempotent registration
        reg.reset()
        assert reg.snapshot() == {"compiled": 0, "depth": 0}

    def test_kind_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        reg.gauge("y")
        with pytest.raises(TypeError):
            reg.counter("y")

    def test_engine_metrics_registered(self):
        from repro.obs.metrics import METRICS
        runner_metrics = METRICS.snapshot()
        assert "obs_spans_started" in runner_metrics
