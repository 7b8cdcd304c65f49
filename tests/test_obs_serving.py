"""Unit tests for the serving-observability layer: request-scoped
tracing, sliding-window SLO accounting, slow-request exemplars
and the strict Prometheus exposition linter.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

import repro.obs.serving as serving_mod
from repro.obs.events import NULL_TRACER
from repro.obs.metrics import MetricsRegistry, SlidingWindowStats
from repro.obs.serving import (
    RequestContext,
    SLOMonitor,
    SLOSpec,
    SlowRequestStore,
    current_request,
    lint_prometheus,
    use_request,
)


class FakeTracer:
    """Collects (name, fields) events; the only Tracer surface SLOMonitor
    and the server exemplar dump touch."""

    def __init__(self):
        self.events = []

    def event(self, name, **fields):
        self.events.append((name, fields))


# ----------------------------------------------------------------------
# Request-scoped tracing
# ----------------------------------------------------------------------
class TestRequestContext:
    def test_span_tree_nesting(self):
        ctx = RequestContext("GET", "/recommend")
        with ctx.span("cache.lookup") as sp:
            sp.set(hit=False)
        with ctx.span("index.query", mode="ann"):
            with ctx.span("ann.probe", nprobe=4) as probe:
                probe.set(candidates=128)
        trace = ctx.finish(status=200).to_dict()
        assert trace["status"] == 200
        assert trace["dur_ms"] > 0
        names = [s["name"] for s in trace["spans"]]
        assert names == ["cache.lookup", "index.query"]
        assert trace["spans"][0]["attrs"] == {"hit": False}
        (probe,) = trace["spans"][1]["children"]
        assert probe["name"] == "ann.probe"
        assert probe["attrs"] == {"nprobe": 4, "candidates": 128}
        assert probe["dur_ms"] >= 0

    def test_request_id_minted_and_adopted(self):
        minted = RequestContext("GET", "/x")
        assert len(minted.request_id) == 16
        adopted = RequestContext("GET", "/x", request_id="client-abc")
        assert adopted.request_id == "client-abc"

    def test_finish_idempotent_on_duration(self):
        ctx = RequestContext().finish(status=200)
        first = ctx.duration_s
        assert ctx.finish(status=500).duration_s == first
        assert ctx.status == 500

    def test_span_records_exception(self):
        ctx = RequestContext()
        with pytest.raises(RuntimeError):
            with ctx.span("index.query"):
                raise RuntimeError("boom")
        span = ctx.to_dict()["spans"][0]
        assert "RuntimeError" in span["attrs"]["error"]
        assert span["dur_ms"] is not None

    def test_use_request_installs_and_restores(self):
        assert current_request() is NULL_TRACER
        ctx = RequestContext()
        with use_request(ctx):
            assert current_request() is ctx
            with current_request().span("cache.lookup"):
                pass
        assert current_request() is NULL_TRACER
        assert ctx.to_dict()["spans"][0]["name"] == "cache.lookup"

    def test_null_context_is_inert(self):
        # Outside a request the context is the no-op tracer: it records
        # nothing and, like a request's run_id, has no id.
        with NULL_TRACER.span("anything", a=1) as sp:
            sp.set(b=2)
        assert NULL_TRACER.events == [] and NULL_TRACER.summary() == {}
        assert NULL_TRACER.run_id is None

    def test_cross_thread_span_recording(self):
        """The batcher thread records into a context the handler owns."""
        ctx = RequestContext("GET", "/recommend")

        def worker():
            with ctx.span("engine.microbatch", batch=3):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert ctx.to_dict()["spans"][0]["attrs"] == {"batch": 3}


# ----------------------------------------------------------------------
# Sliding windows
# ----------------------------------------------------------------------
class TestSlidingWindowStats:
    def test_trims_outside_window(self):
        stats = SlidingWindowStats(window_s=10.0)
        stats.observe(0.001, now=100.0)
        stats.observe(0.002, now=105.0)
        stats.observe(0.003, now=112.0)
        snap = stats.snapshot(now=112.0)
        assert snap.count == 2  # the t=100 sample fell off
        assert stats.total_count == 3

    def test_percentiles_and_errors(self):
        stats = SlidingWindowStats(window_s=60.0)
        for i in range(100):
            stats.observe(i / 1000.0, ok=(i != 0), now=50.0)
        snap = stats.snapshot(now=50.0)
        assert snap.p50 == pytest.approx(0.0495, abs=1e-6)
        assert snap.p99 == pytest.approx(0.09801, abs=1e-4)
        assert snap.error_rate == pytest.approx(0.01)
        assert snap.availability == pytest.approx(0.99)
        assert snap.fraction_over(0.0895) == pytest.approx(0.10)

    def test_empty_snapshot_is_total(self):
        snap = SlidingWindowStats().snapshot()
        assert snap.count == 0
        assert snap.p99 == 0.0
        assert snap.error_rate == 0.0
        assert snap.fraction_over(1.0) == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindowStats().observe(-0.1)

    def test_capacity_bounds_memory(self):
        stats = SlidingWindowStats(window_s=1e6, capacity=10)
        for i in range(100):
            stats.observe(float(i), now=50.0)
        assert stats.snapshot(now=50.0).count == 10


# ----------------------------------------------------------------------
# SLO specs and monitor
# ----------------------------------------------------------------------
class TestSLOSpec:
    def test_parse_latency_ms(self):
        spec = SLOSpec.parse("p99<25ms")
        assert spec.kind == "latency"
        assert spec.threshold == pytest.approx(0.025)
        assert spec.percentile == 99.0
        assert spec.name == "latency_p99"
        assert spec.budget == pytest.approx(0.01)

    def test_parse_latency_seconds_with_window(self):
        spec = SLOSpec.parse("p50<0.005s@30")
        assert spec.threshold == pytest.approx(0.005)
        assert spec.percentile == 50.0
        assert spec.window_s == 30.0

    def test_parse_availability_percent(self):
        spec = SLOSpec.parse("availability>=99.9%")
        assert spec.kind == "availability"
        assert spec.threshold == pytest.approx(0.999)
        assert spec.budget == pytest.approx(0.001)
        assert "99.9%" in spec.describe()

    def test_parse_availability_fraction(self):
        assert SLOSpec.parse("avail>=0.99").threshold == pytest.approx(0.99)

    @pytest.mark.parametrize(
        "bad",
        ["p99", "p99<25kg", "latency<25ms", "p99<25%", "availability>=1ms", ""],
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            SLOSpec.parse(bad)

    def test_invalid_constructor_values(self):
        with pytest.raises(ValueError):
            SLOSpec(kind="latency", threshold=0.0)
        with pytest.raises(ValueError):
            SLOSpec(kind="availability", threshold=1.5)
        with pytest.raises(ValueError):
            SLOSpec(kind="throughput", threshold=1.0)


class TestSLOMonitor:
    def _monitor(self, **kwargs):
        tracer = FakeTracer()
        metrics = MetricsRegistry()
        monitor = SLOMonitor(
            ["p99<25ms", "availability>=99.9%"],
            metrics=metrics,
            tracer=tracer,
            burn_windows=(60.0,),
            **kwargs,
        )
        return monitor, metrics, tracer

    def test_met_when_fast(self):
        monitor, metrics, tracer = self._monitor()
        for _ in range(50):
            monitor.observe(0.001, now=10.0)
        statuses = monitor.status(now=10.0)
        assert all(s.met for s in statuses)
        assert metrics.snapshot()["gauges"]["slo_latency_p99_met"] == 1.0
        assert tracer.events == []

    def test_violation_is_edge_triggered_and_rearms(self):
        hits = []
        monitor, metrics, tracer = self._monitor(on_violation=hits.append)
        for _ in range(50):
            monitor.observe(0.100, now=10.0)  # 100ms >> 25ms target
        monitor.status(now=10.0)
        monitor.status(now=10.0)  # still violated: no second event
        violations = [e for e in tracer.events if e[0] == "slo_violation"]
        assert len(violations) == 1
        assert violations[0][1]["slo_name"] == "latency_p99"
        assert violations[0][1]["target"] == 25.0
        assert metrics.get("slo_violations") == 1.0
        assert len(hits) == 1 and hits[0].spec.name == "latency_p99"
        # Every request over target with a 1% budget → burn rate 100x.
        assert metrics.snapshot()["gauges"][
            "slo_latency_p99_burn_rate_60s"
        ] == pytest.approx(100.0)
        # Recovery (window slides past the slow burst) re-arms the edge.
        for _ in range(50):
            monitor.observe(0.001, now=200.0)
        monitor.status(now=200.0)
        for _ in range(50):
            monitor.observe(0.100, now=400.0)
        monitor.status(now=400.0)
        assert metrics.get("slo_violations") == 2.0

    def test_availability_budget(self):
        monitor, metrics, _ = self._monitor()
        for i in range(100):
            monitor.observe(0.001, ok=(i % 10 != 0), now=10.0)
        status = next(
            s for s in monitor.status(now=10.0) if s.spec.kind == "availability"
        )
        assert status.attained == pytest.approx(0.90)
        assert not status.met
        # 10% errors against a 0.1% budget → 100x over.
        assert status.budget_consumed == pytest.approx(100.0)

    def test_empty_window_counts_as_met(self):
        monitor, _, tracer = self._monitor()
        assert all(s.met for s in monitor.status(now=5.0))
        assert tracer.events == []

    def test_observe_periodically_evaluates(self, monkeypatch):
        monkeypatch.setattr(serving_mod, "SLO_EVAL_INTERVAL", 8)
        monitor, metrics, _ = self._monitor()
        for _ in range(8):
            monitor.observe(0.100, now=10.0)
        assert metrics.get("slo_violations") == 1.0


class TestSLOMonitorOneRing:
    def test_windows_match_standalone_rings(self, monkeypatch):
        """One ring sized to the longest window reports, for each window,
        exactly what a separate capacity-capped ring of that length would."""
        capacity = 400
        monkeypatch.setattr(serving_mod, "SLO_RING_CAPACITY", capacity)
        monitor = SLOMonitor(["p99<25ms"], burn_windows=(60.0, 300.0))
        rings = {
            w: SlidingWindowStats(window_s=w, capacity=capacity)
            for w in (60.0, 300.0)
        }
        rng = np.random.default_rng(0)
        # Past the rings' creation by far, so QPS divides by the window.
        now = time.monotonic() + 1000.0
        checked = 0

        def check(at):
            for w, ring in rings.items():
                got = monitor.snapshot(w, now=at)
                want = ring.snapshot(now=at)
                assert got.qps == pytest.approx(want.qps, rel=1e-6)
                for field in dataclasses.fields(want):
                    if field.name != "qps":
                        assert getattr(got, field.name) == getattr(
                            want, field.name
                        ), (w, at, field.name)

        # Bursts (capacity binds inside 300 s) alternate with sparse
        # stretches (time binds): 2000 requests over ~1,500 s.
        for i in range(2000):
            now += rng.exponential(0.05 if (i // 250) % 2 == 0 else 1.5)
            latency = float(rng.exponential(0.01))
            ok = bool(rng.random() > 0.05)
            monitor.observe(latency, ok=ok, now=now)
            for ring in rings.values():
                ring.observe(latency, ok=ok, now=now)
            if i % 97 == 0:
                check(now)
                checked += 1
        for gap in (10.0, 100.0, 400.0):  # the 60 s, then 300 s, empty out
            check(now + gap)
        assert checked > 20


# ----------------------------------------------------------------------
# Slow-request exemplars
# ----------------------------------------------------------------------
class TestSlowRequestStore:
    def _trace(self, dur_ms, request_id="r"):
        return {"request_id": request_id, "dur_ms": dur_ms, "spans": []}

    def test_keeps_slowest_n(self):
        store = SlowRequestStore(capacity=3)
        for dur in (5.0, 50.0, 1.0, 30.0, 40.0):
            store.offer(self._trace(dur))
        kept = [t["dur_ms"] for t in store.snapshot()]
        assert kept == [50.0, 40.0, 30.0]
        assert len(store) == 3
        assert store.threshold_ms == 30.0

    def test_offer_reports_admission(self):
        store = SlowRequestStore(capacity=2)
        assert store.offer(self._trace(10.0))
        assert store.offer(self._trace(20.0))
        assert not store.offer(self._trace(1.0))
        assert store.offer(self._trace(15.0))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SlowRequestStore(capacity=0)


# ----------------------------------------------------------------------
# Prometheus exposition: lint + parse
# ----------------------------------------------------------------------
VALID_EXPOSITION = """\
# HELP repro_serve_http_requests Total HTTP requests received.
# TYPE repro_serve_http_requests counter
repro_serve_http_requests 42
# TYPE repro_serve_window_qps gauge
repro_serve_window_qps 12.5
# TYPE repro_serve_lat summary
repro_serve_lat{quantile="0.5"} 0.001
repro_serve_lat{quantile="0.99"} 0.004
repro_serve_lat_sum 0.123
repro_serve_lat_count 42
"""


class TestLintPrometheus:
    def test_valid_text_passes(self):
        assert lint_prometheus(VALID_EXPOSITION) == []

    def test_sample_without_type_flagged(self):
        errors = lint_prometheus("orphan_metric 1\n")
        assert any("no preceding # TYPE" in e for e in errors)

    def test_duplicate_series_flagged(self):
        text = "# TYPE m counter\nm 1\nm 2\n"
        assert any("duplicate series" in e for e in lint_prometheus(text))

    def test_duplicate_type_flagged(self):
        text = "# TYPE m counter\n# TYPE m counter\nm 1\n"
        assert any("duplicate # TYPE" in e for e in lint_prometheus(text))

    def test_type_after_samples_flagged(self):
        text = "# TYPE m counter\nm 1\n# HELP m late help\n"
        assert any("after its samples" in e for e in lint_prometheus(text))

    def test_unknown_type_keyword_flagged(self):
        text = "# TYPE m countr\nm 1\n"
        assert any("unknown TYPE" in e for e in lint_prometheus(text))

    def test_bad_label_escape_flagged(self):
        text = '# TYPE m gauge\nm{path="a\\qb"} 1\n'
        assert any("bad escape" in e for e in lint_prometheus(text))

    def test_unquoted_label_flagged(self):
        text = "# TYPE m gauge\nm{path=abc} 1\n"
        assert any("not quoted" in e for e in lint_prometheus(text))

    def test_unparseable_value_flagged(self):
        text = "# TYPE m gauge\nm one\n"
        assert any("unparseable value" in e for e in lint_prometheus(text))

    def test_special_float_values_allowed(self):
        text = "# TYPE m gauge\nm{k=\"a\"} +Inf\nm{k=\"b\"} NaN\n"
        assert lint_prometheus(text) == []

    def test_trailing_whitespace_flagged(self):
        text = "# TYPE m gauge\nm 1 \n"
        assert any("trailing whitespace" in e for e in lint_prometheus(text))

    def test_registry_render_is_lint_clean(self):
        metrics = MetricsRegistry()
        metrics.describe("http_requests", "Total HTTP requests received.")
        metrics.inc("http_requests", 7)
        metrics.inc("cache_hits", 3)
        metrics.inc("cache_misses", 1)
        metrics.set_gauge("window_qps", 10.5)
        for value in (0.001, 0.002, 0.005):
            metrics.observe("http_request_latency_seconds", value)
        text = metrics.render()
        assert lint_prometheus(text) == []
        assert (
            "# HELP repro_serve_http_requests Total HTTP requests received."
            in text
        )
