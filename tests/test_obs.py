"""Tests for the observability layer (repro.obs): tracing, metrics,
autograd profiling, attention capture, and the trainer wiring."""

from __future__ import annotations

import contextlib
import json
import logging
import sys
import threading

import numpy as np
import pytest

from repro.autograd import ops
from repro.autograd import tensor as tensor_mod
from repro.autograd.tensor import Tensor
from repro.core import CGKGR
from repro.core.config import CGKGRConfig
from repro.obs import (
    NULL_TRACER,
    GuidanceAttentionRecorder,
    MetricsRegistry,
    SlidingWindowStats,
    Tracer,
    capture_attention,
    default_tracer,
    profile,
    set_default_tracer,
    track_memory,
)
from repro.training import Trainer, TrainerConfig


# ----------------------------------------------------------------------
# Tracer / spans / JSONL
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_records_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("tick", value=1)
        by_kind = {}
        for e in tracer.events:
            by_kind.setdefault((e["kind"], e["name"]), e)
        outer_start = by_kind[("span_start", "outer")]
        inner_start = by_kind[("span_start", "inner")]
        event = by_kind[("event", "tick")]
        assert inner_start["parent"] == outer_start["span"]
        assert event["parent"] == inner_start["span"]
        assert "parent" not in outer_start

    def test_span_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kaput")
        end = [e for e in tracer.events if e["kind"] == "span_end"][0]
        assert end["ok"] is False
        assert "kaput" in end["attrs"]["error"]
        assert "dur" in end
        # The stack unwound: a new span is again top-level.
        with tracer.span("after"):
            pass
        start = [e for e in tracer.events if e["name"] == "after"][0]
        assert "parent" not in start

    def test_jsonl_roundtrip_every_event_carries_run_id(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=str(path), run_id="testrun")
        with tracer.span("phase", alpha=1):
            tracer.event("point", value=np.float64(2.5))
        tracer.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # span_start, event, span_end
        events = [json.loads(line) for line in lines]
        assert all(e["run"] == "testrun" for e in events)
        assert all("ts" in e and "mono" in e for e in events)
        point = [e for e in events if e["kind"] == "event"][0]
        assert point["attrs"]["value"] == 2.5  # numpy scalar serialized

    def test_span_set_attrs_land_on_end_event(self):
        tracer = Tracer()
        with tracer.span("epoch", epoch=1) as span:
            span.set(loss=0.5)
        end = [e for e in tracer.events if e["kind"] == "span_end"][0]
        assert end["attrs"] == {"epoch": 1, "loss": 0.5}

    def test_summary_aggregates_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("epoch"):
                pass
        summary = tracer.summary()
        assert summary["epoch"]["count"] == 3
        assert summary["epoch"]["total_s"] >= 0.0

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", x=1) as span:
            span.set(y=2)
        NULL_TRACER.event("nothing")
        assert NULL_TRACER.summary() == {}
        assert not NULL_TRACER.enabled

    def test_stack_unwinds_when_caller_swallows_the_exception(self):
        tracer = Tracer()

        def fails_inside_span():
            with tracer.span("risky"):
                raise ValueError("expected")

        for attempt in range(3):
            try:
                fails_inside_span()
            except ValueError:
                pass  # swallowed above the `with` block
        assert tracer.current_span() is None
        # New spans are top-level, not parented under a dead span.
        with tracer.span("after"):
            pass
        start = [e for e in tracer.events if e["name"] == "after"][0]
        assert "parent" not in start

    def test_failing_end_emit_does_not_mask_body_exception(self):
        tracer = Tracer()
        original_emit = tracer._emit

        def flaky_emit(kind, name, **fields):
            if kind == "span_end":
                raise OSError("disk full")
            return original_emit(kind, name, **fields)

        tracer._emit = flaky_emit
        # The body's ValueError must surface, not the emit's OSError ...
        with pytest.raises(ValueError, match="body"):
            with tracer.span("doomed"):
                raise ValueError("body")
        # ... and the stack must be clean afterwards.
        assert tracer.current_span() is None
        # Without a body exception the emit failure does propagate.
        with pytest.raises(OSError):
            with tracer.span("doomed-again"):
                pass
        assert tracer.current_span() is None

    def test_failing_start_emit_leaves_no_ghost_span(self):
        tracer = Tracer()
        original_emit = tracer._emit

        def flaky_emit(kind, name, **fields):
            if kind == "span_start" and name == "broken":
                raise OSError("closed file")
            return original_emit(kind, name, **fields)

        tracer._emit = flaky_emit
        with pytest.raises(OSError):
            tracer.span("broken").__enter__()
        assert tracer.current_span() is None
        with tracer.span("after"):
            pass
        start = [e for e in tracer.events if e["name"] == "after"][0]
        assert "parent" not in start

    def test_complete_records_interval_with_lane_identity(self):
        import os
        import threading

        tracer = Tracer()
        tracer.complete("matmul", dur=0.25, cat="op", phase="fwd")
        record = tracer.events[-1]
        assert record["kind"] == "complete"
        assert record["dur"] == 0.25
        # t0 defaults to now - dur.
        assert record["t0"] == pytest.approx(record["ts"] - 0.25, abs=0.05)
        assert record["pid"] == os.getpid()
        assert record["tid"] == threading.get_ident()
        assert record["attrs"] == {"cat": "op", "phase": "fwd"}
        # An explicit t0 back-dates the interval.
        tracer.complete("eval", dur=0.1, t0=123.0)
        record = tracer.events[-1]
        assert (record["t0"], record["dur"]) == (123.0, 0.1)

    def test_counter_records_series_sample(self):
        tracer = Tracer()
        with tracer.span("epoch"):
            tracer.counter("memory", live_bytes=2048, peak_bytes=4096)
        record = [e for e in tracer.events if e["kind"] == "counter"][0]
        assert record["name"] == "memory"
        assert record["attrs"] == {"live_bytes": 2048, "peak_bytes": 4096}
        # An explicit t0 back-dates the sample.
        tracer.counter("memory", t0=5.0, live_bytes=1)
        record = tracer.events[-1]
        assert (record["t0"], record["attrs"]) == (5.0, {"live_bytes": 1})

    def test_default_tracer_install_and_reset(self):
        tracer = Tracer()
        set_default_tracer(tracer)
        try:
            assert default_tracer() is tracer
        finally:
            set_default_tracer(None)
        assert default_tracer() is NULL_TRACER


# ----------------------------------------------------------------------
# Metrics (obs.metrics)
# ----------------------------------------------------------------------
class TestMetrics:
    def test_serve_shim_is_gone_but_serve_still_reexports(self):
        import importlib
        import sys

        from repro import serve

        # The deprecated repro.serve.metrics shim was removed after two
        # releases; the canonical class lives in repro.obs.metrics and
        # repro.serve re-exports it directly.
        sys.modules.pop("repro.serve.metrics", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.serve.metrics")
        assert serve.MetricsRegistry is MetricsRegistry

    def test_percentile_empty_window_returns_zero(self):
        hist = SlidingWindowStats(capacity=4096)
        assert hist.snapshot().percentile(50) == 0.0
        assert hist.snapshot().percentile(-10) == 0.0
        assert hist.summary()["p99"] == 0.0

    def test_percentile_single_sample_returns_sample(self):
        hist = SlidingWindowStats(capacity=4096)
        hist.observe(0.25)
        for q in (-5, 0, 50, 99, 150):
            assert hist.snapshot().percentile(q) == 0.25

    def test_percentile_clamps_out_of_range_q(self):
        hist = SlidingWindowStats(capacity=4096)
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.snapshot().percentile(150) == 3.0
        assert hist.snapshot().percentile(-1) == 1.0

    def test_gauges_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.set_gauge("epoch_loss", 0.75)
        snap = registry.snapshot()
        assert snap["gauges"] == {"epoch_loss": 0.75}
        text = registry.render()
        assert "# TYPE repro_serve_epoch_loss gauge" in text
        assert "repro_serve_epoch_loss 0.75" in text


# ----------------------------------------------------------------------
# Autograd profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_records_forward_and_backward(self):
        with profile() as prof:
            a = Tensor(np.ones((8, 8)), requires_grad=True)
            b = ops.matmul(a, a)
            c = ops.sum(b)
            c.backward()
        stats = prof.op_stats
        assert stats["matmul"].calls == 1
        # One backward fn per parent; matmul(a, a) registers two.
        assert stats["matmul"].calls_bwd == 2
        assert stats["matmul"].time_fwd > 0
        assert stats["matmul"].peak_bytes == 8 * 8 * 8
        assert prof.backward_calls == 1
        assert prof.backward_walk_time > 0

    def test_nested_ops_attributed_to_outermost(self):
        t = Tensor(np.ones(4), requires_grad=True)
        with profile() as prof:
            ops.l2_norm_squared([t])  # internally calls mul + sum
        assert prof.op_stats["l2_norm_squared"].calls == 1
        assert "mul" not in prof.op_stats
        assert "sum" not in prof.op_stats

    def test_ops_and_backward_restored_after_exit(self):
        # The profiler observes through autograd's observer list: it is
        # registered while active, and nothing it touched is replaced.
        original_add = ops.add
        original_backward = Tensor.backward
        with profile() as prof:
            assert tensor_mod._observers == [prof]
            assert ops.add is original_add
            assert Tensor.backward is original_backward
        assert tensor_mod._observers == []
        assert ops.add is original_add
        assert Tensor.backward is original_backward
        assert ops.add.__module__ == "repro.autograd.ops"

    def test_patch_section_and_instance_restore(self):
        class Thing:
            def work(self):
                return 7

        thing = Thing()
        with profile() as prof:
            prof.patch(thing, "work", "thing.work")
            assert thing.work() == 7
        assert "work" not in vars(thing)  # shadow removed, class method back
        assert thing.work() == 7
        assert prof.sections["thing.work"][0] == 1

    def test_report_on_tiny_cgkgr_step(self, tiny_dataset):
        from repro.autograd.optim import Adam

        cfg = CGKGRConfig(dim=8, depth=2, n_heads=2, kg_sample_size=3)
        model = CGKGR(tiny_dataset, cfg, seed=0)
        optimizer = Adam(model.parameters(), lr=1e-3)
        users = tiny_dataset.train.users[:16]
        items = tiny_dataset.train.items[:16]
        with profile() as prof:
            for _ in range(4):
                optimizer.zero_grad()
                loss = model.loss(users, items, items)
                loss.backward()
                with prof.section("optimizer.step"):
                    optimizer.step()
        report = prof.report()
        ops_seen = {row["op"] for row in report.rows}
        # The attention/aggregation core of CG-KGR must be attributed.
        assert "einsum" in ops_seen
        assert "gather_rows" in ops_seen
        assert "masked_softmax" in ops_seen
        einsum_row = next(r for r in report.rows if r["op"] == "einsum")
        assert einsum_row["calls"] > 0 and einsum_row["bwd_calls"] > 0
        assert report.wall_s > 0
        assert 0 < report.accounted_s
        # The op table and the optimizer section account for the bulk of
        # the steps (acceptance bar 90% holds for full profiled steps;
        # these tiny ones still land well above half).
        assert report.accounted_fraction > 0.5
        text = report.render()
        assert "einsum" in text and "accounted" in text
        payload = report.to_json()
        json.dumps(payload)  # must be serializable
        assert payload["ops"][0]["total_s"] >= payload["ops"][-1]["total_s"]

    def test_item_side_work_is_on_the_relation_scores_row(
        self, tiny_dataset, monkeypatch
    ):
        # The table projection and the per-hop edge gather run as plain
        # numpy on the item side; their adjoint lives in the backward of
        # the fused relation-score op, so their forward reports on its row.
        from repro.core import attention

        fused_calls = []
        fused = attention._guided_relation_scores

        def counted(*args, **kwargs):
            fused_calls.append(1)
            return fused(*args, **kwargs)

        monkeypatch.setattr(attention, "_guided_relation_scores", counted)
        cfg = CGKGRConfig(dim=8, depth=2, n_heads=2, kg_sample_size=3)
        model = CGKGR(tiny_dataset, cfg, seed=0)
        users = tiny_dataset.train.users[:16]
        items = tiny_dataset.train.items[:16]
        with profile() as prof:
            model.loss(users, items, items).backward()
        row = next(r for r in prof.report().rows if r["op"] == "relation_scores")
        assert len(fused_calls) == 2  # one per hop
        # + one table projection per forward + one edge gather per hop
        assert row["calls"] == len(fused_calls) + 1 + 2
        assert row["bwd_calls"] > 0

    def test_not_reentrant(self):
        with profile() as prof:
            with pytest.raises(RuntimeError):
                prof.__enter__()

    def test_nested_profilers_each_count_every_op(self):
        a = Tensor(np.ones((3, 3)), requires_grad=True)
        with profile() as outer:
            ops.add(a, a)
            with profile() as inner:
                ops.sum(ops.matmul(a, a)).backward()
                ops.l2_norm_squared([a])  # nested mul/sum stay hidden
            # The inner exit leaves the outer one recording.
            assert tensor_mod._observers == [outer]
            ops.add(a, a)
        for prof in (outer, inner):
            assert prof.op_stats["matmul"].calls == 1
            assert prof.op_stats["matmul"].calls_bwd == 2
            assert prof.op_stats["sum"].calls == 1
            assert prof.op_stats["sum"].calls_bwd == 1
            assert prof.op_stats["l2_norm_squared"].calls == 1
            assert "mul" not in prof.op_stats
            assert prof.backward_calls == 1
        assert outer.op_stats["add"].calls == 2
        assert "add" not in inner.op_stats

    def test_exception_leaves_no_observer(self):
        a = Tensor(np.ones(2))
        with pytest.raises(ValueError, match="boom"):
            with profile() as prof:
                with pytest.raises(TypeError):
                    ops.gather_rows(a, np.array([0.5]))  # raises inside an op
                ops.add(a, a)  # depth was restored: still an outermost call
                raise ValueError("boom")
        assert tensor_mod._observers == []
        assert prof.op_stats["add"].calls == 1
        ops.add(a, a)
        Tensor(np.ones(2), requires_grad=True).sum().backward()
        assert prof.op_stats["add"].calls == 1
        assert "sum" not in prof.op_stats
        assert prof.backward_calls == 0

    def test_concurrent_profilers_register_and_unregister(self):
        # Many threads entering and leaving profilers at once: the shared
        # observer list ends empty, and each profiler saw its own thread's
        # op while it was registered.
        a = Tensor(np.ones(2))
        seen, errors = [], []

        def worker():
            try:
                for _ in range(50):
                    with profile() as prof:
                        ops.add(a, a)
                    seen.append(prof.op_stats["add"].calls)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(seen) == 8 * 50 and min(seen) >= 1
        assert tensor_mod._observers == []

    def test_profiler_and_tracker_together_match_each_alone(self, tiny_dataset):
        def cgkgr_step(*observers):
            cfg = CGKGRConfig(dim=8, depth=2, n_heads=2, kg_sample_size=3)
            model = CGKGR(tiny_dataset, cfg, seed=0)
            users = tiny_dataset.train.users[:16]
            items = tiny_dataset.train.items[:16]
            with contextlib.ExitStack() as stack:
                for observer in observers:
                    stack.enter_context(observer)
                model.loss(users, items, items).backward()

        def op_table(prof):
            return {
                name: (stat.calls, stat.calls_bwd, stat.bytes_out)
                for name, stat in prof.op_stats.items()
            }

        def alloc_table(mem):
            summary = mem.summary()
            return summary["by_op"], summary["n_allocs"]

        prof_alone, mem_alone = profile(), track_memory()
        cgkgr_step(prof_alone)
        cgkgr_step(mem_alone)
        assert "relation_scores" in op_table(prof_alone)
        assert "collab_scores" in alloc_table(mem_alone)[0]
        for order in ((0, 1), (1, 0)):
            pair = (profile(), track_memory())
            cgkgr_step(*(pair[i] for i in order))
            assert op_table(pair[0]) == op_table(prof_alone)
            assert alloc_table(pair[1]) == alloc_table(mem_alone)

    def test_emits_complete_events_through_tracer(self):
        tracer = Tracer()
        with profile(tracer=tracer) as prof:
            a = Tensor(np.ones((3, 3)), requires_grad=True)
            b = Tensor(np.ones((3, 3)))
            out = ops.sum(ops.matmul(a, b))
            out.backward()
            with prof.section("optimizer.step"):
                pass
        completes = [e for e in tracer.events if e["kind"] == "complete"]
        cats = {e["name"]: e["attrs"]["cat"] for e in completes}
        assert cats["matmul"] == "op"
        assert cats["backward_walk"] == "backward"
        assert cats["optimizer.step"] == "section"
        fwd = [
            e for e in completes
            if e["name"] == "matmul" and e["attrs"].get("phase") == "fwd"
        ]
        bwd = [
            e for e in completes
            if e["name"] == "matmul" and e["attrs"].get("phase") == "bwd"
        ]
        assert fwd and bwd


# ----------------------------------------------------------------------
# Attention capture (Fig. 5 made queryable)
# ----------------------------------------------------------------------
class TestAttentionCapture:
    @pytest.fixture()
    def model(self, tiny_dataset):
        cfg = CGKGRConfig(dim=8, depth=2, n_heads=2, kg_sample_size=3)
        return CGKGR(tiny_dataset, cfg, seed=0)

    def test_capture_levels_and_shapes(self, model):
        items = np.array([0, 1, 2], dtype=np.int64)
        users = np.array([0, 1, 2], dtype=np.int64)
        with capture_attention(model) as rec:
            model.predict(users, items)
        assert rec.levels() == [1, 2]
        for record in rec.records:
            assert record["weights"].shape == record["mask"].shape
            # Weights normalize within each parent group (or vanish when
            # the whole group is masked out).
            k = model.config.kg_sample_size
            grouped = record["weights"].reshape(len(items), -1, k).sum(axis=-1)
            assert np.all((np.abs(grouped - 1.0) < 1e-8) | (grouped == 0.0))

    def test_detaches_after_context(self, model):
        users = np.array([0], dtype=np.int64)
        items = np.array([1], dtype=np.int64)
        with capture_attention(model) as rec:
            model.predict(users, items)
        captured = len(rec.records)
        assert captured > 0
        model.predict(users, items)
        assert len(rec.records) == captured  # observer removed
        assert model._attention_observers == []

    def test_detaches_on_exception(self, model):
        with pytest.raises(ValueError):
            with capture_attention(model):
                raise ValueError("interrupted")
        assert model._attention_observers == []

    def test_for_item_and_summary(self, model):
        users = np.array([0, 1], dtype=np.int64)
        items = np.array([3, 1], dtype=np.int64)
        with capture_attention(model) as rec:
            model.predict(users, items)
        views = list(rec.for_item(3))
        assert views and all(v["item"] == 3 for v in views)
        summary = rec.summary()
        for level in rec.levels():
            assert summary[level]["rows"] > 0
            assert summary[level]["mean_entropy"] >= 0.0

    def test_to_jsonl_roundtrip(self, model, tmp_path):
        users = np.array([0, 1], dtype=np.int64)
        items = np.array([0, 2], dtype=np.int64)
        with capture_attention(model) as rec:
            model.predict(users, items)
        path = tmp_path / "attn.jsonl"
        written = rec.to_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == written > 0
        for line in lines:
            assert set(line) == {
                "level", "item", "entities", "relations", "mask", "weights"
            }
            assert len(line["weights"]) == len(line["entities"])

    def test_max_records_cap(self, model):
        users = np.array([0, 1, 2], dtype=np.int64)
        items = np.array([0, 1, 2], dtype=np.int64)
        rec = GuidanceAttentionRecorder(max_records=1)
        with capture_attention(model, rec):
            model.predict(users, items)
        assert len(rec.records) == 1
        assert rec.dropped > 0


class TestCaptureIsInvisible:
    """Observers read the weights the forward computes, so capture never
    changes what a model computes or learns."""

    @staticmethod
    def _train(dataset, cfg, observe, steps=5):
        from repro.autograd.optim import Adam

        model = CGKGR(dataset, cfg, seed=0)
        optimizer = Adam(model.parameters(), lr=0.01)
        rng = np.random.default_rng(0)
        train = dataset.train
        for _ in range(steps):
            rows = rng.choice(train.n_interactions, size=16, replace=False)
            negatives = rng.integers(0, dataset.n_items, size=16)
            model.zero_grad()
            with capture_attention(model) if observe else contextlib.nullcontext():
                loss = model.loss(train.users[rows], train.items[rows], negatives)
            loss.backward()
            optimizer.step()
        return model

    @pytest.mark.parametrize("use_guidance", [True, False])
    def test_adam_steps_identical_with_capture(self, tiny_dataset, use_guidance):
        cfg = CGKGRConfig(
            dim=8, depth=2, n_heads=2, kg_sample_size=3, use_guidance=use_guidance
        )
        plain = self._train(tiny_dataset, cfg, observe=False)
        observed = self._train(tiny_dataset, cfg, observe=True)
        for (name, a), (_, b) in zip(
            plain.named_parameters(), observed.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), name

    @pytest.mark.parametrize("depth", [1, 2])
    def test_hop1_payload_equals_explain(self, tiny_dataset, depth):
        cfg = CGKGRConfig(dim=8, depth=depth, n_heads=2, kg_sample_size=3)
        model = CGKGR(tiny_dataset, cfg, seed=0)
        user, item = 1, 3
        with capture_attention(model) as rec:
            observed = model.predict([user], [item])
        assert np.array_equal(observed, model.predict([user], [item]))
        (hop1,) = [r for r in rec.records if r["level"] == 1]
        report = model.explain(user, item)
        assert np.array_equal(hop1["weights"][0], report["guided_weights"])
        assert np.array_equal(hop1["entities"][0], report["entities"])


# ----------------------------------------------------------------------
# Trainer telemetry
# ----------------------------------------------------------------------
class TestTrainerTelemetry:
    def _fit(self, dataset, tracer=None, **overrides):
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2)
        model = CGKGR(dataset, cfg, seed=0)
        kwargs = dict(
            epochs=3, eval_task="topk", eval_metric="recall@10", eval_k=10,
            eval_max_users=5, tracer=tracer,
        )
        kwargs.update(overrides)
        config = TrainerConfig(**kwargs)
        trainer = Trainer(model, config)
        return trainer, trainer.fit()

    def test_epoch_spans_match_time_per_epoch(self, tiny_dataset):
        tracer = Tracer()
        _, result = self._fit(tiny_dataset, tracer=tracer)
        epoch_ends = [
            e for e in tracer.events
            if e["kind"] == "span_end" and e["name"] == "epoch"
        ]
        assert len(epoch_ends) == len(result.history)
        span_sum = sum(e["dur"] for e in epoch_ends)
        reported = result.time_per_epoch * len(epoch_ends)
        assert span_sum == pytest.approx(reported, rel=0.10)

    def test_epoch_span_attrs_and_events(self, tiny_dataset):
        tracer = Tracer()
        _, result = self._fit(tiny_dataset, tracer=tracer)
        end = [
            e for e in tracer.events
            if e["kind"] == "span_end" and e["name"] == "epoch"
        ][0]
        assert end["attrs"]["examples_per_sec"] > 0
        assert end["attrs"]["grad_norm"] > 0
        assert end["attrs"]["loss"] > 0
        metrics_events = [e for e in tracer.events if e["name"] == "epoch_metrics"]
        assert len(metrics_events) == len(result.history)
        assert "recall@10" in metrics_events[0]["attrs"]
        assert "epochs_since_best" in metrics_events[0]["attrs"]
        fit_end = [
            e for e in tracer.events
            if e["kind"] == "span_end" and e["name"] == "fit"
        ][0]
        assert fit_end["attrs"]["best_epoch"] == result.best_epoch

    def test_early_stop_event(self, tiny_dataset):
        tracer = Tracer()
        _, result = self._fit(
            tiny_dataset, tracer=tracer, early_stop_patience=1, epochs=12,
        )
        if result.stopped_early:
            stops = [e for e in tracer.events if e["name"] == "early_stop"]
            assert len(stops) == 1
            assert stops[0]["attrs"]["best_epoch"] == result.best_epoch

    def test_untraced_run_skips_grad_norms(self, tiny_dataset):
        trainer, result = self._fit(tiny_dataset, tracer=None)
        assert trainer.tracer is NULL_TRACER
        assert "grad_norm" not in trainer.last_epoch_stats
        assert len(result.history) == 3

    def test_verbose_goes_through_logging(self, tiny_dataset, caplog):
        with caplog.at_level(logging.INFO, logger="repro.training"):
            self._fit(tiny_dataset, verbose=True)
        lines = [r.message for r in caplog.records]
        assert any("loss=" in line and "[CG-KGR]" in line for line in lines)
