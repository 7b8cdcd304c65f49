"""Tests for the performance-timeline layer: Chrome trace export
(repro.obs.timeline), the tensor memory tracker (repro.obs.memory), the
epoch-anatomy report, the memory-growth health anomaly, and the profiler
wall-time accounting contract over the trainer's epoch loop."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

import repro.obs.memory as memory_mod
import repro.training.trainer as trainer_mod
from repro.autograd import ops
from repro.autograd import tensor as tensor_mod
from repro.autograd.tensor import Tensor
from repro.core import CGKGR
from repro.core.config import CGKGRConfig
from repro.obs import (
    HealthMonitor,
    Tracer,
    build_timeline,
    epoch_anatomy,
    load_trace_events,
    profile,
    track_memory,
    validate_timeline,
    write_timeline,
)
from repro.obs import health
from repro.training import Trainer, TrainerConfig


def _traced_activity() -> Tracer:
    """A small but representative in-memory event stream."""
    tracer = Tracer()
    with tracer.span("epoch", epoch=0):
        with tracer.span("train"):
            tracer.complete("matmul", dur=0.002, cat="op", phase="fwd")
            tracer.complete("optimizer.step", dur=0.001, cat="section")
            tracer.counter("memory", live_bytes=1024, peak_bytes=2048)
        with tracer.span("eval"):
            tracer.event("epoch_metrics", recall=0.5)
    return tracer


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestTimelineExport:
    def test_build_from_tracer_events_is_valid_catapult(self):
        tracer = _traced_activity()
        trace = build_timeline(tracer.events)
        assert validate_timeline(trace) == []
        records = trace["traceEvents"]
        by_ph = {}
        for r in records:
            by_ph.setdefault(r["ph"], []).append(r)
        # Spans become matched B/E pairs, completes become X, counters C.
        assert len(by_ph["B"]) == len(by_ph["E"]) == 3
        assert {r["name"] for r in by_ph["X"]} == {"matmul", "optimizer.step"}
        assert by_ph["C"][0]["args"] == {"live_bytes": 1024, "peak_bytes": 2048}
        assert by_ph["i"][0]["name"] == "epoch_metrics"
        assert any(
            m["name"] == "process_name" and m["args"]["name"] == "trainer (main)"
            for m in by_ph["M"]
        )
        # Timestamps are µs relative to the earliest stamp.
        ts = [r["ts"] for r in records if r["ph"] != "M"]
        assert min(ts) == 0.0
        x = next(r for r in by_ph["X"] if r["name"] == "matmul")
        assert x["dur"] == pytest.approx(2000.0, rel=1e-3)
        assert x["cat"] == "op" and x["args"]["phase"] == "fwd"

    def test_per_lane_monotonic_and_nested_pairs(self):
        tracer = _traced_activity()
        records = build_timeline(tracer.events)["traceEvents"]
        lanes = {}
        for r in records:
            if r["ph"] == "M":
                continue
            lanes.setdefault((r["pid"], r["tid"]), []).append(r)
        for lane_records in lanes.values():
            ts = [r["ts"] for r in lane_records]
            assert ts == sorted(ts)
        # The inner spans close before the outer one (proper nesting).
        names = [(r["ph"], r["name"]) for r in records if r["ph"] in "BE"]
        assert names[0] == ("B", "epoch")
        assert names[-1] == ("E", "epoch")

    def test_other_process_events_land_on_their_own_lane(self):
        tracer = Tracer()
        with tracer.span("epoch", epoch=0):
            tracer.complete("worker.compute", dur=0.003, t0=1.0)
            tracer.counter("memory", t0=1.001, live_bytes=99)
        # Two processes appending to one JSONL trace: the second one's
        # records carry its own pid/tid.
        events = [
            dict(ev, pid=4242, tid=7) if ev["kind"] in ("complete", "counter") else ev
            for ev in tracer.events
        ]
        trace = build_timeline(events)
        assert validate_timeline(trace) == []
        records = trace["traceEvents"]
        x = next(r for r in records if r["ph"] == "X")
        assert (x["pid"], x["tid"]) == (4242, 7)
        c = next(r for r in records if r["ph"] == "C")
        assert (c["pid"], c["tid"]) == (4242, 7)
        names = {
            m["pid"]: m["args"]["name"]
            for m in records
            if m["ph"] == "M" and m["name"] == "process_name"
        }
        assert names[4242] == "process 4242"
        sort = {
            m["pid"]: m["args"]["sort_index"]
            for m in records
            if m["ph"] == "M" and m["name"] == "process_sort_index"
        }
        # The driver sorts above the other processes' lanes.
        assert sort[tracer._pid] == 0 and sort[4242] > 0

    def test_counter_drops_non_numeric_series(self):
        tracer = Tracer()
        tracer.counter("memory", live_bytes=10, note="text", ok=True)
        tracer.counter("flags", ok=False)  # nothing numeric -> no C event
        trace = build_timeline(tracer.events)
        assert validate_timeline(trace) == []
        counters = [r for r in trace["traceEvents"] if r["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["args"] == {"live_bytes": 10}

    def test_unterminated_span_is_closed_at_trace_end(self):
        tracer = Tracer()
        span = tracer.span("epoch", epoch=0).__enter__()
        tracer.complete("matmul", dur=0.001, cat="op")
        # Simulated crash: span never exits; the exporter must still emit
        # a matched E so the trace loads.
        trace = build_timeline(tracer.events)
        assert validate_timeline(trace) == []
        span.__exit__(None, None, None)

    def test_validate_catches_corruption(self):
        def trace(*events):
            return {"traceEvents": list(events)}

        ok = {"ph": "X", "name": "op", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1.0}
        assert validate_timeline(trace(ok)) == []
        assert validate_timeline("nope") != []
        cases = [
            {"ph": "Z", "name": "op", "pid": 1, "ts": 0.0},           # unknown ph
            {"ph": "X", "pid": 1, "ts": 0.0, "dur": 1.0},             # missing name
            {"ph": "X", "name": "op", "pid": 1, "tid": 1, "ts": -5.0, "dur": 1.0},
            {"ph": "X", "name": "op", "pid": 1, "tid": 1, "ts": 0.0}, # no dur
            {"ph": "E", "name": "op", "pid": 1, "tid": 1, "ts": 0.0}, # E without B
            {"ph": "B", "name": "op", "pid": 1, "tid": 1, "ts": 0.0}, # unmatched B
            {"ph": "C", "name": "m", "pid": 1, "tid": 1, "ts": 0.0,
             "args": {"v": "high"}},                                   # non-numeric C
        ]
        for bad in cases:
            assert validate_timeline(trace(bad)) != [], bad
        # Backwards ts on one lane is flagged; separate lanes are fine.
        late = dict(ok, ts=10.0)
        early = dict(ok, ts=2.0)
        assert validate_timeline(trace(late, early)) != []
        other_lane = dict(early, pid=2)
        assert validate_timeline(trace(late, other_lane)) == []

    def test_write_timeline_roundtrip_and_check(self, tmp_path, monkeypatch):
        tracer = _traced_activity()
        out = tmp_path / "trace.json"
        trace = write_timeline(tracer.events, out)
        assert json.loads(out.read_text()) == trace
        from repro.obs import timeline as timeline_mod

        monkeypatch.setattr(
            timeline_mod, "validate_timeline", lambda t: ["synthetic problem"]
        )
        with pytest.raises(ValueError, match="synthetic problem"):
            write_timeline(tracer.events, tmp_path / "bad.json")
        write_timeline(tracer.events, tmp_path / "unchecked.json", check=False)

    def test_load_trace_events_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = _traced_activity()
        lines = [json.dumps(e) for e in tracer.events]
        lines.insert(2, "{truncated by a crash")
        path.write_text("\n".join(lines) + "\n")
        events = load_trace_events(path)
        assert len(events) == len(tracer.events)
        assert validate_timeline(build_timeline(events)) == []


# ----------------------------------------------------------------------
# Memory tracker
# ----------------------------------------------------------------------
class TestMemoryTracker:
    def test_live_peak_and_free_accounting(self):
        with track_memory() as mem:
            a = Tensor(np.zeros((32, 32), dtype=np.float64))
            nbytes = a.data.nbytes
            assert mem.live_bytes >= nbytes
            assert mem.peak_bytes >= nbytes
            b = Tensor(np.zeros((32, 32), dtype=np.float64))
            peak = mem.peak_bytes
            assert peak >= 2 * nbytes
            del a, b
            gc.collect()
            assert mem.live_bytes < nbytes
            assert mem.peak_bytes == peak  # watermark survives frees
        summary = mem.summary()
        assert summary["total_alloc_bytes"] >= 2 * nbytes
        assert summary["n_allocs"] >= 2

    def test_per_op_attribution(self):
        with track_memory() as mem:
            x = Tensor(np.ones((8, 8)))
            y = Tensor(np.ones((8, 8)))
            ops.matmul(x, y)
        by_op = mem.summary()["by_op"]
        assert "leaf" in by_op  # raw Tensor(...) constructions
        assert "matmul" in by_op
        assert by_op["matmul"]["bytes"] >= 8 * 8 * 8

    def test_phase_watermarks(self):
        with track_memory() as mem:
            with mem.phase("train"):
                t = Tensor(np.zeros(1024, dtype=np.float64))
            with mem.phase("eval"):
                pass
        phases = mem.summary()["phases"]
        assert phases["train"]["alloc_bytes"] >= t.data.nbytes
        assert phases["train"]["peak_bytes"] >= t.data.nbytes
        assert phases["eval"]["alloc_bytes"] == 0
        assert phases["eval"]["count"] == 1

    def test_epoch_leak_detection_and_persistent_exemption(self):
        with track_memory() as mem:
            mem.begin_epoch(0)
            param = Tensor(np.zeros(16))
            survivor = Tensor(np.zeros(64))
            mem.register_persistent([param])
            clean = mem.epoch_boundary(0)
            # Same-epoch tensors are not leaks: the epoch just made them.
            assert clean["leaked_tensors"] == 0
            mem.begin_epoch(1)
            leaky = mem.epoch_boundary(1)
            # `survivor` crossed a full epoch; `param` is exempt.
            assert leaky["leaked_tensors"] == 1
            assert leaky["leaked_bytes"] == survivor.data.nbytes
            del survivor
            gc.collect()
            mem.begin_epoch(2)
            assert mem.epoch_boundary(2)["leaked_tensors"] == 0
        assert [e["epoch"] for e in mem.summary()["epochs"]] == [0, 1, 2]

    def test_counter_events_flow_to_tracer(self, monkeypatch):
        monkeypatch.setattr(memory_mod, "COUNTER_EVERY", 1)
        tracer = Tracer()
        with track_memory(tracer=tracer):
            Tensor(np.zeros(8))
        counters = [e for e in tracer.events if e["kind"] == "counter"]
        assert counters and counters[0]["name"] == "memory"
        assert counters[-1]["attrs"]["peak_bytes"] > 0
        assert any(e["name"] == "memory_summary" for e in tracer.events)

    def test_nested_trackers_both_record(self):
        with track_memory() as outer:
            Tensor(np.zeros(8))
            with track_memory() as inner:
                # Same-instance re-entry still raises.
                with pytest.raises(RuntimeError, match="already observing"):
                    inner.start()
                ops.matmul(Tensor(np.ones((4, 4))), Tensor(np.ones((4, 4))))
            assert tensor_mod._observers == [outer]
            Tensor(np.zeros(8))
        assert inner.summary()["by_op"] == {
            "leaf": {"count": 2, "bytes": 256},
            "matmul": {"count": 1, "bytes": 128},
        }
        assert outer.summary()["by_op"] == {
            "leaf": {"count": 4, "bytes": 384},
            "matmul": {"count": 1, "bytes": 128},
        }

    def test_tensor_construction_restored_after_stop(self):
        # The tracker observes through autograd's observer list: it is
        # registered while active, and Tensor construction is never replaced.
        original_init, original_make = Tensor.__init__, Tensor._make
        with track_memory() as mem:
            assert tensor_mod._observers == [mem]
            assert Tensor.__init__ is original_init
            assert Tensor._make is original_make
        assert tensor_mod._observers == []
        assert Tensor.__init__ is original_init
        assert Tensor._make is original_make

    def test_exception_leaves_no_observer(self):
        with pytest.raises(ValueError, match="boom"):
            with track_memory() as mem:
                Tensor(np.zeros(8))
                raise ValueError("boom")
        assert tensor_mod._observers == []
        n_allocs = mem.summary()["n_allocs"]
        ops.add(Tensor(np.zeros(8)), Tensor(np.zeros(8)))
        assert mem.summary()["n_allocs"] == n_allocs == 1


# ----------------------------------------------------------------------
# Memory-growth health anomaly
# ----------------------------------------------------------------------
class TestMemoryGrowthAnomaly:
    def test_monotonic_growth_trips_once(self):
        monitor = HealthMonitor()
        base = 1_000_000
        monitor.observe_memory(0, base)
        for epoch in range(1, 4):  # +10% per epoch, 3 growing boundaries
            monitor.observe_memory(epoch, int(base * 1.1**epoch))
        kinds = [a["kind"] for a in monitor.anomalies]
        assert kinds == ["memory_growth"]
        anomaly = monitor.anomalies[0]
        assert anomaly["consecutive_epochs"] == 3
        # Continued growth does not re-report.
        monitor.observe_memory(4, int(base * 1.1**4))
        assert len(monitor.anomalies) == 1

    def test_flat_footprint_resets_streak(self):
        monitor = HealthMonitor()
        monitor.observe_memory(0, 1_000_000)
        monitor.observe_memory(1, 1_100_000)
        monitor.observe_memory(2, 1_210_000)
        monitor.observe_memory(3, 1_210_000)  # steady state: streak resets
        monitor.observe_memory(4, 1_331_000)
        monitor.observe_memory(5, 1_464_000)
        assert monitor.anomalies == []

    def test_jitter_below_threshold_is_ignored(self, monkeypatch):
        monkeypatch.setattr(health, "MEM_GROWTH_EPOCHS", 2)
        monitor = HealthMonitor()
        live = 10_000_000
        for epoch in range(6):  # +0.5% per epoch < 1% threshold
            monitor.observe_memory(epoch, live)
            live = int(live * 1.005)
        assert monitor.anomalies == []


# ----------------------------------------------------------------------
# Profiler accounting over the eager epoch loop + epoch anatomy
# ----------------------------------------------------------------------
def _trainer(dataset, tracer=None, dim=8, depth=1, kg_sample_size=2, **overrides):
    cfg = CGKGRConfig(dim=dim, depth=depth, n_heads=2, kg_sample_size=kg_sample_size)
    model = CGKGR(dataset, cfg, seed=0)
    kwargs = dict(
        epochs=2, eval_task="topk", eval_metric="recall@10",
        eval_k=10, eval_max_users=5, tracer=tracer,
    )
    kwargs.update(overrides)
    return Trainer(model, TrainerConfig(**kwargs))


class TestEpochAccounting:
    def test_profiler_accounts_90pct_of_epoch_wall(self, tiny_dataset):
        # Big enough that per-op compute dominates the fixed per-epoch loop
        # overhead — the regime the >=90% accounting contract is about.
        trainer = _trainer(tiny_dataset, dim=32, depth=2, kg_sample_size=4)
        with profile() as prof:
            # Pull the loop's non-op phases into the accounting the way
            # `repro profile` does for the optimizer step.
            prof.patch(trainer.model, "begin_epoch", "epoch.begin")
            prof.patch(trainer_mod, "sample_training_negatives", "epoch.negatives")
            prof.patch(trainer.optimizer, "step", "optimizer.step")
            prof.patch(trainer.optimizer, "flush", "optimizer.flush")
            sampler = trainer.model.sampler
            for method in ("user_neighborhood", "item_neighborhood", "kg_node_flow"):
                if hasattr(sampler, method):
                    prof.patch(sampler, method, f"sampler.{method}")
            for epoch in range(5):
                trainer.train_epoch(epoch)
        report = prof.report()
        assert report.wall_s > 0
        assert report.accounted_fraction >= 0.9
        # Sanity: both op time and loop sections contributed.
        assert report.rows and report.rows[0]["total_s"] > 0
        assert {s["name"] for s in report.sections} >= {
            "epoch.begin", "epoch.negatives", "optimizer.step",
        }

    def test_epoch_anatomy_accounts_wall_and_allocation(self, tiny_dataset):
        tracer = Tracer()
        trainer = _trainer(tiny_dataset, tracer=tracer, track_memory=True)
        trainer.fit()
        report = epoch_anatomy(tracer.events)
        assert report.epochs == 2
        assert report.epoch_wall_s > 0
        # Acceptance bar: the ranked phases explain >=90% of epoch wall
        # time and of peak allocation attribution.
        assert report.wall_accounted_fraction >= 0.9
        assert report.alloc_accounted_fraction >= 0.9
        assert report.memory["peak_bytes"] > 0
        # Eval runs in its own span *outside* the epoch bracket (Table VI
        # methodology), so only in-epoch phases appear in the ranking.
        names = {row["name"] for row in report.rows}
        assert names >= {"epoch.prepare", "forward", "backward", "optimizer.step"}
        assert "eval" not in names
        payload = report.to_json()
        json.dumps(payload)
        text = report.render()
        assert "wall accounted" in text and "forward" in text

    def test_anatomy_needs_epoch_spans(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        # A `repro serve --trace` file holds request spans, not epochs.
        path = tmp_path / "serve.jsonl"
        tracer = Tracer(path=str(path))
        with tracer.span("http.request", method="GET", path="/recommend"):
            tracer.complete("cache.lookup", dur=0.001)
        tracer.close()
        report = epoch_anatomy(tracer.events)
        assert (report.epochs, report.epoch_wall_s, report.rows) == (0, 0.0, [])
        assert cli_main(["obs", "anatomy", str(path)]) == 1
        assert f"error: no epoch spans in {path}" in capsys.readouterr().err

    def test_untraced_epoch_times_no_phases(self, tiny_dataset, monkeypatch):
        def fail(*args):
            raise AssertionError("untraced epoch timed a phase")

        monkeypatch.setattr(Trainer, "_phase", fail)
        _trainer(tiny_dataset).train_epoch(1)

    def test_run_record_and_timeline_from_tracked_fit(self, tiny_dataset, tmp_path):
        from repro.obs.runs import RunStore

        tracer = Tracer()
        trainer = _trainer(
            tiny_dataset, tracer=tracer, track_memory=True,
            run_store=RunStore(str(tmp_path / "runs")),
        )
        trainer.fit()
        record = trainer.last_run_record
        assert record is not None
        assert record.metrics["peak_mem_bytes"] > 0
        assert record.memory["peak_bytes"] > 0
        trace = write_timeline(tracer.events, tmp_path / "trace.json")
        assert validate_timeline(trace) == []
        counters = [r for r in trace["traceEvents"] if r["ph"] == "C"]
        assert counters, "memory counter track missing from timeline"
