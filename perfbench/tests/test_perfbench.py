"""Tests of the benchmark itself (not of the program it measures).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root; they start no program process and take about a second.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
from common import NotEnoughSamples, percentile, samples_beyond  # noqa: E402
from tracer import SpanRecorder, self_times  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


# ----------------------------------------------------------------------
# Percentiles are emitted only with 10 samples beyond them
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q,n_ok", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, n_ok):
    assert samples_beyond(n_ok, q) == 10
    assert percentile(list(range(n_ok)), q) > 0
    with pytest.raises(NotEnoughSamples):
        percentile(list(range(n_ok - 1)), q)


def test_percentile_interpolates():
    assert percentile([float(i) for i in range(1001)], 99) == pytest.approx(990.0)


def test_tail_lines_skip_unsupported_percentiles():
    lines = run.tails([0.001] * 500)
    assert any(line.startswith("p90 over 500") for line in lines)
    assert not any(line.startswith("p99") for line in lines)
    assert any(line.startswith("p99 over 1000") for line in run.tails([0.001] * 1000))


# ----------------------------------------------------------------------
# Wrong or failed answers raise error_rate
# ----------------------------------------------------------------------
REFS = {
    "n_users": 2,
    "n_items": 6,
    "k": 2,
    "items": [[3, 1], [0, 5]],
    "scores": [[0.9, 0.5], [0.7, 0.2]],
    "masked": [[2], [4]],
}


def answer(user, items, scores):
    return json.dumps({"user": user, "k": 2, "items": items, "scores": scores}).encode()


def sample(user, status, body):
    return loadgen.Sample(f"/recommend?user={user}&k=2", 0.0, 0.0, 0.001, status, body)


def driven(samples, batch=()):
    phase = loadgen.PhaseResult(samples=list(samples))
    return {"phases": {"open": phase}, "batch": list(batch), "batch_users": [0, 1]}


def test_correct_answers_pass(monkeypatch):
    monkeypatch.setattr(run, "K", 2)
    good = [sample(0, 200, answer(0, [3, 1], [0.9, 0.5])),
            sample(1, 200, answer(1, [0, 5], [0.7, 0.2 + 4e-9]))]
    assert run.verify(driven(good), REFS) == (2, 0, [])


@pytest.mark.parametrize("bad", [
    sample(0, 200, answer(0, [1, 3], [0.5, 0.9])),      # wrong order
    sample(0, 200, answer(0, [3, 2], [0.9, 0.5])),      # masked item
    sample(0, 200, answer(0, [3, 3], [0.9, 0.9])),      # duplicate item
    sample(0, 200, answer(0, [3], [0.9])),              # too few items
    sample(0, 200, answer(0, [3, 1], [0.9, 0.6])),      # wrong score
    sample(0, 200, answer(1, [0, 5], [0.7, 0.2])),      # another user's answer
    sample(0, 500, b'{"error": "boom"}'),               # server error
    sample(0, 0, b""),                                  # refused / timed out
])
def test_wrong_or_failed_answer_counts_as_failed(monkeypatch, bad):
    monkeypatch.setattr(run, "K", 2)
    good = sample(1, 200, answer(1, [0, 5], [0.7, 0.2]))
    attempted, failed, problems = run.verify(driven([good, bad]), REFS)
    assert (attempted, failed) == (2, 1)
    assert problems


def test_wrong_batch_answer_counts_as_failed(monkeypatch):
    monkeypatch.setattr(run, "K", 2)
    results = [{"user": 0, "items": [3, 1], "scores": [0.9, 0.5]},
               {"user": 1, "items": [5, 0], "scores": [0.2, 0.7]}]
    body = json.dumps({"k": 2, "results": results}).encode()
    assert run.verify(driven([], batch=[(200, body, 0.01)]), REFS)[:2] == (1, 1)


def test_failed_operations_make_the_result_incorrect():
    report = {"host": {}, "phases": {}, "attempted": 10, "failed": 1, "problems": ["x"],
              "tails": [], "metrics": {name: 1.0 for name in run.END_TO_END}}
    result = json.loads(run.render(report, trace=False)[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert any(line.startswith("error_rate: 0.100000") for line in run.render(report, False))


def test_training_checks():
    assert checks.check_training([0.7, 0.6], 0.4) == []
    assert checks.check_training([0.7, float("nan")], 0.4)
    assert checks.check_training([0.7, 0.6], 0.05)
    assert checks.check_training([0.7, 0.6], None)


# ----------------------------------------------------------------------
# Every metric prints with its name and unit
# ----------------------------------------------------------------------
def spec():
    with open(BENCHMARK) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_metric_tables():
    bench = spec()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_name_and_unit(trace):
    names = layers.LAYER_METRICS if trace else run.END_TO_END
    report = {"host": {"nproc": 2}, "phases": {"open": {"sent": 3}}, "attempted": 3,
              "failed": 0, "problems": [], "tails": ["p50 over 3 samples: 1 ms"],
              "metrics": {n: 1.5 for n in run.END_TO_END},
              "layers": {n: 2.5 for n in layers.LAYER_METRICS}}
    lines = run.render(report, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(names)
    for name, unit in names.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines)


# ----------------------------------------------------------------------
# A different seed changes the inputs, not the metric set
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["serve-hot", "serve-cold"])
def test_seed_changes_inputs_not_metric_set(workload):
    wl = run.WORKLOADS[workload]
    a, a2 = run.make_inputs(wl, 1, 140, 15), run.make_inputs(wl, 1, 140, 15)
    b = run.make_inputs(wl, 2, 140, 15)
    assert a == a2
    assert a["open"] != b["open"] and a["offsets"] != b["offsets"]
    assert set(a) == set(b) and len(a["open"]) == len(b["open"]) == int(wl["rate"] * 15)
    assert all(0 <= u < 140 for u in a["open"] + a["closed"] + a["batch"])


def test_zipf_hot_set_is_fixed_within_a_run():
    inputs = run.make_inputs(run.WORKLOADS["serve-hot"], 5, 140, 15)
    top = max(set(inputs["open"]), key=inputs["open"].count)
    assert max(set(inputs["closed"]), key=inputs["closed"].count) == top
    assert 0.05 < inputs["open"].count(top) / len(inputs["open"]) < 0.5


# ----------------------------------------------------------------------
# Tracing: self time and span stacks
# ----------------------------------------------------------------------
def test_self_time_subtracts_child_coverage():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    outer = rec.begin("outer")
    first = rec.begin("child")
    rec.end(first)
    second = rec.begin("child")
    rec.end(second)
    rec.end(outer)
    assert [s[3] for s in rec.spans] == [None, outer, outer]
    assert self_times(rec.spans) == [10.0 - 2.0 - 1.0, 2.0, 1.0]


def test_wrap_records_calls_and_counts():
    class Thing:
        def work(self, x):
            return x + 1

        @classmethod
        def make(cls):
            return cls()

    rec = SpanRecorder()
    rec.wrap(Thing, "work", "layer.work", on_result=lambda idx, out: rec.spans[idx][5].update(out=out))
    rec.wrap(Thing, "make", "layer.make")
    assert Thing.make().work(1) == 2
    assert [s[0] for s in rec.spans] == ["layer.make", "layer.work"]
    assert rec.spans[1][5] == {"out": 2}


def test_block_rate_is_a_median_of_blocks():
    phase = loadgen.PhaseResult(samples=[
        loadgen.Sample("/", 0.0, 0.0, 0.01 * i, 200, b"") for i in range(100)
    ])
    assert run.block_rate(phase, 25) == pytest.approx(100.0)
