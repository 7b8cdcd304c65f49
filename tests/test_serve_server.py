"""HTTP serving smoke tests, including the CLI offline→online lifecycle:
``repro export`` writes a checkpoint, the server boots from it on an
ephemeral port, and the JSON endpoints answer.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cli import main
from repro.serve import (
    MetricsRegistry,
    RecommendationServer,
    ServingEngine,
    TopKIndex,
    engine_from_checkpoint,
)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


@pytest.fixture(scope="module")
def served_checkpoint(tmp_path_factory):
    """Run `repro export` on a 2-epoch music model, boot the server."""
    ckpt = str(tmp_path_factory.mktemp("serve") / "ckpt")
    code = main(
        ["export", "--dataset", "music", "--scale", "0.3", "--model", "cg-kgr",
         "--epochs", "2", "--eval-users", "5", "--out", ckpt]
    )
    assert code == 0
    engine = engine_from_checkpoint(ckpt)
    server = RecommendationServer(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.port}", engine
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestServerEndpoints:
    def test_healthz(self, served_checkpoint):
        base, engine = served_checkpoint
        status, payload = _get(base + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"] == "CG-KGR"
        assert payload["indexed_users"] == engine.index.n_indexed_users

    def test_huge_k_answer_is_strict_json(self, served_checkpoint):
        """Masked items are cut off the answer, so no ``-Infinity`` reaches
        the body."""
        base, engine = served_checkpoint

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        url = base + "/recommend?user=0&k=100000"
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.loads(response.read(), parse_constant=refuse)
        unmasked = engine.index.n_items - len(engine.index.mask_table[0])
        assert len(payload["items"]) == len(set(payload["items"])) == unmasked
        assert not set(payload["items"]) & set(engine.index.mask_table[0].tolist())

    def test_healthz_operational_fields(self, served_checkpoint):
        base, engine = served_checkpoint
        _, payload = _get(base + "/healthz")
        assert payload["uptime_s"] > 0
        assert payload["requests_total"] >= 1
        expected_kind = "ivf" if engine.index.mode == "ann" else "exact"
        assert payload["index_kind"] == expected_kind
        # Per-SLO status (defaults applied when --slo is not passed).
        names = {entry["name"] for entry in payload["slo"]}
        assert names == {"latency_p99", "availability"}
        for entry in payload["slo"]:
            assert {"target", "attained", "met", "budget_consumed"} <= set(entry)

    def test_recommend_get(self, served_checkpoint):
        base, engine = served_checkpoint
        status, payload = _get(base + "/recommend?user=1&k=5")
        assert status == 200
        assert payload["user"] == 1
        assert len(payload["items"]) == 5
        assert payload["scores"] == sorted(payload["scores"], reverse=True)
        expected, _ = engine.recommend(1, 5)
        assert payload["items"] == expected.tolist()

    def test_recommend_post_batch(self, served_checkpoint):
        base, _ = served_checkpoint
        status, payload = _post(base + "/recommend", {"users": [0, 2], "k": 3})
        assert status == 200
        assert [r["user"] for r in payload["results"]] == [0, 2]
        assert all(len(r["items"]) == 3 for r in payload["results"])

    def test_score(self, served_checkpoint):
        base, engine = served_checkpoint
        status, payload = _post(base + "/score", {"user": 1, "items": [0, 1, 2]})
        assert status == 200
        expected = engine.score(1, np.array([0, 1, 2]))
        np.testing.assert_allclose(payload["scores"], expected, atol=1e-7)

    def test_metrics_exposition(self, served_checkpoint):
        base, _ = served_checkpoint
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            text = response.read().decode()
        assert "repro_serve_http_requests" in text
        assert "repro_serve_cache_hit_rate" in text
        assert "http_request_latency_seconds" in text

    def test_metrics_exposition_is_lint_clean(self, served_checkpoint):
        from repro.obs.serving import lint_prometheus

        base, _ = served_checkpoint
        _get(base + "/recommend?user=1&k=5")  # ensure latency summaries exist
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            text = response.read().decode()
        assert lint_prometheus(text) == []
        assert "# HELP repro_serve_http_requests" in text
        assert "repro_serve_window_qps" in text
        assert "repro_serve_slo_latency_p99_budget_consumed" in text
        assert "repro_serve_uptime_seconds" in text

    def test_unknown_route_404(self, served_checkpoint):
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        assert excinfo.value.code == 404

    def test_unknown_user_404(self, served_checkpoint):
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/recommend?user=99999")
        assert excinfo.value.code == 404

    def test_malformed_request_400(self, served_checkpoint):
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/recommend", {"k": 3})  # no user(s)
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/recommend")  # missing query parameter
        assert excinfo.value.code == 400


    # A small cache and the engine's default one (None) both stay empty.
    @pytest.mark.parametrize("cache_size", [8, None])
    def test_non_positive_k_is_400_and_not_cached(
        self, served_checkpoint, cache_size
    ):
        _, shared = served_checkpoint
        # Users 0 and 1 are indexed; user 3 is cold (model fallback).
        sizing = {} if cache_size is None else {"cache_size": cache_size}
        engine = ServingEngine(
            TopKIndex.build(shared.model, users=[0, 1]), model=shared.model, **sizing
        )
        server = RecommendationServer(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        try:
            for user in (0, 3):
                for k in (0, -3):
                    for call in (
                        lambda: _get(base + f"/recommend?user={user}&k={k}"),
                        lambda: _post(base + "/recommend", {"user": user, "k": k}),
                        lambda: _post(base + "/recommend", {"users": [user], "k": k}),
                    ):
                        with pytest.raises(urllib.error.HTTPError) as excinfo:
                            call()
                        body = json.loads(excinfo.value.read())
                        assert excinfo.value.code == 400
                        assert body["status"] == 400 and body["request_id"]
                        assert "k must be >= 1" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert engine.cache_info()["size"] == 0
        assert engine.metrics.get("fallback_users") == 0

    def test_concurrent_burst_matches_sequential(self, served_checkpoint):
        """Eight threads at once: GETs for indexed and cold users batch
        through the micro-batcher while ``POST /score`` runs the model on
        handler threads, and every answer equals the sequential one."""
        _, shared = served_checkpoint
        # Users 0-2 are indexed; users 3-9 are cold (model fallback).
        engine = ServingEngine(
            TopKIndex.build(shared.model, users=[0, 1, 2]),
            model=shared.model,
            cache_size=0,
        )
        server = RecommendationServer(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        calls = [("/recommend", user) for user in range(10)]
        calls += [("/score", user) for user in (0, 5)]

        def answer(call):
            path, user = call
            if path == "/score":
                _, body = _post(base + path, {"user": user, "items": [0, 1, 2, 3]})
            else:
                _, body = _get(base + f"{path}?user={user}&k=5")
            return body["items"], body["scores"]

        try:
            sequential = [answer(call) for call in calls]
            barrier = threading.Barrier(8)

            def burst(offset):
                barrier.wait(timeout=10)
                order = calls[offset:] + calls[:offset]
                return {call: answer(call) for call in order}

            with ThreadPoolExecutor(max_workers=8) as pool:
                bursts = list(pool.map(burst, range(8)))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        for answers in bursts:
            for call, (items, scores) in zip(calls, sequential):
                assert answers[call][0] == items, call
                np.testing.assert_allclose(answers[call][1], scores, rtol=1e-5)
        assert engine.metrics.get("microbatch_flushes") > 0

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_bad_content_length_is_400(self, served_checkpoint, length):
        base, _ = served_checkpoint
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
            sock.sendall(
                b"POST /recommend HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\nContent-Length: "
                + length
                + b"\r\n\r\n"
            )
            reply = b""
            while True:
                chunk = sock.recv(4096)  # socket.timeout fails the test
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        payload = json.loads(body)
        assert payload["status"] == 400 and payload["request_id"]
        assert "Content-Length" in payload["error"]


    @pytest.mark.parametrize("offset", [-1, 5])
    def test_score_unknown_user_is_404(self, served_checkpoint, offset):
        """A negative id must not wrap to the last user, nor an id past the
        end surface as a 500."""
        base, engine = served_checkpoint
        user = offset if offset < 0 else engine.index.n_users + offset
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/score", {"user": user, "items": [0, 1]})
        body = json.loads(excinfo.value.read())
        assert excinfo.value.code == 404
        assert body["status"] == 404 and body["request_id"]
        assert f"unknown user id {user}" in body["error"]

    @pytest.mark.parametrize("item", [10**30, -(10**30), 2**63])
    def test_score_item_beyond_int64_is_404(self, served_checkpoint, item):
        """An item id no int64 holds is out of range like any other,
        not a 500 from the int64 conversion."""
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/score", {"user": 1, "items": [0, item]})
        body = json.loads(excinfo.value.read())
        assert excinfo.value.code == 404
        assert body["status"] == 404 and body["request_id"]
        assert body["error"] == "item id out of range"

    @pytest.mark.parametrize("items", [5, [[0, 1]], "01"])
    def test_score_non_list_items_is_400(self, served_checkpoint, items):
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/score", {"user": 1, "items": items})
        body = json.loads(excinfo.value.read())
        assert excinfo.value.code == 400
        assert body["status"] == 400 and body["request_id"]
        assert "items" in body["error"]

    @pytest.mark.parametrize(
        "path, body, field",
        [
            ("/recommend", {"users": 5}, "users"),
            ("/recommend", {"users": [[1]]}, "users"),
            ("/score", {"user": [1], "items": [0]}, "user"),
            ("/recommend", {"user": 1, "k": [5]}, "k"),
            ("/recommend", {"user": True}, "user"),
        ],
    )
    def test_wrongly_typed_field_is_400(self, served_checkpoint, path, body, field):
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + path, body)
        payload = json.loads(excinfo.value.read())
        assert excinfo.value.code == 400
        assert payload["status"] == 400 and payload["request_id"]
        assert f"'{field}'" in payload["error"]


class TestRequestTracing:
    def test_request_id_minted_and_echoed(self, served_checkpoint):
        base, _ = served_checkpoint
        with urllib.request.urlopen(base + "/recommend?user=1&k=3") as response:
            payload = json.loads(response.read())
            header_id = response.headers.get("X-Request-Id")
        assert payload["request_id"]
        assert payload["request_id"] == header_id

    def test_incoming_request_id_adopted(self, served_checkpoint):
        base, _ = served_checkpoint
        request = urllib.request.Request(
            base + "/recommend?user=1&k=3",
            headers={"X-Request-Id": "trace-me-123"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["request_id"] == "trace-me-123"

    def test_error_payload_carries_request_id_and_status(self, served_checkpoint):
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/recommend")  # missing user → 400
        body = json.loads(excinfo.value.read())
        assert body["status"] == 400
        assert body["request_id"]
        assert "user" in body["error"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        body = json.loads(excinfo.value.read())
        assert body["status"] == 404
        assert body["request_id"]

    def test_debug_slow_returns_span_trees(self, served_checkpoint):
        # Its own server over the module's engine: traces left by earlier
        # tests (e.g. a 404 /recommend) cannot rank among the slowest.
        _, engine = served_checkpoint
        server = RecommendationServer(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            own_ids = {
                _get(base + f"/recommend?user={user}&k=3")[1]["request_id"]
                for user in (0, 1, 2)
            }
            # The response is written before the server files the trace,
            # so poll until all three requests are in the store.
            deadline = time.monotonic() + 5.0
            while True:
                status, payload = _get(base + "/debug/slow")
                seen = {t["request_id"] for t in payload["slowest"]}
                if own_ids <= seen or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert status == 200
        assert payload["count"] >= 3
        assert payload["count"] == len(payload["slowest"])
        durations = [t["dur_ms"] for t in payload["slowest"]]
        assert durations == sorted(durations, reverse=True)
        # At least one retained trace is one of this test's /recommend
        # requests, with nested spans.
        recommends = [
            t for t in payload["slowest"]
            if t["path"] == "/recommend" and t["spans"]
            and t["request_id"] in own_ids
        ]
        assert recommends
        trace = recommends[0]
        assert trace["request_id"] and trace["status"] == 200
        names = {s["name"] for s in trace["spans"]}
        assert "batch.wait" in names or "cache.lookup" in names

        def walk(spans):
            for span in spans:
                yield span
                yield from walk(span["children"])

        all_names = {s["name"] for s in walk(trace["spans"])}
        # The engine layers recorded into the request's own trace.
        assert {"cache.lookup"} & all_names or {"engine.microbatch"} & all_names

    def test_trace_records_request_stages(self, served_checkpoint):
        """With a tracer, each request's stage spans reach the trace on
        the handler and batcher lanes, tagged with its request_id."""
        from repro.obs import Tracer, build_timeline, validate_timeline

        _, shared = served_checkpoint
        # A fresh cache, so every request takes the index.query path.
        engine = ServingEngine(shared.index, model=shared.model)
        tracer = Tracer()
        server = RecommendationServer(engine, port=0, tracer=tracer)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            own_ids = {
                _get(base + f"/recommend?user={user}&k=3")[1]["request_id"]
                for user in (0, 1, 2)
            }

            def finished():
                return sum(
                    e["kind"] == "span_end" and e["name"] == "http.request"
                    for e in list(tracer.events)
                )

            deadline = time.monotonic() + 5.0
            while finished() < 3 and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        trace = build_timeline(tracer.events)
        assert validate_timeline(trace) == []
        stages = {
            "http.request", "batch.wait", "engine.microbatch",
            "cache.lookup", "index.query",
        }
        begins = [e for e in trace["traceEvents"] if e["ph"] == "B"]
        for request_id in own_ids:
            names = {
                e["name"] for e in begins
                if e["args"].get("request_id") == request_id
            }
            assert stages <= names, (request_id, names)


class TestSLOEndToEnd:
    def test_impossible_slo_violates_and_burns(self, served_checkpoint, tmp_path):
        """A server with an unmeetable SLO emits a slo_violation event,
        and exports a nonzero burn rate on /metrics."""
        from repro.obs.events import Tracer

        _, engine = served_checkpoint
        trace_path = str(tmp_path / "serve.jsonl")
        tracer = Tracer(path=trace_path)
        server = RecommendationServer(
            engine,
            port=0,
            tracer=tracer,
            slo_specs=("p99<0.001ms",),  # 1 µs: every request violates
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            for user in (0, 1, 2):
                _get(base + f"/recommend?user={user}&k=3")
            with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
                text = response.read().decode()
            series = dict(
                line.rsplit(" ", 1)
                for line in text.splitlines()
                if line and not line.startswith("#")
            )
            assert float(series["repro_serve_slo_violations"]) >= 1
            burn_rates = [
                float(value)
                for name, value in series.items()
                if name.startswith("repro_serve_slo_") and "_burn_rate_" in name
            ]
            assert burn_rates and max(burn_rates) > 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            tracer.close()
        events = [json.loads(line) for line in open(trace_path)]
        violations = [
            e for e in events
            if e.get("kind") == "event" and e.get("name") == "slo_violation"
        ]
        assert violations
        assert violations[0]["attrs"]["slo_name"] == "latency_p99"
        exemplars = [e for e in events if e.get("name") == "slo_violation_exemplars"]
        assert exemplars and exemplars[0]["attrs"]["slowest"]


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("requests", 3)
        for value in (0.010, 0.020, 0.030):
            metrics.observe("recommend_latency_seconds", value)
        snap = metrics.snapshot()
        assert snap["counters"]["requests"] == 3
        hist = snap["histograms"]["recommend_latency_seconds"]
        assert hist["count"] == 3
        assert hist["p50"] == pytest.approx(0.020)
        text = metrics.render()
        assert "repro_serve_requests 3" in text
        assert 'quantile="0.5"' in text

    def test_hit_rate_derivation(self):
        metrics = MetricsRegistry()
        metrics.inc("cache_hits", 3)
        metrics.inc("cache_misses", 1)
        assert metrics.snapshot()["cache_hit_rate"] == 0.75

    def test_histogram_window_bounds_memory(self):
        from repro.obs.metrics import SlidingWindowStats

        hist = SlidingWindowStats(capacity=10)
        for value in range(100):
            hist.observe(float(value))
        assert hist.total_count == 100
        # Percentiles reflect only the retained window (90..99).
        assert hist.snapshot().percentile(0) >= 90.0

    def test_negative_latency_rejected(self):
        from repro.obs.metrics import SlidingWindowStats

        with pytest.raises(ValueError):
            SlidingWindowStats(capacity=4096).observe(-1.0)


def test_serve_trace_keeps_no_events_in_memory(
    served_checkpoint, tmp_path, monkeypatch
):
    """`repro serve --trace` writes the JSONL without keeping every event
    in memory for the life of the server."""
    from types import SimpleNamespace

    import repro.serve

    _, engine = served_checkpoint
    captured = {}

    def fake_server(engine, tracer=None, **kwargs):
        captured["tracer"] = tracer

        def serve_forever():
            with tracer.span("http.request", path="/recommend"):
                pass

        return SimpleNamespace(
            port=0,
            slo=SimpleNamespace(specs=[]),
            serve_forever=serve_forever,
            server_close=lambda: None,
        )

    monkeypatch.setattr(repro.serve, "RecommendationServer", fake_server)
    monkeypatch.setattr(
        repro.serve, "engine_from_checkpoint", lambda *args, **kwargs: engine
    )
    monkeypatch.setattr(
        repro.serve, "read_manifest", lambda path: {"model_name": "CG-KGR"}
    )
    path = tmp_path / "serve.jsonl"
    code = main(
        ["serve", "--checkpoint", str(tmp_path), "--port", "0",
         "--trace", str(path)]
    )
    assert code == 0
    assert captured["tracer"].events == []
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["kind"], r["name"]) for r in records] == [
        ("span_start", "http.request"),
        ("span_end", "http.request"),
    ]


def test_serve_cli_parser_wiring():
    from repro.cli import build_parser
    from repro.obs.serving import SLOSpec

    args = build_parser().parse_args(
        ["serve", "--checkpoint", "/tmp/x", "--port", "0", "--index-users", "5",
         "--slo", "p99<10ms", "--slo", "availability>=99%", "--slow-log", "8"]
    )
    assert args.checkpoint == "/tmp/x"
    assert args.port == 0
    assert args.index_users == 5
    assert args.slo == [SLOSpec.parse("p99<10ms"), SLOSpec.parse("availability>=99%")]
    assert args.slow_log == 8


def test_obs_cli_parser_wiring():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["obs", "timeline", "t.jsonl", "-o", "t.json"])
    assert (args.trace, args.out, args.no_check) == ("t.jsonl", "t.json", False)
    args = parser.parse_args(["obs", "anatomy", "t.jsonl", "--json", "a.json"])
    assert (args.trace, args.json) == ("t.jsonl", "a.json")
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["obs", "top", "--url", "http://h:1"])
    assert exc.value.code == 2
