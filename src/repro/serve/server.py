"""Stdlib HTTP frontend for the serving engine.

JSON API over :class:`http.server.ThreadingHTTPServer` (one thread per
connection, no third-party dependency):

* ``GET  /healthz`` — liveness, uptime, request totals, model/index
  summary, and per-SLO status;
* ``GET  /recommend?user=3&k=10`` — top-K for one user;
* ``POST /recommend`` — ``{"user": 3, "k": 10}`` or
  ``{"users": [3, 5], "k": 10}`` for a batch;
* ``POST /score`` — ``{"user": 3, "items": [1, 2, 5]}`` raw scores;
* ``GET  /metrics`` — Prometheus text exposition (request counters,
  cache hit rate, sliding-window QPS/p50/p99, SLO burn-rate gauges);
* ``GET  /debug/slow`` — full span trees of the slowest requests.

Every request is minted a ``request_id`` at the edge (or adopts an
incoming ``X-Request-Id`` header) and the id is echoed in the response
header and every JSON body — including 4xx/5xx error payloads, which
carry ``{"error", "status", "request_id"}`` so a failing request is
correlatable from the client side.  The id rides a
:class:`~repro.obs.serving.RequestContext` through engine, cache, and
index scoring, collecting the spans that ``/debug/slow`` exposes and,
with a ``tracer``, the trace file records.

Unknown users return 404 (unless the engine can fall back to the model),
malformed requests 400, unexpected errors 500 — the process never dies
on a bad request.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.obs.events import NULL_TRACER
from repro.obs.metrics import MetricsRegistry
from repro.obs.serving import (
    RequestContext,
    SLOMonitor,
    SlowRequestStore,
    use_request,
)
from repro.serve.engine import MicroBatcher, ServingEngine

#: Objectives a server enforces when the operator passes none explicitly
#: (``repro serve --slo ...`` overrides; see docs/observability.md).
DEFAULT_SLOS = ("p99<25ms", "availability>=99.9%")

_METRIC_HELP = {
    "http_requests": "Total HTTP requests received.",
    "http_400": "Requests rejected as malformed (bad input).",
    "http_404": "Requests for unknown routes, users, or items.",
    "http_500": "Requests that hit an unexpected server error.",
    "slo_violations": "Met-to-violated SLO transitions observed.",
    "window_qps": "Requests per second over the sliding window.",
    "window_p50_ms": "Sliding-window median request latency (ms).",
    "window_p95_ms": "Sliding-window p95 request latency (ms).",
    "window_p99_ms": "Sliding-window p99 request latency (ms).",
    "window_error_rate": "5xx fraction over the sliding window.",
    "uptime_seconds": "Seconds since the server started.",
}


class RecommendationServer(ThreadingHTTPServer):
    """HTTP server owning an engine, its metrics, SLOs, and a batcher."""

    daemon_threads = True

    def __init__(
        self,
        address,
        engine: ServingEngine,
        batcher: Optional[MicroBatcher] = None,
        quiet: bool = True,
        tracer=None,
        slo_specs: Optional[Sequence] = None,
        slow_capacity: int = 16,
    ):
        self.engine = engine
        self.metrics = engine.metrics
        self.batcher = batcher
        self.quiet = quiet
        #: ``repro.obs.Tracer`` receiving each request's ``http.request``
        #: span and its stage spans; defaults to the no-op tracer.
        self.tracer = tracer or NULL_TRACER
        self.started_wall = time.time()
        self.started_mono = time.monotonic()
        #: N slowest request traces, dumped at GET /debug/slow.
        self.slow_store = SlowRequestStore(capacity=slow_capacity)
        self.slo = SLOMonitor(
            DEFAULT_SLOS if slo_specs is None else slo_specs,
            metrics=self.metrics,
            tracer=self.tracer,
            on_violation=self._dump_exemplars,
        )
        for name, text in _METRIC_HELP.items():
            self.metrics.describe(name, text)
        super().__init__(address, _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def uptime_s(self) -> float:
        return time.monotonic() - self.started_mono

    # ------------------------------------------------------------------
    def observe_request(self, ctx: RequestContext) -> None:
        """Fold one finished request into windows, SLOs, and exemplars."""
        self.slo.observe(ctx.duration_s or 0.0, ok=(ctx.status or 500) < 500)
        # Only a request the store would keep pays for building its tree.
        if ctx.duration_ms > self.slow_store.threshold_ms:
            self.slow_store.offer(ctx.to_dict())

    def _dump_exemplars(self, status) -> None:
        """On an SLO violation, attach the slowest traces to the event
        stream so the violation is explainable without a second query."""
        slowest = self.slow_store.snapshot()
        self.tracer.event(
            "slo_violation_exemplars",
            slo=status.spec.name,
            slowest=[
                {
                    "request_id": t.get("request_id"),
                    "path": t.get("path"),
                    "dur_ms": t.get("dur_ms"),
                }
                for t in slowest[:3]
            ],
            worst_trace=slowest[0] if slowest else None,
        )

    def refresh_gauges(self) -> None:
        """Recompute window/SLO gauges (called on each /metrics scrape)."""
        snap = self.slo.snapshot(60.0)
        self.metrics.set_gauge("window_qps", snap.qps)
        self.metrics.set_gauge("window_p50_ms", 1e3 * snap.p50)
        self.metrics.set_gauge("window_p95_ms", 1e3 * snap.p95)
        self.metrics.set_gauge("window_p99_ms", 1e3 * snap.p99)
        self.metrics.set_gauge("window_error_rate", snap.error_rate)
        self.metrics.set_gauge("uptime_seconds", self.uptime_s())
        self.slo.status()  # refreshes the slo_* gauges as a side effect

    def server_close(self) -> None:  # also tear down the batcher thread
        if self.batcher is not None:
            self.batcher.close()
        super().server_close()


def create_server(
    engine: ServingEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    micro_batch: Optional[int] = 64,
    max_wait_ms: float = 2.0,
    quiet: bool = True,
    tracer=None,
    slo_specs: Optional[Sequence] = None,
    slow_capacity: int = 16,
) -> RecommendationServer:
    """Bind a server (``port=0`` picks an ephemeral port).

    ``micro_batch`` enables the request micro-batcher; ``None`` routes
    every request straight to the engine (still thread-safe, just no
    cross-request batching).  ``slo_specs`` takes :class:`SLOSpec`
    objects or parseable strings (``"p99<25ms"``); ``None`` applies
    :data:`DEFAULT_SLOS` and an empty sequence disables SLO tracking.
    """
    batcher = (
        MicroBatcher(engine, max_batch=micro_batch, max_wait_ms=max_wait_ms)
        if micro_batch
        else None
    )
    return RecommendationServer(
        (host, port),
        engine,
        batcher=batcher,
        quiet=quiet,
        tracer=tracer,
        slo_specs=slo_specs,
        slow_capacity=slow_capacity,
    )


def _result(user, items: np.ndarray, scores: np.ndarray) -> dict:
    """The ``{"user", "items", "scores"}`` object every response carries."""
    return {
        "user": int(user),
        "items": items.tolist(),
        "scores": [round(float(s), 8) for s in scores],
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_shape(
    payload: dict, ints: Sequence[str] = (), int_lists: Sequence[str] = ()
) -> None:
    """``ValueError`` (a 400) naming the first field present in ``payload``
    that is not a JSON integer (``ints``) or a flat list of them
    (``int_lists``); a bool is neither."""
    for name in ints:
        if name in payload and not _is_int(payload[name]):
            raise ValueError(f"'{name}' must be an integer")
    for name in int_lists:
        value = payload.get(name, [])
        if not isinstance(value, list) or not all(map(_is_int, value)):
            raise ValueError(f"'{name}' must be a flat list of integers")


class _Handler(BaseHTTPRequestHandler):
    server: RecommendationServer

    # ------------------------------------------------------------------
    def _send_json(self, payload: dict, status: int = 200) -> int:
        ctx = self._ctx
        span = self.server.tracer.current_span()
        if span is not None:
            span.set(status=status)
        body = json.dumps({"request_id": ctx.request_id, **payload}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", ctx.request_id)
        self.end_headers()
        self.wfile.write(body)
        return status

    def _send_error_json(self, status: int, message: str) -> int:
        self._ctx.error = message
        return self._send_json({"error": message, "status": status}, status=status)

    def _send_text(self, text: str, status: int = 200) -> int:
        span = self.server.tracer.current_span()
        if span is not None:
            span.set(status=status)
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self._ctx.request_id)
        self.end_headers()
        self.wfile.write(body)
        return status

    def _read_json(self) -> dict:
        header = self.headers.get("Content-Length", "0")
        if not header.strip().isdecimal():
            raise ValueError(
                f"Content-Length must be a non-negative integer, got {header!r}"
            )
        length = int(header)
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _recommendation(self, user: int, k: int) -> dict:
        if self.server.batcher is not None:
            future = self.server.batcher.submit(user, k, ctx=self._ctx)
            with self._ctx.span("batch.wait"):
                items, scores = future.result(timeout=30)
        else:
            items, scores = self.server.engine.recommend(user, k)
        return {"k": int(k), **_result(user, items, scores)}

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        self._handle("POST")

    def _handle(self, method: str) -> None:
        url = urlparse(self.path)
        server = self.server
        metrics = server.metrics
        metrics.inc("http_requests")
        # The edge mints the request id (or adopts the caller's), and the
        # context rides the thread through engine → cache → index.
        self._ctx = ctx = RequestContext(
            method=method,
            path=url.path,
            request_id=self.headers.get("X-Request-Id"),
            sink=server.tracer,
        )
        span = server.tracer.span(
            "http.request", method=method, path=url.path, request_id=ctx.request_id
        )
        status = 500
        with span, metrics.time("http_request_latency_seconds"), use_request(ctx):
            try:
                status = self._route(method, url)
            except KeyError as exc:
                metrics.inc("http_404")
                status = self._send_error_json(
                    404, str(exc.args[0]) if exc.args else "not found"
                )
            except (ValueError, json.JSONDecodeError) as exc:
                metrics.inc("http_400")
                status = self._send_error_json(400, str(exc))
            except (BrokenPipeError, ConnectionResetError):
                raise  # client went away; nothing sensible to send
            except Exception as exc:  # never die on a request
                metrics.inc("http_500")
                status = self._send_error_json(500, f"internal error: {exc!r}")
        server.observe_request(ctx.finish(status=status))

    def _route(self, method: str, url) -> int:
        if method == "GET":
            return self._route_get(url)
        return self._route_post(url)

    def _route_get(self, url) -> int:
        server = self.server
        if url.path == "/healthz":
            engine = server.engine
            payload = {
                "status": "ok",
                "model": engine.model.name if engine.model else None,
                "uptime_s": round(server.uptime_s(), 3),
                "requests_total": int(server.metrics.get("http_requests")),
                "index_kind": "ivf" if engine.index.mode == "ann" else "exact",
                "index_mode": engine.index.mode,
                "indexed_users": engine.index.n_indexed_users,
                "n_users": engine.index.n_users,
                "n_items": engine.index.n_items,
                "index_bytes": engine.index.memory_bytes(),
                "slo": server.slo.to_dict(),
            }
            stats = getattr(engine.index, "stats", None)
            if stats:
                # Approximate index: expose its build-time recall
                # self-measurement and probe accounting.
                payload["ann"] = dict(stats)
                payload["ann"]["candidate_fraction"] = (
                    engine.index.candidate_fraction()
                )
            return self._send_json(payload)
        if url.path == "/metrics":
            server.refresh_gauges()
            return self._send_text(server.metrics.render())
        if url.path == "/debug/slow":
            slowest = server.slow_store.snapshot()
            return self._send_json(
                {
                    "count": len(slowest),
                    "threshold_ms": server.slow_store.threshold_ms,
                    "slowest": slowest,
                }
            )
        if url.path == "/recommend":
            query = parse_qs(url.query)
            if "user" not in query:
                raise ValueError("missing 'user' query parameter")
            user = int(query["user"][0])
            k = int(query.get("k", ["10"])[0])
            return self._send_json(self._recommendation(user, k))
        self.server.metrics.inc("http_404")
        return self._send_error_json(404, "not found")

    def _route_post(self, url) -> int:
        payload = self._read_json()
        if url.path == "/recommend":
            _check_shape(payload, ints=("user", "k"), int_lists=("users",))
            k = payload.get("k", 10)
            if "users" in payload:
                users = payload["users"]
                results = self.server.engine.recommend_many(users, k)
                return self._send_json(
                    {
                        "k": k,
                        "results": [
                            _result(user, items, scores)
                            for user, (items, scores) in zip(users, results)
                        ],
                    }
                )
            if "user" in payload:
                return self._send_json(self._recommendation(payload["user"], k))
            raise ValueError("body needs 'user' or 'users'")
        if url.path == "/score":
            if "user" not in payload or "items" not in payload:
                raise ValueError("body needs 'user' and 'items'")
            _check_shape(payload, ints=("user",), int_lists=("items",))
            items = np.asarray(payload["items"], dtype=np.int64)
            scores = self.server.engine.score(payload["user"], items)
            return self._send_json(_result(payload["user"], items, scores))
        self.server.metrics.inc("http_404")
        return self._send_error_json(404, "not found")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)
