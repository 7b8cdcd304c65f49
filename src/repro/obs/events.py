"""Structured event log with nested spans.

One :class:`Tracer` per run emits a flat stream of events — point events,
``span_start``/``span_end`` pairs, retrospective ``complete`` intervals
(:meth:`Tracer.complete`, used for per-op profiler slices and trainer
epoch phases), and ``counter`` samples (:meth:`Tracer.counter`, used for
memory tracks) — each carrying the run id, wall clock, a monotonic
timestamp, and the emitting ``pid``/``tid``.  Everything is optionally
mirrored to a JSONL file which ``repro obs timeline`` converts to Chrome
trace-event JSON.  Spans nest per thread via a context-manager API:

    tracer = Tracer(path="run.jsonl")
    with tracer.span("epoch", epoch=3) as sp:
        ...
        sp.set(loss=0.41)          # lands on the span_end event
    tracer.close()

Every event is one JSON object per line so a crashed run still leaves a
parseable prefix.  :meth:`Tracer.summary` aggregates span durations by
name for quick per-phase breakdowns (used by ``benchmarks/run_all.py``).

:data:`NULL_TRACER` is a shared no-op with the same surface, so callers
write ``tracer.span(...)`` unconditionally; its spans cost one attribute
check.  Code that wants to skip *computing* attributes (e.g. grad norms)
guards on ``tracer.enabled``.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "default_tracer",
    "set_default_tracer",
]


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and other odd values to JSON types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item") and getattr(value, "size", None) == 1:
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


class Span:
    """One open span; records duration and extra attrs on exit.

    Usable as a context manager (exception-safe: the ``span_end`` event is
    always written, tagged ``ok: false`` with the error repr, and the
    exception propagates) or as a decorator via :meth:`Tracer.span`.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs", "_t0", "_mono0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.span_id = tracer._next_span_id()
        self.parent_id: Optional[str] = None
        self.attrs = attrs
        self._t0 = 0.0
        self._mono0 = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes that will be emitted on the span_end event."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self._t0 = time.time()
        self._mono0 = time.perf_counter()
        try:
            self._tracer._emit(
                "span_start",
                self.name,
                span=self.span_id,
                parent=self.parent_id,
                attrs=self.attrs or None,
            )
        except BaseException:
            # A failed start (closed file, unserialisable attr, ...) must not
            # leave this span on the stack: the caller's `with` body never
            # runs, so __exit__ will never pop it and every later span on the
            # thread would be parented under a ghost.
            if stack and stack[-1] is self:
                stack.pop()
            elif self in stack:
                stack.remove(self)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._mono0
        stack = self._tracer._stack()
        # Unwind the stack *before* emitting: even when the body raised and
        # the caller swallows the exception above this `with` block, or the
        # span_end emit itself fails, the stack must not keep dead spans.
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # unbalanced exit — still unwind past ourselves
            del stack[stack.index(self) :]
        attrs = dict(self.attrs)
        if exc is not None:
            attrs["error"] = repr(exc)
        try:
            self._tracer._emit(
                "span_end",
                self.name,
                span=self.span_id,
                parent=self.parent_id,
                dur=duration,
                ok=exc is None,
                attrs=attrs or None,
            )
        except BaseException:
            if exc is None:
                raise
            # The body's exception is the interesting one; a failing emit
            # must not mask it (the stack is already unwound either way).
        return False  # never swallow exceptions


class Tracer:
    """Structured, thread-safe event log for one run.

    Parameters
    ----------
    path:
        Optional JSONL file; every event is appended as one JSON line and
        flushed, so a killed process leaves a valid prefix.
    run_id:
        Identifier stamped on every event (default: fresh UUID hex).
    keep_events:
        Also retain events in memory (``.events``) for :meth:`summary`
        and tests.  Disable for long-running servers.
    """

    enabled = True

    def __init__(
        self,
        path: Optional[str] = None,
        run_id: Optional[str] = None,
        keep_events: bool = True,
    ):
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.path = path
        self._file: Optional[io.TextIOBase] = None
        if path:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._file = open(path, "a", encoding="utf-8")
        self._keep = keep_events
        self.events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq = 0
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_span_id(self) -> str:
        with self._lock:
            self._seq += 1
            return f"{self.run_id}-{self._seq:x}"

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    def _emit(self, kind: str, name: str, **fields: Any) -> None:
        record: Dict[str, Any] = {
            "run": self.run_id,
            "kind": kind,
            "name": name,
            "ts": time.time(),
            "mono": time.perf_counter(),
            "pid": self._pid,
            "tid": threading.get_ident(),
        }
        for key, value in fields.items():
            if value is None:
                continue
            if key == "attrs":
                record["attrs"] = {k: _jsonable(v) for k, v in value.items()}
            else:
                record[key] = _jsonable(value)
        self._write(record)

    def _write(self, record: Dict[str, Any]) -> None:
        """Keep one finished record in memory and/or append it to the file."""
        with self._lock:
            if self._keep:
                self.events.append(record)
            if self._file is not None:
                self._file.write(json.dumps(record) + "\n")
                self._file.flush()

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point event attached to the current span (if any)."""
        current = self.current_span()
        self._emit(
            "event",
            name,
            parent=current.span_id if current else None,
            attrs=attrs or None,
        )

    def complete(
        self,
        name: str,
        dur: float,
        t0: Optional[float] = None,
        **attrs: Any,
    ) -> None:
        """Emit a retrospectively-timed interval (kind ``complete``).

        Unlike a span there is no start/end pair: the interval already
        happened, so one record carries its wall start ``t0`` (defaulting
        to ``now - dur``) and duration in seconds.  The profiler uses this
        for per-op slices and the trainer for epoch phases.
        """
        current = self.current_span()
        self._emit(
            "complete",
            name,
            parent=current.span_id if current else None,
            t0=time.time() - dur if t0 is None else t0,
            dur=dur,
            attrs=attrs or None,
        )

    def counter(
        self,
        name: str,
        t0: Optional[float] = None,
        **values: Any,
    ) -> None:
        """Emit a counter sample (kind ``counter``) of numeric series.

        ``values`` become the sample's series (e.g. ``live_bytes=...``);
        the timeline exporter turns them into a Chrome ``C`` counter
        track.  ``t0`` back-dates the sample.
        """
        self._emit("counter", name, t0=t0, attrs=values or None)

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a nested span: ``with tracer.span("epoch", epoch=1): ...``."""
        return Span(self, name, dict(attrs))

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate span_end durations by span name."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            ends = [e for e in self.events if e["kind"] == "span_end"]
        for e in ends:
            agg = out.setdefault(e["name"], {"count": 0, "total_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += float(e.get("dur", 0.0))
        for agg in out.values():
            agg["mean_s"] = agg["total_s"] / agg["count"]
        return out

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _NullSpan:
    """Reusable no-op span."""

    __slots__ = ()
    name = span_id = parent_id = None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op stand-in with the :class:`Tracer` surface (``enabled=False``)."""

    enabled = False
    run_id = None
    events: List[Dict[str, Any]] = []

    def event(self, name: str, **attrs) -> None:
        pass

    def complete(self, name: str, dur: float, t0=None, **attrs) -> None:
        pass

    def counter(self, name: str, t0=None, **values) -> None:
        pass

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {}

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()

_default_tracer = NULL_TRACER


def default_tracer():
    """Process-wide tracer used by code without an explicit one (benchmarks)."""
    return _default_tracer


def set_default_tracer(tracer) -> None:
    """Install ``tracer`` (or ``None`` to reset) as the process default."""
    global _default_tracer
    _default_tracer = tracer if tracer is not None else NULL_TRACER
