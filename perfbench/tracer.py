"""In-memory span recorder that wraps the program's public functions.

The benchmark's traced runs install these wrappers from its own files,
around the calls into each layer; the program itself is not changed.
A span is ``[name, start, end, parent, thread, attrs, ops0, ops1]``,
where ``ops0``/``ops1`` read the ``ops`` call counter at its start and
end, so every span knows how many autograd op calls it made.  Spans are kept
in memory and written out once, at the end of the run.  A layer's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, THREAD, ATTRS, OPS0, OPS1 = range(8)


class SpanRecorder:
    """Thread-aware span stack plus call counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        ops = self.counters["ops"]
        span = [name, self.clock(), None, parent, threading.get_ident(), attrs, ops, ops]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span[END] = self.clock()
        span[OPS1] = self.counters["ops"]
        if attrs:
            span[ATTRS].update(attrs)
        stack = self._stack()
        # Pop through ``idx``: a span whose wrapped call raised may have
        # left nothing behind, but an out-of-order end must not corrupt
        # the parent links of later spans.
        while stack:
            if stack.pop() == idx:
                break

    def complete(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a finished span with explicit times (cross-thread)."""
        with self._lock:
            self.spans.append([name, start, end, None, threading.get_ident(), attrs, 0, 0])

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[Callable[[int, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (function, method, classmethod or
        staticmethod) by a wrapper that records one span per call."""
        raw = inspect.getattr_static(owner, attr)
        kind = None
        if isinstance(raw, classmethod):
            kind, fn = classmethod, raw.__func__
        elif isinstance(raw, staticmethod):
            kind, fn = staticmethod, raw.__func__
        else:
            fn = raw
        recorder = self

        def wrapper(*args, **kwargs):
            idx = recorder.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                recorder.end(idx)
            if on_result is not None:
                on_result(idx, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__wrapped__ = fn
        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def wrap_counter(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        fn = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            recorder.counters[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def dump(self) -> dict:
        with self._lock:
            return {"spans": [list(s) for s in self.spans], "counters": dict(self.counters)}


def install_model_spans(recorder: SpanRecorder) -> None:
    """Spans shared by training and serving: graph sampling (with the
    node-flow size, for the K^h check), whole-catalogue scoring, and a
    count of calls into ``repro.autograd.ops``."""
    from repro.autograd import ops
    from repro.baselines.base import Recommender
    from repro.graph.sampling import NeighborSampler

    def flow_size(idx, flow):
        recorder.spans[idx][ATTRS]["entities"] = int(sum(e.size for e in flow.entities))

    recorder.wrap(NeighborSampler, "kg_node_flow", "graph.sample", on_result=flow_size)
    recorder.wrap(NeighborSampler, "user_neighborhood", "graph.sample")
    recorder.wrap(NeighborSampler, "item_neighborhood", "graph.sample")
    recorder.wrap(Recommender, "score_all_items", "core.score_all_items")
    for attr, value in list(vars(ops).items()):
        if (
            not attr.startswith("_")
            and callable(value)
            and getattr(value, "__module__", None) == ops.__name__
        ):
            recorder.wrap_counter(ops, attr, "ops")


# ----------------------------------------------------------------------
# Analysis (pure functions over dumped spans)
# ----------------------------------------------------------------------
def _union_length(intervals: List[tuple], lo: float, hi: float) -> float:
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: List[list]) -> List[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None and span[END] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        if span[END] is None:
            out.append(0.0)
            continue
        dur = span[END] - span[START]
        out.append(dur - _union_length(children.get(idx, []), span[START], span[END]))
    return out


def descendants(spans: List[list]) -> Dict[int, List[int]]:
    """Map span index → indices of every span below it."""
    kids: Dict[int, List[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[PARENT] is not None:
            kids[span[PARENT]].append(idx)
    out: Dict[int, List[int]] = {}

    def walk(idx: int) -> List[int]:
        if idx in out:
            return out[idx]
        acc: List[int] = []
        for child in kids.get(idx, []):
            acc.append(child)
            acc.extend(walk(child))
        out[idx] = acc
        return acc

    for idx in range(len(spans)):
        walk(idx)
    return out
