"""Tensor allocation tracking: live bytes, watermarks, leak detection.

numpy has no allocator hooks, so :class:`MemoryTracker` watches the one
place every array the training stack owns passes through:
:class:`~repro.autograd.tensor.Tensor` construction, which autograd
reports to its registered observers.  While active it

* adds each new tensor's ``data.nbytes`` to a live-byte counter and
  registers a :func:`weakref.finalize` that subtracts them again when the
  buffer is released (for tape tensors that is when ``backward()``'s
  topological sweep drops the last reference — so live bytes track the
  autograd tape, not just Python garbage);
* attributes every allocation to the op that produced it (``matmul``,
  ``einsum``, ...; direct constructions count as ``leaf``);
* maintains per-phase watermarks via :meth:`phase` and an epoch-boundary
  ledger via :meth:`begin_epoch`/:meth:`epoch_boundary` — a tensor that
  was born in a previous epoch and is still alive at an epoch boundary
  (and was not registered persistent) is reported as a **leak**, because
  training intermediates must die within their epoch;
* emits ``counter`` samples (``live_bytes``/``peak_bytes``) into a
  :class:`~repro.obs.events.Tracer` every :data:`COUNTER_EVERY` allocations
  plus at phase/epoch boundaries, which ``repro obs timeline`` renders
  as a Chrome counter track.

Trackers nest: each active one sees every construction.  Usage::

    tracker = MemoryTracker(tracer=tracer)
    tracker.register_persistent(model.parameters())
    with tracker:
        for epoch in range(1, n + 1):
            tracker.begin_epoch(epoch)
            ...
            tracker.epoch_boundary(epoch)
    summary = tracker.summary()   # peak_bytes, by_op, phases, leaks
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any, Dict, List, Optional

from repro.autograd.tensor import Observer, Tensor, add_observer, remove_observer
from repro.obs.events import NULL_TRACER

__all__ = ["MemoryTracker", "track_memory"]

#: A tracker samples its memory counter every this many allocations.
COUNTER_EVERY = 200


class _PhaseFrame:
    __slots__ = ("name", "peak_bytes", "alloc_at_enter", "t0")

    def __init__(self, name: str, live_bytes: int, total_alloc: int):
        self.name = name
        self.peak_bytes = live_bytes
        self.alloc_at_enter = total_alloc
        self.t0 = time.time()


class _Phase:
    __slots__ = ("_tracker", "_name", "_frame")

    def __init__(self, tracker: "MemoryTracker", name: str):
        self._tracker = tracker
        self._name = name
        self._frame: Optional[_PhaseFrame] = None

    def __enter__(self) -> "_Phase":
        self._frame = self._tracker._enter_phase(self._name)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracker._exit_phase(self._frame)
        return False


class MemoryTracker(Observer):
    """Track live/peak tensor bytes with per-op and per-phase attribution."""

    def __init__(self, tracer: Any = None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.live_bytes = 0
        self.peak_bytes = 0
        self.total_alloc_bytes = 0
        self.n_allocs = 0
        self.live_tensors = 0
        #: op -> [count, bytes] of every allocation attributed to it.
        self.alloc_by_op: Dict[str, List[int]] = {}
        #: phase name -> {count, peak_bytes, alloc_bytes, total_s}
        self.phase_stats: Dict[str, Dict[str, float]] = {}
        #: one entry per :meth:`epoch_boundary` call.
        self.epoch_log: List[Dict[str, Any]] = []
        # RLock: a cyclic-GC pass can run a tensor's finalize callback at
        # an allocation point *inside* on_tensor's critical section on the
        # same thread; a plain Lock would deadlock there.
        self._lock = threading.RLock()
        self._phase_stack: List[_PhaseFrame] = []
        self._seq = 0
        self._epoch = 0
        #: seq -> (nbytes, birth_epoch) for every live tracked tensor.
        self._live: Dict[int, tuple] = {}
        self._id2seq: Dict[int, int] = {}
        self._persistent: set = set()
        self._started = False

    # ------------------------------------------------------------------
    # Observer registration
    # ------------------------------------------------------------------
    def start(self) -> "MemoryTracker":
        add_observer(self)  # raises if this tracker is already started
        self._started = True
        self._sample_counter()
        return self

    def stop(self) -> None:
        if not self._started:
            return
        remove_observer(self)
        self._started = False
        self._sample_counter()
        if self.tracer.enabled:
            self.tracer.event("memory_summary", **self.summary())

    def __enter__(self) -> "MemoryTracker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def on_tensor(self, tensor: Tensor, op: str) -> None:
        nbytes = int(tensor.data.nbytes)
        with self._lock:
            self._seq += 1
            seq = self._seq
            self.n_allocs += 1
            self.live_bytes += nbytes
            self.live_tensors += 1
            self.total_alloc_bytes += nbytes
            if self.live_bytes > self.peak_bytes:
                self.peak_bytes = self.live_bytes
            for frame in self._phase_stack:
                if self.live_bytes > frame.peak_bytes:
                    frame.peak_bytes = self.live_bytes
            entry = self.alloc_by_op.get(op)
            if entry is None:
                entry = self.alloc_by_op[op] = [0, 0]
            entry[0] += 1
            entry[1] += nbytes
            self._live[seq] = (nbytes, self._epoch)
            self._id2seq[id(tensor)] = seq
            emit = self.tracer.enabled and self.n_allocs % COUNTER_EVERY == 0
        weakref.finalize(tensor, self._on_free, seq, nbytes, id(tensor))
        if emit:
            self._sample_counter()

    def _on_free(self, seq: int, nbytes: int, obj_id: int) -> None:
        with self._lock:
            if self._live.pop(seq, None) is None:
                return
            self.live_bytes -= nbytes
            self.live_tensors -= 1
            if self._id2seq.get(obj_id) == seq:
                del self._id2seq[obj_id]

    def _sample_counter(self) -> None:
        if self.tracer.enabled:
            self.tracer.counter(
                "memory", live_bytes=self.live_bytes, peak_bytes=self.peak_bytes
            )

    # ------------------------------------------------------------------
    # Phases and epochs
    # ------------------------------------------------------------------
    def phase(self, name: str) -> _Phase:
        """Context manager recording a watermark for a named phase."""
        return _Phase(self, name)

    def _enter_phase(self, name: str) -> _PhaseFrame:
        with self._lock:
            frame = _PhaseFrame(name, self.live_bytes, self.total_alloc_bytes)
            self._phase_stack.append(frame)
        return frame

    def _exit_phase(self, frame: Optional[_PhaseFrame]) -> None:
        if frame is None:
            return
        with self._lock:
            if frame in self._phase_stack:
                self._phase_stack.remove(frame)
            stats = self.phase_stats.get(frame.name)
            if stats is None:
                stats = self.phase_stats[frame.name] = {
                    "count": 0,
                    "peak_bytes": 0,
                    "alloc_bytes": 0,
                    "total_s": 0.0,
                }
            stats["count"] += 1
            stats["peak_bytes"] = max(stats["peak_bytes"], frame.peak_bytes)
            stats["alloc_bytes"] += self.total_alloc_bytes - frame.alloc_at_enter
            stats["total_s"] += time.time() - frame.t0
        self._sample_counter()

    def register_persistent(self, tensors) -> None:
        """Exempt long-lived tensors (parameters, caches) from leak checks."""
        with self._lock:
            for t in tensors:
                seq = self._id2seq.get(id(t))
                if seq is not None:
                    self._persistent.add(seq)

    def begin_epoch(self, epoch: int) -> None:
        """Mark tensors allocated from here on as born in ``epoch``."""
        with self._lock:
            self._epoch = int(epoch)

    def epoch_boundary(self, epoch: int) -> Dict[str, Any]:
        """Close ``epoch``: snapshot live bytes and flag cross-epoch survivors.

        A tensor allocated in an *earlier* epoch that is still alive here
        (and not registered persistent) has survived at least one full
        epoch — training intermediates should not, so it is counted as
        leaked.  Returns (and logs) the boundary snapshot.
        """
        epoch = int(epoch)
        with self._lock:
            leaked_tensors = 0
            leaked_bytes = 0
            for seq, (nbytes, born) in self._live.items():
                if born < epoch and seq not in self._persistent:
                    leaked_tensors += 1
                    leaked_bytes += nbytes
            entry = {
                "epoch": epoch,
                "live_bytes": self.live_bytes,
                "live_tensors": self.live_tensors,
                "peak_bytes": self.peak_bytes,
                "leaked_tensors": leaked_tensors,
                "leaked_bytes": leaked_bytes,
            }
            self.epoch_log.append(entry)
        self._sample_counter()
        if self.tracer.enabled:
            self.tracer.event("memory_epoch", **entry)
        return entry

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        with self._lock:
            by_op = {
                op: {"count": entry[0], "bytes": entry[1]}
                for op, entry in sorted(
                    self.alloc_by_op.items(), key=lambda kv: kv[1][1], reverse=True
                )
            }
            last = self.epoch_log[-1] if self.epoch_log else {}
            return {
                "peak_bytes": self.peak_bytes,
                "live_bytes": self.live_bytes,
                "live_tensors": self.live_tensors,
                "total_alloc_bytes": self.total_alloc_bytes,
                "n_allocs": self.n_allocs,
                "by_op": by_op,
                "phases": {k: dict(v) for k, v in self.phase_stats.items()},
                "epochs": list(self.epoch_log),
                "leaked_bytes": int(last.get("leaked_bytes", 0)),
                "leaked_tensors": int(last.get("leaked_tensors", 0)),
            }


def track_memory(tracer: Any = None) -> MemoryTracker:
    """``with track_memory(tracer) as mem: ...`` — see the module docstring."""
    return MemoryTracker(tracer=tracer)
