"""Autograd profiler: per-op forward/backward timing and memory.

:func:`profile` registers a :class:`~repro.autograd.tensor.Observer` for
the duration of a ``with`` block.  Every differentiable op — the
functions in :mod:`repro.autograd.ops` and the fused attention kernels,
all declared with :func:`~repro.autograd.tensor.differentiable` — reports
its calls to it, so no call sites change.  For each op the profiler
records:

* forward call count and exclusive wall time (nested op calls — e.g.
  ``l2_norm_squared`` calling ``sum`` — are attributed to the outermost
  call only, so times add up instead of double counting);
* backward call count and wall time, by wrapping the tape closures of
  every tensor the op produced inside the block;
* output bytes (cumulative) and the peak single-output allocation.

``Tensor.backward`` walks are timed too, so the topological-sweep
overhead (graph walk minus the attributed per-op closure time) appears as
its own line.  Arbitrary non-op phases (optimizer step, neighbor
sampling) can be pulled into the accounting with :meth:`Profiler.section`
or by patching a callable via :meth:`Profiler.patch`.  Profilers nest:
each active one records every op.

    with profile() as prof:
        loss = model.loss(u, i, j)
        with prof.section("optimizer.step"):
            loss.backward(); optimizer.step()
    print(prof.report().render())
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.autograd.tensor import Observer, Tensor, add_observer, remove_observer

__all__ = ["Profiler", "ProfileReport", "profile"]


class _OpStat:
    __slots__ = ("calls", "time_fwd", "calls_bwd", "time_bwd", "bytes_out", "peak_bytes")

    def __init__(self):
        self.calls = 0
        self.time_fwd = 0.0
        self.calls_bwd = 0
        self.time_bwd = 0.0
        self.bytes_out = 0
        self.peak_bytes = 0


class Profiler(Observer):
    """Collects op/section timings between ``__enter__`` and ``__exit__``."""

    def __init__(self, tracer: Any = None):
        self.op_stats: Dict[str, _OpStat] = {}
        self.sections: Dict[str, List[float]] = {}  # name -> [calls, total_s]
        self.backward_walk_time = 0.0
        self.backward_calls = 0
        self.wall_time = 0.0
        self._patches: List[tuple] = []
        self._t0 = 0.0
        # Optional event sink: when set (and enabled), every outermost op
        # call, backward walk, and section additionally emits a timestamped
        # `complete` interval, so `repro obs timeline` can place individual
        # slices instead of only accumulated totals.
        self._tracer = tracer
        self._emit_events = bool(tracer is not None and getattr(tracer, "enabled", False))
        # time.time() - time.perf_counter(): turns the observer hooks'
        # perf_counter stamps into the wall-clock starts events carry.
        self._wall_offset = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stat(self, name: str) -> _OpStat:
        stat = self.op_stats.get(name)
        if stat is None:
            stat = self.op_stats[name] = _OpStat()
        return stat

    def _record_section(self, name: str, t0: float, t1: float) -> None:
        entry = self.sections.get(name)
        if entry is None:
            entry = self.sections[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += t1 - t0
        if self._emit_events:
            self._emit(name, t0, t1, "section")

    def _emit(self, name: str, t0: float, t1: float, cat: str, **attrs: Any) -> None:
        self._tracer.complete(
            name, dur=t1 - t0, t0=t0 + self._wall_offset, cat=cat, **attrs
        )

    def section(self, name: str):
        """Context manager adding a named non-op phase to the accounting."""
        return _Section(self, name)

    def patch(self, owner: Any, attr: str, label: Optional[str] = None) -> None:
        """Wrap ``owner.attr`` (any callable) as a section until exit."""
        original = getattr(owner, attr)
        label = label or attr

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._record_section(label, t0, time.perf_counter())

        # Remember whether the attr lived on the object itself (vs its
        # class), so restore removes the shadow instead of pinning a
        # bound method onto the instance.
        shadowed = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, original, shadowed))
        setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def _wrap_backward(self, name: str, fn: Optional[Callable]) -> Optional[Callable]:
        if fn is None:
            return None

        def wrapped(grad):
            t0 = time.perf_counter()
            try:
                return fn(grad)
            finally:
                t1 = time.perf_counter()
                stat = self._stat(name)
                stat.calls_bwd += 1
                stat.time_bwd += t1 - t0
                if self._emit_events:
                    self._emit(name, t0, t1, "op", phase="bwd")

        return wrapped

    def on_op(self, name: str, t0: float, t1: float, depth: int, out: Any) -> None:
        if depth:  # nested op: the outermost call owns its time
            return
        stat = self._stat(name)
        stat.calls += 1
        stat.time_fwd += t1 - t0
        if self._emit_events:
            self._emit(name, t0, t1, "op", phase="fwd")
        if isinstance(out, Tensor):
            nbytes = out.data.nbytes
            stat.bytes_out += nbytes
            if nbytes > stat.peak_bytes:
                stat.peak_bytes = nbytes
            if out._backward_fns:
                out._backward_fns = tuple(
                    self._wrap_backward(name, bwd) for bwd in out._backward_fns
                )

    def on_backward(self, t0: float, t1: float) -> None:
        self.backward_walk_time += t1 - t0
        self.backward_calls += 1
        if self._emit_events:
            self._emit("backward_walk", t0, t1, "backward")

    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        add_observer(self)  # raises if this profiler is already active
        self._wall_offset = time.time() - time.perf_counter()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_time = time.perf_counter() - self._t0
        remove_observer(self)
        for owner, attr, original, shadowed in reversed(self._patches):
            if shadowed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    def report(self) -> "ProfileReport":
        """Build the sorted report over the measured wall time."""
        return ProfileReport(self)


class _Section:
    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: Profiler, name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Section":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._profiler._record_section(self._name, self._t0, time.perf_counter())


class ProfileReport:
    """Sorted per-op table plus coarse sections and an accounting total.

    ``accounted_s`` = Σ forward op time + total ``Tensor.backward`` walk
    time + Σ section time.  Per-op backward closure times happen *inside*
    the walk, so they are shown for attribution but not added again; the
    walk's own bookkeeping appears as the ``[backward overhead]`` row.
    """

    def __init__(self, profiler: Profiler):
        self.wall_s = float(profiler.wall_time)
        self.rows: List[Dict[str, Any]] = []
        fwd_total = 0.0
        bwd_attributed = 0.0
        for name, stat in profiler.op_stats.items():
            fwd_total += stat.time_fwd
            bwd_attributed += stat.time_bwd
            self.rows.append(
                {
                    "op": name,
                    "calls": stat.calls,
                    "fwd_s": stat.time_fwd,
                    "bwd_calls": stat.calls_bwd,
                    "bwd_s": stat.time_bwd,
                    "total_s": stat.time_fwd + stat.time_bwd,
                    "bytes_out": stat.bytes_out,
                    "peak_bytes": stat.peak_bytes,
                }
            )
        self.rows.sort(key=lambda r: r["total_s"], reverse=True)
        self.backward_overhead_s = max(
            0.0, profiler.backward_walk_time - bwd_attributed
        )
        self.backward_walk_s = profiler.backward_walk_time
        self.sections = [
            {"name": name, "calls": entry[0], "total_s": entry[1]}
            for name, entry in sorted(
                profiler.sections.items(), key=lambda kv: kv[1][1], reverse=True
            )
        ]
        section_total = sum(s["total_s"] for s in self.sections)
        self.accounted_s = fwd_total + profiler.backward_walk_time + section_total
        self.accounted_fraction = (
            self.accounted_s / self.wall_s if self.wall_s > 0 else 0.0
        )

    # ------------------------------------------------------------------
    def render(self) -> str:
        from repro.utils import format_table

        def ms(seconds: float) -> str:
            return f"{1000.0 * seconds:.2f}"

        op_rows = []
        for r in self.rows:
            pct = 100.0 * r["total_s"] / self.wall_s if self.wall_s else 0.0
            op_rows.append(
                [
                    r["op"],
                    str(r["calls"]),
                    ms(r["fwd_s"]),
                    str(r["bwd_calls"]),
                    ms(r["bwd_s"]),
                    ms(r["total_s"]),
                    f"{pct:.1f}",
                    f"{r['peak_bytes'] / 1024.0:.0f}",
                ]
            )
        op_rows.append(
            [
                "[backward overhead]",
                "-",
                "-",
                str("-"),
                ms(self.backward_overhead_s),
                ms(self.backward_overhead_s),
                f"{100.0 * self.backward_overhead_s / self.wall_s:.1f}"
                if self.wall_s
                else "0.0",
                "-",
            ]
        )
        for s in self.sections:
            pct = 100.0 * s["total_s"] / self.wall_s if self.wall_s else 0.0
            op_rows.append(
                [
                    f"[{s['name']}]",
                    str(s["calls"]),
                    "-",
                    "-",
                    "-",
                    ms(s["total_s"]),
                    f"{pct:.1f}",
                    "-",
                ]
            )
        table = format_table(
            ["op", "calls", "fwd ms", "bwd calls", "bwd ms", "total ms", "% wall", "peak KiB"],
            op_rows,
            title="Autograd profile (per-op, sorted by total time)",
        )
        footer = (
            f"wall {1000.0 * self.wall_s:.2f} ms, "
            f"accounted {1000.0 * self.accounted_s:.2f} ms "
            f"({100.0 * self.accounted_fraction:.1f}%)"
        )
        return table + "\n" + footer

    def to_json(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "accounted_s": self.accounted_s,
            "accounted_fraction": self.accounted_fraction,
            "backward_walk_s": self.backward_walk_s,
            "backward_overhead_s": self.backward_overhead_s,
            "ops": self.rows,
            "sections": self.sections,
        }


def profile(tracer: Any = None) -> Profiler:
    """``with profile() as prof: ...`` — see the module docstring.

    Passing an enabled :class:`~repro.obs.events.Tracer` (or any object
    with its ``complete()`` surface) additionally emits a timestamped
    ``complete`` interval per outermost op / backward walk / section, for
    timeline export.  Profilers nest; re-entering the same one raises
    ``RuntimeError``.
    """
    return Profiler(tracer=tracer)
