"""Autograd profiler: per-op forward/backward timing and memory.

:func:`profile` patches every differentiable op in
:mod:`repro.autograd.ops` with a timing wrapper for the duration of a
``with`` block.  Model code reaches ops through dynamic module-attribute
lookup (``ops.matmul(...)``), so no call sites change.  For each op the
profiler records:

* forward call count and exclusive wall time (nested op calls — e.g.
  ``l2_norm_squared`` calling ``sum`` — are attributed to the outermost
  call only, so times add up instead of double counting);
* backward call count and wall time, by wrapping the tape closures of
  every tensor the op produced inside the block;
* output bytes (cumulative) and the peak single-output allocation.

``Tensor.backward`` is also patched so the topological-sweep overhead
(graph walk minus the attributed per-op closure time) appears as its own
line.  Arbitrary non-op phases (optimizer step, neighbor sampling) can be
pulled into the accounting with :meth:`Profiler.section` or by patching a
callable via :meth:`Profiler.patch`.

    with profile() as prof:
        loss = model.loss(u, i, j)
        with prof.section("optimizer.step"):
            loss.backward(); optimizer.step()
    print(prof.report().render())
"""

from __future__ import annotations

import importlib
import inspect
import time
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.autograd import ops as _ops_module
from repro.autograd.tensor import Tensor

__all__ = ["Profiler", "ProfileReport", "profile", "active_profiler"]

#: Differentiable ops that live outside :mod:`repro.autograd.ops` (fused
#: model kernels); patched alongside the ops module so their forward and
#: tape-closure time lands in the per-op table instead of the
#: ``[backward overhead]`` line.  (module path, attribute, report label)
_EXTRA_OPS = (
    ("repro.core.attention", "_guided_relation_scores", "relation_scores"),
    ("repro.core.attention", "_collab_scores", "collab_scores"),
)

# Exactly one profiler may patch the ops module at a time, process-wide.
# Two live instances would wrap each other's wrappers: the inner one's
# depth guard hides every call from the outer, and on exit the outer
# restores *wrapped* functions as "originals", corrupting attribution for
# the rest of the process.
_ACTIVE_LOCK = threading.Lock()
_ACTIVE_PROFILER: Optional["Profiler"] = None


class _OpStat:
    __slots__ = ("calls", "time_fwd", "calls_bwd", "time_bwd", "bytes_out", "peak_bytes")

    def __init__(self):
        self.calls = 0
        self.time_fwd = 0.0
        self.calls_bwd = 0
        self.time_bwd = 0.0
        self.bytes_out = 0
        self.peak_bytes = 0


class Profiler:
    """Collects op/section timings between ``__enter__`` and ``__exit__``."""

    def __init__(self, tracer: Any = None):
        self.op_stats: Dict[str, _OpStat] = {}
        self.sections: Dict[str, List[float]] = {}  # name -> [calls, total_s]
        self.backward_walk_time = 0.0
        self.backward_calls = 0
        self.wall_time = 0.0
        self._local = threading.local()
        self._saved_ops: Dict[str, Callable] = {}
        self._saved_extra: List[tuple] = []
        self._saved_patches: List[tuple] = []
        self._saved_backward: Optional[Callable] = None
        self._t0 = 0.0
        self._active = False
        # Optional event sink: when set (and enabled), every outermost op
        # call, backward walk, and section additionally emits a timestamped
        # `complete` interval, so `repro obs timeline` can place individual
        # slices instead of only accumulated totals.
        self._tracer = tracer
        self._emit_events = bool(tracer is not None and getattr(tracer, "enabled", False))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stat(self, name: str) -> _OpStat:
        stat = self.op_stats.get(name)
        if stat is None:
            stat = self.op_stats[name] = _OpStat()
        return stat

    def _record_section(self, name: str, seconds: float) -> None:
        entry = self.sections.get(name)
        if entry is None:
            entry = self.sections[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += seconds

    def section(self, name: str):
        """Context manager adding a named non-op phase to the accounting."""
        return _Section(self, name)

    def patch(self, owner: Any, attr: str, label: Optional[str] = None) -> None:
        """Wrap ``owner.attr`` (any callable) as a section until exit."""
        original = getattr(owner, attr)
        label = label or attr

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            w0 = time.time() if self._emit_events else 0.0
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._record_section(label, elapsed)
                if self._emit_events:
                    self._tracer.complete(label, dur=elapsed, t0=w0, cat="section")

        # Remember whether the attr lived on the object itself (vs its
        # class), so restore removes the shadow instead of pinning a
        # bound method onto the instance.
        shadowed = attr in getattr(owner, "__dict__", {})
        self._saved_patches.append((owner, attr, original, shadowed))
        setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------
    # Op instrumentation
    # ------------------------------------------------------------------
    def _wrap_backward(self, name: str, fn: Optional[Callable]) -> Optional[Callable]:
        if fn is None:
            return None

        def wrapped(grad):
            t0 = time.perf_counter()
            w0 = time.time() if self._emit_events else 0.0
            try:
                return fn(grad)
            finally:
                elapsed = time.perf_counter() - t0
                stat = self._stat(name)
                stat.calls_bwd += 1
                stat.time_bwd += elapsed
                if self._emit_events:
                    self._tracer.complete(name, dur=elapsed, t0=w0, cat="op", phase="bwd")

        return wrapped

    def _wrap_op(self, fn: Callable, name: Optional[str] = None) -> Callable:
        name = name or fn.__name__
        local = self._local

        def wrapped(*args, **kwargs):
            if getattr(local, "depth", 0) > 0:  # nested op: outermost owns it
                return fn(*args, **kwargs)
            local.depth = 1
            t0 = time.perf_counter()
            w0 = time.time() if self._emit_events else 0.0
            try:
                out = fn(*args, **kwargs)
            finally:
                local.depth = 0
                elapsed = time.perf_counter() - t0
            stat = self._stat(name)
            stat.calls += 1
            stat.time_fwd += elapsed
            if self._emit_events:
                self._tracer.complete(name, dur=elapsed, t0=w0, cat="op", phase="fwd")
            if isinstance(out, Tensor):
                nbytes = out.data.nbytes
                stat.bytes_out += nbytes
                if nbytes > stat.peak_bytes:
                    stat.peak_bytes = nbytes
                if out._backward_fns:
                    out._backward_fns = tuple(
                        self._wrap_backward(name, bwd) for bwd in out._backward_fns
                    )
            return out

        wrapped.__name__ = name
        return wrapped

    def _op_names(self) -> List[str]:
        return [
            attr
            for attr, value in vars(_ops_module).items()
            if not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == _ops_module.__name__
        ]

    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        global _ACTIVE_PROFILER
        if self._active:
            raise RuntimeError("profiler is not reentrant")
        with _ACTIVE_LOCK:
            if _ACTIVE_PROFILER is not None:
                raise RuntimeError(
                    "profiler is not reentrant: another profile() is already "
                    "active in this process; nesting would double-patch "
                    "autograd.ops and corrupt attribution"
                )
            _ACTIVE_PROFILER = self
        self._active = True
        for attr in self._op_names():
            original = getattr(_ops_module, attr)
            self._saved_ops[attr] = original
            setattr(_ops_module, attr, self._wrap_op(original))
        for module_name, attr, label in _EXTRA_OPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved_extra.append((module, attr, original))
            setattr(module, attr, self._wrap_op(original, label))

        profiler = self
        original_backward = Tensor.backward
        self._saved_backward = original_backward

        def traced_backward(tensor, grad=None):
            t0 = time.perf_counter()
            w0 = time.time() if profiler._emit_events else 0.0
            try:
                return original_backward(tensor, grad)
            finally:
                elapsed = time.perf_counter() - t0
                profiler.backward_walk_time += elapsed
                profiler.backward_calls += 1
                if profiler._emit_events:
                    profiler._tracer.complete(
                        "backward_walk", dur=elapsed, t0=w0, cat="backward"
                    )

        Tensor.backward = traced_backward
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_PROFILER
        self.wall_time = time.perf_counter() - self._t0
        for attr, original in self._saved_ops.items():
            setattr(_ops_module, attr, original)
        self._saved_ops.clear()
        for module, attr, original in self._saved_extra:
            setattr(module, attr, original)
        self._saved_extra.clear()
        Tensor.backward = self._saved_backward
        for owner, attr, original, shadowed in reversed(self._saved_patches):
            if shadowed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved_patches.clear()
        self._active = False
        with _ACTIVE_LOCK:
            if _ACTIVE_PROFILER is self:
                _ACTIVE_PROFILER = None

    # ------------------------------------------------------------------
    def report(self, wall_time: Optional[float] = None) -> "ProfileReport":
        """Build the sorted report; ``wall_time`` overrides the measured one."""
        return ProfileReport(self, wall_time if wall_time is not None else self.wall_time)


class _Section:
    __slots__ = ("_profiler", "_name", "_t0", "_w0")

    def __init__(self, profiler: Profiler, name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Section":
        self._t0 = time.perf_counter()
        self._w0 = time.time() if self._profiler._emit_events else 0.0
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        self._profiler._record_section(self._name, elapsed)
        if self._profiler._emit_events:
            self._profiler._tracer.complete(
                self._name, dur=elapsed, t0=self._w0, cat="section"
            )


class ProfileReport:
    """Sorted per-op table plus coarse sections and an accounting total.

    ``accounted_s`` = Σ forward op time + total ``Tensor.backward`` walk
    time + Σ section time.  Per-op backward closure times happen *inside*
    the walk, so they are shown for attribution but not added again; the
    walk's own bookkeeping appears as the ``[backward overhead]`` row.
    """

    def __init__(self, profiler: Profiler, wall_time: float):
        self.wall_s = float(wall_time)
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


def active_profiler() -> Optional[Profiler]:
    """The profiler currently patching the ops module, if any."""
    return _ACTIVE_PROFILER


def profile(tracer: Any = None) -> Profiler:
    """``with profile() as prof: ...`` — see the module docstring.

    Passing an enabled :class:`~repro.obs.events.Tracer` (or any object
    with its ``complete()`` surface) additionally emits a timestamped
    ``complete`` interval per outermost op / backward walk / section, for
    timeline export.  At most one profiler may be active per process;
    nesting raises ``RuntimeError`` instead of silently double-patching
    the ops module.
    """
    return Profiler(tracer=tracer)
