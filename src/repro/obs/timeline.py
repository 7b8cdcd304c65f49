"""Chrome trace-event export: one timeline from spans, ops, and memory.

Converts a :class:`~repro.obs.events.Tracer` stream (in-memory events or
a ``--trace`` JSONL file) into Chrome trace-event JSON that loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:

* ``span_start``/``span_end`` pairs become matched ``B``/``E`` duration
  events, nested per ``(pid, tid)`` lane;
* ``complete`` intervals (per-op profiler slices, trainer epoch phases)
  become ``X`` complete events on the pid/tid they were recorded under;
* ``counter`` samples become ``C`` events (the memory track);
* point events become thread-scoped instants (``i``);
* ``M`` metadata events name the lanes (``trainer (main)``,
  ``process N``).

Timestamps are wall-clock microseconds relative to the earliest event,
which is what makes cross-process lanes line up: every process stamps
``time.time()`` of the same host.  :func:`validate_timeline` checks the
emitted JSON against the Catapult schema rules the test-suite and CI
gate on (required keys, known phases, per-lane monotonic ``ts``, matched
``B``/``E`` pairs, numeric counter args).

CLI: ``repro obs timeline trace.jsonl -o trace.json [--check]``, or
``--timeline trace.json`` directly on ``repro train`` / ``repro
profile``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

__all__ = [
    "load_trace_events",
    "build_timeline",
    "validate_timeline",
    "write_timeline",
]

#: Chrome trace-event phases this exporter emits.
_PHASES = ("B", "E", "X", "C", "i", "M")


def load_trace_events(path) -> List[Dict[str, Any]]:
    """Read a Tracer JSONL file, tolerating a truncated final line."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # killed mid-write: keep the parseable prefix
            if isinstance(record, dict):
                events.append(record)
    return events


class _Interval:
    __slots__ = ("name", "t0", "t1", "lane", "attrs", "span", "children")

    def __init__(self, name, t0, t1, lane, attrs, span=None):
        self.name = name
        self.t0 = float(t0)
        self.t1 = max(float(t1), self.t0)
        self.lane = lane
        self.attrs = attrs or {}
        self.span = span
        self.children: List["_Interval"] = []

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _lane(ev: Dict[str, Any]) -> Tuple[int, int]:
    return int(ev.get("pid", 0)), int(ev.get("tid", 0))


def _collect(events: Iterable[Dict[str, Any]]):
    """Split a raw event stream into intervals / counters / instants."""
    open_spans: Dict[str, Dict[str, Any]] = {}
    spans_by_lane: Dict[Tuple[int, int], List[_Interval]] = {}
    completes_by_lane: Dict[Tuple[int, int], List[_Interval]] = {}
    counters: List[Dict[str, Any]] = []
    instants: List[Dict[str, Any]] = []
    max_ts = 0.0
    for ev in events:
        kind = ev.get("kind")
        ts = float(ev.get("ts", 0.0))
        max_ts = max(max_ts, ts)
        if kind == "span_start":
            open_spans[ev.get("span")] = ev
        elif kind == "span_end":
            start = open_spans.pop(ev.get("span"), None)
            dur = float(ev.get("dur", 0.0))
            if start is not None:
                t0, lane = float(start.get("ts", ts - dur)), _lane(start)
            else:
                t0, lane = ts - dur, _lane(ev)
            attrs = dict((start or {}).get("attrs") or {})
            attrs.update(ev.get("attrs") or {})
            spans_by_lane.setdefault(lane, []).append(
                _Interval(ev.get("name", "?"), t0, t0 + dur, lane, attrs, ev.get("span"))
            )
        elif kind == "complete":
            dur = float(ev.get("dur", 0.0))
            t0 = float(ev.get("t0", ts - dur))
            lane = _lane(ev)
            completes_by_lane.setdefault(lane, []).append(
                _Interval(ev.get("name", "?"), t0, t0 + dur, lane, ev.get("attrs"))
            )
            max_ts = max(max_ts, t0 + dur)
        elif kind == "counter":
            counters.append(ev)
        elif kind == "event":
            instants.append(ev)
    # A crashed run leaves spans open: close them at the last timestamp so
    # the trace still shows where time was going when it died.
    for span_id, start in open_spans.items():
        lane = _lane(start)
        t0 = float(start.get("ts", max_ts))
        spans_by_lane.setdefault(lane, []).append(
            _Interval(
                start.get("name", "?"),
                t0,
                max(max_ts, t0),
                lane,
                dict(start.get("attrs") or {}, unterminated=True),
                span_id,
            )
        )
    return spans_by_lane, completes_by_lane, counters, instants


def _nest(intervals: List[_Interval]) -> List[_Interval]:
    """Order a lane's span intervals into a containment forest.

    Sorted by start (longest first on ties), a stack pass makes every
    overlap a strict containment by clamping child ends to their parent —
    which is exactly the discipline Chrome's ``B``/``E`` stack requires.
    """
    roots: List[_Interval] = []
    stack: List[_Interval] = []
    for iv in sorted(intervals, key=lambda iv: (iv.t0, -iv.dur)):
        while stack and iv.t0 >= stack[-1].t1:
            stack.pop()
        if stack:
            iv.t1 = min(iv.t1, stack[-1].t1)
            stack[-1].children.append(iv)
        else:
            roots.append(iv)
        stack.append(iv)
    return roots


def build_timeline(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Build the Chrome trace dict from raw Tracer events (see module doc)."""
    events = list(events)
    spans_by_lane, completes_by_lane, counters, instants = _collect(events)

    stamps: List[float] = []
    for lane_ivs in list(spans_by_lane.values()) + list(completes_by_lane.values()):
        stamps.extend(iv.t0 for iv in lane_ivs)
    stamps.extend(float(c.get("t0", c.get("ts", 0.0))) for c in counters)
    stamps.extend(float(i.get("ts", 0.0)) for i in instants)
    origin = min(stamps) if stamps else 0.0

    def us(t: float) -> float:
        return round((t - origin) * 1e6, 3)

    out: List[Dict[str, Any]] = []
    seq = 0

    def emit(record: Dict[str, Any], ts: float) -> None:
        nonlocal seq
        record["_seq"] = seq
        record["ts"] = us(ts)
        seq += 1
        out.append(record)

    for lane, intervals in spans_by_lane.items():
        pid, tid = lane

        def dfs(iv: _Interval) -> None:
            emit(
                {"ph": "B", "name": iv.name, "pid": pid, "tid": tid,
                 "cat": "span", "args": iv.attrs},
                iv.t0,
            )
            for child in iv.children:
                dfs(child)
            emit({"ph": "E", "name": iv.name, "pid": pid, "tid": tid}, iv.t1)

        for root in _nest(intervals):
            dfs(root)

    for lane, intervals in completes_by_lane.items():
        pid, tid = lane
        for iv in intervals:
            args = dict(iv.attrs)
            cat = str(args.pop("cat", "phase"))
            record = {
                "ph": "X", "name": iv.name, "pid": pid, "tid": tid,
                "cat": cat, "dur": round(iv.dur * 1e6, 3), "args": args,
            }
            emit(record, iv.t0)

    for c in counters:
        pid, tid = _lane(c)
        values = {
            k: v for k, v in (c.get("attrs") or {}).items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        if not values:
            continue
        emit(
            {"ph": "C", "name": c.get("name", "counter"), "pid": pid, "tid": tid,
             "cat": "counter", "args": values},
            float(c.get("t0", c.get("ts", 0.0))),
        )

    for i in instants:
        pid, tid = _lane(i)
        emit(
            {"ph": "i", "name": i.get("name", "?"), "pid": pid, "tid": tid,
             "cat": "event", "s": "t", "args": dict(i.get("attrs") or {})},
            float(i.get("ts", 0.0)),
        )

    out.sort(key=lambda r: (r["ts"], r["_seq"]))
    for record in out:
        del record["_seq"]

    # Lane naming: the pid that emitted spans is the driver process.
    span_pids = {lane[0] for lane in spans_by_lane}
    meta: List[Dict[str, Any]] = []
    all_pids = sorted(
        {lane[0] for lane in spans_by_lane}
        | {lane[0] for lane in completes_by_lane}
        | {_lane(c)[0] for c in counters}
        | {_lane(i)[0] for i in instants}
    )
    for idx, pid in enumerate(all_pids):
        label = "trainer (main)" if pid in span_pids else f"process {pid}"
        meta.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": label}}
        )
        meta.append(
            {"ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
             "args": {"sort_index": 0 if pid in span_pids else idx + 1}}
        )

    run_ids = sorted({str(ev.get("run")) for ev in events if ev.get("run")})
    return {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "otherData": {"runs": run_ids, "origin_unix_s": origin},
    }


def validate_timeline(trace: Dict[str, Any]) -> List[str]:
    """Return schema problems (empty list == valid Catapult JSON)."""
    problems: List[str] = []
    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        return ["trace must be an object with a 'traceEvents' list"]
    stacks: Dict[Tuple[int, int], List[str]] = {}
    last_ts: Dict[Tuple[int, int], float] = {}
    for n, ev in enumerate(trace["traceEvents"]):
        where = f"traceEvents[{n}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        if "name" not in ev or "pid" not in ev:
            problems.append(f"{where}: missing required key (name/pid)")
            continue
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
            continue
        lane = (ev.get("pid"), ev.get("tid"))
        if ts < last_ts.get(lane, 0.0):
            problems.append(
                f"{where}: ts {ts} goes backwards on lane {lane} "
                f"(last {last_ts[lane]})"
            )
        last_ts[lane] = max(last_ts.get(lane, 0.0), float(ts))
        if ph == "B":
            stacks.setdefault(lane, []).append(ev["name"])
        elif ph == "E":
            stack = stacks.setdefault(lane, [])
            if not stack:
                problems.append(f"{where}: E without open B on lane {lane}")
            elif stack[-1] != ev["name"]:
                problems.append(
                    f"{where}: E {ev['name']!r} closes B {stack[-1]!r} on lane {lane}"
                )
                stack.pop()
            else:
                stack.pop()
        elif ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs a non-negative dur")
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in args.values()
            ):
                problems.append(f"{where}: C event needs numeric args")
    for lane, stack in stacks.items():
        if stack:
            problems.append(f"lane {lane}: {len(stack)} unmatched B event(s): {stack}")
    return problems


def write_timeline(
    events: Iterable[Dict[str, Any]],
    out_path,
    check: bool = True,
) -> Dict[str, Any]:
    """Build, optionally validate, and write the trace JSON.  Returns it."""
    trace = build_timeline(events)
    if check:
        problems = validate_timeline(trace)
        if problems:
            raise ValueError(
                "generated timeline failed validation:\n  " + "\n  ".join(problems[:10])
            )
    out_path = Path(out_path)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(trace) + "\n")
    return trace
