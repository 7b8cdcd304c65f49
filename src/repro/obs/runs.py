"""Persistent experiment-run registry (``repro.obs.runs``).

A :class:`RunStore` is an append-only on-disk registry of experiment
runs: each run is one JSON document under ``<root>/<run_id>.json`` plus
one compact line in ``<root>/index.jsonl`` for cheap listing.  A
:class:`RunRecord` captures everything needed to compare two runs months
apart without re-reading logs:

* identity — run id, kind (``train`` / ``bench``), creation time;
* provenance — config + its hash, dataset fingerprint, seed, and the
  environment (``REPRO_*`` knobs, numpy/python versions, platform);
* outcome — per-epoch history from ``Trainer.fit``, final metrics
  (scalars or per-trial lists, which the regression sentinel bootstraps),
  wall time, and a span summary distilled from the run's tracer;
* health — structured anomalies collected by the
  :class:`~repro.obs.health.HealthMonitor` and bench failures.

``Trainer.fit`` records into a store automatically when
``TrainerConfig.run_store`` is set, and ``benchmarks/run_all.py`` records
one ``bench`` run per invocation (see docs/runs.md).  The regression
sentinel (:mod:`repro.obs.sentinel`) and ``repro runs`` CLI read from
here.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.utils.artifact import atomic_write_text

__all__ = [
    "RunRecord",
    "RunStore",
    "config_hash",
    "dataset_fingerprint",
    "capture_env",
    "distill_trace",
    "default_runs_dir",
]

FORMAT_VERSION = 1
INDEX_FILE = "index.jsonl"

#: Environment variable overriding the default registry location.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"


def default_runs_dir() -> str:
    """Registry root: ``$REPRO_RUNS_DIR`` or ``./runs``."""
    return os.environ.get(RUNS_DIR_ENV, "runs")


# ----------------------------------------------------------------------
# Provenance helpers
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and getattr(value, "size", None) == 1:
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return repr(value)


def config_hash(config: Dict[str, Any]) -> str:
    """Stable short hash of a config dict (canonical-JSON sha256)."""
    canonical = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def dataset_fingerprint(dataset) -> Dict[str, Any]:
    """Id-space sizes plus a content digest of the training interactions.

    The digest hashes the train split's (user, item) arrays and the KG
    triple count, so two runs claiming the same profile but trained on
    different worlds (different generation seed) are distinguishable.
    """
    hasher = hashlib.sha256()
    train = dataset.train
    hasher.update(train.users.tobytes())
    hasher.update(train.items.tobytes())
    hasher.update(str(dataset.kg.n_triples).encode())
    return {
        "name": dataset.name,
        "n_users": int(dataset.n_users),
        "n_items": int(dataset.n_items),
        "n_entities": int(dataset.n_entities),
        "n_relations": int(dataset.n_relations),
        "n_train": int(len(train.users)),
        "digest": hasher.hexdigest()[:12],
    }


def capture_env() -> Dict[str, Any]:
    """Reproducibility-relevant environment: REPRO_* knobs, versions, and
    the host's CPU and BLAS-thread fingerprint (unset thread vars are None)."""
    import numpy

    knobs = {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "repro_env": knobs,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(affinity(0)) if affinity else os.cpu_count(),
        "threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def distill_trace(source) -> Dict[str, Dict[str, float]]:
    """Span summary from a live tracer, or by re-reading a ``trace.jsonl``.

    Accepts a :class:`~repro.obs.events.Tracer` (uses its in-memory
    :meth:`summary`), a path to a JSONL trace, or ``None``.
    """
    if source is None:
        return {}
    if hasattr(source, "summary"):
        return source.summary()
    out: Dict[str, Dict[str, float]] = {}
    path = Path(source)
    if not path.exists():
        return {}
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:  # crashed run: partial last line
                continue
            if event.get("kind") != "span_end":
                continue
            agg = out.setdefault(event["name"], {"count": 0, "total_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += float(event.get("dur", 0.0))
    for agg in out.values():
        agg["mean_s"] = agg["total_s"] / agg["count"]
    return out


# ----------------------------------------------------------------------
# Record + store
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One persisted experiment run (see module docstring for fields).

    ``metrics`` values may be scalars or per-trial lists; the sentinel
    compares means and bootstraps a confidence interval when both sides
    carry lists.
    """

    run_id: str = ""
    kind: str = "train"
    created_at: float = 0.0
    model: str = ""
    dataset: str = ""
    seed: int = 0
    config: Dict[str, Any] = field(default_factory=dict)
    config_hash: str = ""
    dataset_fingerprint: Dict[str, Any] = field(default_factory=dict)
    env: Dict[str, Any] = field(default_factory=dict)
    history: List[Dict[str, float]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0
    time_per_epoch_s: float = 0.0
    best_epoch: int = 0
    stopped_early: bool = False
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    anomalies: List[Dict[str, Any]] = field(default_factory=list)
    #: :class:`~repro.obs.memory.MemoryTracker` summary (peak/live bytes,
    #: per-op allocation attribution, per-phase watermarks, epoch-boundary
    #: leak ledger) — empty unless the run tracked memory.  The scalar
    #: ``peak_mem_bytes`` is duplicated into ``metrics`` so the sentinel
    #: gates it like any other metric.
    memory: Dict[str, Any] = field(default_factory=dict)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""
    format_version: int = FORMAT_VERSION

    # ------------------------------------------------------------------
    def metric_value(self, name: str) -> Optional[float]:
        """Scalar view of a metric (mean of per-trial lists)."""
        value = self.metrics.get(name)
        if value is None:
            return None
        if isinstance(value, (list, tuple)):
            return float(sum(value) / len(value)) if value else None
        return float(value)

    def metric_samples(self, name: str) -> Optional[List[float]]:
        """Per-trial samples when the metric was stored as a list."""
        value = self.metrics.get(name)
        if isinstance(value, (list, tuple)) and len(value) >= 2:
            return [float(v) for v in value]
        return None

    def to_json(self) -> Dict[str, Any]:
        return _jsonable(asdict(self))

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def index_entry(self) -> Dict[str, Any]:
        """The compact line appended to ``index.jsonl``."""
        headline = {
            k: self.metric_value(k)
            for k in list(self.metrics)[:4]
        }
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "model": self.model,
            "dataset": self.dataset,
            "seed": self.seed,
            "created_at": self.created_at,
            "config_hash": self.config_hash,
            "wall_time_s": round(self.wall_time_s, 3),
            "n_anomalies": len(self.anomalies),
            "n_failures": len(self.failures),
            "metrics": headline,
        }


class RunStore:
    """Append-only on-disk run registry (``<root>/<run_id>.json``)."""

    def __init__(self, root: Optional[str] = None):
        self.root = Path(root or default_runs_dir())

    # ------------------------------------------------------------------
    def new_run_id(self) -> str:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        return f"{stamp}-{uuid.uuid4().hex[:6]}"

    def path_of(self, run_id: str) -> Path:
        return self.root / f"{run_id}.json"

    def save(self, record: RunRecord) -> Path:
        """Persist a record; fills ``run_id``/``created_at`` when unset."""
        if not record.run_id:
            record.run_id = self.new_run_id()
        if not record.created_at:
            record.created_at = time.time()
        if not record.config_hash and record.config:
            record.config_hash = config_hash(record.config)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_of(record.run_id)
        if path.exists():
            raise FileExistsError(
                f"run {record.run_id!r} already recorded at {path} "
                "(the registry is append-only)"
            )
        atomic_write_text(path, json.dumps(record.to_json(), indent=1) + "\n")
        with (self.root / INDEX_FILE).open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.index_entry()) + "\n")
        return path

    # ------------------------------------------------------------------
    def list(
        self,
        kind: Optional[str] = None,
        model: Optional[str] = None,
        dataset: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Index entries (oldest first), optionally filtered."""
        index = self.root / INDEX_FILE
        if not index.exists():
            return []
        entries = []
        with index.open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                if kind and entry.get("kind") != kind:
                    continue
                if model and entry.get("model") != model:
                    continue
                if dataset and entry.get("dataset") != dataset:
                    continue
                entries.append(entry)
        return entries

    def load(self, run_id: str) -> RunRecord:
        path = self.path_of(run_id)
        if not path.exists():
            raise KeyError(f"run {run_id!r} not found under {self.root}")
        return RunRecord.from_json(json.loads(path.read_text()))

    def resolve(self, ref: str, kind: Optional[str] = None) -> RunRecord:
        """Load by exact id, unique id prefix, ``latest``/``latest~N``,
        or a path to a run JSON file (for committed baselines).

        An unknown, ambiguous or malformed ref raises ``KeyError`` naming it.
        """
        if os.path.sep in ref or ref.endswith(".json"):
            path = Path(ref)
            if path.exists():
                return RunRecord.from_json(json.loads(path.read_text()))
        if ref.startswith("latest"):
            head, _, raw = ref.partition("~")
            if head != "latest" or not (raw.isdigit() or raw == ""):
                raise KeyError(
                    f"malformed run ref {ref!r}; expected latest or latest~N"
                )
            offset = int(raw or 0)
            entries = self.list(kind=kind)
            if len(entries) <= offset:
                raise KeyError(
                    f"registry {self.root} has {len(entries)} run(s); "
                    f"cannot resolve {ref!r}"
                )
            return self.load(entries[-1 - offset]["run_id"])
        if self.path_of(ref).exists():
            return self.load(ref)
        matches = [
            e["run_id"] for e in self.list() if e["run_id"].startswith(ref)
        ]
        if len(matches) == 1:
            return self.load(matches[0])
        if not matches:
            raise KeyError(f"no run matches {ref!r} under {self.root}")
        raise KeyError(f"ambiguous run ref {ref!r}: {matches}")
