"""Persistent experiment-run registry (``repro.obs.runs``).

A :class:`RunStore` is an append-only on-disk registry of experiment
runs: each run is one JSON document under ``<root>/<run_id>.json``, and
that file is the registry's only record of it.  A :class:`RunRecord`
captures everything needed to compare two runs months
apart without re-reading logs:

* identity — run id, kind (``train`` / ``bench``), creation time;
* provenance — config + its hash, dataset fingerprint, seed, and the
  environment (``REPRO_*`` knobs, numpy/python versions, platform);
* outcome — per-epoch history from ``Trainer.fit``, final metrics
  (scalars or per-trial lists, which the regression sentinel bootstraps),
  wall time, and the run tracer's span summary;
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
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.events import _jsonable
from repro.utils.artifact import ArtifactError, atomic_write_text

__all__ = [
    "RunRecord",
    "RunStore",
    "config_hash",
    "dataset_fingerprint",
    "capture_env",
    "default_runs_dir",
]

FORMAT_VERSION = 1

#: Environment variable overriding the default registry location.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"


def default_runs_dir() -> str:
    """Registry root: ``$REPRO_RUNS_DIR`` or ``./runs``."""
    return os.environ.get(RUNS_DIR_ENV, "runs")


# ----------------------------------------------------------------------
# Provenance helpers
# ----------------------------------------------------------------------
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

    def to_json(self) -> Dict[str, Any]:
        return _jsonable(asdict(self))

    @classmethod
    def from_json(cls, payload: Dict[str, Any], where: str = "run record") -> "RunRecord":
        """A record from its JSON object.  A known field of the wrong JSON
        type raises :class:`~repro.utils.artifact.ArtifactError` naming
        *where* and the field; unknown fields (older schemas) are ignored."""
        known = {}
        for spec in fields(cls):
            if spec.name not in payload:
                continue
            value = payload[spec.name]
            kind = type(spec.default if spec.default_factory is MISSING
                        else spec.default_factory())
            if not _has_json_type(value, kind):
                got = _JSON_NAMES.get(type(value), type(value).__name__)
                raise ArtifactError(
                    f"{where}: field {spec.name!r} must be {_JSON_NAMES[kind]}, got {got}"
                )
            known[spec.name] = value
        for name, value in known.get("metrics", {}).items():
            samples = value if isinstance(value, list) else [value]
            if not all(_has_json_type(v, float) for v in samples):
                raise ArtifactError(
                    f"{where}: field 'metrics' entry {name!r} must be a number "
                    "or an array of numbers"
                )
        return cls(**known)


_JSON_NAMES = {
    str: "a string", float: "a number", int: "an integer", bool: "a boolean",
    dict: "an object", list: "an array", type(None): "null",
}


def _has_json_type(value: Any, kind: type) -> bool:
    """Whether *value* is a JSON value of Python type *kind*: a float field
    takes any number (NaN and inf included), and a bool is no number."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _read_object(raw: bytes, where: str) -> Dict[str, Any]:
    """One JSON object from *raw*; anything else raises
    :class:`~repro.utils.artifact.ArtifactError` naming *where*."""
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise ArtifactError(f"{where}: not a JSON object ({exc})") from None
    if not isinstance(payload, dict):
        raise ArtifactError(f"{where}: not a JSON object (a {type(payload).__name__})")
    return payload


def _read_record(path: Path) -> RunRecord:
    return RunRecord.from_json(_read_object(path.read_bytes(), str(path)), str(path))


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
        return path

    # ------------------------------------------------------------------
    def list(self, kind: Optional[str] = None) -> List[RunRecord]:
        """Every recorded run, optionally of one kind, oldest first by
        ``(created_at, run_id)``."""
        records = [_read_record(path) for path in self.root.glob("*.json")]
        records.sort(key=lambda r: (r.created_at, r.run_id))
        return [r for r in records if kind is None or r.kind == kind]

    def load(self, run_id: str) -> RunRecord:
        path = self.path_of(run_id)
        if not path.exists():
            raise KeyError(f"run {run_id!r} not found under {self.root}")
        return _read_record(path)

    def resolve(self, ref: str, kind: Optional[str] = None) -> RunRecord:
        """Load by exact id, unique id prefix, ``latest``/``latest~N``,
        or a path to a run JSON file (for committed baselines).

        An unknown, ambiguous or malformed ref raises ``KeyError`` naming it;
        a record file that is not a JSON object, or has a field of the
        wrong type, raises :class:`~repro.utils.artifact.ArtifactError`
        naming the file.
        """
        if os.path.sep in ref or ref.endswith(".json"):
            path = Path(ref)
            if path.exists():
                return _read_record(path)
        if ref.startswith("latest"):
            head, _, raw = ref.partition("~")
            if head != "latest" or not (raw.isdigit() or raw == ""):
                raise KeyError(
                    f"malformed run ref {ref!r}; expected latest or latest~N"
                )
            offset = int(raw or 0)
            records = self.list(kind=kind)
            if len(records) <= offset:
                raise KeyError(
                    f"registry {self.root} has {len(records)} run(s); "
                    f"cannot resolve {ref!r}"
                )
            return records[-1 - offset]
        if self.path_of(ref).exists():
            return self.load(ref)
        matches = [r for r in self.list() if r.run_id.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no run matches {ref!r} under {self.root}")
        raise KeyError(f"ambiguous run ref {ref!r}: {[r.run_id for r in matches]}")
