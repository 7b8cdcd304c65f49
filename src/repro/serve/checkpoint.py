"""Model checkpointing: one verified ``weights.npz`` artifact.

A checkpoint is a directory whose ``weights.npz`` (:mod:`repro.utils.artifact`)
holds:

* every trainable parameter (``param/<dotted name>`` keys from
  :meth:`Module.state_dict`) plus the model's ``extra_state`` arrays
  (``extra/<key>``), stored bit-exactly in their native dtypes;
* as its meta, the *manifest* — everything needed to rebuild the model
  *object* before loading weights into it: the registry key, the
  constructor config (:meth:`Recommender.export_config`), the seed, a
  dataset fingerprint (id-space sizes, checked on restore), the sha256 of
  a shipped ``index.npz``, and optionally the spec of the synthetic
  profile / data directory the model was trained on so ``repro serve``
  can reconstruct the dataset by itself.

Restore order matters: the constructor draws fresh random parameters and
resamples neighborhoods, then :func:`load_checkpoint` overwrites both
with the saved arrays — so a loaded model reproduces the original's
``predict`` output exactly (test-enforced for every model class).
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.baselines import MODEL_KEYS, make_baseline, model_key
from repro.baselines.base import Recommender
from repro.data.dataset import RecDataset
from repro.utils.artifact import load_npz, save_npz

WEIGHTS_FILE = "weights.npz"
#: Optional prebuilt retrieval index (``TopKIndex.save``/``IVFIndex.save``)
#: shipped next to the weights so ``repro serve`` boots without rebuilding.
INDEX_FILE = "index.npz"


def model_key_of(model: Recommender) -> str:
    """Registry key for a model instance (e.g. ``CGKGR`` -> ``cg-kgr``)."""
    for key, class_name in MODEL_KEYS.items():
        if class_name == type(model).__name__:
            return key
    raise ValueError(
        f"{type(model).__name__} is not a registered model class; "
        f"known: {sorted(MODEL_KEYS.values())}"
    )


def build_model(
    key: str, dataset: RecDataset, seed: int, config: Optional[dict] = None
) -> Recommender:
    """Instantiate a model from its registry key and exported config."""
    from repro.core import CGKGR, CGKGRConfig

    config = dict(config or {})
    if model_key(key) == "cg-kgr":
        return CGKGR(dataset, CGKGRConfig(**config), seed=seed)
    return make_baseline(key, dataset, seed=seed, **config)


def _dataset_fingerprint(dataset: RecDataset) -> Dict[str, object]:
    return {
        "name": dataset.name,
        "n_users": dataset.n_users,
        "n_items": dataset.n_items,
        "n_entities": dataset.n_entities,
        "n_relations": dataset.n_relations,
    }


# ----------------------------------------------------------------------
def save_checkpoint(
    model: Recommender,
    path: str,
    dataset_spec: Optional[dict] = None,
    metrics: Optional[Dict[str, float]] = None,
    index=None,
) -> str:
    """Write ``<path>/weights.npz`` with the manifest as its meta.

    ``dataset_spec`` records how to rebuild the training dataset, e.g.
    ``{"profile": "music", "seed": 0, "scale": 1.0}`` for a synthetic
    profile or ``{"data_dir": "...", "seed": 0}`` for exported files;
    without it, :func:`load_checkpoint` requires an explicit dataset.

    ``index`` (a built :class:`~repro.serve.index.TopKIndex` or
    :class:`~repro.serve.ann.IVFIndex`) is additionally serialized to
    ``<path>/index.npz`` and summarized in the manifest, so
    :func:`~repro.serve.engine.engine_from_checkpoint` can skip the
    index build at boot.  The index is written first, so a crash between
    the two files leaves weights whose digest of it rejects the new one.
    """
    index_summary = None
    if index is not None:
        index_summary = {
            "mode": index.mode,
            "indexed_users": index.n_indexed_users,
            "memory_bytes": index.memory_bytes(),
            "stats": getattr(index, "stats", None) or {},
            "sha256": save_npz(os.path.join(path, INDEX_FILE), *index._artifact()),
        }
    arrays: Dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[f"param/{name}"] = value
    extra = model.extra_state()
    for key, value in (extra or {}).items():
        if not isinstance(value, np.ndarray):
            raise TypeError(
                f"extra_state()[{key!r}] is {type(value).__name__}, not an "
                "ndarray; checkpointing requires array-valued extra state"
            )
        arrays[f"extra/{key}"] = value
    manifest = {
        "kind": "checkpoint",
        "model_key": model_key_of(model),
        "model_name": model.name,
        "model_config": model.export_config(),
        "seed": model.seed,
        "dataset": _dataset_fingerprint(model.dataset),
        "dataset_spec": dataset_spec,
        "metrics": metrics or {},
        "n_parameters": model.num_parameters(),
        "index": index_summary,
    }
    save_npz(os.path.join(path, WEIGHTS_FILE), arrays, manifest)
    return path


def read_manifest(path: str) -> dict:
    """The verified manifest (meta) of ``<path>/weights.npz``."""
    return load_npz(os.path.join(path, WEIGHTS_FILE), "checkpoint")[1]


def dataset_from_spec(spec: dict) -> RecDataset:
    """Rebuild the dataset described by a manifest's ``dataset_spec``."""
    from repro.data import generate_profile
    from repro.data.loaders import load_dataset_dir

    if "profile" in spec:
        return generate_profile(
            spec["profile"],
            seed=int(spec.get("seed", 0)),
            scale=float(spec.get("scale", 1.0)),
        )
    if "data_dir" in spec:
        return load_dataset_dir(spec["data_dir"], split_seed=int(spec.get("seed", 0)))
    raise ValueError(
        f"dataset_spec needs a 'profile' or 'data_dir' key, got {sorted(spec)}"
    )


def load_checkpoint(
    path: str, dataset: Optional[RecDataset] = None
) -> Recommender:
    """Rebuild the checkpointed model and restore its state bit-exactly.

    With ``dataset=None`` the manifest's ``dataset_spec`` is used to
    regenerate the dataset (synthetic profiles are deterministic given
    profile/seed/scale, so id spaces line up exactly).  The returned
    model carries the verified manifest as ``model.manifest``, so a
    caller that needs it does not read ``weights.npz`` a second time.
    """
    arrays, manifest = load_npz(os.path.join(path, WEIGHTS_FILE), "checkpoint")
    if dataset is None:
        spec = manifest.get("dataset_spec")
        if not spec:
            raise ValueError(
                "checkpoint has no dataset_spec; pass the dataset explicitly"
            )
        dataset = dataset_from_spec(spec)

    expected = manifest["dataset"]
    actual = _dataset_fingerprint(dataset)
    for key in ("n_users", "n_items", "n_entities", "n_relations"):
        if actual[key] != expected[key]:
            raise ValueError(
                f"dataset mismatch: checkpoint was trained with "
                f"{key}={expected[key]}, got {key}={actual[key]}"
            )

    model = build_model(
        manifest["model_key"],
        dataset,
        seed=int(manifest["seed"]),
        config=manifest["model_config"],
    )

    params = {
        key[len("param/") :]: value
        for key, value in arrays.items()
        if key.startswith("param/")
    }
    extra = {
        key[len("extra/") :]: value
        for key, value in arrays.items()
        if key.startswith("extra/")
    }
    model.load_state_dict(params)
    if extra:
        model.load_extra_state(extra)
    model.manifest = manifest
    return model
