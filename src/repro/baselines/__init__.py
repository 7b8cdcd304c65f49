"""Baseline recommenders (Sec. IV-B), all built on the same autograd
engine, trainer and metrics as CG-KGR:

* CF-based: :class:`BPRMF`, :class:`NFM`;
* regularization-based: :class:`CKE`, :class:`KGAT`;
* propagation-based: :class:`RippleNet`, :class:`KGCN`, :class:`KGNNLS`,
  :class:`CKAN`;
* extra GNN-CF references beyond the paper's line-up: :class:`LightGCN`,
  :class:`NGCF` (the intro's "GNN methods simulating the CF process").
"""

from repro.baselines.base import Recommender
from repro.baselines.bprmf import BPRMF
from repro.baselines.nfm import NFM
from repro.baselines.cke import CKE
from repro.baselines.kgat import KGAT
from repro.baselines.ripplenet import RippleNet
from repro.baselines.kgcn import KGCN
from repro.baselines.kgnn_ls import KGNNLS
from repro.baselines.ckan import CKAN
from repro.baselines.lightgcn import LightGCN
from repro.baselines.ngcf import NGCF

__all__ = [
    "Recommender",
    "BPRMF",
    "NFM",
    "CKE",
    "KGAT",
    "RippleNet",
    "KGCN",
    "KGNNLS",
    "CKAN",
    "LightGCN",
    "NGCF",
    "MODEL_KEYS",
    "model_key",
    "make_baseline",
]


#: The one model-name table: registry key -> model class name, read by
#: :func:`make_baseline`, ``repro --model`` and checkpoint manifests
#: (:func:`repro.serve.checkpoint.model_key_of` inverts it).  CG-KGR is
#: the paper's model in :mod:`repro.core`, not a baseline.
MODEL_KEYS = {
    "cg-kgr": "CGKGR",
    "bprmf": "BPRMF",
    "nfm": "NFM",
    "cke": "CKE",
    "kgat": "KGAT",
    "ripplenet": "RippleNet",
    "kgcn": "KGCN",
    "kgnn-ls": "KGNNLS",
    "ckan": "CKAN",
    "lightgcn": "LightGCN",
    "ngcf": "NGCF",
}


def model_key(name: str) -> str:
    """Registry key of a model name, ignoring case and dashes
    (``KGNNLS`` and ``cgkgr`` name ``kgnn-ls`` and ``cg-kgr``)."""
    wanted = name.lower().replace("-", "")
    for key in MODEL_KEYS:
        if key.replace("-", "") == wanted:
            return key
    raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_KEYS)}")


def make_baseline(name: str, dataset, seed: int = 0, **kwargs) -> Recommender:
    """Instantiate a baseline by its paper name (case-insensitive)."""
    key = model_key(name)
    if key == "cg-kgr":
        raise ValueError(f"{name!r} is the paper's model, not a baseline")
    # Every baseline class is imported above under its class name.
    return globals()[MODEL_KEYS[key]](dataset, seed=seed, **kwargs)
