"""The one on-disk artifact format: self-describing, atomic, verified.

Every ``.npz`` the package writes — checkpoint weights, retrieval
indexes, prepared datasets, module state — holds its arrays plus a
``__meta__`` JSON record of ``kind``, ``format``, ``sha256`` and the
writer's own fields.  The digest is a sha256 over the canonical JSON of
the meta (without ``sha256``) and every array in sorted name order
(name, ``dtype.str``, shape, C-order bytes), so it is deterministic
across machines even though the zip bytes are not.  Writes are atomic,
so a crash leaves either the old file or the new one.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from typing import Callable, Dict, Tuple, Union

import numpy as np

FORMAT = 1
META_KEY = "__meta__"


class ArtifactError(ValueError):
    """A file exists but is not the artifact the caller asked for."""


def _canonical(meta: Dict) -> str:
    return json.dumps(meta, sort_keys=True, separators=(",", ":"))


def _digest(arrays: Dict[str, np.ndarray], meta: Dict) -> str:
    hasher = hashlib.sha256(_canonical(meta).encode())
    for name in sorted(arrays):
        arr = arrays[name]
        hasher.update(f"\0{name}\0{arr.dtype.str}\0{arr.shape}\0".encode())
        hasher.update(arr.tobytes())
    return hasher.hexdigest()


def _atomic_write(path: str, write: Callable) -> None:
    """Run ``write(handle)`` on a sibling temp file, fsync, then replace."""
    parent, name = os.path.split(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    handle = open(tmp, "xb")
    try:
        with handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` so readers never see a partial file."""
    _atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))


def save_npz(path: str, arrays: Dict[str, np.ndarray], meta: Dict) -> str:
    """Atomically write ``arrays`` + ``meta`` (which names its ``kind``).

    Returns the sha256 recorded in the file's ``__meta__``.
    """
    arrays = {name: np.asarray(value) for name, value in arrays.items()}
    record = {**meta, "format": FORMAT}
    record["sha256"] = _digest(arrays, record)
    payload = {META_KEY: np.array(_canonical(record)), **arrays}
    _atomic_write(path, lambda handle: np.savez(handle, **payload))
    return record["sha256"]


def load_npz(
    path: str, kind: Union[str, Tuple[str, ...]]
) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Read and verify an artifact of ``kind`` (or one of several kinds).

    Returns ``(arrays, meta)``.  A missing file raises
    :class:`FileNotFoundError`; anything else wrong raises
    :class:`ArtifactError` naming the file and the failed check.
    """
    kinds = (kind,) if isinstance(kind, str) else kind
    try:
        with np.load(path) as payload:
            arrays = {name: payload[name] for name in payload.files}
        meta = json.loads(str(arrays.pop(META_KEY)))
    except FileNotFoundError:
        raise FileNotFoundError(f"{path}: no such file") from None
    except Exception as exc:
        raise ArtifactError(f"{path}: unreadable artifact ({exc})") from exc
    if meta.get("kind") not in kinds:
        raise ArtifactError(f"{path}: kind {meta.get('kind')!r}, expected {kind!r}")
    if meta.get("format") != FORMAT:
        raise ArtifactError(
            f"{path}: format {meta.get('format')!r}, expected {FORMAT}"
        )
    recorded = meta.pop("sha256", None)
    if _digest(arrays, meta) != recorded:
        raise ArtifactError(f"{path}: sha256 fingerprint mismatch")
    meta["sha256"] = recorded
    return arrays, meta
