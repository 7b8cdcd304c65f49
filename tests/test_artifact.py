"""Fault injection for the one artifact format (``repro.utils.artifact``).

Every ``.npz`` kind — exact index, IVF index, checkpoint weights and the
prepared dataset — is written atomically and verified on load: a
truncated file, a flipped byte inside an array, or a ``__meta__`` edited
without its digest raises :class:`ArtifactError` naming the file.  A
writer that fails (or is SIGKILLed) leaves the previous file loadable.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.baselines import BPRMF
from repro.data import load_prepared, prepare
from repro.obs.sentinel import append_trajectory, load_trajectory
from repro.serve import TopKIndex, load_index
from repro.serve.checkpoint import load_checkpoint, read_manifest, save_checkpoint
from repro.serve.engine import engine_from_checkpoint
from repro.training import Trainer, TrainerConfig
from repro.utils.artifact import ArtifactError, load_npz, save_npz


# ----------------------------------------------------------------------
# Fault helpers (also used by tests/test_cli.py)
# ----------------------------------------------------------------------
def truncate(path) -> None:
    """Keep only the first half of the file."""
    raw = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(raw[: len(raw) // 2])


def flip_array_byte(path) -> None:
    """Flip one byte in the middle of the file's largest array's data."""
    with np.load(path) as payload:
        largest = max(
            (payload[name] for name in payload.files if name != "__meta__"),
            key=lambda arr: arr.nbytes,
        )
    raw = bytearray(open(path, "rb").read())
    start = raw.find(largest.tobytes())
    assert start >= 0 and largest.nbytes >= 8
    raw[start + largest.nbytes // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(raw))


def rewrite_meta(path, **changes) -> None:
    """Re-save the file with edited ``__meta__`` fields, keeping its sha256."""
    with np.load(path) as payload:
        arrays = {name: payload[name] for name in payload.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta.update(changes)
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


# ----------------------------------------------------------------------
# The four artifact kinds: each writer returns (npz path, loader)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def model(tiny_dataset):
    return BPRMF(tiny_dataset, dim=8, seed=1)


def _exact(tmp_path, model, dataset):
    path = TopKIndex.build(model).save(str(tmp_path / "index.npz"))
    return path, lambda: load_index(path)


def _ivf(tmp_path, model, dataset):
    ann = TopKIndex.build(
        model, mode="ann", ann_params={"nlist": 4, "nprobe": 4, "seed": 0}
    )
    path = ann.save(str(tmp_path / "ann.npz"))
    return path, lambda: load_index(path)


def _checkpoint(tmp_path, model, dataset):
    save_checkpoint(model, str(tmp_path / "ckpt"))
    path = str(tmp_path / "ckpt" / "weights.npz")
    return path, lambda: load_checkpoint(str(tmp_path / "ckpt"), dataset)


def _prepared(tmp_path, model, dataset):
    ratings = tmp_path / "ratings.txt"
    kg = tmp_path / "kg.txt"
    pairs = zip(dataset.train.users, dataset.train.items)
    ratings.write_text("".join(f"{u}\t{i}\t1\n" for u, i in pairs))
    kg.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in dataset.kg.triples))
    out = str(tmp_path / "prep")
    prepare(str(ratings), str(kg), out)
    return os.path.join(out, "prepared.npz"), lambda: load_prepared(out)


KINDS = {
    "exact-index": _exact,
    "ivf-index": _ivf,
    "checkpoint": _checkpoint,
    "prepared": _prepared,
}
FAULTS = {
    "truncated": truncate,
    "flipped-byte": flip_array_byte,
    "meta-edited": lambda path: rewrite_meta(path, edited=True),
}


@pytest.mark.parametrize("kind", KINDS)
def test_intact_artifact_loads(kind, model, tiny_dataset, tmp_path):
    _, load = KINDS[kind](tmp_path, model, tiny_dataset)
    load()


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kind", KINDS)
def test_corrupt_artifact_is_rejected_naming_the_file(
    kind, fault, model, tiny_dataset, tmp_path
):
    path, load = KINDS[kind](tmp_path, model, tiny_dataset)
    FAULTS[fault](path)
    with pytest.raises(ArtifactError, match=re.escape(path)):
        load()


def test_meta_edit_fails_the_digest(tmp_path):
    path = str(tmp_path / "a.npz")
    save_npz(path, {"x": np.arange(4)}, {"kind": "demo", "note": "a"})
    rewrite_meta(path, note="b")
    with pytest.raises(ArtifactError, match="sha256 fingerprint mismatch"):
        load_npz(path, "demo")


def test_check_order_is_kind_format_digest(tmp_path):
    path = str(tmp_path / "a.npz")
    save_npz(path, {"x": np.arange(4)}, {"kind": "demo"})
    rewrite_meta(path, format=99)
    with pytest.raises(ArtifactError, match="kind 'demo', expected 'other'"):
        load_npz(path, "other")
    with pytest.raises(ArtifactError, match="format 99"):
        load_npz(path, "demo")


def test_missing_file_is_file_not_found_naming_it(tmp_path):
    path = str(tmp_path / "absent.npz")
    with pytest.raises(FileNotFoundError, match=re.escape(path)):
        load_npz(path, "demo")


def test_digest_is_a_function_of_content(tmp_path):
    arrays = {"b": np.arange(6.0).reshape(2, 3), "a": np.array([1, 2], np.int32)}
    first = save_npz(str(tmp_path / "1.npz"), arrays, {"kind": "demo"})
    reordered = dict(reversed(arrays.items()))
    second = save_npz(str(tmp_path / "2.npz"), reordered, {"kind": "demo"})
    assert first == second
    arrays["a"] = arrays["a"].astype(np.int64)
    assert save_npz(str(tmp_path / "3.npz"), arrays, {"kind": "demo"}) != first
    loaded, meta = load_npz(str(tmp_path / "2.npz"), "demo")
    assert meta["sha256"] == first
    for name, value in arrays.items():
        np.testing.assert_array_equal(loaded[name], value)


def test_two_exports_at_one_seed_share_a_digest(tiny_dataset, tmp_path):
    digests = []
    for run in ("a", "b"):
        model = BPRMF(tiny_dataset, dim=8, seed=3)
        Trainer(model, TrainerConfig(epochs=1, eval_task="none", seed=0)).fit()
        save_checkpoint(model, str(tmp_path / run), index=TopKIndex.build(model))
        digests.append(read_manifest(str(tmp_path / run))["sha256"])
    assert digests[0] == digests[1]


def test_index_from_another_export_is_rejected(model, tiny_dataset, tmp_path):
    save_checkpoint(model, str(tmp_path / "ckpt"), index=TopKIndex.build(model))
    other = BPRMF(tiny_dataset, dim=8, seed=2)
    TopKIndex.build(other).save(str(tmp_path / "ckpt" / "index.npz"))
    with pytest.raises(ArtifactError, match="index.npz: sha256"):
        engine_from_checkpoint(str(tmp_path / "ckpt"), dataset=tiny_dataset)


# ----------------------------------------------------------------------
# Crash safety of the writers
# ----------------------------------------------------------------------
def test_save_npz_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "a.npz"
    save_npz(str(path), {"x": np.arange(8)}, {"kind": "demo"})
    before = path.read_bytes()

    def disk_full(handle, **arrays):
        handle.write(b"PK\x03\x04 half a zip")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "savez", disk_full)
    with pytest.raises(OSError, match="No space"):
        save_npz(str(path), {"x": np.arange(1000)}, {"kind": "demo"})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["a.npz"]


def test_append_trajectory_failing_midway_keeps_the_history(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_demo.json"
    append_trajectory(path, {"run_id": "r1", "metrics": {"m": 1.0}})
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError, match="No space"):
        append_trajectory(path, {"run_id": "r2", "metrics": {"m": 2.0}})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["BENCH_demo.json"]
    assert [entry["run_id"] for entry in load_trajectory(path)] == ["r1"]


_REWRITE_LOOP = """
import sys
import numpy as np
from repro.utils.artifact import save_npz

path = sys.argv[1]
versions = [np.full(200_000, v, dtype=np.int64) for v in (0, 1)]
n = 0
while True:
    save_npz(path, {"x": versions[n % 2]}, {"kind": "loop", "version": n % 2})
    if n == 0:
        print("ready", flush=True)
    n += 1
"""


def test_sigkill_during_rewrites_leaves_old_or_new(tmp_path):
    path = str(tmp_path / "target.npz")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-c", _REWRITE_LOOP, path],
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline().strip() == b"ready"
        time.sleep(0.3)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    arrays, meta = load_npz(path, "loop")
    assert meta["version"] in (0, 1)
    np.testing.assert_array_equal(
        arrays["x"], np.full(200_000, meta["version"], dtype=np.int64)
    )
