"""Dataset-preparation pipeline over the official ratings/kg text formats.

Real releases of the KGCN-family benchmarks ship ``ratings.txt`` /
``kg.txt`` files with sparse, non-contiguous ids, rare relations, long-tail
users, and KG regions unreachable from any item.  This module turns such a
pair of files into a clean, deterministic, serialized benchmark the rest of
the repo consumes directly (the RecBole ``kg_dataset`` recipe):

1. **parse + dedup** — read both files through the loaders' strict parser
   (path:lineno errors), keep positive ratings only, drop duplicate pairs
   and triples;
2. **relation filter** — drop relations with fewer than
   ``min_relation_count`` triples;
3. **k-core** — iteratively drop users/items below the interaction minima
   until the interaction graph is stable;
4. **link** — treat surviving item ids as KG seed entities and walk the
   triple set outwards (``max_kg_hops`` rounds, or to closure); triples
   never reached — *orphan triples* — are dropped, and with them entities
   only they referenced;
5. **remap** — contiguous ids for users, items, entities and relations,
   with items occupying the first entity ids (``I ⊆ E``, Sec. II) and the
   original→new vocab maps persisted alongside the arrays;
6. **split + serialize** — 6:2:2 split under ``split_seed``, written as
   one ``prepared.npz`` artifact (:mod:`repro.utils.artifact`) whose meta
   is the manifest; its ``fingerprint`` is a sha256 over the config and
   every output array, so byte-identical inputs and config produce
   byte-identical prepared datasets.

``load_prepared`` reads such a directory back into a :class:`RecDataset`
(the artifact digest is verified on every load), and ``repro prep``
exposes the pipeline on the command line.  See docs/data.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.dataset import RecDataset
from repro.data.splits import split_interactions
from repro.graph.interactions import InteractionGraph
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.utils.artifact import atomic_write_text, load_npz, save_npz

ARRAYS_FILENAME = "prepared.npz"
VOCAB_FILENAME = "vocab.json"

#: Serialization order of the prepared arrays — part of the fingerprint
#: definition, so it must never be reordered silently.
_ARRAY_KEYS = (
    "train_users",
    "train_items",
    "valid_users",
    "valid_items",
    "test_users",
    "test_items",
    "kg_triples",
    "user_ids",
    "item_ids",
    "entity_ids",
    "relation_ids",
)


@dataclass
class PrepConfig:
    """Knobs of the preparation pipeline (all recorded in the manifest)."""

    #: k-core minima: users/items with fewer interactions are dropped
    #: (iterated to a fixed point).  1 keeps everything.
    min_user_interactions: int = 1
    min_item_interactions: int = 1
    #: Relations appearing in fewer triples than this are dropped.
    min_relation_count: int = 1
    #: Entity-linking radius: KG expansion rounds from the item seed set.
    #: ``None`` walks to closure (only disconnected triples are orphans).
    max_kg_hops: Optional[int] = None
    #: Interaction split seed and ratios (the paper's 6:2:2 protocol).
    split_seed: int = 0
    split_ratios: Tuple[float, float, float] = (0.6, 0.2, 0.2)
    #: Dataset name recorded in the manifest (defaults to the directory).
    name: str = "prepared"

    def __post_init__(self) -> None:
        if self.min_user_interactions < 1 or self.min_item_interactions < 1:
            raise ValueError("k-core minima must be >= 1")
        if self.min_relation_count < 1:
            raise ValueError("min_relation_count must be >= 1")
        if self.max_kg_hops is not None and self.max_kg_hops < 0:
            raise ValueError("max_kg_hops must be >= 0 (or None)")

    def to_json(self) -> Dict:
        return {
            "min_user_interactions": int(self.min_user_interactions),
            "min_item_interactions": int(self.min_item_interactions),
            "min_relation_count": int(self.min_relation_count),
            "max_kg_hops": (
                None if self.max_kg_hops is None else int(self.max_kg_hops)
            ),
            "split_seed": int(self.split_seed),
            "split_ratios": [float(r) for r in self.split_ratios],
            "name": str(self.name),
        }


@dataclass
class PrepResult:
    """Outcome of :func:`prepare_dataset`, ready to serialize or use."""

    dataset: RecDataset
    #: Original id per new id, one array per vocabulary.
    user_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    item_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    entity_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    relation_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: Per-stage drop accounting for the manifest.
    stats: Dict[str, int] = field(default_factory=dict)
    config: Optional[PrepConfig] = None


# ----------------------------------------------------------------------
# Pipeline stages (each independently unit-testable)
# ----------------------------------------------------------------------

def filter_relations(
    triples: np.ndarray, min_relation_count: int
) -> Tuple[np.ndarray, int]:
    """Drop triples whose relation occurs fewer than ``min_count`` times.

    Returns ``(kept_triples, n_relations_dropped)``.
    """
    if min_relation_count <= 1 or not len(triples):
        return triples, 0
    relations = triples[:, 1]
    counts = np.bincount(relations)
    keep_relation = counts >= min_relation_count
    kept = triples[keep_relation[relations]]
    n_dropped = int(np.count_nonzero(~keep_relation[: counts.size] & (counts > 0)))
    return kept, n_dropped


def kcore_filter(
    pairs: np.ndarray, min_user: int, min_item: int
) -> np.ndarray:
    """Iterative k-core pruning of a ``(n, 2)`` (user, item) pair array.

    Alternately drops users with fewer than ``min_user`` and items with
    fewer than ``min_item`` surviving interactions until a fixed point —
    one side's drops can push the other side under its minimum, so a
    single pass is not enough (the classic k-core iteration).
    """
    if (min_user <= 1 and min_item <= 1) or not len(pairs):
        return pairs
    kept = pairs
    while True:
        before = len(kept)
        if min_user > 1 and len(kept):
            degrees = np.bincount(kept[:, 0])
            kept = kept[degrees[kept[:, 0]] >= min_user]
        if min_item > 1 and len(kept):
            degrees = np.bincount(kept[:, 1])
            kept = kept[degrees[kept[:, 1]] >= min_item]
        if len(kept) == before:
            return kept


def link_items_to_kg(
    triples: np.ndarray,
    item_ids: np.ndarray,
    max_hops: Optional[int] = None,
) -> np.ndarray:
    """Keep triples reachable from the item seed set; drop orphans.

    Expansion treats edges as bidirectional, matching the adjacency the
    propagation models traverse (:class:`KnowledgeGraph` stores reverse
    edges).  Each round keeps every not-yet-kept triple with at least one
    reachable endpoint and marks both endpoints reachable; ``max_hops``
    bounds the rounds (``None`` runs to closure).  Triples never reached
    are *orphans* — KG islands no item-anchored receptive field can see —
    and are dropped along with entities only they mention.
    """
    if not len(triples) or not len(item_ids):
        return triples[:0]
    heads = triples[:, 0]
    tails = triples[:, 2]
    n_nodes = int(max(heads.max(), tails.max(), item_ids.max())) + 1
    reachable = np.zeros(n_nodes, dtype=bool)
    reachable[item_ids] = True
    kept = np.zeros(len(triples), dtype=bool)
    hops = 0
    while max_hops is None or hops < max_hops:
        fresh = ~kept & (reachable[heads] | reachable[tails])
        if not fresh.any():
            break
        kept |= fresh
        reachable[heads[fresh]] = True
        reachable[tails[fresh]] = True
        hops += 1
    return triples[kept]


def _contiguous_map(original_ids: np.ndarray) -> np.ndarray:
    """Sorted-unique original ids; position in the array is the new id."""
    return np.unique(np.asarray(original_ids, dtype=np.int64))


def _apply_map(sorted_ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Original ids → new contiguous ids via searchsorted on the vocab."""
    return np.searchsorted(sorted_ids, np.asarray(values, dtype=np.int64))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def prepare_dataset(
    ratings_path: str,
    kg_path: str,
    config: Optional[PrepConfig] = None,
) -> PrepResult:
    """Run the full pipeline over a ratings/kg file pair."""
    from repro.data.loaders import _parse_int_lines

    config = config or PrepConfig()

    # --- parse + dedup -------------------------------------------------
    rating_rows = _parse_int_lines(ratings_path, 3)
    for lineno, (u, i, _) in rating_rows:
        if u < 0 or i < 0:
            raise ValueError(
                f"{ratings_path}:{lineno}: negative id (user={u}, item={i})"
            )
    raw_pairs = [(u, i) for _, (u, i, label) in rating_rows if label == 1]
    pairs_list = list(dict.fromkeys(raw_pairs))
    if not pairs_list:
        raise ValueError(f"{ratings_path}: no positive interactions found")
    kg_rows = _parse_int_lines(kg_path, 3)
    for lineno, (h, r, t) in kg_rows:
        if h < 0 or r < 0 or t < 0:
            raise ValueError(
                f"{kg_path}:{lineno}: negative id in triple ({h}, {r}, {t})"
            )
    raw_triples = [fields for _, fields in kg_rows]
    triples_list = list(dict.fromkeys(raw_triples))
    pairs = np.asarray(pairs_list, dtype=np.int64)
    triples = np.asarray(triples_list, dtype=np.int64)
    stats: Dict[str, int] = {
        "ratings_lines": len(rating_rows),
        "duplicate_pairs_dropped": len(raw_pairs) - len(pairs_list),
        "kg_lines": len(kg_rows),
        "duplicate_triples_dropped": len(raw_triples) - len(triples_list),
    }

    # --- relation filter ----------------------------------------------
    triples, n_rel_dropped = filter_relations(
        triples, config.min_relation_count
    )
    stats["relations_dropped"] = n_rel_dropped

    # --- k-core ---------------------------------------------------------
    kept_pairs = kcore_filter(
        pairs, config.min_user_interactions, config.min_item_interactions
    )
    stats["kcore_pairs_dropped"] = len(pairs) - len(kept_pairs)
    if not len(kept_pairs):
        raise ValueError(
            f"{ratings_path}: k-core pruning "
            f"(min_user={config.min_user_interactions}, "
            f"min_item={config.min_item_interactions}) removed every "
            "interaction; relax the minima"
        )

    # --- link + orphan drop ---------------------------------------------
    surviving_items = np.unique(kept_pairs[:, 1])
    linked_triples = link_items_to_kg(
        triples, surviving_items, config.max_kg_hops
    )
    stats["orphan_triples_dropped"] = len(triples) - len(linked_triples)

    # --- contiguous remap ------------------------------------------------
    user_ids = _contiguous_map(kept_pairs[:, 0])
    item_ids = _contiguous_map(kept_pairs[:, 1])
    # Entities: the surviving items first (same order as the item vocab,
    # preserving I ⊆ E id alignment), then every other linked entity.
    if len(linked_triples):
        kg_entities = np.unique(linked_triples[:, [0, 2]])
    else:
        kg_entities = np.empty(0, dtype=np.int64)
    extra_entities = np.setdiff1d(kg_entities, item_ids, assume_unique=True)
    entity_ids = np.concatenate([item_ids, extra_entities])
    relation_ids = (
        _contiguous_map(linked_triples[:, 1])
        if len(linked_triples)
        else np.empty(0, dtype=np.int64)
    )
    new_pairs = np.stack(
        [
            _apply_map(user_ids, kept_pairs[:, 0]),
            _apply_map(item_ids, kept_pairs[:, 1]),
        ],
        axis=1,
    )
    if len(linked_triples):
        # Entity new-ids: items occupy 0..I-1 (their item_ids position);
        # the extra entities continue from I in sorted-original order.
        # `entity_ids` itself is not sorted (items first), so map through
        # an argsort: new_id = order[rank of original id].
        order = np.argsort(entity_ids, kind="stable")
        sorted_entities = entity_ids[order]

        def map_entities(values: np.ndarray) -> np.ndarray:
            return order[np.searchsorted(sorted_entities, values)]

        new_triples = np.stack(
            [
                map_entities(linked_triples[:, 0]),
                _apply_map(relation_ids, linked_triples[:, 1]),
                map_entities(linked_triples[:, 2]),
            ],
            axis=1,
        )
    else:
        new_triples = np.empty((0, 3), dtype=np.int64)

    # --- split -----------------------------------------------------------
    interactions = InteractionGraph(
        new_pairs, n_users=len(user_ids), n_items=len(item_ids)
    )
    splits = split_interactions(
        interactions, seed=config.split_seed, ratios=config.split_ratios
    )
    kg = KnowledgeGraph(
        new_triples,
        n_entities=max(len(entity_ids), len(item_ids)),
        n_relations=len(relation_ids),
    )
    dataset = RecDataset(
        name=config.name,
        n_users=len(user_ids),
        n_items=len(item_ids),
        kg=kg,
        splits=splits,
    )
    return PrepResult(
        dataset=dataset,
        user_ids=user_ids,
        item_ids=item_ids,
        entity_ids=entity_ids,
        relation_ids=relation_ids,
        stats=stats,
        config=config,
    )


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def _result_arrays(result: PrepResult) -> Dict[str, np.ndarray]:
    ds = result.dataset
    return {
        "train_users": ds.train.users,
        "train_items": ds.train.items,
        "valid_users": ds.valid.users,
        "valid_items": ds.valid.items,
        "test_users": ds.test.users,
        "test_items": ds.test.items,
        "kg_triples": ds.kg.triples.reshape(-1, 3),
        "user_ids": result.user_ids,
        "item_ids": result.item_ids,
        "entity_ids": result.entity_ids,
        "relation_ids": result.relation_ids,
    }


def prepared_fingerprint(arrays: Dict[str, np.ndarray], config_json: Dict) -> str:
    """sha256 over the config and every output array, in a fixed order.

    The determinism contract of the pipeline: identical inputs + config ⇒
    identical fingerprint, across runs and across machines.  The dataset
    ``name`` is a display label, not data — it is excluded so two
    directories prepared identically fingerprint the same regardless of
    what they were called.
    """
    hashed_config = {k: v for k, v in config_json.items() if k != "name"}
    hasher = hashlib.sha256()
    hasher.update(
        json.dumps(hashed_config, sort_keys=True, separators=(",", ":")).encode()
    )
    for key in _ARRAY_KEYS:
        arr = np.ascontiguousarray(np.asarray(arrays[key], dtype=np.int64))
        hasher.update(key.encode())
        hasher.update(str(arr.shape).encode())
        hasher.update(arr.tobytes())
    return hasher.hexdigest()


def write_prepared(directory: str, result: PrepResult) -> Dict:
    """Serialize a :class:`PrepResult`; returns the manifest dict."""
    arrays = _result_arrays(result)
    config_json = (result.config or PrepConfig()).to_json()
    ds = result.dataset
    manifest = {
        "name": ds.name,
        "config": config_json,
        "sizes": {
            "n_users": int(ds.n_users),
            "n_items": int(ds.n_items),
            "n_entities": int(ds.n_entities),
            "n_relations": int(ds.n_relations),
            "n_interactions": int(ds.n_interactions),
            "n_triples": int(ds.kg.n_triples),
        },
        "stats": {k: int(v) for k, v in result.stats.items()},
        "fingerprint": prepared_fingerprint(arrays, config_json),
    }
    save_npz(
        os.path.join(directory, ARRAYS_FILENAME),
        arrays,
        {"kind": "prepared", **manifest},
    )
    vocab = {
        "user_ids": result.user_ids.tolist(),
        "item_ids": result.item_ids.tolist(),
        "entity_ids": result.entity_ids.tolist(),
        "relation_ids": result.relation_ids.tolist(),
    }
    atomic_write_text(
        os.path.join(directory, VOCAB_FILENAME),
        json.dumps(vocab, separators=(",", ":")) + "\n",
    )
    return manifest


def prepare(
    ratings_path: str,
    kg_path: str,
    out_dir: str,
    config: Optional[PrepConfig] = None,
) -> Dict:
    """One-shot: run the pipeline and serialize; returns the manifest."""
    result = prepare_dataset(ratings_path, kg_path, config)
    return write_prepared(out_dir, result)


def is_prepared_dir(directory: str) -> bool:
    """Does ``directory`` hold a serialized prepared dataset?"""
    return os.path.isfile(os.path.join(directory, ARRAYS_FILENAME))


def load_prepared(directory: str) -> RecDataset:
    """Read a prepared directory back into a :class:`RecDataset`.

    The stored splits are loaded verbatim (NOT re-split), so every
    consumer of the same directory trains on byte-identical data; the
    artifact digest rejects a modified or corrupted ``prepared.npz``.
    """
    arrays, manifest = load_npz(
        os.path.join(directory, ARRAYS_FILENAME), "prepared"
    )
    sizes = manifest["sizes"]
    n_users = int(sizes["n_users"])
    n_items = int(sizes["n_items"])

    def graph(prefix: str) -> InteractionGraph:
        pairs = np.stack(
            [arrays[f"{prefix}_users"], arrays[f"{prefix}_items"]], axis=1
        )
        return InteractionGraph(pairs, n_users=n_users, n_items=n_items)

    from repro.data.dataset import DatasetSplits

    kg = KnowledgeGraph(
        arrays["kg_triples"].reshape(-1, 3),
        n_entities=int(sizes["n_entities"]),
        n_relations=int(sizes["n_relations"]),
    )
    return RecDataset(
        name=str(manifest["name"]),
        n_users=n_users,
        n_items=n_items,
        kg=kg,
        splits=DatasetSplits(
            train=graph("train"), valid=graph("valid"), test=graph("test")
        ),
    )
