"""Dataset-preparation pipeline: stages, determinism, serialization."""

import json
import os

import numpy as np
import pytest

from repro.data import load_dataset_dir, load_prepared, prepare
from repro.data.prep import (
    PrepConfig,
    filter_relations,
    is_prepared_dir,
    kcore_filter,
    link_items_to_kg,
    prepare_dataset,
)


def _write_raw(directory, ratings, kg):
    ratings_path = directory / "ratings.txt"
    kg_path = directory / "kg.txt"
    ratings_path.write_text(
        "".join(f"{u}\t{i}\t{label}\n" for u, i, label in ratings)
    )
    kg_path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in kg))
    return str(ratings_path), str(kg_path)


# Sparse, non-contiguous raw ids, a duplicate pair + triple, one negative
# rating, a rare relation, and a KG island disconnected from every item.
RAW_RATINGS = [
    (10, 100, 1),
    (10, 100, 1),  # duplicate
    (10, 200, 1),
    (20, 100, 1),
    (20, 300, 1),
    (30, 200, 1),
    (30, 300, 1),
    (30, 100, 0),  # negative — dropped at parse time
    (40, 300, 1),
]
RAW_KG = [
    (100, 0, 900),
    (100, 0, 900),  # duplicate
    (200, 0, 901),
    (300, 1, 900),
    (901, 0, 902),
    (950, 0, 951),  # island: unreachable from any item
    (400, 2, 903),  # relation 2 appears once; head 400 is not an item
]


class TestStages:
    def test_kcore_iterates_to_fixed_point(self):
        # Dropping item 9 (degree 1) leaves user 2 with a single pair, so
        # a second round must drop user 2 as well — one pass is not enough.
        pairs = np.array(
            [(0, 5), (0, 6), (1, 5), (1, 6), (2, 6), (2, 9)], dtype=np.int64
        )
        kept = kcore_filter(pairs, min_user=2, min_item=2)
        assert {tuple(p) for p in kept.tolist()} == {(0, 5), (0, 6), (1, 5), (1, 6)}

    def test_kcore_min_one_keeps_everything(self):
        pairs = np.array([(0, 0), (1, 1)], dtype=np.int64)
        kept = kcore_filter(pairs, min_user=1, min_item=1)
        assert len(kept) == 2

    def test_kcore_can_empty_the_graph(self):
        pairs = np.array([(0, 0), (1, 1)], dtype=np.int64)
        assert len(kcore_filter(pairs, min_user=2, min_item=1)) == 0

    def test_relation_filter_drops_rare_relations(self):
        triples = np.array(
            [(0, 0, 1), (1, 0, 2), (2, 1, 3)], dtype=np.int64
        )
        kept, n_dropped = filter_relations(triples, min_relation_count=2)
        assert n_dropped == 1
        assert set(kept[:, 1].tolist()) == {0}

    def test_link_drops_disconnected_island(self):
        triples = np.array(
            [(0, 0, 5), (5, 0, 6), (8, 0, 9)], dtype=np.int64
        )
        kept = link_items_to_kg(triples, np.array([0], dtype=np.int64))
        # (8, 0, 9) touches no entity reachable from item 0.
        assert {tuple(t) for t in kept.tolist()} == {(0, 0, 5), (5, 0, 6)}

    def test_link_hop_limit_bounds_expansion(self):
        chain = np.array(
            [(0, 0, 1), (1, 0, 2), (2, 0, 3)], dtype=np.int64
        )
        one_hop = link_items_to_kg(chain, np.array([0], dtype=np.int64), max_hops=1)
        assert {tuple(t) for t in one_hop.tolist()} == {(0, 0, 1)}
        closure = link_items_to_kg(chain, np.array([0], dtype=np.int64))
        assert len(closure) == 3


class TestPrepareDataset:
    def test_remap_is_contiguous_with_items_first(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        result = prepare_dataset(ratings_path, kg_path)
        ds = result.dataset
        # Vocab arrays are the original ids; new ids are their positions.
        assert result.user_ids.tolist() == [10, 20, 30, 40]
        assert result.item_ids.tolist() == [100, 200, 300]
        # Items occupy entity ids 0..I-1 (I ⊆ E), extras follow.
        assert result.entity_ids[: ds.n_items].tolist() == [100, 200, 300]
        assert ds.n_items <= ds.n_entities
        # Every remapped id is in range.
        assert ds.kg.triples[:, [0, 2]].max() < ds.n_entities
        assert ds.kg.triples[:, 1].max() < ds.n_relations

    def test_stats_account_for_every_drop(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        result = prepare_dataset(ratings_path, kg_path)
        assert result.stats["duplicate_pairs_dropped"] == 1
        assert result.stats["duplicate_triples_dropped"] == 1
        # The (950, 0, 951) island and the (400, 2, 903) stray head are
        # both unreachable from the item set.
        assert result.stats["orphan_triples_dropped"] == 2

    def test_rare_relation_filter_applies(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        result = prepare_dataset(
            ratings_path, kg_path, PrepConfig(min_relation_count=2)
        )
        assert result.stats["relations_dropped"] >= 1
        assert result.dataset.n_relations == 1  # only relation 0 survives

    def test_overall_kcore_raises_when_everything_pruned(self, tmp_path):
        ratings_path, kg_path = _write_raw(
            tmp_path, [(0, 0, 1), (1, 1, 1)], [(0, 0, 2)]
        )
        with pytest.raises(ValueError, match="k-core"):
            prepare_dataset(
                ratings_path, kg_path, PrepConfig(min_user_interactions=5)
            )


class TestSerialization:
    def test_two_runs_fingerprint_identically(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        m1 = prepare(ratings_path, kg_path, str(tmp_path / "a"))
        m2 = prepare(ratings_path, kg_path, str(tmp_path / "b"))
        assert m1["fingerprint"] == m2["fingerprint"]

    def test_name_does_not_change_fingerprint(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        m1 = prepare(
            ratings_path, kg_path, str(tmp_path / "a"), PrepConfig(name="x")
        )
        m2 = prepare(
            ratings_path, kg_path, str(tmp_path / "b"), PrepConfig(name="y")
        )
        assert m1["fingerprint"] == m2["fingerprint"]

    def test_config_changes_fingerprint(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        m1 = prepare(ratings_path, kg_path, str(tmp_path / "a"))
        m2 = prepare(
            ratings_path, kg_path, str(tmp_path / "b"), PrepConfig(split_seed=7)
        )
        assert m1["fingerprint"] != m2["fingerprint"]

    def test_round_trip_load(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        out = str(tmp_path / "prep")
        manifest = prepare(
            ratings_path, kg_path, out, PrepConfig(name="round")
        )
        assert is_prepared_dir(out)
        ds = load_prepared(out)
        assert ds.name == "round"
        assert ds.n_users == manifest["sizes"]["n_users"]
        assert ds.n_interactions == manifest["sizes"]["n_interactions"]
        assert ds.kg.n_triples == manifest["sizes"]["n_triples"]
        # Splits load verbatim, so two loads see byte-identical training data.
        again = load_prepared(out)
        assert np.array_equal(ds.train.users, again.train.users)
        assert np.array_equal(ds.train.items, again.train.items)

    def test_load_dataset_dir_detects_prepared(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        out = str(tmp_path / "prep")
        prepare(ratings_path, kg_path, out, PrepConfig(name="auto"))
        ds = load_dataset_dir(out)
        assert ds.name == "auto"

    def test_tampered_arrays_rejected(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        out = str(tmp_path / "prep")
        prepare(ratings_path, kg_path, out)
        npz_path = os.path.join(out, "prepared.npz")
        with np.load(npz_path) as data:
            arrays = {key: data[key].copy() for key in data.files}
        arrays["train_users"] = arrays["train_users"][::-1].copy()
        np.savez(npz_path, **arrays)
        with pytest.raises(ValueError, match="fingerprint"):
            load_prepared(out)

    def test_wrong_format_rejected(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        out = str(tmp_path / "prep")
        prepare(ratings_path, kg_path, out)
        npz_path = os.path.join(out, "prepared.npz")
        with np.load(npz_path) as data:
            arrays = {key: data[key].copy() for key in data.files}
        manifest = json.loads(str(arrays["__meta__"]))
        manifest["format"] = 99
        arrays["__meta__"] = np.array(json.dumps(manifest))
        np.savez(npz_path, **arrays)
        with pytest.raises(ValueError, match="format"):
            load_prepared(out)

    def test_vocab_file_written(self, tmp_path):
        ratings_path, kg_path = _write_raw(tmp_path, RAW_RATINGS, RAW_KG)
        out = str(tmp_path / "prep")
        prepare(ratings_path, kg_path, out)
        with open(os.path.join(out, "vocab.json")) as handle:
            vocab = json.load(handle)
        assert vocab["item_ids"] == [100, 200, 300]
        assert vocab["user_ids"] == [10, 20, 30, 40]


class TestPrepConfigValidation:
    def test_bad_kcore_minima(self):
        with pytest.raises(ValueError):
            PrepConfig(min_user_interactions=0)

    def test_bad_relation_count(self):
        with pytest.raises(ValueError):
            PrepConfig(min_relation_count=0)

    def test_negative_hops(self):
        with pytest.raises(ValueError):
            PrepConfig(max_kg_hops=-1)
