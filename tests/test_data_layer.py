"""Data layer: dataset container, splits, negative sampling, loaders."""

import numpy as np
import pytest

from repro.data import (
    load_dataset_dir,
    load_interactions_file,
    load_kg_file,
    sample_ctr_negatives,
    sample_training_negatives,
    split_interactions,
)
from repro.data.dataset import DatasetSplits, RecDataset
from repro.data.loaders import save_interactions_file, save_kg_file
from repro.graph import InteractionGraph, KnowledgeGraph
from tests.helpers import pair_set


@pytest.fixture()
def interactions(rng):
    pairs = [(u, i) for u in range(20) for i in rng.choice(15, size=5, replace=False)]
    return InteractionGraph(pairs, n_users=20, n_items=15)


class TestSplits:
    def test_ratios(self, interactions):
        splits = split_interactions(interactions, seed=0, ensure_train_coverage=False)
        n = interactions.n_interactions
        assert splits.train.n_interactions == round(0.6 * n)
        assert splits.valid.n_interactions == round(0.2 * n)
        total = (
            splits.train.n_interactions
            + splits.valid.n_interactions
            + splits.test.n_interactions
        )
        assert total == n

    def test_disjoint_and_complete(self, interactions):
        splits = split_interactions(interactions, seed=1)
        train, valid, test = (
            pair_set(splits.train),
            pair_set(splits.valid),
            pair_set(splits.test),
        )
        assert not (train & valid) and not (train & test) and not (valid & test)
        assert train | valid | test == pair_set(interactions)

    def test_seed_determinism(self, interactions):
        a = split_interactions(interactions, seed=5)
        b = split_interactions(interactions, seed=5)
        assert pair_set(a.train) == pair_set(b.train)

    def test_different_seeds_differ(self, interactions):
        a = split_interactions(interactions, seed=1)
        b = split_interactions(interactions, seed=2)
        assert pair_set(a.train) != pair_set(b.train)

    def test_train_coverage(self, interactions):
        splits = split_interactions(interactions, seed=3, ensure_train_coverage=True)
        for user in range(20):
            if interactions.items_of(user):
                assert splits.train.items_of(user), f"user {user} has empty train"

    def test_bad_ratios_rejected(self, interactions):
        with pytest.raises(ValueError):
            split_interactions(interactions, seed=0, ratios=(0.5, 0.2, 0.2))


class TestNegativeSampling:
    def test_negatives_avoid_positives(self, interactions):
        splits = split_interactions(interactions, seed=0)
        all_pos = {
            u: set(interactions.items_of(u)) for u in range(interactions.n_users)
        }
        negs = sample_training_negatives(
            splits.train, all_pos, interactions.n_items, np.random.default_rng(0)
        )
        assert len(negs) == splits.train.n_interactions
        for u, neg in zip(splits.train.users, negs):
            assert int(neg) not in all_pos[int(u)]

    def test_balanced_ctr_sets(self, interactions):
        splits = split_interactions(interactions, seed=0)
        all_pos = {u: set(interactions.items_of(u)) for u in range(20)}
        users, items, labels = sample_ctr_negatives(
            splits.test, all_pos, 15, np.random.default_rng(0)
        )
        assert len(users) == len(items) == len(labels)
        assert labels.sum() == len(labels) / 2

    def test_saturated_user_falls_back(self):
        # User interacted with everything: sampling must still terminate.
        inter = InteractionGraph([(0, i) for i in range(3)], n_users=1, n_items=3)
        all_pos = {0: {0, 1, 2}}
        negs = sample_training_negatives(inter, all_pos, 3, np.random.default_rng(0))
        assert len(negs) == 3  # returned (necessarily false) negatives

    def test_ctr_negatives_avoid_all_splits(self, tiny_dataset):
        # Regression: frozen CTR negatives must never collide with a
        # positive from ANY split, not just the split being sampled.
        all_pos = tiny_dataset.all_positive_items()
        for split in (
            tiny_dataset.train,
            tiny_dataset.splits.valid,
            tiny_dataset.test,
        ):
            users, items, labels = sample_ctr_negatives(
                split, all_pos, tiny_dataset.n_items, np.random.default_rng(3)
            )
            for u, i, label in zip(users, items, labels):
                if label == 0:
                    assert int(i) not in all_pos[int(u)]

    def test_ctr_drops_full_catalogue_users(self):
        # User 0 interacted with every item: no true negative exists, so
        # both their positive and negative halves are dropped entirely.
        inter = InteractionGraph(
            [(0, 0), (0, 1), (0, 2), (1, 0)], n_users=2, n_items=3
        )
        all_pos = {0: {0, 1, 2}, 1: {0}}
        users, items, labels = sample_ctr_negatives(
            inter, all_pos, 3, np.random.default_rng(0)
        )
        assert 0 not in users
        assert labels.sum() == len(labels) / 2
        for u, i, label in zip(users, items, labels):
            if label == 0:
                assert int(i) not in all_pos[int(u)]



class TestRecDataset:
    def test_summary_statistics(self, tiny_dataset):
        summary = tiny_dataset.summary()
        assert summary["users"] == 30
        assert summary["items"] == 20
        assert summary["kg_triples"] == tiny_dataset.kg.n_triples
        assert summary["triples_per_item"] == pytest.approx(
            tiny_dataset.kg.n_triples / 20, abs=0.01
        )

    def test_all_positive_items_unions_splits(self, tiny_dataset):
        positives = tiny_dataset.all_positive_items()
        u = int(tiny_dataset.test.users[0])
        i = int(tiny_dataset.test.items[0])
        assert i in positives[u]

    def test_with_kg_replaces_only_kg(self, tiny_dataset):
        other = KnowledgeGraph(
            [], n_entities=tiny_dataset.n_entities, n_relations=tiny_dataset.n_relations
        )
        swapped = tiny_dataset.with_kg(other)
        assert swapped.kg.n_triples == 0
        assert swapped.train is tiny_dataset.train

    def test_items_must_map_to_entities(self):
        kg = KnowledgeGraph([], n_entities=2, n_relations=1)
        inter = InteractionGraph([], n_users=2, n_items=5)
        with pytest.raises(ValueError):
            RecDataset(
                name="bad",
                n_users=2,
                n_items=5,
                kg=kg,
                splits=DatasetSplits(inter, inter, inter),
            )


class TestLoaders:
    def test_round_trip(self, tmp_path, tiny_dataset):
        ratings = tmp_path / "ratings_final.txt"
        kg_file = tmp_path / "kg_final.txt"
        save_interactions_file(str(ratings), tiny_dataset.train)
        save_kg_file(str(kg_file), tiny_dataset.kg)
        loaded_inter = load_interactions_file(str(ratings))
        loaded_kg = load_kg_file(str(kg_file))
        assert pair_set(loaded_inter) == pair_set(tiny_dataset.train)
        # The loader dedups triples, so a fixture with repeated random
        # triples round-trips to the unique set.
        unique_triples = {tuple(t) for t in tiny_dataset.kg.triples.tolist()}
        assert {tuple(t) for t in loaded_kg.triples.tolist()} == unique_triples

    def test_negatives_dropped(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("0\t0\t1\n0\t1\t0\n1\t1\t1\n")
        inter = load_interactions_file(str(path))
        assert pair_set(inter) == {(0, 0), (1, 1)}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "kg.txt"
        path.write_text("# header\n\n0 0 1\n")
        kg = load_kg_file(str(path))
        assert kg.n_triples == 1

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "kg.txt"
        path.write_text("0 0 1\n0 0\n")
        with pytest.raises(ValueError, match="kg.txt:2"):
            load_kg_file(str(path))

    def test_no_positives_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("0\t0\t0\n")
        with pytest.raises(ValueError, match="no positive"):
            load_interactions_file(str(path))

    def test_load_dataset_dir(self, tmp_path, tiny_dataset):
        save_interactions_file(str(tmp_path / "ratings_final.txt"), tiny_dataset.train)
        save_kg_file(str(tmp_path / "kg_final.txt"), tiny_dataset.kg)
        ds = load_dataset_dir(str(tmp_path), name="round")
        assert ds.name == "round"
        assert ds.n_items <= ds.n_entities
        assert ds.train.n_interactions > 0
