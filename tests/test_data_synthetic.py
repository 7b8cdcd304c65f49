"""Synthetic generator: Table II shape fidelity and informativeness.

Beyond shape checks, two statistical properties are asserted because the
paper's narrative depends on them:

* interactions carry topic signal (users interact with items matching
  their latent preferences far above chance);
* informative KG relations correlate with item topics while noise
  relations do not (the "not all knowledge is helpful" premise).
"""

import numpy as np
import pytest

from repro.data.synthetic import (
    PROFILES,
    SyntheticProfile,
    generate_dataset,
    generate_profile,
)
from tests.helpers import pair_set


class TestProfiles:
    def test_all_four_benchmarks_exist(self):
        assert set(PROFILES) == {"music", "book", "movie", "restaurant"}

    def test_richness_ordering_matches_paper(self):
        """Paper: music 4.03 < book 10.12 < movie 29.46 < restaurant 117.86."""
        richness = {}
        for name in PROFILES:
            ds = generate_profile(name, seed=0)
            richness[name] = ds.knowledge_richness()
        assert richness["music"] < richness["book"] < richness["movie"] < richness["restaurant"]

    def test_density_ordering(self):
        # Book-Crossing is the sparsest benchmark in the paper.
        densities = {
            name: generate_profile(name, seed=0).summary()["density"]
            for name in PROFILES
        }
        assert densities["book"] == min(densities.values())

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_profile("groceries")

    def test_scaling(self):
        small = generate_profile("music", seed=0, scale=0.5)
        full = generate_profile("music", seed=0)
        assert small.n_users < full.n_users
        assert small.n_items < full.n_items

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            PROFILES["music"].scaled(0.0)

    def test_determinism(self):
        a = generate_profile("book", seed=3)
        b = generate_profile("book", seed=3)
        assert pair_set(a.train) == pair_set(b.train)
        np.testing.assert_array_equal(a.kg.triples, b.kg.triples)

    def test_split_seed_varies_partition_not_world(self):
        a = generate_profile("book", seed=3, split_seed=1)
        b = generate_profile("book", seed=3, split_seed=2)
        np.testing.assert_array_equal(a.kg.triples, b.kg.triples)
        assert pair_set(a.train) != pair_set(b.train)

    def test_every_user_has_minimum_interactions(self):
        ds = generate_profile("music", seed=1)
        full = ds.all_positive_items()
        for user in range(ds.n_users):
            assert len(full.get(user, ())) >= 3


class TestStatisticalProperties:
    @pytest.fixture(scope="class")
    def generated(self):
        profile = PROFILES["movie"]
        return profile, *generate_dataset(profile, seed=0)

    def test_interactions_follow_affinity(self, generated):
        profile, interactions, kg, latent = generated
        affinity = latent["user_prefs"] @ latent["item_topics"].T
        interacted = [
            affinity[u, i] for u, i in zip(interactions.users, interactions.items)
        ]
        assert np.mean(interacted) > affinity.mean() * 1.2

    def test_informative_relations_cluster_topics(self, generated):
        """Items sharing an informative attribute should be topically more
        similar than random item pairs; noise relations should not."""
        profile, interactions, kg, latent = generated
        topics = latent["item_topics"]
        n_informative = max(
            1, int(round(profile.informative_fraction * profile.n_relations))
        )

        def mean_pair_similarity(relation_ids):
            sims = []
            by_attr = {}
            for h, r, t in kg.triples:
                if r in relation_ids and h < profile.n_items:
                    by_attr.setdefault((r, t), []).append(h)
            for members in by_attr.values():
                if len(members) < 2:
                    continue
                for a in range(len(members) - 1):
                    sims.append(
                        float(topics[members[a]] @ topics[members[a + 1]])
                    )
            return np.mean(sims) if sims else np.nan

        informative = mean_pair_similarity(set(range(n_informative)))
        noise = mean_pair_similarity(
            set(range(n_informative, profile.n_relations))
        )
        rng = np.random.default_rng(0)
        random_pairs = np.mean(
            [
                float(topics[rng.integers(profile.n_items)] @ topics[rng.integers(profile.n_items)])
                for _ in range(500)
            ]
        )
        assert informative > random_pairs * 1.5
        assert noise < informative

    def test_kg_has_second_hop_structure(self, generated):
        profile, interactions, kg, latent = generated
        # The hierarchy relation links attributes to categories.
        hierarchy = profile.n_relations
        hier_triples = [t for t in kg.triples if t[1] == hierarchy]
        assert hier_triples
        for h, _, t in hier_triples:
            assert h >= profile.n_items  # attribute, not item
            assert t > h or t >= profile.n_items

    def test_popularity_skew(self, generated):
        profile, interactions, kg, latent = generated
        counts = np.bincount(interactions.items, minlength=profile.n_items)
        # Top-10% items should absorb well over 10% of interactions.
        top = np.sort(counts)[-max(1, profile.n_items // 10):].sum()
        assert top / counts.sum() > 0.15


class TestCustomProfile:
    def test_tiny_profile_generates(self):
        profile = SyntheticProfile(
            name="custom",
            n_users=12,
            n_items=10,
            n_topics=3,
            interactions_per_user=4.0,
            triples_per_item=3.0,
            n_relations=4,
        )
        interactions, kg, latent = generate_dataset(profile, seed=0)
        assert interactions.n_users == 12
        assert kg.n_entities > 10
        assert latent["user_prefs"].shape == (12, 3)
