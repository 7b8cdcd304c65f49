"""Hypothesis property tests on graph substrates.

Invariants:

* every (parent, relation, child) edge in a sampled node flow is a real
  KG edge (when unmasked);
* flow shapes follow K**l exactly; masks only ever shrink with depth;
* splits partition interactions for any seed;
* corruption changes exactly the requested rows for any ratio.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data.splits import split_interactions
from repro.graph import InteractionGraph, KnowledgeGraph, NeighborSampler
from tests.helpers import pair_set

settings.register_profile("ci", max_examples=20, deadline=None)
settings.load_profile("ci")


@st.composite
def random_kg(draw):
    n_entities = draw(st.integers(4, 15))
    n_relations = draw(st.integers(1, 4))
    n_triples = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    triples = []
    for _ in range(n_triples):
        h = int(rng.integers(0, n_entities))
        t = int(rng.integers(0, n_entities))
        r = int(rng.integers(0, n_relations))
        triples.append((h, r, t))
    return KnowledgeGraph(triples, n_entities=n_entities, n_relations=n_relations)


@st.composite
def random_interactions(draw):
    n_users = draw(st.integers(2, 10))
    n_items = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    pairs = set()
    for _ in range(draw(st.integers(1, 30))):
        pairs.add((int(rng.integers(0, n_users)), int(rng.integers(0, n_items))))
    return InteractionGraph(sorted(pairs), n_users=n_users, n_items=n_items)


class TestNodeFlowProperties:
    @given(kg=random_kg(), seed=st.integers(0, 1000), depth=st.integers(1, 3))
    def test_flow_edges_are_real(self, kg, seed, depth):
        inter = InteractionGraph([(0, 0)], n_users=1, n_items=min(2, kg.n_entities))
        sampler = NeighborSampler(kg, inter, 1, 1, 2, np.random.default_rng(seed))
        roots = [0]
        flow = sampler.kg_node_flow(roots, depth, no_traverse_back=False)
        k = 2
        for level in range(1, depth + 1):
            parents = flow.entities[level - 1]
            for b in range(len(roots)):
                for j in range(flow.entities[level].shape[1]):
                    if not flow.masks[level][b, j]:
                        continue
                    parent = int(parents[b, j // k])
                    child = int(flow.entities[level][b, j])
                    relation = int(flow.relations[level][b, j])
                    assert (relation, child) in kg.neighbors(parent)

    @given(kg=random_kg(), seed=st.integers(0, 1000))
    def test_flow_shapes(self, kg, seed):
        inter = InteractionGraph([(0, 0)], n_users=1, n_items=min(2, kg.n_entities))
        sampler = NeighborSampler(kg, inter, 1, 1, 3, np.random.default_rng(seed))
        flow = sampler.kg_node_flow([0, 0], depth=2)
        assert flow.entities[0].shape == (2, 1)
        assert flow.entities[1].shape == (2, 3)
        assert flow.entities[2].shape == (2, 9)
        assert flow.masks[2].shape == (2, 9)

    @given(kg=random_kg(), seed=st.integers(0, 1000))
    def test_masked_parents_have_masked_children(self, kg, seed):
        inter = InteractionGraph([(0, 0)], n_users=1, n_items=min(2, kg.n_entities))
        sampler = NeighborSampler(kg, inter, 1, 1, 2, np.random.default_rng(seed))
        flow = sampler.kg_node_flow([0], depth=3)
        k = 2
        for level in range(1, 3):
            parent_mask = flow.masks[level]
            child_mask = flow.masks[level + 1]
            for j in range(parent_mask.shape[1]):
                if not parent_mask[0, j]:
                    assert not child_mask[0, j * k : (j + 1) * k].any()


class TestSplitProperties:
    @given(inter=random_interactions(), seed=st.integers(0, 1000))
    def test_partition(self, inter, seed):
        splits = split_interactions(inter, seed=seed)
        train, valid, test = (
            pair_set(splits.train),
            pair_set(splits.valid),
            pair_set(splits.test),
        )
        assert train | valid | test == pair_set(inter)
        assert len(train) + len(valid) + len(test) == inter.n_interactions

    @given(inter=random_interactions(), seed=st.integers(0, 1000))
    def test_every_active_user_keeps_train_history(self, inter, seed):
        splits = split_interactions(inter, seed=seed, ensure_train_coverage=True)
        for user in range(inter.n_users):
            if inter.items_of(user):
                assert splits.train.items_of(user)


class TestSamplerProperties:
    @given(inter=random_interactions(), seed=st.integers(0, 1000), size=st.integers(1, 5))
    def test_user_table_only_contains_interacted_items(self, inter, seed, size):
        kg = KnowledgeGraph([], n_entities=inter.n_items, n_relations=1)
        sampler = NeighborSampler(kg, inter, size, size, 1, np.random.default_rng(seed))
        for user in range(inter.n_users):
            items = set(inter.items_of(user))
            nb = sampler.user_neighborhood([user])
            if items:
                assert set(nb.indices[0].tolist()) <= items
                assert nb.mask.all()
            else:
                assert not nb.mask.any()
