"""KnowledgeGraph / InteractionGraph / UnifiedGraph invariants."""

import pytest

from repro.graph import InteractionGraph, KnowledgeGraph, UnifiedGraph
from tests.helpers import pair_set


@pytest.fixture()
def kg():
    return KnowledgeGraph(
        [(0, 0, 3), (1, 0, 3), (2, 1, 4), (3, 1, 4)], n_entities=5, n_relations=2
    )


class TestKnowledgeGraph:
    def test_counts(self, kg):
        assert kg.n_triples == 4
        assert kg.n_entities == 5
        assert kg.n_relations == 2

    def test_sizes_inferred(self):
        g = KnowledgeGraph([(0, 0, 7), (7, 2, 1)])
        assert g.n_entities == 8
        assert g.n_relations == 3

    def test_out_of_range_entity_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph([(0, 0, 9)], n_entities=5, n_relations=1)

    def test_out_of_range_relation_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph([(0, 5, 1)], n_entities=5, n_relations=2)

    def test_adjacency_bidirectional(self, kg):
        assert (0, 0) in kg.neighbors(3)  # reverse edge from triple (0,0,3)
        assert (0, 3) in kg.neighbors(0)

    def test_degree(self, kg):
        # Entity 3: tail of (0,0,3) and (1,0,3), head of (3,1,4).
        assert kg.degree(3) == 3
        assert kg.degree(0) == 1

    def test_isolated_entity_empty_neighbors(self, kg):
        # entity index beyond all triples but < n_entities
        g = KnowledgeGraph([(0, 0, 1)], n_entities=3, n_relations=1)
        assert g.neighbors(2) == []

    def test_triples_per_item(self, kg):
        assert kg.triples_per_item(2) == 2.0
        with pytest.raises(ValueError):
            kg.triples_per_item(0)

    def test_empty_graph(self):
        g = KnowledgeGraph([], n_entities=3, n_relations=1)
        assert g.n_triples == 0
        assert g.triples.shape == (0, 3)
        assert g.degree(0) == 0


class TestInteractionGraph:
    def test_adjacency(self):
        g = InteractionGraph([(0, 1), (0, 2), (1, 2)], n_users=2, n_items=3)
        assert g.items_of(0) == [1, 2]
        assert g.users_of(2) == [0, 1]
        assert g.items_of(1) == [2]

    def test_missing_ids_empty(self):
        g = InteractionGraph([(0, 0)], n_users=3, n_items=3)
        assert g.items_of(2) == []
        assert g.users_of(1) == []

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            InteractionGraph([(5, 0)], n_users=2, n_items=3)
        with pytest.raises(ValueError):
            InteractionGraph([(0, 5)], n_users=2, n_items=3)

    def test_pairs_round_trip(self):
        pairs = [(0, 1), (1, 0)]
        g = InteractionGraph(pairs, n_users=2, n_items=2)
        assert pair_set(g) == set(pairs)

    def test_empty(self):
        g = InteractionGraph([], n_users=2, n_items=2)
        assert g.n_interactions == 0
        assert g.pairs().shape == (0, 2)


class TestUnifiedGraph:
    def test_node_ids(self):
        kg = KnowledgeGraph([(0, 0, 2)], n_entities=3, n_relations=1)
        inter = InteractionGraph([(0, 0), (1, 1)], n_users=2, n_items=2)
        g = UnifiedGraph(kg, inter)
        assert g.n_nodes == 5
        assert g.user_node(0) == 3
        assert g.interaction_relation == 1
        assert g.n_relations == 2

    def test_all_triples_include_interactions(self):
        kg = KnowledgeGraph([(0, 0, 2)], n_entities=3, n_relations=1)
        inter = InteractionGraph([(0, 1)], n_users=1, n_items=2)
        triples = UnifiedGraph(kg, inter).all_triples()
        assert (3, 1, 1) in {tuple(t) for t in triples}

    def test_adjacency_symmetric(self):
        kg = KnowledgeGraph([(0, 0, 2)], n_entities=3, n_relations=1)
        inter = InteractionGraph([(0, 1)], n_users=1, n_items=2)
        adj = UnifiedGraph(kg, inter).adjacency()
        assert (1, 1) in adj[3]  # user node sees item
        assert (1, 3) in adj[1]  # item sees user node

    def test_items_must_be_entities(self):
        kg = KnowledgeGraph([(0, 0, 1)], n_entities=2, n_relations=1)
        inter = InteractionGraph([(0, 2)], n_users=1, n_items=3)
        with pytest.raises(ValueError):
            UnifiedGraph(kg, inter)
