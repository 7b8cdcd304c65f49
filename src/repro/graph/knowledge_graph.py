"""Knowledge-graph container.

A KG is a set of triples ``(head, relation, tail)`` over integer entity and
relation ids.  Items are aligned with entities by sharing the id space
``0..n_items-1`` (Sec. II: ``I ⊆ E``).

Adjacency is stored *bidirectionally* — propagation-based recommenders in
this family (KGCN, KGNN-LS, CKAN, CG-KGR) treat KG edges as traversable in
both directions when collecting neighborhoods; the relation id of the
reverse edge is the same as the forward edge.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

Triple = Tuple[int, int, int]


class KnowledgeGraph:
    """Immutable triple store with per-entity adjacency lists.

    Parameters
    ----------
    triples:
        Iterable of ``(head, relation, tail)`` integer triples.
    n_entities, n_relations:
        Sizes of the id spaces; inferred from the triples when omitted.
    """

    def __init__(
        self,
        triples: Iterable[Triple],
        n_entities: int | None = None,
        n_relations: int | None = None,
    ):
        triple_list = [(int(h), int(r), int(t)) for h, r, t in triples]
        if triple_list:
            arr = np.asarray(triple_list, dtype=np.int64)
        else:
            arr = np.empty((0, 3), dtype=np.int64)
        self.triples: np.ndarray = arr

        max_entity = int(arr[:, [0, 2]].max()) + 1 if len(arr) else 0
        max_relation = int(arr[:, 1].max()) + 1 if len(arr) else 0
        self.n_entities = int(n_entities) if n_entities is not None else max_entity
        self.n_relations = int(n_relations) if n_relations is not None else max_relation
        if max_entity > self.n_entities:
            raise ValueError(
                f"triples reference entity {max_entity - 1} "
                f">= n_entities {self.n_entities}"
            )
        if max_relation > self.n_relations:
            raise ValueError(
                f"triples reference relation {max_relation - 1} "
                f">= n_relations {self.n_relations}"
            )

        adjacency: Dict[int, List[Tuple[int, int]]] = {}
        for h, r, t in triple_list:
            adjacency.setdefault(h, []).append((r, t))
            adjacency.setdefault(t, []).append((r, h))
        self._adjacency = adjacency

    # ------------------------------------------------------------------
    @property
    def n_triples(self) -> int:
        return len(self.triples)

    def neighbors(self, entity: int) -> List[Tuple[int, int]]:
        """Return ``[(relation, neighbor_entity), ...]`` for ``entity``."""
        return self._adjacency.get(int(entity), [])

    def degree(self, entity: int) -> int:
        return len(self.neighbors(entity))

    def triples_per_item(self, n_items: int) -> float:
        """The paper's knowledge-richness statistic ``#triples / #items``."""
        if n_items <= 0:
            raise ValueError("n_items must be positive")
        return self.n_triples / n_items

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"KnowledgeGraph(entities={self.n_entities}, "
            f"relations={self.n_relations}, triples={self.n_triples})"
        )
