"""Loaders for the text formats used by the official CG-KGR artifact.

The released datasets ship two files per benchmark:

* ``ratings_final.txt`` — lines of ``user<TAB>item<TAB>label`` where label
  is 1 (positive) or 0 (sampled negative);
* ``kg_final.txt`` — lines of ``head<TAB>relation<TAB>tail``.

These loaders accept that format (tab or whitespace separated) so the real
datasets drop into this reproduction unchanged; only positive pairs are
kept from the ratings file (negatives are resampled by our protocol).
"""

from __future__ import annotations

import os
from typing import List, Tuple

import numpy as np

from repro.data.dataset import RecDataset
from repro.data.splits import split_interactions
from repro.graph.interactions import InteractionGraph
from repro.graph.knowledge_graph import KnowledgeGraph


def _parse_int_lines(path: str, n_fields: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """Parse whitespace-separated integer lines into ``(lineno, fields)``.

    Every malformed input — truncated line, non-integer field, or a file
    with no data lines at all — raises :class:`ValueError` naming the
    offending file (and line, where one exists) so dataset-preparation
    mistakes surface at load time instead of as index errors mid-train.
    """
    rows: List[Tuple[int, Tuple[int, ...]]] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < n_fields:
                raise ValueError(
                    f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}"
                )
            try:
                fields = tuple(int(p) for p in parts[:n_fields])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-integer field in line {line!r}"
                ) from None
            rows.append((lineno, fields))
    if not rows:
        raise ValueError(f"{path}: file contains no data lines")
    return rows


def load_interactions_file(path: str) -> InteractionGraph:
    """Load ``user item label`` ratings, keeping positive pairs only."""
    rows = _parse_int_lines(path, 3)
    for lineno, (u, i, _) in rows:
        if u < 0 or i < 0:
            raise ValueError(
                f"{path}:{lineno}: negative id (user={u}, item={i})"
            )
    # Real exports occasionally repeat a rating line; duplicates would
    # inflate user/item degrees and CTR positive counts, so keep the first
    # occurrence of each (user, item) pair only.
    positives = list(
        dict.fromkeys((u, i) for _, (u, i, label) in rows if label == 1)
    )
    if not positives:
        raise ValueError(f"{path}: no positive interactions found")
    n_users = max(u for _, (u, _, _) in rows) + 1
    n_items = max(i for _, (_, i, _) in rows) + 1
    return InteractionGraph(positives, n_users=n_users, n_items=n_items)


def load_kg_file(path: str, n_entities: int | None = None, n_relations: int | None = None) -> KnowledgeGraph:
    """Load ``head relation tail`` triples.

    When ``n_entities`` / ``n_relations`` bounds are declared, every
    triple is validated against them so an out-of-range id is reported
    with its file and line rather than corrupting the adjacency build.
    """
    rows = _parse_int_lines(path, 3)
    triples: List[Tuple[int, int, int]] = []
    for lineno, (h, r, t) in rows:
        if h < 0 or r < 0 or t < 0:
            raise ValueError(
                f"{path}:{lineno}: negative id in triple ({h}, {r}, {t})"
            )
        if n_entities is not None and (h >= n_entities or t >= n_entities):
            raise ValueError(
                f"{path}:{lineno}: entity id out of range for "
                f"n_entities={n_entities} in triple ({h}, {r}, {t})"
            )
        if n_relations is not None and r >= n_relations:
            raise ValueError(
                f"{path}:{lineno}: relation id {r} out of range for "
                f"n_relations={n_relations}"
            )
        triples.append((h, r, t))
    # Duplicate triples inflate entity degrees (and thus neighbor-sampling
    # weights); keep the first occurrence of each (h, r, t).
    triples = list(dict.fromkeys(triples))
    return KnowledgeGraph(triples, n_entities=n_entities, n_relations=n_relations)


def load_dataset_dir(
    directory: str,
    name: str | None = None,
    split_seed: int = 0,
    ratings_filename: str = "ratings_final.txt",
    kg_filename: str = "kg_final.txt",
) -> RecDataset:
    """Load a full benchmark from a directory in the artifact layout.

    A directory produced by ``repro prep`` (a ``prepared.npz``
    artifact) is detected and loaded through
    :func:`repro.data.prep.load_prepared` instead — its stored splits are
    used verbatim, so ``split_seed`` does not apply there.
    """
    from repro.data.prep import is_prepared_dir, load_prepared

    if is_prepared_dir(directory):
        return load_prepared(directory)
    ratings_path = os.path.join(directory, ratings_filename)
    kg_path = os.path.join(directory, kg_filename)
    interactions = load_interactions_file(ratings_path)
    kg = load_kg_file(kg_path)
    n_entities = max(kg.n_entities, interactions.n_items)
    if n_entities > kg.n_entities:
        kg = KnowledgeGraph(kg.triples, n_entities=n_entities, n_relations=kg.n_relations)
    splits = split_interactions(interactions, seed=split_seed)
    return RecDataset(
        name=name or os.path.basename(os.path.normpath(directory)),
        n_users=interactions.n_users,
        n_items=interactions.n_items,
        kg=kg,
        splits=splits,
    )


def save_interactions_file(path: str, interactions: InteractionGraph) -> None:
    """Write positives in the artifact's ratings format (label always 1)."""
    with open(path, "w") as handle:
        for u, i in zip(interactions.users, interactions.items):
            handle.write(f"{u}\t{i}\t1\n")


def save_kg_file(path: str, kg: KnowledgeGraph) -> None:
    """Write triples in the artifact's KG format."""
    with open(path, "w") as handle:
        for h, r, t in kg.triples:
            handle.write(f"{h}\t{r}\t{t}\n")
