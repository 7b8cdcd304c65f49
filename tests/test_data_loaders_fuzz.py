"""Fuzz/property tests for the artifact-format data loaders.

Malformed dataset files must fail *at load time* with a ``ValueError``
naming the offending file (and line, where one exists) — never as an
index error deep inside the adjacency build or mid-train.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.loaders import (
    load_dataset_dir,
    load_interactions_file,
    load_kg_file,
    save_interactions_file,
    save_kg_file,
)
from repro.graph.interactions import InteractionGraph
from repro.graph.knowledge_graph import KnowledgeGraph
from tests.helpers import pair_set

settings.register_profile("ci", max_examples=20, deadline=None)
settings.load_profile("ci")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class _scratch_file:
    """Self-cleaning temp file for @given tests (hypothesis re-runs the
    test body many times per function-scoped fixture instance)."""

    def __init__(self, name, text):
        self._dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self._dir.name, name)
        with open(self.path, "w") as handle:
            handle.write(text)

    def __enter__(self):
        return self.path

    def __exit__(self, *exc):
        self._dir.cleanup()


class TestTruncatedLines:
    def test_ratings_short_line_names_file_and_line(self, tmp_path):
        path = _write(tmp_path, "ratings.txt", "0\t1\t1\n2\t3\n")
        with pytest.raises(ValueError, match=r"ratings\.txt:2.*expected 3"):
            load_interactions_file(path)

    def test_kg_short_line_names_file_and_line(self, tmp_path):
        path = _write(tmp_path, "kg.txt", "0 0 1\n1 0 2\n3\n")
        with pytest.raises(ValueError, match=r"kg\.txt:3.*expected 3"):
            load_kg_file(path)

    @given(n_good=st.integers(0, 5), n_fields=st.integers(1, 2))
    def test_any_truncated_line_is_rejected(self, n_good, n_fields):
        lines = ["0 1 1"] * n_good + [" ".join("7" * n_fields)]
        with _scratch_file("fuzz_trunc.txt", "\n".join(lines) + "\n") as path:
            with pytest.raises(ValueError, match=f"fuzz_trunc.txt:{n_good + 1}"):
                load_interactions_file(path)


class TestNonIntegerFields:
    @pytest.mark.parametrize("bad", ["a", "1.5", "3e2", "0x1f", "", "NaN"])
    def test_ratings_non_integer_id(self, tmp_path, bad):
        bad = bad or "''"
        path = _write(tmp_path, "ratings.txt", f"0\t1\t1\n{bad}\t2\t1\n")
        with pytest.raises(ValueError, match=r"ratings\.txt:2.*non-integer"):
            load_interactions_file(path)

    def test_kg_non_integer_relation(self, tmp_path):
        path = _write(tmp_path, "kg.txt", "0 rel 1\n")
        with pytest.raises(ValueError, match=r"kg\.txt:1.*non-integer"):
            load_kg_file(path)

    @given(
        text=st.text(
            alphabet=st.characters(
                whitelist_categories=("L", "P", "S"), max_codepoint=0x2FF
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_fuzzed_tokens_never_crash_differently(self, text):
        """Arbitrary non-integer junk in a field either parses (when it
        happens to be an integer literal) or raises a located ValueError
        — never any other exception type."""
        with _scratch_file("fuzz.txt", f"0 {text} 1\n") as path:
            try:
                load_kg_file(path)
            except ValueError as exc:
                assert "fuzz.txt:1" in str(exc)


class TestOutOfRangeIds:
    def test_negative_user_rejected(self, tmp_path):
        path = _write(tmp_path, "ratings.txt", "-1\t0\t1\n")
        with pytest.raises(ValueError, match=r"ratings\.txt:1.*negative"):
            load_interactions_file(path)

    def test_negative_triple_rejected(self, tmp_path):
        path = _write(tmp_path, "kg.txt", "0 0 -4\n")
        with pytest.raises(ValueError, match=r"kg\.txt:1.*negative"):
            load_kg_file(path)

    def test_entity_beyond_declared_bound(self, tmp_path):
        path = _write(tmp_path, "kg.txt", "0 0 1\n0 0 99\n")
        with pytest.raises(ValueError, match=r"kg\.txt:2.*out of range"):
            load_kg_file(path, n_entities=10)

    def test_relation_beyond_declared_bound(self, tmp_path):
        path = _write(tmp_path, "kg.txt", "0 5 1\n")
        with pytest.raises(ValueError, match=r"kg\.txt:1.*relation id 5"):
            load_kg_file(path, n_relations=2)

    @given(entity=st.integers(0, 50), bound=st.integers(1, 50))
    def test_bound_check_is_exact(self, entity, bound):
        with _scratch_file("kg.txt", f"0 0 {entity}\n") as path:
            if entity >= bound:
                with pytest.raises(ValueError, match="out of range"):
                    load_kg_file(path, n_entities=bound)
            else:
                kg = load_kg_file(path, n_entities=bound)
                assert kg.n_entities == bound


class TestEmptyFiles:
    def test_empty_ratings_file(self, tmp_path):
        path = _write(tmp_path, "ratings.txt", "")
        with pytest.raises(ValueError, match=r"ratings\.txt.*no data lines"):
            load_interactions_file(path)

    def test_comment_only_kg_file(self, tmp_path):
        path = _write(tmp_path, "kg.txt", "# header\n\n   \n")
        with pytest.raises(ValueError, match=r"kg\.txt.*no data lines"):
            load_kg_file(path)

    def test_no_positives_names_file(self, tmp_path):
        path = _write(tmp_path, "ratings.txt", "0\t1\t0\n2\t3\t0\n")
        with pytest.raises(ValueError, match=r"ratings\.txt.*no positive"):
            load_interactions_file(path)


class TestRoundTripStillWorks:
    """The hardening must not reject well-formed artifacts."""

    def test_interactions_roundtrip(self, tmp_path):
        graph = InteractionGraph(
            [(0, 0), (1, 2), (2, 1)], n_users=3, n_items=3
        )
        path = str(tmp_path / "ratings_final.txt")
        save_interactions_file(path, graph)
        loaded = load_interactions_file(path)
        assert sorted(zip(loaded.users, loaded.items)) == sorted(
            zip(graph.users, graph.items)
        )

    def test_kg_roundtrip(self, tmp_path):
        kg = KnowledgeGraph(
            [(0, 0, 1), (1, 1, 2)], n_entities=3, n_relations=2
        )
        path = str(tmp_path / "kg_final.txt")
        save_kg_file(path, kg)
        loaded = load_kg_file(path, n_entities=3, n_relations=2)
        assert sorted(map(tuple, loaded.triples)) == sorted(
            map(tuple, kg.triples)
        )

    def test_dataset_dir_roundtrip(self, tmp_path, micro_dataset):
        save_interactions_file(
            str(tmp_path / "ratings_final.txt"), micro_dataset.train
        )
        save_kg_file(str(tmp_path / "kg_final.txt"), micro_dataset.kg)
        loaded = load_dataset_dir(str(tmp_path), name="micro")
        assert loaded.name == "micro"
        assert loaded.n_items == micro_dataset.n_items

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    def test_arbitrary_valid_interactions_roundtrip(self, pairs):
        graph = InteractionGraph(pairs, n_users=10, n_items=10)
        with _scratch_file("r.txt", "") as path:
            save_interactions_file(path, graph)
            loaded = load_interactions_file(path)
            assert sorted(zip(loaded.users, loaded.items)) == sorted(pairs)


class TestDuplicateLines:
    """Repeated (user, item) pairs and KG triples collapse to one record
    each, first occurrence winning, without weakening the error contract."""

    def test_duplicate_pairs_deduped(self, tmp_path):
        path = _write(tmp_path, "ratings.txt", "0\t1\t1\n0\t1\t1\n1\t0\t1\n0\t1\t1\n")
        graph = load_interactions_file(path)
        assert graph.n_interactions == 2
        assert pair_set(graph) == {(0, 1), (1, 0)}

    def test_duplicate_triples_deduped(self, tmp_path):
        path = _write(tmp_path, "kg.txt", "0 0 1\n0 0 1\n1 1 2\n0 0 1\n")
        kg = load_kg_file(path)
        assert kg.n_triples == 2
        assert sorted(map(tuple, kg.triples)) == [(0, 0, 1), (1, 1, 2)]

    def test_malformed_line_after_duplicates_still_located(self, tmp_path):
        # Dedup must not re-number lines: errors report the file position.
        path = _write(tmp_path, "kg.txt", "0 0 1\n0 0 1\n0 0\n")
        with pytest.raises(ValueError, match=r"kg\.txt:3"):
            load_kg_file(path)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=1,
            max_size=30,
        )
    )
    def test_loaded_pairs_are_unique(self, pairs):
        lines = "".join(f"{u}\t{i}\t1\n" for u, i in pairs)
        with _scratch_file("dup.txt", lines) as path:
            graph = load_interactions_file(path)
            assert graph.n_interactions == len(set(pairs))
            assert pair_set(graph) == set(pairs)
