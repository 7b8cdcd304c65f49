"""Model introspection: capture guidance attention per hop, offline.

The paper's Fig. 5 case study shows *one* (user, item) pair's hop-1
attention.  :func:`capture_attention` generalizes it: attach a recorder
to a :class:`~repro.core.model.CGKGR` and every forward pass dumps, per
hop level, the sampled entities/relations and the normalized
guidance-gated attention they received — queryable afterwards by item,
summarizable (entropy per level), and serializable to JSONL for offline
inspection.

    with capture_attention(model) as rec:
        model.predict(users, items)
    rec.summary()            # {level: {records, mean_entropy}}
    rec.for_item(3)          # every capture where item 3 was the target
    rec.to_jsonl("attn.jsonl")

Capture costs a copy of the weights the forward computes, and only while
a recorder is attached — detached models pay nothing.  What is recorded
is what the model trains and serves with, so capturing never changes
predictions or training.
"""

from __future__ import annotations

import contextlib
import json
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.analysis.attention import attention_entropy

__all__ = ["GuidanceAttentionRecorder", "capture_attention"]


class GuidanceAttentionRecorder:
    """Accumulates per-hop attention payloads emitted by a model.

    Each record is a dict with ``level`` (hop index, 1 = closest to the
    item), ``items`` (the batch's target item ids), ``entities`` /
    ``relations`` / ``mask`` (the sampled edges, shaped ``(B, E)``), and
    ``weights`` (head-averaged normalized attention, same shape).
    """

    def __init__(self, max_records: Optional[int] = None):
        self.records: List[Dict[str, np.ndarray]] = []
        self.max_records = max_records
        self.dropped = 0

    def __call__(self, payload: Dict[str, Any]) -> None:
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(
            {
                "level": int(payload["level"]),
                "items": np.asarray(payload["items"]).copy(),
                "entities": np.asarray(payload["entities"]).copy(),
                "relations": np.asarray(payload["relations"]).copy(),
                "mask": np.asarray(payload["mask"]).copy(),
                "weights": np.asarray(payload["weights"]).copy(),
            }
        )

    # ------------------------------------------------------------------
    def levels(self) -> List[int]:
        return sorted({r["level"] for r in self.records})

    def for_item(self, item: int) -> Iterator[Dict[str, np.ndarray]]:
        """Yield per-row views of every capture targeting ``item``."""
        for record in self.records:
            rows = np.nonzero(record["items"] == int(item))[0]
            for row in rows:
                yield {
                    "level": record["level"],
                    "item": int(item),
                    "entities": record["entities"][row],
                    "relations": record["relations"][row],
                    "mask": record["mask"][row],
                    "weights": record["weights"][row],
                }

    def summary(self) -> Dict[int, Dict[str, float]]:
        """Per-level record counts and mean attention entropy (nats)."""
        out: Dict[int, Dict[str, float]] = {}
        for level in self.levels():
            entropies = []
            rows = 0
            for record in self.records:
                if record["level"] != level:
                    continue
                for row in range(record["weights"].shape[0]):
                    mask = record["mask"][row]
                    if not mask.any():
                        continue
                    rows += 1
                    entropies.append(
                        attention_entropy(record["weights"][row], mask)
                    )
            out[level] = {
                "rows": rows,
                "mean_entropy": float(np.mean(entropies)) if entropies else 0.0,
            }
        return out

    def to_jsonl(self, path: str) -> int:
        """Write one JSON line per captured (row, level); returns the count."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                for row in range(record["weights"].shape[0]):
                    handle.write(
                        json.dumps(
                            {
                                "level": record["level"],
                                "item": int(record["items"][row]),
                                "entities": record["entities"][row].tolist(),
                                "relations": record["relations"][row].tolist(),
                                "mask": record["mask"][row].astype(int).tolist(),
                                "weights": [
                                    round(float(w), 8)
                                    for w in record["weights"][row]
                                ],
                            }
                        )
                        + "\n"
                    )
                    written += 1
        return written


@contextlib.contextmanager
def capture_attention(model, recorder: Optional[GuidanceAttentionRecorder] = None):
    """Attach a recorder to ``model`` for the duration of the block.

    ``model`` must expose ``add_attention_observer`` /
    ``remove_attention_observer`` (CG-KGR does); detachment is guaranteed
    even when the traced forward pass raises.
    """
    rec = recorder if recorder is not None else GuidanceAttentionRecorder()
    model.add_attention_observer(rec)
    try:
        yield rec
    finally:
        model.remove_attention_observer(rec)
