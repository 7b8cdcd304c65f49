"""Post-hoc analysis helpers: per-user sparsity buckets (the cold-start
lens of the paper's motivation) and attention diagnostics for the
collaborative-guidance case study."""

from repro.analysis.sparsity import UserBucketReport, recall_by_history_size
from repro.analysis.attention import attention_entropy

__all__ = [
    "recall_by_history_size",
    "UserBucketReport",
    "attention_entropy",
]
