"""Common interface shared by CG-KGR and every baseline.

A :class:`Recommender` is a :class:`~repro.autograd.nn.Module` that can

* score a batch of (user, item) pairs (:meth:`score_pairs`),
* produce a training loss from positives and sampled negatives
  (:meth:`loss`), and
* react to epoch boundaries (:meth:`begin_epoch`, used for neighborhood
  resampling).

:class:`PropagatedRecommender` is the shared base of the models that score
with rows of one propagated node table (LightGCN, NGCF, KGAT).

The trainer (:mod:`repro.training.trainer`) and both evaluation protocols
work exclusively through this interface, so every model in the comparison
is trained and measured identically — a prerequisite for the paper's
model-vs-model tables to be meaningful.
"""

from __future__ import annotations

import inspect
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import no_grad, ops
from repro.autograd.nn import Module
from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.data.dataset import RecDataset

#: Items per forward when a whole catalogue is scored for a user.
ITEM_BLOCK = 4096


class Recommender(Module):
    """Abstract recommender over a :class:`RecDataset`."""

    #: Human-readable name used in result tables.
    name: str = "recommender"
    #: L2 coefficient λ applied as weight decay by the trainer.
    l2: float = 0.0
    #: Learning rate the trainer should use unless overridden.
    lr: float = 1e-2
    #: Mini-batch size the trainer should use unless overridden.
    batch_size: int = 128
    #: Active training objective: ``"ce"`` (the model's native
    #: :meth:`loss`, pointwise sigmoid-CE by default) or ``"bpr"``
    #: (:meth:`pairwise_loss`, BPR + batch-row EmbLoss).  Set by the
    #: trainer from :class:`~repro.training.trainer.TrainerConfig`; kept
    #: as a model attribute so direct :meth:`training_loss` callers see it.
    objective: str = "ce"

    def __init__(self, dataset: RecDataset, seed: int = 0):
        self.dataset = dataset
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def score_pairs(self, users: Sequence[int], items: Sequence[int]) -> Tensor:
        """Raw matching scores ``ŷ_{u,i}`` for aligned id arrays."""
        raise NotImplementedError

    def loss(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> Tensor:
        """Training loss on a batch (default: pointwise sigmoid BCE).

        This is Eq. (22) with the sign of the negative term corrected (see
        DESIGN.md §5): ``J(1, ŷ⁺) + J(0, ŷ⁻)`` averaged over the batch.
        The λ‖Θ‖² term is applied by the optimizer as weight decay.

        Positives and negatives are scored in a *single* forward pass —
        ``J(1, ŷ) = -log σ(ŷ)`` and ``J(0, ŷ) = -log σ(-ŷ)`` fold into one
        ``-log σ(s·ŷ)`` with a ±1 sign per row, and models whose forward
        has per-batch fixed costs (CG-KGR transforms the full entity table
        per pass) pay them once instead of twice per step.
        """
        n = len(users)
        all_users = np.concatenate([users, users])
        all_items = np.concatenate([pos_items, neg_items])
        signs = np.concatenate(
            [np.ones(n, dtype=np.float64), -np.ones(n, dtype=np.float64)]
        )
        scores = self.score_pairs(all_users, all_items)
        mean_term = ops.mean(ops.log_sigmoid(ops.mul(scores, signs)))
        return ops.neg(ops.mul(mean_term, 2.0))

    def begin_epoch(self, epoch: int) -> None:
        """Hook called before each training epoch (default: no-op)."""

    def extra_state(self) -> Optional[dict]:
        """Non-parameter state that must travel with a weight snapshot.

        Models with per-epoch resampled neighborhoods return their
        sampler tables here, so early stopping restores the exact
        neighborhoods the best validation score was measured with.
        """
        return None

    def load_extra_state(self, state: dict) -> None:
        """Restore state captured by :meth:`extra_state`."""

    def export_config(self) -> dict:
        """Constructor keyword arguments needed to rebuild this model.

        The default implementation reads back every ``__init__`` keyword
        (besides ``dataset``/``seed``) from a same-named attribute, which
        every baseline maintains by convention.  Checkpointing
        (:mod:`repro.serve.checkpoint`) relies on this to re-instantiate a
        model with identical parameter shapes before loading weights.
        """
        signature = inspect.signature(type(self).__init__)
        config = {}
        for name in signature.parameters:
            if name in ("self", "dataset", "seed"):
                continue
            if not hasattr(self, name):
                raise AttributeError(
                    f"{type(self).__name__} does not store constructor "
                    f"argument {name!r} as an attribute; either store it or "
                    "override export_config()"
                )
            config[name] = getattr(self, name)
        return config

    def representations(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Factorized ``(U, I)`` with ``scores = U @ I.T``, if available.

        Models whose score is a pure inner product of user/item vectors
        (BPRMF, LightGCN) return the final matrices so a retrieval index
        can precompute them once; models whose item representation depends
        on the target user (CG-KGR's guidance, KGCN's user-relation
        attention) return ``None`` and are indexed by dense scoring.
        """
        return None

    # ------------------------------------------------------------------
    def predict(self, users: Sequence[int], items: Sequence[int], batch_size: int = 2048) -> np.ndarray:
        """Inference-mode scores as a numpy array (batched, no tape)."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        out = np.empty(len(users), dtype=np.float64)
        with no_grad():
            for start in range(0, len(users), batch_size):
                sl = slice(start, start + batch_size)
                out[sl] = self.score_pairs(users[sl], items[sl]).numpy()
        return out

    def score_all_items(self, user: int) -> np.ndarray:
        """Scores of one user against the full catalogue (Top-K ranking)."""
        n_items = self.dataset.n_items
        users = np.full(n_items, int(user), dtype=np.int64)
        return self.predict(users, np.arange(n_items, dtype=np.int64), ITEM_BLOCK)

    def score_users(self, users: Sequence[int]) -> np.ndarray:
        """``(len(users), n_items)`` scores: each user against the full
        catalogue, row ``j`` equal to ``score_all_items(users[j])``.

        The default stacks :meth:`score_all_items`; a model whose forward
        has a user-independent item side (CG-KGR) overrides it to build
        that side once per item block for every user.
        """
        users = np.asarray(users, dtype=np.int64)
        out = np.empty((len(users), self.dataset.n_items), dtype=np.float64)
        for row, user in enumerate(users):
            out[row] = self.score_all_items(int(user))
        return out

    def bpr_loss(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> Tensor:
        """Bayesian personalized ranking loss (used by BPRMF/CKE/KGAT)."""
        pos = self.score_pairs(users, pos_items)
        neg = self.score_pairs(users, neg_items)
        return ops.bpr_loss(pos, neg)

    # ------------------------------------------------------------------
    def training_loss(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> Tensor:
        """Batch loss under the active :attr:`objective`.

        The single entry point the trainer calls:
        ``"ce"`` dispatches to the model's native :meth:`loss` (bit-
        identical to the pre-objective-axis behavior), ``"bpr"`` to
        :meth:`pairwise_loss`.
        """
        if self.objective == "bpr":
            return self.pairwise_loss(users, pos_items, neg_items)
        if self.objective != "ce":
            raise ValueError(f"unknown training objective {self.objective!r}")
        return self.loss(users, pos_items, neg_items)

    def pairwise_loss(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> Tensor:
        """BPR + batch-row embedding L2 (the KGAT/RecBole recipe).

        ``-mean(log σ(ŷ⁺ - ŷ⁻))`` plus ``λ · EmbLoss`` over the rows
        :meth:`batch_embeddings` gathers for this batch.  λ reuses the
        model's :attr:`l2`; under this objective the trainer builds the
        optimizer with ``weight_decay=0`` so regularization is not applied
        twice.  Positives and negatives are scored in one forward pass for
        the same per-batch fixed-cost reason as the default :meth:`loss`.
        """
        users = np.asarray(users, dtype=np.int64)
        pos_items = np.asarray(pos_items, dtype=np.int64)
        neg_items = np.asarray(neg_items, dtype=np.int64)
        n = len(users)
        scores = self.score_pairs(
            np.concatenate([users, users]),
            np.concatenate([pos_items, neg_items]),
        )
        pos = ops.index_select(scores, np.arange(n))
        neg = ops.index_select(scores, np.arange(n, 2 * n))
        mf = ops.bpr_loss(pos, neg)
        if not self.l2:
            return mf
        rows = self.batch_embeddings(users, pos_items, neg_items)
        if not rows:
            return mf
        return ops.add(mf, ops.mul(ops.emb_loss(rows), self.l2))

    def batch_embeddings(
        self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
    ) -> List[Tensor]:
        """Embedding rows to L2-regularize for a batch (EmbLoss inputs).

        The default walks the attribute conventions shared by the model
        zoo: a ``user_embedding`` table indexed by user id, and item rows
        from whichever of ``item_embedding`` / ``item_cf_embedding`` /
        ``entity_embedding`` tables exist (items are entities in the
        KGCN-family models, so item ids index the entity table directly).
        Models with other layouts (KGAT's unified ``node_embedding``)
        override this.
        """
        from repro.autograd.nn import Embedding

        rows: List[Tensor] = []
        item_ids = np.concatenate([pos_items, neg_items]).astype(np.int64)
        user_table = getattr(self, "user_embedding", None)
        if isinstance(user_table, Embedding):
            rows.append(user_table(np.asarray(users, dtype=np.int64)))
        for attr in ("item_embedding", "item_cf_embedding", "entity_embedding"):
            table = getattr(self, attr, None)
            if isinstance(table, Embedding):
                rows.append(table(item_ids))
        return rows


def normalized_bipartite(dataset: RecDataset) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train edges ``(users, items, n_ui)`` of the user-item graph, with the
    symmetric normalization ``n_ui = 1/√(|N_u||N_i|)`` (degrees clipped at 1)."""
    train = dataset.train
    user_deg = np.zeros(dataset.n_users)
    item_deg = np.zeros(dataset.n_items)
    np.add.at(user_deg, train.users, 1.0)
    np.add.at(item_deg, train.items, 1.0)
    norm = 1.0 / np.sqrt(
        np.maximum(user_deg[train.users], 1.0) * np.maximum(item_deg[train.items], 1.0)
    )
    return train.users.copy(), train.items.copy(), norm


class PropagatedRecommender(Recommender):
    """A model that scores with rows of one propagated node table.

    Subclasses build every node's final representation in one
    :meth:`_propagate` pass; user ``u`` is row ``user_offset + u`` and item
    ``i`` row ``item_offset + i``, and ``ŷ_{u,i}`` is the inner product of
    the two rows.  The loss and :meth:`score_pairs` propagate on the tape;
    :meth:`predict` reads a numpy copy of the table built on first use.

    One rule keeps that copy current: every path that can change the
    parameters or the sampled neighborhoods calls :meth:`drop_table` — a
    forward on the gradient tape (the loss of a step about to be taken),
    :meth:`begin_epoch`, :meth:`load_state_dict`, :meth:`load_extra_state`
    and KGAT's ``pretrain``.
    """

    def __init__(self, dataset: RecDataset, seed: int, user_offset: int, item_offset: int):
        super().__init__(dataset, seed)
        self.user_offset = int(user_offset)
        self.item_offset = int(item_offset)
        self._table: Optional[np.ndarray] = None

    def _propagate(self) -> Tensor:
        """The node table: one row per user, item (and entity) node."""
        raise NotImplementedError

    def drop_table(self) -> None:
        """Forget the inference table; the next :meth:`predict` rebuilds it."""
        self._table = None

    def node_table(self) -> np.ndarray:
        """The propagated table as numpy, built once per parameter state."""
        if self._table is None:
            with no_grad():
                self._table = self._propagate().numpy()
        return self._table

    # ------------------------------------------------------------------
    def _tape_table(self) -> Tensor:
        if is_grad_enabled():
            self.drop_table()  # a step on these parameters may follow
        return self._propagate()

    def _user_rows(self, table: Tensor, users) -> Tensor:
        return ops.gather_rows(table, np.asarray(users, dtype=np.int64) + self.user_offset)

    def _scores(self, table: Tensor, user_rows: Tensor, items) -> Tensor:
        item_rows = ops.gather_rows(table, np.asarray(items, dtype=np.int64) + self.item_offset)
        return ops.sum(ops.mul(user_rows, item_rows), axis=-1)

    def score_pairs(self, users: Sequence[int], items: Sequence[int]) -> Tensor:
        table = self._tape_table()
        return self._scores(table, self._user_rows(table, users), items)

    def _pos_neg_scores(self, users, pos_items, neg_items) -> Tuple[Tensor, Tensor]:
        """``(ŷ⁺, ŷ⁻)`` from one propagation, each user row gathered once."""
        table = self._tape_table()
        user_rows = self._user_rows(table, users)
        return self._scores(table, user_rows, pos_items), self._scores(table, user_rows, neg_items)

    def loss(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> Tensor:
        """BPR ``-mean(log σ(ŷ⁺ - ŷ⁻))`` over the propagated table."""
        pos, neg = self._pos_neg_scores(users, pos_items, neg_items)
        return ops.neg(ops.mean(ops.log_sigmoid(ops.sub(pos, neg))))

    def predict(self, users: Sequence[int], items: Sequence[int], batch_size: int = 2048) -> np.ndarray:
        """Scores from the cached table (one table serves every pair, so
        ``batch_size`` is unused)."""
        table = self.node_table()
        users = np.asarray(users, dtype=np.int64) + self.user_offset
        items = np.asarray(items, dtype=np.int64) + self.item_offset
        return (table[users] * table[items]).sum(axis=-1)

    # ------------------------------------------------------------------
    def begin_epoch(self, epoch: int) -> None:
        self.drop_table()

    def load_state_dict(self, state, strict: bool = True) -> None:
        self.drop_table()
        super().load_state_dict(state, strict)

    def load_extra_state(self, state: dict) -> None:
        self.drop_table()
