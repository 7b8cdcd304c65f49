"""Mini-batch trainer shared by CG-KGR and every baseline.

Implements the paper's optimization protocol (Sec. III-C / IV-C):

* Adam with the model's learning rate and Xavier-initialized weights;
* balanced negative sampling refreshed every epoch (``|Y⁺| = |Y⁻|``,
  "updated on the fly");
* L2 regularization ``λ‖Θ‖²`` applied as optimizer weight decay;
* early stopping when the validation metric is non-increasing for
  ``patience`` consecutive epochs (the paper uses 10), restoring the best
  snapshot;
* per-epoch wall-clock timing (Table VI's ``t̄``) and the epoch index of
  the best metric (``b̄e``).

Every fit is watched by a :class:`~repro.obs.health.HealthMonitor`
(non-finite loss, exploding/vanishing gradients, eval plateaus, dead
embedding rows — structured ``anomaly`` events through the tracer), and
can be persisted into a :class:`~repro.obs.runs.RunStore` by setting
``TrainerConfig.run_store`` (see docs/runs.md).
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.autograd.optim import Adam
from repro.baselines.base import Recommender
from repro.data.negative_sampling import PositivePairIndex, sample_training_negatives
from repro.eval.ctr import evaluate_ctr
from repro.eval.ranking import build_mask_table, evaluate_topk
from repro.obs.events import NULL_TRACER
from repro.obs.health import HealthMonitor


@dataclass
class TrainerConfig:
    """Knobs of the training loop."""

    epochs: int = 20
    early_stop_patience: int = 10
    eval_every: int = 1
    #: "topk", "ctr", or "none" (train for a fixed epoch budget).
    eval_task: str = "topk"
    eval_metric: str = "recall@20"
    eval_k: int = 20
    #: Training objective: ``"ce"`` trains with each model's native
    #: ``loss()`` (pointwise sigmoid-CE by default, Eq. 22); ``"bpr"``
    #: trains every model pairwise — BPR + batch-row embedding L2
    #: (EmbLoss), the KGAT/RecBole recipe — making objective choice a
    #: one-config comparison axis across the whole zoo.  Under ``"bpr"``
    #: the optimizer's weight decay is disabled so λ is not applied twice
    #: (EmbLoss carries it instead; see docs/training.md).
    objective: str = "ce"
    #: Cap on evaluated validation users per epoch (speed).
    eval_max_users: Optional[int] = 80
    shuffle: bool = True
    verbose: bool = False
    seed: int = 0
    #: Track tensor allocations during ``fit`` with a
    #: :class:`~repro.obs.memory.MemoryTracker`: peak/live bytes, per-op
    #: attribution, epoch-boundary leak detection, and (with a tracer)
    #: a ``memory`` counter track in the exported timeline.
    track_memory: bool = False
    #: Destination of per-epoch progress lines (``verbose``); defaults to
    #: the ``repro.training`` logger, so output works with or without an
    #: ``obs`` tracer attached.
    logger: Optional[logging.Logger] = None
    #: ``repro.obs.Tracer`` receiving fit/epoch/eval spans and telemetry
    #: events; ``None`` disables tracing at (near) zero overhead.
    tracer: Optional[object] = None
    #: ``repro.obs.HealthMonitor`` watching the run; ``None`` creates a
    #: default monitor (custom thresholds / abort policy via an explicit
    #: instance).
    health: Optional[object] = None
    #: ``repro.obs.RunStore`` to persist this fit into (config hash,
    #: per-epoch history, final metrics, anomalies); ``None`` skips it.
    run_store: Optional[object] = None

    def __post_init__(self) -> None:
        if self.eval_task not in ("topk", "ctr", "none"):
            raise ValueError(f"unknown eval task {self.eval_task!r}")
        if self.objective not in ("ce", "bpr"):
            raise ValueError(f"unknown training objective {self.objective!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("eval_every", "eval_k", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.eval_max_users is not None and self.eval_max_users < 1:
            raise ValueError("eval_max_users must be None or >= 1")


@dataclass
class TrainResult:
    """Outcome of a training run."""

    history: List[Dict[str, float]] = field(default_factory=list)
    best_epoch: int = 0
    best_metric: float = float("-inf")
    time_per_epoch: float = 0.0
    total_time: float = 0.0
    stopped_early: bool = False


class Trainer:
    """Trains one :class:`Recommender` on its dataset's train split."""

    def __init__(self, model: Recommender, config: Optional[TrainerConfig] = None):
        self.model = model
        self.config = config or TrainerConfig()
        # The objective travels on the model so any direct
        # `training_loss` caller sees it.
        model.objective = self.config.objective
        # Under "bpr" the batch-row EmbLoss inside `pairwise_loss` carries
        # λ; optimizer weight decay must be off or L2 is applied twice.
        self.optimizer = Adam(
            model.parameters(),
            lr=model.lr,
            weight_decay=0.0 if self.config.objective == "bpr" else model.l2,
        )
        self._neg_rng = np.random.default_rng(self.config.seed + 7919)
        self._all_positives = model.dataset.all_positive_items()
        # Built once, reused by every epoch's negative-sampling rounds.
        self._positive_index = PositivePairIndex(
            self._all_positives, model.dataset.n_items
        )
        # Built lazily on first top-k eval, reused across eval epochs.
        self._mask_table = None
        self.logger = self.config.logger or logging.getLogger("repro.training")
        self.tracer = self.config.tracer or NULL_TRACER
        self.health: HealthMonitor = (
            self.config.health or HealthMonitor()
        ).bind(self.tracer)
        #: Telemetry of the most recent ``train_epoch`` call (examples,
        #: batches, mean grad norm when tracing is enabled).
        self.last_epoch_stats: Dict[str, float] = {}
        #: ``RunRecord`` persisted by the most recent ``fit`` (when
        #: ``config.run_store`` is set).
        self.last_run_record = None

    @property
    def memory_summary(self) -> Dict[str, float]:
        """Tensor-memory summary from the last ``fit`` (``track_memory``)."""
        return getattr(self, "_memory_summary", {}) or {}

    @property
    def peak_mem_bytes(self) -> Optional[float]:
        """Tensor-memory watermark of the last ``fit``; ``None`` unless it
        ran with ``track_memory``."""
        memory = self.memory_summary
        if not memory:
            return None
        return float(memory.get("peak_bytes", 0))

    def train_epoch(self, epoch: int) -> float:
        """One pass over the training positives; returns the mean loss.

        With a tracer attached, the epoch is cut into back-to-back
        ``complete`` intervals — ``epoch.prepare`` (neighbor resampling,
        negatives, shuffle), then per batch ``forward``, ``backward``,
        ``grad_norm`` and ``optimizer.step`` — so ``repro obs anatomy``
        can account for its wall time (docs/observability.md).
        """
        model = self.model
        cfg = self.config
        traced = self.tracer.enabled
        if traced:
            tick = time.time()
        model.begin_epoch(epoch)
        train = model.dataset.train
        users = train.users
        pos_items = train.items
        neg_items = sample_training_negatives(
            train,
            self._all_positives,
            model.dataset.n_items,
            self._neg_rng,
            index=self._positive_index,
        )
        order = (
            np.random.default_rng(cfg.seed + epoch).permutation(len(users))
            if cfg.shuffle
            else np.arange(len(users))
        )
        if traced:
            tick = self._phase("epoch.prepare", tick)
        total_loss = 0.0
        n_batches = 0
        batch_size = model.batch_size
        # Grad norms cost an extra O(|Θ|) pass per batch, so they are only
        # measured when a tracer is attached or the health monitor asks
        # for them (keeps the untraced hot path within the <3% overhead
        # budget of bench_table6).
        track_grads = traced or self.health.wants_grad_norms
        grad_norm_sum = 0.0
        for start in range(0, len(users), batch_size):
            batch = order[start : start + batch_size]
            loss = model.training_loss(
                users[batch], pos_items[batch], neg_items[batch]
            )
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                # Emits a structured `anomaly` event through the tracer,
                # then aborts with full epoch/batch context.
                raise self.health.nonfinite_loss(
                    model.name, loss_value, epoch, start
                )
            if traced:
                tick = self._phase("forward", tick)
            self.optimizer.zero_grad()
            loss.backward()
            # Free this batch's tape now: kept until the next forward, two
            # batches' intermediates would be alive at once (peak RSS).
            del loss
            if traced:
                tick = self._phase("backward", tick)
            if track_grads:
                grad_norm = self._global_grad_norm()
                grad_norm_sum += grad_norm
                self.health.observe_batch(epoch, start, loss_value, grad_norm)
                if traced:
                    tick = self._phase("grad_norm", tick)
            self.optimizer.step()
            total_loss += loss_value
            n_batches += 1
            if traced:
                tick = self._phase("optimizer.step", tick)
        self.last_epoch_stats = {
            "examples": float(len(users)),
            "batches": float(n_batches),
        }
        mean_loss = total_loss / max(1, n_batches)
        mean_grad = None
        if track_grads and n_batches:
            mean_grad = grad_norm_sum / n_batches
            self.last_epoch_stats["grad_norm"] = mean_grad
        self.health.observe_epoch(epoch, mean_loss, mean_grad)
        return mean_loss

    def _phase(self, name: str, since: float) -> float:
        """Emit the wall interval ``since`` → now as epoch phase ``name``;
        returns now, the start of the next phase."""
        now = time.time()
        self.tracer.complete(name, dur=now - since, t0=since, cat="phase")
        return now

    def _global_grad_norm(self) -> float:
        """L2 norm over every parameter gradient of the current batch."""
        total = 0.0
        for p in self.optimizer.params:
            if p.grad is not None:
                total += float(np.sum(p.grad * p.grad))
        return float(np.sqrt(total))

    def evaluate(self) -> Dict[str, float]:
        """Validation metrics per the configured task."""
        cfg = self.config
        model = self.model
        if cfg.eval_task == "topk":
            if self._mask_table is None:
                self._mask_table = build_mask_table(
                    [model.dataset.train], model.dataset.valid.n_users
                )
            return evaluate_topk(
                model,
                model.dataset.valid,
                k_values=(cfg.eval_k,),
                mask_splits=[model.dataset.train],
                max_users=cfg.eval_max_users,
                rng=np.random.default_rng(cfg.seed),
                mask_table=self._mask_table,
            )
        if cfg.eval_task == "ctr":
            return evaluate_ctr(model, model.dataset.valid, negative_seed=cfg.seed)
        return {}

    # ------------------------------------------------------------------
    def fit(self) -> TrainResult:
        """Run the full loop with early stopping and best-state restore."""
        cfg = self.config
        tracer = self.tracer
        result = TrainResult()
        best_state = None
        best_extra = None
        epochs_since_best = 0
        start_time = time.perf_counter()
        epoch_times: List[float] = []
        self._memory_summary: Dict = {}

        mem = None
        if cfg.track_memory:
            from repro.obs.memory import MemoryTracker

            # Parameters exist already, so they are registered persistent
            # by identity and never counted as epoch leaks.
            mem = MemoryTracker(tracer=tracer if tracer.enabled else None)
            mem.start()
            mem.register_persistent(self.model.parameters())

        def mem_phase(name: str):
            return mem.phase(name) if mem is not None else nullcontext()

        try:
            with tracer.span(
                "fit", model=self.model.name, dataset=self.model.dataset.name,
                epochs=cfg.epochs,
            ) as fit_span:
                for epoch in range(1, cfg.epochs + 1):
                    if mem is not None:
                        mem.begin_epoch(epoch)
                    # The epoch span brackets exactly the region timed for
                    # Table VI's t̄, so JSONL epoch durations and the reported
                    # time_per_epoch agree; eval runs in its own span.
                    with tracer.span("epoch", epoch=epoch) as epoch_span:
                        tick = time.perf_counter()
                        with mem_phase("train"):
                            mean_loss = self.train_epoch(epoch)
                        elapsed = time.perf_counter() - tick
                        if tracer.enabled:
                            stats = self.last_epoch_stats
                            epoch_span.set(
                                loss=mean_loss,
                                examples_per_sec=(
                                    stats.get("examples", 0.0) / elapsed
                                    if elapsed > 0
                                    else 0.0
                                ),
                            )
                            if "grad_norm" in stats:
                                epoch_span.set(grad_norm=stats["grad_norm"])
                    epoch_times.append(elapsed)

                    record: Dict[str, float] = {"epoch": epoch, "loss": mean_loss}
                    if cfg.eval_task != "none" and epoch % cfg.eval_every == 0:
                        with tracer.span("eval", epoch=epoch), mem_phase("eval"):
                            metrics = self.evaluate()
                        record.update(metrics)
                        metric = metrics.get(cfg.eval_metric)
                        if metric is None:
                            available = sorted(metrics)
                            raise KeyError(
                                f"eval metric {cfg.eval_metric!r} not produced; "
                                f"available: {available}"
                            )
                        self.health.observe_eval(epoch, cfg.eval_metric, metric)
                        if metric > result.best_metric:
                            result.best_metric = metric
                            result.best_epoch = epoch
                            best_state = self.model.state_dict()
                            best_extra = self.model.extra_state()
                        # Patience counts *epochs*, not eval rounds: with
                        # eval_every > 1 the paper's "non-increasing for 10
                        # consecutive epochs" must still mean 10 epochs.
                        epochs_since_best = epoch - result.best_epoch
                    if mem is not None:
                        # Intermediates born this epoch must be dead by now;
                        # survivors are tape/cache leaks (health anomaly
                        # after `mem_growth_epochs` growing boundaries).
                        boundary = mem.epoch_boundary(epoch)
                        self.health.observe_memory(
                            epoch, boundary["live_bytes"]
                        )
                    result.history.append(record)
                    if tracer.enabled:
                        tracer.event(
                            "epoch_metrics",
                            **record,
                            epochs_since_best=epochs_since_best,
                            best_epoch=result.best_epoch,
                        )
                    if cfg.verbose:
                        self.logger.info(
                            "[%s] %s",
                            self.model.name,
                            ", ".join(f"{k}={v:.4f}" for k, v in record.items()),
                        )
                    if (
                        cfg.eval_task != "none"
                        and epochs_since_best >= cfg.early_stop_patience
                    ):
                        result.stopped_early = True
                        tracer.event(
                            "early_stop",
                            epoch=epoch,
                            best_epoch=result.best_epoch,
                            best_metric=result.best_metric,
                            patience=cfg.early_stop_patience,
                        )
                        break

                if best_state is not None:
                    self.model.load_state_dict(best_state)
                    if best_extra is not None:
                        self.model.load_extra_state(best_extra)
                if cfg.eval_task == "none":
                    result.best_epoch = cfg.epochs
                result.total_time = time.perf_counter() - start_time
                result.time_per_epoch = float(np.mean(epoch_times)) if epoch_times else 0.0
                self.health.check_embeddings(self.model)
                fit_span.set(
                    best_epoch=result.best_epoch,
                    best_metric=result.best_metric,
                    time_per_epoch=result.time_per_epoch,
                    stopped_early=result.stopped_early,
                    anomalies=len(self.health.anomalies),
                )
        finally:
            if mem is not None:
                # Unpatch Tensor construction even on abort; the summary
                # (peak/by_op/leaks) feeds the run record and timeline.
                mem.stop()
                self._memory_summary = mem.summary()
        self._record_run(result)
        return result

    # ------------------------------------------------------------------
    def _record_run(self, result: TrainResult):
        """Persist this fit into ``config.run_store`` (no-op without one)."""
        store = self.config.run_store
        if store is None:
            return None
        from repro.obs.runs import RunRecord, capture_env, dataset_fingerprint

        cfg = self.config
        model = self.model
        try:
            model_config = model.export_config()
        except Exception:  # models without the attribute convention
            model_config = {}
        config = {
            "model": {"name": model.name, **{str(k): v for k, v in model_config.items()}},
            "trainer": {
                "epochs": cfg.epochs,
                "early_stop_patience": cfg.early_stop_patience,
                "eval_task": cfg.eval_task,
                "eval_metric": cfg.eval_metric,
                "eval_k": cfg.eval_k,
                "objective": cfg.objective,
                "lr": model.lr,
                "l2": model.l2,
                "batch_size": model.batch_size,
            },
        }
        metrics: Dict[str, float] = {}
        if result.best_metric != float("-inf"):
            metrics[cfg.eval_metric] = result.best_metric
        if result.history:
            # The model was restored to the best epoch, so the headline
            # ``loss`` must be the best epoch's; the last epoch's value
            # stays available as ``final_loss``.
            best_record = next(
                (r for r in result.history if r["epoch"] == result.best_epoch),
                result.history[-1],
            )
            metrics["loss"] = best_record["loss"]
            metrics["final_loss"] = result.history[-1]["loss"]
        memory_summary = self.memory_summary
        if memory_summary:
            metrics["peak_mem_bytes"] = self.peak_mem_bytes
        record = RunRecord(
            kind="train",
            model=model.name,
            dataset=model.dataset.name,
            seed=cfg.seed,
            config=config,
            dataset_fingerprint=dataset_fingerprint(model.dataset),
            env=capture_env(),
            history=result.history,
            metrics=metrics,
            wall_time_s=result.total_time,
            time_per_epoch_s=result.time_per_epoch,
            best_epoch=result.best_epoch,
            stopped_early=result.stopped_early,
            spans=self.tracer.summary() if self.tracer.enabled else {},
            anomalies=self.health.anomalies,
            memory=memory_summary,
        )
        store.save(record)
        self.last_run_record = record
        return record
