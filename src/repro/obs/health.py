"""Training-health monitor: structured anomaly detection for ``fit``.

The :class:`HealthMonitor` watches a training run through cheap hooks the
:class:`~repro.training.trainer.Trainer` calls anyway — per batch, per
epoch, per eval — and emits structured ``anomaly`` events through the
run's tracer whenever something looks pathological:

* ``nonfinite_loss``     — NaN/inf batch loss (always fatal: the trainer
  raises :class:`NonFiniteLossError` with epoch/batch context);
* ``grad_explosion``     — batch gradient norm above
  :data:`GRAD_EXPLODE` (rate-limited to one event per epoch);
* ``grad_vanishing``     — epoch-mean gradient norm below
  :data:`GRAD_VANISH`;
* ``dead_embeddings``    — embedding-table rows whose L2 norm is ~0 at
  the end of training (untrained ids, bad init, or over-regularization);
* ``eval_plateau``       — validation metric flat or declining for
  :data:`PLATEAU_PATIENCE` consecutive evals;
* ``memory_growth``      — live tensor bytes at the epoch boundary grew
  monotonically for :data:`MEM_GROWTH_EPOCHS` consecutive epochs (fed by
  the :class:`~repro.obs.memory.MemoryTracker` when memory tracking is
  on — the classic tape-leak signature).

The thresholds are fixed module constants.  Gradient norms are measured
only while a tracer is on, so the gradient checks run exactly then and
the untraced hot path stays unchanged.  Anomalies other than
``nonfinite_loss`` never stop a run; they land in the tracer and, when a
run store is attached, in the :class:`~repro.obs.runs.RunRecord`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs.events import NULL_TRACER

__all__ = ["HealthMonitor", "NonFiniteLossError"]

#: Batch grad norm above this is an explosion.
GRAD_EXPLODE = 1e3
#: Epoch-mean grad norm below this is vanishing.
GRAD_VANISH = 1e-8
#: Consecutive non-improving evals before an ``eval_plateau`` anomaly.
PLATEAU_PATIENCE = 8
#: Embedding rows with L2 norm below this count as dead.
DEAD_ROW_TOL = 1e-10
#: Fraction of dead rows in one table that triggers the anomaly.
DEAD_ROW_FRACTION = 0.05
#: Consecutive epochs of growing live bytes before ``memory_growth``.
MEM_GROWTH_EPOCHS = 3
#: Relative per-epoch growth below this is noise, not growth.
MEM_GROWTH_REL = 0.01


class NonFiniteLossError(RuntimeError):
    """NaN/inf training loss, with the context needed to reproduce it."""

    def __init__(self, model: str, loss: float, epoch: int, batch_start: int):
        self.model = model
        self.loss = float(loss)
        self.epoch = int(epoch)
        self.batch_start = int(batch_start)
        super().__init__(
            f"{model}: non-finite loss ({loss}) at epoch {epoch}, batch "
            f"starting {batch_start} — check learning rate and initialization"
        )


class HealthMonitor:
    """Collects anomalies and mirrors them as tracer ``anomaly`` events."""

    def __init__(self, tracer=None):
        self.tracer = tracer or NULL_TRACER
        self.anomalies: List[Dict[str, Any]] = []
        self._explosion_epochs: set = set()
        self._plateau_count = 0
        self._plateau_reported = False
        self._best_eval = float("-inf")
        self._last_live_bytes: Optional[int] = None
        self._mem_growth_streak = 0
        self._mem_growth_reported = False

    # ------------------------------------------------------------------
    def record(self, kind: str, **context: Any) -> Dict[str, Any]:
        """Append one anomaly and emit it as a structured tracer event."""
        anomaly = {"kind": kind, **context}
        self.anomalies.append(anomaly)
        self.tracer.event("anomaly", **anomaly)
        return anomaly

    # ------------------------------------------------------------------
    # Hooks called by Trainer
    # ------------------------------------------------------------------
    def nonfinite_loss(
        self, model: str, loss: float, epoch: int, batch_start: int
    ) -> NonFiniteLossError:
        """Record the anomaly and build the exception the trainer raises."""
        self.record(
            "nonfinite_loss",
            model=model,
            loss=float(loss),
            epoch=epoch,
            batch_start=batch_start,
        )
        return NonFiniteLossError(model, loss, epoch, batch_start)

    def observe_batch(
        self, epoch: int, batch_start: int, loss: float, grad_norm: float
    ) -> None:
        if not np.isfinite(grad_norm) or grad_norm > GRAD_EXPLODE:
            # One event per epoch: a diverging run would otherwise flood
            # the trace with thousands of identical anomalies.
            if epoch not in self._explosion_epochs:
                self._explosion_epochs.add(epoch)
                self.record(
                    "grad_explosion",
                    epoch=epoch,
                    batch_start=batch_start,
                    grad_norm=float(grad_norm),
                    loss=float(loss),
                    threshold=GRAD_EXPLODE,
                )

    def observe_epoch(
        self, epoch: int, mean_loss: float, mean_grad_norm: Optional[float] = None
    ) -> None:
        if (
            mean_grad_norm is not None
            and np.isfinite(mean_grad_norm)
            and mean_grad_norm < GRAD_VANISH
        ):
            self.record(
                "grad_vanishing",
                epoch=epoch,
                grad_norm=float(mean_grad_norm),
                loss=float(mean_loss),
                threshold=GRAD_VANISH,
            )

    def observe_eval(self, epoch: int, metric: str, value: float) -> None:
        if value > self._best_eval:
            self._best_eval = value
            self._plateau_count = 0
            self._plateau_reported = False
            return
        self._plateau_count += 1
        if (
            self._plateau_count >= PLATEAU_PATIENCE
            and not self._plateau_reported
        ):
            self._plateau_reported = True
            self.record(
                "eval_plateau",
                epoch=epoch,
                metric=metric,
                best=float(self._best_eval),
                value=float(value),
                evals_since_best=self._plateau_count,
            )

    def observe_memory(self, epoch: int, live_bytes: int) -> None:
        """Epoch-boundary live-byte sample from the memory tracker.

        Steady-state training should return to the same live footprint at
        every epoch boundary; :data:`MEM_GROWTH_EPOCHS` consecutive
        boundaries each more than :data:`MEM_GROWTH_REL` above the last mean
        the tape (or a cache) is retaining tensors — the monotonic-growth
        anomaly.
        """
        live_bytes = int(live_bytes)
        prev = self._last_live_bytes
        self._last_live_bytes = live_bytes
        if prev is None:
            return
        grew = live_bytes > prev + max(1024.0, MEM_GROWTH_REL * prev)
        if not grew:
            self._mem_growth_streak = 0
            self._mem_growth_reported = False
            return
        self._mem_growth_streak += 1
        if (
            self._mem_growth_streak >= MEM_GROWTH_EPOCHS
            and not self._mem_growth_reported
        ):
            self._mem_growth_reported = True
            self.record(
                "memory_growth",
                epoch=epoch,
                live_bytes=live_bytes,
                consecutive_epochs=self._mem_growth_streak,
                threshold_rel=MEM_GROWTH_REL,
            )

    def check_embeddings(self, model) -> None:
        """Flag embedding tables with a meaningful fraction of ~zero rows.

        Runs once at the end of ``fit`` (O(|Θ|)); only 2-D parameters with
        more rows than columns are treated as lookup tables.
        """
        for name, param in model.named_parameters():
            data = param.data
            if data.ndim != 2 or data.shape[0] <= data.shape[1]:
                continue
            row_norms = np.sqrt(np.sum(data * data, axis=1))
            dead = int(np.count_nonzero(row_norms < DEAD_ROW_TOL))
            if dead and dead >= DEAD_ROW_FRACTION * data.shape[0]:
                self.record(
                    "dead_embeddings",
                    parameter=name,
                    dead_rows=dead,
                    total_rows=int(data.shape[0]),
                    fraction=dead / data.shape[0],
                )

    # ------------------------------------------------------------------
    def diagnosis(self) -> str:
        """One-line human summary of everything observed."""
        if not self.anomalies:
            return "healthy: no anomalies observed"
        counts: Dict[str, int] = {}
        for anomaly in self.anomalies:
            counts[anomaly["kind"]] = counts.get(anomaly["kind"], 0) + 1
        parts = [f"{kind}×{n}" for kind, n in sorted(counts.items())]
        return f"{len(self.anomalies)} anomalies: " + ", ".join(parts)

    def summary(self) -> Dict[str, Any]:
        return {
            "n_anomalies": len(self.anomalies),
            "diagnosis": self.diagnosis(),
            "anomalies": list(self.anomalies),
        }
