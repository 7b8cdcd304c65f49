"""train-movie program process: CG-KGR on the movie profile via Trainer.fit.

Launched by ``run.py`` in a fresh interpreter.  It builds what ``repro
train`` builds (dataset, model, Trainer with top-K eval on 80 validation
users every epoch), prints ``READY <seconds>`` once a Trainer is about to
run epoch 1, and with ``--setup-only`` stops there.  Otherwise it runs
``Trainer.fit`` and writes per-step, per-epoch and per-eval timings (and,
with ``--trace``, the spans of the traced epochs) to ``--out``.

Step timing needs no change to the program: ``model.training_loss`` and
``trainer.optimizer.step`` are shadowed per instance, so a step spans the
first call to the last return, i.e. forward → backward → optimizer.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

T_START = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import blas_info, vm_hwm_mb, write_json  # noqa: E402
from tracer import SpanRecorder, install_model_spans  # noqa: E402

#: Profile and validation users of the workload (ROADMAP: movie CG-KGR).
DATASET = "movie"
EVAL_USERS = 80
EVAL_K = 20


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap the public functions of every layer a training step crosses."""
    import repro.training.trainer as trainer_mod
    from repro.autograd.optim import Adam
    from repro.autograd.tensor import Tensor
    from repro.baselines.base import Recommender
    from repro.graph.sampling import NeighborSampler

    install_model_spans(recorder)
    recorder.wrap(trainer_mod, "sample_training_negatives", "data.negatives")
    recorder.wrap(trainer_mod, "evaluate_topk", "eval.evaluate_topk")
    recorder.wrap(NeighborSampler, "resample", "graph.resample")
    recorder.wrap(Recommender, "training_loss", "core.forward")
    recorder.wrap(Tensor, "backward", "autograd.backward")
    recorder.wrap(Adam, "step", "autograd.optim")
    recorder.wrap(Adam, "flush", "autograd.optim")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-from-epoch", type=int, default=0,
                        help="install layer spans from this epoch on (0 = never)")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro  # noqa: F401  (import cost is part of set-up)
    from repro.core import CGKGR, paper_config
    from repro.data import generate_profile
    from repro.training import Trainer, TrainerConfig

    t_import = time.perf_counter() - t0
    t0 = time.perf_counter()
    dataset = generate_profile(DATASET, seed=args.seed)
    t_dataset = time.perf_counter() - t0
    model = CGKGR(dataset, paper_config(DATASET), seed=args.seed)
    trainer = Trainer(
        model,
        TrainerConfig(
            epochs=args.epochs,
            # Early stopping off: every run trains the same epochs.
            early_stop_patience=args.epochs + 1,
            eval_task="topk",
            eval_metric=f"recall@{EVAL_K}",
            eval_k=EVAL_K,
            eval_max_users=EVAL_USERS,
            seed=args.seed,
        ),
    )
    print(f"READY {time.perf_counter() - T_START:.6f}", flush=True)
    setup = {"import_s": t_import, "dataset_s": t_dataset}
    if args.setup_only:
        if args.out:
            write_json(args.out, {"setup": setup})
        return 0

    recorder = SpanRecorder()
    clock = recorder.clock
    steps = []  # [epoch, seconds, span index]
    losses = []
    epochs = []  # [epoch, seconds]
    evals = []  # [seconds, metrics]
    state = {"epoch": 0, "step": None, "t": 0.0}
    model_cls, opt, trainer_cls = type(model), trainer.optimizer, type(trainer)

    # Attribute lookups go through the class at call time, so layer spans
    # installed mid-run (``--trace-from-epoch``) sit inside these.
    def training_loss(*a, **k):
        state["t"] = clock()
        state["step"] = recorder.begin("train.step")
        loss = model_cls.training_loss(model, *a, **k)
        losses.append(float(loss.data))
        return loss

    def step():
        out = type(opt).step(opt)
        recorder.end(state["step"])
        steps.append([state["epoch"], clock() - state["t"], state["step"]])
        return out

    def train_epoch(epoch):
        if epoch == args.trace_from_epoch:
            install_layer_spans(recorder)
        state["epoch"] = epoch
        t = clock()
        idx = recorder.begin("training.epoch", epoch=epoch)
        try:
            return trainer_cls.train_epoch(trainer, epoch)
        finally:
            recorder.end(idx)
            epochs.append([epoch, clock() - t])

    def evaluate():
        t = clock()
        idx = recorder.begin("eval.evaluate", epoch=state["epoch"])
        try:
            metrics = trainer_cls.evaluate(trainer)
        finally:
            recorder.end(idx)
        evals.append([clock() - t, metrics.get(f"recall@{EVAL_K}")])
        return metrics

    # Built once, at the first eval (before any traced epoch).
    import repro.training.trainer as trainer_mod

    recorder.wrap(trainer_mod, "build_mask_table", "eval.mask_table")
    model.training_loss = training_loss
    opt.step = step
    trainer.train_epoch = train_epoch
    trainer.evaluate = evaluate

    cpu0, wall0 = time.process_time(), time.perf_counter()
    error = None
    try:
        fit = trainer.fit()
        best = fit.best_metric
    except Exception as exc:  # the run reports the failure; no traceback
        error = f"{type(exc).__name__}: {exc}"
        best = None
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    result = {
        "setup": setup,
        "error": error,
        "examples_per_epoch": len(dataset.train.users),
        "steps": steps,
        "losses": losses,
        "epochs": epochs,
        "evals": evals,
        "best_recall": best,
        "peak_rss_mb": vm_hwm_mb(),
        "cpu_wall_ratio": cpu / wall if wall > 0 else 0.0,
        "host": blas_info(),
    }
    if args.trace_from_epoch:
        result["trace"] = recorder.dump()
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
