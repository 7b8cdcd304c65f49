"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro datasets                      # list profiles + stats
    python -m repro generate --dataset book --out /tmp/book
    python -m repro prep --data-dir /tmp/book --out /tmp/book-prep --min-user-k 3
    python -m repro train --dataset music --model cg-kgr --epochs 20
    python -m repro train --data-dir /tmp/book-prep --model ckan
    python -m repro train --dataset movie --model cg-kgr --objective bpr
    python -m repro compare --dataset book --models bprmf,kgcn,cg-kgr
    python -m repro export --dataset music --model cg-kgr --out ckpt/
    python -m repro serve --checkpoint ckpt/ --port 8080
    python -m repro profile cg-kgr --dataset music --steps 3
    python -m repro runs list
    python -m repro runs check --baseline <run-or-file>

``train`` reports Top-K and CTR metrics on the test split; ``compare``
runs the paired multi-seed protocol and prints a Table IV-style block;
``export`` trains and writes a serving checkpoint; ``serve`` boots the
HTTP recommendation server from one (see docs/serving.md); ``profile``
runs instrumented training steps and prints the per-op autograd profile
(see docs/observability.md).  ``train`` and ``export`` build one
``Trainer``; ``profile`` steps that trainer's optimizer; ``serve`` makes
one ``engine_from_checkpoint`` call.

Telemetry flags: ``train``/``export``/``profile``/``serve`` accept
``--trace PATH`` (alias ``--log-jsonl``) to write structured span/event
telemetry as JSONL; ``train``/``export``/``profile`` also accept
``--timeline PATH`` (Chrome trace-event JSON for Perfetto, implies
memory tracking) and ``--track-memory`` (tensor-allocation watermarks,
``peak_mem_bytes`` metric, leak detection).  Only ``train`` and
``export`` accept ``--record`` (with ``--runs-dir``) to persist the fit
into the run registry; ``compare`` takes none of these flags.

``obs timeline`` converts an existing JSONL trace for Perfetto and ``obs
anatomy`` prints the epoch-anatomy phase breakdown.  ``runs`` inspects
the persistent run registry: ``list``/``show`` and the CI regression
gate ``check --baseline <ref>`` (exit 1 on regression; see
docs/runs.md).  An unknown run ref, unreadable trace path, missing file,
corrupt artifact (checkpoint, index, prepared dataset), mistyped run
record or non-finite ``runs check`` baseline value exits 2 with a
one-line error; so does a malformed flag value
(argparse, e.g. a negative ``--tolerance``), and an
``--index-mode factorized|ann`` on a model without factorized
representations (``export`` checks this before training).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

import numpy as np

from repro.baselines import make_baseline, model_key
from repro.core import CGKGR, paper_config
from repro.data import PROFILES, generate_profile, load_dataset_dir
from repro.data.loaders import save_interactions_file, save_kg_file
from repro.eval import evaluate_ctr, evaluate_topk
from repro.training import Trainer, TrainerConfig, run_comparison
from repro.utils import format_table
from repro.utils.artifact import ArtifactError, atomic_write_text

def _load_dataset(args) -> "RecDataset":
    if getattr(args, "data_dir", None):
        return load_dataset_dir(args.data_dir, split_seed=args.seed)
    return generate_profile(args.dataset, seed=args.seed, scale=args.scale)


def _make_model(name: str, dataset, seed: int):
    if model_key(name) == "cg-kgr":
        preset = dataset.name if dataset.name in PROFILES else "book"
        return CGKGR(dataset, paper_config(preset), seed=seed)
    return make_baseline(name, dataset, seed=seed)


def cmd_datasets(args) -> int:
    rows = []
    for name in PROFILES:
        summary = generate_profile(name, seed=0).summary()
        rows.append(
            [name] + [summary[k] for k in ("users", "items", "interactions", "entities", "relations", "kg_triples", "triples_per_item")]
        )
    print(
        format_table(
            ["profile", "users", "items", "interactions", "entities",
             "relations", "kg triples", "triples/item"],
            rows,
            title="Synthetic benchmark profiles (Table II stand-ins)",
        )
    )
    return 0


def cmd_generate(args) -> int:
    import os

    dataset = generate_profile(args.dataset, seed=args.seed, scale=args.scale)
    os.makedirs(args.out, exist_ok=True)
    pairs = np.concatenate(
        [dataset.train.pairs(), dataset.valid.pairs(), dataset.test.pairs()]
    )
    from repro.graph import InteractionGraph

    everything = InteractionGraph(pairs, dataset.n_users, dataset.n_items)
    save_interactions_file(os.path.join(args.out, "ratings_final.txt"), everything)
    save_kg_file(os.path.join(args.out, "kg_final.txt"), dataset.kg)
    print(f"wrote {args.out}/ratings_final.txt and kg_final.txt")
    print("stats:", dataset.summary())
    return 0


def cmd_prep(args) -> int:
    """Run the dataset-preparation pipeline (docs/data.md)."""
    import os

    from repro.data.prep import PrepConfig, prepare

    if args.data_dir:
        ratings = os.path.join(args.data_dir, args.ratings_filename)
        kg = os.path.join(args.data_dir, args.kg_filename)
    else:
        if not (args.ratings and args.kg):
            print(
                "prep needs --data-dir DIR or both --ratings and --kg",
                file=sys.stderr,
            )
            return 2
        ratings, kg = args.ratings, args.kg
    config = PrepConfig(
        min_user_interactions=args.min_user_k,
        min_item_interactions=args.min_item_k,
        min_relation_count=args.min_relation_count,
        max_kg_hops=args.kg_hops if args.kg_hops >= 0 else None,
        split_seed=args.split_seed,
        name=args.name or os.path.basename(os.path.normpath(args.out)),
    )
    manifest = prepare(ratings, kg, args.out, config)
    sizes = manifest["sizes"]
    stats = manifest["stats"]
    print(
        f"prepared '{manifest['name']}': {sizes['n_users']} users × "
        f"{sizes['n_items']} items, {sizes['n_interactions']} interactions, "
        f"{sizes['n_triples']} KG triples over {sizes['n_entities']} "
        f"entities / {sizes['n_relations']} relations"
    )
    print(
        "dropped: "
        f"{stats['duplicate_pairs_dropped']} duplicate pairs, "
        f"{stats['duplicate_triples_dropped']} duplicate triples, "
        f"{stats['relations_dropped']} rare relations, "
        f"{stats['kcore_pairs_dropped']} k-core pairs, "
        f"{stats['orphan_triples_dropped']} orphan triples"
    )
    print(f"fingerprint {manifest['fingerprint'][:16]}… -> {args.out}")
    print(f"train with: repro train --data-dir {args.out}")
    return 0


def _make_tracer(args, keep_events: bool = True):
    """Build a Tracer from ``--trace PATH`` / ``--timeline PATH``.

    ``--timeline`` needs the event stream even without ``--trace``: it
    gets an in-memory tracer (no JSONL file).  Returns None when neither
    flag asked for tracing.  ``keep_events=False`` only writes the file.
    """
    if not (args.trace or getattr(args, "timeline", None)):
        return None
    from repro.obs import Tracer

    return Tracer(path=args.trace, keep_events=keep_events)


def _close_tracer(args, tracer) -> None:
    """Write ``--timeline`` from ``tracer``'s events, then close it."""
    if tracer is None:
        return
    if getattr(args, "timeline", None):
        from repro.obs import write_timeline

        trace = write_timeline(tracer.events, args.timeline)
        print(
            f"wrote timeline ({len(trace['traceEvents'])} events) to "
            f"{args.timeline} — open in https://ui.perfetto.dev"
        )
    tracer.close()
    if tracer.path:
        print(f"wrote trace to {tracer.path} (run {tracer.run_id})")


def _trainer_config(args, **extra) -> TrainerConfig:
    """The ``TrainerConfig`` of ``train``/``export``/``compare``."""
    return TrainerConfig(
        epochs=args.epochs,
        early_stop_patience=args.patience,
        eval_task="topk",
        eval_metric=f"recall@{args.k}",
        eval_k=args.k,
        eval_max_users=args.eval_users,
        objective=args.objective,
        **extra,
    )


def _fit(args, index_mode: str = "none"):
    """Build the dataset and model of ``train``/``export`` and fit them.

    Returns ``(model, trainer, fit, tracer)``; the tracer stays open so
    ``export`` can trace its index build into the same file.  An
    ``index_mode`` the model cannot be indexed with raises
    :class:`~repro.serve.index.IndexModeError` before training.
    """
    dataset = _load_dataset(args)
    model = _make_model(args.model, dataset, args.seed)
    if index_mode in ("factorized", "ann"):
        from repro.serve.index import factorized_representations

        factorized_representations(model, index_mode)
    print(f"training {model.name} on {dataset.name}: {dataset.summary()}")
    if args.verbose:
        # Route the trainer's per-epoch log lines to stdout.
        logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    tracer = _make_tracer(args)
    run_store = None
    if args.record:
        from repro.obs import RunStore

        run_store = RunStore(args.runs_dir)
    trainer = Trainer(
        model,
        _trainer_config(
            args,
            verbose=args.verbose,
            seed=args.seed,
            tracer=tracer,
            track_memory=args.track_memory or bool(args.timeline),
            run_store=run_store,
        ),
    )
    fit = trainer.fit()
    record = trainer.last_run_record
    if record is not None:
        print(f"recorded run {record.run_id} (config {record.config_hash})")
    return model, trainer, fit, tracer


def cmd_train(args) -> int:
    model, trainer, fit, tracer = _fit(args)
    _close_tracer(args, tracer)
    memory = trainer.memory_summary
    if memory:
        print(
            f"memory: peak {memory['peak_bytes'] / 1048576:.1f} MiB over "
            f"{memory['n_allocs']} allocations"
            + (
                f", LEAKED {memory['leaked_tensors']} tensor(s)"
                if memory.get("leaked_tensors")
                else ""
            )
        )
    print(
        f"best epoch {fit.best_epoch} (val recall@{args.k} = {fit.best_metric:.4f}), "
        f"{fit.time_per_epoch:.2f}s/epoch"
    )
    dataset = model.dataset
    topk = evaluate_topk(
        model, dataset.test, k_values=(args.k,),
        mask_splits=[dataset.train, dataset.valid],
    )
    ctr = evaluate_ctr(model, dataset.test)
    print(
        f"test: recall@{args.k} = {topk[f'recall@{args.k}']:.4f}, "
        f"ndcg@{args.k} = {topk[f'ndcg@{args.k}']:.4f}, "
        f"auc = {ctr['auc']:.4f}, f1 = {ctr['f1']:.4f}"
    )
    return 0


def cmd_compare(args) -> int:
    names = [n.strip() for n in args.models.split(",") if n.strip()]
    factories = {
        name: (lambda ds, seed, n=name: _make_model(n, ds, seed)) for name in names
    }
    result = run_comparison(
        args.dataset,
        factories,
        seeds=list(range(args.seeds)),
        trainer_config=_trainer_config(args),
        topk_values=(args.k,),
        eval_ctr_too=True,
        max_eval_users=args.eval_users,
        scale=args.scale,
    )
    rows = []
    for name in names:
        rows.append(
            [
                name,
                f"{100 * result.mean(name, f'recall@{args.k}'):.2f} ± {100 * result.std(name, f'recall@{args.k}'):.2f}",
                f"{100 * result.mean(name, f'ndcg@{args.k}'):.2f}",
                f"{100 * result.mean(name, 'auc'):.2f}",
            ]
        )
    print(
        format_table(
            ["model", f"recall@{args.k}(%)", f"ndcg@{args.k}(%)", "auc(%)"],
            rows,
            title=f"{args.dataset}: {args.seeds}-seed comparison",
        )
    )
    if len(names) >= 2 and args.seeds >= 2:
        report = result.significance(f"recall@{args.k}")
        print(
            f"\nbest = {report['best']} vs {report['second']}: "
            f"gain {report['gain_pct']:+.2f}%, p = {report['p_value']:.4f}"
            f"{' (significant)' if report['significant'] else ''}"
        )
    return 0


def _ann_params(args) -> dict:
    """CLI knobs → IVFIndex build parameters (mode='ann' only)."""
    return {
        "nlist": args.nlist,
        "nprobe": args.nprobe,
        "seed": getattr(args, "seed", 0),
    }


def _report_ann_index(index) -> None:
    stats = getattr(index, "stats", None)
    if stats:
        recall_k = int(stats.get("recall_k", 20))
        recall = stats.get(f"recall@{recall_k}", 0.0)
        print(
            f"ann index: nlist={int(stats['nlist'])} "
            f"nprobe={int(stats['nprobe'])} — "
            f"measured recall@{recall_k} = {recall:.4f} "
            f"on {int(stats['probe_users'])} probe users"
        )


def cmd_export(args) -> int:
    from repro.serve import save_checkpoint
    from repro.serve.index import IndexModeError

    try:
        model, _, fit, tracer = _fit(args, args.index_mode)
    except IndexModeError as exc:
        return _bad_input(exc)
    dataset = model.dataset
    if args.data_dir:
        dataset_spec = {"data_dir": args.data_dir, "seed": args.seed}
    else:
        dataset_spec = {
            "profile": args.dataset, "seed": args.seed, "scale": args.scale,
        }
    index = None
    if args.index_mode != "none":
        from repro.obs.events import set_default_tracer
        from repro.serve import TopKIndex

        # The index build traces through the process-default tracer
        # (ann.build/ann.kmeans spans); install ours so they land in
        # the same --trace file as the training run.
        if tracer is not None:
            set_default_tracer(tracer)
        try:
            index = TopKIndex.build(
                model,
                mask_splits=[dataset.train, dataset.valid],
                mode=args.index_mode,
                ann_params=_ann_params(args) if args.index_mode == "ann" else None,
            )
        finally:
            set_default_tracer(None)
        _report_ann_index(index)
    _close_tracer(args, tracer)
    save_checkpoint(
        model,
        args.out,
        dataset_spec=dataset_spec,
        metrics={
            "best_epoch": fit.best_epoch,
            f"val_recall@{args.k}": fit.best_metric,
        },
        index=index,
    )
    print(
        f"wrote checkpoint to {args.out} "
        f"({model.num_parameters()} parameters, best epoch {fit.best_epoch}"
        + (f", {index.mode} index shipped" if index is not None else "")
        + ")"
    )
    return 0


def cmd_serve(args) -> int:
    from repro.serve import RecommendationServer, engine_from_checkpoint
    from repro.serve.index import IndexModeError

    try:
        engine = engine_from_checkpoint(
            args.checkpoint,
            index_users=args.index_users,
            mode=args.index_mode,
            cache_size=args.cache_size,
            ann_params=_ann_params(args) if args.index_mode == "ann" else None,
            use_saved_index=not args.rebuild_index,
        )
    except IndexModeError as exc:
        return _bad_input(exc)
    print(f"loaded {engine.model.name} checkpoint from {args.checkpoint}")
    _report_ann_index(engine.index)
    # A long-running server must not keep every event in memory.
    tracer = _make_tracer(args, keep_events=False)
    server = RecommendationServer(
        engine,
        host=args.host,
        port=args.port,
        quiet=False,
        tracer=tracer,
        slo_specs=args.slo,  # None → server defaults (docs/observability.md)
        slow_capacity=args.slow_log,
    )
    print(
        f"serving {engine.index.n_indexed_users}/{engine.index.n_users} users "
        f"({engine.index.mode} index, {engine.index.memory_bytes()} bytes) "
        f"on http://{args.host}:{server.port}"
    )
    for spec in server.slo.specs:
        print(f"slo: {spec.describe()}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        _close_tracer(args, tracer)
    return 0


def cmd_profile(args) -> int:
    """Run instrumented training steps and print the per-op profile."""
    from repro.data.negative_sampling import sample_training_negatives
    from repro.obs import NULL_TRACER, profile

    dataset = _load_dataset(args)
    model = _make_model(args.model, dataset, args.seed)
    # The trainer sets the objective on the model and owns the optimizer
    # rule (no weight decay under "bpr"); step exactly what fit would.
    optimizer = Trainer(model, TrainerConfig(objective=args.objective)).optimizer
    train = dataset.train
    rng = np.random.default_rng(args.seed)
    negatives = sample_training_negatives(
        train, dataset.all_positive_items(), dataset.n_items, rng
    )
    users, pos_items = train.users, train.items
    batch_size = min(model.batch_size, len(users))
    order = rng.permutation(len(users))

    def one_step(step: int) -> None:
        lo = (step * batch_size) % max(1, len(users) - batch_size + 1)
        batch = order[lo : lo + batch_size]
        loss = model.training_loss(users[batch], pos_items[batch], negatives[batch])
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()

    tracer = _make_tracer(args)
    span_tracer = tracer or NULL_TRACER
    mem = None
    if args.track_memory or args.timeline:
        from repro.obs import MemoryTracker

        mem = MemoryTracker(tracer=tracer)
        mem.start()
        mem.register_persistent(model.parameters())

    one_step(0)  # warm-up outside the profile: lazy imports, first-touch caches
    try:
        with span_tracer.span("profile", model=model.name, steps=args.steps):
            with profile(tracer=tracer) as prof:
                sampler = getattr(model, "sampler", None)
                if sampler is not None:
                    for method in ("user_neighborhood", "item_neighborhood", "kg_node_flow"):
                        if hasattr(sampler, method):
                            prof.patch(sampler, method, f"sampler.{method}")
                prof.patch(optimizer, "step", "optimizer.step")
                for step in range(1, args.steps + 1):
                    with span_tracer.span("step", step=step):
                        one_step(step)
    finally:
        if mem is not None:
            mem.stop()
    report = prof.report()
    print(report.render())
    if mem is not None:
        summary = mem.summary()
        print(
            f"memory: peak {summary['peak_bytes'] / 1048576:.1f} MiB over "
            f"{summary['n_allocs']} allocations"
        )
    _close_tracer(args, tracer)
    print(
        f"\nprofiled {args.steps} training step(s) of {model.name} on "
        f"{dataset.name} (batch size {batch_size}, "
        f"{model.num_parameters()} parameters)"
    )
    if args.json:
        atomic_write_text(args.json, json.dumps(report.to_json(), indent=1))
        print(f"wrote profile JSON to {args.json}")
    return 0


def _bad_input(exc: Exception) -> int:
    """One-line report of an unknown run ref, bad path, bad artifact or an
    index mode the model cannot take; exit 2.

    ``KeyError`` messages name the ref, the others the path.
    """
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_obs_timeline(args) -> int:
    """Convert a ``--trace`` JSONL to Chrome trace-event JSON (Perfetto)."""
    from repro.obs import load_trace_events, write_timeline

    events = load_trace_events(args.trace)
    if not events:
        print(f"no events found in {args.trace}", file=sys.stderr)
        return 1
    try:
        trace = write_timeline(events, args.out, check=not args.no_check)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(
        f"wrote timeline ({len(trace['traceEvents'])} events) to {args.out} "
        f"— open in https://ui.perfetto.dev"
    )
    return 0


def cmd_obs_anatomy(args) -> int:
    """Epoch-anatomy report: phases ranked by exclusive time + allocation."""
    from repro.obs import epoch_anatomy, load_trace_events

    events = load_trace_events(args.trace)
    if not events:
        print(f"no events found in {args.trace}", file=sys.stderr)
        return 1
    report = epoch_anatomy(events)
    if not report.epochs:
        print(f"error: no epoch spans in {args.trace}", file=sys.stderr)
        return 1
    if args.json:
        atomic_write_text(args.json, json.dumps(report.to_json(), indent=1))
        print(f"wrote anatomy JSON to {args.json}")
    print(report.render())
    return 0


def _runs_store(args):
    from repro.obs import RunStore

    return RunStore(args.runs_dir)


def cmd_runs_list(args) -> int:
    from repro.obs.report import run_table

    store = _runs_store(args)
    records = store.list(kind=args.kind)
    if not records:
        print(f"no runs recorded under {store.root}")
        return 0
    print(run_table(records))
    return 0


def cmd_runs_show(args) -> int:
    try:
        record = _runs_store(args).resolve(args.ref)
    except KeyError as exc:
        return _bad_input(exc)
    print(json.dumps(record.to_json(), indent=1))
    return 0


def cmd_runs_check(args) -> int:
    """CI regression gate: exit 1 when any metric regressed vs baseline,
    2 on bad input, including two runs that share no metric and a
    baseline whose shared value is NaN or ±inf."""
    from repro.obs import compare_runs

    store = _runs_store(args)
    try:
        baseline = store.resolve(args.baseline, kind=args.kind)
        current = store.resolve(args.run, kind=args.kind)
    except KeyError as exc:
        return _bad_input(exc)
    report = compare_runs(baseline, current, tolerances=dict(args.tolerance or []))
    if not report.verdicts:
        # An empty comparison would pass the gate whatever the run measured.
        print(
            f"error: baseline {args.baseline!r} and run {args.run!r} "
            "share no metric; nothing to check",
            file=sys.stderr,
        )
        return 2
    # Every comparison with NaN is false and an infinite baseline makes
    # the relative tolerance infinite: such a baseline passes any run.
    nonfinite = [v for v in report.verdicts if not np.isfinite(v.baseline)]
    if nonfinite:
        values = ", ".join(f"{v.metric} = {v.baseline}" for v in nonfinite)
        print(
            f"error: baseline {args.baseline!r} records non-finite {values}; "
            "it cannot gate a run",
            file=sys.stderr,
        )
        return 2
    print(report.render())
    if args.json:
        atomic_write_text(args.json, json.dumps(report.to_json(), indent=1))
        print(f"wrote sentinel report to {args.json}")
    if report.regressed:
        for verdict in report.regressions():
            print(
                f"REGRESSION: {verdict.metric} {verdict.baseline:.4g} -> "
                f"{verdict.current:.4g} ({100 * verdict.rel_delta:+.1f}%)"
            )
        return 1
    return 0


def _int_at_least(low: int, what: str):
    """argparse type for counts: an integer >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")


def _positive_float(text: str) -> float:
    """argparse type for factors: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _slo_spec(text: str):
    """argparse type for ``--slo``: a parsed ``SLOSpec``."""
    from repro.obs.serving import SLOSpec

    try:
        return SLOSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tolerance_spec(text: str):
    """argparse type for ``--tolerance``: ``METRIC=REL[:ABS]`` with finite,
    non-negative slacks, as a ``(metric, Tolerance)`` pair."""
    from repro.obs.sentinel import Tolerance

    metric, _, raw = text.partition("=")
    try:
        slacks = [float(part) for part in raw.split(":")]
    except ValueError:
        slacks = []
    if not (metric and 1 <= len(slacks) <= 2
            and all(0.0 <= s < float("inf") for s in slacks)):
        raise argparse.ArgumentTypeError(
            f"expected METRIC=REL[:ABS] with finite non-negative numbers, got {text!r}"
        )
    return metric, Tolerance(*slacks)


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag like any other bad input: one ``error:`` line,
    exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list synthetic benchmark profiles")
    p.set_defaults(func=cmd_datasets)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dataset", default="music", choices=sorted(PROFILES))
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--scale", type=_positive_float, default=1.0)

    p = sub.add_parser("generate", parents=[common], help="export a profile in the artifact file format")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "prep",
        help="prepare a raw ratings/kg file pair: dedup, filter, k-core, "
        "link, remap, split, serialize (docs/data.md)",
    )
    p.add_argument("--data-dir", default=None,
                   help="directory holding the raw ratings/kg files")
    p.add_argument("--ratings", default=None, help="explicit ratings file path")
    p.add_argument("--kg", default=None, help="explicit kg file path")
    p.add_argument("--ratings-filename", default="ratings_final.txt",
                   help="ratings filename inside --data-dir")
    p.add_argument("--kg-filename", default="kg_final.txt",
                   help="kg filename inside --data-dir")
    p.add_argument("--out", required=True, help="prepared dataset directory to create")
    p.add_argument("--name", default=None,
                   help="dataset name in the manifest (default: --out basename)")
    p.add_argument("--min-user-k", type=_positive_int, default=1, metavar="K",
                   help="k-core: drop users with < K interactions")
    p.add_argument("--min-item-k", type=_positive_int, default=1, metavar="K",
                   help="k-core: drop items with < K interactions")
    p.add_argument("--min-relation-count", type=_positive_int, default=1, metavar="N",
                   help="drop relations with < N triples")
    p.add_argument("--kg-hops", type=int, default=-1, metavar="H",
                   help="entity-linking radius in KG expansion rounds "
                   "(-1 = walk to closure)")
    p.add_argument("--split-seed", type=int, default=0)
    p.set_defaults(func=cmd_prep)

    objective = argparse.ArgumentParser(add_help=False)
    objective.add_argument(
        "--objective", default="ce", choices=["ce", "bpr"],
        help="training objective: 'ce' = pointwise sigmoid-CE (Eq. 22, "
        "default), 'bpr' = pairwise BPR + batch-row embedding L2 "
        "(the KGAT/RecBole recipe; see docs/training.md)",
    )
    train_common = argparse.ArgumentParser(add_help=False, parents=[common, objective])
    train_common.add_argument("--epochs", type=_positive_int, default=30)
    train_common.add_argument("--patience", type=_positive_int, default=8)
    train_common.add_argument("--k", type=_positive_int, default=20)
    train_common.add_argument("--eval-users", type=_positive_int, default=60)

    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument(
        "--trace", "--log-jsonl", dest="trace", metavar="PATH", default=None,
        help="write obs span/event telemetry as JSONL to PATH "
        "(docs/observability.md)",
    )
    telemetry = argparse.ArgumentParser(add_help=False, parents=[trace])
    telemetry.add_argument(
        "--timeline", metavar="PATH", default=None,
        help="export a Chrome trace-event timeline JSON to PATH (implies "
        "tracing + memory tracking; open in https://ui.perfetto.dev)",
    )
    telemetry.add_argument(
        "--track-memory", action="store_true",
        help="track tensor allocations: peak_mem_bytes metric, per-op "
        "attribution, epoch-boundary leak detection (docs/observability.md)",
    )
    runs_common = argparse.ArgumentParser(add_help=False)
    runs_common.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run registry root (default $REPRO_RUNS_DIR or ./runs)",
    )
    fit = argparse.ArgumentParser(
        add_help=False, parents=[train_common, telemetry, runs_common]
    )
    fit.add_argument(
        "--record", action="store_true",
        help="persist this fit into the run registry (docs/runs.md)",
    )
    fit.add_argument("--model", default="cg-kgr")
    fit.add_argument("--data-dir", default=None, help="load real data instead of a profile")
    fit.add_argument("--verbose", action="store_true")

    p = sub.add_parser("train", parents=[fit], help="train one model")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", parents=[train_common], help="multi-seed model comparison")
    p.add_argument("--models", default="bprmf,kgcn,cg-kgr")
    p.add_argument("--seeds", type=_positive_int, default=3)
    p.set_defaults(func=cmd_compare)

    ann_common = argparse.ArgumentParser(add_help=False)
    ann_common.add_argument(
        "--nlist", type=_positive_int, default=64,
        help="ANN coarse clusters (mode=ann; clamped to the catalogue size)",
    )
    ann_common.add_argument(
        "--nprobe", type=_positive_int, default=8,
        help="ANN clusters probed per query (mode=ann; recall/latency knob)",
    )

    p = sub.add_parser(
        "export", parents=[fit, ann_common],
        help="train and write a serving checkpoint",
    )
    p.add_argument("--out", required=True, help="checkpoint directory to create")
    p.add_argument(
        "--index-mode", default="none",
        choices=["none", "auto", "factorized", "dense", "ann"],
        help="also build this retrieval index and ship it as index.npz "
        "(repro serve then boots without rebuilding)",
    )
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "serve", parents=[ann_common, trace],
        help="serve recommendations from a checkpoint",
    )
    p.add_argument("--checkpoint", required=True, help="directory written by `repro export`")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 picks an ephemeral port")
    p.add_argument("--cache-size", type=_non_negative_int, default=1024,
                   help="LRU result-cache entries (0 = no cache)")
    p.add_argument("--index-users", type=_non_negative_int, default=0,
                   help="index only the N most active users (0 = everyone)")
    p.add_argument("--index-mode", default="auto",
                   choices=["auto", "factorized", "dense", "ann"])
    p.add_argument("--rebuild-index", action="store_true",
                   help="ignore a prebuilt index.npz in the checkpoint")
    p.add_argument(
        "--slo", action="append", type=_slo_spec, metavar="SPEC", default=None,
        help="SLO objective, e.g. 'p99<25ms' or 'availability>=99.9%%' "
        "(repeatable; default: p99<25ms + availability>=99.9%%)",
    )
    p.add_argument(
        "--slow-log", type=_positive_int, default=16, metavar="N",
        help="slowest request traces kept for GET /debug/slow",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "profile", parents=[common, objective, telemetry],
        help="profile training steps per autograd op (docs/observability.md)",
    )
    p.add_argument("model", nargs="?", default="cg-kgr",
                   help="model to profile (default cg-kgr)")
    p.add_argument("--steps", type=_positive_int, default=3, help="training steps to profile")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the report as JSON to PATH")
    p.set_defaults(func=cmd_profile)

    obs = sub.add_parser(
        "obs", help="trace views: Perfetto timeline, epoch anatomy (docs/observability.md)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    p = obs_sub.add_parser(
        "timeline",
        help="convert a --trace JSONL to Chrome trace-event JSON (Perfetto)",
    )
    p.add_argument("trace", help="JSONL trace written by --trace/--log-jsonl")
    p.add_argument("-o", "--out", default="trace.json",
                   help="output trace JSON path (default trace.json)")
    p.add_argument("--no-check", action="store_true",
                   help="skip Catapult schema validation before writing")
    p.set_defaults(func=cmd_obs_timeline)

    p = obs_sub.add_parser(
        "anatomy",
        help="epoch-anatomy report: phases ranked by exclusive time/alloc",
    )
    p.add_argument("trace", help="JSONL trace written by --trace/--log-jsonl")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the report as JSON to PATH")
    p.set_defaults(func=cmd_obs_anatomy)

    runs = sub.add_parser(
        "runs", help="inspect and gate on the run registry (docs/runs.md)"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    p = runs_sub.add_parser("list", parents=[runs_common], help="list recorded runs")
    p.add_argument("--kind", default=None, choices=["train", "bench"])
    p.set_defaults(func=cmd_runs_list)

    p = runs_sub.add_parser("show", parents=[runs_common], help="dump one run as JSON")
    p.add_argument("ref", help="run id, unique prefix, latest[~N], or a JSON path")
    p.set_defaults(func=cmd_runs_show)

    p = runs_sub.add_parser(
        "check", parents=[runs_common],
        help="CI regression gate vs a baseline run or committed JSON",
    )
    p.add_argument("--baseline", required=True,
                   help="baseline run ref or path to a committed run JSON")
    p.add_argument("--run", default="latest",
                   help="candidate run ref (default: latest)")
    p.add_argument("--kind", default=None, choices=["train", "bench"],
                   help="restrict latest-resolution to one run kind")
    p.add_argument("--tolerance", action="append", type=_tolerance_spec,
                   metavar="METRIC=REL[:ABS]",
                   help="override a per-metric tolerance")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the sentinel verdicts as JSON")
    p.set_defaults(func=cmd_runs_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ArtifactError) as exc:
        return _bad_input(exc)


if __name__ == "__main__":
    sys.exit(main())
