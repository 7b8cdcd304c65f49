"""Run every bench and assemble EXPERIMENTS.md.

Usage::

    python benchmarks/run_all.py                 # full run (slow)
    REPRO_SEEDS=1 REPRO_EPOCHS=8 python benchmarks/run_all.py   # smoke
    python benchmarks/run_all.py --only table4_topk,table5_ctr  # subset

Each bench's formatted output is written to ``benchmarks/results/`` and
stitched, together with the paper's reference numbers, into
``EXPERIMENTS.md`` at the repository root.  A machine-readable
``benchmarks/results/run_meta.json`` records per-bench wall time, a span
summary, and any bench failures (the structured events also land in
``benchmarks/results/trace.jsonl``; see docs/observability.md).

Cross-run observability (docs/runs.md):

* one ``bench`` run is recorded into the run registry (``runs/`` at the
  repo root, or ``$REPRO_RUNS_DIR``) per invocation — env, scale knobs,
  headline metrics, failures, span summary;
* every bench that publishes headline metrics appends one entry to the
  repo-root trajectory files ``BENCH_topk.json`` / ``BENCH_ctr.json`` /
  ``BENCH_serving.json`` / ``BENCH_efficiency.json``, so the perf
  history accumulates and ``repro runs check`` can gate regressions;
* a failing bench no longer aborts the suite: the failure is recorded
  and the process exits non-zero at the end.

With ``--only`` the (partial) results are NOT stitched into
``EXPERIMENTS_RESULTS.md`` — trajectories and the registry still update.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

BENCHES = [
    ("fig1_kg_vs_cf", "benchmarks.bench_fig1_kg_vs_cf", "Figure 1", "KG-based vs CF-based models"),
    ("table4_topk", "benchmarks.bench_table4_topk", "Table IV", "Top-20 recommendation"),
    ("fig4_topk_curves", "benchmarks.bench_fig4_topk_curves", "Figure 4", "Recall@K / NDCG@K curves"),
    ("table5_ctr", "benchmarks.bench_table5_ctr", "Table V", "CTR prediction"),
    ("table6_efficiency", "benchmarks.bench_table6_efficiency", "Table VI", "Training efficiency"),
    ("table7_guidance_ablation", "benchmarks.bench_table7_guidance_ablation", "Table VII", "Guidance-signal ablation"),
    ("fig5_case_study", "benchmarks.bench_fig5_case_study", "Figure 5", "Attention case study"),
    ("fig6_corrupted_kg", "benchmarks.bench_fig6_corrupted_kg", "Figure 6", "Corrupted-KG robustness"),
    ("table8_component_ablation", "benchmarks.bench_table8_component_ablation", "Table VIII", "Component ablation"),
    ("table9_encoder_f", "benchmarks.bench_table9_encoder_f", "Table IX", "Guidance encoder f"),
    ("table10_aggregator_g", "benchmarks.bench_table10_aggregator_g", "Table X", "Aggregator g"),
    ("table11_depth", "benchmarks.bench_table11_depth", "Table XI", "Extraction depth L"),
    ("ext_nonuniform_sampling", "benchmarks.bench_ext_nonuniform_sampling", "Extension", "Non-uniform KG sampling (future work #1)"),
    ("objective_bpr", "benchmarks.bench_objective_bpr", "Extension", "Pointwise CE vs pairwise BPR objective"),
    ("serving_latency", "benchmarks.bench_serving_latency", "Infrastructure", "Serving QPS/latency: index + cache vs naive scoring"),
    ("ann_retrieval", "benchmarks.bench_ann_retrieval", "Infrastructure", "IVF/PQ approximate retrieval: recall@20 vs latency/memory"),
]

#: Trajectory categories (harness.record_bench_metrics keys) and their
#: repo-root accumulation files.
TRAJECTORY_FILES = {
    "topk": "BENCH_topk.json",
    "ctr": "BENCH_ctr.json",
    "serving": "BENCH_serving.json",
    "efficiency": "BENCH_efficiency.json",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="run the benchmark suite")
    parser.add_argument(
        "--only", default=None, metavar="NAMES",
        help="comma list of bench names to run (skips EXPERIMENTS_RESULTS.md)",
    )
    parser.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run registry root (default $REPRO_RUNS_DIR or <repo>/runs)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    from benchmarks import harness
    from repro.obs import Tracer, set_default_tracer

    benches = BENCHES
    if args.only:
        chosen = {name.strip() for name in args.only.split(",") if name.strip()}
        unknown = chosen - {name for name, *_ in BENCHES}
        if unknown:
            raise SystemExit(f"unknown bench names in --only: {sorted(unknown)}")
        benches = [b for b in BENCHES if b[0] in chosen]

    harness.RESULTS_DIR.mkdir(exist_ok=True)
    tracer = Tracer(path=str(harness.RESULTS_DIR / "trace.jsonl"))
    set_default_tracer(tracer)
    suite_start = time.perf_counter()

    sections = []
    failures = []
    trajectories = {}
    for name, module_name, paper_id, description in benches:
        print(f"=== {paper_id}: {description} ===", flush=True)
        tick = time.perf_counter()
        try:
            module = importlib.import_module(module_name)
            with tracer.span(f"bench:{name}", paper_id=paper_id):
                output = module.run()
        except Exception as exc:
            # Record the failure and keep the suite going: one broken
            # bench must not discard hours of completed results.
            elapsed = time.perf_counter() - tick
            snippet = traceback.format_exc().strip().splitlines()[-8:]
            failure = {
                "name": name,
                "paper_id": paper_id,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": snippet,
                "seconds": elapsed,
            }
            failures.append(failure)
            tracer.event(
                "bench_failure", bench=name, error=failure["error"],
            )
            print(f"!!! {name} FAILED after {elapsed:.0f}s: {failure['error']}\n",
                  flush=True)
            continue
        elapsed = time.perf_counter() - tick
        for category, metrics in harness.pop_bench_metrics().items():
            trajectories.setdefault(category, {}).update(metrics)
        harness.save_result(name, output)
        sections.append((paper_id, description, output, elapsed))
        print(f"--- done in {elapsed:.0f}s ---\n", flush=True)

    if not args.only:
        assemble_experiments_md(sections)
    run_id = record_registry_run(
        args, sections, failures, trajectories, tracer,
        time.perf_counter() - suite_start,
    )
    append_trajectories(run_id, trajectories)
    write_run_meta(sections, tracer, failures, run_id)
    set_default_tracer(None)
    tracer.close()
    if failures:
        print(f"{len(failures)} bench(es) failed: "
              + ", ".join(f["name"] for f in failures))
        return 1
    return 0


def runs_dir(args) -> str:
    """Registry root: --runs-dir, $REPRO_RUNS_DIR, or <repo>/runs."""
    return args.runs_dir or os.environ.get("REPRO_RUNS_DIR") or str(ROOT / "runs")


def record_registry_run(
    args, sections, failures, trajectories, tracer, wall_time
) -> str:
    """Persist this suite invocation as one ``bench`` run (docs/runs.md)."""
    from benchmarks import harness
    from repro.obs import RunRecord, RunStore
    from repro.obs.runs import capture_env

    metrics = {
        f"{category}/{name}": value
        for category, per_category in sorted(trajectories.items())
        for name, value in sorted(per_category.items())
    }
    record = RunRecord(
        run_id=tracer.run_id,
        kind="bench",
        dataset=",".join(harness.datasets()),
        config={
            "scale": {
                "seeds": harness.n_seeds(),
                "epochs": harness.n_epochs(),
                "patience": harness.patience(),
                "eval_users": harness.eval_users(),
            },
            "benches": [s[0] for s in sections] + [f["paper_id"] for f in failures],
        },
        env=capture_env(),
        metrics=metrics,
        wall_time_s=wall_time,
        spans=tracer.summary(),
        failures=failures,
        notes="benchmarks/run_all.py" + (f" --only {args.only}" if args.only else ""),
    )
    store = RunStore(runs_dir(args))
    path = store.save(record)
    print(f"recorded bench run {record.run_id} at {path}")
    return record.run_id


def append_trajectories(run_id: str, trajectories) -> None:
    """Accumulate headline metrics into the repo-root BENCH_*.json files."""
    from benchmarks import harness
    from repro.obs import append_trajectory

    scale = {
        "seeds": harness.n_seeds(),
        "epochs": harness.n_epochs(),
        "patience": harness.patience(),
        "eval_users": harness.eval_users(),
    }
    for category, metrics in sorted(trajectories.items()):
        filename = TRAJECTORY_FILES.get(category, f"BENCH_{category}.json")
        path = ROOT / filename
        length = append_trajectory(
            path, {"run_id": run_id, "scale": scale, "metrics": metrics}
        )
        print(f"appended to {path} ({length} entries)")


def write_run_meta(sections, tracer, failures, run_id) -> None:
    """Persist per-bench wall time + span summary for tooling/CI."""
    from benchmarks import harness

    meta = {
        "run_id": run_id,
        "scale": {
            "seeds": harness.n_seeds(),
            "epochs": harness.n_epochs(),
            "patience": harness.patience(),
            "eval_users": harness.eval_users(),
            "datasets": harness.datasets(),
        },
        "benches": [
            {"paper_id": paper_id, "description": description, "seconds": elapsed}
            for paper_id, description, _, elapsed in sections
        ],
        "failures": failures,
        "spans": tracer.summary(),
    }
    path = harness.RESULTS_DIR / "run_meta.json"
    path.write_text(json.dumps(meta, indent=1) + "\n")
    print(f"wrote {path}")


def assemble_experiments_md(sections) -> None:
    from benchmarks import harness

    lines = [
        "# EXPERIMENTS — measured results\n",
        "Regenerated by `python benchmarks/run_all.py` on the synthetic",
        "stand-ins (see DESIGN.md §1 for the substitution rationale).",
        f"Scale: seeds={harness.n_seeds()}, epochs={harness.n_epochs()},",
        f"patience={harness.patience()}, eval_users={harness.eval_users()}.\n",
        "Absolute numbers differ from the paper (different data, 25 trials",
        "there vs the scale above here); the comparisons below note whether",
        "each paper *claim* — orderings, crossovers, degradation shapes —",
        "reproduces.\n",
    ]
    for paper_id, description, output, elapsed in sections:
        lines.append(f"\n## {paper_id} — {description} ({elapsed:.0f}s)\n")
        lines.append("```")
        lines.append(output)
        lines.append("```")
    (ROOT / "EXPERIMENTS_RESULTS.md").write_text("\n".join(lines) + "\n")
    print(f"wrote {ROOT / 'EXPERIMENTS_RESULTS.md'}")


if __name__ == "__main__":
    sys.exit(main())
