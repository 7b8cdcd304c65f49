"""Tests for the cross-run observability layer (repro.obs.runs /
sentinel / health / report) and its Trainer, CLI, and run_all wiring."""

from __future__ import annotations

import json
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.autograd import ops
from repro.autograd.nn import Module, Parameter
from repro.baselines import BPRMF
from repro.baselines.base import Recommender
from repro.cli import main as cli_main
from repro.eval.significance import bootstrap_mean_diff
from repro.obs import (
    HealthMonitor,
    NonFiniteLossError,
    RunRecord,
    RunStore,
    Tolerance,
    Tracer,
    append_trajectory,
    compare_metrics,
    compare_runs,
    load_trajectory,
)
from repro.obs import health
from repro.obs.runs import (
    capture_env,
    config_hash,
    dataset_fingerprint,
)
from repro.obs.sentinel import _as_samples, _as_scalar
from repro.training import Trainer, TrainerConfig
from repro.utils.artifact import ArtifactError

ROOT = Path(__file__).resolve().parents[1]


def make_record(run_id="", metrics=None, kind="train", **overrides) -> RunRecord:
    fields = dict(
        run_id=run_id,
        kind=kind,
        model="BPRMF",
        dataset="tiny",
        seed=3,
        config={"model": {"dim": 16}, "trainer": {"epochs": 4}},
        history=[
            {"epoch": 1, "loss": 0.9, "recall@10": 0.05},
            {"epoch": 2, "loss": 0.7, "recall@10": 0.08},
        ],
        metrics=metrics or {"recall@10": 0.08, "loss": 0.7},
        wall_time_s=1.25,
        best_epoch=2,
    )
    fields.update(overrides)
    return RunRecord(**fields)


def _exit_code(argv) -> int:
    """``repro`` exit code, whether ``main`` returns it or argparse exits."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


# ----------------------------------------------------------------------
# RunStore round-trip + provenance helpers
# ----------------------------------------------------------------------
class TestRunStore:
    def test_round_trip_write_reload_compare(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = make_record()
        path = store.save(record)
        assert path.exists()
        assert record.run_id and record.created_at > 0
        assert record.config_hash  # filled from config on save
        loaded = store.load(record.run_id)
        assert loaded.to_json() == record.to_json()
        # A reloaded run compares clean against its original.
        report = compare_runs(record, loaded)
        assert not report.regressed
        assert all(v.status == "ok" for v in report.verdicts)

    def test_append_only(self, tmp_path):
        store = RunStore(tmp_path)
        record = make_record(run_id="fixed")
        store.save(record)
        with pytest.raises(FileExistsError):
            store.save(make_record(run_id="fixed"))

    def test_index_list_and_filters(self, tmp_path):
        store = RunStore(tmp_path)
        store.save(make_record(run_id="a1", kind="train"))
        store.save(make_record(run_id="b2", kind="bench", model=""))
        assert [r.run_id for r in store.list()] == ["a1", "b2"]
        assert [r.run_id for r in store.list(kind="bench")] == ["b2"]
        record = store.list()[0]
        assert record.to_json() == store.load("a1").to_json()
        assert record.metrics["recall@10"] == pytest.approx(0.08)

    def test_latest_follows_created_at_then_run_id(self, tmp_path):
        """Listing orders the run files by (created_at, run_id), whatever
        a legacy index file says."""
        store = RunStore(tmp_path)
        store.save(make_record(run_id="zz-old", created_at=100.0))
        store.save(make_record(run_id="bb-tie", created_at=200.0))
        store.save(make_record(run_id="aa-tie", created_at=200.0))
        (tmp_path / "index.jsonl").write_text(
            json.dumps({"run_id": "zz-old", "created_at": 300.0}) + "\n"
        )
        assert [r.run_id for r in store.list()] == ["zz-old", "aa-tie", "bb-tie"]
        assert store.resolve("latest").run_id == "bb-tie"
        assert store.resolve("latest~2").run_id == "zz-old"

    def test_resolve_prefix_latest_and_path(self, tmp_path):
        store = RunStore(tmp_path)
        store.save(make_record(run_id="20260101-alpha"))
        store.save(make_record(run_id="20260202-beta"))
        assert store.resolve("20260101").run_id == "20260101-alpha"
        assert store.resolve("latest").run_id == "20260202-beta"
        assert store.resolve("latest~1").run_id == "20260101-alpha"
        # A file path works too (committed CI baselines).
        path = store.path_of("20260101-alpha")
        assert store.resolve(str(path)).run_id == "20260101-alpha"
        with pytest.raises(KeyError):
            store.resolve("2026")  # ambiguous
        with pytest.raises(KeyError):
            store.resolve("nope")
        for malformed in ("latest~x", "latest~-1", "latestx"):
            with pytest.raises(KeyError, match="malformed"):
                store.resolve(malformed)

    def test_metric_value_means_lists(self):
        assert _as_scalar([0.6, 0.7]) == pytest.approx(0.65)
        assert _as_samples([0.6, 0.7]) == [0.6, 0.7]
        assert _as_scalar(0.5) == 0.5
        assert _as_samples(0.5) is None
        assert _as_scalar([]) is None

    def test_config_hash_is_order_insensitive(self):
        a = config_hash({"x": 1, "y": {"b": 2, "a": 3}})
        b = config_hash({"y": {"a": 3, "b": 2}, "x": 1})
        assert a == b
        assert a != config_hash({"x": 2, "y": {"a": 3, "b": 2}})

    def test_config_hash_of_exported_paper_config_is_stable(self, tiny_dataset):
        """Recorded runs stay comparable: the movie preset's exported
        CG-KGR config hashes to the value the registry has always stored."""
        from repro.core import CGKGR, paper_config

        exported = CGKGR(tiny_dataset, paper_config("movie"), seed=0).export_config()
        assert config_hash(exported) == "795edf710cef"
        assert config_hash({"model": {"name": "CG-KGR", **exported}}) == "5797a3481e4f"

    def test_dataset_fingerprint_distinguishes_worlds(self, tiny_dataset, micro_dataset):
        fp1 = dataset_fingerprint(tiny_dataset)
        fp2 = dataset_fingerprint(micro_dataset)
        assert fp1["digest"] != fp2["digest"]
        assert fp1 == dataset_fingerprint(tiny_dataset)
        assert fp1["n_users"] == tiny_dataset.n_users

    def test_capture_env_records_repro_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "7")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        env = capture_env()
        assert env["repro_env"]["REPRO_SEEDS"] == "7"
        assert env["numpy"] == np.__version__
        # Host fingerprint: CPU counts and the BLAS thread knobs.
        assert env["cpu_count"] == os.cpu_count()
        assert 1 <= env["usable_cpus"] <= env["cpu_count"]
        if hasattr(os, "sched_getaffinity"):
            assert env["usable_cpus"] == len(os.sched_getaffinity(0))
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "3"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        assert set(env["threads"]) == {
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
        }
        json.dumps(env)  # stored verbatim in run records

# ----------------------------------------------------------------------
# Regression sentinel
# ----------------------------------------------------------------------
class TestSentinel:
    def test_improvement_noise_and_regression(self):
        baseline = {"recall@20": 0.100, "auc": 0.800, "f1": 0.500}
        current = {
            "recall@20": 0.120,  # +20%: improved
            "auc": 0.799,        # -0.1%: within tolerance noise
            "f1": 0.400,         # -20%: regression
        }
        report = compare_metrics(baseline, current)
        by_metric = {v.metric: v for v in report.verdicts}
        assert by_metric["recall@20"].status == "improved"
        assert by_metric["auc"].status == "ok"
        assert by_metric["f1"].status == "regressed"
        assert report.regressed
        assert [v.metric for v in report.regressions()] == ["f1"]
        rendered = report.render()
        assert "REGRESSED" in rendered and "f1" in rendered

    def test_identical_metrics_pass(self):
        metrics = {"recall@20": 0.1, "qps": 1234.0}
        report = compare_metrics(metrics, dict(metrics))
        assert not report.regressed
        assert all(v.status == "ok" for v in report.verdicts)

    def test_lower_is_better_direction(self):
        baseline = {"music/index/p95_ms": 1.0, "music/index/qps": 1000.0}
        worse = {"music/index/p95_ms": 2.0, "music/index/qps": 400.0}
        report = compare_metrics(baseline, worse)
        by_metric = {v.metric: v for v in report.verdicts}
        assert by_metric["music/index/p95_ms"].status == "regressed"
        assert by_metric["music/index/p95_ms"].direction == -1
        assert by_metric["music/index/qps"].status == "regressed"
        # Latency *improvement* (lower) is classified as improved.
        better = {"music/index/p95_ms": 0.5, "music/index/qps": 2000.0}
        report = compare_metrics(baseline, better)
        assert all(v.status == "improved" for v in report.verdicts)

    def test_leaf_tolerance_applies_to_prefixed_metrics(self):
        # music/CG-KGR/recall@20 falls back to the recall@20 tolerance
        # (5% rel), so a 3% dip is noise but a 20% dip regresses.
        baseline = {"music/CG-KGR/recall@20": 0.100}
        assert not compare_metrics(
            baseline, {"music/CG-KGR/recall@20": 0.097}
        ).regressed
        assert compare_metrics(
            baseline, {"music/CG-KGR/recall@20": 0.080}
        ).regressed

    def test_tolerance_override(self):
        baseline = {"recall@20": 0.100}
        current = {"recall@20": 0.090}
        assert compare_metrics(baseline, current).regressed
        relaxed = compare_metrics(
            baseline, current, tolerances={"recall@20": Tolerance(rel=0.25)}
        )
        assert not relaxed.regressed

    def test_bootstrap_ci_on_per_trial_lists(self):
        baseline = {"recall@20": [0.10, 0.11, 0.105, 0.108]}
        current = {"recall@20": [0.05, 0.06, 0.055, 0.052]}
        report = compare_metrics(baseline, current)
        verdict = report.verdicts[0]
        assert verdict.status == "regressed"
        assert verdict.ci is not None
        assert verdict.ci["ci_high"] < 0  # clearly worse
        assert verdict.significant
        assert "*" in report.render()

    def test_non_finite_current_value_regresses(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            for name in ("recall@20", "loss"):
                report = compare_metrics({name: 0.1}, {name: bad})
                assert report.verdicts[0].status == "regressed", (name, bad)
        # A diverged list metric (its mean is NaN) regresses too.
        assert compare_metrics({"auc": [0.8, 0.8]}, {"auc": [0.8, float("nan")]}).regressed

    def test_disjoint_metrics_are_ignored(self):
        report = compare_metrics({"a_only": 1.0}, {"b_only": 2.0})
        assert report.verdicts == []
        assert not report.regressed

    def test_bootstrap_mean_diff(self):
        rng = np.random.default_rng(0)
        a = rng.normal(1.0, 0.01, size=20)
        b = rng.normal(0.5, 0.01, size=20)
        result = bootstrap_mean_diff(a, b, seed=1)
        assert result["mean_diff"] == pytest.approx(0.5, abs=0.05)
        assert result["ci_low"] < result["mean_diff"] < result["ci_high"]
        assert result["significant"]
        same = bootstrap_mean_diff(a, a, seed=1)
        assert not same["significant"]
        with pytest.raises(ValueError):
            bootstrap_mean_diff([1.0], [1.0, 2.0])

    def test_trajectory_append_and_load(self, tmp_path):
        path = tmp_path / "BENCH_topk.json"
        assert load_trajectory(path) == []
        assert append_trajectory(path, {"run_id": "r1", "metrics": {"m": 1.0}}) == 1
        assert append_trajectory(path, {"run_id": "r2", "metrics": {"m": 2.0}}) == 2
        entries = load_trajectory(path)
        assert [e["run_id"] for e in entries] == ["r1", "r2"]
        assert all("ts" in e for e in entries)
        payload = json.loads(path.read_text())
        assert payload["format"] == 1

    @pytest.mark.parametrize(
        "content", [b'{"format": 1, "entr', b"[1, 2]", b'{"entries": 5}'],
        ids=["torn", "array", "entries-int"],
    )
    def test_unreadable_trajectory_names_the_file(self, tmp_path, content):
        path = tmp_path / "BENCH_topk.json"
        path.write_bytes(content)
        for call in (lambda: load_trajectory(path),
                     lambda: append_trajectory(path, {"run_id": "r3"})):
            with pytest.raises(ArtifactError, match="BENCH_topk.json"):
                call()
        assert path.read_bytes() == content


# ----------------------------------------------------------------------
# Health monitor
# ----------------------------------------------------------------------
class _ScriptedLossModel(Recommender):
    """Loss is l2‖p‖²: gradient 2p, so p's magnitude scripts the grad norm."""

    name = "scripted"
    batch_size = 512  # one batch per epoch on the tiny dataset

    def __init__(self, dataset, p_value: float, nan_at_batch: int = -1):
        super().__init__(dataset, seed=0)
        self.p = Parameter(np.full(4, p_value))
        self._nan_at_batch = nan_at_batch
        self._batch = 0

    def loss(self, users, pos_items, neg_items):
        self._batch += 1
        if self._batch == self._nan_at_batch:
            return ops.mul(ops.l2_norm_squared([self.p]), float("nan"))
        return ops.l2_norm_squared([self.p])


class TestHealthMonitor:
    def _trainer(self, dataset, model, tracer=None, epochs=1):
        config = TrainerConfig(epochs=epochs, eval_task="none", tracer=tracer)
        return Trainer(model, config)

    def test_nan_loss_raises_with_context_and_emits_anomaly(self, tiny_dataset):
        tracer = Tracer()
        model = _ScriptedLossModel(tiny_dataset, p_value=1.0, nan_at_batch=1)
        trainer = self._trainer(tiny_dataset, model, tracer=tracer)
        with pytest.raises(NonFiniteLossError) as excinfo:
            trainer.fit()
        err = excinfo.value
        assert err.epoch == 1 and err.batch_start == 0
        assert err.model == "scripted"
        assert isinstance(err, RuntimeError)  # old catch sites keep working
        anomalies = [
            e for e in tracer.events
            if e["kind"] == "event" and e["name"] == "anomaly"
        ]
        assert len(anomalies) == 1
        attrs = anomalies[0]["attrs"]
        assert attrs["kind"] == "nonfinite_loss"
        assert attrs["epoch"] == 1 and attrs["batch_start"] == 0
        assert trainer.health.anomalies[0]["kind"] == "nonfinite_loss"

    def test_exploding_grads_emit_anomaly_once_per_epoch(self, tiny_dataset):
        tracer = Tracer()
        # ‖grad‖ = ‖2p‖ ≈ 2e6 ≫ the 1e3 threshold.
        model = _ScriptedLossModel(tiny_dataset, p_value=1e6)
        trainer = self._trainer(tiny_dataset, model, tracer=tracer, epochs=2)
        trainer.fit()
        anomalies = [
            e["attrs"] for e in tracer.events if e["name"] == "anomaly"
        ]
        explosions = [a for a in anomalies if a["kind"] == "grad_explosion"]
        assert len(explosions) == 2  # rate-limited to one per epoch
        assert explosions[0]["epoch"] == 1 and explosions[1]["epoch"] == 2
        assert explosions[0]["grad_norm"] > 1e3

    def test_vanishing_grads_detected(self, tiny_dataset):
        tracer = Tracer()
        model = _ScriptedLossModel(tiny_dataset, p_value=1e-12)
        trainer = self._trainer(tiny_dataset, model, tracer=tracer)
        trainer.fit()
        kinds = [a["kind"] for a in trainer.health.anomalies]
        assert "grad_vanishing" in kinds

    def test_healthy_run_has_no_anomalies(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, lr=1e-2, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=2, eval_task="none"))
        trainer.fit()
        assert trainer.health.anomalies == []
        assert trainer.health.diagnosis().startswith("healthy")

    def test_eval_plateau(self, monkeypatch):
        monkeypatch.setattr(health, "PLATEAU_PATIENCE", 3)
        monitor = HealthMonitor()
        monitor.observe_eval(1, "recall@20", 0.10)
        for epoch in range(2, 8):
            monitor.observe_eval(epoch, "recall@20", 0.09)
        plateaus = [a for a in monitor.anomalies if a["kind"] == "eval_plateau"]
        assert len(plateaus) == 1  # reported once, not per eval
        assert plateaus[0]["best"] == pytest.approx(0.10)
        # A new best resets the detector.
        monitor.observe_eval(9, "recall@20", 0.2)
        assert monitor._plateau_count == 0

    def test_dead_embedding_rows(self):
        class _Lookup(Module):
            def __init__(self):
                data = np.ones((10, 3))
                data[:4] = 0.0
                self.emb = Parameter(data)
                self.bias = Parameter(np.zeros(3))  # 1-D: ignored

        monitor = HealthMonitor()
        monitor.check_embeddings(_Lookup())
        dead = [a for a in monitor.anomalies if a["kind"] == "dead_embeddings"]
        assert len(dead) == 1
        assert dead[0]["dead_rows"] == 4 and dead[0]["total_rows"] == 10


# ----------------------------------------------------------------------
# Trainer -> RunStore recording
# ----------------------------------------------------------------------
class TestTrainerRecording:
    def test_fit_records_run(self, tiny_dataset, tmp_path):
        store = RunStore(tmp_path / "runs")
        model = BPRMF(tiny_dataset, dim=8, lr=1e-2, seed=0)
        trainer = Trainer(
            model,
            TrainerConfig(
                epochs=2, eval_task="topk", eval_metric="recall@10",
                eval_k=10, eval_max_users=5, run_store=store,
            ),
        )
        result = trainer.fit()
        record = trainer.last_run_record
        assert record is not None
        loaded = store.load(record.run_id)
        assert loaded.model == "BPRMF" and loaded.dataset == "tiny"
        assert loaded.metrics["recall@10"] == pytest.approx(result.best_metric)
        assert len(loaded.history) == len(result.history)
        assert loaded.config["model"]["dim"] == 8
        assert loaded.config_hash
        assert loaded.dataset_fingerprint["digest"]
        assert loaded.env["numpy"] == np.__version__

    def test_no_store_no_record(self, tiny_dataset):
        model = BPRMF(tiny_dataset, dim=8, lr=1e-2, seed=0)
        trainer = Trainer(model, TrainerConfig(epochs=1, eval_task="none"))
        trainer.fit()
        assert trainer.last_run_record is None


# ----------------------------------------------------------------------
# CLI: repro runs ...
# ----------------------------------------------------------------------
class TestRunsCli:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.save(make_record(run_id="aaa-base", metrics={"recall@20": 0.10}))
        store.save(make_record(run_id="bbb-good", metrics={"recall@20": 0.10}))
        store.save(make_record(run_id="ccc-bad", metrics={"recall@20": 0.05}))
        return str(store.root)

    def test_list_and_show(self, store_dir, capsys):
        assert cli_main(["runs", "list", "--runs-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "aaa-base" in out and "ccc-bad" in out
        assert cli_main(["runs", "show", "aaa", "--runs-dir", store_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] == "aaa-base"

    def test_check_passes_on_identical_rerun(self, store_dir, capsys):
        code = cli_main([
            "runs", "check", "--baseline", "aaa-base", "--run", "bbb-good",
            "--runs-dir", store_dir,
        ])
        assert code == 0
        assert "no metric regressed" in capsys.readouterr().out

    def test_check_fails_on_injected_regression(self, store_dir, tmp_path, capsys):
        report_path = tmp_path / "sentinel.json"
        code = cli_main([
            "runs", "check", "--baseline", "aaa-base", "--run", "ccc-bad",
            "--runs-dir", store_dir, "--json", str(report_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION: recall@20" in out
        payload = json.loads(report_path.read_text())
        assert payload["regressed"] is True

    def test_check_against_committed_baseline_file(self, store_dir, capsys):
        baseline_file = f"{store_dir}/aaa-base.json"
        code = cli_main([
            "runs", "check", "--baseline", baseline_file, "--run", "latest",
            "--runs-dir", store_dir,
        ])
        assert code == 1  # latest is the regressed ccc-bad run
        capsys.readouterr()

    def test_records_with_removed_trainer_fields_load_and_check(
        self, store_dir, tmp_path, capsys
    ):
        """Records written while the trainer still had a worker pool and an
        epoch compiler carry a ``parallel`` section and ``num_workers`` /
        ``grad_shards`` / ``compile_epoch`` trainer knobs; they must still
        load and gate."""
        committed = ROOT / "benchmarks" / "baselines" / "ci-smoke.json"
        assert "parallel" in json.loads(committed.read_text())
        legacy = make_record(metrics={"recall@20": 0.10}).to_json()
        legacy["parallel"] = {"mode": "process", "num_workers": 2, "wall_s": 1.5}
        legacy["config"]["trainer"].update(
            num_workers=2, grad_shards=4, compile_epoch=True
        )
        legacy_file = tmp_path / "legacy.json"
        legacy_file.write_text(json.dumps(legacy))
        record = RunRecord.from_json(json.loads(legacy_file.read_text()))
        assert record.config["trainer"]["grad_shards"] == 4
        assert record.metrics["recall@20"] == pytest.approx(0.10)
        # A rerun that measured what the committed baseline did passes it.
        rerun = make_record(
            run_id="ddd-smoke", metrics=json.loads(committed.read_text())["metrics"]
        )
        RunStore(store_dir).save(rerun)
        for baseline, run in ((committed, "ddd-smoke"), (legacy_file, "bbb-good")):
            code = cli_main([
                "runs", "check", "--baseline", str(baseline), "--run", run,
                "--runs-dir", store_dir,
            ])
            assert code == 0
        code = cli_main([
            "runs", "check", "--baseline", str(legacy_file), "--run", "ccc-bad",
            "--runs-dir", store_dir,
        ])
        assert code == 1  # the legacy baseline still gates recall@20
        capsys.readouterr()

    def test_check_tolerance_override_passes(self, store_dir, capsys):
        assert cli_main([
            "runs", "check", "--baseline", "aaa-base", "--run", "ccc-bad",
            "--runs-dir", store_dir, "--tolerance", "recall@20=0.9",
        ]) == 0
        assert "no metric regressed" in capsys.readouterr().out

    def test_compare_subcommand_is_gone(self, store_dir, capsys):
        assert _exit_code(
            ["runs", "compare", "aaa-base", "bbb-good", "--runs-dir", store_dir]
        ) == 2
        assert "invalid choice: 'compare'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["runs", "show", "nope"], "nope"),
            (["runs", "check", "--baseline", "aaa-base", "--run", "latest~x"],
             "latest~x"),
            (["runs", "check", "--baseline", "missing.json"], "missing.json"),
            (["obs", "timeline", "missing.jsonl"], "missing.jsonl"),
            (["obs", "anatomy", "missing.jsonl"], "missing.jsonl"),
        ],
        ids=["runs-show", "runs-check-ref", "runs-check", "obs-timeline",
             "obs-anatomy"],
    )
    def test_bad_input_is_a_one_line_error(
        self, store_dir, tmp_path, monkeypatch, capsys, argv, named
    ):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "runs":
            argv = argv + ["--runs-dir", store_dir]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, garbled",
        [
            (["runs", "show", "latest"], "ccc-bad.json"),
            (["runs", "list"], "ccc-bad.json"),
            (["runs", "check", "--baseline", "baseline.json"], "baseline.json"),
        ],
        ids=["run-file", "run-file-listed", "baseline-file"],
    )
    def test_malformed_record_is_a_one_line_error(
        self, store_dir, tmp_path, monkeypatch, capsys, argv, garbled
    ):
        monkeypatch.chdir(tmp_path)
        folder = tmp_path if garbled == "baseline.json" else Path(store_dir)
        with (folder / garbled).open("ab") as handle:
            handle.write(b"{not json\n")
        assert cli_main(argv + ["--runs-dir", store_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{garbled}:" in err
        assert len(err.strip().splitlines()) == 1

    def test_torn_legacy_index_is_ignored(self, store_dir, capsys):
        """The run files are the registry: a torn line in a legacy
        ``index.jsonl`` neither hides a run nor fails a command."""
        with (Path(store_dir) / "index.jsonl").open("ab") as handle:
            handle.write(b'{"run_id": "c3", "ki')
        assert cli_main(["runs", "list", "--runs-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert all(r in out for r in ("aaa-base", "bbb-good", "ccc-bad"))
        assert cli_main(["runs", "show", "latest", "--runs-dir", store_dir]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] == "ccc-bad"

    @pytest.mark.parametrize(
        "baseline, tolerance, named",
        [
            ({"run_id": "y", "metrics": 5}, None, ["baseline.json", "'metrics'"]),
            ({"metrics": {"recall@20": [0.1, "x"]}}, None,
             ["baseline.json", "'metrics'", "'recall@20'"]),
            ({"run_id": 7, "metrics": {"recall@20": 0.1}}, None,
             ["baseline.json", "'run_id'"]),
            ({"run_id": "y", "metrics": {"recall@20": True}}, None,
             ["baseline.json", "'recall@20'"]),
            (None, "recall@20", ["argument --tolerance", "recall@20"]),
            (None, "recall@20=-1", ["argument --tolerance", "recall@20=-1"]),
            (None, "recall@20=nan", ["argument --tolerance", "recall@20=nan"]),
            (None, "recall@20=0.1:inf", ["argument --tolerance", "0.1:inf"]),
        ],
        ids=["metrics-int", "metric-list-string", "run-id-int", "metric-bool",
             "tolerance-malformed", "tolerance-negative", "tolerance-nan",
             "tolerance-inf"],
    )
    def test_mistyped_input_is_a_one_line_error(
        self, store_dir, tmp_path, monkeypatch, capsys, baseline, tolerance, named
    ):
        """Bad input exits 2, never 1 (the regression verdict), with one
        ``error:`` line naming the file or flag and the field."""
        monkeypatch.chdir(tmp_path)
        argv = ["runs", "check", "--baseline", "aaa-base", "--run", "bbb-good",
                "--runs-dir", store_dir]
        if baseline is not None:
            (tmp_path / "baseline.json").write_text(json.dumps(baseline))
            argv[3] = "baseline.json"
        if tolerance is not None:
            argv += ["--tolerance", tolerance]
        assert _exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert all(part in captured.err for part in named)
        assert "Traceback" not in captured.err and "REGRESS" not in captured.out

    def test_check_refuses_a_baseline_sharing_no_metric(
        self, store_dir, tmp_path, capsys
    ):
        baseline = tmp_path / "renamed.json"
        baseline.write_text(json.dumps({"run_id": "x"}))
        code = cli_main([
            "runs", "check", "--baseline", str(baseline), "--run", "bbb-good",
            "--runs-dir", store_dir,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(baseline) in captured.err and "bbb-good" in captured.err
        assert "no metric regressed" not in captured.out

    @pytest.mark.parametrize(
        "metric, base, current",
        [("recall@20", float("nan"), 0.0), ("p50_ms", float("inf"), 1e9)],
        ids=["nan", "inf"],
    )
    def test_check_refuses_a_non_finite_baseline(
        self, store_dir, tmp_path, capsys, metric, base, current
    ):
        """Nothing regresses against NaN or an infinite baseline, so such a
        baseline is bad input (exit 2), not a pass."""
        RunStore(store_dir).save(
            make_record(run_id="ddd-cur", metrics={metric: current})
        )
        baseline = tmp_path / "diverged.json"
        baseline.write_text(json.dumps({"run_id": "x", "metrics": {metric: base}}))
        code = cli_main([
            "runs", "check", "--baseline", str(baseline), "--run", "ddd-cur",
            "--runs-dir", store_dir,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert str(baseline) in captured.err and metric in captured.err
        assert "no metric regressed" not in captured.out

    def test_empty_registry(self, tmp_path, capsys):
        assert cli_main(["runs", "list", "--runs-dir", str(tmp_path)]) == 0
        assert "no runs recorded" in capsys.readouterr().out


# ----------------------------------------------------------------------
# run_all: failure isolation, trajectories, registry
# ----------------------------------------------------------------------
class TestRunAllIsolation:
    def _fake_benches(self, monkeypatch):
        ok = types.ModuleType("tests._fake_bench_ok")

        def ok_run():
            from benchmarks import harness

            harness.record_bench_metrics("topk", {"music/CG-KGR/recall@20": 0.1})
            harness.record_bench_metrics("serving", {"CG-KGR/index/qps": 900.0})
            return "ok-table"

        ok.run = ok_run
        boom = types.ModuleType("tests._fake_bench_boom")

        def boom_run():
            raise ValueError("synthetic bench crash")

        boom.run = boom_run
        monkeypatch.setitem(sys.modules, ok.__name__, ok)
        monkeypatch.setitem(sys.modules, boom.__name__, boom)
        return ok.__name__, boom.__name__

    def test_failures_recorded_and_suite_continues(self, tmp_path, monkeypatch, capsys):
        from benchmarks import harness, run_all

        ok_mod, boom_mod = self._fake_benches(monkeypatch)
        monkeypatch.setattr(run_all, "ROOT", tmp_path)
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path / "results")
        monkeypatch.setattr(
            run_all, "BENCHES",
            [
                ("fake_boom", boom_mod, "Boom", "always fails"),
                ("fake_ok", ok_mod, "OK", "succeeds"),
            ],
        )
        code = run_all.main(["--only", "fake_boom,fake_ok",
                             "--runs-dir", str(tmp_path / "runs")])
        assert code == 1  # non-zero because one bench failed
        out = capsys.readouterr().out
        assert "FAILED" in out and "synthetic bench crash" in out
        assert "ok-table" in out  # later bench still ran

        # run_meta.json records the failure with a traceback snippet.
        meta = json.loads((tmp_path / "results" / "run_meta.json").read_text())
        assert meta["failures"][0]["name"] == "fake_boom"
        assert any("ValueError" in line
                   for line in meta["failures"][0]["traceback"])
        assert meta["benches"][0]["paper_id"] == "OK"

        # The registry holds one bench run with metrics + failure.
        store = RunStore(tmp_path / "runs")
        records = store.list(kind="bench")
        assert len(records) == 1
        record = records[0]
        assert record.failures[0]["name"] == "fake_boom"
        assert record.metrics["topk/music/CG-KGR/recall@20"] == pytest.approx(0.1)

        # Trajectory files accumulated at the (patched) repo root.
        topk = load_trajectory(tmp_path / "BENCH_topk.json")
        assert len(topk) == 1 and topk[0]["run_id"] == record.run_id
        serving = load_trajectory(tmp_path / "BENCH_serving.json")
        assert serving[0]["metrics"]["CG-KGR/index/qps"] == 900.0
        # --only must not rewrite the experiments digest.
        assert not (tmp_path / "EXPERIMENTS_RESULTS.md").exists()

    def test_all_green_exits_zero_and_accumulates(self, tmp_path, monkeypatch, capsys):
        from benchmarks import harness, run_all

        ok_mod, _ = self._fake_benches(monkeypatch)
        monkeypatch.setattr(run_all, "ROOT", tmp_path)
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path / "results")
        monkeypatch.setattr(
            run_all, "BENCHES", [("fake_ok", ok_mod, "OK", "succeeds")]
        )
        for _ in range(2):
            assert run_all.main(["--only", "fake_ok",
                                 "--runs-dir", str(tmp_path / "runs")]) == 0
        assert len(load_trajectory(tmp_path / "BENCH_topk.json")) == 2
        assert len(RunStore(tmp_path / "runs").list(kind="bench")) == 2
        capsys.readouterr()

    def test_unknown_only_name_rejected(self):
        from benchmarks import run_all

        with pytest.raises(SystemExit):
            run_all.main(["--only", "no_such_bench"])


class TestHarnessCollector:
    def test_record_and_pop(self):
        from benchmarks import harness

        harness.pop_bench_metrics()  # drain any leftovers
        harness.record_bench_metrics("topk", {"a": 1.0})
        harness.record_bench_metrics("topk", {"b": 2.0})
        harness.record_bench_metrics("ctr", {"c": [0.1, 0.2]})
        drained = harness.pop_bench_metrics()
        assert drained == {"topk": {"a": 1.0, "b": 2.0}, "ctr": {"c": [0.1, 0.2]}}
        assert harness.pop_bench_metrics() == {}
