"""CLI smoke tests (argument wiring; training runs are minimal)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.training import Trainer


class TestParser:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "music" in out and "restaurant" in out

    def test_generate_command(self, tmp_path, capsys):
        code = main(
            ["generate", "--dataset", "music", "--scale", "0.3",
             "--out", str(tmp_path / "exported")]
        )
        assert code == 0
        assert (tmp_path / "exported" / "ratings_final.txt").exists()
        assert (tmp_path / "exported" / "kg_final.txt").exists()

    def test_train_tiny(self, capsys):
        code = main(
            ["train", "--dataset", "music", "--scale", "0.3", "--model", "bprmf",
             "--epochs", "2", "--eval-users", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test:" in out and "auc" in out

    def test_train_cgkgr_resolves_preset(self, capsys):
        code = main(
            ["train", "--dataset", "music", "--scale", "0.3", "--model", "cg-kgr",
             "--epochs", "1", "--eval-users", "5"]
        )
        assert code == 0

    def test_train_from_exported_dir(self, tmp_path, capsys):
        main(["generate", "--dataset", "music", "--scale", "0.3",
              "--out", str(tmp_path / "d")])
        code = main(
            ["train", "--data-dir", str(tmp_path / "d"), "--model", "bprmf",
             "--epochs", "1", "--eval-users", "5"]
        )
        assert code == 0

    def test_compare_two_models(self, capsys):
        code = main(
            ["compare", "--dataset", "music", "--scale", "0.3",
             "--models", "bprmf,nfm", "--seeds", "2", "--epochs", "1",
             "--eval-users", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best =" in out

    def test_profile_cgkgr_smoke(self, capsys):
        code = main(
            ["profile", "cg-kgr", "--dataset", "music", "--scale", "0.3",
             "--steps", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Per-op table with the CG-KGR core ops and the accounting footer.
        assert "einsum" in out
        assert "gather_rows" in out
        assert "accounted" in out

    def test_profile_json_dump(self, tmp_path, capsys):
        dest = tmp_path / "profile.json"
        code = main(
            ["profile", "bprmf", "--dataset", "music", "--scale", "0.3",
             "--steps", "1", "--json", str(dest)]
        )
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["ops"] and "wall_s" in payload

    def test_train_trace_writes_jsonl(self, tmp_path, capsys):
        dest = tmp_path / "trace.jsonl"
        code = main(
            ["train", "--dataset", "music", "--scale", "0.3", "--model",
             "bprmf", "--epochs", "2", "--eval-users", "5",
             "--trace", str(dest)]
        )
        assert code == 0
        events = [json.loads(line) for line in dest.read_text().splitlines()]
        assert events
        runs = {e["run"] for e in events}
        assert len(runs) == 1
        names = {e["name"] for e in events}
        assert {"fit", "epoch", "epoch_metrics"} <= names

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "groceries"])


class TestCliErrorPaths:
    def test_unknown_model_raises(self):
        with pytest.raises(ValueError):
            main(["train", "--dataset", "music", "--scale", "0.3",
                  "--model", "deepfm", "--epochs", "1"])

    def test_compare_single_seed_skips_significance(self, capsys):
        code = main(
            ["compare", "--dataset", "music", "--scale", "0.3",
             "--models", "bprmf,nfm", "--seeds", "1", "--epochs", "1",
             "--eval-users", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best =" not in out  # significance line suppressed at n=1


def _checkpoint_with_index(directory) -> None:
    from repro.baselines import BPRMF
    from repro.data import generate_profile
    from repro.serve import TopKIndex, save_checkpoint

    dataset = generate_profile("music", seed=0, scale=0.3)
    model = BPRMF(dataset, dim=8, seed=0)
    save_checkpoint(
        model,
        str(directory),
        dataset_spec={"profile": "music", "seed": 0, "scale": 0.3},
        index=TopKIndex.build(model),
    )


def _tampered_prepared(directory) -> None:
    import numpy as np

    main(["generate", "--dataset", "music", "--scale", "0.3",
          "--out", str(directory / "raw")])
    main(["prep", "--data-dir", str(directory / "raw"), "--out", str(directory)])
    path = directory / "prepared.npz"
    with np.load(path) as payload:
        arrays = {name: payload[name] for name in payload.files}
    arrays["train_users"] = arrays["train_users"][::-1].copy()
    np.savez(path, **arrays)


@pytest.mark.parametrize(
    "case, named",
    [
        ("missing-checkpoint", "weights.npz"),
        ("truncated-weights", "weights.npz"),
        ("flipped-index", "index.npz"),
        ("tampered-prepared", "prepared.npz"),
    ],
)
def test_bad_artifact_is_a_one_line_error(case, named, tmp_path, capsys):
    from tests.test_artifact import flip_array_byte, truncate

    target = tmp_path / "artifact"
    argv = ["serve", "--checkpoint", str(target), "--port", "0"]
    if case == "truncated-weights":
        _checkpoint_with_index(target)
        truncate(target / "weights.npz")
    elif case == "flipped-index":
        _checkpoint_with_index(target)
        flip_array_byte(target / "index.npz")
    elif case == "tampered-prepared":
        _tampered_prepared(target)
        argv = ["train", "--data-dir", str(target), "--model", "bprmf",
                "--epochs", "1"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err


_SMALL = ["--dataset", "music", "--scale", "0.3"]
_SERVE = ["serve", "--checkpoint", "/nonexistent", "--port", "0"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train", *_SMALL, "--epochs", "0"], "--epochs"),
        (["train", *_SMALL, "--patience", "0"], "--patience"),
        (["train", *_SMALL, "--k", "0"], "--k"),
        (["train", *_SMALL, "--eval-users", "-5"], "--eval-users"),
        (["train", *_SMALL, "--scale", "0"], "--scale"),
        (["profile", "cg-kgr", *_SMALL, "--steps", "-3"], "--steps"),
        (["compare", *_SMALL, "--seeds", "0"], "--seeds"),
        (["prep", "--data-dir", "raw", "--out", "out", "--min-user-k", "0"], "--min-user-k"),
        ([*_SERVE, "--slow-log", "0"], "--slow-log"),
        (["prep", "--data-dir", "raw", "--out", "out", "--min-item-k", "0"], "--min-item-k"),
        ([*_SERVE, "--nlist", "0"], "--nlist"),
        ([*_SERVE, "--nprobe", "0"], "--nprobe"),
        ([*_SERVE, "--cache-size", "-1"], "--cache-size"),
        ([*_SERVE, "--index-users", "-5"], "--index-users"),
        ([*_SERVE, "--slo", "p99<"], "--slo"),
        ([*_SERVE, "--slo", "p99<0ms"], "--slo"),
        (["export", *_SMALL, "--out", "out", "--nprobe", "-1"], "--nprobe"),
    ],
)
def test_bad_count_flag_is_an_argparse_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["ann", "factorized"])
def test_export_index_mode_without_factorization_fails_before_training(
    mode, tmp_path, monkeypatch, capsys
):
    """CG-KGR's scores are user-conditioned, so it has no factorized
    representations: `export` says so in one line before it trains."""
    fits = []
    monkeypatch.setattr(Trainer, "fit", lambda self: fits.append(self))
    out = tmp_path / "ckpt"
    argv = ["export", "--model", "cg-kgr", *_SMALL, "--index-mode", mode,
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: index mode '{mode}' ")
    assert "CG-KGR" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert fits == [] and not out.exists()


@pytest.mark.parametrize("mode", ["ann", "factorized"])
def test_serve_index_mode_without_factorization_is_a_one_line_error(
    mode, tmp_path, capsys
):
    from repro.core import CGKGR, paper_config
    from repro.data import generate_profile
    from repro.serve import save_checkpoint

    dataset = generate_profile("music", seed=0, scale=0.3)
    save_checkpoint(
        CGKGR(dataset, paper_config("music"), seed=0),
        str(tmp_path),
        dataset_spec={"profile": "music", "seed": 0, "scale": 0.3},
    )
    argv = ["serve", "--checkpoint", str(tmp_path), "--port", "0",
            "--index-mode", mode]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: index mode '{mode}' ") and "CG-KGR" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--record", "--trace", "--timeline", "--track-memory", "--runs-dir"])
def test_compare_takes_no_telemetry_or_record_flags(flag, capsys):
    """`compare` runs no single fit to trace or record, so these flags
    are refused rather than silently ignored."""
    argv = ["compare", *_SMALL, flag] + ([] if flag in ("--record", "--track-memory") else ["x"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("objective", ["bpr", "ce"])
def test_profile_steps_the_trainer_optimizer(objective, tiny_dataset, monkeypatch, capsys):
    """`profile` steps the optimizer `Trainer` builds: under "bpr" no
    weight decay (EmbLoss carries λ), under "ce" the model's l2."""
    from repro.autograd.optim import Adam
    from repro.baselines import BPRMF

    stepped = []
    step = Adam.step

    def recording_step(self):
        stepped.append(self)
        return step(self)

    monkeypatch.setattr(Adam, "step", recording_step)
    code = main(["profile", "bprmf", *_SMALL, "--steps", "2", "--objective", objective])
    assert code == 0
    assert len(stepped) == 3  # warm-up + 2 profiled steps
    assert len(set(map(id, stepped))) == 1
    expected = 0.0 if objective == "bpr" else BPRMF(tiny_dataset).l2
    assert expected > 0.0 or objective == "bpr"
    assert stepped[0].weight_decay == expected
