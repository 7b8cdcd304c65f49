"""Examples are runnable end-to-end (shrunk via env knobs)."""

import os
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

FAST_ENV = {
    "REPRO_EXAMPLE_EPOCHS": "1",
    "REPRO_EXAMPLE_SCALE": "0.3",
}


@pytest.fixture(autouse=True)
def fast_env(monkeypatch):
    for key, value in FAST_ENV.items():
        monkeypatch.setenv(key, value)


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "book_model_comparison.py",
        "custom_dataset.py",
        "explainable_recommendation.py",
        "cold_start_study.py",
    ],
)
def test_example_runs(script, capsys):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_examples_directory_has_quickstart():
    assert (EXAMPLES_DIR / "quickstart.py").exists()
