"""Training loop (mini-batches, on-the-fly negative resampling, early
stopping, per-epoch timing) and the multi-seed experiment runner behind
every table and figure bench.
"""

from repro.training.trainer import Trainer, TrainerConfig, TrainResult
from repro.training.experiment import (
    ComparisonResult,
    ModelFactory,
    run_comparison,
    run_single,
)

__all__ = [
    "Trainer",
    "TrainerConfig",
    "TrainResult",
    "ComparisonResult",
    "ModelFactory",
    "run_comparison",
    "run_single",
]
