"""Neural-network training library with a per-batch-step estimated learning rate.

The optimizer at the center of the package models the batch loss along the
gradient direction as a quadratic in the step size, estimates the two
coefficients from two extra loss evaluations, and steps with the estimated
minimizer. Six standard optimizers, the models and data plumbing needed to
benchmark against them, and the ground-truth oracles that verify all of it
live in the submodules.
"""

from .bench import MetricRecord, TrainConfig, run_training
from .nn import build_lenet5, build_logreg, build_mlp
from .optim import LqaState, Verdict, lqa_step
from .tensor import NonFiniteError, Rng

__version__ = "0.1.0"

__all__ = [
    "MetricRecord",
    "TrainConfig",
    "run_training",
    "build_lenet5",
    "build_logreg",
    "build_mlp",
    "LqaState",
    "Verdict",
    "lqa_step",
    "NonFiniteError",
    "Rng",
    "__version__",
]
