"""Desk-scale mixup-augmented knowledge distillation for text classifiers."""

from .autodiff import Tensor, backward, finite_diff_check
from .model import ModelConfig, ModelParams, init_random, init_student_from_teacher
from .mixup import MixupConfig, MixupPairs
from .distill import LossWeights, TaskData, TrainConfig

__all__ = [
    "Tensor", "backward", "finite_diff_check",
    "ModelConfig", "ModelParams", "init_random", "init_student_from_teacher",
    "MixupConfig", "MixupPairs",
    "LossWeights", "TaskData", "TrainConfig",
]

__version__ = "0.1.0"
