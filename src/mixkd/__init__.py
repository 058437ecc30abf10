"""Desk-scale mixup-augmented knowledge distillation for text classifiers."""

import ctypes

from .autodiff import Tensor, backward, finite_diff_check
from .model import ModelConfig, ModelParams, init_random, init_student_from_teacher
from .mixup import MixupConfig, MixupPairs
from .distill import LossWeights, TaskData, TrainConfig


def _keep_freed_memory() -> bool:
    """Keep freed heap memory in the process; True where glibc took it.

    Training and evaluation free and reallocate the same activation
    arrays, up to 4 MiB each, at every step.  By default glibc maps
    blocks above a moving threshold with mmap and unmaps them on free,
    and returns the free top of the heap to the kernel, so the next op
    faults fresh zeroed pages back in: about 20,000 minor faults in a
    graph-mode 4-layer forward of 32x64 tokens.  Raising the mmap
    threshold to glibc's 64-bit maximum (32 MiB) and the trim threshold
    to 1 GiB keeps those blocks on the heap for reuse.  Both are needed:
    any mallopt call freezes the moving mmap threshold where it stands.
    Without glibc this does nothing.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no C library handle (e.g. Windows)
        return False
    if not hasattr(libc, "gnu_get_libc_version") or not hasattr(libc, "mallopt"):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3     # glibc's malloc.h
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20)
                and libc.mallopt(m_trim_threshold, 1 << 30))


_keep_freed_memory()

__all__ = [
    "Tensor", "backward", "finite_diff_check",
    "ModelConfig", "ModelParams", "init_random", "init_student_from_teacher",
    "MixupConfig", "MixupPairs",
    "LossWeights", "TaskData", "TrainConfig",
]

__version__ = "0.1.0"
