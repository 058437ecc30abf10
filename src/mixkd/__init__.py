"""Desk-scale mixup-augmented knowledge distillation for text classifiers."""

import ctypes

from . import model as _model
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


def _one_blas_thread(maps: str = "/proc/self/maps") -> bool:
    """Run the loaded OpenBLAS on one thread; True where it was found.

    mixkd runs its own threads: a large graph-free forward splits its
    samples over two (``model.forward_from_embeddings``).  At OpenBLAS's
    default of one thread per CPU, those threads and OpenBLAS's own
    contend for the same CPUs: on a 2-CPU host an ``evaluate`` of
    32x64-token batches took 46-65 ms a batch, against 22-26 ms with one
    BLAS thread.  The setter works at run time, after numpy has loaded
    the library, which is found among the process's mapped files, listed
    in ``maps``.  It is not called where OpenBLAS already runs one thread
    (``OPENBLAS_NUM_THREADS=1``): there a repeated call made the small
    GEMMs of the bound testbed about 2% slower.  Where there is no such
    list, library or symbol, this does nothing, and the forward does not
    split.
    """
    try:
        with open(maps) as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:  # no /proc (not Linux)
        return False
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                if get() != 1:
                    put(1)
                return True
    return False


_keep_freed_memory()
_model._blas_one_thread = _one_blas_thread()

__all__ = [
    "Tensor", "backward", "finite_diff_check",
    "ModelConfig", "ModelParams", "init_random", "init_student_from_teacher",
    "MixupConfig", "MixupPairs",
    "LossWeights", "TaskData", "TrainConfig",
]

__version__ = "0.1.0"
