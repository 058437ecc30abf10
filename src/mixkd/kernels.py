"""Hot numeric kernels: tanh-form GELU, row softmax and row layer norm.

All kernels take and return contiguous float64 arrays and are shape-dumb:
callers reshape to 2-D (rows x features) before dispatching.
"""

from __future__ import annotations

import math

import numpy as np

# tanh-form GELU constant
_GELU_C = 0.044715
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def gelu_forward(x: np.ndarray) -> np.ndarray:
    u = _SQRT_2_OVER_PI * (x + _GELU_C * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(u))


def gelu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    u = _SQRT_2_OVER_PI * (x + _GELU_C * x * x * x)
    t = np.tanh(u)
    du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_C * x * x)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    return grad_out * local


def softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def layernorm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                   eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (out, mean, inv_std); the stats are reused by the backward pass."""
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out = (x - mean) * inv_std * gain + bias
    return out, mean, inv_std
