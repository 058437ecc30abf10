"""Hot numeric kernels: tanh-form GELU, row softmax and row layer norm,
each forward and backward; layer norm's backward comes in a row part and
a part that sums over rows.

The row kernels take and return contiguous float64 arrays and are
shape-dumb: callers reshape to 2-D (rows x features) before dispatching.
GELU is elementwise and takes an array of any shape and layout, and
``softmax_backward`` works over the last axis of any shape, as the
softmax of ``autodiff`` does.  Layer norm's epsilon, 1e-5, is the
kernel's own constant.

Each kernel allocates as few arrays as it can and works on them in place
(``*=``, ``+=``, ``out=``), but performs exactly the floating-point
operations of the plain formula in its docstring, in the same order, so
the results are bitwise those of the formula.  Inputs are never written,
except that ``softmax_rows`` writes into an ``out=`` buffer the caller
owns, which may be its input.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

# tanh-form GELU constant
_GELU_C = 0.044715
_GELU_3C = 3.0 * _GELU_C
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# added to the variance under layer norm's square root
_LAYER_NORM_EPS = 1e-5


def _gelu_tanh(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi) * (x + c * x * x * x)) into ``out``."""
    np.multiply(_GELU_C, x, out=out)
    out *= x
    out *= x
    out += x
    out *= _SQRT_2_OVER_PI
    return np.tanh(out, out=out)


def gelu_forward(x: np.ndarray) -> np.ndarray:
    """0.5 * x * (1 + tanh(sqrt(2/pi) * (x + c * x * x * x)))."""
    out = np.empty(x.shape)
    t = _gelu_tanh(x, np.empty(x.shape))
    t += 1.0
    np.multiply(0.5, x, out=out)
    out *= t
    return out


def gelu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du), where t is
    the tanh above and du = sqrt(2/pi) * (1 + 3c * x * x)."""
    tmp = np.empty(x.shape)
    slope = np.empty(x.shape)
    t = _gelu_tanh(x, np.empty(x.shape))
    np.multiply(t, t, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    np.multiply(0.5, x, out=slope)
    slope *= tmp
    np.multiply(_GELU_3C, x, out=tmp)
    tmp *= x
    tmp += 1.0
    tmp *= _SQRT_2_OVER_PI
    slope *= tmp
    t += 1.0
    t *= 0.5
    t += slope
    t *= grad_out
    return t


def softmax_rows(x: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(x - rowmax) / rowsum(exp(x - rowmax)), into ``out`` if given
    (``x`` itself, say, when the caller owns it and needs it no more)."""
    # a max over the transposed copy is faster on short rows ([1792, 14])
    # and as much slower on long ones ([8192, 64]); the plain one is kept.
    # A row holding +inf gives inf - inf = NaN, which the boundary checks
    # report, so numpy's warning would only be noise before the error
    with np.errstate(invalid="ignore"):
        e = np.subtract(x, x.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def layernorm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (out, xhat, inv_std) for xhat = (x - mean) * inv_std,
    inv_std = 1 / sqrt(mean((x - mean) ** 2) + 1e-5) and
    out = xhat * gain + bias; xhat and inv_std feed the backward pass."""
    xhat = x - x.mean(axis=1, keepdims=True)
    out = np.square(xhat)
    inv_std = out.mean(axis=1, keepdims=True)
    inv_std += _LAYER_NORM_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, xhat, inv_std


def softmax_backward(p: np.ndarray, g: np.ndarray,
                     scale: Optional[float] = None) -> np.ndarray:
    """(g - sum(g * p)) * p * scale, the sum over the last axis (of any
    shape), for p = softmax(x * scale) and the gradient g of p; without
    ``scale``, no multiply."""
    dz = g * p
    np.subtract(g, dz.sum(axis=-1, keepdims=True), out=dz)
    dz *= p
    if scale is not None:
        dz *= scale
    return dz


def layernorm_rows_backward(g: np.ndarray, xhat: np.ndarray,
                            inv_std: np.ndarray, gain: np.ndarray
                            ) -> np.ndarray:
    """The row part of ``layernorm_rows``'s VJP: for the gradient g of its
    out, with dxhat = g * gain, dx = inv_std * (dxhat - rowmean(dxhat)
    - xhat * rowmean(dxhat * xhat)).  Each row of dx reads only its own
    row, so a block of rows gives the same rows of the whole batch's dx;
    ``layernorm_sums`` gives the gain's and the bias's gradients."""
    dx = g * gain
    t = dx * xhat
    mean_dxhat_xhat = t.mean(axis=1, keepdims=True)
    dx -= dx.mean(axis=1, keepdims=True)
    np.multiply(xhat, mean_dxhat_xhat, out=t)
    dx -= t
    dx *= inv_std
    return dx


def layernorm_sums(g: np.ndarray, xhat: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The sums over rows of ``layernorm_rows``'s VJP: (dgain, dbias) =
    (colsum(g * xhat), colsum(g)) for the gradient g of its out."""
    t = g * xhat
    return t.sum(axis=0), g.sum(axis=0)
