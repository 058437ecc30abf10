"""Hot numeric kernels: tanh-form GELU, row softmax and row layer norm,
each forward and backward.

All kernels take and return contiguous float64 arrays and are shape-dumb:
callers reshape to 2-D (rows x features) before dispatching, except that
``softmax_backward`` works over the last axis of any shape, as the
softmax of ``autodiff`` does.

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
# GELU runs over blocks of this many elements (128 KB of float64), so its
# eight elementwise passes reuse a block from cache instead of streaming
# whole arrays.  On a 2 MB-L2 Xeon (numpy 2.4.6, interleaved) that is 2.6x
# (forward) and 2.0x (backward) faster at eval_long's [2048, 128]; an
# array that fits in L2 whole, [448, 128], runs at 0.8x / 1.0x, within
# the noise of a whole training step
_GELU_BLOCK = 16384


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
    xf, of = x.reshape(-1), out.reshape(-1)
    t = np.empty(min(_GELU_BLOCK, xf.size))
    for s in range(0, xf.size, _GELU_BLOCK):
        xb, ob = xf[s:s + _GELU_BLOCK], of[s:s + _GELU_BLOCK]
        tb = _gelu_tanh(xb, t[:xb.size])
        tb += 1.0
        np.multiply(0.5, xb, out=ob)
        ob *= tb
    return out


def gelu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du), where t is
    the tanh above and du = sqrt(2/pi) * (1 + 3c * x * x)."""
    out = np.empty(x.shape)
    xf, gf, of = x.reshape(-1), grad_out.reshape(-1), out.reshape(-1)
    tmp_buf = np.empty(min(_GELU_BLOCK, xf.size))
    slope_buf = np.empty_like(tmp_buf)
    for s in range(0, xf.size, _GELU_BLOCK):
        xb = xf[s:s + _GELU_BLOCK]
        tmp, slope = tmp_buf[:xb.size], slope_buf[:xb.size]
        t = _gelu_tanh(xb, of[s:s + _GELU_BLOCK])
        np.multiply(t, t, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(0.5, xb, out=slope)
        slope *= tmp
        np.multiply(_GELU_3C, xb, out=tmp)
        tmp *= xb
        tmp += 1.0
        tmp *= _SQRT_2_OVER_PI
        slope *= tmp
        t += 1.0
        t *= 0.5
        t += slope
        t *= gf[s:s + _GELU_BLOCK]
    return out


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


def layernorm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                   eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (out, xhat, inv_std) for xhat = (x - mean) * inv_std,
    inv_std = 1 / sqrt(mean((x - mean) ** 2) + eps) and
    out = xhat * gain + bias; xhat and inv_std feed the backward pass."""
    xhat = x - x.mean(axis=1, keepdims=True)
    out = np.square(xhat)
    inv_std = out.mean(axis=1, keepdims=True)
    inv_std += eps
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
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dx, dgain, dbias) for the gradient g of ``layernorm_rows``'s
    out: dgain = colsum(g * xhat), dbias = colsum(g), and, with
    dxhat = g * gain, dx = inv_std * (dxhat - rowmean(dxhat)
    - xhat * rowmean(dxhat * xhat))."""
    t = g * xhat
    dgain = t.sum(axis=0)
    dbias = g.sum(axis=0)
    dx = g * gain
    np.multiply(dx, xhat, out=t)
    mean_dxhat_xhat = t.mean(axis=1, keepdims=True)
    dx -= dx.mean(axis=1, keepdims=True)
    np.multiply(xhat, mean_dxhat_xhat, out=t)
    dx -= t
    dx *= inv_std
    return dx, dgain, dbias
