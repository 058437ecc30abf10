"""Value oracles and invariants of the numeric kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixkd import kernels

# high-precision tanh-form GELU values (40-digit mpmath evaluation, frozen)
GELU_ORACLE = {
    -2.0: -0.0454023059122249812,
    -0.5: -0.154285990174856078,
    0.0: 0.0,
    0.5: 0.345714009825143922,
    1.0: 0.841191990608276705,
    3.0: 2.99636260791822698,
}


def test_gelu_forward_oracle():
    xs = np.array(sorted(GELU_ORACLE))
    expected = np.array([GELU_ORACLE[x] for x in sorted(GELU_ORACLE)])
    np.testing.assert_allclose(kernels.gelu_forward(xs), expected,
                               rtol=1e-14, atol=1e-16)


def test_gelu_backward_matches_finite_difference(rng):
    x = rng.normal(size=257)
    g = rng.normal(size=257)
    h = 1e-6
    numeric = (kernels.gelu_forward(x + h) - kernels.gelu_forward(x - h)) / (2 * h)
    np.testing.assert_allclose(kernels.gelu_backward(x, g), g * numeric,
                               rtol=1e-7, atol=1e-9)


def test_softmax_rows_reference(rng):
    x = rng.normal(size=(17, 9)) * 5.0
    p = kernels.softmax_rows(x)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p > 0).all()
    # invariant under per-row shift
    np.testing.assert_allclose(
        kernels.softmax_rows(x + 123.0), p, atol=1e-12)


def test_layernorm_rows_reference(rng):
    x = rng.normal(size=(11, 16)) * 2.0 + 3.0
    gain = rng.normal(size=16) + 1.0
    bias = rng.normal(size=16)
    out, xhat, inv_std = kernels.layernorm_rows(x, gain, bias)
    np.testing.assert_allclose(xhat, (x - x.mean(axis=1, keepdims=True))
                               * inv_std)
    np.testing.assert_allclose(xhat.mean(axis=1), 0.0, atol=1e-10)
    # mean(xhat^2) = var / (var + eps) = 1 - eps * inv_std^2
    np.testing.assert_allclose((xhat * xhat).mean(axis=1),
                               1.0 - 1e-5 * inv_std[:, 0] ** 2)
    centered = (out - bias) / gain
    np.testing.assert_allclose(centered.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(centered, xhat)


# ---------------------------------------------------------------------------
# bitwise equality with the plain formulas
# ---------------------------------------------------------------------------
# The kernels work in place; these are the one-expression formulas they
# replace, operation for operation.  Shapes: train attention, eval_long
# attention, an FFN activation, a single element, the FFN activation of a
# whole eval_long batch, and a wide array of an odd element count.

BITWISE_SHAPES = [(1792, 14), (8192, 64), (448, 128), (1, 1), (2048, 128),
                  (5, 3277)]
C, S = 0.044715, math.sqrt(2.0 / math.pi)


def gelu_forward_formula(x):
    u = S * (x + C * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(u))


def gelu_backward_formula(x, grad_out):
    u = S * (x + C * x * x * x)
    t = np.tanh(u)
    du = S * (1.0 + 3.0 * C * x * x)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    return grad_out * local


def softmax_rows_formula(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def layernorm_rows_formula(x, gain, bias, eps):
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    return xhat * gain + bias, xhat, inv_std


def _bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture(params=BITWISE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def wide(request, rng):
    # heavy tails reach the saturated GELU and softmax regimes
    x = rng.standard_t(3, size=request.param) * 3.0
    return x, x.copy()


def test_gelu_forward_bitwise(wide):
    x, x0 = wide
    _bitwise(kernels.gelu_forward(x), gelu_forward_formula(x0))
    _bitwise(x, x0)


def test_gelu_backward_bitwise(wide, rng):
    x, x0 = wide
    g = rng.normal(size=x.shape)
    g0 = g.copy()
    _bitwise(kernels.gelu_backward(x, g), gelu_backward_formula(x0, g0))
    _bitwise(x, x0)
    _bitwise(g, g0)


def test_softmax_rows_bitwise(wide):
    x, x0 = wide
    _bitwise(kernels.softmax_rows(x), softmax_rows_formula(x0))
    _bitwise(x, x0)


def test_softmax_rows_bitwise_masked_scores(rng):
    # attention adds -1e9 at pad keys; whole pad rows keep the shift exact
    x = rng.normal(size=(1792, 14))
    x[:, 9:] += -1e9
    x[::7] = -1e9
    _bitwise(kernels.softmax_rows(x), softmax_rows_formula(x))


def _masked_scores(rng):
    # attention adds -1e9 at pad keys; whole pad rows keep the shift exact
    x = rng.normal(size=(1792, 14))
    x[:, 9:] += -1e9
    x[::7] = -1e9
    return x


@pytest.mark.parametrize("where", ["input", "buffer"])
def test_softmax_rows_out_bitwise(where, wide, rng):
    """``out=`` is the formula, bit for bit, written into the buffer the
    caller owns, which may be the input itself."""
    for x, x0 in (wide, (_masked_scores(rng),) * 2):
        x0 = x0.copy()
        out = x if where == "input" else np.empty_like(x)
        p = kernels.softmax_rows(x, out=out)
        assert p is out
        _bitwise(p, softmax_rows_formula(x0))
        if where == "buffer":
            _bitwise(x, x0)


def test_softmax_rows_without_out_leaves_masked_input(rng):
    x = _masked_scores(rng)
    x0 = x.copy()
    kernels.softmax_rows(x)
    _bitwise(x, x0)


def test_layernorm_rows_bitwise(wide, rng):
    x, x0 = wide
    k = x.shape[1]
    gain, bias = rng.normal(size=k) + 1.0, rng.normal(size=k)
    for got, want in zip(kernels.layernorm_rows(x, gain, bias),
                         layernorm_rows_formula(x0, gain, bias, 1e-5)):
        _bitwise(got, want)
    _bitwise(x, x0)


def softmax_backward_formula(p, g, scale):
    dz = (g - (g * p).sum(axis=-1, keepdims=True)) * p
    return dz if scale is None else dz * scale


def layernorm_rows_backward_formula(g, xhat, inv_std, gain):
    dxhat = g * gain
    return inv_std * (dxhat - dxhat.mean(axis=1, keepdims=True)
                      - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))


def layernorm_sums_formula(g, xhat):
    return (g * xhat).sum(axis=0), g.sum(axis=0)


def _layernorm_backward_bitwise(g, xhat, inv_std, gain):
    """Both parts of the layer-norm VJP are bitwise their formulas and
    write no input; dx of a block of rows is the same rows of the whole
    batch's dx."""
    args = (g, xhat, inv_std, gain)
    before = [a.copy() for a in args]
    dx = kernels.layernorm_rows_backward(*args)
    _bitwise(dx, layernorm_rows_backward_formula(*before))
    for got, want in zip(kernels.layernorm_sums(g, xhat),
                         layernorm_sums_formula(*before[:2])):
        _bitwise(got, want)
    for a, a0 in zip(args, before):
        _bitwise(a, a0)
    rows = len(g)
    for lo, hi in {(0, rows // 2 or 1), (rows // 2, rows), (rows // 3, rows)}:
        _bitwise(kernels.layernorm_rows_backward(g[lo:hi], xhat[lo:hi],
                                                 inv_std[lo:hi], gain),
                 dx[lo:hi])


@pytest.mark.parametrize("scale", [None, 0.25, 1.0 / math.sqrt(12)])
def test_softmax_backward_bitwise(scale, wide, rng):
    x, _ = wide
    p = softmax_rows_formula(x)
    # the attention scores' [n,h,T,T] layout as well as rows
    for p in (p, p.reshape((1, 1) + p.shape)):
        g = rng.normal(size=p.shape)
        p0, g0 = p.copy(), g.copy()
        _bitwise(kernels.softmax_backward(p, g, scale),
                 softmax_backward_formula(p0, g0, scale))
        _bitwise(p, p0)
        _bitwise(g, g0)


def test_layernorm_rows_backward_bitwise(wide, rng):
    x, _ = wide
    k = x.shape[1]
    gain, bias = rng.normal(size=k) + 1.0, rng.normal(size=k)
    _, xhat, inv_std = layernorm_rows_formula(x, gain, bias, 1e-5)
    _layernorm_backward_bitwise(rng.normal(size=x.shape), xhat, inv_std,
                                gain)


def _layout(x, transposed):
    """x itself, or x's values in a transposed, non-contiguous view."""
    return np.ascontiguousarray(x.T).T if transposed else x


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(rows=st.integers(1, 300), cols=st.integers(1, 160),
       seed=st.integers(0, 2 ** 32 - 1),
       x_transposed=st.booleans(), g_transposed=st.booleans())
def test_kernels_bitwise_on_drawn_shapes(rows, cols, seed, x_transposed,
                                         g_transposed):
    """Every kernel is bitwise its formula on drawn shapes, and writes no
    input; GELU also on transposed, non-contiguous operands, which
    ``autodiff.gelu`` passes through as they are."""
    rng = np.random.default_rng(seed)
    x = rng.standard_t(3, size=(rows, cols)) * 3.0
    g = rng.normal(size=(rows, cols))
    gain, bias = rng.normal(size=cols) + 1.0, rng.normal(size=cols)
    x0, g0 = x.copy(), g.copy()
    xl, gl = _layout(x, x_transposed), _layout(g, g_transposed)
    assert xl.flags.c_contiguous == (not x_transposed or 1 in x.shape)
    _bitwise(kernels.gelu_forward(xl), gelu_forward_formula(x0))
    _bitwise(kernels.gelu_backward(xl, gl), gelu_backward_formula(x0, g0))
    _bitwise(kernels.softmax_rows(x), softmax_rows_formula(x0))
    want = layernorm_rows_formula(x0, gain, bias, 1e-5)
    for got, w in zip(kernels.layernorm_rows(x, gain, bias), want):
        _bitwise(got, w)
    _, xhat, inv_std = want
    _layernorm_backward_bitwise(g, xhat, inv_std, gain)
    for a, a0 in ((x, x0), (xl, x0), (g, g0), (gl, g0)):
        _bitwise(a, a0)
