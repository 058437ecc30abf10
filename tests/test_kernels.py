"""Value oracles and invariants of the numeric kernels."""

import math

import numpy as np
import pytest

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
    out, xhat, inv_std = kernels.layernorm_rows(x, gain, bias, 1e-5)
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
# attention, an FFN activation, a single element, the eval_long FFN
# activation, and one GELU block plus a ragged last block of one element.

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
    for got, want in zip(kernels.layernorm_rows(x, gain, bias, 1e-5),
                         layernorm_rows_formula(x0, gain, bias, 1e-5)):
        _bitwise(got, want)
    _bitwise(x, x0)
