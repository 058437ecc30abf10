"""Value oracles and invariants of the numeric kernels."""

import numpy as np

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
    out, mean, inv_std = kernels.layernorm_rows(x, gain, bias, 1e-5)
    np.testing.assert_allclose(mean[:, 0], x.mean(axis=1))
    centered = (out - bias) / gain
    np.testing.assert_allclose(centered.mean(axis=1), 0.0, atol=1e-10)
