"""Mixup recipes, the Beta sampler, and interpolation algebra."""

import math

import numpy as np
import pytest

from mixkd import autodiff as ad
from mixkd import mixup
from mixkd.autodiff import Tensor, constant
from mixkd.mixup import (MixupConfig, MixupError, MixupPairs, make_pairs,
                         materialize, mix_batch, mix_labels, sample_lambda)


def test_spec_validation():
    MixupPairs([0], [1], [0.5])
    with pytest.raises(MixupError):
        MixupPairs([0], [1], [1.5])
    with pytest.raises(MixupError):
        MixupPairs([-1], [0], [0.5])


@pytest.mark.parametrize("index_i, index_j, lam", [
    ([0, 1], [1, 0], [0.5, -0.25]),
    ([0, 1], [1, 0], [0.5, 1.0 + 1e-12]),
    ([0, 1], [1, 0], [float("nan"), 0.5]),
    ([0, 1], [1, -3], [0.5, 0.5]),
    ([0, 1], [1], [0.5, 0.5]),
    ([0, 1], [1, 0], [0.5]),
    ([[0, 1]], [[1, 0]], [[0.5, 0.5]]),
], ids=["lambda_below_0", "lambda_above_1", "lambda_nan", "negative_index",
        "ragged_index", "ragged_lambda", "not_1d"])
def test_pairs_reject_invalid(index_i, index_j, lam):
    with pytest.raises(MixupError):
        MixupPairs(index_i, index_j, lam)


def test_pairs_are_read_only_typed_copies():
    lam = np.array([0.25, 1.0])
    pairs = MixupPairs([0, 1], [1, 0], lam)
    assert (pairs.index_i.dtype, pairs.lam.dtype) == (np.int64, np.float64)
    assert len(pairs) == 2 and bool(pairs)
    lam[0] = 7.0  # the record holds its own copy
    assert pairs.lam[0] == 0.25
    with pytest.raises(ValueError):
        pairs.lam[0] = 2.0
    with pytest.raises(TypeError):  # a fractional index is not truncated
        MixupPairs([0.5], [1], [0.5])


def test_config_validation():
    with pytest.raises(MixupError):
        MixupConfig(beta_alpha=0.0)
    with pytest.raises(MixupError):
        MixupConfig(mixup_ratio=-1)
    for ratio in (math.inf, -math.inf, math.nan, 1.5):
        with pytest.raises(MixupError, match="^mixup_ratio must be an int "
                                             ">= 0, got "):
            MixupConfig(mixup_ratio=ratio)


def test_sample_lambda_range_and_moments(rng):
    cfg = MixupConfig(beta_alpha=0.4)
    draws = np.array([sample_lambda(cfg, rng) for _ in range(20000)])
    assert ((0.0 <= draws) & (draws <= 1.0)).all()
    # Beta(a,a): mean 1/2, variance a^2/((2a)^2 (2a+1)) = 5/36 for a = 0.4
    assert draws.mean() == pytest.approx(0.5, abs=0.02)
    assert draws.var() == pytest.approx(5.0 / 36.0, abs=0.01)


def test_make_pairs_coverage(rng):
    cfg = MixupConfig(mixup_ratio=3)
    pairs = make_pairs(8, cfg, rng)
    assert len(pairs) == 24
    counts = np.bincount(pairs.index_i, minlength=8)
    np.testing.assert_array_equal(counts, 3)
    assert all(0 <= j < 8 for j in pairs.index_j)


def test_make_pairs_zero_ratio(rng):
    pairs = make_pairs(4, MixupConfig(mixup_ratio=0), rng)
    assert len(pairs) == 0 and not pairs
    # nothing was drawn
    assert rng.random() == np.random.default_rng(0).random()


def _per_pair_make_pairs(batch_size, config, rng):
    """The per-pair loop make_pairs replaced: one (i, j, lambda) triple at
    a time, each lambda from two scalar Gamma draws."""
    triples = []
    for _ in range(config.mixup_ratio):
        partners = rng.permutation(batch_size)
        for i in range(batch_size):
            x = rng.gamma(config.beta_alpha)
            y = rng.gamma(config.beta_alpha)
            triples.append((i, int(partners[i]), float(x / (x + y))))
    return triples


@pytest.mark.parametrize("batch", [1, 32, 199])
# make_pairs' one pairing: a permutation of the batch
@pytest.mark.parametrize("pairing", ["permutation"])
@pytest.mark.parametrize("ratio", [0, 1, 3])
def test_make_pairs_matches_per_pair_loop_bitwise(batch, pairing, ratio):
    cfg = MixupConfig(beta_alpha=0.4, mixup_ratio=ratio)
    for seed in range(3):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = make_pairs(batch, cfg, ours)
        triples = _per_pair_make_pairs(batch, cfg, theirs)
        i, j, lam = (zip(*triples) if triples else ((), (), ()))
        assert pairs.index_i.tolist() == list(i)
        assert pairs.index_j.tolist() == list(j)
        assert pairs.lam.tobytes() == np.array(lam, dtype=np.float64).tobytes()
        # the generators stand at the same point of the stream
        assert ours.random() == theirs.random()


def _reference_make_pairs(batch_size, config, rng, extra_pool_size=0):
    """make_pairs written out in full, one round at a time, with
    ``Generator.gamma``: (index_i, index_j, lam).  With a pool, partners
    are distinct pool rows, as ``draw_round`` draws them for the gap
    experiment."""
    index_j = np.empty((config.mixup_ratio, batch_size), dtype=np.int64)
    lam = np.empty(index_j.shape)
    for r in range(config.mixup_ratio):
        index_j[r] = (rng.choice(extra_pool_size, size=batch_size,
                                 replace=False)
                      if extra_pool_size else rng.permutation(batch_size))
        g = rng.gamma(config.beta_alpha, size=(batch_size, 2))
        lam[r] = g[:, 0] / (g[:, 0] + g[:, 1])
    return (np.tile(np.arange(batch_size), config.mixup_ratio),
            index_j.ravel(), lam.ravel())


@pytest.mark.parametrize("pool", [0, 40, 57], ids=["permutation", "pool=batch",
                                                    "pool>batch"])
@pytest.mark.parametrize("ratio", [0, 1, 2, 3])
def test_make_pairs_and_draw_round_match_reference(ratio, pool):
    """draw_round per round with the lambdas formed at the end (the gap
    experiment's route), and without a pool make_pairs, give the
    reference's pairs bit for bit and leave the generator where it
    does."""
    cfg = MixupConfig(beta_alpha=0.4, mixup_ratio=ratio)
    for seed in range(3):
        ours, rounds, theirs = (np.random.default_rng(seed) for _ in range(3))
        index_i, index_j, lam = _reference_make_pairs(40, cfg, theirs, pool)
        if not pool:
            pairs = make_pairs(40, cfg, ours)
            assert pairs.index_i.tobytes() == index_i.tobytes()
            assert pairs.index_j.tobytes() == index_j.tobytes()
            assert pairs.lam.tobytes() == lam.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state

        gammas = np.empty((ratio, 40, 2))
        partners = [mixup.draw_round(40, 0.4, rounds, pool, gammas[r])
                    for r in range(ratio)]
        np.testing.assert_array_equal(np.ravel(partners), index_j)
        assert mixup.beta_from_gammas(gammas).ravel().tobytes() == \
            lam.tobytes()
        assert rounds.bit_generator.state == theirs.bit_generator.state


def test_sample_lambda_matches_two_scalar_gamma_draws():
    cfg = MixupConfig(beta_alpha=0.4)
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(50):
        x, y = theirs.gamma(cfg.beta_alpha), theirs.gamma(cfg.beta_alpha)
        assert sample_lambda(cfg, ours) == float(x / (x + y))
    assert ours.random() == theirs.random()


def _random_pair(rng, n=4, t=5, d=3, c=2):
    emb_i = constant(rng.normal(size=(n, t, d)))
    emb_j = constant(rng.normal(size=(n, t, d)))
    mask_i = np.ones((n, t), dtype=bool)
    mask_j = np.ones((n, t), dtype=bool)
    labels_i = np.eye(c)[rng.integers(0, c, n)]
    labels_j = np.eye(c)[rng.integers(0, c, n)]
    return emb_i, emb_j, mask_i, mask_j, labels_i, labels_j


def test_endpoint_identities(rng):
    ei, ej, mi, mj, li, lj = _random_pair(rng)
    out1, _, lab1 = mix_batch(ei, ej, mi, mj, li, lj, np.ones(4))
    np.testing.assert_array_equal(out1.data, ei.data)
    np.testing.assert_array_equal(lab1, li)
    out0, _, lab0 = mix_batch(ei, ej, mi, mj, li, lj, np.zeros(4))
    np.testing.assert_array_equal(out0.data, ej.data)
    np.testing.assert_array_equal(lab0, lj)


def test_symmetry(rng):
    ei, ej, mi, mj, li, lj = _random_pair(rng)
    lam = rng.uniform(size=4)
    a, _, la = mix_batch(ei, ej, mi, mj, li, lj, lam)
    b, _, lb = mix_batch(ej, ei, mj, mi, lj, li, 1.0 - lam)
    np.testing.assert_allclose(a.data, b.data, atol=1e-15)
    np.testing.assert_allclose(la, lb, atol=1e-15)


def test_label_simplex_preserved(rng):
    ei, ej, mi, mj, li, lj = _random_pair(rng)
    _, _, labels = mix_batch(ei, ej, mi, mj, li, lj, rng.uniform(size=4))
    np.testing.assert_allclose(labels.sum(axis=1), 1.0, atol=1e-12)
    assert (labels >= 0).all()


def test_mask_union_and_pad_tail(rng):
    n, t, d = 2, 6, 3
    ei = rng.normal(size=(n, t, d))
    ej = rng.normal(size=(n, t, d))
    mask_i = np.array([[True] * 5 + [False]] * n)
    mask_j = np.array([[True] * 3 + [False] * 3] * n)
    ei[~mask_i] = 0.0
    ej[~mask_j] = 0.0  # pad convention: exact zero embeddings
    lam = np.array([0.3, 0.8])
    mixed, mixed_mask, _ = mix_batch(constant(ei), constant(ej), mask_i,
                                     mask_j, np.eye(2)[[0, 1]],
                                     np.eye(2)[[1, 0]], lam)
    np.testing.assert_array_equal(mixed_mask, mask_i | mask_j)
    # beyond the shorter sequence the mix degenerates to lambda * x_i
    np.testing.assert_allclose(mixed.data[:, 3:5],
                               lam[:, None, None] * ei[:, 3:5], atol=1e-15)


def test_mix_batch_shape_errors(rng):
    ei, ej, mi, mj, li, lj = _random_pair(rng)
    with pytest.raises(MixupError):
        mix_batch(ei, ej, mi, mj, li, lj, np.ones(3))
    with pytest.raises(MixupError):
        mix_batch(ei, constant(rng.normal(size=(4, 5, 4))), mi, mj, li, lj,
                  np.ones(4))
    for mask_j, labels_j in ((mj[:, :-1], lj), (mj, np.eye(3)[:4])):
        with pytest.raises(MixupError, match="^mask or label shapes differ$"):
            mix_batch(ei, ej, mi, mask_j, li, labels_j, np.ones(4))


def test_materialize_matches_manual(rng):
    emb = constant(rng.normal(size=(5, 4, 3)))
    mask = np.ones((5, 4), dtype=bool)
    labels = np.eye(2)[[0, 1, 0, 1, 0]]
    pairs = MixupPairs([0, 2], [3, 1], [0.25, 0.9])
    mixed, _, mixed_labels = materialize(pairs, emb, mask, labels)
    for k, (i, j, lam) in enumerate(zip(pairs.index_i, pairs.index_j,
                                        pairs.lam)):
        np.testing.assert_allclose(
            mixed.data[k],
            lam * emb.data[i] + (1 - lam) * emb.data[j],
            atol=1e-15)
        np.testing.assert_allclose(
            mixed_labels[k],
            lam * labels[i] + (1 - lam) * labels[j])


def test_materialize_requires_specs(rng):
    emb = constant(rng.normal(size=(2, 3, 2)))
    with pytest.raises(MixupError):
        materialize([], emb, np.ones((2, 3), dtype=bool), np.eye(2))


def test_gradient_flows_with_lambda_weights(rng):
    emb = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    mask = np.ones((2, 3), dtype=bool)
    labels = np.eye(2)
    mixed, _, _ = materialize(MixupPairs([0], [1], [0.7]), emb, mask, labels)
    ad.backward(ad.tsum(mixed))
    np.testing.assert_allclose(emb.grad[0], 0.7, atol=1e-15)
    np.testing.assert_allclose(emb.grad[1], 0.3, atol=1e-15)


def _materialize_by_composition(pairs, emb, mask, labels):
    """What materialize computed before ``autodiff.mix``: rows gathered
    through [n,T*d] reshapes, mixed by two ``mul``s with dense lambda
    copies and an ``add``."""
    def rows(t, idx):
        n, T, d = t.shape
        flat = ad.reshape(t, (n, T * d))
        return ad.reshape(ad.gather_rows(flat, idx), (len(idx), T, d))

    i, j = pairs.index_i, pairs.index_j
    ei, ej = rows(emb, i), rows(emb, j)
    full = np.broadcast_to(pairs.lam[:, None, None], ei.shape).copy()
    mixed = ad.add(ad.mul(ei, constant(full)),
                   ad.mul(ej, constant(1.0 - full)))
    return mixed, mask[i] | mask[j], mix_labels(labels[i], labels[j],
                                                pairs.lam)


def test_materialize_gradient_bitwise_equals_composition(rng):
    """An embedding that feeds a forward path and the mixup, as in
    distill.total_loss: its gradient sums the forward path's, the rows
    i's and the rows j's in that order, as the composition did, so the
    table gradients agree bit for bit (they would not with j first)."""
    n, T, V, d = 8, 5, 13, 6
    ids = rng.integers(0, V, size=(n, T))
    mask = np.arange(T)[None, :] < rng.integers(1, T + 1, size=n)[:, None]
    labels = np.eye(2)[rng.integers(0, 2, n)]
    pairs = make_pairs(n, MixupConfig(mixup_ratio=2), rng)
    tables = rng.normal(size=(V, d)), rng.normal(size=(T, d))
    w_fwd = constant(rng.normal(size=(n * T, d)))
    w_mix = constant(rng.normal(size=(len(pairs), T, d)))

    def grads(mat):
        tok, pos = (Tensor(t.copy(), requires_grad=True) for t in tables)
        emb = ad.embedding(tok, pos, ids, mask)
        fwd = ad.tsum(ad.mul(ad.reshape(emb, (n * T, d)), w_fwd))
        mixed, mixed_mask, mixed_labels = mat(pairs, emb, mask, labels)
        ad.backward(ad.add(fwd, ad.tsum(ad.mul(mixed, w_mix))))
        return (mixed.data, mixed_mask, mixed_labels, tok.grad.tobytes(),
                pos.grad.tobytes())

    got = grads(materialize)
    ref = grads(_materialize_by_composition)
    assert got[0].tobytes() == ref[0].tobytes()
    assert np.array_equal(got[1], ref[1])
    assert got[2].tobytes() == ref[2].tobytes()
    assert got[3:] == ref[3:]


def test_randomized_algebra_cases(rng):
    # compact randomized sweep of all the identities above
    for _ in range(200):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        ei = constant(rng.normal(size=(n, t, d)))
        ej = constant(rng.normal(size=(n, t, d)))
        mask = np.ones((n, t), dtype=bool)
        li = np.eye(2)[rng.integers(0, 2, n)]
        lj = np.eye(2)[rng.integers(0, 2, n)]
        lam = rng.uniform(size=n)
        mixed, _, labels = mix_batch(ei, ej, mask, mask, li, lj, lam)
        np.testing.assert_allclose(labels.sum(axis=1), 1.0, atol=1e-12)
        sym, _, _ = mix_batch(ej, ei, mask, mask, lj, li, 1.0 - lam)
        np.testing.assert_allclose(mixed.data, sym.data, atol=1e-14)


def test_mix_labels_broadcast():
    li = np.eye(2)[[0, 1]]
    lj = np.eye(2)[[1, 0]]
    out = mix_labels(li, lj, np.array([0.25, 0.75]))
    np.testing.assert_allclose(out, [[0.25, 0.75], [0.25, 0.75]])
