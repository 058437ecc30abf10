"""Transformer classifier: shapes, init, masking, and checkpoint format."""

import _ctypes
import contextlib
import dataclasses
import io
import json
import math
import multiprocessing
import os
import re
import resource
import struct
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixkd
from mixkd import autodiff as ad
from mixkd import distill, kernels
from mixkd import model as model_mod
from mixkd.data import CLS_ID, PAD_ID, Batch, make_batch
from mixkd.model import (CheckpointError, ModelConfig, ModelParams,
                         embed_batch, forward_from_embeddings, forward_tokens,
                         init_random, init_student_from_teacher,
                         load_checkpoint, parameter_count_formula,
                         parameter_shapes, save_checkpoint)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(2, 8, 3, 16, 20, 6, 2)  # 8 % 3 != 0
    with pytest.raises(ValueError):
        ModelConfig(0, 8, 2, 16, 20, 6, 2)
    with pytest.raises(ValueError):
        ModelConfig(2, 8, 2, 16, 20, 6, 2, dropout_rate=1.0)


def test_parameter_count_matches_shapes(tiny_config):
    shapes = parameter_shapes(tiny_config)
    total = sum(int(np.prod(s)) for s in shapes.values())
    assert parameter_count_formula(tiny_config) == total
    # the key projection has no bias
    assert [n for n in shapes if n.startswith("layers.0.attn.")] == [
        f"layers.0.attn.{p}" for p in ("wq", "wk", "wv", "wo", "bq", "bv", "bo")]


def test_parameter_count_scales_with_depth():
    base = dict(hidden_dim=64, num_heads=4, ffn_dim=128, vocab_size=1000,
                max_seq_len=32, num_classes=2)
    counts = [parameter_count_formula(ModelConfig(num_layers=k, **base))
              for k in (1, 3, 6, 12)]
    assert counts == sorted(counts) and len(set(counts)) == 4


def test_init_random_deterministic(tiny_config):
    a = init_random(tiny_config, seed=5)
    b = init_random(tiny_config, seed=5)
    assert a.checksum() == b.checksum()
    assert a.checksum() != init_random(tiny_config, seed=6).checksum()


def test_init_random_conventions(tiny_config):
    params = init_random(tiny_config, seed=0)
    np.testing.assert_array_equal(params["layers.0.ln1.gain"].data, 1.0)
    np.testing.assert_array_equal(params["layers.0.attn.bq"].data, 0.0)
    assert abs(params["tok_emb"].data.std() - 0.02) < 0.005


def test_params_shape_validation(tiny_config):
    arrays = {name: ad.Tensor(np.zeros(shape), requires_grad=True)
              for name, shape in parameter_shapes(tiny_config).items()}
    arrays.pop("head.bias")
    with pytest.raises(ValueError):
        ModelParams(tiny_config, arrays)


def test_params_reject_an_array_of_the_wrong_shape(tiny_config):
    arrays = {name: ad.Tensor(np.zeros(shape), requires_grad=True)
              for name, shape in parameter_shapes(tiny_config).items()}
    d = tiny_config.hidden_dim
    arrays["layers.0.ffn.b1"] = ad.Tensor(np.zeros(d + 1))
    with pytest.raises(ValueError, match=re.escape(
            f"parameter layers.0.ffn.b1: shape ({d + 1},), expected "
            f"({tiny_config.ffn_dim},)")):
        ModelParams(tiny_config, arrays)


def test_copy_is_trainable_and_independent(tiny_config):
    frozen = init_random(tiny_config, seed=0).freeze()
    copy = frozen.copy()
    assert copy.checksum() == frozen.checksum()
    assert all(t.requires_grad for t in copy.arrays.values())
    assert not any(t.requires_grad for t in frozen.arrays.values())
    copy["head.bias"].data += 1.0
    assert copy.checksum() != frozen.checksum()


def test_student_init_copies_prefix(tiny_config, tiny_params):
    student_config = dataclasses.replace(tiny_config, num_layers=1)
    student = init_student_from_teacher(tiny_params, student_config)
    for name in ("tok_emb", "layers.0.attn.wq", "head.weight"):
        np.testing.assert_array_equal(student[name].data,
                                      tiny_params[name].data)
    assert "layers.1.attn.wq" not in student.names


def test_student_init_rejects_mismatch(tiny_config, tiny_params):
    with pytest.raises(ValueError):
        init_student_from_teacher(
            tiny_params, dataclasses.replace(tiny_config, num_layers=3))
    with pytest.raises(ValueError):
        init_student_from_teacher(
            tiny_params, dataclasses.replace(tiny_config, hidden_dim=16,
                                             num_heads=2))


def _toy_batch(config, lengths):
    n = len(lengths)
    ids = np.full((n, config.max_seq_len), PAD_ID, dtype=np.int64)
    mask = np.zeros((n, config.max_seq_len), dtype=bool)
    rng = np.random.default_rng(1)
    for r, L in enumerate(lengths):
        ids[r, 0] = CLS_ID
        ids[r, 1:L] = rng.integers(4, config.vocab_size, size=L - 1)
        mask[r, :L] = True
    return ids, mask


def test_embed_batch_zero_at_pad(tiny_params, tiny_config):
    ids, mask = _toy_batch(tiny_config, [3, 6])
    emb = embed_batch(tiny_params, ids, mask)
    assert emb.shape == (2, 6, 8)
    np.testing.assert_array_equal(emb.data[0, 3:], 0.0)
    assert np.abs(emb.data[0, :3]).sum() > 0


def test_pad_content_does_not_affect_logits(tiny_params, tiny_config):
    ids, mask = _toy_batch(tiny_config, [4, 5])
    out1 = forward_from_embeddings(tiny_params,
                                   embed_batch(tiny_params, ids, mask), mask)
    ids2 = ids.copy()
    ids2[0, 4:] = 7  # junk ids behind the mask
    out2 = forward_from_embeddings(tiny_params,
                                   embed_batch(tiny_params, ids2, mask), mask)
    np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)


def test_forward_shapes_and_features(tiny_params, tiny_config):
    ids, mask = _toy_batch(tiny_config, [6, 6, 4])
    emb = embed_batch(tiny_params, ids, mask)
    logits, feats = forward_from_embeddings(tiny_params, emb, mask,
                                            return_features=True)
    assert logits.shape == (3, 2)
    assert feats.shape == (3, 8)


def test_forward_deterministic_without_dropout(tiny_params, tiny_config):
    ids, mask = _toy_batch(tiny_config, [5, 6])
    emb = embed_batch(tiny_params, ids, mask)
    a = forward_from_embeddings(tiny_params, emb, mask).data
    emb2 = embed_batch(tiny_params, ids, mask)
    b = forward_from_embeddings(tiny_params, emb2, mask).data
    np.testing.assert_array_equal(a, b)


def test_dropout_needs_rng(tiny_config):
    config = dataclasses.replace(tiny_config, dropout_rate=0.1)
    params = init_random(config, seed=0)
    ids, mask = _toy_batch(config, [5])
    emb = embed_batch(params, ids, mask)
    with pytest.raises(ValueError):
        forward_from_embeddings(params, emb, mask, train_mode=True)


def test_embed_batch_rejects_mismatched_ids_and_mask(tiny_params, tiny_config):
    ids, mask = _toy_batch(tiny_config, [3, 6])
    with pytest.raises(ValueError, match=re.escape(
            "token_ids (2, 6) / pad_mask (2, 5) must be [n,T]")):
        embed_batch(tiny_params, ids, mask[:, :5])


def test_embed_batch_rejects_other_sequence_length(tiny_params, tiny_config):
    ids, mask = _toy_batch(tiny_config, [3, 6])
    with pytest.raises(ValueError, match=re.escape(
            "sequence length 5 != max_seq_len 6")):
        embed_batch(tiny_params, ids[:, :5], mask[:, :5])


def test_forward_rejects_embedding_shape(tiny_params, tiny_config):
    ids, mask = _toy_batch(tiny_config, [3, 6])
    emb = embed_batch(tiny_params, ids, mask)
    with pytest.raises(ValueError, match=re.escape(
            "embedding shape (2, 5, 8) incompatible with config")):
        forward_from_embeddings(tiny_params, ad.constant(emb.data[:, :5]),
                                mask[:, :5])


def test_forward_rejects_pad_mask_shape(tiny_params, tiny_config):
    ids, mask = _toy_batch(tiny_config, [3, 6])
    emb = embed_batch(tiny_params, ids, mask)
    with pytest.raises(ValueError, match=re.escape(
            "pad_mask shape (1, 6), expected (2, 6)")):
        forward_from_embeddings(tiny_params, emb, mask[:1])


@pytest.mark.parametrize("grad_mode", [True, False])
def test_forward_rejects_a_padded_cls_slot(grad_mode, tiny_params,
                                           tiny_config):
    """Every sample's position 0 is real: the graph-free forward reads the
    [CLS] rows from the real rows, and a sample with no real row gave
    logits of 0 before."""
    ids, mask = _toy_batch(tiny_config, [3, 6, 4])
    mask[1] = False
    with (contextlib.nullcontext() if grad_mode else ad.no_grad()):
        emb = embed_batch(tiny_params, ids, mask)
        with pytest.raises(ValueError, match=re.escape(
                "pad_mask row 1 marks position 0, the [CLS] slot, as "
                "padding")):
            forward_from_embeddings(tiny_params, emb, mask)


def test_end_to_end_gradient_nonzero(tiny_params, tiny_config):
    ids, mask = _toy_batch(tiny_config, [6, 4, 5, 6])
    labels = np.eye(2)[[0, 1, 1, 0]]
    batch = Batch(ids, mask, labels)
    logits = forward_from_embeddings(
        tiny_params, embed_batch(tiny_params, batch.token_ids, batch.pad_mask),
        batch.pad_mask)
    loss = ad.cross_entropy(ad.softmax(logits),
                            ad.constant(batch.labels_onehot))
    ad.backward(loss)
    assert np.abs(tiny_params["tok_emb"].grad).sum() > 0
    tiny_params.zero_grads()


# ---------------------------------------------------------------------------
# forward_tokens, the inference forward: no graph
# ---------------------------------------------------------------------------

def test_forward_tokens_builds_no_graph(tiny_config):
    """Leaf results, bitwise the graph forward's, that backward refuses,
    although the parameters require grad."""
    params = init_random(tiny_config, seed=0)
    assert all(t.requires_grad for t in params.arrays.values())
    ids, mask = _toy_batch(tiny_config, [6, 4, 5, 6])
    logits, feats = forward_tokens(
        params, SimpleNamespace(token_ids=ids, pad_mask=mask),
        return_features=True)
    for out in (logits, feats):
        assert out._inputs == () and out._vjp is None
        assert not out.requires_grad
    graph, graph_feats = forward_from_embeddings(
        params, embed_batch(params, ids, mask), mask,
        return_features=True)
    assert np.array_equal(logits.data, graph.data)
    assert np.array_equal(feats.data, graph_feats.data)
    with pytest.raises(ad.AutodiffError, match="root has no graph"):
        ad.backward(ad.tsum(logits))
    assert all(t.grad is None for t in params.arrays.values())


def test_forward_tokens_peak_memory_holds_no_tape():
    """One call at eval_long's shape (32 x 64 tokens, 4 layers) peaks
    under 20 MB of traced allocations; a forward that records the tape
    peaks at about 90 MB."""
    params, ids, mask = _split_shape(32, 64)
    batch = SimpleNamespace(token_ids=ids, pad_mask=mask)
    forward_tokens(params, batch)  # first-call allocations are not the tape
    tracemalloc.start()
    try:
        forward_tokens(params, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# the fused forward against the unfused op chain
# ---------------------------------------------------------------------------

def _unfused_forward(params, emb, pad_mask, train_mode=False, rng=None,
                     cls_only_last=True):
    """The encoder written with separate ops: matmul then add_bias (k has
    no bias: a plain matmul), k transposed twice, a scale op and a dense
    [n,h,Tq,T] mask added to the scores before a plain softmax.

    With ``cls_only_last`` the last layer takes its queries from the [CLS]
    rows only and draws its dropout masks at the full layer's shapes, as
    forward_from_embeddings does, which must match it bit for bit.  Without
    it every layer computes all n*T rows and the head selects [CLS]: the
    full-last-layer chain, equal to the model in real arithmetic.  Its ops
    run in the model's scopes, so ``detect_anomaly`` names them as the
    model names the ops it fuses."""
    cfg = params.config
    n, T, d = emb.shape
    h, hd = cfg.num_heads, d // cfg.num_heads
    drop = cfg.dropout_rate if train_mode else 0.0
    bias_row = np.where(pad_mask, 0.0, -1e9)

    def linear(x, w, b=None):
        y = ad.matmul(x, params[w])
        return y if b is None else ad.add_bias(y, params[b])

    x2 = ad.reshape(emb, (n * T, d))
    for i in range(cfg.num_layers):
        p = f"layers.{i}"
        cut = cls_only_last and i == cfg.num_layers - 1
        tq = 1 if cut else T

        def heads(name, src, rows):
            bias = None if name == "k" else f"{p}.attn.b{name}"
            y = linear(src, f"{p}.attn.w{name}", bias)
            return ad.transpose(ad.reshape(y, (n, rows, h, hd)), (0, 2, 1, 3))

        def dropout(x, full_shape):
            """Inverted dropout as a mul by a constant mask: drawn at the
            full layer's shape, cut to x's rows, then scaled."""
            if drop == 0.0:
                return x
            keep = rng.random(full_shape) >= drop
            if cut:
                keep = keep[..., :1, :]
            return ad.mul(x, ad.constant(keep.reshape(x.shape)
                                         / (1.0 - drop)))

        with ad.scope(f"{p}.attn"):
            xq = ad.select_index(ad.reshape(x2, (n, T, d)), 0) if cut else x2
            q, k, v = heads("q", xq, tq), heads("k", x2, T), heads("v", x2, T)
            scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                              1.0 / math.sqrt(hd))
            attn_bias = ad.constant(np.broadcast_to(
                bias_row[:, None, None, :], (n, h, tq, T)).copy())
            attn = dropout(ad.softmax(ad.add(scores, attn_bias)),
                           (n, h, T, T))
            ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)),
                             (n * tq, d))
            proj = dropout(linear(ctx, f"{p}.attn.wo", f"{p}.attn.bo"),
                           (n, T, d))
        with ad.scope(f"{p}.ln1"):
            x2 = ad.layer_norm(ad.add(xq, proj), params[f"{p}.ln1.gain"],
                               params[f"{p}.ln1.bias"])
        with ad.scope(f"{p}.ffn"):
            ff = linear(ad.gelu(linear(x2, f"{p}.ffn.w1", f"{p}.ffn.b1")),
                        f"{p}.ffn.w2", f"{p}.ffn.b2")
            ff = dropout(ff, (n, T, d))
        with ad.scope(f"{p}.ln2"):
            x2 = ad.layer_norm(ad.add(x2, ff), params[f"{p}.ln2.gain"],
                               params[f"{p}.ln2.bias"])
    cls = x2 if cls_only_last else ad.select_index(
        ad.reshape(x2, (n, T, d)), 0)
    with ad.scope("head"):
        return linear(cls, "head.weight", "head.bias")


def _bench_shape(dropout_rate=0.0, hidden_dim=64):
    """The benchmark's width and batch: 4 layers, d=64, 4 heads, ffn 128,
    32 rows of T=14, half of them padded.  Its 1/sqrt(16) is a power of two,
    which makes the scale commute exactly; d=48 gives 1/sqrt(12), which
    does not."""
    config = ModelConfig(num_layers=4, hidden_dim=hidden_dim, num_heads=4,
                         ffn_dim=128, vocab_size=50, max_seq_len=14,
                         num_classes=3, dropout_rate=dropout_rate)
    ids, mask = _toy_batch(config, [14, 3, 9, 14] * 8)
    return init_random(config, seed=4), ids, mask


def _logits_and_grads(forward, params, ids, mask, **kw):
    params = params.copy()
    logits = forward(params, embed_batch(params, ids, mask), mask, **kw)
    labels = np.eye(3)[np.arange(len(ids)) % 3]
    ad.backward(ad.cross_entropy(ad.softmax(logits),
                                 ad.constant(labels)))
    return logits.data, {name: params[name].grad for name in params.names}


@pytest.mark.parametrize("dropout_rate,hidden_dim",
                         [(0.0, 64), (0.1, 64), (0.0, 48)])
def test_fused_forward_bitwise_equals_unfused(dropout_rate, hidden_dim):
    params, ids, mask = _bench_shape(dropout_rate, hidden_dim)
    fused, fused_grads = _logits_and_grads(
        forward_from_embeddings, params, ids, mask, train_mode=True,
        rng=np.random.default_rng(3))
    plain, plain_grads = _logits_and_grads(
        _unfused_forward, params, ids, mask, train_mode=True,
        rng=np.random.default_rng(3))
    assert np.array_equal(fused, plain)
    for name in params.names:
        assert np.array_equal(fused_grads[name], plain_grads[name]), name


def test_fused_forward_bitwise_equals_unfused_no_grad():
    params, ids, mask = _bench_shape()
    with ad.no_grad():
        fused = forward_from_embeddings(params, embed_batch(params, ids, mask),
                                        mask)
        plain = _unfused_forward(params, embed_batch(params, ids, mask), mask)
    assert fused._vjp is None
    assert np.array_equal(fused.data, plain.data)


def _non_leaf_tape_nodes(loss):
    return sum(node._vjp is not None for node in ad.Tape(loss).nodes)


def test_graph_forward_records_one_tape_node_per_encoder():
    """The whole encoder stack is one autodiff op: a graph forward and
    loss of 4 layers records as many non-leaf tape nodes as one of 1
    layer, and a ``teacher_ft`` step (``ft``'s loss of the 4-layer model
    at batch 32, T = 14, with dropout) records 5: the embedding, the
    encoder, the head, the softmax and the cross-entropy."""
    params, ids, mask = _bench_shape()
    labels = np.eye(3)[np.arange(len(ids)) % 3]
    nodes = {}
    for num_layers in (1, 4):
        config = dataclasses.replace(params.config, num_layers=num_layers)
        small = init_random(config, seed=4)
        logits = forward_from_embeddings(small, embed_batch(small, ids, mask),
                                         mask)
        nodes[num_layers] = _non_leaf_tape_nodes(
            ad.cross_entropy(ad.softmax(logits), ad.constant(labels)))
    assert nodes[4] == nodes[1]
    params = ModelParams(dataclasses.replace(params.config, dropout_rate=0.1),
                         params.arrays)
    loss, _ = distill.total_loss(Batch(ids, mask, labels), [], None, params,
                                 distill.LossWeights(), variant="ft",
                                 train_mode=True,
                                 rng=np.random.default_rng(0))
    assert _non_leaf_tape_nodes(loss) == 5


@pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
@pytest.mark.parametrize("hidden_dim", [64, 48])
def test_cls_only_last_layer_matches_full_last_layer(dropout_rate, hidden_dim):
    """Computing only the [CLS] query rows in the last layer is exact in
    real arithmetic: logits and every gradient agree to rounding.  The
    gradients get an absolute floor at the model's gradient scale: some
    entries are small sums of terms that nearly cancel, so their rounding
    exceeds 1e-12 relative (5 to 30 entries per case here, all within
    4e-19 absolute)."""
    params, ids, mask = _bench_shape(dropout_rate, hidden_dim)
    cut, cut_grads = _logits_and_grads(
        forward_from_embeddings, params, ids, mask, train_mode=True,
        rng=np.random.default_rng(3))
    full, full_grads = _logits_and_grads(
        _unfused_forward, params, ids, mask, train_mode=True,
        rng=np.random.default_rng(3), cls_only_last=False)
    np.testing.assert_allclose(cut, full, rtol=1e-12, atol=0)
    floor = 1e-12 * max(np.abs(g).max() for g in full_grads.values())
    for name in params.names:
        np.testing.assert_allclose(cut_grads[name], full_grads[name],
                                   rtol=1e-12, atol=floor, err_msg=name)


@pytest.mark.parametrize("hidden_dim", [64, 48])
def test_cls_only_last_layer_matches_full_last_layer_no_grad(hidden_dim):
    params, ids, mask = _bench_shape(hidden_dim=hidden_dim)
    with ad.no_grad():
        cut = forward_from_embeddings(params, embed_batch(params, ids, mask),
                                      mask)
        full = _unfused_forward(params, embed_batch(params, ids, mask), mask,
                                cls_only_last=False)
    np.testing.assert_allclose(cut.data, full.data, rtol=1e-12, atol=0)


def test_cls_only_last_layer_draws_the_full_dropout_stream():
    """The last layer draws its masks at the full [n,h,T,T] and [n*T,d]
    shapes, so the generator ends where the full-last-layer chain leaves it."""
    params, ids, mask = _bench_shape(dropout_rate=0.1)
    cut_rng, full_rng = np.random.default_rng(3), np.random.default_rng(3)
    with ad.no_grad():
        forward_from_embeddings(params, embed_batch(params, ids, mask), mask,
                                train_mode=True, rng=cut_rng)
        _unfused_forward(params, embed_batch(params, ids, mask), mask,
                         train_mode=True, rng=full_rng, cls_only_last=False)
    assert cut_rng.bit_generator.state == full_rng.bit_generator.state


@pytest.mark.parametrize("grad_mode", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fused_forward_non_finite_weight_raises(grad_mode, bad):
    params, ids, mask = _bench_shape()
    params["layers.1.attn.wk"].data[3, 5] = bad
    with (contextlib.nullcontext() if grad_mode else ad.no_grad()):
        emb = embed_batch(params, ids, mask)
        with pytest.raises(ad.NonFiniteError):
            forward_from_embeddings(params, emb, mask)


def test_graph_free_forward_checks_finiteness_once(monkeypatch):
    """Only the logits are checked, not each op result."""
    params, ids, mask = _bench_shape()
    calls = []
    real = ad._check_finite

    def counting(arr, *args):
        calls.append(arr.shape)
        return real(arr, *args)
    with ad.no_grad():
        emb = embed_batch(params, ids, mask)
        monkeypatch.setattr(ad, "_check_finite", counting)
        logits = forward_from_embeddings(params, emb, mask)
    assert calls == [logits.shape]


def _short_rows(n=32, T=64):
    """eval_long's 4-layer 32 x 64 model and n rows of 34-56 real tokens,
    so positions 56-63 are padding in every row."""
    params, _, _ = _split_shape(n, T)
    lengths = np.random.default_rng(0).integers(34, 57, size=n)
    return (params, *_toy_batch(params.config, lengths))


@pytest.mark.parametrize("n,cpus,packed", [
    (32, 2, True),     # split halves of two 8 x 64 blocks
    (8, 1, True),      # one 8 x 64 block
    (8, 2, False),     # split halves of 4 x 64: 256 rows run padded
    (4, 2, False),     # one block of 256 rows
])
@pytest.mark.parametrize("where", ["pad_token", "positions_past_every_row"])
def test_pad_only_nan_leaves_packed_graph_free_logits_alone(where, n, cpus,
                                                            packed,
                                                            monkeypatch):
    """A packed graph-free block computes no pad row, so a NaN that
    reaches only pad positions leaves its logits and features bitwise
    those of a clean run, in both threads of a split.  A block of at most
    256 rows and the grad pass compute the pad rows from the pad
    embeddings, and their logits check raises."""
    params, ids, mask = _short_rows(n=n)
    monkeypatch.setattr(model_mod, "_cpus", lambda: cpus)
    batch = SimpleNamespace(token_ids=ids, pad_mask=mask)
    clean, clean_feats = forward_tokens(params, batch, return_features=True)
    if where == "pad_token":
        params["tok_emb"].data[PAD_ID] = np.nan
    else:
        params["pos_emb"].data[56:] = np.nan
    if packed:
        logits, feats = forward_tokens(params, batch, return_features=True)
        assert np.array_equal(logits.data, clean.data)
        assert np.array_equal(feats.data, clean_feats.data)
    else:
        with pytest.raises(ad.NonFiniteError, match="logits contain NaN"):
            forward_tokens(params, batch)
    with pytest.raises(ad.NonFiniteError, match="logits contain NaN"):
        forward_from_embeddings(params, embed_batch(params, ids, mask), mask)


def test_a_lone_cls_row_runs_padded_and_bitwise():
    """One sample of only [CLS], a block of more than 256 rows, would pack
    to one row, whose products are gemv calls that round apart from the
    grad pass's gemm rows (they do at this seed): that block runs padded,
    as every block of at most 256 rows does, so it equals the grad pass,
    and a NaN at its pad positions reaches the logits check."""
    params, _, _ = _split_shape(1, 400)
    ids, mask = _toy_batch(params.config, [1])
    batch = SimpleNamespace(token_ids=ids, pad_mask=mask)
    graph = forward_from_embeddings(params, embed_batch(params, ids, mask),
                                    mask)
    assert np.array_equal(forward_tokens(params, batch).data, graph.data)
    params["tok_emb"].data[PAD_ID] = np.nan
    with pytest.raises(ad.NonFiniteError, match="logits contain NaN"):
        forward_tokens(params, batch)


def test_graph_free_forward_keeps_a_row_of_minus_inf_scores_non_finite():
    """Layer 0's head-0 scores are 1e200 * -1e200 = -inf at every real key
    (every real row's embedding starts with 1).  With zero pad keys a -1e9
    pad bias would make the softmax average those zeros into a finite
    context; a packed block's -inf bias (16 samples: split halves of
    8x64) leaves the rows NaN, which the logits check reports."""
    params, ids, mask = _short_rows(n=16)
    params["tok_emb"].data[:, 0] = 0.5
    params["pos_emb"].data[:, 0] = 0.5
    params["layers.0.attn.wq"].data[:, 0] = 0.0
    params["layers.0.attn.bq"].data[0] = 1e200
    params["layers.0.attn.wk"].data[:, 0] = 0.0
    params["layers.0.attn.wk"].data[0, 0] = -1e200
    with np.errstate(over="ignore"), pytest.raises(
            ad.NonFiniteError, match="logits contain NaN"):
        forward_tokens(params, SimpleNamespace(token_ids=ids, pad_mask=mask))


# ---------------------------------------------------------------------------
# two-thread sample split of graph-free forwards
# ---------------------------------------------------------------------------

def _split_shape(n, T, hidden_dim=64, seed=0, num_layers=4, num_heads=4):
    """A ``num_layers``-layer model (``num_heads`` heads, ffn 128) and n
    rows of T tokens with ragged lengths."""
    config = ModelConfig(num_layers=num_layers, hidden_dim=hidden_dim,
                         num_heads=num_heads,
                         ffn_dim=128, vocab_size=50, max_seq_len=T,
                         num_classes=3)
    lengths = np.random.default_rng(seed).integers(T // 2, T + 1, size=n)
    ids, mask = _toy_batch(config, lengths)
    return init_random(config, seed=seed), ids, mask


def _forward_threads(monkeypatch):
    """(thread name, grad mode, id of the gain) of every row layer norm
    from now on: ``kernels.layernorm_rows`` serves both encoder paths."""
    calls, real = set(), kernels.layernorm_rows

    def spy(x, gain, *args):
        calls.add((threading.current_thread().name, ad._grad_enabled.get(),
                   id(gain)))
        return real(x, gain, *args)
    monkeypatch.setattr(kernels, "layernorm_rows", spy)
    return calls


def _split(calls):
    return any(name.startswith("mixkd-forward") for name, _, _ in calls)


def _worker_halves(monkeypatch):
    """The futures of every half submitted to the long-lived forward
    worker from now on."""
    halves, real = [], model_mod._worker

    def submit(*args):
        halves.append(real.submit(*args))
        return halves[-1]
    monkeypatch.setattr(model_mod, "_worker", SimpleNamespace(submit=submit))
    return halves


def _forward_workers():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("mixkd-forward")]


@pytest.mark.parametrize("n,T,hidden_dim", [
    (32, 64, 64),   # eval_long's batch
    (33, 32, 64),   # odd n: halves of 16 and 17
    (4, 256, 16),   # the smallest halves, 2 samples each
    (32, 64, 48),
    (32, 14, 64),   # the distill teacher's query: two 224-row halves
    (32, 14, 48),
])
def test_split_forward_bitwise_equals_graph_forward(n, T, hidden_dim,
                                                    monkeypatch):
    """The graph-mode forward splits its layers before the last (one
    half on the worker); the graph-free one splits, under ``no_grad`` and
    in ``forward_tokens`` alike, on the one long-lived worker, whose half
    has finished when the forward returns."""
    params, ids, mask = _split_shape(n, T, hidden_dim)
    threads = _forward_threads(monkeypatch)
    halves = _worker_halves(monkeypatch)
    graph, graph_feats = forward_from_embeddings(
        params, embed_batch(params, ids, mask), mask, return_features=True)
    assert _split(threads) and graph._inputs

    def under_no_grad():
        with ad.no_grad():
            return forward_from_embeddings(
                params, embed_batch(params, ids, mask), mask,
                return_features=True)

    def tokens():
        return forward_tokens(params, SimpleNamespace(token_ids=ids,
                                                      pad_mask=mask),
                              return_features=True)

    gains = {id(params[f"layers.{i}.ln{j}.gain"].data)
             for i in range(4) for j in (1, 2)}
    for forward in (under_no_grad, tokens):
        threads.clear()
        split, split_feats = forward()
        assert _split(threads) and all(half.done() for half in halves)
        assert _forward_workers() == ["mixkd-forward_0"]
        # both halves ran every layer norm of every layer under no_grad
        for name in ("MainThread", "mixkd-forward_0"):
            assert {(grad, gain) for who, grad, gain in threads
                    if who == name} == {(False, gain) for gain in gains}
        assert split._inputs == () and split._vjp is None
        assert np.array_equal(split.data, graph.data)
        assert np.array_equal(split_feats.data, graph_feats.data)
    assert len(halves) == 3


def _layer_calls(monkeypatch):
    """(thread name, samples, layer) of every call of ``_layer_forward``,
    which every encoder pass runs, from now on."""
    calls, real = [], model_mod._layer_forward

    def forward(w, x2, key_bias, num_heads, i, *args):
        calls.append((threading.current_thread().name, key_bias.shape[0], i))
        return real(w, x2, key_bias, num_heads, i, *args)
    monkeypatch.setattr(model_mod, "_layer_forward", forward)
    return calls


def _per_thread(calls, num_layers=4):
    """The encoder passes that ran in the calling thread and in the
    worker, in order: each a run of consecutive layers over one block,
    given as its sample count where it ran every layer, else as
    (samples, first layer, last layer)."""
    counts = []
    for main in (True, False):
        passes = []
        for who, b, i in calls:
            if (who == "MainThread") != main:
                continue
            if passes and passes[-1][0] == b and passes[-1][2] == i - 1:
                passes[-1][2] = i
            else:
                passes.append([b, i, i])
        counts.append([b if (lo, hi) == (0, num_layers - 1) else (b, lo, hi)
                       for b, lo, hi in passes])
    return tuple(counts)


# the blocks' sample counts in the calling thread and in the worker:
# anomaly mode runs one pass over every sample; a split grad-mode or
# dropout pass runs layers 0-2 on each half and the last layer whole
BLOCKS = {
    "no_grad": ([2], [2]),  # 4 x 256: two 512-row halves
    "graph": ([(2, 0, 2), (4, 3, 3)], [(2, 0, 2)]),
    "frozen": ([(2, 0, 2), (4, 3, 3)], [(2, 0, 2)]),
    "dropout": ([(2, 0, 2), (4, 3, 3)], [(2, 0, 2)]),
    "anomaly": ([4], []),
    "3_samples": ([3], []),  # no 2-sample halves
    "448_rows": ([16], [16]),  # two 224-row halves
    "224_rows": ([16], []),
    "8x64": ([4], [4]),
    "one_layer": ([8, 8, 8, 8], []),
    "one_cpu": ([2, 2], []),  # the halves' blocks, in order
    "eval_long": ([8, 8], [8, 8]),
    "eval_long_one_cpu": ([8, 8, 8, 8], []),
    "eval_long_blas_threads": ([8, 8, 8, 8], []),
}


# the rule is (num_layers - 1) * n * T >= 1024 token rows, from 4 samples
@pytest.mark.parametrize("case,splits", [
    ("no_grad", True),
    ("frozen", True),           # grad mode on, though nothing requires grad
    ("graph", True),
    ("dropout", True),
    ("anomaly", False),
    ("3_samples", False),       # 3 x 512 rows: a half would hold 1 sample
    ("448_rows", True),         # the distill teacher's 32 x 14: 1344
    ("224_rows", False),        # 16 x 14: 672
    ("8x64", True),             # 1536
    ("one_layer", False),       # 32 x 64 through 1 layer: 0
    ("one_cpu", False),
    ("eval_long", True),        # 32 x 64: 6144
    ("eval_long_one_cpu", False),
    ("eval_long_blas_threads", False),  # OpenBLAS not held at one thread
])
def test_split_runs_only_where_it_pays(case, splits, monkeypatch):
    n, T = {"3_samples": (3, 512), "448_rows": (32, 14),
            "224_rows": (16, 14), "8x64": (8, 64)}.get(case, (4, 256))
    if case.startswith(("eval_long", "one_layer")):
        n, T = 32, 64
    num_layers = 1 if case == "one_layer" else 4
    params, ids, mask = _split_shape(n, T, hidden_dim=16,
                                     num_layers=num_layers)
    if case == "dropout":
        params = ModelParams(dataclasses.replace(params.config,
                                                 dropout_rate=0.1),
                             params.arrays)
    if case == "frozen":
        params = params.copy().freeze()
    if case.endswith("one_cpu"):
        monkeypatch.setattr(model_mod, "_cpus", lambda: 1)
    if case.endswith("blas_threads"):
        monkeypatch.setattr(model_mod, "_blas_one_thread", False)
    # every case but two runs under no_grad
    graph_mode = case in ("frozen", "graph")
    threads = _forward_threads(monkeypatch)
    blocks = _layer_calls(monkeypatch)
    with (contextlib.nullcontext() if graph_mode else ad.no_grad()), (
            ad.detect_anomaly() if case == "anomaly"
            else contextlib.nullcontext()):
        forward_from_embeddings(params, embed_batch(params, ids, mask), mask,
                                train_mode=True,
                                rng=np.random.default_rng(0))
    assert _split(threads) == splits
    assert _per_thread(blocks, num_layers) == BLOCKS[case]


def _grad_step(params, ids, mask):
    """A train-mode graph forward of a leaf embedding and the backward of
    a cross-entropy -> (logits, the embedding's gradient, every
    parameter's gradient, the dropout generator's end state)."""
    params = params.copy()
    emb = ad.Tensor(embed_batch(params, ids, mask).data, requires_grad=True)
    rng = np.random.default_rng(3)
    logits = forward_from_embeddings(params, emb, mask, train_mode=True,
                                     rng=rng)
    labels = np.eye(3)[np.arange(len(ids)) % 3]
    ad.backward(ad.cross_entropy(ad.softmax(logits), ad.constant(labels)))
    return (logits.data, emb.grad,
            {name: params[name].grad for name in params.names},
            rng.bit_generator.state)


SPLIT_GRAD_CASES = [
    (32, 14, 64, 0.0, 4),  # teacher_ft's batch: two 224-row halves
    (32, 14, 64, 0.1, 4),  # with dropout masks
    (33, 32, 64, 0.0, 4),  # odd n: halves of 16 and 17, padded rows
    (4, 256, 16, 0.1, 4),  # the smallest halves, 2 samples each
    (4, 256, 16, 0.1, 2),  # one layer before the last
    (16, 32, 64, 0.0, 3),
    (16, 32, 64, 0.1, 3),
]


@pytest.mark.parametrize(
    "n,T,hidden_dim,dropout_rate,num_layers", SPLIT_GRAD_CASES,
    ids=["-".join(map(str, case[:4])) + ("" if case[4] == 4
                                         else f"-{case[4]}_layers")
         for case in SPLIT_GRAD_CASES])
def test_split_grad_pass_bitwise_equals_serial(n, T, hidden_dim,
                                               dropout_rate, num_layers,
                                               monkeypatch):
    """A grad-mode forward and backward split over two threads gives the
    serial pass's logits, embedding gradient and every parameter
    gradient bit for bit, and leaves the dropout generator where the
    serial pass does.  Its forward submits one half to the worker, and
    its backward two per layer before the last: the row part, then the
    gradient sums."""
    params, ids, mask = _split_shape(n, T, hidden_dim, num_layers=num_layers)
    params = ModelParams(dataclasses.replace(params.config,
                                             dropout_rate=dropout_rate),
                         params.arrays)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 1)
    serial = _grad_step(params, ids, mask)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 2)
    threads = _forward_threads(monkeypatch)
    halves = _worker_halves(monkeypatch)
    split = _grad_step(params, ids, mask)
    assert _split(threads)
    assert len(halves) == 1 + 2 * (num_layers - 1)
    assert all(half.done() for half in halves)
    for got, want in zip(split[:2], serial[:2]):
        assert np.array_equal(got, want)
    for name in params.names:  # the leaf embedding holds emb's gradient
        assert (split[2][name] is None) == name.endswith("_emb")
        assert np.array_equal(split[2][name], serial[2][name]), name
    assert split[3] == serial[3]


def test_split_backward_joins_a_lower_layers_input_once(monkeypatch):
    """A lower layer's xq is its x2, which the k and v sums read too: the
    split backward joins the halves' x2 once and hands that one array to
    all three sums.  The last layer, which runs whole, hands its x2 to
    the k and v sums and its [CLS] rows to the q sum."""
    params, ids, mask = _split_shape(32, 14)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 2)
    seen, real = [], model_mod._sums

    def sums(op, x, dy):
        if op in ("attn.wq", "attn.wk", "attn.wv"):
            seen.append((op, x))
        return real(op, x, dy)
    monkeypatch.setattr(model_mod, "_sums", sums)
    threads = _forward_threads(monkeypatch)
    _grad_step(params, ids, mask)
    assert _split(threads)
    groups = {}
    for op, x in seen:
        groups.setdefault(id(x), []).append(op)
    assert sorted(sorted(ops) for ops in groups.values()) == sorted(
        [["attn.wk", "attn.wv"], ["attn.wq"]]
        + [["attn.wk", "attn.wq", "attn.wv"]] * 3)


def test_split_grad_pass_peak_memory_matches_serial(monkeypatch):
    """At teacher_ft's shape (4 layers, 32 x 14) the traced peak of a
    split grad-mode forward and backward stays within 5% of the serial
    pass's: the halves keep their own arrays, and the backward joins
    them for one layer's gradient sums at a time.  Holding full-batch
    copies of every lower layer's saved arrays reads 8-12% above."""
    params, ids, mask = _split_shape(32, 14)
    labels = ad.constant(np.eye(3)[np.arange(32) % 3])

    def peaks(cpus, steps):
        monkeypatch.setattr(model_mod, "_cpus", lambda: cpus)
        out = []
        for _ in range(steps + 1):  # the first step warms up
            params.zero_grads()
            tracemalloc.start()
            try:
                logits = forward_from_embeddings(
                    params, embed_batch(params, ids, mask), mask)
                ad.backward(ad.cross_entropy(ad.softmax(logits), labels))
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return out[1:]

    threads = _forward_threads(monkeypatch)
    serial = peaks(1, 1)[0]
    assert not _split(threads)
    split = peaks(2, 3)
    assert _split(threads)
    assert min(split) <= 1.05 * serial, (serial / 2**20,
                                         [p / 2**20 for p in split])


@pytest.mark.parametrize("stage", ["forward", "backward"])
@pytest.mark.parametrize("worker_fails", [True, False])
def test_split_grad_pass_error_reaches_caller_after_join(stage, worker_fails,
                                                         monkeypatch):
    """An error in one half of a split grad-mode pass, in its forward or
    in its backward's row part, is raised in the caller once both halves
    have finished: no half is left running or queued."""
    params, ids, mask = _split_shape(32, 14)
    name = "gelu_forward" if stage == "forward" else "gelu_backward"
    real = getattr(kernels, name)

    def fails_in_one_half(x, *args):
        in_worker = threading.current_thread().name.startswith(
            "mixkd-forward")
        if len(x) == 16 * 14 and in_worker == worker_fails:
            raise RuntimeError("half failed")
        return real(x, *args)
    emb = embed_batch(params, ids, mask)
    halves = _worker_halves(monkeypatch)
    if stage == "backward":
        loss = ad.tsum(forward_from_embeddings(params, emb, mask))
    monkeypatch.setattr(kernels, name, fails_in_one_half)
    with pytest.raises(RuntimeError, match="^half failed$"):
        if stage == "forward":
            forward_from_embeddings(params, emb, mask)
        else:
            ad.backward(loss)
    # the forward submitted one half; the backward failed in its first
    assert len(halves) == (1 if stage == "forward" else 2)
    assert all(half.done() for half in halves)
    assert (halves[-1].exception() is not None) == worker_fails
    assert model_mod._worker.submit(lambda: 7).result(timeout=60) == 7


@pytest.mark.parametrize("n,T,hidden_dim,cpus,main,worker", [
    (20, 64, 64, 2, [5, 5], [5, 5]),        # 640-row halves
    (33, 32, 64, 2, [17], [16]),            # 544 rows: a 2nd block < 257
    (8, 300, 16, 2, [2, 2], [2, 2]),        # the smallest blocks
    (32, 64, 64, 1, [8, 8, 8, 8], []),      # one CPU: blocks in order
    (17, 64, 64, 1, [5, 6, 6], []),         # near-equal sample counts
])
def test_blocked_forward_bitwise_equals_graph_forward(n, T, hidden_dim, cpus,
                                                      main, worker,
                                                      monkeypatch):
    params, ids, mask = _split_shape(n, T, hidden_dim)
    monkeypatch.setattr(model_mod, "_cpus", lambda: cpus)
    graph, graph_feats = forward_from_embeddings(
        params, embed_batch(params, ids, mask), mask, return_features=True)
    blocks = _layer_calls(monkeypatch)
    with ad.no_grad():
        blocked, blocked_feats = forward_from_embeddings(
            params, embed_batch(params, ids, mask), mask,
            return_features=True)
    assert _per_thread(blocks) == (main, worker)
    assert np.array_equal(blocked.data, graph.data)
    assert np.array_equal(blocked_feats.data, graph_feats.data)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("num_layers", [2, 4])
def test_packed_forward_with_one_head_bitwise_equals_graph_forward(
        num_layers, cpus, monkeypatch):
    """With one head a head copy of q or v can be a view of the packed
    rows' scatter buffer (numpy needs no copy for a transpose across a
    size-1 axis); the next scatter must not change q or v.  Blocks of 8 x
    64 pack, whether the 16 samples run as one part or two."""
    params, ids, mask = _split_shape(16, 64, num_layers=num_layers,
                                     num_heads=1)
    monkeypatch.setattr(model_mod, "_cpus", lambda: cpus)
    graph = forward_from_embeddings(params, embed_batch(params, ids, mask),
                                    mask)
    with ad.no_grad():
        packed = forward_from_embeddings(
            params, embed_batch(params, ids, mask), mask)
    assert np.array_equal(packed.data, graph.data)


@pytest.mark.parametrize("grad_mode", [True, False])
@pytest.mark.parametrize("n,T", [(17, 64),   # blocks of 5, 6 and 6 x 64
                                 (8, 14)])   # one block of 112 rows
def test_graph_free_layers_run_on_the_real_rows(grad_mode, n, T,
                                                monkeypatch):
    """Under no_grad each block of more than 256 rows normalizes and GELUs
    its R real token rows in the lower layers and its sample count in the
    last layer; a smaller block and grad mode run every token row."""
    params, ids, mask = _split_shape(n, T)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 1)
    rows = {"layernorm_rows": [], "gelu_forward": []}
    for name, seen in rows.items():
        def spy(x, *args, real=getattr(kernels, name), seen=seen):
            seen.append(len(x))
            return real(x, *args)
        monkeypatch.setattr(kernels, name, spy)
    with (contextlib.nullcontext() if grad_mode else ad.no_grad()):
        forward_from_embeddings(params, embed_batch(params, ids, mask), mask)
    spans = [(0, n)] if grad_mode else model_mod._blocks(0, n, T)
    packed = not grad_mode and T * min(b - a for a, b in spans) > 256
    want = [r for a, b in spans
            for r in [int(mask[a:b].sum()) if packed else T * (b - a)] * 3
            + [b - a]]
    assert rows["gelu_forward"] == want
    assert rows["layernorm_rows"] == [r for r in want for _ in (1, 2)]


def _block_shapes():
    """(T, samples) of every block that a graph-free forward of 2-64
    samples through 1-4 layers at the sequence lengths used here runs."""
    shapes = set()
    for T in (14, 32, 64, 128, 256, 300):
        for n in range(2, 65):
            for num_layers in range(1, 5):
                spans = [(0, n)]
                if model_mod._splits(n, T, num_layers):
                    spans = [(0, n // 2), (n // 2, n)]
                for lo, hi in spans:
                    shapes.update((T, b - a) for a, b in
                                  model_mod._blocks(lo, hi, T))
    return sorted(shapes)


def test_blocks_hold_two_samples_and_over_half_a_block_of_rows():
    for T, n in [(103, 5), (64, 17), (300, 8), (14, 32), (1, 1025)]:
        blocks = model_mod._blocks(0, n, T)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(b[1] == c[0] for b, c in zip(blocks, blocks[1:]))
        sizes = [b - a for a, b in blocks]
        assert max(sizes) - min(sizes) <= 1
        if len(blocks) > 1:
            assert min(sizes) >= 2
            assert min(sizes) * T > model_mod._BLOCK_ROWS // 2
    assert model_mod._blocks(0, 5, 103) == [(0, 5)]  # 2 blocks: 206 rows


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lo=st.integers(0, 1000), n=st.integers(1, 299), T=st.integers(1, 129))
def test_blocks_property(lo, n, T):
    """The properties above, for drawn lo, n and T: consecutive blocks
    that cover [lo, lo + n) once, at most ceil(rows / _BLOCK_ROWS) of
    them, of near-equal sample counts, and more than one only where each
    holds 2 samples and over half a block of rows."""
    blocks = model_mod._blocks(lo, lo + n, T)
    assert blocks[0][0] == lo and blocks[-1][1] == lo + n
    assert all(b[1] == c[0] for b, c in zip(blocks, blocks[1:]))
    sizes = [b - a for a, b in blocks]
    assert min(sizes) >= 1
    assert 1 <= len(blocks) <= -(-n * T // model_mod._BLOCK_ROWS)
    assert max(sizes) - min(sizes) <= 1
    if len(blocks) > 1:
        assert min(sizes) >= 2
        assert min(sizes) * T > model_mod._BLOCK_ROWS // 2


def _half_shapes():
    """(T, samples) of every half that a split grad-mode or dropout pass
    of 4-64 samples through 2-4 layers at the sequence lengths used here
    runs: its layers before the last run on each half whole."""
    shapes = set()
    for T in (14, 32, 64, 256):
        for n in range(4, 65):
            if any(model_mod._splits(n, T, layers) for layers in (2, 3, 4)):
                shapes.update({(T, n // 2), (T, n - n // 2)})
    return sorted(shapes)


@pytest.mark.parametrize("k,width", [(64, 64), (64, 128), (128, 64),
                                     (48, 48), (16, 16)])
def test_gemm_rows_are_block_invariant(k, width):
    """Blocks and split halves are bitwise only if their GEMM rows equal
    the same rows of the whole batch's product.  The BLAS does not
    promise this; this guard fails loudly if a BLAS update breaks it at
    the shapes that occur: a graph-free block's token rows and [CLS]
    rows, and a split grad-mode half's token rows, both in the forward's
    ``x @ w`` and in the backward's ``dy @ w.swapaxes(-1, -2)``, whose
    transposed weight OpenBLAS treats apart (224-row halves at T=14,
    T=64's, odd n's).  The last layer's [CLS]-row products, where 16-row
    blocks of the transposed product were seen to differ, run whole."""
    rng = np.random.default_rng(k * width)
    a = rng.normal(size=(64 * 300 + 7, k))
    w = rng.normal(size=(k, width))
    whole = a @ w
    for T, b in _block_shapes():
        for rows in (b * T, b):
            for start in (0, 7, rows):
                assert np.array_equal(a[start:start + rows] @ w,
                                      whole[start:start + rows]), (T, b, rows)
    dy, wt = rng.normal(size=(len(a), width)), w.swapaxes(-1, -2)
    whole_t = dy @ wt
    for T, b in _half_shapes():
        rows = b * T
        for cut in (slice(0, rows), slice(7, 7 + rows), slice(rows, 2 * rows)):
            assert np.array_equal(a[cut] @ w, whole[cut]), (T, b)
            assert np.array_equal(dy[cut] @ wt, whole_t[cut]), (T, b)


@pytest.mark.parametrize("k,width", [(64, 64), (64, 128), (128, 64),
                                     (48, 48), (16, 16)])
def test_gemm_rows_are_invariant_at_packed_row_counts(k, width):
    """A packed graph-free block runs its products over its real token
    rows, any count from 2 up to the block's padded rows: each such row
    must equal the same row of a longer product, at any offset."""
    rng = np.random.default_rng(k + width)
    most = max(T * b for T, b in _block_shapes())
    a = rng.normal(size=(most + 37, k))
    w = rng.normal(size=(k, width))
    whole = a @ w
    for rows in range(2, most + 1):
        for start in (0, 37):
            assert np.array_equal(a[start:start + rows] @ w,
                                  whole[start:start + rows]), rows


def test_split_forward_keeps_the_anomaly_message():
    """detect_anomaly keeps the forward serial, so the first non-finite op
    is the one a graph-mode forward names."""
    params, ids, mask = _split_shape(32, 64)
    params["layers.1.ffn.w1"].data[3, 5] = np.inf
    messages = []
    for mode in (contextlib.nullcontext, ad.no_grad):
        with mode(), ad.detect_anomaly(), np.errstate(invalid="ignore"):
            emb = embed_batch(params, ids, mask)
            with pytest.raises(ad.NonFiniteError) as info:
                forward_from_embeddings(params, emb, mask)
        messages.append(str(info.value))
    assert messages == ["first non-finite: matmul in layers.1.ffn"] * 2


@pytest.mark.parametrize("grad_mode", [True, False])
@pytest.mark.parametrize("name,where", [
    ("layers.0.attn.wq", "matmul in s/layers.0.attn"),
    ("layers.0.attn.wv", "matmul in s/layers.0.attn"),
    ("layers.0.attn.bo", "matmul in s/layers.0.attn"),
    ("layers.0.ln1.gain", "layer_norm in s/layers.0.ln1"),
    ("layers.0.ffn.w1", "matmul in s/layers.0.ffn"),
    ("layers.0.ffn.b2", "matmul in s/layers.0.ffn"),
    ("layers.0.ln2.bias", "layer_norm in s/layers.0.ln2"),
    ("layers.1.attn.wk", "matmul in s/layers.1.attn"),
])
def test_anomaly_names_the_op_an_inf_parameter_reaches(name, where, grad_mode,
                                                       tiny_config):
    """An inf in the first row (or entry) of one parameter of a 2-layer
    model: ``detect_anomaly`` names the op and scope that first compute
    a non-finite value, under ``no_grad`` as in grad mode."""
    params = init_random(tiny_config, seed=0)
    params[name].data[0] = np.inf
    ids, mask = _toy_batch(tiny_config, [6, 4, 5])
    with (contextlib.nullcontext() if grad_mode else ad.no_grad()), (
            ad.detect_anomaly()), ad.scope("s"), np.errstate(all="ignore"):
        emb = embed_batch(params, ids, mask)
        with pytest.raises(ad.NonFiniteError,
                           match=f"^first non-finite: {re.escape(where)}$"):
            forward_from_embeddings(params, emb, mask)


def _anomaly_backward(params, ids, mask, loss_scale=1.0,
                      forward=forward_from_embeddings):
    """A train-mode graph ``forward`` in scope "s" and a backward of the
    logits' sum times ``loss_scale``, under detect_anomaly; the message
    of the NonFiniteError the backward raises."""
    with ad.detect_anomaly(), np.errstate(all="ignore"):
        with ad.scope("s"):
            logits = forward(
                params, embed_batch(params, ids, mask), mask,
                train_mode=True, rng=np.random.default_rng(0))
        with pytest.raises(ad.NonFiniteError) as info:
            ad.backward(ad.scale(ad.tsum(logits), loss_scale))
    return str(info.value)


def test_anomaly_names_the_first_non_finite_vjp(tiny_config, monkeypatch):
    """A VJP is named with the scope its op ran in, in the forward; the
    backward meets the last layer's GELU first."""
    params = init_random(tiny_config, seed=0)
    ids, mask = _toy_batch(tiny_config, [6, 4, 5])
    monkeypatch.setattr(kernels, "gelu_backward",
                        lambda x, g: np.full(x.shape, np.inf))
    assert (_anomaly_backward(params, ids, mask)
            == "first non-finite: gelu vjp in s/layers.1.ffn")


def test_anomaly_names_the_layer_norm_vjp(tiny_config, monkeypatch):
    """An inf 1/std saved by layers.0.ln1 only: the forward is finite, and
    every VJP above that layer norm in the backward is too."""
    params = init_random(tiny_config, seed=0)
    ids, mask = _toy_batch(tiny_config, [6, 4, 5])
    real, target = kernels.layernorm_rows, params["layers.0.ln1.gain"].data

    def inf_inv_std(x, gain, bias):
        out, xhat, inv_std = real(x, gain, bias)
        if gain is target:
            inv_std = np.full_like(inv_std, np.inf)
        return out, xhat, inv_std
    monkeypatch.setattr(kernels, "layernorm_rows", inf_inv_std)
    assert (_anomaly_backward(params, ids, mask)
            == "first non-finite: layer_norm vjp in s/layers.0.ln1")


@pytest.mark.parametrize("name,where", [
    ("layers.1.ffn.w2", "mul vjp in s/layers.1.ffn"),
    ("layers.0.attn.wo", "mul vjp in s/layers.0.attn"),
])
def test_anomaly_names_the_dropout_vjp(name, where, tiny_config):
    """A weight of 1e200 before a dropout and a loss scaled by 1e200: the
    dropout's VJP, a product by the mask, overflows first.  Like the mul
    op it stood for, it also checks the mask's own gradient, the incoming
    gradient times the dropout's input."""
    params = init_random(dataclasses.replace(tiny_config, dropout_rate=0.1),
                         seed=0)
    params[name].data[0] = 1e200
    ids, mask = _toy_batch(tiny_config, [6, 4, 5])
    assert (_anomaly_backward(params, ids, mask, loss_scale=1e200)
            == f"first non-finite: {where}")


@pytest.mark.parametrize("name,where", [
    ("layers.1.ffn.b2", "mul vjp in s/layers.1.ffn"),
    ("layers.2.attn.bo", "mul vjp in s/layers.2.attn"),
])
def test_anomaly_backward_at_a_split_shape_runs_one_part(name, where,
                                                         monkeypatch):
    """At teacher_ft's shape (4 layers, 32 x 14, dropout 0.1), which
    splits outside anomaly mode, a 1e200 entry before a lower layer's
    dropout and a loss scaled by 1e200: under ``detect_anomaly`` the
    backward names the same dropout VJP on 2 CPUs as on 1, and nothing
    goes to the worker."""
    params, ids, mask = _split_shape(32, 14)
    params = ModelParams(dataclasses.replace(params.config, dropout_rate=0.1),
                         params.arrays)
    params[name].data[0] = 1e200
    assert model_mod._splits(32, 14, 4)
    halves = _worker_halves(monkeypatch)
    messages = []
    for cpus in (1, 2):
        monkeypatch.setattr(model_mod, "_cpus", lambda: cpus)
        messages.append(_anomaly_backward(params, ids, mask, loss_scale=1e200))
    assert messages == [f"first non-finite: {where}"] * 2
    assert halves == []


@pytest.mark.parametrize("layer,loss_scale,fused,op_chain", [
    (1, 3.4e307, "layer_norm vjp in s/layers.0.ln2",
     "layer_norm vjp in s/layers.0.ln2"),
    (0, 4e307, "_encoder vjp in s", "reshape vjp in s"),
])
def test_anomaly_names_the_vjp_that_reads_a_residual_sum(
        layer, loss_scale, fused, op_chain, tiny_config):
    """The gradient of a layer's input is the sum of its residual, q, k
    and v parts.  Large attention weights in ``layer`` and a loss scale
    inside a window make each part finite and their sum overflow.  For
    layer 1, the op chain and the encoder op both name the next VJP that
    reads the sum, layer 0's ln2 layer norm.  Layer 0's sum is the
    encoder op's own embedding gradient, which it names; the op chain
    names its reshape of the embedding."""
    params = init_random(tiny_config, seed=0)
    for name in ("wq", "wk", "wv", "wo"):
        params[f"layers.{layer}.attn.{name}"].data *= (
            10.0 if (layer, name) == (1, "wo") else 1000.0)
    if layer == 1:  # small inputs keep layer 1's weight gradients small
        params["layers.0.ln2.gain"].data *= 0.01
    ids, mask = _toy_batch(tiny_config, [6, 4, 5])
    assert (_anomaly_backward(params, ids, mask, loss_scale)
            == f"first non-finite: {fused}")
    assert (_anomaly_backward(params, ids, mask, loss_scale,
                              forward=_unfused_forward)
            == f"first non-finite: {op_chain}")


@pytest.mark.parametrize("worker_fails", [True, False])
def test_split_forward_error_reaches_caller_after_join(worker_fails,
                                                       monkeypatch):
    params, ids, mask = _split_shape(32, 64)
    real = kernels.gelu_forward

    def fails_in_one_half(x):
        in_worker = threading.current_thread().name.startswith(
            "mixkd-forward")
        if in_worker == worker_fails:
            raise RuntimeError("half failed")
        return real(x)
    monkeypatch.setattr(kernels, "gelu_forward", fails_in_one_half)
    with ad.no_grad():
        emb = embed_batch(params, ids, mask)
        halves = _worker_halves(monkeypatch)
        with pytest.raises(RuntimeError, match="^half failed$"):
            forward_from_embeddings(params, emb, mask)
    # no half is running or queued once the forward has raised
    assert len(halves) == 1 and halves[0].done()
    assert (halves[0].exception() is not None) == worker_fails


def _split_logits(params, ids, mask):
    with ad.no_grad():
        return forward_from_embeddings(params, embed_batch(params, ids, mask),
                                       mask).data


def test_concurrent_split_forwards_share_the_worker(monkeypatch):
    """Three threads run split forwards at once through the one worker,
    with a short switch interval: each gets its own logits, bitwise the
    serial forward's, and no half is left running or queued."""
    params, ids, mask = _split_shape(32, 14, hidden_dim=16)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 1)
    serial = _split_logits(params, ids, mask)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 2)
    threads = _forward_threads(monkeypatch)
    halves = _worker_halves(monkeypatch)
    shifted = [(np.roll(ids, k, axis=0), np.roll(mask, k, axis=0))
               for k in range(3)]
    results = [[] for _ in shifted]

    def run(k):
        for _ in range(5):
            results[k].append(_split_logits(params, *shifted[k]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(k,))
                   for k in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert _split(threads) and len(halves) == 15
    assert all(half.done() for half in halves)
    for k, logits in enumerate(results):
        assert len(logits) == 5
        for out in logits:
            assert np.array_equal(out, np.roll(serial, k, axis=0))


def _forward_in_child(params, ids, mask, expected):
    os._exit(0 if np.array_equal(_split_logits(params, ids, mask), expected)
             else 1)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_forked_child_makes_its_own_worker():
    """A process forked after a split forward has no worker thread; the
    worker it inherited would leave a split forward waiting for ever, so
    the child makes its own."""
    params, ids, mask = _split_shape(32, 14, hidden_dim=16)
    expected = _split_logits(params, ids, mask)
    assert _forward_workers() == ["mixkd-forward_0"]
    child = multiprocessing.get_context("fork").Process(
        target=_forward_in_child, args=(params, ids, mask, expected))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_split_forward_worker_inherits_errstate(monkeypatch):
    """A huge embedding in sample 0, in the worker's half, overflows in a
    matmul and a square; the caller's errstate covers the worker too, so
    only the boundary check reports it."""
    params, ids, mask = _split_shape(32, 64)
    threads = _forward_threads(monkeypatch)
    with ad.no_grad():
        emb = embed_batch(params, ids, mask)
        emb.data[0, 5, :] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore"), pytest.raises(
                    ad.NonFiniteError, match="^logits contain NaN or Inf$"):
                forward_from_embeddings(params, emb, mask)
    assert _split(threads)


def test_cpus_falls_back_to_the_cpu_count(monkeypatch):
    """Without ``sched_getaffinity`` (macOS, Windows) the forward counts
    the machine's CPUs, or 1 where even that is unknown."""
    monkeypatch.delattr(model_mod.os, "sched_getaffinity")
    monkeypatch.setattr(model_mod.os, "cpu_count", lambda: 3)
    assert model_mod._cpus() == 3
    monkeypatch.setattr(model_mod.os, "cpu_count", lambda: None)
    assert model_mod._cpus() == 1


def test_one_blas_thread_needs_a_loaded_openblas(tmp_path):
    """Importing mixkd set this process's OpenBLAS to one thread; with no
    list of mapped files, no OpenBLAS in it, a listed file that is not a
    library, or a library without the thread symbols,
    ``_one_blas_thread`` finds nothing to set."""
    assert model_mod._blas_one_thread == mixkd._one_blas_thread()
    maps = tmp_path / "maps"
    assert not mixkd._one_blas_thread(str(maps))
    maps.write_text("7f00-7f01 r-xp 00000000 00:00 0 /usr/lib/libm.so.6\n")
    assert not mixkd._one_blas_thread(str(maps))
    not_a_library = tmp_path / "libopenblas.so"
    not_a_library.write_text("not a library")
    no_symbols = tmp_path / "libopenblas_stub.so"
    no_symbols.symlink_to(_ctypes.__file__)  # an extension module
    for lib in (not_a_library, no_symbols):
        maps.write_text(f"7f00-7f01 r-xp 00000000 00:00 0 {lib}\n")
        assert not mixkd._one_blas_thread(str(maps))


def test_second_large_forward_reuses_freed_memory():
    """Importing mixkd keeps freed heap memory in the process, so a
    repeated graph-mode 4-layer forward and backward at 32x64 tokens
    reuses the pages the first one freed.  Under glibc's default policy
    each repeat faults about 20,000 fresh pages in on the forward alone."""
    if not mixkd._keep_freed_memory():
        pytest.skip("no glibc mallopt")
    n, T = 32, 64
    config = ModelConfig(num_layers=4, hidden_dim=64, num_heads=4,
                         ffn_dim=128, vocab_size=50, max_seq_len=T,
                         num_classes=2)
    params = init_random(config, seed=0)
    rng = np.random.default_rng(0)
    ids = rng.integers(4, 50, size=(n, T))
    ids[:, 0] = CLS_ID
    mask = np.ones((n, T), dtype=bool)
    labels = np.eye(2)[rng.integers(0, 2, size=n)]

    def step():
        logits = forward_from_embeddings(params, embed_batch(params, ids, mask),
                                         mask)
        ad.backward(ad.cross_entropy(ad.softmax(logits), ad.constant(labels)))
        params.zero_grads()

    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_byte_identical(tiny_params, tiny_config, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(tiny_params, tiny_config, p1, extra={"max_len": 6})
    loaded, config, extra = load_checkpoint(p1)
    assert config == tiny_config
    assert extra == {"max_len": 6}
    save_checkpoint(loaded, config, p2, extra=extra)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_failed_write_keeps_old_file(tiny_params, tiny_config,
                                                tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_params, tiny_config, path, extra={"v": 1})
    before = path.read_bytes()

    def disk_full(fd):
        """The fsync after the new bytes reached the temp file fails."""
        raise OSError("No space left on device")

    monkeypatch.setattr(model_mod.os, "fsync", disk_full)
    changed = init_random(tiny_config, seed=9)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(changed, tiny_config, path, extra={"v": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_logit_drift_small(tiny_params, tiny_config, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_params, tiny_config, path)
    loaded, _, _ = load_checkpoint(path)
    ids, mask = _toy_batch(tiny_config, [6, 5])
    before = forward_from_embeddings(
        tiny_params, embed_batch(tiny_params, ids, mask), mask).data
    after = forward_from_embeddings(
        loaded, embed_batch(loaded, ids, mask), mask).data
    assert np.abs(before - after).max() < 1e-5


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncated(tiny_params, tiny_config, tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(tiny_params, tiny_config, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _one_layer_checkpoint(tmp_path):
    cfg = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                      vocab_size=12, max_seq_len=6, num_classes=2)
    path = tmp_path / "one.ckpt"
    save_checkpoint(init_random(cfg, seed=3), cfg, path, extra={"max_len": 6})
    return path.read_bytes()


def _rejected(blob, monkeypatch, match=None):
    """load_checkpoint reads ``blob`` (in memory) and raises CheckpointError."""
    monkeypatch.setattr(model_mod, "open", lambda *a, **kw: io.BytesIO(blob),
                        raising=False)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint("in-memory.ckpt")


def test_checkpoint_truncated_at_every_offset(tmp_path, monkeypatch):
    blob = _one_layer_checkpoint(tmp_path)
    for cut in range(len(blob)):
        _rejected(blob[:cut], monkeypatch)


def test_checkpoint_one_bit_flip_at_every_offset(tmp_path, monkeypatch):
    blob = _one_layer_checkpoint(tmp_path)
    for offset in range(len(blob)):
        flipped = bytearray(blob)
        flipped[offset] ^= 1
        _rejected(bytes(flipped), monkeypatch)
    # trailing bytes are not part of any valid checkpoint either
    _rejected(blob + b"\0", monkeypatch, match="truncated or overlong")


def _split_blob(blob):
    """(manifest dict, array bytes) of checkpoint bytes."""
    (mlen,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12:12 + mlen]), blob[12 + mlen:]


def _rebuilt(manifest, payload):
    """Checkpoint bytes of ``manifest`` and ``payload`` with a digest that
    matches them, so only the structural checks can reject the file."""
    manifest = dict(manifest, sha256=model_mod._digest(manifest, payload))
    mbytes = model_mod._json_bytes(manifest)
    return model_mod.MAGIC + struct.pack("<I", len(mbytes)) + mbytes + payload


def test_checkpoint_manifest_holds_only_names(tmp_path):
    blob = _one_layer_checkpoint(tmp_path)
    manifest, payload = _split_blob(blob)
    assert blob[:8] == b"MKDCKPT2"
    assert set(manifest) == {"config", "arrays", "extra", "sha256"}
    config = ModelConfig(**manifest["config"])
    assert manifest["arrays"] == list(parameter_shapes(config))
    assert len(payload) == 4 * parameter_count_formula(config)
    assert _rebuilt(manifest, payload) == blob


def _reordered(names):
    return [names[1], names[0]] + names[2:]


@pytest.mark.parametrize("edit, where", [
    (_reordered, "entry 0: 'pos_emb', not 'tok_emb'"),
    (lambda names: names + names[:1], "entry 19: 'tok_emb', not None"),
    (lambda names: names[:-1], "entry 18: None, not 'head.bias'"),
    (lambda names: [n for n in names if not n.endswith(".bq")],
     "entry 6: 'layers.0.attn.bv', not 'layers.0.attn.bq'"),
], ids=["reordered", "duplicated", "missing_last", "missing_inner"])
def test_checkpoint_array_names_must_match_the_config(edit, where, tmp_path,
                                                      monkeypatch):
    manifest, payload = _split_blob(_one_layer_checkpoint(tmp_path))
    manifest["arrays"] = edit(manifest["arrays"])
    _rejected(_rebuilt(manifest, payload), monkeypatch,
              match=f"differ from the config at {re.escape(where)}$")


@pytest.mark.parametrize("change", [-4, 4], ids=["float_short", "float_long"])
def test_checkpoint_payload_length_must_match_the_config(change, tmp_path,
                                                         monkeypatch):
    manifest, payload = _split_blob(_one_layer_checkpoint(tmp_path))
    payload = payload[:change] if change < 0 else payload + bytes(change)
    _rejected(_rebuilt(manifest, payload), monkeypatch,
              match="truncated or overlong")


def test_checkpoint_manifest_shape_mismatch(tiny_params, tiny_config,
                                            tmp_path):
    path = tmp_path / "s.ckpt"
    other = dataclasses.replace(tiny_config, ffn_dim=32)
    save_checkpoint(tiny_params, tiny_config, path)
    raw = path.read_bytes()
    # rewrite the config portion of the manifest to disagree with the arrays
    (mlen,) = struct.unpack("<I", raw[8:12])
    manifest = json.loads(raw[12:12 + mlen])
    manifest["config"]["ffn_dim"] = 32
    mbytes = json.dumps(manifest, sort_keys=True,
                        separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(mbytes)) + mbytes
                     + raw[12 + mlen:])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert other.ffn_dim == 32
