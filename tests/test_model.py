"""Transformer classifier: shapes, init, masking, and checkpoint format."""

import contextlib
import dataclasses
import io
import math
import threading
import warnings

import numpy as np
import pytest

from mixkd import autodiff as ad
from mixkd import model as model_mod
from mixkd.data import CLS_ID, PAD_ID, make_batch
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


def test_end_to_end_gradient_nonzero(tiny_params, tiny_config):
    ids, mask = _toy_batch(tiny_config, [6, 4, 5, 6])
    labels = np.eye(2)[[0, 1, 1, 0]]
    from mixkd.data import Batch
    batch = Batch(ids, mask, labels)
    logits = forward_tokens(tiny_params, batch)
    loss = ad.cross_entropy(ad.softmax(logits),
                            ad.constant(batch.labels_onehot))
    ad.backward(loss)
    assert np.abs(tiny_params["tok_emb"].grad).sum() > 0
    tiny_params.zero_grads()


# ---------------------------------------------------------------------------
# the fused forward against the unfused op chain
# ---------------------------------------------------------------------------

def _unfused_forward(params, emb, pad_mask, train_mode=False, rng=None,
                     cls_only_last=True):
    """The encoder written with separate ops: matmul then add_bias, k
    transposed twice, a scale op and a dense [n,h,Tq,T] mask added to the
    scores before a plain softmax.

    With ``cls_only_last`` the last layer takes its queries from the [CLS]
    rows only and draws its dropout masks at the full layer's shapes, as
    forward_from_embeddings does, which must match it bit for bit.  Without
    it every layer computes all n*T rows and the head selects [CLS]: the
    full-last-layer chain, equal to the model in real arithmetic."""
    cfg = params.config
    n, T, d = emb.shape
    h, hd = cfg.num_heads, d // cfg.num_heads
    drop = cfg.dropout_rate if train_mode else 0.0
    bias_row = np.where(pad_mask, 0.0, -1e9)

    def linear(x, w, b):
        return ad.add_bias(ad.matmul(x, params[w]), params[b])

    x2 = ad.reshape(emb, (n * T, d))
    for i in range(cfg.num_layers):
        p = f"layers.{i}"
        cut = cls_only_last and i == cfg.num_layers - 1
        xq = ad.select_index(ad.reshape(x2, (n, T, d)), 0, axis=1) if cut else x2
        tq = 1 if cut else T

        def heads(name, src, rows):
            y = linear(src, f"{p}.attn.w{name}", f"{p}.attn.b{name}")
            return ad.transpose(ad.reshape(y, (n, rows, h, hd)), (0, 2, 1, 3))

        def dropout(x, full_shape):
            return ad.dropout(x, drop, rng,
                              draw_shape=full_shape if cut else None)

        q, k, v = heads("q", xq, tq), heads("k", x2, T), heads("v", x2, T)
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                          1.0 / math.sqrt(hd))
        attn_bias = ad.constant(
            np.broadcast_to(bias_row[:, None, None, :], (n, h, tq, T)).copy())
        attn = dropout(ad.softmax(ad.add(scores, attn_bias)), (n, h, T, T))
        ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)),
                         (n * tq, d))
        proj = dropout(linear(ctx, f"{p}.attn.wo", f"{p}.attn.bo"), (n, T, d))
        x2 = ad.layer_norm(ad.add(xq, proj),
                           params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        ff = linear(ad.gelu(linear(x2, f"{p}.ffn.w1", f"{p}.ffn.b1")),
                    f"{p}.ffn.w2", f"{p}.ffn.b2")
        ff = dropout(ff, (n, T, d))
        x2 = ad.layer_norm(ad.add(x2, ff),
                           params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
    cls = x2 if cls_only_last else ad.select_index(
        ad.reshape(x2, (n, T, d)), 0, axis=1)
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


@pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
@pytest.mark.parametrize("hidden_dim", [64, 48])
def test_cls_only_last_layer_matches_full_last_layer(dropout_rate, hidden_dim):
    """Computing only the [CLS] query rows in the last layer is exact in
    real arithmetic: logits and every gradient agree to rounding.  The
    gradients get an absolute floor at the model's gradient scale: the key
    biases' gradients are 0 in real arithmetic (a softmax ignores a shift
    shared by all keys), so both sides hold only rounding noise there."""
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


# ---------------------------------------------------------------------------
# two-thread sample split of graph-free forwards
# ---------------------------------------------------------------------------

def _split_shape(n, T, hidden_dim=64, seed=0):
    """A 4-layer model (4 heads, ffn 128) and n rows of T tokens with
    ragged lengths."""
    config = ModelConfig(num_layers=4, hidden_dim=hidden_dim, num_heads=4,
                         ffn_dim=128, vocab_size=50, max_seq_len=T,
                         num_classes=3)
    lengths = np.random.default_rng(seed).integers(T // 2, T + 1, size=n)
    ids, mask = _toy_batch(config, lengths)
    return init_random(config, seed=seed), ids, mask


def _forward_threads(monkeypatch):
    """(thread name, grad mode, scope) of every layer norm from now on."""
    calls, real = set(), ad.layer_norm

    def spy(*args, **kwargs):
        calls.add((threading.current_thread().name, ad._grad_enabled.get(),
                   ad._scope.get()))
        return real(*args, **kwargs)
    monkeypatch.setattr(ad, "layer_norm", spy)
    return calls


def _split(calls):
    return any(name.startswith("mixkd-forward") for name, _, _ in calls)


def _no_forward_thread_alive():
    return not any(t.name.startswith("mixkd-forward")
                   for t in threading.enumerate())


@pytest.mark.parametrize("n,T,hidden_dim", [
    (32, 64, 64),   # eval_long's batch
    (33, 32, 64),   # odd n: halves of 16 and 17
    (4, 256, 16),   # the smallest halves, 2 samples each
    (32, 64, 48),
])
def test_split_forward_bitwise_equals_graph_forward(n, T, hidden_dim,
                                                    monkeypatch):
    """The graph-mode forward stays serial; the graph-free one splits."""
    params, ids, mask = _split_shape(n, T, hidden_dim)
    threads = _forward_threads(monkeypatch)
    graph, graph_feats = forward_from_embeddings(
        params, embed_batch(params, ids, mask), mask, return_features=True)
    assert not _split(threads) and graph._inputs
    threads.clear()
    with ad.no_grad():
        split, split_feats = forward_from_embeddings(
            params, embed_batch(params, ids, mask), mask,
            return_features=True)
    assert _split(threads) and _no_forward_thread_alive()
    # both halves ran under the caller's no_grad, each in its own scopes
    scopes = {f"layers.{i}.ln{j}" for i in range(4) for j in (1, 2)}
    for name in ("MainThread", "mixkd-forward_0"):
        assert {(grad, scope) for who, grad, scope in threads
                if who == name} == {(False, scope) for scope in scopes}
    assert np.array_equal(split.data, graph.data)
    assert np.array_equal(split_feats.data, graph_feats.data)


def _encoder_calls(monkeypatch):
    """(thread name, samples) of every ``_encoder`` call from now on."""
    calls, real = [], model_mod._encoder

    def spy(params, x2, key_bias, *args):
        calls.append((threading.current_thread().name, key_bias.shape[0]))
        return real(params, x2, key_bias, *args)
    monkeypatch.setattr(model_mod, "_encoder", spy)
    return calls


# the blocks' sample counts in the calling thread and in the worker
BLOCKS = {
    "no_grad": ([2], [2]),      # 4 x 256: two 512-row halves, one block each
    "frozen": ([2], [2]),
    "graph": ([4], []),         # one serial pass over every sample
    "dropout": ([4], []),
    "anomaly": ([4], []),
    "3_samples": ([3], []),     # no 2-sample halves, so one block
    "448_rows": ([32], []),
    "one_cpu": ([2, 2], []),    # the halves' blocks, in order
    "eval_long": ([8, 8], [8, 8]),
    "eval_long_one_cpu": ([8, 8, 8, 8], []),
}


@pytest.mark.parametrize("case,splits", [
    ("no_grad", True),
    ("frozen", True),           # grad mode on, but nothing requires grad
    ("graph", False),
    ("dropout", False),
    ("anomaly", False),
    ("3_samples", False),       # 3 x 512 rows: a half would hold 1 sample
    ("448_rows", False),        # the distill teacher's 32 x 14
    ("one_cpu", False),
    ("eval_long", True),        # 32 x 64: 2048 rows
    ("eval_long_one_cpu", False),
])
def test_split_runs_only_where_it_pays(case, splits, monkeypatch):
    n, T = {"3_samples": (3, 512), "448_rows": (32, 14), "eval_long": (32, 64),
            "eval_long_one_cpu": (32, 64)}.get(case, (4, 256))
    params, ids, mask = _split_shape(n, T, hidden_dim=16)
    if case == "dropout":
        params = ModelParams(dataclasses.replace(params.config,
                                                 dropout_rate=0.1),
                             params.arrays)
    if case == "frozen":
        params = params.copy().freeze()
    if case.endswith("one_cpu"):
        monkeypatch.setattr(model_mod, "_cpus", lambda: 1)
    # every case but two builds no graph
    graph_mode = case in ("frozen", "graph")
    threads = _forward_threads(monkeypatch)
    blocks = _encoder_calls(monkeypatch)
    with (contextlib.nullcontext() if graph_mode else ad.no_grad()), (
            ad.detect_anomaly() if case == "anomaly"
            else contextlib.nullcontext()):
        forward_from_embeddings(params, embed_batch(params, ids, mask), mask,
                                train_mode=True,
                                rng=np.random.default_rng(0))
    assert _split(threads) == splits
    assert ([b for who, b in blocks if who == "MainThread"],
            [b for who, b in blocks if who != "MainThread"]) == BLOCKS[case]


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
    blocks = _encoder_calls(monkeypatch)
    with ad.no_grad():
        blocked, blocked_feats = forward_from_embeddings(
            params, embed_batch(params, ids, mask), mask,
            return_features=True)
    assert [b for who, b in blocks if who == "MainThread"] == main
    assert [b for who, b in blocks if who != "MainThread"] == worker
    assert np.array_equal(blocked.data, graph.data)
    assert np.array_equal(blocked_feats.data, graph_feats.data)


def _block_shapes():
    """(T, samples) of every block that a graph-free forward of 2-64
    samples at the sequence lengths used here runs."""
    shapes = set()
    for T in (14, 32, 64, 128, 256, 300):
        for n in range(2, 65):
            spans = [(0, n)]
            if n >= 4 and n * T >= 2 * model_mod._BLOCK_ROWS:
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


@pytest.mark.parametrize("k,width", [(64, 64), (64, 128), (128, 64),
                                     (48, 48), (16, 16)])
def test_gemm_rows_are_block_invariant(k, width):
    """Blocks are bitwise only if a block's GEMM rows equal the same rows
    of the whole batch's product.  The BLAS does not promise this; this
    guard fails loudly if a BLAS update breaks it at the block shapes that
    occur (token rows, and [CLS] rows in the last layer)."""
    rng = np.random.default_rng(k * width)
    a = rng.normal(size=(64 * 300 + 7, k))
    w = rng.normal(size=(k, width))
    whole = a @ w
    for T, b in _block_shapes():
        for rows in (b * T, b):
            for start in (0, 7, rows):
                assert np.array_equal(a[start:start + rows] @ w,
                                      whole[start:start + rows]), (T, b, rows)


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


@pytest.mark.parametrize("worker_fails", [True, False])
def test_split_forward_error_reaches_caller_after_join(worker_fails,
                                                       monkeypatch):
    params, ids, mask = _split_shape(32, 64)
    real = ad.gelu

    def fails_in_one_half(x):
        in_worker = threading.current_thread().name.startswith(
            "mixkd-forward")
        if in_worker == worker_fails:
            raise RuntimeError("half failed")
        return real(x)
    monkeypatch.setattr(ad, "gelu", fails_in_one_half)
    with ad.no_grad():
        emb = embed_batch(params, ids, mask)
        with pytest.raises(RuntimeError, match="^half failed$"):
            forward_from_embeddings(params, emb, mask)
    assert _no_forward_thread_alive()


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

    class DiskFull:
        """A file whose third write fails, after the header went out."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise OSError("No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(model_mod, "open",
                        lambda *a, **kw: DiskFull(open(*a, **kw)),
                        raising=False)
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
    _rejected(blob + b"\0", monkeypatch, match="sha256")


def test_checkpoint_manifest_shape_mismatch(tiny_params, tiny_config,
                                            tmp_path):
    path = tmp_path / "s.ckpt"
    other = dataclasses.replace(tiny_config, ffn_dim=32)
    save_checkpoint(tiny_params, tiny_config, path)
    raw = path.read_bytes()
    # rewrite the config portion of the manifest to disagree with the arrays
    import json
    import struct
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
