"""Transformer classifier: shapes, init, masking, and checkpoint format."""

import contextlib
import dataclasses
import io
import math

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
