"""Unit tests for the reverse-mode tensor library."""

import contextlib
import re
import threading

import numpy as np
import pytest

from mixkd import autodiff as ad
from mixkd.autodiff import (AutodiffError, NonFiniteError, ShapeError, Tensor,
                            backward, constant, finite_diff_check)
from mixkd import model as model_mod
from mixkd.model import (ModelConfig, embed_batch, forward_from_embeddings,
                          init_random)


def leaf(data, rng=None, shape=None):
    if data is None:
        data = rng.normal(size=shape)
    return Tensor(data, requires_grad=True)


# ---------------------------------------------------------------------------
# construction and guards
# ---------------------------------------------------------------------------

def test_tensor_rejects_nan():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])


def test_tensor_rejects_inf():
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_detach_stops_gradient():
    x = leaf([2.0, 3.0])
    y = ad.tsum(ad.mul(x.detach(), x.detach()))
    assert not y.requires_grad
    # a root built from constants only has no graph to walk
    with pytest.raises(AutodiffError, match="root has no graph"):
        backward(y)
    assert x.grad is None


def test_double_backward_rejected():
    x = leaf([1.0, 2.0])
    y = ad.tsum(x)
    backward(y)
    with pytest.raises(AutodiffError):
        backward(y)


def test_backward_requires_scalar_root():
    x = leaf([[1.0, 2.0]])
    with pytest.raises(AutodiffError):
        backward(ad.scale(x, 1.0))


def test_frozen_subgraph_is_pruned():
    a = constant(np.ones((3, 3)))
    b = constant(np.ones((3, 3)))
    out = ad.matmul(a, b)
    assert out._inputs == ()  # no graph kept below constants


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------

def _record_tensors(monkeypatch):
    """Every ``Tensor`` constructed from now on, in creation order."""
    made = []
    real = Tensor.__init__

    def spy(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self)
    monkeypatch.setattr(Tensor, "__init__", spy)
    return made


def test_no_grad_forward_builds_no_graph(monkeypatch):
    """A graph-free forward builds three tensors, the embedding, the
    [CLS] rows and the logits, all leaves, at 1 and at 4 layers and in
    one block (2 x 64 tokens) or several (24 x 64).  The graph forward
    builds three too, all with a VJP: the embedding, the encoder and the
    logits; its logits are the same bit for bit."""
    blocks, real = [], model_mod._layer_forward

    def counting(w, x2, key_bias, num_heads, i, *args):
        if i == 0:  # a block's pass starts
            blocks.append(key_bias.shape[0])
        return real(w, x2, key_bias, num_heads, i, *args)
    monkeypatch.setattr(model_mod, "_layer_forward", counting)
    made = _record_tensors(monkeypatch)
    for num_layers in (1, 4):
        config = ModelConfig(num_layers=num_layers, hidden_dim=16,
                             num_heads=2, ffn_dim=32, vocab_size=20,
                             max_seq_len=64, num_classes=2)
        params = init_random(config, seed=0)
        for n in (2, 24):
            ids = np.arange(n * 64).reshape(n, 64) % config.vocab_size
            mask = np.ones((n, 64), dtype=bool)
            mask[::2, 40:] = False
            made.clear()
            blocks.clear()
            with ad.no_grad():
                logits = forward_from_embeddings(
                    params, embed_batch(params, ids, mask), mask)
            assert len(made) == 3 and made[-1] is logits
            for t in made:
                assert t._inputs == () and t._vjp is None
                assert not t.requires_grad
            assert sum(blocks) == n and (len(blocks) > 1) == (n == 24)
            made.clear()
            graph = forward_from_embeddings(
                params, embed_batch(params, ids, mask), mask)
            assert len(made) == 3 and made[-1] is graph
            assert all(t._inputs and t._vjp is not None for t in made)
            assert np.array_equal(logits.data, graph.data)


def test_no_grad_still_checks_finiteness():
    # op results are checked in anomaly mode only, under no_grad as well
    x = leaf(np.array([1e308]))
    with ad.no_grad(), np.errstate(over="ignore"):
        with ad.detect_anomaly(), ad.scope("loss.sm"):
            with pytest.raises(NonFiniteError,
                               match="^first non-finite: scale in loss.sm$"):
                ad.scale(x, 10.0)


def test_no_grad_restored_after_exception():
    x = leaf(np.ones(3))
    with pytest.raises(ShapeError):
        with ad.no_grad():
            ad.add(x, leaf(np.ones(4)))
    assert ad._grad_enabled.get()
    assert ad.scale(x, 1.0)._inputs == (x,)


def test_no_grad_nests():
    x = leaf(np.ones(3))
    with ad.no_grad():
        with ad.no_grad():
            assert ad.scale(x, 1.0)._vjp is None
        assert ad.scale(x, 1.0)._vjp is None
    assert ad._grad_enabled.get()
    y = ad.tsum(ad.mul(x, x))
    backward(y)
    np.testing.assert_array_equal(x.grad, 2.0 * np.ones(3))


@pytest.mark.parametrize("root", ["no_grad", "constant"])
def test_backward_refuses_a_root_with_no_graph(root):
    x = leaf([2.0, 3.0])
    if root == "no_grad":
        with ad.no_grad():
            y = ad.tsum(ad.mul(x, x))
    else:
        y = constant(5.0)
    with pytest.raises(AutodiffError, match=(
            "^backward root has no graph: it was built under no_grad or "
            "from constants only$")):
        backward(y)
    assert x.grad is None
    assert not y._backward_done  # refused before it was marked


def test_backward_on_a_scalar_leaf_gives_ones():
    x = leaf(4.0)
    backward(x)
    np.testing.assert_array_equal(x.grad, np.ones(()))


# ---------------------------------------------------------------------------
# finiteness: boundaries and anomaly mode
# ---------------------------------------------------------------------------

def test_absorbed_overflow_is_not_an_error():
    x = leaf(np.array([1e308, 0.0]))
    with np.errstate(over="ignore"):
        # -inf, then a softmax that turns it into 0: no op result is checked
        p = ad.softmax(ad.scale(x, -10.0))
        np.testing.assert_array_equal(p.data, [0.0, 1.0])
        with ad.detect_anomaly(), pytest.raises(
                NonFiniteError, match="^first non-finite: scale in top level$"):
            ad.softmax(ad.scale(x, -10.0))


def test_backward_checks_leaf_gradients():
    # finite forward (1e-300 * 1e300 * 1e300), gradient 1e300 * 1e300
    x = leaf(np.array([1e-300]))
    with np.errstate(over="ignore"):
        y = ad.tsum(ad.scale(ad.scale(x, 1e300), 1e300))
        with pytest.raises(NonFiniteError, match="leaf gradient"):
            backward(y)
        with ad.detect_anomaly():
            with ad.scope("inner"):
                inner = ad.scale(x, 1e300)
            with ad.scope("outer"):
                y = ad.tsum(ad.scale(inner, 1e300))
            with pytest.raises(NonFiniteError,
                               match="^first non-finite: scale vjp in inner$"):
                backward(y)


def test_anomaly_and_scope_restored_after_exception():
    x = leaf(np.ones(3))
    with pytest.raises(ShapeError):
        with ad.detect_anomaly(), ad.scope("layers.0.ffn"):
            with ad.scope("head"):
                assert ad._scope.get() == "layers.0.ffn/head"
            assert ad._scope.get() == "layers.0.ffn"
            ad.add(x, leaf(np.ones(4)))
    assert not ad._anomaly.get() and ad._scope.get() == "top level"


def _modes():
    return ad._grad_enabled.get(), ad._anomaly.get(), ad._scope.get()


def test_scope_nests_where_it_is_entered():
    """A scope built in one thread and entered in another, inside
    scope("a"), nests under "a"."""
    inner, seen = ad.scope("inner"), []

    def run():
        with ad.scope("a"), inner:
            seen.append(ad._scope.get())
        seen.append(ad._scope.get())
    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert seen == ["a/inner", "top level"]
    assert ad._scope.get() == "top level"


def test_modes_are_thread_local():
    """Two threads enter their modes in turn, each waiting for the other
    between entries; each sees only its own, and both end at the
    defaults."""
    barrier = threading.Barrier(2, timeout=30)
    x = leaf(np.ones(3))
    seen, errors = {}, []

    def run(name, modes):
        try:
            with contextlib.ExitStack() as stack:
                for mode in modes:
                    barrier.wait()
                    stack.enter_context(mode())
                barrier.wait()
                seen[name] = _modes() + (ad.scale(x, 1.0)._vjp is not None,)
                barrier.wait()
            barrier.wait()
            seen[name + " after"] = _modes()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            barrier.abort()
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=("a", [
            ad.no_grad, lambda: ad.scope("a"), lambda: ad.scope("inner")])),
        threading.Thread(target=run, args=("b", [
            ad.detect_anomaly, lambda: ad.scope("b"),
            lambda: ad.scope("deep")])),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    assert seen == {"a": (False, False, "a/inner", False),
                    "b": (True, True, "b/deep", True),
                    "a after": (True, False, "top level"),
                    "b after": (True, False, "top level")}
    assert _modes() == (True, False, "top level")


def test_anomaly_mode_values_equal_plain(rng):
    x, w = leaf(None, rng, (4, 3)), leaf(None, rng, (3, 5))
    plain = ad.gelu(ad.matmul(x, w))
    backward(ad.tsum(plain))
    grads = x.grad, w.grad
    x.zero_grad()
    w.zero_grad()
    with ad.detect_anomaly():
        checked = ad.gelu(ad.matmul(x, w))
        backward(ad.tsum(checked))
    assert np.array_equal(plain.data, checked.data)
    assert np.array_equal(grads[0], x.grad) and np.array_equal(grads[1], w.grad)


def test_gradient_accumulates_on_reuse():
    x = leaf([1.0, 2.0, 3.0])
    y = ad.tsum(ad.add(x, x))
    backward(y)
    np.testing.assert_allclose(x.grad, 2.0 * np.ones(3))


# ---------------------------------------------------------------------------
# closed-form gradients
# ---------------------------------------------------------------------------

def test_mul_gradients():
    a = leaf([1.0, -2.0, 0.5])
    b = leaf([4.0, 5.0, -6.0])
    backward(ad.tsum(ad.mul(a, b)))
    np.testing.assert_allclose(a.grad, b.data)
    np.testing.assert_allclose(b.grad, a.data)


def test_scale_gradient():
    a = leaf([1.0, 2.0])
    backward(ad.tsum(ad.scale(a, -3.5)))
    np.testing.assert_allclose(a.grad, [-3.5, -3.5])


def test_scale_rejects_tensor_multiplier():
    a = leaf([1.0])
    with pytest.raises(AutodiffError):
        ad.scale(a, leaf([2.0]))


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_elementwise_shape_mismatch(op):
    with pytest.raises(ShapeError):
        getattr(ad, op)(leaf([1.0, 2.0]), leaf([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "scale"])
@pytest.mark.parametrize("operand", [np.array([1.0, 2.0]), "2"],
                         ids=["ndarray", "str"])
def test_elementwise_rejects_non_tensor_operand(op, operand):
    with pytest.raises(AutodiffError, match="unsupported operand type"):
        getattr(ad, op)(leaf([1.0, 2.0]), operand)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
@pytest.mark.parametrize("operand", [1.0, 2], ids=["float", "int"])
def test_elementwise_rejects_scalar_operand(op, operand):
    """A scalar factor goes through ``scale``; add/sub/mul take tensors."""
    with pytest.raises(AutodiffError, match=(
            f"^{op}: unsupported operand type {type(operand).__name__}$")):
        getattr(ad, op)(leaf([1.0, 2.0]), operand)


def test_softmax_rejects_0d():
    with pytest.raises(ShapeError):
        ad.softmax(leaf(1.0))


def test_matmul_2d_gradients(rng):
    a = leaf(None, rng, (3, 4))
    b = leaf(None, rng, (4, 2))
    g = rng.normal(size=(3, 2))
    out = ad.matmul(a, b)
    backward(ad.tsum(ad.mul(out, constant(g))))
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


def test_matmul_batched_matches_loop(rng):
    a = leaf(None, rng, (5, 3, 4))
    b = leaf(None, rng, (5, 4, 2))
    out = ad.matmul(a, b)
    expected = np.stack([a.data[i] @ b.data[i] for i in range(5)])
    np.testing.assert_allclose(out.data, expected)


def test_tensor_repr():
    assert (repr(Tensor(np.zeros((2, 3)), requires_grad=True))
            == "Tensor(shape=(2, 3), requires_grad=True)")


@pytest.mark.parametrize("call, error, message", [
    (lambda: ad.gather_rows(leaf(np.ones((3, 2))), np.zeros((1, 1))),
     ShapeError, "gather_rows expects 1-D ids, got shape (1, 1)"),
    (lambda: ad.add_bias(leaf(np.ones((2, 3))), leaf(np.ones(2))),
     ShapeError, "add_bias: x (2, 3) vs bias (2,)"),
    (lambda: ad.matmul(leaf(np.ones(3)), leaf(np.ones((3, 2)))),
     ShapeError, "matmul needs >=2-D operands, got (3,) x (3, 2)"),
    (lambda: ad.layer_norm(leaf(np.ones((2, 3))), leaf(np.ones(2)),
                           leaf(np.zeros(3))),
     ShapeError, "layer_norm: gain (2,) / bias (3,) vs last axis 3"),
    (lambda: ad.cross_entropy(leaf(np.full((2, 2), 0.5)),
                              constant(np.eye(3)[:2])),
     ShapeError, "cross_entropy: probs (2, 2) vs targets (2, 3)"),
    (lambda: ad.cross_entropy(leaf(np.full(2, 0.5)),
                              constant(np.full(2, 0.5))),
     ShapeError, "cross_entropy expects 2-D inputs, got (2,)"),
    (lambda: ad.mse(leaf(np.ones(2)), leaf(np.ones(3))),
     ShapeError, "mse: shapes (2,) and (3,) differ"),
    (lambda: finite_diff_check(ad.tsum, leaf(np.ones(2)), h=0.0),
     AutodiffError, "finite_diff_check requires h > 0"),
], ids=["gather_rows_2d_ids", "add_bias_width", "matmul_1d", "layer_norm_gain",
        "cross_entropy_targets", "cross_entropy_1d", "mse_shapes",
        "finite_diff_h"])
def test_ops_name_the_bad_argument(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_matmul_shape_errors(rng):
    with pytest.raises(ShapeError):
        ad.matmul(leaf(None, rng, (3, 4)), leaf(None, rng, (5, 2)))
    with pytest.raises(ShapeError):
        ad.matmul(leaf(None, rng, (2, 3, 4)), leaf(None, rng, (3, 4, 2)))


@pytest.mark.parametrize("shapes", [((3, 4), (4, 5)),
                                    ((2, 3, 4), (2, 4, 5))])
def test_matmul_bias_bitwise_equals_add_bias(rng, shapes):
    a1, b1, c1 = (leaf(None, rng, s) for s in (*shapes, (5,)))
    a2, b2, c2 = (leaf(x.data.copy()) for x in (a1, b1, c1))
    g = constant(rng.normal(size=shapes[0][:-1] + (5,)))
    fused = ad.matmul(a1, b1, bias=c1)
    plain = ad.add_bias(ad.matmul(a2, b2), c2)
    assert np.array_equal(fused.data, plain.data)
    backward(ad.tsum(ad.mul(fused, g)))
    backward(ad.tsum(ad.mul(plain, g)))
    for x, y in ((a1, a2), (b1, b2), (c1, c2)):
        assert np.array_equal(x.grad, y.grad)


def test_matmul_bias_shape_errors(rng):
    a, b = leaf(None, rng, (3, 4)), leaf(None, rng, (4, 5))
    for bad in ((4,), (5, 1), (1, 5)):
        with pytest.raises(ShapeError):
            ad.matmul(a, b, bias=leaf(None, rng, bad))


@pytest.mark.parametrize("grad", [True, False])
def test_softmax_never_writes_its_input(grad, rng):
    x = leaf(None, rng, (3, 2, 5, 5))
    x0 = x.data.copy()
    with contextlib.nullcontext() if grad else ad.no_grad():
        p = ad.softmax(x)
    assert np.array_equal(x.data, x0)
    assert not np.shares_memory(p.data, x.data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fused_attention_non_finite_raises(rng, bad):
    n, h, t, hd = 2, 2, 4, 3
    q = leaf(None, rng, (n, h, t, hd))
    kt = leaf(None, rng, (n, h, hd, t))
    q.data[1, 0, 2, 1] = bad  # planted behind the constructor's check
    w = leaf(None, rng, (3, 4))
    w.data[2, 1] = bad
    with np.errstate(invalid="ignore"), ad.detect_anomaly():
        with ad.scope("layers.0.attn"), pytest.raises(
                NonFiniteError,
                match="^first non-finite: matmul in layers.0.attn$"):
            ad.softmax(ad.matmul(q, kt))
        with ad.scope("layers.0.ffn"), pytest.raises(
                NonFiniteError,
                match="^first non-finite: matmul in layers.0.ffn$"):
            ad.matmul(leaf(None, rng, (5, 3)), w, bias=leaf(None, rng, (4,)))


def test_gather_rows_scatter_add(rng):
    table = leaf(None, rng, (4, 3))
    ids = np.array([0, 2, 0])
    backward(ad.tsum(ad.gather_rows(table, ids)))
    expected = np.zeros((4, 3))
    expected[0] = 2.0  # row 0 gathered twice
    expected[2] = 1.0
    np.testing.assert_allclose(table.grad, expected)


@pytest.mark.parametrize("table_shape,ids", [
    ((50, 8), [3, 7, 3, 0, 3, 49, 7]),   # repeated token ids
    ((14, 8), list(range(14)) * 3),      # position rows, tiled
    ((6, 2, 3), [5, 0, 5]),              # rows that are not vectors
    ((5,), [1, 1, 4]),                   # a 1-D table
    ((5, 3), []),                        # no ids
])
def test_gather_rows_vjp_bitwise_equals_add_at(rng, table_shape, ids):
    ids = np.array(ids, dtype=np.int64)
    out = ad.gather_rows(leaf(None, rng, table_shape), ids)
    g = rng.normal(size=out.shape)
    g[::2] = -0.0  # signed zeros, some on repeated ids
    oracle = np.zeros(table_shape)
    np.add.at(oracle, ids, g)
    (dt,) = out._vjp(g)
    assert dt.dtype == np.float64 and dt.shape == table_shape
    assert dt.tobytes() == oracle.tobytes()


def test_gather_rows_on_a_3d_table_bitwise_equals_flat_gather(rng):
    """Rows of an [n,T,d] table: the same values and table gradient as
    gathering the rows of its [n,T*d] reshape, which materialize did."""
    data = rng.normal(size=(5, 3, 4))
    ids = np.array([4, 0, 4, 2, 1, 0])
    g = rng.normal(size=(6, 3, 4))
    g[::2] = -0.0
    table, flat_table = leaf(data.copy()), leaf(data.copy())
    out = ad.gather_rows(table, ids)
    ref = ad.reshape(ad.gather_rows(ad.reshape(flat_table, (5, 12)), ids),
                     (6, 3, 4))
    assert out.data.tobytes() == ref.data.tobytes()
    backward(ad.tsum(ad.mul(out, constant(g))))
    backward(ad.tsum(ad.mul(ref, constant(g))))
    assert table.grad.tobytes() == flat_table.grad.tobytes()


def _embedding_by_composition(tok, pos, ids, mask):
    """The ops ``embedding`` replaces: two gathers, an add, a reshape and
    a ``mul`` by the broadcast 0/1 mask."""
    n, T = ids.shape
    d = tok.shape[1]
    summed = ad.reshape(ad.add(ad.gather_rows(tok, ids.reshape(-1)),
                               ad.gather_rows(pos, np.tile(np.arange(T), n))),
                        (n, T, d))
    keep = np.broadcast_to(mask[:, :, None].astype(np.float64), (n, T, d))
    return ad.mul(summed, Tensor(keep, _unchecked=True))


@pytest.mark.parametrize("pos_rows", [6, 9])
def test_embedding_bitwise_equals_composition(rng, pos_rows):
    n, T, V, d = 4, 6, 11, 5
    ids = rng.integers(0, V, size=(n, T))
    lengths = np.array([6, 3, 1, 4])
    mask = np.arange(T)[None, :] < lengths[:, None]
    tok_data = rng.normal(size=(V, d))
    pos_data = rng.normal(size=(pos_rows, d))
    tok, pos = leaf(tok_data.copy()), leaf(pos_data.copy())
    ref_tok, ref_pos = leaf(tok_data.copy()), leaf(pos_data.copy())
    out = ad.embedding(tok, pos, ids, mask)
    ref = _embedding_by_composition(ref_tok, ref_pos, ids, mask)
    assert out.shape == (n, T, d)
    assert out.data.tobytes() == ref.data.tobytes()
    # pads are zeros of the sum's sign: -0.0 where the sum is negative
    pads = out.data[~mask]
    assert (pads == 0.0).all() and np.signbit(pads).any()
    w = rng.normal(size=(n, T, d))
    w[:, ::2] = -0.0
    backward(ad.tsum(ad.mul(out, constant(w))))
    backward(ad.tsum(ad.mul(ref, constant(w))))
    assert tok.grad.tobytes() == ref_tok.grad.tobytes()
    assert pos.grad.tobytes() == ref_pos.grad.tobytes()


def test_embedding_argument_errors(rng):
    tok, pos = leaf(None, rng, (5, 3)), leaf(None, rng, (4, 3))
    ids = np.zeros((2, 4), dtype=np.int64)
    mask = np.ones((2, 4), dtype=bool)
    with pytest.raises(ShapeError):
        ad.embedding(tok, pos, ids, mask[:, :3])
    with pytest.raises(ShapeError):
        ad.embedding(tok, leaf(None, rng, (3, 3)), ids, mask)  # T > rows
    with pytest.raises(ShapeError):
        ad.embedding(tok, leaf(None, rng, (4, 2)), ids, mask)
    with pytest.raises(AutodiffError, match="out of range"):
        ad.embedding(tok, pos, ids + 5, mask)


def _mix_by_composition(a, b, lam):
    """The ops ``mix`` replaces: two ``mul``s by dense lambda copies and
    an ``add``."""
    full = np.broadcast_to(lam.reshape((-1,) + (1,) * (a.data.ndim - 1)),
                           a.shape).copy()
    return ad.add(ad.mul(a, constant(full)), ad.mul(b, constant(1.0 - full)))


@pytest.mark.parametrize("shape", [(5, 3, 4), (5, 2)])
def test_mix_bitwise_equals_composition(rng, shape):
    lam = rng.beta(0.4, 0.4, size=shape[0])
    lam[:2] = (0.0, 1.0)
    a_data, b_data = rng.normal(size=shape), rng.normal(size=shape)
    a, b = leaf(a_data.copy()), leaf(b_data.copy())
    ref_a, ref_b = leaf(a_data.copy()), leaf(b_data.copy())
    out = ad.mix(a, b, lam)
    ref = _mix_by_composition(ref_a, ref_b, lam)
    assert out.data.tobytes() == ref.data.tobytes()
    w = rng.normal(size=shape)
    w[::2] = -0.0
    backward(ad.tsum(ad.mul(out, constant(w))))
    backward(ad.tsum(ad.mul(ref, constant(w))))
    assert a.grad.tobytes() == ref_a.grad.tobytes()
    assert b.grad.tobytes() == ref_b.grad.tobytes()


def test_mix_argument_errors(rng):
    a, b = leaf(None, rng, (3, 2)), leaf(None, rng, (3, 2))
    with pytest.raises(ShapeError):
        ad.mix(a, leaf(None, rng, (3, 3)), np.ones(3))
    with pytest.raises(ShapeError):
        ad.mix(a, b, np.ones(2))
    with pytest.raises(ShapeError):
        ad.mix(a, b, np.ones((3, 1)))


def test_gather_rows_bounds():
    table = leaf(np.ones((3, 2)))
    with pytest.raises(AutodiffError):
        ad.gather_rows(table, np.array([3]))


def test_add_bias_sums_leading_axes(rng):
    x = leaf(None, rng, (2, 3, 4))
    b = leaf(None, rng, (4,))
    backward(ad.tsum(ad.add_bias(x, b)))
    np.testing.assert_allclose(b.grad, np.full(4, 6.0))
    np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))


def test_select_index_routes_gradient(rng):
    x = leaf(None, rng, (2, 5, 3))
    backward(ad.tsum(ad.select_index(x, 0)))
    assert x.grad[:, 0, :].sum() == pytest.approx(6.0)
    assert np.abs(x.grad[:, 1:, :]).sum() == 0.0


def test_softmax_rows_sum_to_one(rng):
    x = leaf(None, rng, (6, 9))
    p = ad.softmax(x)
    np.testing.assert_allclose(p.data.sum(axis=1), np.ones(6), atol=1e-12)


def test_softmax_shift_invariance(rng):
    x = rng.normal(size=(4, 7))
    p1 = ad.softmax(constant(x)).data
    p2 = ad.softmax(constant(x + 100.0)).data
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_layer_norm_statistics(rng):
    x = constant(rng.normal(size=(5, 8)) * 3.0 + 2.0)
    out = ad.layer_norm(x, constant(np.ones(8)), constant(np.zeros(8)))
    np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(5), atol=1e-10)
    np.testing.assert_allclose(out.data.std(axis=1), np.ones(5), atol=1e-3)


def test_cross_entropy_matches_manual(rng):
    logits = rng.normal(size=(4, 3))
    p = ad.softmax(constant(logits)).data
    t = np.eye(3)[[0, 1, 2, 1]]
    loss = ad.cross_entropy(constant(p), constant(t)).item()
    manual = -np.log(p[np.arange(4), [0, 1, 2, 1]]).mean()
    assert loss == pytest.approx(manual, rel=1e-12)


def test_cross_entropy_rejects_off_simplex():
    p = np.full((2, 2), 0.5)
    with pytest.raises(AutodiffError):
        ad.cross_entropy(constant(p), constant(np.full((2, 2), 0.7)))


def test_cross_entropy_clamps_tiny_probabilities():
    p = np.array([[1.0 - 1e-15, 1e-15]])
    t = np.array([[0.0, 1.0]])
    loss = ad.cross_entropy(constant(p), constant(t))
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(-np.log(1e-12))


def test_mse_value_and_gradient(rng):
    a = leaf([1.0, 2.0, 4.0])
    b = constant([0.0, 2.0, 1.0])
    loss = ad.mse(a, b)
    assert loss.item() == pytest.approx((1 + 0 + 9) / 3)
    backward(loss)
    np.testing.assert_allclose(a.grad, 2.0 * (a.data - b.data) / 3)


def test_reshape_transpose_roundtrip(rng):
    x = leaf(None, rng, (2, 3, 4))
    y = ad.transpose(ad.reshape(x, (6, 4)), (1, 0))
    backward(ad.tsum(ad.mul(y, y)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data)


# ---------------------------------------------------------------------------
# finite-difference verification of every primitive
# ---------------------------------------------------------------------------

def _check(f, x, **kw):
    report = finite_diff_check(f, x, **kw)
    assert report.passed, f"max rel err {report.max_rel_err}"
    return report


def test_fd_elementwise(rng):
    other = constant(rng.normal(size=(3, 4)))
    for op in (ad.add, ad.sub, ad.mul):
        _check(lambda t, op=op: ad.tsum(op(t, other)),
               leaf(None, rng, (3, 4)))
    _check(lambda t: ad.tsum(ad.scale(t, 2.5)), leaf(None, rng, (3, 4)))


def test_fd_matmul(rng):
    b = constant(rng.normal(size=(4, 3)))
    _check(lambda t: ad.tsum(ad.matmul(t, b)), leaf(None, rng, (2, 4)))
    a = constant(rng.normal(size=(2, 4)))
    _check(lambda t: ad.tsum(ad.matmul(a, t)), leaf(None, rng, (4, 3)))


def test_fd_matmul_batched(rng):
    b = constant(rng.normal(size=(3, 4, 2)))
    _check(lambda t: ad.tsum(ad.matmul(t, b)), leaf(None, rng, (3, 5, 4)))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_fd_matmul_bias(rng, lead):
    a_shape, b_shape, c_shape = lead + (5, 4), lead + (4, 2), (2,)
    w = constant(rng.normal(size=lead + (5, 2)))
    a, b, c = (constant(rng.normal(size=s)) for s in (a_shape, b_shape, c_shape))
    _check(lambda t: ad.tsum(ad.mul(ad.matmul(t, b, bias=c), w)),
           leaf(None, rng, a_shape))
    _check(lambda t: ad.tsum(ad.mul(ad.matmul(a, t, bias=c), w)),
           leaf(None, rng, b_shape))
    _check(lambda t: ad.tsum(ad.mul(ad.matmul(a, b, bias=t), w)),
           leaf(None, rng, c_shape))


def test_fd_softmax(rng):
    w = constant(rng.normal(size=(4, 6)))
    _check(lambda t: ad.tsum(ad.mul(ad.softmax(t), w)),
           leaf(None, rng, (4, 6)))


def test_fd_layer_norm(rng):
    gain = constant(rng.normal(size=(6,)) + 1.0)
    bias = constant(rng.normal(size=(6,)))
    w = constant(rng.normal(size=(5, 6)))
    _check(lambda t: ad.tsum(ad.mul(ad.layer_norm(t, gain, bias), w)),
           leaf(None, rng, (5, 6)))


def test_fd_layer_norm_gain_bias(rng):
    x = constant(rng.normal(size=(5, 6)))
    bias = constant(np.zeros(6))
    w = constant(rng.normal(size=(5, 6)))
    _check(lambda t: ad.tsum(ad.mul(ad.layer_norm(x, t, bias), w)),
           leaf(None, rng, (6,)))
    gain = constant(np.ones(6))
    _check(lambda t: ad.tsum(ad.mul(ad.layer_norm(x, gain, t), w)),
           leaf(None, rng, (6,)))


def test_fd_gelu(rng):
    _check(lambda t: ad.tsum(ad.gelu(t)), leaf(None, rng, (4, 5)))


def test_fd_gather_add_bias_select(rng):
    ids = np.array([0, 2, 2, 1])
    _check(lambda t: ad.tsum(ad.gather_rows(t, ids)), leaf(None, rng, (3, 4)))
    x = constant(rng.normal(size=(3, 4)))
    _check(lambda t: ad.tsum(ad.add_bias(x, t)), leaf(None, rng, (4,)))
    _check(lambda t: ad.tsum(ad.select_index(t, 1)),
           leaf(None, rng, (2, 3, 4)))


def test_fd_embedding(rng):
    ids = np.array([[0, 3, 3, 1], [2, 0, 4, 4]])
    mask = np.array([[True, True, True, False], [True, True, False, False]])
    tok, pos = constant(rng.normal(size=(5, 3))), constant(rng.normal(size=(6, 3)))
    w = constant(rng.normal(size=(2, 4, 3)))
    _check(lambda t: ad.tsum(ad.mul(ad.embedding(t, pos, ids, mask), w)),
           leaf(None, rng, (5, 3)))
    _check(lambda t: ad.tsum(ad.mul(ad.embedding(tok, t, ids, mask), w)),
           leaf(None, rng, (6, 3)))


def test_fd_mix(rng):
    lam = np.array([0.2, 0.9, 0.5])
    other = constant(rng.normal(size=(3, 2, 4)))
    w = constant(rng.normal(size=(3, 2, 4)))
    _check(lambda t: ad.tsum(ad.mul(ad.mix(t, other, lam), w)),
           leaf(None, rng, (3, 2, 4)))
    _check(lambda t: ad.tsum(ad.mul(ad.mix(other, t, lam), w)),
           leaf(None, rng, (3, 2, 4)))


def test_fd_cross_entropy_through_softmax(rng):
    t = np.eye(3)[[0, 2, 1, 1]]
    _check(lambda z: ad.cross_entropy(ad.softmax(z), constant(t)),
           leaf(None, rng, (4, 3)))


def test_fd_mse(rng):
    b = constant(rng.normal(size=(3, 4)))
    _check(lambda t: ad.mse(t, b), leaf(None, rng, (3, 4)))


def test_fd_reductions(rng):
    _check(ad.tsum, leaf(None, rng, (3, 4)))


def test_fd_sampled_entries(rng):
    report = finite_diff_check(lambda t: ad.tsum(ad.mul(t, t)),
                               leaf(None, rng, (10, 10)),
                               max_entries=7, rng=rng)
    assert report.n_checked == 7
    assert report.passed
