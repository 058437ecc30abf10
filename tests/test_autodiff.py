"""Unit tests for the reverse-mode tensor library."""

import contextlib
import threading

import numpy as np
import pytest

from mixkd import autodiff as ad
from mixkd.autodiff import (AutodiffError, NonFiniteError, ShapeError, Tensor,
                            backward, constant, finite_diff_check)
from mixkd.model import embed_batch, forward_from_embeddings


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
    backward_ok = True
    try:
        backward(y)
    except AutodiffError:
        backward_ok = False
    # a constant scalar root backprops trivially and touches no leaf
    assert backward_ok
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
        backward(ad.add(x, 1.0))


def test_frozen_subgraph_is_pruned():
    a = constant(np.ones((3, 3)))
    b = constant(np.ones((3, 3)))
    out = ad.matmul(a, b)
    assert out._inputs == ()  # no graph kept below constants


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------

def _record_results(monkeypatch):
    """Every tensor an op returns, in creation order."""
    made = []
    real = ad._result

    def spy(data, inputs, vjp):
        out = real(data, inputs, vjp)
        made.append(out)
        return out
    monkeypatch.setattr(ad, "_result", spy)
    return made


def test_no_grad_forward_builds_no_graph(monkeypatch, tiny_params,
                                         tiny_config):
    ids = np.arange(12).reshape(2, 6) % tiny_config.vocab_size
    mask = np.ones((2, 6), dtype=bool)
    made = _record_results(monkeypatch)
    with ad.no_grad():
        logits = forward_from_embeddings(
            tiny_params, embed_batch(tiny_params, ids, mask), mask)
    assert len(made) > 50
    for t in made:
        assert t._inputs == () and t._vjp is None and not t.requires_grad
    made.clear()
    graph = forward_from_embeddings(
        tiny_params, embed_batch(tiny_params, ids, mask), mask)
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
    assert ad.add(x, 1.0)._inputs == (x,)


def test_no_grad_nests():
    x = leaf(np.ones(3))
    with ad.no_grad():
        with ad.no_grad():
            assert ad.add(x, 1.0)._vjp is None
        assert ad.add(x, 1.0)._vjp is None
    assert ad._grad_enabled.get()
    y = ad.tsum(ad.mul(x, x))
    backward(y)
    np.testing.assert_array_equal(x.grad, 2.0 * np.ones(3))


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
                seen[name] = _modes() + (ad.add(x, 1.0)._vjp is not None,)
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


def _key_bias(n, k):
    """0 on real keys, -1e9 on pad keys; row 0 has one pad key."""
    kb = np.zeros((n, k))
    kb[0, -1] = -1e9
    kb[1:, k // 2:] = -1e9
    return kb


def test_masked_softmax_bitwise_equals_op_chain(rng):
    n, h, t = 3, 2, 5
    kb = _key_bias(n, t)
    x1 = leaf(None, rng, (n, h, t, t))
    x2 = leaf(x1.data.copy())
    g = constant(rng.normal(size=(n, h, t, t)))
    fused = ad.softmax(x1, scale=0.35, key_bias=kb)
    dense = constant(np.broadcast_to(kb[:, None, None, :], (n, h, t, t)).copy())
    plain = ad.softmax(ad.add(ad.scale(x2, 0.35), dense))
    assert np.array_equal(fused.data, plain.data)
    assert np.all(fused.data[1:, ..., t // 2:] == 0.0)  # pad keys get nothing
    backward(ad.tsum(ad.mul(fused, g)))
    backward(ad.tsum(ad.mul(plain, g)))
    assert np.array_equal(x1.grad, x2.grad)


@pytest.mark.parametrize("scale,bias", [(None, False), (0.35, False),
                                        (None, True), (0.35, True)])
@pytest.mark.parametrize("grad", [True, False])
def test_softmax_never_writes_its_input(scale, bias, grad, rng):
    """With scale or key_bias the softmax normalizes in the buffer that
    holds the scaled, biased scores, which it made; never in x."""
    n, h, t = 3, 2, 5
    x = leaf(None, rng, (n, h, t, t))
    x0 = x.data.copy()
    with contextlib.nullcontext() if grad else ad.no_grad():
        p = ad.softmax(x, scale=scale, key_bias=_key_bias(n, t) if bias
                       else None)
    assert np.array_equal(x.data, x0)
    assert not np.shares_memory(p.data, x.data)


def test_masked_softmax_argument_errors(rng):
    x = leaf(None, rng, (3, 2, 5, 5))
    for bad in ((3, 4), (2, 5), (3, 1, 5), (15,)):
        with pytest.raises(ShapeError):
            ad.softmax(x, key_bias=np.zeros(bad))
    with pytest.raises(ShapeError):
        ad.softmax(leaf(None, rng, (5,)), key_bias=np.zeros((5, 5)))


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
            ad.softmax(ad.matmul(q, kt), scale=0.5, key_bias=_key_bias(n, t))
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
    backward(ad.tsum(ad.select_index(x, 0, axis=1)))
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


def test_dropout_identity_at_zero(rng):
    x = leaf([1.0, 2.0])
    assert ad.dropout(x, 0.0, rng) is x


def test_dropout_inverted_scaling(rng):
    x = constant(np.ones(200000))
    kept = ad.dropout(x, 0.25, rng).data
    assert kept.mean() == pytest.approx(1.0, abs=0.01)
    assert set(np.round(np.unique(kept), 9)) <= {0.0, np.round(1 / 0.75, 9)}


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


def test_fd_masked_scaled_softmax(rng):
    n, h, t = 3, 2, 5
    kb = _key_bias(n, t)
    w = constant(rng.normal(size=(n, h, t, t)))
    report = _check(
        lambda x: ad.tsum(ad.mul(ad.softmax(x, scale=0.35, key_bias=kb), w)),
        leaf(None, rng, (n, h, t, t)))
    assert report.n_checked == n * h * t * t


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
    _check(lambda t: ad.tsum(ad.select_index(t, 1, axis=1)),
           leaf(None, rng, (2, 3, 4)))


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
