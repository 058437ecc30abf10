"""A small k-layer transformer encoder classifier.

The same architecture serves as teacher and student; the student can be
initialized from the teacher's first k layers.  Two forward entry points
exist: ``forward_tokens``, from token ids, is the inference forward and
builds no graph; ``forward_from_embeddings``, from raw embedding batches,
is the differentiable one, and how interpolated (mixed) inputs are fed
to either model.

Padding convention: a pad position carries a zero embedding (token plus
position, times the 0/1 pad mask, in one ``autodiff.embedding`` op, so
the zero has the sign of the sum), and attention scores for pad keys get
an additive -1e9 before the softmax.  Position 0 is the pooled
classification slot.

The classifier reads only the last layer's [CLS] vector, so the last
layer computes only the [CLS] query rows (keys and values still come from
every row).  Everything after the key/value projections is row-wise, so
this is exact in real arithmetic; in floating point the smaller products
round differently, by about 1e-16 relative.

One encoder layer is written once, over bare numpy arrays:
``_layer_forward`` computes it and ``_layer_backward`` is its VJP, with
the numpy and kernel calls of the autodiff ops (matmul, softmax,
layer_norm, gelu, dropout, ...) that the layer stands for, so the
result is bitwise theirs; ``_unfused_forward`` in ``tests/test_model.py``
keeps that op chain.  A forward in grad mode, or with dropout or under
``detect_anomaly``, runs the layers in one serial pass, each as one
autodiff op (``_layer``): one ``Tensor`` and one tape node per layer.
Under ``detect_anomaly`` the layer checks each op result and each VJP
output in the op chain's order, under the op's name and scope
(``matmul in teacher/layers.1.ffn``, ``gelu vjp in layers.1.ffn``).

A graph-free forward, one under ``no_grad`` with dropout and
``detect_anomaly`` off (``forward_tokens``, the teacher in
``distill.total_loss``), calls ``_layer_forward`` directly and drops
what it saved for the backward: it builds one ``Tensor`` for the [CLS]
rows and one for the logits.  It runs the layers over blocks of
consecutive samples of at most ``_BLOCK_ROWS`` token rows, so that
attention's [b,h,T,T] buffers stay in cache.  One with enough encoder
work (``_splits``: the distill teacher's 4-layer 32x14 query,
``eval_long``'s 32x64 batches), on a process that may use 2 CPUs and
holds OpenBLAS at one thread, runs the blocks of its two sample halves
in two threads: the caller's and one long-lived worker's.  The head runs
once on the whole batch, and the result is bitwise that of the serial
pass (see ``forward_from_embeddings``).  Grad mode alone decides this, not
``requires_grad``.  Tier-1 pins the paths to each other and to the op
chain bitwise: ``test_fused_forward_bitwise_equals_unfused`` (with its
``_no_grad`` twin), ``test_blocked_forward_bitwise_equals_graph_forward``
and ``test_split_forward_bitwise_equals_graph_forward`` in
``tests/test_model.py``, and
``test_evaluate_equals_serial_graph_forward_at_eval_long`` in
``tests/test_evaluation.py``.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor
from .ranges import COUNT, RATE, check_fields, setting


class CheckpointError(Exception):
    """Malformed, truncated, or incompatible checkpoint file."""


class OutputError(OSError):
    """An output file could not be written (say, the disk is full)."""


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = setting(COUNT)
    hidden_dim: int = setting(COUNT)
    num_heads: int = setting(COUNT)
    ffn_dim: int = setting(COUNT)
    vocab_size: int = setting(COUNT)
    max_seq_len: int = setting(COUNT)
    num_classes: int = setting(COUNT)
    dropout_rate: float = setting(RATE, 0.0)

    def __post_init__(self):
        check_fields(self)
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}")


def parameter_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Canonical (ordered) name -> shape map for every learnable array."""
    d, f = config.hidden_dim, config.ffn_dim
    shapes: dict[str, tuple] = {
        "tok_emb": (config.vocab_size, d),
        "pos_emb": (config.max_seq_len, d),
    }
    for i in range(config.num_layers):
        p = f"layers.{i}"
        for proj in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{proj}"] = (d, d)
        for b in ("bq", "bv", "bo"):  # no key bias: the softmax cancels it
            shapes[f"{p}.attn.{b}"] = (d,)
        shapes[f"{p}.ln1.gain"] = (d,)
        shapes[f"{p}.ln1.bias"] = (d,)
        shapes[f"{p}.ffn.w1"] = (d, f)
        shapes[f"{p}.ffn.b1"] = (f,)
        shapes[f"{p}.ffn.w2"] = (f, d)
        shapes[f"{p}.ffn.b2"] = (d,)
        shapes[f"{p}.ln2.gain"] = (d,)
        shapes[f"{p}.ln2.bias"] = (d,)
    shapes["head.weight"] = (d, config.num_classes)
    shapes["head.bias"] = (config.num_classes,)
    return shapes


def parameter_count_formula(config: ModelConfig) -> int:
    """Closed form: V*d + T*d + k*(4d^2+3d + 2*2d + d*f+f + f*d+d) + d*C + C;
    attention's 4 projections have 3 biases, as the key has none."""
    d, f, k = config.hidden_dim, config.ffn_dim, config.num_layers
    per_layer = 4 * d * d + 3 * d + 4 * d + (d * f + f) + (f * d + d)
    return (config.vocab_size * d + config.max_seq_len * d
            + k * per_layer
            + d * config.num_classes + config.num_classes)


class ModelParams:
    """All learnable arrays of one model, keyed by canonical names."""

    def __init__(self, config: ModelConfig, arrays: dict[str, Tensor]):
        expected = parameter_shapes(config)
        if set(arrays) != set(expected):
            missing = set(expected) - set(arrays)
            extra = set(arrays) - set(expected)
            raise ValueError(f"parameter name mismatch: missing={missing}, extra={extra}")
        for name, shape in expected.items():
            if arrays[name].shape != shape:
                raise ValueError(
                    f"parameter {name}: shape {arrays[name].shape}, expected {shape}")
        self.config = config
        self.arrays = {name: arrays[name] for name in expected}

    def __getitem__(self, name: str) -> Tensor:
        return self.arrays[name]

    @property
    def names(self) -> list[str]:
        return list(self.arrays)

    def param_count(self) -> int:
        return sum(t.size for t in self.arrays.values())

    def copy(self) -> "ModelParams":
        """Trainable copies of the arrays, as every constructor here makes
        them; ``freeze`` marks a model fixed."""
        return ModelParams(self.config, {
            name: Tensor(t.data.copy(), requires_grad=True)
            for name, t in self.arrays.items()})

    def freeze(self) -> "ModelParams":
        for t in self.arrays.values():
            t.requires_grad = False
        return self

    def zero_grads(self) -> None:
        for t in self.arrays.values():
            t.zero_grad()

    def checksum(self) -> str:
        h = hashlib.sha256()
        for name in self.names:
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.arrays[name].data).tobytes())
        return h.hexdigest()


def init_random(config: ModelConfig, seed: int) -> ModelParams:
    """Weights ~ N(0, 0.02^2), biases 0, layer-norm gains 1; deterministic per seed."""
    rng = np.random.default_rng(seed)
    arrays: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif len(shape) == 1:
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, 0.02, size=shape)
        arrays[name] = Tensor(data, requires_grad=True)
    return ModelParams(config, arrays)


def check_student_config(teacher: ModelConfig, student: ModelConfig) -> None:
    """ValueError unless ``student`` can copy the ``teacher``'s embeddings,
    first layers and head."""
    if student.num_layers > teacher.num_layers:
        raise ValueError(
            f"student depth {student.num_layers} exceeds teacher {teacher.num_layers}")
    for field in ("hidden_dim", "ffn_dim", "vocab_size", "max_seq_len", "num_classes"):
        if getattr(student, field) != getattr(teacher, field):
            raise ValueError(f"teacher/student {field} differ")


def init_student_from_teacher(teacher: ModelParams,
                              student_config: ModelConfig) -> ModelParams:
    """Copy embeddings, the first k layers, and the classifier head verbatim."""
    check_student_config(teacher.config, student_config)
    arrays = {}
    for name in parameter_shapes(student_config):
        arrays[name] = Tensor(teacher[name].data.copy(), requires_grad=True)
    return ModelParams(student_config, arrays)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def embed_batch(params: ModelParams, token_ids: np.ndarray,
                pad_mask: np.ndarray) -> Tensor:
    """Token + position embeddings, zeros at pad positions; [n,T,d] (one
    ``autodiff.embedding`` op)."""
    cfg = params.config
    ids = np.asarray(token_ids, dtype=np.int64)
    mask = np.asarray(pad_mask, dtype=bool)
    if ids.shape != mask.shape or ids.ndim != 2:
        raise ValueError(f"token_ids {ids.shape} / pad_mask {mask.shape} must be [n,T]")
    if ids.shape[1] != cfg.max_seq_len:
        raise ValueError(f"sequence length {ids.shape[1]} != max_seq_len "
                         f"{cfg.max_seq_len}")
    with ad.scope("embed"):
        return ad.embedding(params["tok_emb"], params["pos_emb"], ids, mask)


# the arrays of one encoder layer, named without their ``layers.<i>.``
# prefix, in ``parameter_shapes`` order: the order of a layer op's
# parameter inputs and of ``_layer_backward``'s gradients
_LAYER_PARAMS = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "attn.bq",
                 "attn.bv", "attn.bo", "ln1.gain", "ln1.bias", "ffn.w1",
                 "ffn.b1", "ffn.w2", "ffn.b2", "ln2.gain", "ln2.bias")


def _layer_tensors(params: ModelParams, i: int) -> list[Tensor]:
    return [params[f"layers.{i}.{name}"] for name in _LAYER_PARAMS]


def _no_check(part, op, *arrays) -> None:
    pass


def _anomaly_check(i: int):
    """Under ``detect_anomaly``, ``check(part, op, *arrays)`` raises
    ``NonFiniteError("first non-finite: <op> in <scope>")`` if an array is
    not finite, where <scope> is ``layers.<i>.<part>`` under the scope
    current now; a no-op otherwise.  The names are those of the autodiff
    ops the layer computes, and of their VJPs (``gelu vjp``)."""
    if not ad._anomaly.get():
        return _no_check
    prefix = ad._scope_path(f"layers.{i}")

    def check(part, op, *arrays):
        for arr in arrays:
            ad._check_finite(arr, f"first non-finite: {op} in {prefix}.{part}")
    return check


def _layer_forward(w: dict, x2: np.ndarray, key_bias: np.ndarray,
                   num_heads: int, i: int, last: bool, drop: float,
                   rng: Optional[np.random.Generator]):
    """Encoder layer ``i`` over bare arrays: the [n*T,d] rows ``x2`` of n
    samples -> (y, saved).  ``w`` maps ``_LAYER_PARAMS`` to the layer's
    arrays; ``key_bias`` [n,T] is 0 for a real key and -1e9 for a pad
    key.  y is the output rows [n*T,d], or in the ``last`` layer the
    [CLS] rows [n,d]: there only the [CLS] rows are queries, while keys
    and values come from every row.  In grad mode ``saved`` holds what
    ``_layer_backward`` needs; under ``no_grad`` it is None, and an
    intermediate array goes as soon as the ops after it have read it.

    The layer makes the numpy and kernel calls of the autodiff ops it
    stands for, in their order: ``matmul`` (with bias), ``reshape`` and
    ``transpose`` (a contiguous copy), ``select_index``, the attention
    ``softmax`` with scale and key bias, ``dropout``, ``add``,
    ``layer_norm`` and ``gelu``; the scale, bias and residual steps run
    in place on a buffer the layer made, which gives the same bits.
    With ``drop`` > 0 it draws inverted-dropout masks from ``rng`` after
    the softmax, the output projection and the FFN, each at the full
    layer's shape and, in the last layer, cut to the [CLS] rows, as
    ``autodiff.dropout`` with ``draw_shape`` does.  Under
    ``detect_anomaly`` it checks each op's result in that order, named as
    the op in its scope (``matmul in teacher/layers.1.ffn``)."""
    n, T = key_bias.shape
    d = x2.shape[1]
    h, hd = num_heads, d // num_heads
    scale = 1.0 / math.sqrt(hd)
    check = _anomaly_check(i)
    saved = (dict(w=w, check=check, last=last, scale=scale)
             if ad._grad_enabled.get() else None)

    def save(**arrays):
        if saved is not None:
            saved.update(arrays)

    def dropout(part, y, draw_shape):
        """(y times the mask, (the mask, y)), or (y, None) without
        dropout."""
        if drop == 0.0:
            return y, None
        keep = rng.random(draw_shape) >= drop
        rows = y.size * keep.shape[-2] // keep.size
        mask = keep[..., :rows, :].reshape(y.shape) / (1.0 - drop)
        out = y * mask
        check(part, "mul", out)
        return out, (mask, y)

    def linear(part, x, name, bias):
        y = np.matmul(x, w[name])
        if bias is not None:
            y += w[bias]
        check(part, "matmul", y)
        return y

    def heads(name, src, rows, axes=(0, 2, 1, 3)):
        # k has no bias: the softmax cancels it
        y = linear("attn", src, f"attn.w{name}",
                   None if name == "k" else f"attn.b{name}")
        return np.ascontiguousarray(y.reshape(n, rows, h, hd).transpose(axes))

    def layer_norm(part, y):
        """Saves xhat and 1/std as ``part``."""
        out, xhat, inv_std = kernels.layernorm_rows(
            y, w[f"{part}.gain"], w[f"{part}.bias"], ad._LAYER_NORM_EPS)
        check(part, "layer_norm", out)
        save(**{part: (xhat, inv_std)})
        return out

    if last:
        xq, tq = np.ascontiguousarray(x2.reshape(n, T, d)[:, 0]), 1
    else:
        xq, tq = x2, T
    q = heads("q", xq, tq)
    # k goes straight to [n,h,hd,T], the transposed operand of q @ k^T
    kt, v = heads("k", x2, T, (0, 2, 3, 1)), heads("v", x2, T)
    p = np.matmul(q, kt)
    check("attn", "matmul", p)
    p *= scale
    p += key_bias.reshape(n, 1, 1, T)
    rows = p.reshape(-1, T)
    kernels.softmax_rows(rows, out=rows)
    check("attn", "softmax", p)
    attn, attn_drop = dropout("attn", p, (n, h, T, T))
    ctx = np.matmul(attn, v)
    check("attn", "matmul", ctx)
    ctx = np.ascontiguousarray(ctx.transpose(0, 2, 1, 3)).reshape(n * tq, d)
    save(x2=x2, xq=xq, q=q, kt=kt, v=v, p=p, attn=attn, attn_drop=attn_drop,
         ctx=ctx)
    y, proj_drop = dropout("attn", linear("attn", ctx, "attn.wo", "attn.bo"),
                           (n, T, d))
    y += xq
    check("ln1", "add", y)
    x1 = layer_norm("ln1", y)
    y = linear("ffn", x1, "ffn.w1", "ffn.b1")
    save(proj_drop=proj_drop, x1=x1, f1=y)
    y = kernels.gelu_forward(y)
    check("ffn", "gelu", y)
    save(f1g=y)
    y, ff_drop = dropout("ffn", linear("ffn", y, "ffn.w2", "ffn.b2"),
                         (n, T, d))
    save(ff_drop=ff_drop)
    y += x1
    check("ln2", "add", y)
    return layer_norm("ln2", y), saved


def _layer_backward(saved: dict, g: np.ndarray):
    """The VJP of ``_layer_forward``: the gradient g of y -> (dx, grads),
    the gradient of x2 and those of the layer's arrays in
    ``_LAYER_PARAMS`` order.

    It makes the numpy and kernel calls of the VJPs of the layer's
    autodiff ops, in the order ``autodiff.backward`` ran them, on the same
    operands and views (``g.transpose(inv)`` before the 4-D ``matmul``, a
    reshape copy after each head's transpose), and it adds each array's
    gradient parts in the order the tape added them: for the ``ln1``
    output, residual then FFN; for the [CLS] rows of the last layer,
    residual then q; for x2, residual (or, in the last layer, the [CLS]
    scatter), then q, k and v.  So the result is bitwise theirs.  Under
    ``detect_anomaly`` it checks each VJP's outputs in that order, named
    as the op's VJP in the op's scope (``gelu vjp in layers.1.ffn``)."""
    s = saved
    w, check, x2 = s["w"], s["check"], s["x2"]
    n, h, tq, T = s["p"].shape
    d = x2.shape[1]

    def linear(part, dy, x, name, bias=True):
        """The matmul VJP: (dx, dw) and, with a bias, its gradient."""
        grads = (np.matmul(dy, w[name].swapaxes(-1, -2)),
                 np.matmul(x.swapaxes(-1, -2), dy))
        if bias:
            grads += (dy.sum(axis=(0,)),)
        check(part, "matmul vjp", *grads)
        return grads

    def dropout(part, dy, dropped):
        if dropped is None:
            return dy
        mask, y = dropped
        dx = dy * mask
        if check is not _no_check:
            # the mul op's VJP also made the mask's gradient, which only
            # anomaly mode reads
            check(part, "mul vjp", dx, dy * y)
        return dx

    def layer_norm(part, dy):
        grads = kernels.layernorm_rows_backward(dy, *s[part],
                                                w[f"{part}.gain"])
        check(part, "layer_norm vjp", *grads)
        return grads

    dr2, dgain2, dbias2 = layer_norm("ln2", g)
    df1g, dw2, db2 = linear("ffn", dropout("ffn", dr2, s["ff_drop"]),
                            s["f1g"], "ffn.w2")
    df1 = kernels.gelu_backward(s["f1"], df1g)
    check("ffn", "gelu vjp", df1)
    dx1, dw1, db1 = linear("ffn", df1, s["x1"], "ffn.w1")
    dx1 += dr2  # residual, then FFN: a sum of two commutes bitwise
    dr1, dgain1, dbias1 = layer_norm("ln1", dx1)
    dctx, dwo, dbo = linear("attn", dropout("attn", dr1, s["proj_drop"]),
                            s["ctx"], "attn.wo")
    dc = dctx.reshape(n, tq, h, d // h).transpose(0, 2, 1, 3)
    dattn = np.matmul(dc, s["v"].swapaxes(-1, -2))
    dv = np.matmul(s["attn"].swapaxes(-1, -2), dc)
    check("attn", "matmul vjp", dattn, dv)
    ds = kernels.softmax_backward(
        s["p"], dropout("attn", dattn, s["attn_drop"]), s["scale"])
    check("attn", "softmax vjp", ds)
    dq = np.matmul(ds, s["kt"].swapaxes(-1, -2))
    dkt = np.matmul(s["q"].swapaxes(-1, -2), ds)
    check("attn", "matmul vjp", dq, dkt)
    dxq, dwq, dbq = linear("attn", dq.transpose(0, 2, 1, 3).reshape(
        n * tq, d), s["xq"], "attn.wq")
    dxq += dr1  # residual, then q
    if s["last"]:  # the [CLS] scatter of select_index
        dx = np.zeros((n, T, d))
        dx[:, 0] = dxq
        check("attn", "select_index vjp", dx)
        dx = dx.reshape(n * T, d)
    else:
        dx = dxq
    dxk, dwk = linear("attn", dkt.transpose(0, 3, 1, 2).reshape(n * T, d),
                      x2, "attn.wk", bias=False)
    dx += dxk
    dxv, dwv, dbv = linear("attn", dv.transpose(0, 2, 1, 3).reshape(n * T, d),
                           x2, "attn.wv")
    dx += dxv
    return dx, (dwq, dwk, dwv, dwo, dbq, dbv, dbo, dgain1, dbias1, dw1, db1,
                dw2, db2, dgain2, dbias2)


def _layer(params: ModelParams, i: int, x2: Tensor, key_bias: np.ndarray,
           drop: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Layer ``i`` over the rows tensor ``x2`` as one autodiff op, with
    inputs x2 and the layer's parameters and the VJP
    ``_layer_backward``."""
    cfg = params.config
    tensors = _layer_tensors(params, i)
    y, saved = _layer_forward(
        {name: t.data for name, t in zip(_LAYER_PARAMS, tensors)}, x2.data,
        key_bias, cfg.num_heads, i, i == cfg.num_layers - 1, drop, rng)

    def vjp(g):
        dx, grads = _layer_backward(saved, g)
        return (dx, *grads)
    return ad._result(y, (x2, *tensors), vjp)


# A forward under no_grad runs the encoder over blocks of at most this many
# token rows.  At eval_long's T=64 a 512-row block keeps attention's
# [8,4,64,64] scores (1 MB) in a 2 MB L2; 256-row blocks were slower in a
# two-thread eval_long forward.
# A batch of at least 4 samples whose layers before the last hold two
# blocks' token rows between them (``_splits``) also runs its two sample
# halves in two threads: numpy and BLAS release the GIL
_BLOCK_ROWS = 512
_SPLIT_MIN_SAMPLES = 4

# set by the package's __init__: True once it has set the loaded OpenBLAS
# to one thread, so a split's two threads do not contend with OpenBLAS's
_blas_one_thread = False


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _splits(n: int, T: int, num_layers: int) -> bool:
    """Whether a graph-free forward of n samples of T tokens through
    ``num_layers`` layers has the work to pay for a two-thread split: 4
    samples, so each half holds 2, and two blocks' token rows over the
    layers before the last, which computes only the n [CLS] rows.  The
    distill teacher's 4-layer 32x14 query (1344) splits, a 1-layer
    forward never does."""
    return (n >= _SPLIT_MIN_SAMPLES
            and (num_layers - 1) * n * T >= 2 * _BLOCK_ROWS)


def _new_worker() -> None:
    """Make the one long-lived thread, ``mixkd-forward_0``, that runs the
    first half of every split forward; it starts on first use.  A
    forked child inherits no threads, so it makes its own."""
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1,
                                 thread_name_prefix="mixkd-forward")


_new_worker()
if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_new_worker)


def _graph_free(drop: float) -> bool:
    """Whether the forward may run its layers over bare arrays, per block
    and in two threads: grad mode is off, so it builds no graph, it draws
    no dropout, whose masks follow one generator stream, and anomaly
    mode, which names the first non-finite op in one order, is off."""
    return not (ad._grad_enabled.get() or ad._anomaly.get() or drop > 0.0)


def _blocks(lo: int, hi: int, T: int) -> list[tuple[int, int]]:
    """Samples [lo, hi) as consecutive (start, stop) blocks of near-equal
    sample counts: k = ceil(rows / _BLOCK_ROWS) of them, but fewer where
    a block would hold 1 sample or at most _BLOCK_ROWS // 2 rows."""
    n = hi - lo
    per = max(2, _BLOCK_ROWS // 2 // T + 1)  # fewest samples per block
    k = max(1, min(-(-n * T // _BLOCK_ROWS), n // per))
    edges = [lo + n * i // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def forward_from_embeddings(params: ModelParams, emb: Tensor,
                            pad_mask: np.ndarray, train_mode: bool = False,
                            rng: Optional[np.random.Generator] = None,
                            return_features: bool = False):
    """Encoder stack over an embedding batch [n,T,d] -> logits [n,C].

    The last layer computes only the [CLS] query rows: its K and V are
    projected from all n*T rows, but Q, the [n,h,1,T] scores, the context,
    ``wo``, both layer norms and the FFN run on n rows, and the head reads
    that [n,d] result.  This is exact in real arithmetic, because every
    op after the K/V projections is row-wise and the head reads only
    [CLS]; in floating point the smaller GEMMs and gradient sums may round
    differently.  In train mode the last layer's dropout masks are drawn at
    the full layer's shapes and cut to the [CLS] rows, so the generator
    stream and the masks of the rows that are kept do not change.

    Grad mode, dropout and ``detect_anomaly`` run the layers in one
    serial pass over the whole batch, each layer one autodiff op
    (``_layer``).  A graph-free forward (``no_grad``, with dropout and
    ``detect_anomaly`` off) runs ``_layer_forward`` over bare arrays and
    keeps nothing for a backward, over blocks of consecutive samples
    (``_blocks``): k = ceil(rows / 512) blocks of near-equal sample
    counts, fewer where a block would hold fewer than 2 samples or at
    most 256 rows.  A block's attention scores and softmax then stay in
    cache.  A batch of at least 4 samples whose layers before the last
    hold at least 1024 token rows between them (``_splits``: (num_layers
    - 1) * n * T, as the last layer computes only the [CLS] rows), on a
    process that may use 2 CPUs and where mixkd holds OpenBLAS at one
    thread, also splits: the long-lived worker thread runs the blocks of
    samples ``[:n//2]`` and the calling thread those of ``[n//2:]``;
    numpy and BLAS release the GIL, so the halves overlap.  The worker
    runs in a copy of the caller's context, so it sees the same autodiff
    modes and numpy errstate, and its half has finished before the call
    returns or raises; an error in the caller's half is the one raised.
    The head then runs once on the concatenated [n,d] rows.

    Blocks are bitwise: every op below the head works per sample or row
    by row, and with OpenBLAS a row of a GEMM with at least 2 rows is the
    same row of the whole product at the widths used here
    (``tests/test_model.py`` checks this at the block shapes that occur).
    The head's product with C = 2 columns is not, so the head stays whole.
    A block holds at least 2 samples, because the last layer's 1-row
    [CLS] product (a gemv) rounds differently, and, when there are
    several, more than 256 rows, inside the range where the invariance
    was first measured (224-2048 rows).  Both paths run the same
    ``_layer_forward``, so the graph-free forward is bitwise the serial
    one; the tests named in the module docstring check this.

    With ``return_features`` also returns the final-layer [CLS] vectors [n,d].
    """
    cfg = params.config
    n, T, d = emb.shape
    if (T, d) != (cfg.max_seq_len, cfg.hidden_dim):
        raise ValueError(f"embedding shape {emb.shape} incompatible with config")
    mask = np.asarray(pad_mask, dtype=bool)
    if mask.shape != (n, T):
        raise ValueError(f"pad_mask shape {mask.shape}, expected {(n, T)}")
    drop = cfg.dropout_rate if train_mode else 0.0
    if drop > 0.0 and rng is None:
        raise ValueError("dropout requires an rng in train mode")
    key_bias = np.where(mask, 0.0, -1e9)

    if _graph_free(drop):
        ws = [{name: t.data for name, t in zip(_LAYER_PARAMS,
                                               _layer_tensors(params, i))}
              for i in range(cfg.num_layers)]

        def layers(lo, hi):
            """The [CLS] rows of the blocks of samples [lo, hi)."""
            parts = []
            for a, b in _blocks(lo, hi, T):
                x2 = emb.data[a:b].reshape((b - a) * T, d)
                for i, w in enumerate(ws):
                    x2, _ = _layer_forward(w, x2, key_bias[a:b],
                                           cfg.num_heads, i,
                                           i == cfg.num_layers - 1, 0.0, None)
                parts.append(x2)
            return parts

        if (_splits(n, T, cfg.num_layers) and _blas_one_thread
                and _cpus() >= 2):
            half = _worker.submit(contextvars.copy_context().run,
                                  layers, 0, n // 2)
            try:
                rest = layers(n // 2, n)
            finally:
                wait([half])
            parts = half.result() + rest
        else:
            parts = layers(0, n)
        cls = Tensor(parts[0] if len(parts) == 1 else np.concatenate(parts),
                     _unchecked=True)
    else:
        x2 = ad.reshape(emb, (n * T, d))
        for i in range(cfg.num_layers):
            x2 = _layer(params, i, x2, key_bias, drop, rng)
        cls = x2
    with ad.scope("head"):
        logits = ad.matmul(cls, params["head.weight"], bias=params["head.bias"])
    # the forward's boundary: op results inside it are not checked
    ad._check_finite(logits.data, "logits contain NaN or Inf")
    if return_features:
        ad._check_finite(cls.data, "features contain NaN or Inf")
        return logits, cls
    return logits


def forward_tokens(params: ModelParams, batch, return_features: bool = False):
    """The inference forward: dropout-off embed -> encoder under
    ``no_grad``; ``batch`` needs .token_ids and .pad_mask arrays.

    It builds no graph, whatever ``requires_grad`` the parameters carry,
    and takes the graph-free path of ``forward_from_embeddings``: bare
    arrays with no ``Tensor`` per layer, blocked, and split across two
    threads for a large batch.  Under ``detect_anomaly`` it runs the
    serial pass instead, which names the first non-finite op; tier-1
    pins the two paths to each other bitwise.  It returns leaf tensors,
    which ``backward`` refuses.  The differentiable forward is
    ``forward_from_embeddings(params, embed_batch(params, ids, mask),
    mask)``."""
    with ad.no_grad():
        emb = embed_batch(params, batch.token_ids, batch.pad_mask)
        return forward_from_embeddings(params, emb, batch.pad_mask,
                                       return_features=return_features)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

MAGIC = b"MKDCKPT2"


def write_files(contents: dict) -> None:
    """Writes each ``path: data`` of ``contents`` (``str`` as UTF-8,
    ``bytes`` as they are) all or none: every ``<path>.<pid>.tmp`` is
    written and fsynced first, and only then renamed over its path, in
    order, so a failed write replaces no file; only a failing rename can
    leave the paths before it new and the rest old.  On any failure every
    temp file is deleted, and an OSError becomes an OutputError naming
    the file.  Every output file of mixkd is written through this."""
    tmps = {path: f"{os.fspath(path)}.{os.getpid()}.tmp" for path in contents}
    try:
        for path, data in contents.items():
            with open(tmps[path], "wb") as fh:
                fh.write(data.encode() if isinstance(data, str) else data)
                fh.flush()
                os.fsync(fh.fileno())
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"{os.fspath(path)}: cannot write: "
                          f"{exc.strerror or exc}") from exc
    finally:
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _digest(manifest: dict, payload: bytes) -> str:
    """sha256 of the manifest without its digest field, then the arrays."""
    h = hashlib.sha256(_json_bytes({k: v for k, v in manifest.items()
                                    if k != "sha256"}))
    h.update(payload)
    return h.hexdigest()


def checkpoint_bytes(params: ModelParams, config: ModelConfig,
                     extra: Optional[dict] = None) -> bytes:
    """Magic, u32-length JSON manifest (config, array names, ``extra``,
    and a ``sha256`` over those and the arrays), the arrays as float32 LE
    back to back."""
    manifest = {"config": asdict(config), "arrays": params.names,
                "extra": extra or {}}
    payload = b"".join(params[name].data.astype("<f4").tobytes()
                       for name in params.names)
    # hashed as load_checkpoint sees the manifest: after a JSON round trip
    manifest["sha256"] = _digest(json.loads(_json_bytes(manifest)), payload)
    mbytes = _json_bytes(manifest)
    return MAGIC + len(mbytes).to_bytes(4, "little") + mbytes + payload


def save_checkpoint(params: ModelParams, config: ModelConfig, path,
                    extra: Optional[dict] = None) -> None:
    """The :func:`checkpoint_bytes` file at ``path``, written atomically."""
    write_files({path: checkpoint_bytes(params, config, extra)})


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig, dict]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror}") from exc
    if raw[:8] == b"MKDCKPT1":
        raise CheckpointError(f"{path} is a format-1 checkpoint (MKDCKPT1), "
                              "holding the key bias bk that this model no "
                              "longer has; train the model again")
    if raw[:8] != MAGIC:
        raise CheckpointError(f"bad magic bytes in {path}")
    mlen = int.from_bytes(raw[8:12], "little")
    if len(raw) < 12 + mlen:
        raise CheckpointError(f"{path}: truncated header or manifest")
    try:
        manifest = json.loads(raw[12:12 + mlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest: {exc}") from exc
    try:
        config = ModelConfig(**manifest["config"])
        names = list(manifest["arrays"])
        extra = dict(manifest["extra"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"malformed manifest in {path}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(manifest.get("sha256"), str):
        raise CheckpointError(f"{path} has no sha256 digest in its manifest; "
                              "checkpoints without one are not loaded")
    shapes = parameter_shapes(config)
    if names != list(shapes):
        i, got, want = next((i, a, b) for i, (a, b) in enumerate(
            zip(names + [None], list(shapes) + [None])) if a != b)
        raise CheckpointError(f"manifest arrays in {path} differ from the "
                              f"config at entry {i}: {got!r}, not {want!r}")
    sizes = [math.prod(shape) for shape in shapes.values()]
    base = 12 + mlen
    if len(raw) - base != 4 * sum(sizes):
        raise CheckpointError(
            f"{path} holds {len(raw) - base} bytes of array data, its config "
            f"needs {4 * sum(sizes)}: the file is truncated or overlong")
    # a NaN pattern warns in the cast; the Tensor check reports it
    with np.errstate(invalid="ignore"):
        flat = np.frombuffer(raw, dtype="<f4", offset=base).astype(np.float64)
    arrays: dict[str, Tensor] = {}
    for (name, shape), data in zip(shapes.items(),
                                   np.split(flat, np.cumsum(sizes)[:-1])):
        try:
            arrays[name] = Tensor(data.reshape(shape), requires_grad=True)
        except ad.NonFiniteError as exc:
            raise CheckpointError(f"array {name} contains NaN or Inf") from exc
    if _digest(manifest, raw[base:]) != manifest["sha256"]:
        raise CheckpointError(f"{path} does not match its sha256 digest: the "
                              "file is corrupt or truncated")
    return ModelParams(config, arrays), config, extra
