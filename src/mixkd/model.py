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
classification slot, and every sample's position 0 is real.  The grad
pass computes every row, pad rows included.  A graph-free forward packs
the real token rows of each block of more than 256 rows: the
projections, residuals, layer norms and FFN run on those rows only, pad
keys and values are zeros with an additive -inf, and attention keeps
its padded [b,h,T,T] scores; a smaller block, or one whose only real
row is a lone [CLS], runs padded, as the grad pass does.  A pad key's
softmax weight is +0 in every case, so a real row's bits do not change
(see ``forward_from_embeddings``).

The classifier reads only the last layer's [CLS] vector, so the last
layer computes only the [CLS] query rows (keys and values still come from
every row).  Everything after the key/value projections is row-wise, so
this is exact in real arithmetic; in floating point the smaller products
round differently, by about 1e-16 relative.

One encoder layer is written once, over bare numpy arrays:
``_layer_forward`` computes it and ``_layer_backward`` is its VJP, with
the numpy and kernel calls of the autodiff ops (matmul, softmax,
layer_norm, gelu, mul, ...) that the layer stands for, so the
result is bitwise theirs; ``_unfused_forward`` in ``tests/test_model.py``
keeps that op chain.  One loop, ``_encode``, runs every layer over a
block of samples.  In grad mode the stack is one autodiff op
(``_encoder``): one ``Tensor`` and one tape node per encoder.
Under ``detect_anomaly`` the layer checks each op result and each VJP
output in the op chain's order, under the op's name and scope
(``matmul in teacher/layers.1.ffn``, ``gelu vjp in layers.1.ffn``).

A graph-free forward, one under ``no_grad`` with dropout and
``detect_anomaly`` off (``forward_tokens``, the teacher in
``distill.total_loss``), keeps nothing for a backward: it builds one
``Tensor`` for the [CLS] rows and one for the logits.  It runs
``_encode`` over blocks of consecutive samples of at most
``_BLOCK_ROWS`` token rows, padded rows counted, so that attention's
[b,h,T,T] buffers stay in cache, a block of more than
``_BLOCK_ROWS // 2`` rows on its packed real rows.
Grad mode and dropout run one pass, ``_grad_pass``, which
draws every layer's dropout masks up front and keeps each layer's
backward state.

Either mode runs over one sample part, the whole batch, or two, its
halves.  A forward with enough encoder work (``_splits``: the distill
teacher's 4-layer 32x14 query, ``teacher_ft``'s 32x14 training step,
``eval_long``'s 32x64 batches), on a process that may use 2 CPUs and
holds OpenBLAS at one thread, and not under ``detect_anomaly``, takes
the halves and runs them in two threads (``_run``): the caller's and
one long-lived worker's.  A graph-free forward runs the blocks of each
part there and the head once on the whole batch.  The grad pass runs
``_encode`` over its layers before the last on each part, which keeps
its own arrays, and the last layer whole.  In its backward one part
runs each lower layer's VJP with its sums inline; two halves run the
row part of each lower layer's VJP, and the layer's gradient sums run
whole on the halves' arrays joined, dealt out to the two threads.  Two
parts give the bits of one (see ``forward_from_embeddings``).
Grad mode alone decides the pass, not ``requires_grad``.  Tier-1 pins
the paths to each other and to the op chain bitwise:
``test_fused_forward_bitwise_equals_unfused`` (with its ``_no_grad``
twin), ``test_blocked_forward_bitwise_equals_graph_forward``,
``test_split_forward_bitwise_equals_graph_forward`` and
``test_split_grad_pass_bitwise_equals_serial`` in
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
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor
from .ranges import COUNT, RATE, SEQ_LEN, check_fields, setting


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
    max_seq_len: int = setting(SEQ_LEN)
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
# prefix, in ``parameter_shapes`` order: the order of each layer's arrays
# among the encoder op's inputs and of ``_layer_backward``'s gradients
_LAYER_PARAMS = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "attn.bq",
                 "attn.bv", "attn.bo", "ln1.gain", "ln1.bias", "ffn.w1",
                 "ffn.b1", "ffn.w2", "ffn.b2", "ln2.gain", "ln2.bias")


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
                   num_heads: int, i: int, last: bool,
                   masks: Optional[tuple], real: Optional[np.ndarray] = None):
    """Encoder layer ``i`` over bare arrays: the [n*T,d] rows ``x2`` of n
    samples -> (y, saved).  ``w`` maps ``_LAYER_PARAMS`` to the layer's
    arrays; ``key_bias`` [n,T] is 0 for a real key and -1e9 (packed,
    -inf) for a pad key.  y is the output rows [n*T,d], or in the
    ``last`` layer the [CLS] rows [n,d]: there only the [CLS] rows are
    queries, while keys and values come from every row.  In grad mode
    ``saved`` holds what ``_layer_backward`` needs; under ``no_grad`` it
    is None, and an intermediate array goes as soon as the ops after it
    have read it.

    With ``real``, the indices of the R real token rows among the n*T
    (``np.flatnonzero`` of the pad mask, every sample's position 0
    among them), the rows are packed: ``x2`` is [R,d], and so is y below
    the last layer.  The projections, ``wo``, the residuals, both layer
    norms and the FFN run on the R rows, and the last layer's queries
    are its rows at position 0.  q, k and v are scattered into the real
    rows of one zero-filled [n*T,d] buffer before their head copies
    (always copies, one head too), so the scores, key bias and softmax
    keep their padded [n,h,T,T] shape, and the context's real rows are
    gathered back.  The two attention products ignore numpy's
    invalid-value warning there, as a zero pad query times an inf key
    is NaN in a score row that nothing reads.  The graph-free forward
    packs its blocks of more than 256 rows that hold at least 2 real
    rows.  The grad pass does not: its weight gradients sum over the
    token rows, and dropping rows would change the order of those sums.

    The layer makes the numpy and kernel calls of the autodiff ops it
    stands for, in their order: ``matmul`` (with bias), ``reshape`` and
    ``transpose`` (a contiguous copy), ``select_index``, ``scale``, the
    ``add`` of the key bias, ``softmax``, the dropout ``mul``, ``add``,
    ``layer_norm`` and ``gelu``; the scale, bias and residual steps run
    in place on a buffer the layer made, which gives the same bits.
    ``masks``, if given, holds the layer's inverted-dropout masks for
    after the softmax, the output projection and the FFN, cut and scaled
    by ``_grad_pass``; the layer multiplies by each, reshaped to its
    operand's shape.  Under ``detect_anomaly`` it checks each op's
    result in that order, named as the op in its scope (``matmul in
    teacher/layers.1.ffn``)."""
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

    def dropout(part, y, j):
        """(y times mask j, (the mask, y)), or (y, None) without
        dropout."""
        if not masks:
            return y, None
        mask = masks[j].reshape(y.shape)
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
        if real is None or rows == 1:  # rows 1: the last [CLS] queries
            return np.ascontiguousarray(
                y.reshape(n, rows, h, hd).transpose(axes))
        padded[real] = y
        # a copy even where the transpose keeps C order (one head), for
        # the next head's rows overwrite the buffer
        return np.array(padded.reshape(n, rows, h, hd).transpose(axes),
                        order="C")

    def product(a, b):
        """a @ b.  A packed layer's pad query is a zero row, and zero
        times an inf key is a NaN in a score row that nothing reads (a
        real row's NaN reaches the logits check)."""
        if real is None:
            return np.matmul(a, b)
        with np.errstate(invalid="ignore"):
            return np.matmul(a, b)

    def layer_norm(part, y):
        """Saves xhat and 1/std as ``<part>.xhat`` and ``<part>.inv_std``."""
        out, xhat, inv_std = kernels.layernorm_rows(
            y, w[f"{part}.gain"], w[f"{part}.bias"])
        check(part, "layer_norm", out)
        save(**{f"{part}.xhat": xhat, f"{part}.inv_std": inv_std})
        return out

    if not last:
        xq, tq = x2, T
    elif real is None:
        xq, tq = np.ascontiguousarray(x2.reshape(n, T, d)[:, 0]), 1
    else:  # position 0 of every sample is real
        xq, tq = x2[real % T == 0], 1
    if real is not None:
        # pad rows stay zero; each head's real rows overwrite the last's
        padded = np.zeros((n * T, d))
    q = heads("q", xq, tq)
    # k goes straight to [n,h,hd,T], the transposed operand of q @ k^T
    kt, v = heads("k", x2, T, (0, 2, 3, 1)), heads("v", x2, T)
    p = product(q, kt)
    check("attn", "matmul", p)
    p *= scale
    p += key_bias.reshape(n, 1, 1, T)
    rows = p.reshape(-1, T)
    kernels.softmax_rows(rows, out=rows)
    check("attn", "softmax", p)
    attn, attn_drop = dropout("attn", p, 0)
    ctx = product(attn, v)
    check("attn", "matmul", ctx)
    ctx = np.ascontiguousarray(ctx.transpose(0, 2, 1, 3)).reshape(n * tq, d)
    if real is not None and tq > 1:
        ctx = ctx[real]
    save(x2=x2, xq=xq, q=q, kt=kt, v=v, p=p, attn=attn, attn_drop=attn_drop,
         ctx=ctx)
    y, proj_drop = dropout(
        "attn", linear("attn", ctx, "attn.wo", "attn.bo"), 1)
    y += xq
    check("ln1", "add", y)
    x1 = layer_norm("ln1", y)
    y = linear("ffn", x1, "ffn.w1", "ffn.b1")
    save(proj_drop=proj_drop, x1=x1, f1=y)
    y = kernels.gelu_forward(y)
    check("ffn", "gelu", y)
    save(f1g=y)
    y, ff_drop = dropout("ffn", linear("ffn", y, "ffn.w2", "ffn.b2"), 2)
    save(ff_drop=ff_drop)
    y += x1
    check("ln2", "add", y)
    return layer_norm("ln2", y), saved


# the ops of a layer's backward whose VJPs sum over rows, in the order it
# runs them, each with the key of the saved array that meets its dY: a
# matmul's x in x.T @ dY (and a bias, but k's, takes dY's column sum), a
# layer norm's xhat in colsum(dY * xhat) (and its bias colsum(dY))
_SUMS = {"ln2": "ln2.xhat", "ffn.w2": "f1g", "ffn.w1": "x1",
         "ln1": "ln1.xhat", "attn.wo": "ctx", "attn.wq": "xq",
         "attn.wk": "x2", "attn.wv": "x2"}


def _sums(op: str, x: np.ndarray, dy: np.ndarray) -> tuple:
    """The gradient sums of ``op`` (a key of ``_SUMS``) over the rows of
    its dY and of the saved array x."""
    if op.startswith("ln"):
        return kernels.layernorm_sums(dy, x)
    dw = np.matmul(x.swapaxes(-1, -2), dy)
    return (dw,) if op == "attn.wk" else (dw, dy.sum(axis=(0,)))


def _in_order(sums: dict) -> tuple:
    """A layer's gradients in ``_LAYER_PARAMS`` order, from op -> its
    ``_sums``."""
    (dwq, dbq), (dwk,), (dwv, dbv), (dwo, dbo) = (
        sums[f"attn.w{k}"] for k in "qkvo")
    return (dwq, dwk, dwv, dwo, dbq, dbv, dbo, *sums["ln1"],
            *sums["ffn.w1"], *sums["ffn.w2"], *sums["ln2"])


def _layer_backward(saved: dict, g: np.ndarray, rows_only: bool = False):
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
    as the op's VJP in the op's scope (``gelu vjp in layers.1.ffn``).

    Every gradient that flows down (each dx, the layer norm's, GELU's,
    softmax's and attention's VJPs) is computed row by row or sample by
    sample: the row part.  Only the ``_SUMS`` sum over rows.  A pass
    over one sample part runs each op's sums as the op's VJP does.  Each
    half of a pass over two passes ``rows_only``: the layer then runs the
    row part only and returns (dx, dys), each ``_SUMS`` op's dY by
    reference, which no later step of the row part writes."""
    s = saved
    w, check, x2 = s["w"], s["check"], s["x2"]
    n, h, tq, T = s["p"].shape
    d = x2.shape[1]
    out = {}  # op -> its sums, or with rows_only its dY

    def summed(op, dy):
        """The sums that read dy, computed now; with rows_only, dy kept
        for the sums after the join."""
        out[op] = dy if rows_only else _sums(op, s[_SUMS[op]], dy)
        return () if rows_only else out[op]

    def linear(part, dy, name):
        """The matmul VJP's dx; checks it with the sums."""
        dx = np.matmul(dy, w[name].swapaxes(-1, -2))
        check(part, "matmul vjp", dx, *summed(name, dy))
        return dx

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
        dx = kernels.layernorm_rows_backward(
            dy, s[f"{part}.xhat"], s[f"{part}.inv_std"], w[f"{part}.gain"])
        check(part, "layer_norm vjp", dx, *summed(part, dy))
        return dx

    dr2 = layer_norm("ln2", g)
    df1g = linear("ffn", dropout("ffn", dr2, s["ff_drop"]), "ffn.w2")
    df1 = kernels.gelu_backward(s["f1"], df1g)
    check("ffn", "gelu vjp", df1)
    dx1 = linear("ffn", df1, "ffn.w1")
    dx1 += dr2  # residual, then FFN: a sum of two commutes bitwise
    dr1 = layer_norm("ln1", dx1)
    dctx = linear("attn", dropout("attn", dr1, s["proj_drop"]), "attn.wo")
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
    dxq = linear("attn", dq.transpose(0, 2, 1, 3).reshape(n * tq, d),
                 "attn.wq")
    dxq += dr1  # residual, then q
    if s["last"]:  # the [CLS] scatter of select_index
        dx = np.zeros((n, T, d))
        dx[:, 0] = dxq
        check("attn", "select_index vjp", dx)
        dx = dx.reshape(n * T, d)
    else:
        dx = dxq
    dx += linear("attn", dkt.transpose(0, 3, 1, 2).reshape(n * T, d),
                 "attn.wk")
    dx += linear("attn", dv.transpose(0, 2, 1, 3).reshape(n * T, d),
                 "attn.wv")
    return dx, out if rows_only else _in_order(out)


def _encode(ws: list, x2: np.ndarray, key_bias: np.ndarray, num_heads: int,
            masks: Optional[list] = None, saved: Optional[list] = None,
            last: bool = True, real: Optional[np.ndarray] = None
            ) -> np.ndarray:
    """Every layer, with arrays ``ws`` and, with dropout, the masks
    ``masks[i]`` of layer i, over the [b*T,d] rows ``x2`` of b samples
    (or, with ``real``, their packed real rows) -> the output of the
    final one: their [CLS] rows [b,d] if it is the model's ``last``
    layer, else all their rows; appends each layer's backward state to
    ``saved`` if it is a list."""
    for i, w in enumerate(ws):
        x2, state = _layer_forward(w, x2, key_bias, num_heads, i,
                                   last and i == len(ws) - 1,
                                   masks and masks[i], real)
        if saved is not None:
            saved.append(state)
    return x2


def _run(calls: list) -> list:
    """The results of one or two callables, one per sample part.  One
    runs in the calling thread.  Of two, the first runs on the long-lived
    worker thread, in a copy of the caller's context (the same autodiff
    modes and numpy errstate), and the second in the calling thread;
    numpy and BLAS release the GIL, so the two overlap.  Both have
    finished when it returns or raises; an error in the second is the
    one raised, else one in the first."""
    if len(calls) == 1:
        return [calls[0]()]
    first, second = calls
    future = _worker.submit(contextvars.copy_context().run, first)
    try:
        rest = second()
    finally:
        wait([future])
    return [future.result(), rest]


def _join(arrays: list) -> np.ndarray:
    """The arrays' rows in order: one array as it is, more concatenated."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _grad_pass(ws: list, x2: np.ndarray, key_bias: np.ndarray,
               num_heads: int, drop: float,
               rng: Optional[np.random.Generator], parts: list):
    """The encoder in grad mode or with dropout over the (lo, hi) sample
    ``parts`` (the whole batch, or its two halves, run by ``_run``) ->
    (its [CLS] rows, the backward: g -> (dx2, every layer's gradients)).

    Every layer's dropout keep masks are drawn first from ``rng``, in the
    order and at the full shapes the layers take them; the last layer's
    are cut to its [CLS] rows, then each is scaled by 1 / (1 - ``drop``),
    once.  Each part takes its samples of the lower layers' masks, so one
    generator stream gives the same masks over one part or two.  Each
    part runs ``_encode`` over the layers before the last and keeps its
    own arrays; the last layer runs whole on their joined output.

    The backward runs the last layer's VJP whole: its [CLS]-row dx
    products have as few rows as one half's samples, where OpenBLAS's
    rows were seen to differ from the whole product's.  Then each lower
    layer runs, from the top down.  Over one part it runs
    ``_layer_backward`` with its sums inline, the order in which
    ``detect_anomaly`` checks.  Over two, both halves run the row part of
    ``_layer_backward``; after the join the layer's ``_SUMS`` run, each
    sum whole over the concatenation of the halves' saved array and dY,
    dealt out alternately to the two threads; the layer's input x2, which
    the q (a lower layer's xq is its x2), k and v sums read, is joined
    once.  After that join the dYs go, before the next layer's row
    part."""
    n, T = key_bias.shape
    d = x2.shape[1]

    def mask(shape, last):
        keep = rng.random(shape) >= drop
        return (keep[..., :1, :] if last else keep) / (1.0 - drop)
    masks = [tuple(mask(shape, i == len(ws) - 1) for shape in
                   ((n, num_heads, T, T), (n, T, d), (n, T, d)))
             for i in range(len(ws))] if drop else None

    def lower(lo, hi):
        mine = masks and [tuple(m[lo:hi] for m in layer)
                          for layer in masks[:-1]]
        states = []
        y = _encode(ws[:-1], x2[lo * T:hi * T], key_bias[lo:hi], num_heads,
                    mine, states, last=False)
        return y, states

    outs = _run([partial(lower, *part) for part in parts])
    y, top = _layer_forward(ws[-1], _join([y for y, _ in outs]), key_bias,
                            num_heads, len(ws) - 1, True,
                            masks and masks[-1])
    layers = list(zip(*(states for _, states in outs)))
    ops = list(_SUMS)

    def backward(g):
        g, grads = _layer_backward(top, g)
        for layer in reversed(layers):
            if len(layer) == 1:
                g, layer_grads = _layer_backward(layer[0], g)
            else:
                (dxa, dys_a), (dxb, dys_b) = _run([
                    partial(_layer_backward, state, g[lo * T:hi * T], True)
                    for state, (lo, hi) in zip(layer, parts)])
                sa, sb = layer
                # one join of x2 for the three sums that read it: a lower
                # layer's xq is its x2
                joined = np.concatenate((sa["x2"], sb["x2"]))

                def deal(share):
                    return lambda: {op: _sums(
                        op, joined if _SUMS[op] in ("xq", "x2") else
                        np.concatenate((sa[_SUMS[op]], sb[_SUMS[op]])),
                        np.concatenate((dys_a[op], dys_b[op])))
                        for op in share}
                first, second = _run([deal(ops[0::2]), deal(ops[1::2])])
                layer_grads = _in_order({**first, **second})
                g = np.concatenate((dxa, dxb))
                # before the next layer's rows
                del dxa, dxb, dys_a, dys_b, joined
            grads = layer_grads + grads
        return g, grads
    return y, backward


def _encoder(params: ModelParams, emb: Tensor, y: np.ndarray,
             backward: Callable) -> Tensor:
    """The [CLS] rows y of the encoder over ``emb`` as one autodiff op on
    emb and each layer's ``_LAYER_PARAMS``; the VJP is ``backward``: g ->
    (the gradient of emb's rows, every layer's gradients)."""
    tensors = [params[f"layers.{i}.{name}"]
               for i in range(params.config.num_layers)
               for name in _LAYER_PARAMS]

    def vjp(g):
        demb, grads = backward(g)
        return (demb.reshape(emb.shape), *grads)
    return ad._result(y, (emb, *tensors), vjp)


# A forward under no_grad runs the encoder over blocks of at most this many
# token rows, the one cache policy of the forward: the kernels run over
# whatever array they are handed.  At eval_long's T=64 a 512-row block
# keeps both attention's [8,4,64,64] scores (1 MB) and the FFN's [512,128]
# activations (0.5 MB) in a 2 MB L2, so the softmax and GELU's elementwise
# passes reuse them from cache; 256-row blocks were slower in a two-thread
# eval_long forward.
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
    """Whether a forward of n samples of T tokens through ``num_layers``
    layers has the work to pay for a two-thread split: 4 samples, so each
    half holds 2, and two blocks' token rows over the layers before the
    last, which computes only the n [CLS] rows (and, in the grad pass,
    runs whole).  The distill teacher's 4-layer 32x14 query and
    ``teacher_ft``'s 32x14 training step (1344) split, a 1-layer model
    never does."""
    return (n >= _SPLIT_MIN_SAMPLES
            and (num_layers - 1) * n * T >= 2 * _BLOCK_ROWS)


def _new_worker() -> None:
    """Make the one long-lived thread, ``mixkd-forward_0``, that runs the
    first half of every split pass; it starts on first use.  A forked
    child inherits no threads, so it makes its own."""
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1,
                                 thread_name_prefix="mixkd-forward")


_new_worker()
if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_new_worker)


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

    Grad mode and dropout run one pass (``_grad_pass``), which draws
    every layer's dropout masks up front and keeps each layer's backward
    state, and in grad mode the encoder is one autodiff op
    (``_encoder``).  A graph-free forward (``no_grad``, with dropout and
    ``detect_anomaly`` off) keeps nothing for a backward and runs
    ``_encode`` over blocks of consecutive samples (``_blocks``): k =
    ceil(rows / 512) blocks of near-equal sample counts, fewer where a
    block would hold fewer than 2 samples or at most 256 rows.  A block's
    attention scores and softmax then stay in cache.

    A graph-free block of more than 256 rows (``_BLOCK_ROWS // 2``,
    padded rows counted) runs packed (see ``_layer_forward``): its layers
    run on the block's R real token rows and never compute a pad row,
    while ``_blocks`` and ``_splits`` still count padded rows.  A smaller
    block runs padded, as the grad pass does.  The cut of 256 rows lies
    between the two block sizes that were measured: the distill
    teacher's 16x14 split halves (224 rows) ran 3% slower packed, and no
    faster even with the scatters left out, while ``eval_long``, whose
    blocks are 8x64 (512 rows), ran 6-8% faster end to end.  (At 224 rows the numpy calls
    are short, so a split's two halves contend for the GIL, which an
    index scatter holds throughout, and the rows packing drops save only
    GIL-free time; on one thread those blocks packed ran 0.94x.)  No
    workload runs blocks of 225-511 rows.

    Packing keeps the bits.  Each op on a real row is the same op on the
    same operands: a row of ``x @ W`` is the same row at any row count
    from 2 (``test_gemm_rows_are_invariant_at_packed_row_counts``), and
    attention's scores, softmax and context keep their padded [b,h,T,T]
    shapes.  Only the pad keys differ: their keys and values are zeros,
    not values computed from the pad rows, and their bias is -inf, not
    -1e9.  A pad key's softmax weight is +0 either way, so a real row's
    context changes only by +-0 terms (0 times a pad value), which could
    show only in the sign of a context entry whose sum over the real
    keys is exactly zero.  A block of more than 256 rows with one real
    row (one sample of only [CLS]) runs padded, as a smaller block does,
    because a 1-row product is a gemv, which rounds apart.

    So pad rows reach no real row of a packed block: a NaN or inf only at
    pad positions (in the [PAD] row of ``tok_emb``, or in ``pos_emb``
    rows past every sample's length) leaves its [CLS] rows bitwise those
    of a clean run.  A padded block and the grad pass compute the pad
    rows from the pad embeddings, so there such a NaN reaches the
    logits, and their check raises.  In a packed block the -inf pad bias
    keeps a query whose real keys all score -inf at NaN, which the logits
    check reports, where -1e9 would average the zero pad values (a padded
    block averages its computed pad values, as the grad pass does).
    ValueError if a sample's position 0, its [CLS] slot, is padding.

    Either mode runs over a list of sample parts: the whole batch, or
    the halves ``[:n//2]``, on the long-lived worker thread, and
    ``[n//2:]``, in the calling thread (``_run``); numpy and BLAS release
    the GIL, so the halves overlap.  A batch takes the halves if it has
    at least 4 samples, its layers before the last hold at least 1024
    token rows between them (``_splits``: (num_layers - 1) * n * T, as
    the last layer computes only the [CLS] rows), the process may use 2
    CPUs, mixkd holds OpenBLAS at one thread, and ``detect_anomaly`` is
    off, so that the checks keep their one order.  A graph-free forward
    runs the blocks of each part there and then the head once on the
    concatenated [n,d] rows.  The grad pass runs its layers before the
    last on the parts and the last layer whole (its docstring gives the
    backward).  The worker runs in a copy of the caller's context, so it
    sees the same autodiff modes and numpy errstate, and its half has
    finished before the call returns or raises; an error in the caller's
    half is the one raised.  The worker never runs a pass that submits
    to it, so nothing waits on itself.

    Blocks and halves are bitwise: every op below the head works per
    sample or row by row, and with OpenBLAS a row of a GEMM with at least
    2 rows is the same row of the whole product at the widths used here
    (``tests/test_model.py`` checks this at the block and half shapes
    that occur, and for the backward's products with a transposed weight
    at the half shapes).  The head's product with C = 2 columns is not,
    so the head stays whole.  A block holds at least 2 samples, because
    the last layer's 1-row [CLS] product (a gemv) rounds differently,
    and, when there are several, more than 256 rows, inside the range
    where the invariance was first measured (224-2048 rows).  Only
    gradient sums read across rows (``x.T @ dY``, column sums), and a
    pass over two halves runs each whole, on the concatenation of the
    halves' arrays: the same contiguous operands as one part's.  So
    every path is bitwise the one-part pass; the tests named in the
    module docstring check this.

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
    if not mask[:, 0].all():
        raise ValueError(f"pad_mask row {np.flatnonzero(~mask[:, 0])[0]} "
                         "marks position 0, the [CLS] slot, as padding")

    # a graph-free forward runs per block, a grad-mode or dropout one as
    # one pass; either over the whole batch or its two halves, but anomaly
    # mode (one order of checks) runs one part
    graph_free = not (ad._grad_enabled.get() or ad._anomaly.get()
                      or drop > 0.0)
    key_bias = np.where(mask, 0.0, -1e9)
    split = (_splits(n, T, cfg.num_layers) and _blas_one_thread
             and _cpus() >= 2 and not ad._anomaly.get())
    parts = [(0, n // 2), (n // 2, n)] if split else [(0, n)]
    ws = [{name: params[f"layers.{i}.{name}"].data for name in _LAYER_PARAMS}
          for i in range(cfg.num_layers)]

    if graph_free:
        def block(a, b):
            """The [CLS] rows of samples [a, b): from their packed real
            rows where the block holds more than _BLOCK_ROWS // 2 rows
            and at least 2 of them are real, else padded."""
            x = emb.data[a:b].reshape(-1, d)
            if len(x) > _BLOCK_ROWS // 2:
                real = np.flatnonzero(mask[a:b])
                if len(real) > 1:
                    # a packed pad key is a zero: its -inf bias leaves a
                    # query whose real keys all score -inf at NaN, where
                    # -1e9 would average the zeros
                    return _encode(ws, x[real],
                                   np.where(mask[a:b], 0.0, -np.inf),
                                   cfg.num_heads, real=real)
            return _encode(ws, x, key_bias[a:b], cfg.num_heads)

        def blocks(lo, hi):
            """The [CLS] rows of the blocks of samples [lo, hi)."""
            return [block(a, b) for a, b in _blocks(lo, hi, T)]
        ys = [y for part in _run([partial(blocks, *part) for part in parts])
              for y in part]
        cls = Tensor(_join(ys), _unchecked=True)
    else:
        cls = _encoder(params, emb, *_grad_pass(
            ws, emb.data.reshape(n * T, d), key_bias, cfg.num_heads, drop,
            rng, parts))
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
    grad pass over one part instead, which names the first non-finite
    op; tier-1 pins the two paths to each other bitwise.  It returns
    leaf tensors, which ``backward`` refuses.  The differentiable forward is
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
