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

A graph-free forward, one under ``no_grad`` with dropout and
``detect_anomaly`` off (``forward_tokens``, the teacher in
``distill.total_loss``), runs its encoder layers over bare numpy arrays
(``_encoder_arrays``): it builds no ``Tensor``, VJP closure or scope per
op, only one for the [CLS] rows and one for the logits.  It runs them
over blocks of consecutive samples of at most ``_BLOCK_ROWS`` token
rows, so that attention's [b,h,T,T] buffers stay in cache; a large one
runs the blocks of its two sample halves in two threads.  The head runs
once on the whole batch, and the result is bitwise that of the serial
op-by-op forward (see ``forward_from_embeddings``).  Grad mode alone
decides this, not ``requires_grad``.  Grad mode, dropout and
``detect_anomaly`` keep the op-by-op ``_encoder``, so training and the
anomaly messages do not change.  Tier-1 pins the two paths to each
other bitwise: ``test_fused_forward_bitwise_equals_unfused_no_grad``,
``test_blocked_forward_bitwise_equals_graph_forward`` and
``test_split_forward_bitwise_equals_graph_forward`` in
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
from concurrent.futures import ThreadPoolExecutor
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


def _encoder(params: ModelParams, x2: Tensor, key_bias: np.ndarray,
             drop: float, rng: Optional[np.random.Generator]) -> Tensor:
    """The encoder layers over the [n*T,d] rows of n samples -> the last
    layer's [CLS] rows [n,d]; ``key_bias`` [n,T] is 0 for a real key and
    -1e9 for a pad key."""
    cfg = params.config
    n, T = key_bias.shape
    d = cfg.hidden_dim
    h, hd = cfg.num_heads, d // cfg.num_heads
    inv_sqrt_hd = 1.0 / math.sqrt(hd)

    def dropout(x, full_shape):
        return ad.dropout(x, drop, rng, draw_shape=full_shape)

    for i in range(cfg.num_layers):
        p = f"layers.{i}"

        def heads(name, src, rows, axes=(0, 2, 1, 3)):
            bias = None if name == "k" else params[f"{p}.attn.b{name}"]
            y = ad.matmul(src, params[f"{p}.attn.w{name}"], bias=bias)
            return ad.transpose(ad.reshape(y, (n, rows, h, hd)), axes)

        with ad.scope(f"{p}.attn"):
            # queries from every row, or from the [CLS] rows in the last layer
            if i < cfg.num_layers - 1:
                xq, tq = x2, T
            else:
                xq = ad.select_index(ad.reshape(x2, (n, T, d)), 0)
                tq = 1
            # k (which has no bias) goes straight to [n,h,hd,T], the
            # transposed operand of q @ k^T
            q = heads("q", xq, tq)
            kt, v = heads("k", x2, T, (0, 2, 3, 1)), heads("v", x2, T)
            attn = dropout(ad.softmax(ad.matmul(q, kt), scale=inv_sqrt_hd,
                                      key_bias=key_bias), (n, h, T, T))
            ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)),
                             (n * tq, d))
            proj = dropout(ad.matmul(ctx, params[f"{p}.attn.wo"],
                                     bias=params[f"{p}.attn.bo"]), (n, T, d))
        with ad.scope(f"{p}.ln1"):
            x2 = ad.layer_norm(ad.add(xq, proj),
                               params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])

        with ad.scope(f"{p}.ffn"):
            ff = ad.gelu(ad.matmul(x2, params[f"{p}.ffn.w1"],
                                   bias=params[f"{p}.ffn.b1"]))
            ff = dropout(ad.matmul(ff, params[f"{p}.ffn.w2"],
                                   bias=params[f"{p}.ffn.b2"]), (n, T, d))
        with ad.scope(f"{p}.ln2"):
            x2 = ad.layer_norm(ad.add(x2, ff),
                               params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
    return x2  # [n,d]: the last layer computed only the [CLS] rows


def _encoder_arrays(params: ModelParams, x2: np.ndarray,
                    key_bias: np.ndarray) -> np.ndarray:
    """``_encoder`` without dropout, over bare arrays: the [n*T,d] rows of
    n samples -> the last layer's [CLS] rows [n,d], with no ``Tensor``,
    closure or scope per op.  It makes the numpy and kernel calls of the
    ``_encoder`` ops in their order, with the contiguous copies that
    ``ad.transpose`` and ``ad.select_index`` make, so it is bitwise that
    path; the scale, bias and residual additions run in place on a buffer
    the op made, which gives the same bits."""
    cfg = params.config
    n, T = key_bias.shape
    d = cfg.hidden_dim
    h, hd = cfg.num_heads, d // cfg.num_heads
    inv_sqrt_hd = 1.0 / math.sqrt(hd)
    kb = key_bias.reshape(n, 1, 1, T)
    eps = ad._LAYER_NORM_EPS
    w = {name: t.data for name, t in params.arrays.items()}

    for i in range(cfg.num_layers):
        p = f"layers.{i}"

        def heads(name, src, rows, axes=(0, 2, 1, 3)):
            y = np.matmul(src, w[f"{p}.attn.w{name}"])
            if name != "k":
                y += w[f"{p}.attn.b{name}"]
            return np.ascontiguousarray(y.reshape(n, rows, h, hd)
                                        .transpose(axes))

        if i < cfg.num_layers - 1:
            xq, tq = x2, T
        else:
            xq, tq = np.ascontiguousarray(x2.reshape(n, T, d)[:, 0]), 1
        q = heads("q", xq, tq)
        kt, v = heads("k", x2, T, (0, 2, 3, 1)), heads("v", x2, T)
        z = np.matmul(q, kt)
        z *= inv_sqrt_hd
        z += kb
        rows = z.reshape(-1, T)
        kernels.softmax_rows(rows, out=rows)
        ctx = np.ascontiguousarray(np.matmul(z, v).transpose(0, 2, 1, 3)
                                   ).reshape(n * tq, d)
        y = np.matmul(ctx, w[f"{p}.attn.wo"])
        y += w[f"{p}.attn.bo"]
        y += xq
        x2 = kernels.layernorm_rows(y, w[f"{p}.ln1.gain"], w[f"{p}.ln1.bias"],
                                    eps)[0]
        ff = np.matmul(x2, w[f"{p}.ffn.w1"])
        ff += w[f"{p}.ffn.b1"]
        ff = np.matmul(kernels.gelu_forward(ff), w[f"{p}.ffn.w2"])
        ff += w[f"{p}.ffn.b2"]
        ff += x2
        x2 = kernels.layernorm_rows(ff, w[f"{p}.ln2.gain"], w[f"{p}.ln2.bias"],
                                    eps)[0]
    return x2


# A forward under no_grad runs the encoder over blocks of at most this many
# token rows.  At eval_long's T=64 a 512-row block keeps attention's
# [8,4,64,64] scores (1 MB) in a 2 MB L2; 256-row blocks were slower in a
# two-thread eval_long forward.
# A batch of two blocks' rows (and 4 samples) also runs its two sample
# halves in two threads: numpy and BLAS release the GIL
_BLOCK_ROWS = 512
_SPLIT_MIN_SAMPLES = 4


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _graph_free(drop: float) -> bool:
    """Whether the forward may run over bare arrays, per block
    (``_encoder_arrays``): grad mode is off, so it builds no graph, it
    draws no dropout, and anomaly mode, which names the first non-finite
    op and so needs one order and the op-by-op path, is off."""
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

    A graph-free forward (``no_grad``, with dropout and
    ``detect_anomaly`` off) runs the encoder layers through
    ``_encoder_arrays``, over bare arrays with no ``Tensor``, closure or
    scope per op; grad mode, dropout and ``detect_anomaly`` run the
    op-by-op ``_encoder``.  The graph-free forward runs over blocks of
    consecutive samples (``_blocks``): k = ceil(rows / 512) blocks of
    near-equal sample counts, fewer where a block would hold fewer than
    2 samples or at most 256 rows.  A block's attention scores and
    softmax then stay in cache.  A batch of at least 4 samples and
    1024 token rows, on a process that may use 2 CPUs, also splits: a
    worker thread runs the blocks of samples ``[:n//2]`` and the calling
    thread those of ``[n//2:]``; numpy and BLAS release the GIL, so the
    halves overlap.  The worker runs in a copy of the caller's context,
    so it sees the same autodiff modes and numpy errstate, and it is
    joined before the call returns or raises.  The head then runs once on
    the concatenated [n,d] rows.

    Blocks are bitwise: every op below the head works per sample or row
    by row, and with OpenBLAS a row of a GEMM with at least 2 rows is the
    same row of the whole product at the widths used here
    (``tests/test_model.py`` checks this at the block shapes that occur).
    The head's product with C = 2 columns is not, so the head stays whole.
    A block holds at least 2 samples, because the last layer's 1-row
    [CLS] product (a gemv) rounds differently, and, when there are
    several, more than 256 rows, inside the range where the invariance
    was first measured (224-2048 rows).  ``_encoder_arrays`` makes the
    numpy calls of the ``_encoder`` ops in order, so the graph-free
    forward is bitwise the graph forward; the tests named in the module
    docstring check this.

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
        def layers(lo, hi):
            """The [CLS] rows of the blocks of samples [lo, hi)."""
            return [_encoder_arrays(params,
                                    emb.data[a:b].reshape((b - a) * T, d),
                                    key_bias[a:b])
                    for a, b in _blocks(lo, hi, T)]

        if (n >= _SPLIT_MIN_SAMPLES and n * T >= 2 * _BLOCK_ROWS
                and _cpus() >= 2):
            with ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="mixkd-forward") as pool:
                worker = pool.submit(contextvars.copy_context().run,
                                     layers, 0, n // 2)
                rest = layers(n // 2, n)
                parts = worker.result() + rest
        else:
            parts = layers(0, n)
        cls = Tensor(parts[0] if len(parts) == 1 else np.concatenate(parts),
                     _unchecked=True)
    else:
        cls = _encoder(params, ad.reshape(emb, (n * T, d)), key_bias, drop,
                       rng)
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
    arrays with no ``Tensor`` per op, blocked, and split across two
    threads for a large batch.  Under ``detect_anomaly`` it runs the
    serial op-by-op encoder instead, which names the first non-finite
    op; tier-1 pins the two paths to each other bitwise.  It returns
    leaf tensors, which ``backward`` refuses.  The differentiable forward
    is ``forward_from_embeddings(params, embed_batch(params, ids, mask),
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
