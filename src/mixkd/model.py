"""A small k-layer transformer encoder classifier.

The same architecture serves as teacher and student; the student can be
initialized from the teacher's first k layers.  Two forward entry points
exist: from token ids and from raw embedding batches, the latter being
how interpolated (mixed) inputs are fed to either model.

Padding convention: a pad position carries the exact zero embedding
(token and position contribution both zeroed), and attention scores for
pad keys get an additive -1e9 before the softmax.  Position 0 is the
pooled classification slot.

The classifier reads only the last layer's [CLS] vector, so the last
layer computes only the [CLS] query rows (keys and values still come from
every row).  Everything after the key/value projections is row-wise, so
this is exact in real arithmetic; in floating point the smaller products
round differently, by about 1e-16 relative.

A graph-free forward (evaluation, the frozen teacher) runs its encoder
layers over blocks of consecutive samples of at most ``_BLOCK_ROWS``
token rows, so that attention's [b,h,T,T] buffers stay in cache; a large
one runs the blocks of its two sample halves in two threads.  The head
runs once on the whole batch, and the result is bitwise that of the
serial forward (see ``forward_from_embeddings``).
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class CheckpointError(Exception):
    """Malformed, truncated, or incompatible checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    hidden_dim: int
    num_heads: int
    ffn_dim: int
    vocab_size: int
    max_seq_len: int
    num_classes: int
    dropout_rate: float = 0.0

    def __post_init__(self):
        for name in ("num_layers", "hidden_dim", "num_heads", "ffn_dim",
                     "vocab_size", "max_seq_len", "num_classes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ModelConfig.{name} must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


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
        for b in ("bq", "bk", "bv", "bo"):
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
    """Closed form: V*d + T*d + k*(4(d^2+d) + 2*2d + d*f+f + f*d+d + 2d) + d*C + C."""
    d, f, k = config.hidden_dim, config.ffn_dim, config.num_layers
    per_layer = 4 * (d * d + d) + 4 * d + (d * f + f) + (f * d + d)
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
        return ModelParams(self.config, {
            name: Tensor(t.data.copy(), requires_grad=t.requires_grad)
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
    """Token + position embeddings, exact zeros at pad positions; [n,T,d]."""
    cfg = params.config
    ids = np.asarray(token_ids, dtype=np.int64)
    mask = np.asarray(pad_mask, dtype=bool)
    if ids.shape != mask.shape or ids.ndim != 2:
        raise ValueError(f"token_ids {ids.shape} / pad_mask {mask.shape} must be [n,T]")
    n, T = ids.shape
    if T != cfg.max_seq_len:
        raise ValueError(f"sequence length {T} != max_seq_len {cfg.max_seq_len}")
    with ad.scope("embed"):
        tok = ad.gather_rows(params["tok_emb"], ids.reshape(-1))
        pos = ad.gather_rows(params["pos_emb"], np.tile(np.arange(T), n))
        summed = ad.reshape(ad.add(tok, pos), (n, T, cfg.hidden_dim))
        # a read-only 0/1 view of the mask: nothing to copy or check
        keep = np.broadcast_to(mask[:, :, None].astype(np.float64),
                               (n, T, cfg.hidden_dim))
        return ad.mul(summed, Tensor(keep, _unchecked=True))


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
            y = ad.matmul(src, params[f"{p}.attn.w{name}"],
                          bias=params[f"{p}.attn.b{name}"])
            return ad.transpose(ad.reshape(y, (n, rows, h, hd)), axes)

        with ad.scope(f"{p}.attn"):
            # queries from every row, or from the [CLS] rows in the last layer
            if i < cfg.num_layers - 1:
                xq, tq = x2, T
            else:
                xq = ad.select_index(ad.reshape(x2, (n, T, d)), 0, axis=1)
                tq = 1
            # k goes straight to [n,h,hd,T], the transposed operand of q @ k^T
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


# A graph-free forward runs the encoder over blocks of at most this many
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


def _graph_free(params: ModelParams, emb: Tensor, drop: float) -> bool:
    """Whether the forward may run per block: it builds no graph and draws
    no dropout, and anomaly mode, which names the first non-finite op and
    so needs one order, is off."""
    if drop > 0.0 or ad._anomaly.get():
        return False
    return not (ad._grad_enabled.get() and (emb.requires_grad or any(
        t.requires_grad for t in params.arrays.values())))


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

    A forward that builds no graph (grad mode off, or nothing requires
    grad), with dropout and ``detect_anomaly`` off, runs the encoder layers
    over blocks of consecutive samples (``_blocks``): k = ceil(rows / 512)
    blocks of near-equal sample counts, fewer where a block would hold
    fewer than 2 samples or at most 256 rows.  A block's attention scores
    and softmax then stay in cache.  A batch of at least 4 samples and
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
    was first measured (224-2048 rows).

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

    if _graph_free(params, emb, drop):
        def layers(lo, hi):
            """The [CLS] rows of the blocks of samples [lo, hi)."""
            out = []
            for a, b in _blocks(lo, hi, T):
                rows = Tensor(emb.data[a:b].reshape((b - a) * T, d),
                              _unchecked=True)
                out.append(_encoder(params, rows, key_bias[a:b], drop,
                                    rng).data)
            return out

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


def forward_tokens(params: ModelParams, batch, train_mode: bool = False,
                   rng: Optional[np.random.Generator] = None,
                   return_features: bool = False):
    """embed -> encoder; ``batch`` needs .token_ids and .pad_mask arrays."""
    emb = embed_batch(params, batch.token_ids, batch.pad_mask)
    return forward_from_embeddings(params, emb, batch.pad_mask,
                                   train_mode=train_mode, rng=rng,
                                   return_features=return_features)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

MAGIC = b"MKDCKPT1"


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _digest(manifest: dict, payload: bytes) -> str:
    """sha256 of the manifest without its digest field, then the arrays."""
    h = hashlib.sha256(_json_bytes({k: v for k, v in manifest.items()
                                    if k != "sha256"}))
    h.update(payload)
    return h.hexdigest()


def save_checkpoint(params: ModelParams, config: ModelConfig, path,
                    extra: Optional[dict] = None) -> None:
    """Binary file: magic, u32-length JSON manifest, float32 LE arrays;
    written atomically (temp file, then ``os.replace``).  The manifest's
    ``sha256`` covers its other fields and the array bytes."""
    names = params.names
    manifest = {"config": asdict(config), "arrays": [], "extra": extra or {}}
    offset = 0
    blobs = []
    for name in names:
        data = params[name].data.astype("<f4")
        blob = np.ascontiguousarray(data).tobytes()
        manifest["arrays"].append({"name": name,
                                   "shape": list(params[name].shape),
                                   "offset": offset,
                                   "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    payload = b"".join(blobs)
    # hashed as load_checkpoint sees the manifest: after a JSON round trip
    manifest["sha256"] = _digest(json.loads(_json_bytes(manifest)), payload)
    mbytes = _json_bytes(manifest)
    # write a temp file next to the target and rename it into place, so a
    # failed write never leaves a truncated checkpoint behind
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(mbytes)))
            fh.write(mbytes)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig, dict]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror}") from exc
    if raw[:8] != MAGIC:
        raise CheckpointError(f"bad magic bytes in {path}")
    if len(raw) < 12:
        raise CheckpointError("truncated checkpoint header")
    (mlen,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + mlen:
        raise CheckpointError("truncated checkpoint manifest")
    try:
        manifest = json.loads(raw[12:12 + mlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest: {exc}") from exc
    try:
        config = ModelConfig(**manifest["config"])
        entries = [(str(e["name"]), tuple(e["shape"]), int(e["offset"]),
                    int(e["nbytes"])) for e in manifest["arrays"]]
        extra = dict(manifest.get("extra", {}))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"malformed manifest in {path}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(manifest.get("sha256"), str):
        raise CheckpointError(f"{path} has no sha256 digest in its manifest; "
                              "checkpoints without one are not loaded")
    expected = parameter_shapes(config)
    base = 12 + mlen
    arrays: dict[str, Tensor] = {}
    for name, shape, offset, nbytes in entries:
        if name in arrays:
            raise CheckpointError(f"manifest lists array {name} twice")
        if name not in expected or expected[name] != shape:
            raise CheckpointError(f"manifest array {name} {shape} does not match config")
        shape = expected[name]
        if offset < 0 or nbytes != 4 * int(np.prod(shape)):
            raise CheckpointError(
                f"array {name}: bad offset {offset} or byte count {nbytes}")
        start = base + offset
        end = start + nbytes
        if end > len(raw):
            raise CheckpointError(f"truncated array data for {name}")
        flat = np.frombuffer(raw[start:end], dtype="<f4")
        # a NaN pattern warns in the cast; the Tensor check reports it
        with np.errstate(invalid="ignore"):
            data = flat.astype(np.float64).reshape(shape)
        try:
            arrays[name] = Tensor(data, requires_grad=True)
        except ad.NonFiniteError as exc:
            raise CheckpointError(f"array {name} contains NaN or Inf") from exc
    if set(arrays) != set(expected):
        raise CheckpointError("manifest is missing parameter arrays")
    if _digest(manifest, raw[base:]) != manifest["sha256"]:
        raise CheckpointError(f"{path} does not match its sha256 digest: the "
                              "file is corrupt or truncated")
    return ModelParams(config, arrays), config, extra
