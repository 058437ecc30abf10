"""Metrics, deterministic evaluation, feature export and throughput:
forward passes only, no training."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .autodiff import no_grad
from .data import (CLS_ID, RESERVED, DataError, Example, Vocab, collate,
                   make_batch)
from .mixup import MixupPairs, materialize
from .model import (ModelParams, embed_batch, forward_from_embeddings,
                    forward_tokens, write_files)
from .ranges import COUNT


@dataclass
class Metrics:
    accuracy: float
    n_eval: int
    f1: Optional[float] = None


def compute_metrics(logits: np.ndarray, labels_onehot: np.ndarray,
                    positive_class: Optional[int] = None) -> Metrics:
    """Argmax accuracy; binary F1 when a positive class is named and C = 2."""
    logits = np.asarray(logits)
    labels = np.asarray(labels_onehot)
    if logits.shape != labels.shape:
        raise ValueError(f"logits {logits.shape} vs labels {labels.shape}")
    pred = logits.argmax(axis=1)
    truth = labels.argmax(axis=1)
    n = len(pred)
    acc = float((pred == truth).mean()) if n else 0.0

    f1 = None
    if positive_class is not None and logits.shape[1] == 2:
        tp = int(((pred == positive_class) & (truth == positive_class)).sum())
        fp = int(((pred == positive_class) & (truth != positive_class)).sum())
        fn = int(((pred != positive_class) & (truth == positive_class)).sum())
        f1 = 2.0 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return Metrics(accuracy=acc, n_eval=n, f1=f1)


def evaluate(params: ModelParams, examples: Sequence[Example], vocab: Vocab,
             max_len: int, num_classes: int, batch_size: int = 32,
             positive_class: Optional[int] = None) -> Metrics:
    """``forward_tokens`` over the whole split, each example exactly once:
    dropout off and no graph (the differentiable forward is
    ``forward_from_embeddings``); ``vocab`` memoizes the encodings, so a
    split evaluated again and again is tokenized once."""
    if not examples:
        raise DataError("no examples to evaluate")
    all_logits, all_labels = [], []
    for batch in collate(examples, vocab, max_len, batch_size, num_classes):
        all_logits.append(forward_tokens(params, batch).data)
        all_labels.append(batch.labels_onehot)
    return compute_metrics(np.concatenate(all_logits),
                           np.concatenate(all_labels), positive_class)


def export_cls_features(params: ModelParams, examples: Sequence[Example],
                        vocab: Vocab, pairs: MixupPairs, out_path) -> int:
    """CSV of final-layer pooled features for originals and mixed neighbours,
    encoded at the model's ``max_seq_len`` and ``num_classes``.

    Columns: id, parent_i, parent_j, lambda (1.0 for originals), a
    semicolon-joined soft label, then one column per feature dimension.
    Returns the number of rows written.
    """
    config = params.config
    batch = make_batch(examples, vocab, config.max_seq_len, config.num_classes)
    with no_grad():
        # one embedding feeds the originals and the mixed neighbours
        emb = embed_batch(params, batch.token_ids, batch.pad_mask)
        _, feats = forward_from_embeddings(params, emb, batch.pad_mask,
                                           return_features=True)
        labels, vecs = batch.labels_onehot, feats.data
        if pairs:
            mixed_emb, mixed_mask, mixed_labels = materialize(
                pairs, emb, batch.pad_mask, batch.labels_onehot)
            _, mixed_feats = forward_from_embeddings(
                params, mixed_emb, mixed_mask, return_features=True)
            labels = np.concatenate([labels, mixed_labels])
            vecs = np.concatenate([vecs, mixed_feats.data])
    own = np.arange(len(examples))
    parent_i = np.concatenate([own, pairs.index_i])
    parent_j = np.concatenate([own, pairs.index_j])
    lams = np.concatenate([np.ones(len(examples)), pairs.lam])

    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["id", "parent_i", "parent_j", "lambda", "soft_label"]
                    + [f"f{j}" for j in range(vecs.shape[1])])
    for rid, (pi, pj, lam, label, vec) in enumerate(
            zip(parent_i, parent_j, lams, labels, vecs)):
        writer.writerow([rid, pi, pj, f"{lam:.12g}",
                         ";".join(f"{v:.12g}" for v in label)]
                        + [f"{v:.12g}" for v in vec])
    write_files({out_path: text.getvalue()})
    return len(lams)


def throughput_bench(params: ModelParams, batch_size: int = 16,
                     warmup: int = 2, measured_batches: int = 10) -> dict:
    """``forward_tokens`` samples/second on seed-0 synthetic batches of
    the model's full ``max_seq_len``, plus parameter count."""
    COUNT.check("measured_batches", measured_batches)
    config = params.config
    rng = np.random.default_rng(0)
    ids = rng.integers(len(RESERVED), config.vocab_size,
                       size=(batch_size, config.max_seq_len))
    ids[:, 0] = CLS_ID
    batch = SimpleNamespace(
        token_ids=ids,
        pad_mask=np.ones((batch_size, config.max_seq_len), dtype=bool))
    for _ in range(warmup):
        forward_tokens(params, batch)
    start = time.perf_counter()
    for _ in range(measured_batches):
        forward_tokens(params, batch)
    elapsed = time.perf_counter() - start
    return {
        "samples_per_second": batch_size * measured_batches / elapsed,
        "param_count": params.param_count(),
        "batch_size": batch_size,
        "measured_batches": measured_batches,
        "elapsed_seconds": elapsed,
    }
