"""Mixup pair generation and interpolation of embedding batches.

A :class:`MixupSpec` is a recipe (index_i, index_j, lambda); each model
materializes it in its own embedding space, so teacher and student both
interpolate their own embeddings of the same token sequences.  Pad
positions hold exact zero embeddings, which makes interpolation against
a shorter sequence's tail automatic; the attention mask of a mixed
sample is the union of the two source masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class MixupError(Exception):
    pass


@dataclass(frozen=True)
class MixupSpec:
    index_i: int
    index_j: int
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise MixupError(f"lambda {self.lam} outside [0, 1]")
        if self.index_i < 0 or self.index_j < 0:
            raise MixupError("negative pair index")


@dataclass(frozen=True)
class MixupConfig:
    beta_alpha: float = 0.4
    mixup_ratio: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.beta_alpha <= 0:
            raise MixupError("beta_alpha must be positive")
        if self.mixup_ratio < 0 or int(self.mixup_ratio) != self.mixup_ratio:
            raise MixupError("mixup_ratio must be a nonnegative integer")


def sample_lambda(config: MixupConfig, rng: np.random.Generator) -> float:
    """Beta(alpha, alpha) draw realized as two Gamma draws."""
    x = rng.gamma(config.beta_alpha)
    y = rng.gamma(config.beta_alpha)
    return float(x / (x + y))


def make_pairs(batch_size: int, config: MixupConfig, rng: np.random.Generator,
               extra_pool_size: int = 0) -> list[MixupSpec]:
    """mixup_ratio * batch_size specs; each in-batch index i is covered
    exactly mixup_ratio times.

    Without a pool, i is paired with a seeded permutation sigma(i) of the
    batch.  With ``extra_pool_size`` rows of fresh draws (the independent
    pairing construction), partners are distinct pool rows, so pairs are
    mutually independent across i.
    """
    if batch_size < 1:
        raise MixupError("batch_size must be >= 1")
    specs: list[MixupSpec] = []
    for _ in range(config.mixup_ratio):
        if extra_pool_size:
            partners = rng.choice(extra_pool_size, size=batch_size,
                                  replace=False)
        else:
            partners = rng.permutation(batch_size)
        for i in range(batch_size):
            specs.append(MixupSpec(index_i=i, index_j=int(partners[i]),
                                   lam=sample_lambda(config, rng)))
    return specs


def mix_labels(labels_i: np.ndarray, labels_j: np.ndarray,
               lambdas: np.ndarray) -> np.ndarray:
    lam = lambdas[:, None]
    return lam * labels_i + (1.0 - lam) * labels_j


def mix_batch(emb_i: Tensor, emb_j: Tensor,
              mask_i: np.ndarray, mask_j: np.ndarray,
              labels_i: np.ndarray, labels_j: np.ndarray,
              lambdas: Sequence[float]):
    """Interpolate two aligned embedding batches [n,T,d] with one lambda per pair.

    Returns (mixed_emb, mixed_mask, mixed_labels); the mask is the
    elementwise OR of the sources and labels are mixed with the same
    lambda as the embeddings.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    if emb_i.shape != emb_j.shape:
        raise MixupError(f"embedding shapes differ: {emb_i.shape} vs {emb_j.shape}")
    n = emb_i.shape[0]
    if lam.shape != (n,):
        raise MixupError(f"need {n} lambdas, got shape {lam.shape}")
    if mask_i.shape != mask_j.shape or labels_i.shape != labels_j.shape:
        raise MixupError("mask or label shapes differ")

    lam_full = np.broadcast_to(lam[:, None, None], emb_i.shape).copy()
    mixed_emb = ad.add(ad.mul(emb_i, ad.constant(lam_full)),
                       ad.mul(emb_j, ad.constant(1.0 - lam_full)))
    mixed_mask = mask_i | mask_j
    mixed_labels = mix_labels(labels_i, labels_j, lam)
    return mixed_emb, mixed_mask, mixed_labels


def materialize(specs: Sequence[MixupSpec], emb: Tensor, mask: np.ndarray,
                labels: np.ndarray):
    """Gather the (i, j) batch rows named by the specs and mix them."""
    if not specs:
        raise MixupError("no specs to materialize")
    idx_i = np.array([s.index_i for s in specs])
    idx_j = np.array([s.index_j for s in specs])
    lam = np.array([s.lam for s in specs])

    def rows(t: Tensor, idx: np.ndarray) -> Tensor:
        n, T, d = t.shape
        flat = ad.reshape(t, (n, T * d))
        return ad.reshape(ad.gather_rows(flat, idx), (len(idx), T, d))

    return mix_batch(rows(emb, idx_i), rows(emb, idx_j),
                     mask[idx_i], mask[idx_j],
                     labels[idx_i], labels[idx_j], lam)
