"""Mixup pair generation and interpolation of embedding batches.

A :class:`MixupPairs` record holds a batch's recipes (index_i, index_j,
lambda); each model materializes it in its own embedding space, so the
teacher and student interpolate their own embeddings of the same tokens.
A pair's one lambda weighs its whole [T,d] rows: ``autodiff.mix``
broadcasts the [m] lambdas as [m,1,1], with no dense copy.  Pad
positions hold zero embeddings, which makes interpolation against a
shorter sequence's tail automatic; the attention mask of a mixed sample
is the union of the two source masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .ranges import COUNT, INDEX, POSITIVE, check_fields, setting


class MixupError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class MixupPairs:
    """Pair k mixes batch rows index_i[k] and index_j[k] with weight lam[k]
    on row index_i[k].  The arrays are read-only copies, validated once."""
    index_i: np.ndarray
    index_j: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for name, dtype in (("index_i", np.int64), ("index_j", np.int64),
                            ("lam", np.float64)):
            arr = np.asarray(getattr(self, name)).astype(dtype, casting="safe")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        i, j, lam = self.index_i, self.index_j, self.lam
        if not (i.ndim == 1 and i.shape == j.shape == lam.shape):
            raise MixupError(f"index_i, index_j and lam must be 1-D and of one "
                             f"length: {i.shape}, {j.shape}, {lam.shape}")
        check_pairs(i, j, lam)

    def __len__(self) -> int:
        return len(self.lam)


def check_pairs(index_i: np.ndarray, index_j: np.ndarray,
                lam: np.ndarray) -> None:
    """MixupError unless every lambda lies in [0, 1] and no index is
    negative; the arrays may have any shapes."""
    if not ((lam >= 0.0) & (lam <= 1.0)).all():  # NaN fails both
        raise MixupError(f"lambda outside [0, 1] in {lam}")
    if (index_i < 0).any() or (index_j < 0).any():
        raise MixupError("negative pair index")


@dataclass(frozen=True)
class MixupConfig:
    beta_alpha: float = setting(POSITIVE, 0.4)
    mixup_ratio: int = setting(INDEX, 1)

    def __post_init__(self):
        check_fields(self, MixupError)


def beta_from_gammas(gammas: np.ndarray) -> np.ndarray:
    """Beta(alpha, alpha) draws g0 / (g0 + g1) from Gamma(alpha) pairs
    [..., 2]."""
    return gammas[..., 0] / (gammas[..., 0] + gammas[..., 1])


def draw_round(batch_size: int, alpha: float, rng: np.random.Generator,
               extra_pool_size: int, gammas: np.ndarray) -> np.ndarray:
    """One round of ``make_pairs``' draws, in its order: the partners of
    rows 0..batch_size-1, returned, then the Gamma(alpha) pairs of their
    lambdas, written into ``gammas`` [batch_size, 2].  Partners are
    distinct rows of a pool of ``extra_pool_size``, or without a pool a
    permutation of the batch."""
    partners = (rng.choice(extra_pool_size, size=batch_size, replace=False)
                if extra_pool_size else rng.permutation(batch_size))
    rng.standard_gamma(alpha, out=gammas)
    return partners


def sample_lambda(config: MixupConfig, rng: np.random.Generator) -> float:
    """Beta(alpha, alpha) draw realized as two Gamma draws."""
    return float(beta_from_gammas(rng.standard_gamma(config.beta_alpha,
                                                     size=2)))


def make_pairs(batch_size: int, config: MixupConfig, rng: np.random.Generator,
               extra_pool_size: int = 0) -> MixupPairs:
    """mixup_ratio * batch_size pairs; each in-batch index i is covered
    exactly mixup_ratio times, once per round.

    Without a pool, i is paired with a seeded permutation sigma(i) of the
    batch.  With ``extra_pool_size`` rows of fresh draws (the independent
    pairing construction), partners are distinct pool rows, so pairs are
    mutually independent across i.  Ratio 0 draws nothing.
    """
    COUNT.check("batch_size", batch_size, MixupError)
    index_j = np.empty((config.mixup_ratio, batch_size), dtype=np.int64)
    gammas = np.empty((config.mixup_ratio, batch_size, 2))
    for r in range(config.mixup_ratio):
        index_j[r] = draw_round(batch_size, config.beta_alpha, rng,
                                extra_pool_size, gammas[r])
    return MixupPairs(np.tile(np.arange(batch_size), config.mixup_ratio),
                      index_j.ravel(), beta_from_gammas(gammas).ravel())


def mix_labels(labels_i: np.ndarray, labels_j: np.ndarray,
               lambdas: np.ndarray) -> np.ndarray:
    lam = lambdas[:, None]
    return lam * labels_i + (1.0 - lam) * labels_j


def mix_batch(emb_i: Tensor, emb_j: Tensor,
              mask_i: np.ndarray, mask_j: np.ndarray,
              labels_i: np.ndarray, labels_j: np.ndarray,
              lambdas: Sequence[float]):
    """Interpolate two aligned embedding batches [n,T,d] with one lambda
    per pair, as one ``autodiff.mix`` op.

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
    return (ad.mix(emb_i, emb_j, lam), mask_i | mask_j,
            mix_labels(labels_i, labels_j, lam))


def materialize(pairs: MixupPairs, emb: Tensor, mask: np.ndarray,
                labels: np.ndarray):
    """Gather the (i, j) batch rows named by the pairs from the [n,T,d]
    embedding table and mix them.  The rows i are gathered, and enter the
    mix, before the rows j: that order fixes the order in which the
    backward pass adds the embedding's gradients."""
    if not len(pairs):
        raise MixupError("no pairs to materialize")
    i, j = pairs.index_i, pairs.index_j
    return mix_batch(ad.gather_rows(emb, i), ad.gather_rows(emb, j),
                     mask[i], mask[j], labels[i], labels[j], pairs.lam)
