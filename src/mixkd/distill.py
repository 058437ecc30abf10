"""The mixup-distillation loss stack and training loops.

The total objective is L = L_MLE + alpha_SM * L_SM + alpha_TMKD * L_TMKD:
cross-entropy on the original batch, student cross-entropy on mixed
samples against interpolated labels, and a distance between teacher and
student outputs on the same mixed samples.  The teacher is frozen; its
outputs enter the graph as constants.

Plain fine-tuning and distillation share one training loop, so a
distillation run with all augmentation disabled reproduces the plain
trajectory bit for bit under the same seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import evaluation
from .autodiff import NonFiniteError, Tensor
from .data import Batch, Example, Vocab, collate
from .mixup import MixupConfig, make_pairs, materialize
from .model import (ModelConfig, ModelParams, embed_batch,
                    forward_from_embeddings, init_random,
                    init_student_from_teacher)

VARIANTS = ("ft", "tmkd", "sm_tmkd")


class TrainingDiverged(Exception):
    """NaN/Inf appeared during optimization."""


@dataclass(frozen=True)
class LossWeights:
    alpha_sm: float = 1.0
    alpha_tmkd: float = 1.0
    distance_metric: str = "mse"
    temperature: float = 2.0

    def __post_init__(self):
        if self.alpha_sm < 0 or self.alpha_tmkd < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.distance_metric not in ("mse", "temperature_ce"):
            raise ValueError(f"unknown distance metric {self.distance_metric!r}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    eval_every: int = 0  # 0 = evaluate at epoch ends only
    mixup: MixupConfig = field(default_factory=MixupConfig)
    loss: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TaskData:
    """A classification task: encoded splits plus vocabulary."""
    train: list[Example]
    dev: list[Example]
    vocab: Vocab
    label_names: list[str]
    max_len: int

    @property
    def num_classes(self) -> int:
        return len(self.label_names)


@dataclass
class RunRecord:
    seed: int
    variant: str
    steps: list[dict] = field(default_factory=list)
    evals: list[dict] = field(default_factory=list)
    final_metrics: dict = field(default_factory=dict)
    best_step: int = -1
    wall_clock: float = 0.0

    def log_step(self, step: int, total: float, mle: float, sm: float,
                 tmkd: float, alpha_sm: float, alpha_tmkd: float) -> None:
        recombined = mle + alpha_sm * sm + alpha_tmkd * tmkd
        if abs(total - recombined) > 1e-9:
            raise AssertionError(
                f"loss components do not recombine at step {step}: "
                f"{total} vs {recombined}")
        self.steps.append({"step": step, "loss_total": total, "loss_mle": mle,
                           "loss_sm": sm, "loss_tmkd": tmkd})

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.steps:
                fh.write(json.dumps({"type": "step", **row}) + "\n")
            for row in self.evals:
                fh.write(json.dumps({"type": "eval", **row}) + "\n")
            fh.write(json.dumps({"type": "summary", "seed": self.seed,
                                 "variant": self.variant,
                                 "best_step": self.best_step,
                                 "final_metrics": self.final_metrics,
                                 "wall_clock": self.wall_clock}) + "\n")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def loss_mle(logits: Tensor, labels_onehot: np.ndarray) -> Tensor:
    """Softmax cross-entropy against hard one-hot labels."""
    rows = np.asarray(labels_onehot)
    one = np.isclose(rows.max(axis=1), 1.0, atol=1e-9)
    if not one.all() or np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("loss_mle expects one-hot label rows")
    with ad.scope("loss.mle"):
        return ad.cross_entropy(ad.softmax(logits), ad.constant(rows))


def loss_sm(student_logits_on_mixed: Tensor, mixed_labels: np.ndarray) -> Tensor:
    """Soft-target cross-entropy of the student on mixed samples."""
    with ad.scope("loss.sm"):
        return ad.cross_entropy(ad.softmax(student_logits_on_mixed),
                                ad.constant(np.asarray(mixed_labels)))


def loss_tmkd(teacher_out: Tensor, student_out: Tensor,
              weights: LossWeights) -> Tensor:
    """Teacher-student distance on mixed samples; the teacher side is constant."""
    if teacher_out.shape != student_out.shape:
        raise ad.ShapeError(
            f"loss_tmkd: {teacher_out.shape} vs {student_out.shape}")
    t = teacher_out.detach()
    with ad.scope("loss.tmkd"):
        if weights.distance_metric == "mse":
            return ad.mse(student_out, t)
        tau = weights.temperature
        soft_targets = ad.softmax(ad.scale(t, 1.0 / tau)).data
        ce = ad.cross_entropy(ad.softmax(ad.scale(student_out, 1.0 / tau)),
                              ad.constant(soft_targets))
        return ad.scale(ce, tau * tau)


def total_loss(batch: Batch, pairs, teacher: Optional[ModelParams],
               student: ModelParams, weights: LossWeights,
               variant: str = "sm_tmkd", train_mode: bool = False,
               rng: Optional[np.random.Generator] = None):
    """L_MLE plus the variant's gated mixup terms; returns (loss, components).

    ``pairs`` is this batch's mixup recipe (may be empty).
    The teacher is queried only for variants that distill, under
    ``no_grad``: it is never part of the gradient graph.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    # one student embedding feeds L_MLE and the mixup terms
    student_emb = embed_batch(student, batch.token_ids, batch.pad_mask)
    logits = forward_from_embeddings(student, student_emb, batch.pad_mask,
                                     train_mode=train_mode, rng=rng)
    l_mle = loss_mle(logits, batch.labels_onehot)
    total = l_mle
    components = {"mle": l_mle.item(), "sm": 0.0, "tmkd": 0.0}

    if variant != "ft" and pairs:
        mixed_emb, mixed_mask, mixed_labels = materialize(
            pairs, student_emb, batch.pad_mask, batch.labels_onehot)
        s_mixed = forward_from_embeddings(student, mixed_emb, mixed_mask,
                                          train_mode=train_mode, rng=rng)

        if variant == "sm_tmkd":
            l_sm = loss_sm(s_mixed, mixed_labels)
            total = ad.add(total, ad.scale(l_sm, weights.alpha_sm))
            components["sm"] = l_sm.item()

        if teacher is None:
            raise ValueError(f"variant {variant} requires a teacher")
        with ad.no_grad(), ad.scope("teacher"):
            teacher_emb = embed_batch(teacher, batch.token_ids, batch.pad_mask)
            query_emb, _, _ = materialize(
                pairs, teacher_emb, batch.pad_mask, batch.labels_onehot)
            t_mixed = forward_from_embeddings(teacher, query_emb, mixed_mask)
        l_tmkd = loss_tmkd(t_mixed, s_mixed, weights)
        total = ad.add(total, ad.scale(l_tmkd, weights.alpha_tmkd))
        components["tmkd"] = l_tmkd.item()

    # the loss is a boundary: op results inside it are not checked
    ad._check_finite(total.data, "loss contains NaN or Inf")
    components["total"] = total.item()
    return total, components


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _check_params(params: ModelParams, optimizer: str) -> None:
    """The parameters are a boundary: each must be finite after a step."""
    for name, t in params.arrays.items():
        ad._check_finite(
            t.data, f"parameter {name} contains NaN or Inf after the "
                    f"{optimizer} step")


class SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: ModelParams) -> None:
        for t in params.arrays.values():
            if t.grad is not None:
                t.data -= self.lr * t.grad
        _check_params(params, "SGD")


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: ModelParams) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for name, tensor in params.arrays.items():
            g = tensor.grad
            if g is None:
                continue
            if name not in self.m:  # a parameter's first step
                self.m[name] = np.zeros_like(tensor.data)
                self.v[name] = np.zeros_like(tensor.data)
            m, v = self.m[name], self.v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            tensor.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        _check_params(params, "Adam")


def _make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return SGD(config.learning_rate)
    return Adam(config.learning_rate, config.adam_beta1, config.adam_beta2,
                config.adam_eps)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def _stream_seed(base: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([base, *tags]))


def _first_non_finite(step_loss) -> Optional[NonFiniteError]:
    """Runs a failed step's loss and backward again under
    ``detect_anomaly``; returns the error naming its first non-finite op
    (or another non-finite value), or None when the re-run finds none."""
    try:
        with ad.detect_anomaly():
            loss, _ = step_loss()
            ad.backward(loss)
    except NonFiniteError as exc:
        return exc
    return None


def _train_loop(params: ModelParams, config: TrainConfig, dataset: TaskData,
                teacher: Optional[ModelParams], variant: str,
                max_steps: Optional[int] = None) -> tuple[ModelParams, RunRecord]:
    record = RunRecord(seed=config.seed, variant=variant)
    optimizer = _make_optimizer(config)
    start = time.perf_counter()
    best_acc, best_params = -1.0, None
    step = 0

    def run_eval():
        nonlocal best_acc, best_params
        metrics = evaluation.evaluate(params, dataset.dev, dataset.vocab,
                                      dataset.max_len, dataset.num_classes,
                                      batch_size=config.batch_size)
        record.evals.append({"step": step, "accuracy": metrics.accuracy,
                             "f1": metrics.f1})
        if metrics.accuracy > best_acc:
            best_acc = metrics.accuracy
            best_params = params.copy()
            record.best_step = step

    done = False
    for epoch in range(config.epochs):
        if done:
            break
        shuffle_seed = int(np.random.SeedSequence(
            [config.seed, 1, epoch]).generate_state(1)[0])
        for batch_idx, batch in enumerate(collate(
                dataset.train, dataset.vocab, dataset.max_len,
                config.batch_size, dataset.num_classes,
                shuffle_seed=shuffle_seed)):
            pairs = [] if variant == "ft" else make_pairs(
                len(batch), config.mixup, _stream_seed(
                    config.seed, 2, config.mixup.seed, epoch, batch_idx))

            def step_loss():
                # the dropout stream is seeded per step, so a re-run of
                # the step draws the same masks
                drop_rng = _stream_seed(config.seed, 3, epoch, batch_idx)
                return total_loss(batch, pairs, teacher, params, config.loss,
                                  variant=variant, train_mode=True,
                                  rng=drop_rng)

            at = f"at step {step} (epoch {epoch}, batch {batch_idx})"
            # the boundary checks report a non-finite value, so numpy's
            # overflow warnings would only print noise before the error
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                try:
                    loss, comp = step_loss()
                    ad.backward(loss)
                except NonFiniteError as exc:
                    params.zero_grads()
                    located = _first_non_finite(step_loss)
                    raise TrainingDiverged(f"{located or exc} {at}") from exc
                try:
                    optimizer.step(params)
                except NonFiniteError as exc:
                    raise TrainingDiverged(f"{exc} {at}") from exc
            params.zero_grads()
            step += 1
            record.log_step(step, comp["total"], comp["mle"], comp["sm"],
                            comp["tmkd"], config.loss.alpha_sm,
                            config.loss.alpha_tmkd)
            if config.eval_every > 0 and step % config.eval_every == 0:
                run_eval()
            if max_steps is not None and step >= max_steps:
                done = True
                break
        if not done:
            run_eval()

    if best_params is None:
        run_eval()
    record.final_metrics = {"dev_accuracy": best_acc}
    record.wall_clock = time.perf_counter() - start
    return best_params, record


def train_teacher(config: TrainConfig, model_config: ModelConfig,
                  dataset: TaskData,
                  max_steps: Optional[int] = None) -> tuple[ModelParams, RunRecord]:
    """Plain cross-entropy training from random init; best dev checkpoint kept."""
    params = init_random(model_config, config.seed)
    return _train_loop(params, config, dataset, teacher=None, variant="ft",
                       max_steps=max_steps)


def distill_student(config: TrainConfig, student_config: ModelConfig,
                    dataset: TaskData, teacher: ModelParams,
                    variant: str = "sm_tmkd",
                    max_steps: Optional[int] = None) -> tuple[ModelParams, RunRecord]:
    """Train a student initialized from the teacher's first k layers.

    The teacher participates read-only: a frozen copy is queried and the
    optimizer only ever sees student parameters.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    student = init_student_from_teacher(teacher, student_config)
    frozen = teacher.copy().freeze() if variant != "ft" else None
    return _train_loop(student, config, dataset, teacher=frozen,
                       variant=variant, max_steps=max_steps)


def run_seeds(config: TrainConfig, student_config: ModelConfig,
              dataset: TaskData, teacher: ModelParams, variant: str,
              seeds: Sequence[int]) -> dict:
    """Independent runs per seed; population mean/std of the final metrics."""
    if len(seeds) < 2:
        raise ValueError("run_seeds needs at least 2 seeds")
    records = []
    for seed in seeds:
        cfg = replace(config, seed=int(seed))
        try:
            _, record = distill_student(cfg, student_config, dataset, teacher,
                                        variant=variant)
        except Exception as exc:
            raise RuntimeError(f"seed {seed} failed: {exc}") from exc
        records.append(record)
    accs = np.array([r.final_metrics["dev_accuracy"] for r in records])
    return {
        "variant": variant,
        "seeds": [int(s) for s in seeds],
        "mean": float(accs.mean()),
        "std": float(accs.std()),  # population std
        "per_seed": accs.tolist(),
        "formatted": format_mean_std(float(accs.mean()), float(accs.std())),
        "records": records,
    }


def format_mean_std(mean: float, std: float, scale: float = 100.0) -> str:
    return f"{mean * scale:.2f}±{std * scale:.2f}"
