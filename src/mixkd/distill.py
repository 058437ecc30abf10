"""The mixup-distillation loss stack, training loops and multi-run drivers.

The total objective is L = L_MLE + alpha_SM * L_SM + alpha_TMKD * L_TMKD:
cross-entropy on the original batch, student cross-entropy on mixed
samples against interpolated labels, and a distance between teacher and
student outputs on the same mixed samples.  The teacher is a fixed
function: it is queried under ``no_grad``, so its outputs enter the
graph as constants, and the optimizer sees only the student.

Plain fine-tuning and distillation share one training loop, so a
distillation run with all augmentation disabled reproduces the plain
trajectory bit for bit under the same seed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import evaluation
from .autodiff import NonFiniteError, Tensor
from .data import Batch, Example, Vocab, collate
from .mixup import MixupConfig, MixupError, make_pairs, materialize
from .model import (ModelConfig, ModelParams, embed_batch,
                    forward_from_embeddings, init_random,
                    init_student_from_teacher, write_files)
from .ranges import COUNT, INDEX, NONNEGATIVE, POSITIVE, check_fields, setting

VARIANTS = ("ft", "tmkd", "sm_tmkd")


class TrainingDiverged(Exception):
    """NaN/Inf appeared during optimization."""


@dataclass(frozen=True)
class LossWeights:
    alpha_sm: float = setting(NONNEGATIVE, 1.0)
    alpha_tmkd: float = setting(NONNEGATIVE, 1.0)
    distance_metric: str = "mse"
    temperature: float = setting(POSITIVE, 2.0)

    def __post_init__(self):
        check_fields(self)
        if self.distance_metric not in ("mse", "temperature_ce"):
            raise ValueError(f"unknown distance metric {self.distance_metric!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = setting(COUNT, 3)
    batch_size: int = setting(COUNT, 32)
    learning_rate: float = setting(POSITIVE, 1e-3)
    seed: int = setting(INDEX, 0)
    eval_every: int = setting(INDEX, 0)  # 0 = evaluate at epoch ends only
    mixup: MixupConfig = field(default_factory=MixupConfig)
    loss: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        check_fields(self)


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

    def jsonl(self) -> str:
        """The runlog: one JSON line per step, then per eval, then a
        summary line."""
        rows = ([{"type": "step", **row} for row in self.steps]
                + [{"type": "eval", **row} for row in self.evals]
                + [{"type": "summary", "seed": self.seed,
                    "variant": self.variant, "best_step": self.best_step,
                    "final_metrics": self.final_metrics,
                    "wall_clock": self.wall_clock}])
        return "".join(json.dumps(row) + "\n" for row in rows)


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
        soft_targets = ad.softmax(t, scale=1.0 / tau).data
        ce = ad.cross_entropy(ad.softmax(student_out, scale=1.0 / tau),
                              ad.constant(soft_targets))
        return ad.scale(ce, tau * tau)


def total_loss(batch: Batch, pairs, teacher: Optional[ModelParams],
               student: ModelParams, weights: LossWeights,
               variant: str = "sm_tmkd", train_mode: bool = False,
               rng: Optional[np.random.Generator] = None):
    """L_MLE plus the variant's gated mixup terms; returns (loss, components).

    ``pairs`` is this batch's mixup recipe (may be empty).
    The teacher is queried only for variants that distill, under
    ``no_grad``: it is never part of the gradient graph.  A variant that
    distills needs a teacher even when ``pairs`` is empty.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant != "ft" and teacher is None:
        raise ValueError(f"variant {variant} requires a teacher")
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
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8.

    A step allocates nothing: it runs the products and sums of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)`` in that order, in place,
    with its intermediates in two scratch buffers that every parameter
    shares (views the size of the largest parameter; two per parameter
    would double the optimizer's memory)."""
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._buffers = (np.empty(0), np.empty(0))
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

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
                size = tensor.data.size
                if self._buffers[0].size < size:
                    self._buffers = (np.empty(size), np.empty(size))
                self._scratch[name] = tuple(
                    b[:size].reshape(tensor.shape) for b in self._buffers)
            m, v = self.m[name], self.v[name]
            s1, s2 = self._scratch[name]
            np.multiply(g, 1.0 - self.b1, out=s1)
            m *= self.b1
            m += s1
            np.multiply(g, 1.0 - self.b2, out=s1)
            s1 *= g
            v *= self.b2
            v += s1
            np.divide(m, bc1, out=s2)
            s2 *= self.lr
            np.divide(v, bc2, out=s1)
            np.sqrt(s1, out=s1)
            s1 += self.eps
            s2 /= s1
            tensor.data -= s2
        # the parameters are a boundary: each must be finite after a step
        for name, t in params.arrays.items():
            ad._check_finite(
                t.data, f"parameter {name} contains NaN or Inf after the "
                        "Adam step")


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
    optimizer = Adam(config.learning_rate)
    start = time.perf_counter()
    best_acc, best_params = -1.0, None
    step = 0

    def run_eval():
        nonlocal best_acc, best_params
        if record.evals and record.evals[-1]["step"] == step:
            return  # these weights were evaluated already
        metrics = evaluation.evaluate(params, dataset.dev, dataset.vocab,
                                      dataset.max_len, dataset.num_classes,
                                      batch_size=config.batch_size)
        record.evals.append({"step": step, "accuracy": metrics.accuracy,
                             "f1": metrics.f1})
        if metrics.accuracy > best_acc:
            best_acc = metrics.accuracy
            best_params = params.copy()
            record.best_step = step

    for epoch in range(config.epochs):
        if max_steps is not None and step >= max_steps:
            break
        shuffle_seed = int(np.random.SeedSequence(
            [config.seed, 1, epoch]).generate_state(1)[0])
        for batch_idx, batch in enumerate(collate(
                dataset.train, dataset.vocab, dataset.max_len,
                config.batch_size, dataset.num_classes,
                shuffle_seed=shuffle_seed)):
            # the tag 0 keeps each mixup stream's bits, which
            # tests/golden_digests.json records
            pairs = [] if variant == "ft" else make_pairs(
                len(batch), config.mixup, _stream_seed(
                    config.seed, 2, 0, epoch, batch_idx))

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
                break
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

    The teacher participates read-only: ``total_loss`` queries it under
    ``no_grad`` and the optimizer only ever sees student parameters.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    student = init_student_from_teacher(teacher, student_config)
    return _train_loop(student, config, dataset,
                       teacher=None if variant == "ft" else teacher,
                       variant=variant, max_steps=max_steps)


# ---------------------------------------------------------------------------
# multi-run experiments
# ---------------------------------------------------------------------------

def _distill_each(configs: Sequence[TrainConfig], student_config: ModelConfig,
                  dataset: TaskData, teacher: ModelParams, variant: str):
    """Trains one student per config, in order, yielding each RunRecord or
    the run's exception; the caller decides whether to ask for the next."""
    for config in configs:
        try:
            _, record = distill_student(config, student_config, dataset,
                                        teacher, variant=variant)
        except Exception as exc:
            yield exc
        else:
            yield record


def check_seeds(seeds: Sequence[int], name: str = "run_seeds",
                given=None) -> None:
    """ValueError unless ``seeds`` holds two or more ``INDEX`` seeds, none
    repeated; the message names ``name`` and shows ``given`` (``seeds``)."""
    given = list(seeds) if given is None else given
    if len(seeds) < 2:
        raise ValueError(f"{name} needs at least 2 seeds, got {given!r}")
    for i, seed in enumerate(seeds):
        INDEX.check(name, seed)
        if seed in seeds[:i]:
            raise ValueError(f"{name}: seed {seed} is repeated in {given!r}; "
                             "each seed runs once")


def run_seeds(config: TrainConfig, student_config: ModelConfig,
              dataset: TaskData, teacher: ModelParams, variant: str,
              seeds: Sequence[int]) -> dict:
    """Independent runs per seed; population mean/std of the final metrics.
    The first failed seed ends the runs, named in the error."""
    check_seeds(seeds)
    configs = [replace(config, seed=int(seed)) for seed in seeds]
    accs = []
    for seed, outcome in zip(seeds, _distill_each(
            configs, student_config, dataset, teacher, variant)):
        if isinstance(outcome, TrainingDiverged):
            raise TrainingDiverged(f"seed {seed}: {outcome}") from outcome
        if isinstance(outcome, Exception):
            raise RuntimeError(f"seed {seed} failed: {outcome}") from outcome
        accs.append(outcome.final_metrics["dev_accuracy"])
    accs = np.array(accs)
    mean, std = float(accs.mean()), float(accs.std())  # population std
    return {"variant": variant, "seeds": [int(s) for s in seeds],
            "mean": mean, "std": std, "per_seed": accs.tolist(),
            "formatted": format_mean_std(mean, std)}


@dataclass
class SweepGrid:
    alpha_sm_values: list[float]
    alpha_tmkd_values: list[float]
    mixup_ratio_values: list[int]
    base: TrainConfig

    def __post_init__(self):
        """A ValueError naming the list that is empty or holds a value no
        run can take."""
        for key in ("alpha_sm_values", "alpha_tmkd_values",
                    "mixup_ratio_values"):
            if not getattr(self, key):
                raise ValueError(f"{key}: sweep value lists must be nonempty")
            for value in getattr(self, key):
                try:
                    self.cell_config(**{key.removesuffix("_values"): value})
                except (ValueError, MixupError) as exc:
                    raise ValueError(f"{key}: {exc}") from exc

    def cell_config(self, mixup_ratio=None, **weights) -> TrainConfig:
        """The base config with a cell's mixup_ratio and loss weights
        (alpha_sm, alpha_tmkd), each given or left at its base value."""
        base = self.base
        mixup = (base.mixup if mixup_ratio is None
                 else replace(base.mixup, mixup_ratio=mixup_ratio))
        return replace(base, mixup=mixup, loss=replace(base.loss, **weights))


def grid_files(out_dir) -> tuple[str, str]:
    """The grid.json and grid.tsv paths that ``sweep_grid`` writes."""
    return (os.path.join(out_dir, "grid.json"),
            os.path.join(out_dir, "grid.tsv"))


def sweep_grid(grid: SweepGrid, student_config: ModelConfig,
               dataset: TaskData, teacher: ModelParams,
               out_dir=None) -> list[dict]:
    """One ``sm_tmkd`` distillation run per grid cell, all with the base
    seed and data order.  A failed cell records its error and the sweep
    goes on.  Returns the result table; given ``out_dir``, also writes
    grid.json and grid.tsv, both or neither."""
    results = [{"alpha_sm": float(a_sm), "alpha_tmkd": float(a_tmkd),
                "mixup_ratio": int(ratio)}
               for ratio in grid.mixup_ratio_values
               for a_sm in grid.alpha_sm_values
               for a_tmkd in grid.alpha_tmkd_values]
    configs = [grid.cell_config(**cell) for cell in results]
    for cell, outcome in zip(results, _distill_each(
            configs, student_config, dataset, teacher, "sm_tmkd")):
        failed = isinstance(outcome, Exception)
        cell["dev_accuracy"] = (None if failed
                                else outcome.final_metrics["dev_accuracy"])
        cell["error"] = str(outcome) if failed else None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        rows = ["alpha_sm\talpha_tmkd\tmixup_ratio\tdev_accuracy\terror\n"]
        for cell in results:
            acc = ("" if cell["dev_accuracy"] is None
                   else f"{cell['dev_accuracy']:.4f}")
            rows.append(f"{cell['alpha_sm']}\t{cell['alpha_tmkd']}\t"
                        f"{cell['mixup_ratio']}\t{acc}\t"
                        f"{cell['error'] or ''}\n")
        json_path, tsv_path = grid_files(out_dir)
        write_files({json_path: json.dumps(results, indent=2),
                     tsv_path: "".join(rows)})
    return results


def format_mean_std(mean: float, std: float) -> str:
    """``mean±std`` in percent, two decimals."""
    return f"{mean * 100.0:.2f}±{std * 100.0:.2f}"
