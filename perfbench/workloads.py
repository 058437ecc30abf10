"""The four benchmark workloads.

Every workload is a closed loop with one caller: the next step, batch or
report starts only after the previous one has returned.  All inputs are
generated from the workload seed with ``mixkd.synthetic`` and
``bounds.make_testbed``; the program only ever sees those inputs.  Each
workload is shaped so that one layer dominates (see NOTES.md).

A workload object is built by its constructor (the set-up, warm-up
included) and then driven by ``iterate``, which performs one unit of work
and raises one of ``FAILURES`` when an output check fails.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from mixkd import autodiff, bounds, data, distill, evaluation, mixup, model, synthetic

BATCH = 32
WIDTH = dict(hidden_dim=64, num_heads=4, ffn_dim=128)
TEACHER_LAYERS = 4
STUDENT_LAYERS = 1
TRAIN_EXAMPLES = 32 * BATCH     # 32 full batches per epoch, no ragged tail
WARMUP_STEPS = 3
# the training loss after this many steps (warm-up included) is the
# value compared against perfbench/reference.json
REF_STEP = 10
EVAL_EXAMPLES = 8 * BATCH
EVAL_SEQ = (32, 62)             # words per sentence; T = 62 + [CLS] + [SEP] = 64
BOUND_BITS, BOUND_G, BOUND_A, BOUND_DELTA, BOUND_EPS = 10, 64, 200, 0.1, 0.09
BOUND_TRIALS = 40               # trials per empirical_gap_experiment call


class CheckFailed(Exception):
    """An output of the program did not pass the benchmark's check."""


# the program's own checks (finiteness, RunRecord's recombination assert)
# and the benchmark's; anything else is a bug and ends the run
FAILURES = (autodiff.NonFiniteError, AssertionError, CheckFailed)


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


class Training:
    """One ``_train_loop`` step per iteration: collate -> (make_pairs) ->
    total_loss -> backward -> Adam.step, at batch 32 and T = 14."""

    unit = "step"

    def __init__(self, seed: int, variant: str, workdir):
        self.seed = seed
        self.variant = variant
        self.task = synthetic.make_task(n_train=TRAIN_EXAMPLES, n_dev=BATCH,
                                        seed=seed)
        cfg = model.ModelConfig(num_layers=TEACHER_LAYERS,
                                vocab_size=self.task.vocab.size,
                                max_seq_len=self.task.max_len,
                                num_classes=self.task.num_classes, **WIDTH)
        params = model.init_random(cfg, seed)
        self.teacher = None
        if variant == "sm_tmkd":
            path = workdir / f"teacher-{seed}.ckpt"
            model.save_checkpoint(params, cfg, path)
            teacher, _, _ = model.load_checkpoint(path)
            path.unlink()
            params = model.init_student_from_teacher(
                teacher, replace(cfg, num_layers=STUDENT_LAYERS))
            # distill_student trains against a frozen copy
            self.teacher = teacher.copy().freeze()
            self.roles = {id(self.teacher): "teacher", id(params): "student"}
        else:
            self.roles = {}
        self.params = params
        self.optimizer = distill.Adam(1e-3)
        self.mix = mixup.MixupConfig(mixup_ratio=1)
        self.weights = distill.LossWeights()
        self.record = distill.RunRecord(seed=seed, variant=variant)
        self.batches = self._batches()
        for _ in range(WARMUP_STEPS):
            self.iterate(None)

    def _batches(self):
        epoch = 0
        while True:
            yield from data.collate(self.task.train, self.task.vocab,
                                    self.task.max_len, BATCH,
                                    self.task.num_classes,
                                    shuffle_seed=self.seed * 1000 + epoch)
            epoch += 1

    def iterate(self, tracer) -> int:
        with tracer.span("data.collate") if tracer else nullcontext():
            batch = next(self.batches)
        specs = []
        if self.teacher is not None:
            step_rng = np.random.default_rng([self.seed, 2, len(self.record.steps)])
            specs = mixup.make_pairs(len(batch), self.mix, step_rng)
        loss, comp = distill.total_loss(batch, specs, self.teacher, self.params,
                                        self.weights, variant=self.variant,
                                        train_mode=True)
        autodiff.backward(loss)
        self.optimizer.step(self.params)
        self.params.zero_grads()
        w = self.weights
        self.record.log_step(len(self.record.steps) + 1, comp["total"],
                             comp["mle"], comp["sm"], comp["tmkd"],
                             w.alpha_sm, w.alpha_tmkd)
        if not math.isfinite(comp["total"]):
            raise CheckFailed(f"non-finite loss at step {len(self.record.steps)}")
        return len(batch)

    def fingerprint(self):
        """The last loss and its step: equal bit for bit under tracing."""
        last = self.record.steps[-1]
        return last["step"], last["loss_total"].hex()

    def final_checks(self) -> dict:
        return {}

    def reference_value(self):
        """(gate value, bitwise digest) of the loss at REF_STEP, or None."""
        if len(self.record.steps) < REF_STEP:
            return None
        loss = self.record.steps[REF_STEP - 1]["loss_total"]
        return loss, loss.hex()


class Eval:
    """``evaluation.evaluate`` on one 32-example slice of the dev set per
    iteration, T = 64, 4 layers, no backward and no optimizer."""

    unit = "batch"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.task = synthetic.make_task(n_train=EVAL_EXAMPLES,
                                        n_dev=EVAL_EXAMPLES, seq_min=EVAL_SEQ[0],
                                        seq_max=EVAL_SEQ[1], seed=seed)
        cfg = model.ModelConfig(num_layers=TEACHER_LAYERS,
                                vocab_size=self.task.vocab.size,
                                max_seq_len=self.task.max_len,
                                num_classes=self.task.num_classes, **WIDTH)
        self.params = model.init_random(cfg, seed)
        self.roles = {}
        dev = self.task.dev
        self.slices = [dev[i:i + BATCH] for i in range(0, len(dev), BATCH)]
        # one forward per slice: the warm-up, and the logits each later
        # evaluate call must agree with
        self.logits, self.labels = [], []
        for chunk in self.slices:
            batch = self._batch(chunk)
            self.logits.append(model.forward_tokens(self.params, batch).data)
            self.labels.append(batch.labels_onehot)
        self.expected = [evaluation.compute_metrics(lg, lb).accuracy
                         for lg, lb in zip(self.logits, self.labels)]
        self.calls = 0

    def _batch(self, chunk):
        return data.make_batch(chunk, self.task.vocab, self.task.max_len,
                               self.task.num_classes)

    def _evaluate(self, examples):
        return evaluation.evaluate(self.params, examples, self.task.vocab,
                                   self.task.max_len, self.task.num_classes,
                                   batch_size=BATCH)

    def iterate(self, tracer) -> int:
        k = self.calls % len(self.slices)
        self.calls += 1
        metrics = self._evaluate(self.slices[k])
        if metrics.accuracy != self.expected[k] or metrics.n_eval != BATCH:
            raise CheckFailed(f"dev slice {k}: accuracy {metrics.accuracy} != "
                              f"compute_metrics on its logits {self.expected[k]}")
        return metrics.n_eval

    def fingerprint(self):
        batch = self._batch(self.slices[0])
        return self.calls, _digest(model.forward_tokens(self.params, batch).data)

    def final_checks(self) -> dict:
        whole = self._evaluate(self.task.dev)
        expected = evaluation.compute_metrics(np.concatenate(self.logits),
                                              np.concatenate(self.labels))
        return {"full_dev_accuracy_matches_compute_metrics":
                whole.accuracy == expected.accuracy
                and whole.n_eval == len(self.task.dev)}

    def reference_value(self):
        logits = np.concatenate(self.logits)
        return float(np.linalg.norm(logits)), _digest(logits)


class BoundVerify:
    """``bounds.empirical_gap_experiment`` at criterion 10's shape: a 10-bit
    testbed, |G| = 64, a = 200, b_mix = thm1_required_b(...) = 199,
    delta = 0.1; 40 trials per call."""

    unit = "trial"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.roles = {}
        self.testbed = bounds.make_testbed(n_bits=BOUND_BITS, seed=seed)
        self.g_class = bounds.make_scorer_class(self.testbed, g_size=BOUND_G,
                                                seed=seed + 1)
        self.b_mix = bounds.thm1_required_b(1.0, BOUND_G, BOUND_DELTA, BOUND_A,
                                            BOUND_EPS, 0.0)
        self.calls = 0
        self.first = self._report(0)    # warm-up; also the repeat-check reference
        self.last = None

    def _report(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        rep = bounds.empirical_gap_experiment(
            self.testbed, self.g_class, a=BOUND_A, b_mix=self.b_mix,
            trials=BOUND_TRIALS, delta=BOUND_DELTA, rng=rng)
        return rep.to_dict(), rep.gaps_augmented, rep.gaps_plain

    def iterate(self, tracer) -> int:
        self.calls += 1
        self.last = (self.calls, self._report(self.calls))
        summary = self.last[1][0]
        if not summary["passed"]:
            raise CheckFailed(f"report {self.calls}: coverage "
                              f"{summary['coverage_fraction']} < 1 - delta")
        return summary["trials"]

    def fingerprint(self):
        return self.calls, repr(self.last[1])

    def final_checks(self) -> dict:
        k, report = self.last
        return {"report_repeats_with_seed":
                self._report(0) == self.first and self._report(k) == report,
                "b_mix_is_199": self.b_mix == 199}

    def reference_value(self):
        return None


WORKLOADS = {
    "distill_sm_tmkd": lambda seed, workdir: Training(seed, "sm_tmkd", workdir),
    "teacher_ft": lambda seed, workdir: Training(seed, "ft", workdir),
    "eval_long": Eval,
    "bound_verify": BoundVerify,
}
