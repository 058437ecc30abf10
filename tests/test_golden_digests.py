"""Golden digests: short seeded training runs compared bit for bit with
``tests/golden_digests.json``.

Each run is recorded as its returned parameters' checksum, a sha256 over
the exact bits of every step's loss components, its best step and its
dev accuracy: the 4-layer teacher, and 1-layer ``ft``, ``tmkd`` and
``sm_tmkd`` students under both distance metrics (mixup ratio 2, dropout
0.1, T = 14).  Eval rows are not recorded; ``best_step`` and
``dev_accuracy`` are what evaluation decides.

The file changes only with a change whose arithmetic is meant to change,
which states its largest deviation.  Regenerate it with

    PYTHONPATH=src python tests/test_golden_digests.py

The file records the numpy and BLAS versions it was made with; under
other versions every test fails naming both.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mixkd import synthetic
from mixkd.distill import (LossWeights, TrainConfig, distill_student,
                           train_teacher)
from mixkd.mixup import MixupConfig
from mixkd.model import ModelConfig

GOLDEN = Path(__file__).with_name("golden_digests.json")
TEACHER = dict(num_layers=4, hidden_dim=64, num_heads=4, ffn_dim=128,
               num_classes=2, dropout_rate=0.1)
# 64 examples in batches of 16 make 4 steps an epoch, so eval_every=2
# also evaluates at each epoch's last step
TRAIN = dict(epochs=3, batch_size=16, learning_rate=3e-3, seed=5,
             eval_every=2)
STUDENTS = [("ft", "mse"), ("tmkd", "mse"), ("sm_tmkd", "mse"),
            ("tmkd", "temperature_ce"), ("sm_tmkd", "temperature_ce")]


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def _digest(params, record) -> dict:
    steps = hashlib.sha256()
    for row in record.steps:
        for key in ("loss_total", "loss_mle", "loss_sm", "loss_tmkd"):
            steps.update(float(row[key]).hex().encode())
    return {"checksum": params.checksum(),
            "steps": len(record.steps),
            "step_losses": steps.hexdigest(),
            "best_step": record.best_step,
            "dev_accuracy": float(record.final_metrics["dev_accuracy"]).hex()}


def compute() -> dict:
    task = synthetic.make_task(n_train=64, n_dev=32, seed=11)
    config = ModelConfig(vocab_size=task.vocab.size,
                         max_seq_len=task.max_len, **TEACHER)
    train = TrainConfig(**TRAIN)
    teacher, record = train_teacher(train, config, task)
    runs = {"teacher": _digest(teacher, record)}
    student_config = dataclasses.replace(config, num_layers=1)
    for variant, metric in STUDENTS:
        run_config = dataclasses.replace(
            train, mixup=MixupConfig(mixup_ratio=2),
            loss=LossWeights(distance_metric=metric))
        params, record = distill_student(run_config, student_config, task,
                                         teacher, variant=variant)
        runs[f"{variant}-{metric}"] = _digest(params, record)
    return runs


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text())
    assert recorded["versions"] == versions(), (
        f"golden digests were recorded under {recorded['versions']}, "
        f"this run has {versions()}")
    return recorded["runs"]


@pytest.fixture(scope="module")
def computed(golden):
    return compute()


@pytest.mark.parametrize("run", ["teacher"] + [f"{v}-{m}"
                                               for v, m in STUDENTS])
def test_golden_digest(run, golden, computed):
    assert computed[run] == golden[run]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"versions": versions(), "runs": compute()},
                                 indent=2) + "\n")
    print(f"wrote {GOLDEN}")
