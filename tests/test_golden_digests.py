"""Golden digests: bitwise digests of mixkd's training runs and outputs,
compared with the document recorded in ``tests/golden_digests.json``.

The document holds, under these entries:

- ``runs.<setting>.<run>``: for each run, the returned parameters'
  checksum, a sha256 over the bits of every step's loss components, the
  eval rows, best step and dev accuracy.  A setting trains a 4-layer
  teacher for 3 epochs in batches of 16 (``eval_every=10``) and distils
  the 1-layer students ``ft-mse``, ``tmkd-mse``, ``sm_tmkd-mse``,
  ``tmkd-temperature_ce`` and ``sm_tmkd-temperature_ce`` from it (mixup
  ratio 2):
  - ``T14-dropout0.0`` and ``T14-dropout0.1``: 160 training examples
    (30 steps); dev accuracy moves between evals, and some runs keep an
    earlier best copy.  ``T14-dropout0.1`` takes the graph-mode dropout
    draws and both distance metrics at dropout 0.1; its 448-row
    4-layer teacher query splits into two 224-row halves on two threads;
  - ``T64-dropout0.0``: 48 training examples (9 steps); the teacher
    query and the dev eval split into blocks on two worker threads.
- ``runs.T14-batch32-dropout0.1.teacher``: the T14 teacher alone, at
  dropout 0.1 in batches of 32 (15 steps): each of its grad-mode passes
  holds 3 x 32 x 14 = 1344 token rows in the layers before the last, so
  its forward and backward split into two sample halves on two threads,
  with dropout masks.
- ``outputs_T64``, from the ``T64-dropout0.0`` teacher: ``evaluate``'s
  metrics over the dev split in batches of 16 (the blocked eval), the
  graph-free ``logits`` and [CLS] ``features`` of the whole dev split,
  and the ``export_csv`` that ``export_cls_features`` writes.
- ``gap_reports``: ``empirical_gap_experiment`` reports at criterion
  10's shape (``mixup``, 5 of them), one without mixup (``plain``,
  criterion 9's path) and one with ``a < b_mix`` and a ragged last block
  (``cycling``: a = 20, b_mix = 300, 7 trials, so parents cycle the
  originals and a block holds 3 trials), one ``shift_delta`` and one
  ``rademacher`` estimate: every caller of the testbed's ``sample`` and
  of ``loss_matrix``.
- ``files``: the sha256 of each file the command line writes on a small
  task, written by the command that writes it: the data TSV
  (``train_tsv``), a teacher checkpoint (``checkpoint``) and an
  ``sm-tmkd`` student checkpoint (``distill_checkpoint``) with their
  runlogs without ``wall_clock`` (``runlog``, ``distill_runlog``),
  ``grid_json`` and ``grid_tsv`` of a 2-cell sweep, and the
  ``bound verify --out`` (``bound_out``) and ``seeds --out``
  (``seeds_out``) JSON.

A failing test names the dotted path of each entry that differs, such
as ``runs.T64-dropout0.0.sm_tmkd-mse.checksum``.  The file changes only
with a change whose arithmetic is meant to change, which states its
largest deviation.  Record it with

    PYTHONPATH=src python tests/test_golden_digests.py

The file records the numpy and BLAS versions it was made with; under
other versions every test fails naming both.  Importing mixkd holds
OpenBLAS at one thread, so the suite and the recorder run alike; the
document is the same at 2 BLAS threads.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mixkd import bounds, synthetic
from mixkd.cli import main as cli
from mixkd.data import make_batch
from mixkd.distill import (LossWeights, TrainConfig, distill_student,
                           train_teacher)
from mixkd.evaluation import evaluate, export_cls_features
from mixkd.mixup import MixupConfig, make_pairs
from mixkd.model import ModelConfig, forward_tokens

GOLDEN = Path(__file__).with_name("golden_digests.json")
WIDTH = dict(hidden_dim=64, num_heads=4, ffn_dim=128, num_classes=2)
TRAIN = TrainConfig(epochs=3, batch_size=16, learning_rate=3e-3, seed=5,
                    eval_every=10)
# T: (training examples, shortest and longest sentence in words,
# dropout rates); T = the longest sentence + 2
SETTINGS = {14: (160, 5, 12, (0.0, 0.1)), 64: (48, 32, 62, (0.0,))}
STUDENTS = [("ft", "mse"), ("tmkd", "mse"), ("sm_tmkd", "mse"),
            ("tmkd", "temperature_ce"), ("sm_tmkd", "temperature_ce")]
RUNS = ["teacher"] + [f"{v}-{m}" for v, m in STUDENTS]
GAP_REPS = 5


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def run_digest(params, record) -> dict:
    steps = hashlib.sha256()
    for row in record.steps:
        for key in ("loss_total", "loss_mle", "loss_sm", "loss_tmkd"):
            steps.update(float(row[key]).hex().encode())
    return {"checksum": params.checksum(),
            "steps": len(record.steps),
            "step_losses": steps.hexdigest(),
            "evals": [[e["step"], float(e["accuracy"]).hex()]
                      for e in record.evals],
            "best_step": record.best_step,
            "dev_accuracy": float(record.final_metrics["dev_accuracy"]).hex()}


def teacher_run(task, T: int, dropout: float, batch_size: int = 16):
    """(config, teacher, its run digest) of a 4-layer teacher."""
    config = ModelConfig(num_layers=4, vocab_size=task.vocab.size,
                         max_seq_len=T, dropout_rate=dropout, **WIDTH)
    teacher, record = train_teacher(
        dataclasses.replace(TRAIN, batch_size=batch_size), config, task)
    return config, teacher, run_digest(teacher, record)


def training(task, T: int, dropout: float) -> tuple[dict, object]:
    config, teacher, digest = teacher_run(task, T, dropout)
    runs = {"teacher": digest}
    student_config = dataclasses.replace(config, num_layers=1)
    for variant, metric in STUDENTS:
        run_config = dataclasses.replace(
            TRAIN, mixup=MixupConfig(mixup_ratio=2),
            loss=LossWeights(distance_metric=metric))
        params, record = distill_student(run_config, student_config, task,
                                         teacher, variant=variant)
        runs[f"{variant}-{metric}"] = run_digest(params, record)
    return runs, teacher


def outputs(task, params) -> dict:
    C = task.num_classes
    metrics = evaluate(params, task.dev, task.vocab, task.max_len, C,
                       batch_size=16)
    batch = make_batch(task.dev, task.vocab, task.max_len, C)
    logits, feats = forward_tokens(params, batch, return_features=True)
    pairs = make_pairs(16, MixupConfig(mixup_ratio=2),
                       np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        rows = export_cls_features(params, task.dev[:16], task.vocab, pairs,
                                   path)
        csv = sha(path.read_bytes())
    return {"evaluate": {"accuracy": float(metrics.accuracy).hex(),
                         "n_eval": metrics.n_eval},
            "logits": sha(logits.data), "features": sha(feats.data),
            "export_csv": {"rows": rows, "sha256": csv}}


def gap_reports() -> dict:
    testbed = bounds.make_testbed(n_bits=10, seed=0)
    g_class = bounds.make_scorer_class(testbed, g_size=64, seed=1)
    b_mix = bounds.thm1_required_b(1.0, 64, 0.1, 200, 0.09, 0.0)

    def report(b, seed, a=200, trials=40):
        rep = bounds.empirical_gap_experiment(
            testbed, g_class, a=a, b_mix=b, trials=trials, delta=0.1,
            rng=np.random.default_rng(seed), M=1.0)
        return {**rep.to_dict(),
                "gaps_augmented": sha(np.array(rep.gaps_augmented)),
                "gaps_plain": sha(np.array(rep.gaps_plain))}

    rng = np.random.default_rng(2000)
    shift = bounds.estimate_shift_delta(testbed, g_class, g_index=0,
                                        n_mc=2000, rng=rng)
    rademacher = bounds.rademacher_mc_estimate(
        g_class, testbed.sample(200, rng), trials=200, rng=rng)
    return {"mixup": [report(b_mix, 1000 + r) for r in range(GAP_REPS)],
            "plain": report(0, 1000),
            "cycling": report(300, 1000, a=20, trials=7),
            "shift_delta": shift.hex(), "rademacher": rademacher.hex()}


FILES_CFG = """\
epochs=3
batch_size=16
learning_rate=0.01
seed=0
model.num_layers={layers}
model.hidden_dim=16
model.num_heads=2
model.ffn_dim=32
model.max_seq_len=14
"""


def files() -> dict:
    """sha256 of every kind of file the command line writes, each written
    by the command that writes it; the runlog's ``wall_clock`` is cut."""
    task = synthetic.make_task(n_train=96, n_dev=48, signal_rate=0.4, seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for split in ("train", "dev"):
            synthetic.write_tsv(getattr(task, split), task.label_names,
                                root / f"{split}.tsv")
        (root / "teacher.cfg").write_text(FILES_CFG.format(layers=2))
        student = FILES_CFG.format(layers=1)
        (root / "student.cfg").write_text(student)
        (root / "grid.cfg").write_text(student + "alpha_sm_values=0.5,1.0\n"
                                       "alpha_tmkd_values=1.0\n"
                                       "mixup_ratio_values=1\n")
        data = ["--data", str(root / "train.tsv"),
                "--dev", str(root / "dev.tsv")]
        teacher = str(root / "t.ckpt")
        commands = [
            ["train-teacher", "--config", str(root / "teacher.cfg"), *data,
             "--out", teacher],
            ["distill", "--config", str(root / "student.cfg"), "--teacher",
             teacher, "--variant", "sm-tmkd", *data, "--out",
             str(root / "s.ckpt")],
            ["sweep", "--grid", str(root / "grid.cfg"), "--teacher", teacher,
             *data, "--out", str(root / "sweep")],
            ["bound", "verify", "--a", "20", "--b-mix", "20", "--trials",
             "50", "--n-bits", "6", "--g-size", "8", "--out",
             str(root / "bound.json")],
            ["seeds", "--config", str(root / "student.cfg"), "--teacher",
             teacher, "--variant", "sm-tmkd", "--seeds", "0,1", *data,
             "--out", str(root / "seeds.json")],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli(argv)
            assert code == 0, f"mixkd {argv[0]} exited {code}"

        def runlog(ckpt):
            text = (root / f"{ckpt}.runlog.jsonl").read_bytes()
            return sha(re.sub(rb', "wall_clock": [^,}]+', b"", text))

        return {
            "train_tsv": sha((root / "train.tsv").read_bytes()),
            "checkpoint": sha((root / "t.ckpt").read_bytes()),
            "runlog": runlog("t.ckpt"),
            "distill_checkpoint": sha((root / "s.ckpt").read_bytes()),
            "distill_runlog": runlog("s.ckpt"),
            "grid_json": sha((root / "sweep" / "grid.json").read_bytes()),
            "grid_tsv": sha((root / "sweep" / "grid.tsv").read_bytes()),
            "bound_out": sha((root / "bound.json").read_bytes()),
            "seeds_out": sha((root / "seeds.json").read_bytes()),
        }


def document() -> dict:
    """The whole document, as ``json`` reads it back from the file."""
    doc = {"versions": versions(), "runs": {}}
    for T, (n_train, lo, hi, dropouts) in SETTINGS.items():
        # a weak class signal, so that dev accuracy moves between evals
        task = synthetic.make_task(n_train=n_train, n_dev=48, seq_min=lo,
                                   seq_max=hi, signal_rate=0.04, seed=11)
        for dropout in dropouts:
            runs, teacher = training(task, T, dropout)
            doc["runs"][f"T{T}-dropout{dropout}"] = runs
            if T == 64 and dropout == 0.0:
                doc["outputs_T64"] = outputs(task, teacher)
        if T == 14:  # the teacher alone, in batches of 32
            doc["runs"]["T14-batch32-dropout0.1"] = {
                "teacher": teacher_run(task, T, 0.1, batch_size=32)[2]}
    doc["gap_reports"] = gap_reports()
    doc["files"] = files()
    return json.loads(json.dumps(doc))


def differences(recorded, computed, path=()) -> list[tuple]:
    """The key paths at which two JSON documents differ: each leaf that
    differs, and each key or list item that only one of them has."""
    if isinstance(recorded, dict) and isinstance(computed, dict):
        return [diff for key in sorted(recorded.keys() | computed.keys())
                for diff in differences(recorded.get(key), computed.get(key),
                                        path + (key,))]
    if (isinstance(recorded, list) and isinstance(computed, list)
            and len(recorded) == len(computed)):
        return [diff for i, (r, c) in enumerate(zip(recorded, computed))
                for diff in differences(r, c, path + (str(i),))]
    return [] if recorded == computed else [path]


@pytest.fixture(scope="module")
def differing():
    recorded = json.loads(GOLDEN.read_text())
    assert recorded["versions"] == versions(), (
        f"golden digests were recorded under {recorded['versions']}, "
        f"this run has {versions()}")
    return differences(recorded, document())


def _assert_none(paths) -> None:
    assert not paths, (f"differ from {GOLDEN.name}: "
                       + ", ".join(".".join(p) for p in paths))


@pytest.mark.parametrize("run", RUNS)
def test_golden_digest(run, differing):
    """The run's digests in every setting; a setting that only one side
    has fails every run."""
    _assert_none([p for p in differing
                  if p[0] == "runs" and (len(p) < 3 or p[2] == run)])


@pytest.mark.parametrize("section", ["outputs_T64", "gap_reports", "files"])
def test_golden_section(section, differing):
    _assert_none([p for p in differing if p[0] == section])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(document(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
