"""End-to-end command-line flows on a miniature task."""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import struct
import warnings

import pytest

from mixkd import cli as cli_mod
from mixkd import model as model_mod
from mixkd import synthetic
from mixkd.cli import main
from mixkd.distill import LossWeights, RunRecord
from mixkd.mixup import MixupError
from mixkd.model import (ModelConfig, load_checkpoint, parameter_shapes,
                         save_checkpoint)

TEACHER_CFG = """\
epochs=1
batch_size=32
learning_rate=0.001
seed=0
model.num_layers=2
model.hidden_dim=16
model.num_heads=2
model.ffn_dim=32
model.max_seq_len={max_len}
"""

STUDENT_CFG = """\
epochs=1
batch_size=32
learning_rate=0.001
seed=0
model.num_layers=1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    task = synthetic.make_task(n_train=96, n_dev=48, seed=11, signal_rate=0.4)
    synthetic.write_tsv(task.train, task.label_names, root / "train.tsv")
    synthetic.write_tsv(task.dev, task.label_names, root / "dev.tsv")
    (root / "teacher.cfg").write_text(
        TEACHER_CFG.format(max_len=task.max_len))
    (root / "student.cfg").write_text(STUDENT_CFG)
    return root


@pytest.fixture(scope="module")
def teacher_ckpt(workspace):
    out = workspace / "teacher.ckpt"
    code = main(["train-teacher", "--config", str(workspace / "teacher.cfg"),
                 "--data", str(workspace / "train.tsv"),
                 "--dev", str(workspace / "dev.tsv"),
                 "--out", str(out)])
    assert code == 0
    return out


def test_train_teacher_outputs(teacher_ckpt, workspace, capsys):
    assert teacher_ckpt.exists()
    assert (workspace / "teacher.ckpt.runlog.jsonl").exists()


def test_eval_command(teacher_ckpt, workspace, capsys):
    code = main(["eval", "--model", str(teacher_ckpt),
                 "--data", str(workspace / "dev.tsv"),
                 "--positive-class", "pos"])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[0])
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["f1"] is not None
    assert "accuracy" in out.splitlines()[2]  # aligned-column block


@pytest.fixture(scope="module")
def three_class(workspace):
    """(data, checkpoint) of a 3-class model and its 12-row training file."""
    data = workspace / "three.tsv"
    data.write_text("sentence\tlabel\n" + "".join(
        f"tok{i} tok{i + 1}\t{'abc'[i % 3]}\n" for i in range(12)))
    ckpt = workspace / "three.ckpt"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["train-teacher", "--config",
                     str(workspace / "teacher.cfg"), "--data", str(data),
                     "--out", str(ckpt)]) == 0
    return data, ckpt


def test_eval_positive_class_needs_two_classes(three_class, capsys):
    """F1 is computed for two classes only, so --positive-class on a
    3-class model fails before evaluating, not with "f1": null."""
    data, ckpt = three_class
    assert main(["eval", "--model", str(ckpt), "--data", str(data),
                 "--positive-class", "a"]) == 6
    captured = capsys.readouterr()
    assert captured.err == ("error (ConfigError): --positive-class needs a "
                            f"2-class model; {ckpt} has 3 classes\n")
    assert captured.out == ""


def test_checkpoint_extra_holds_vocab_and_labels(teacher_ckpt, workspace,
                                                  tmp_path, capsys):
    """The config alone stores max_seq_len; a file whose extra also
    holds max_len still loads and evaluates the same."""
    params, config, extra = load_checkpoint(teacher_ckpt)
    assert set(extra) == {"vocab", "labels"}
    older = tmp_path / "older.ckpt"
    save_checkpoint(params, config, older,
                    extra={**extra, "max_len": config.max_seq_len})
    printed = []
    for path in (teacher_ckpt, older):
        assert main(["eval", "--model", str(path),
                     "--data", str(workspace / "dev.tsv")]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
@pytest.mark.parametrize("key, grow", [("labels", 1), ("vocab", 5)])
def test_exit_code_extra_disagrees_with_config(command, key, grow,
                                               teacher_ckpt, workspace,
                                               tmp_path, capsys):
    """A vocabulary or label list that does not match the model's
    vocab_size or num_classes is a checkpoint error, not a crash in the
    forward or a file of soft labels one class too wide."""
    params, config, extra = load_checkpoint(teacher_ckpt)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(params, config, bad, extra={
        **extra, key: extra[key] + [f"extra{i}" for i in range(grow)]})
    out = tmp_path / "feats.csv"
    argv = {"eval": [],
            "export-embeddings": ["--n", "4", "--out", str(out)]}[command]
    assert main([command, "--model", str(bad),
                 "--data", str(workspace / "dev.tsv")] + argv) == 3
    what, config_key, fixed = {
        "labels": ("labels", "num_classes", config.num_classes),
        "vocab": ("vocabulary tokens", "vocab_size", config.vocab_size)}[key]
    captured = capsys.readouterr()
    assert captured.err == (
        f"error (CheckpointError): {bad}: {fixed + grow} {what} stored, but "
        f"the model config has {config_key}={fixed}\n")
    assert captured.out == "" and not out.exists()


def test_distill_all_variants(teacher_ckpt, workspace, capsys):
    for variant in ("ft", "tmkd", "sm-tmkd"):
        out = workspace / f"student-{variant}.ckpt"
        code = main(["distill", "--config", str(workspace / "student.cfg"),
                     "--teacher", str(teacher_ckpt),
                     "--variant", variant,
                     "--data", str(workspace / "train.tsv"),
                     "--dev", str(workspace / "dev.tsv"),
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["variant"] == variant


def test_distill_with_fraction(teacher_ckpt, workspace):
    out = workspace / "student-frac.ckpt"
    code = main(["distill", "--config", str(workspace / "student.cfg"),
                 "--teacher", str(teacher_ckpt),
                 "--variant", "ft", "--fraction", "0.5",
                 "--data", str(workspace / "train.tsv"),
                 "--out", str(out)])
    assert code == 0


def test_exit_code_fraction_keeps_no_example(teacher_ckpt, workspace,
                                            tmp_path, capsys):
    """floor(0.01 * 96) = 0 training examples: the message gives the
    fraction and the row count."""
    code = main(["distill", "--config", str(workspace / "student.cfg"),
                 "--teacher", str(teacher_ckpt),
                 "--variant", "ft", "--fraction", "0.01",
                 "--data", str(workspace / "train.tsv"),
                 "--out", str(tmp_path / "s.ckpt")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error (DataError): subsample of fraction 0.01 of 96 examples is "
        "empty\n")
    assert not (tmp_path / "s.ckpt").exists()


def test_export_embeddings(teacher_ckpt, workspace, capsys):
    out = workspace / "feats.csv"
    code = main(["export-embeddings", "--model", str(teacher_ckpt),
                 "--data", str(workspace / "dev.tsv"),
                 "--n", "8", "--mixup-ratio", "1",
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["id", "parent_i", "parent_j", "lambda"]
    assert len(rows) == 1 + 8 + 8  # header + originals + mixed


@pytest.mark.parametrize("n, data", [(3, "dev"), (4, "one_class"),
                                     (5, "three_class")])
def test_export_embeddings_exports_n_originals(n, data, teacher_ckpt,
                                               workspace, three_class,
                                               tmp_path, capsys):
    """Exactly --n originals, also for an odd --n, a file with one of the
    model's two classes, and a 3-class model."""
    model = teacher_ckpt
    if data == "one_class":
        data = tmp_path / "one.tsv"
        data.write_text("sentence\tlabel\n"
                        + "".join(f"tok{i} tok{i + 1}\tpos\n" for i in range(6)))
    elif data == "three_class":
        data, model = three_class
    else:
        data = workspace / "dev.tsv"
    out = tmp_path / "feats.csv"
    assert main(["export-embeddings", "--model", str(model), "--data",
                 str(data), "--n", str(n), "--mixup-ratio", "0",
                 "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == n
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[:4] for row in rows] == [[str(i), str(i), str(i), "1"]
                                         for i in range(n)]


def test_bench(teacher_ckpt, capsys):
    code = main(["bench", "--model", str(teacher_ckpt),
                 "--batch-size", "4", "--measured-batches", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples_per_second"] > 0


def test_seeds(teacher_ckpt, workspace, capsys):
    code = main(["seeds", "--config", str(workspace / "student.cfg"),
                 "--teacher", str(teacher_ckpt),
                 "--variant", "ft", "--seeds", "0,1",
                 "--data", str(workspace / "train.tsv"),
                 "--dev", str(workspace / "dev.tsv")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seeds"] == [0, 1]
    assert "±" in payload["formatted"]


def test_sweep(teacher_ckpt, workspace, capsys):
    grid = workspace / "grid.cfg"
    grid.write_text(STUDENT_CFG
                    + "alpha_sm_values=0.5,1.0\n"
                    "alpha_tmkd_values=1.0\n"
                    "mixup_ratio_values=1\n")
    out_dir = workspace / "sweep"
    code = main(["sweep", "--grid", str(grid),
                 "--teacher", str(teacher_ckpt),
                 "--data", str(workspace / "train.tsv"),
                 "--dev", str(workspace / "dev.tsv"),
                 "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "grid.tsv").exists()
    assert json.loads(capsys.readouterr().out)["cells"] == 2


def test_sweep_exits_5_when_every_cell_fails(teacher_ckpt, workspace,
                                             tmp_path, capsys):
    """Both grid files are written, then the sweep exits 5, naming the
    grid file and the first cell's error."""
    grid = tmp_path / "grid.cfg"
    grid.write_text(STUDENT_CFG + "alpha_sm_values=1.0\n"
                    "alpha_tmkd_values=1e308\nmixup_ratio_values=1\n")
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--grid", str(grid),
                 "--teacher", str(teacher_ckpt),
                 "--data", str(workspace / "train.tsv"),
                 "--dev", str(workspace / "dev.tsv"),
                 "--out", str(out_dir)])
    assert code == 5
    (cell,) = json.loads((out_dir / "grid.json").read_text())
    assert cell["dev_accuracy"] is None and cell["error"]
    assert (out_dir / "grid.tsv").read_text().count("\n") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error (TrainingDiverged): every cell of {grid} failed (see "
        f"{out_dir / 'grid.json'}); the first: {cell['error']}\n")


def _no_dev_argv(command, workspace, teacher_ckpt, tmp_path):
    data = ["--data", str(workspace / "train.tsv")]
    student = ["--config", str(workspace / "student.cfg"),
               "--teacher", str(teacher_ckpt), "--variant", "ft"]
    if command == "train-teacher":
        return [command, "--config", str(workspace / "teacher.cfg"), *data,
                "--out", str(tmp_path / "t.ckpt")]
    if command == "distill":
        return [command, *student, *data, "--out", str(tmp_path / "s.ckpt")]
    if command == "seeds":
        return [command, *student, "--seeds", "0,1", *data]
    grid = tmp_path / "grid.cfg"
    grid.write_text(STUDENT_CFG + "alpha_sm_values=1.0\n"
                    "alpha_tmkd_values=1.0\nmixup_ratio_values=1\n")
    return [command, "--grid", str(grid), "--teacher", str(teacher_ckpt),
            *data, "--out", str(tmp_path / "sweep")]


@pytest.mark.parametrize("command",
                         ["train-teacher", "distill", "sweep", "seeds"])
def test_missing_dev_warns(command, teacher_ckpt, workspace, tmp_path, capsys):
    argv = _no_dev_argv(command, workspace, teacher_ckpt, tmp_path)
    assert main(argv) == 0
    without = capsys.readouterr()
    assert (f"warning: {command} without --dev selects the best checkpoint "
            "on the training set") in without.err
    assert len(without.err.splitlines()) == 1
    assert main(argv + ["--dev", str(workspace / "dev.tsv")]) == 0
    with_dev = capsys.readouterr()
    assert "warning" not in with_dev.err
    # stdout is the same JSON object, with or without the warning
    assert json.loads(without.out).keys() == json.loads(with_dev.out).keys()


def test_bound_calculators(capsys):
    code = main(["bound", "hoeffding", "--m", "1.0", "--g-cardinality", "64",
                 "--delta", "0.1", "--n", "200"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["bound"] > 0

    code = main(["bound", "thm1", "--m", "1.0", "--g-cardinality", "64",
                 "--delta", "0.1", "--a", "200", "--epsilon", "0.09",
                 "--triangle", "0.0"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["required_b"] == 199


@pytest.mark.parametrize("which", sorted(cli_mod.BOUND_CALCULATORS))
def test_bound_calculator_runs_on_its_defaults(which, capsys):
    """No calculator fails on its own defaults: one whose a must be >= 1
    has no --a default and says the flag is required; every other one
    succeeds."""
    code = main(["bound", which])
    captured = capsys.readouterr()
    if which in cli_mod.BOUND_NEED_A:
        assert code == 6
        assert captured.err == (f"error (ConfigError): mixkd bound {which}: "
                                "the following arguments are required: --a\n")
    else:
        assert code == 0
        assert json.loads(captured.out)


def test_bound_verify(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["bound", "verify", "--a", "50", "--b-mix", "10",
                 "--trials", "20", "--g-size", "16", "--n-bits", "6",
                 "--delta", "0.1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert 0.0 <= report["coverage_fraction"] <= 1.0


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------

def test_exit_code_data_error(teacher_ckpt, workspace, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("sentence\tlabel\nhello\tunseen_label\n")
    code = main(["eval", "--model", str(teacher_ckpt), "--data", str(bad)])
    assert code == 2


def test_exit_code_header_only_tsv(teacher_ckpt, workspace, tmp_path, capsys):
    empty = tmp_path / "header_only.tsv"
    empty.write_text("sentence\tlabel\n")
    code = main(["eval", "--model", str(teacher_ckpt), "--data", str(empty)])
    assert code == 2
    err = capsys.readouterr().err
    assert "DataError" in err and str(empty) in err


def test_exit_code_empty_tsv(teacher_ckpt, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert main(["eval", "--model", str(teacher_ckpt),
                 "--data", str(empty)]) == 2
    assert capsys.readouterr().err == (f"error (DataError): {empty}: "
                                       "empty file\n")


def test_exit_code_tsv_row_missing_label(workspace, tmp_path, capsys):
    train = tmp_path / "train.tsv"
    lines = (workspace / "train.tsv").read_text().splitlines()
    last = lines[-1].split("\t")[0]  # the last row without its label
    train.write_text("\n".join(lines[:-1] + [last]) + "\n")
    code = main(["train-teacher", "--config", str(workspace / "teacher.cfg"),
                 "--data", str(train), "--dev", str(workspace / "dev.tsv"),
                 "--out", str(tmp_path / "t.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert (f"DataError): {train}: line {len(lines)}: expected 2 fields "
            "like the header, got 1") in err


def test_exit_code_tsv_header_repeats_a_column(teacher_ckpt, tmp_path,
                                               capsys):
    data = tmp_path / "twice.tsv"
    data.write_text("sentence\tsentence\tlabel\nhello world\t\tpos\n")
    assert main(["eval", "--model", str(teacher_ckpt),
                 "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error (DataError): {data}: column 'sentence' "
                            "appears twice in the header\n")
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["label,label", "sentence,sentence,label"])
def test_exit_code_repeated_schema_column(spec, teacher_ckpt, workspace,
                                          capsys):
    code = main(["eval", "--model", str(teacher_ckpt),
                 "--data", str(workspace / "dev.tsv"), "--schema", spec])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error (DataError): schema {spec!r} names a "
                            "column twice\n")
    assert captured.out == ""


def test_exit_code_checkpoint_error(workspace, tmp_path, capsys):
    bogus = tmp_path / "bogus.ckpt"
    bogus.write_bytes(b"not a checkpoint at all")
    code = main(["eval", "--model", str(bogus),
                 "--data", str(workspace / "dev.tsv")])
    assert code == 3


def test_exit_code_unknown_positive_class(teacher_ckpt, workspace, capsys):
    assert main(["eval", "--model", str(teacher_ckpt), "--data",
                 str(workspace / "dev.tsv"), "--positive-class", "maybe"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error (DataError): --positive-class 'maybe' is "
                            f"not a label of {teacher_ckpt}: ['neg', 'pos']\n")
    assert captured.out == ""


def test_exit_code_checkpoint_without_dataset_metadata(teacher_ckpt,
                                                       workspace, tmp_path,
                                                       capsys):
    """A checkpoint saved without the vocabulary and labels cannot read
    --data: exit 3, naming the file and the missing key."""
    params, config, _ = load_checkpoint(teacher_ckpt)
    bare = tmp_path / "bare.ckpt"
    save_checkpoint(params, config, bare)
    assert main(["eval", "--model", str(bare),
                 "--data", str(workspace / "dev.tsv")]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error (CheckpointError): "
                            f"{bare}: checkpoint lacks dataset metadata: "
                            "'vocab'\n")
    assert captured.out == ""


RESERVED_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"]


@pytest.mark.parametrize("key, malformed", [
    ("vocab", lambda tokens: 5),
    ("labels", lambda labels: 7),
    ("vocab", lambda tokens: tokens[:-1] + [tokens[4]]),
    ("vocab", lambda tokens: tokens[:-1] + [42]),
    ("vocab", lambda tokens: [tokens[1], tokens[0]] + tokens[2:]),
    ("labels", lambda labels: ["neg", "neg"]),
    ("labels", lambda labels: [1, 2]),
], ids=["vocab-int", "labels-int", "vocab-repeats", "vocab-non-string",
        "vocab-reserved-order", "labels-repeat", "labels-non-string"])
def test_exit_code_malformed_dataset_metadata(key, malformed, teacher_ckpt,
                                              workspace, tmp_path, capsys):
    """A checkpoint's vocabulary must be a list of distinct strings that
    starts with the reserved tokens, its labels a list of distinct
    strings: else exit 3, naming the file and the key, not a crash, a
    blamed data file or a run on wrong token ids."""
    params, config, extra = load_checkpoint(teacher_ckpt)
    assert extra["vocab"][:4] == RESERVED_TOKENS
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(params, config, bad,
                    extra={**extra, key: malformed(extra[key])})
    assert main(["eval", "--model", str(bad),
                 "--data", str(workspace / "dev.tsv")]) == 3
    start = f" that starts with {RESERVED_TOKENS}" if key == "vocab" else ""
    captured = capsys.readouterr()
    assert captured.err == (f"error (CheckpointError): {bad}: checkpoint "
                            f"{key!r} is not a list of distinct "
                            f"strings{start}\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["distill", "seeds", "sweep"])
def test_exit_code_student_config_sets_vocab(command, teacher_ckpt,
                                             workspace, tmp_path, capsys):
    """A student's vocabulary is its teacher's, so vocab.* keys in its
    config are an error naming the file and the keys, not ignored."""
    cfg = tmp_path / "student.cfg"
    cfg.write_text(STUDENT_CFG + "vocab.min_freq=50\nvocab.max_size=5\n")
    data = ["--data", str(workspace / "train.tsv"),
            "--dev", str(workspace / "dev.tsv")]
    student = ["--config", str(cfg), "--teacher", str(teacher_ckpt),
               "--variant", "ft"]
    out = tmp_path / "out"
    argv = {"distill": ["distill", *student, *data, "--out", str(out)],
            "seeds": ["seeds", *student, "--seeds", "0,1", *data,
                      "--out", str(out)]}.get(command)
    if command == "sweep":
        cfg.write_text(cfg.read_text() + "alpha_sm_values=1.0\n"
                       "alpha_tmkd_values=1.0\nmixup_ratio_values=1\n")
        argv = ["sweep", "--grid", str(cfg), "--teacher", str(teacher_ckpt),
                *data, "--out", str(out)]
    assert main(argv) == 6
    captured = capsys.readouterr()
    assert captured.err == (
        f"error (ConfigError): {cfg}: vocab.min_freq, vocab.max_size cannot "
        "be set for a student: its vocabulary comes from the teacher "
        "checkpoint\n")
    assert captured.out == "" and not out.exists()


def test_exit_code_grid_file_missing_key(teacher_ckpt, workspace, tmp_path,
                                         capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text(STUDENT_CFG + "alpha_sm_values=1.0\nmixup_ratio_values=1\n")
    assert main(["sweep", "--grid", str(grid), "--teacher", str(teacher_ckpt),
                 "--data", str(workspace / "train.tsv"),
                 "--out", str(tmp_path / "sweep")]) == 6
    captured = capsys.readouterr()
    assert captured.err == (f"error (ConfigError): {grid}: missing "
                            "alpha_tmkd_values\n")
    assert captured.out == "" and not (tmp_path / "sweep").exists()


def test_interrupt_exits_130(monkeypatch, capsys):
    """Ctrl-C prints one line, not a traceback, and exits 130 (128 +
    SIGINT), as a shell reports a process that SIGINT ended."""
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "cmd_bound", interrupted)
    try:
        code = main(["bound", "hoeffding"])
    except KeyboardInterrupt:  # would otherwise stop the whole session
        pytest.fail("KeyboardInterrupt escaped mixkd.cli.main")
    assert code == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n"
    assert captured.out == ""


def _manifest(raw):
    """(manifest dict, offset of the array data) of checkpoint bytes."""
    (mlen,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + mlen]), 12 + mlen


def _array_offsets(manifest, base):
    """File offset of each array: the config fixes the shapes, and the
    arrays follow each other in parameter_shapes order."""
    shapes = parameter_shapes(ModelConfig(**manifest["config"]))
    sizes = [math.prod(shape) for shape in shapes.values()]
    starts = itertools.accumulate([0] + sizes[:-1])
    return {name: base + 4 * start for name, start in zip(shapes, starts)}


def test_exit_code_non_finite_checkpoint(teacher_ckpt, workspace, tmp_path,
                                         capsys):
    raw = bytearray(teacher_ckpt.read_bytes())
    start = _array_offsets(*_manifest(raw))["layers.0.ffn.w1"] + 4 * 7
    raw[start:start + 4] = struct.pack("<f", float("nan"))
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(bytes(raw))
    code = main(["eval", "--model", str(bad),
                 "--data", str(workspace / "dev.tsv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "layers.0.ffn.w1" in err


def test_exit_code_one_bit_flip(teacher_ckpt, workspace, tmp_path, capsys):
    raw = teacher_ckpt.read_bytes()
    manifest, base = _manifest(raw)
    # dropout_rate 0.0 -> 0.1 is a valid config: only the digest catches it
    dropout = raw.index(b'"dropout_rate":0.0') + len(b'"dropout_rate":0.')
    offsets = {"magic": 0, "length": 8, "manifest": dropout}
    offsets.update(_array_offsets(manifest, base))
    bad = tmp_path / "flipped.ckpt"
    for section, offset in offsets.items():
        flipped = bytearray(raw)
        flipped[offset] ^= 1
        bad.write_bytes(bytes(flipped))
        code = main(["eval", "--model", str(bad),
                     "--data", str(workspace / "dev.tsv")])
        err = capsys.readouterr().err
        assert code == 3, section
        assert "CheckpointError" in err, section
        if section not in ("magic", "length"):
            assert "does not match its sha256 digest" in err, section


def test_exit_code_training_diverged(workspace, tmp_path, capsys):
    # Adam's first step moves every weight by about 1e300; the second
    # step's first attention matmul overflows
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text((workspace / "teacher.cfg").read_text().replace(
        "learning_rate=0.001", "learning_rate=1e300"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train-teacher", "--config", str(cfg),
                     "--data", str(workspace / "train.tsv"),
                     "--dev", str(workspace / "dev.tsv"),
                     "--out", str(tmp_path / "x.ckpt")])
    assert code == 5
    # the error line is the whole report: numpy prints no overflow warning
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "TrainingDiverged" in err
    assert "first non-finite: matmul in layers.0.attn at step 1 " in err
    assert not (tmp_path / "x.ckpt").exists()


def test_seeds_exit_code_training_diverged(teacher_ckpt, workspace, tmp_path,
                                           capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(STUDENT_CFG.replace("learning_rate=0.001",
                                       "learning_rate=1e300"))
    code = main(["seeds", "--config", str(cfg),
                 "--teacher", str(teacher_ckpt), "--variant", "ft",
                 "--seeds", "7,8",
                 "--data", str(workspace / "train.tsv"),
                 "--dev", str(workspace / "dev.tsv")])
    assert code == 5
    assert capsys.readouterr().err.startswith(
        "error (TrainingDiverged): seed 7: ")


def _drop_config_field(manifest, payload):
    del manifest["config"]["num_heads"]
    return payload


def _drop_arrays(manifest, payload):
    del manifest["arrays"]
    return payload


def _duplicate_tok_emb(manifest, payload):
    manifest["arrays"].append(manifest["arrays"][0])
    return payload


def _odd_byte_count(manifest, payload):
    return payload[:-1]


def _drop_digest(manifest, payload):
    del manifest["sha256"]
    return payload


def _set_config(key, value):
    def edit(manifest, payload):
        manifest["config"][key] = value
        return payload
    return edit


@pytest.mark.parametrize("edit, needle", [
    (_drop_config_field, "num_heads"),
    (_drop_arrays, "arrays"),
    (_duplicate_tok_emb, "tok_emb"),
    (_odd_byte_count, "truncated or overlong"),
    (_drop_digest, "has no sha256 digest"),
    # a config value outside its field's range, not a crash building arrays
    (_set_config("num_layers", 1.5), "num_layers must be an int >= 1, got 1.5"),
    (_set_config("num_layers", math.nan),
     "num_layers must be an int >= 1, got nan"),
    (_set_config("num_layers", True),
     "num_layers must be an int >= 1, got True"),
    (_set_config("max_seq_len", 14.0),
     "max_seq_len must be an int >= 3, got 14.0"),
    (_set_config("max_seq_len", 2), "max_seq_len must be an int >= 3, got 2"),
], ids=["missing_config_field", "missing_arrays", "duplicate_array",
        "odd_byte_count", "missing_digest", "fractional_depth", "nan_depth",
        "bool_depth", "float_length", "short_length"])
def test_exit_code_bad_manifest(edit, needle, teacher_ckpt, workspace,
                                tmp_path, capsys):
    raw = teacher_ckpt.read_bytes()
    manifest, base = _manifest(raw)
    assert manifest["arrays"][0] == "tok_emb"
    payload = edit(manifest, raw[base:])
    mbytes = json.dumps(manifest).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(mbytes)) + mbytes
                    + payload)
    code = main(["eval", "--model", str(bad),
                 "--data", str(workspace / "dev.tsv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "CheckpointError" in err and needle in err


def test_exit_code_format_1_checkpoint(teacher_ckpt, workspace, tmp_path,
                                      capsys):
    old = tmp_path / "old.ckpt"
    old.write_bytes(b"MKDCKPT1" + teacher_ckpt.read_bytes()[8:])
    code = main(["eval", "--model", str(old),
                 "--data", str(workspace / "dev.tsv")])
    assert code == 3
    assert (f"error (CheckpointError): {old} is a format-1 checkpoint "
            "(MKDCKPT1)") in capsys.readouterr().err


@pytest.mark.parametrize("problem", ["missing_directory", "is_a_directory"])
@pytest.mark.parametrize("command", ["train-teacher", "distill",
                                     "export-embeddings", "bound", "seeds"])
def test_exit_code_bad_output_path(command, problem, teacher_ckpt, workspace,
                                   tmp_path, capsys):
    data = ["--data", str(workspace / "train.tsv")]
    student = ["--config", str(workspace / "student.cfg"),
               "--teacher", str(teacher_ckpt), "--variant", "ft"]
    argv = {
        "train-teacher": ["--config", str(workspace / "teacher.cfg")] + data,
        "distill": student + data,
        "export-embeddings": ["--model", str(teacher_ckpt)] + data,
        "bound": ["verify", "--a", "10", "--trials", "1", "--g-size", "4",
                  "--n-bits", "4"],
        "seeds": student + ["--seeds", "0,1"] + data,
    }[command]
    if problem == "missing_directory":
        out = tmp_path / "nodir" / "result"
        message = f"--out {out}: directory {out.parent} does not exist"
    else:
        out = tmp_path
        message = f"--out {out} is a directory, not a file"
    assert main([command] + argv + ["--out", str(out)]) == 6
    captured = capsys.readouterr()
    # the check runs before any work: nothing is printed on stdout
    assert captured.out == ""
    assert captured.err == f"error (ConfigError): {message}\n"


@pytest.mark.parametrize("problem", ["missing_directory", "is_a_file",
                                     "grid.json", "grid.tsv"])
def test_exit_code_bad_sweep_output(problem, teacher_ckpt, workspace, tmp_path,
                                    capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text(STUDENT_CFG + "alpha_sm_values=1.0\n"
                    "alpha_tmkd_values=1.0\nmixup_ratio_values=1\n")
    out = tmp_path / "sweep"
    if problem == "missing_directory":
        out = tmp_path / "nodir" / "sweep"
        message = f"--out {out}: directory {out.parent} does not exist"
    elif problem == "is_a_file":
        out.write_text("")
        message = f"--out {out} exists and is not a directory"
    else:  # a directory where a grid file goes
        (out / problem).mkdir(parents=True)
        message = f"--out {out}: {out / problem} is a directory, not a file"
    assert main(["sweep", "--grid", str(grid), "--teacher", str(teacher_ckpt),
                 "--data", str(workspace / "train.tsv"),
                 "--dev", str(workspace / "dev.tsv"),
                 "--out", str(out)]) == 6
    captured = capsys.readouterr()
    # the check runs before any cell trains: nothing is printed on stdout
    assert captured.out == ""
    assert captured.err == f"error (ConfigError): {message}\n"


@pytest.mark.parametrize("command", ["train-teacher", "distill"])
def test_exit_code_runlog_is_a_directory(command, teacher_ckpt, workspace,
                                         tmp_path, capsys):
    """A directory where the runlog beside --out goes fails before the
    run trains or writes the checkpoint."""
    data = ["--data", str(workspace / "train.tsv")]
    argv = {
        "train-teacher": ["--config", str(workspace / "teacher.cfg")] + data,
        "distill": ["--config", str(workspace / "student.cfg"),
                    "--teacher", str(teacher_ckpt), "--variant", "ft"] + data,
    }[command]
    out, runlog = tmp_path / "out.ckpt", tmp_path / "out.ckpt.runlog.jsonl"
    runlog.mkdir()
    assert main([command] + argv + ["--out", str(out)]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error (ConfigError): --out {out}: {runlog} is "
                            "a directory, not a file\n")
    assert not out.exists()


class _DiskFull:
    """A file that takes half of the bytes written to it, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("No space left on device")


WRITERS = ["checkpoint", "runlog", "export_csv", "grid_json", "grid_tsv",
           "synthetic_tsv", "bound_out", "seeds_out", "teacher_checkpoint",
           "teacher_runlog", "distill_checkpoint", "distill_runlog"]


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_the_target(writer, existing, teacher_ckpt,
                                       workspace, tmp_path, monkeypatch,
                                       capsys):
    """Every output is written through model.write_files: a write that
    raises partway leaves an existing target byte-identical, a new one
    absent, and no temp file."""
    out = tmp_path / "out"
    runlog = tmp_path / "out.runlog.jsonl"
    # sweep replaces both grid files or neither, train-teacher and distill
    # both the checkpoint and its runlog or neither
    targets = {"grid_json": [out / "grid.json", out / "grid.tsv"],
               "grid_tsv": [out / "grid.tsv", out / "grid.json"],
               "teacher_checkpoint": [out, runlog],
               "teacher_runlog": [runlog, out],
               "distill_checkpoint": [out, runlog],
               "distill_runlog": [runlog, out]}.get(writer, [out])
    target = targets[0]
    target.parent.mkdir(exist_ok=True)
    if existing:
        for file in targets:
            file.write_bytes(b"an earlier result\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text(STUDENT_CFG + "alpha_sm_values=1.0\n"
                    "alpha_tmkd_values=1.0\nmixup_ratio_values=1\n")
    before = sorted(tmp_path.rglob("*"))

    data = ["--data", str(workspace / "train.tsv")]
    cli_argv = {
        "export_csv": ["export-embeddings", "--model", str(teacher_ckpt),
                       "--n", "4"] + data,
        "grid_json": ["sweep", "--grid", str(grid),
                      "--teacher", str(teacher_ckpt)] + data,
        "bound_out": ["bound", "verify", "--a", "10", "--trials", "2",
                      "--g-size", "4", "--n-bits", "4"],
        "seeds_out": ["seeds", "--seeds", "0,1", "--config",
                      str(workspace / "student.cfg"), "--teacher",
                      str(teacher_ckpt), "--variant", "sm-tmkd"] + data,
        "teacher_checkpoint": ["train-teacher", "--config",
                               str(workspace / "teacher.cfg")] + data,
        "distill_checkpoint": ["distill", "--config",
                               str(workspace / "student.cfg"), "--teacher",
                               str(teacher_ckpt), "--variant", "sm-tmkd"]
        + data,
    }
    cli_argv["grid_tsv"] = cli_argv["grid_json"]
    cli_argv["teacher_runlog"] = cli_argv["teacher_checkpoint"]
    cli_argv["distill_runlog"] = cli_argv["distill_checkpoint"]
    params, config, _ = load_checkpoint(teacher_ckpt)
    task = synthetic.make_task(n_train=4, n_dev=1, seed=0)
    record = RunRecord(seed=0, variant="ft")
    record.log_step(0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)

    def failing_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return _DiskFull(fh) if file == f"{target}.{os.getpid()}.tmp" else fh

    monkeypatch.setattr(model_mod, "open", failing_open, raising=False)
    if writer in cli_argv:
        assert main(cli_argv[writer] + ["--out", str(out)]) == 6
        captured = capsys.readouterr()
        assert captured.err.endswith(
            f"error (OutputError): {target}: cannot write: No space left on "
            "device\n")
        assert captured.out == ""  # no result is printed for a failed write
    else:
        with pytest.raises(OSError, match="No space left on device"):
            if writer == "checkpoint":
                save_checkpoint(params, config, target)
            elif writer == "runlog":
                model_mod.write_files({target: record.jsonl()})
            else:
                synthetic.write_tsv(task.train, task.label_names, target)
    assert sorted(tmp_path.rglob("*")) == before
    if existing:
        for file in targets:
            assert file.read_bytes() == b"an earlier result\n"


def test_exit_code_bound_error(capsys):
    # epsilon below the shift term: the threshold is undefined
    code = main(["bound", "thm1", "--epsilon", "0.05", "--triangle", "0.1"])
    assert code == 4
    # inputs outside the calculators' domain name the parameter
    for argv, name in [
            (["thm1", "--delta", "0"], "delta"),
            (["thm2", "--delta", "0"], "delta"),
            (["thm3", "--delta", "0", "--a", "1000", "--epsilon", "0.9"],
             "delta"),
            (["thm1", "--g-cardinality", "0"], "g_cardinality"),
            (["thm1", "--m", "-1"], "M must"),
            (["thm1", "--delta", "2"], "delta"),
            (["verify", "--a", "10", "--b-mix", "-3", "--trials", "1"],
             "b_mix"),
            (["thm2", "--lipschitz", "-1", "--rademacher", "0.1"],
             "lipschitz"),
            (["thm2", "--rademacher", "-0.1"], "rademacher_r"),
            (["thm3", "--log-capacity", "-5", "--a", "1000", "--epsilon",
              "0.9"], "log_capacity"),
            # non-finite inputs, and results that overflow float64
            (["thm1", "--m", "inf"], "M must"),
            (["thm2", "--lipschitz", "inf", "--epsilon", "0.5"], "lipschitz"),
            (["thm2", "--epsilon", "nan"], "epsilon_p"),
            (["thm1", "--triangle=-inf"], "triangle"),
            (["hoeffding", "--m", "inf"], "M must"),
            (["hoeffding", "--delta", "1e-320", "--g-cardinality", "64"],
             "delta"),
            (["verify", "--m", "inf", "--a", "10", "--trials", "1"],
             "M must"),
            (["thm1", "--epsilon", "1e-200"], "delta"),
            (["thm3", "--epsilon", "1e-200", "--a", "10"], "delta")]:
        capsys.readouterr()
        assert main(["bound"] + argv) == 4, argv
        captured = capsys.readouterr()
        assert name in captured.err and captured.out == "", argv


@pytest.mark.parametrize("argv, name", [
    (["verify", "--g-size", "-1"], "g_size"),
    (["verify", "--g-size", "0"], "g_size"),
    (["verify", "--n-bits", "-2"], "n_bits"),
    (["verify", "--n-bits", "0"], "n_bits"),  # was a 0-feature testbed
], ids=["negative_g_size", "zero_g_size", "negative_n_bits", "zero_n_bits"])
def test_exit_code_bound_verify_sizes(argv, name, capsys):
    assert main(["bound"] + argv + ["--a", "10", "--trials", "1"]) == 4
    captured = capsys.readouterr()
    assert f"BoundError): {name} must be an int >= 1" in captured.err
    assert captured.out == ""


def test_exit_code_bound_verify_class_too_large(monkeypatch, capsys):
    """|G| above 10^4 fails before any scorer is built."""
    monkeypatch.setattr(cli_mod.bounds_mod, "ThresholdScorerClass", None)
    assert main(["bound", "verify", "--g-size", "10001", "--a", "10",
                 "--trials", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.err == (
        "error (BoundError): |G| = 10001 scorers on 1024 inputs is too "
        "large to enumerate: at most 2^16 inputs and 10^4 scorers\n")
    assert captured.out == ""


def _argv_reading(flag, path, teacher_ckpt, workspace, tmp_path):
    """A command line that reads ``path`` through ``flag``, with valid
    files for its other flags."""
    files = {"--config": workspace / "teacher.cfg",
             "--data": workspace / "train.tsv",
             "--dev": workspace / "dev.tsv",
             "--out": tmp_path / "out.ckpt"}
    command = {"--model": "eval", "--teacher": "distill", "--grid": "sweep",
               "--augmented": "distill"}.get(flag, "train-teacher")
    if command == "eval":
        files = {"--data": workspace / "dev.tsv"}
    if command == "distill":
        files.update({"--config": workspace / "student.cfg",
                      "--teacher": teacher_ckpt})
    if command == "sweep":
        files.pop("--config")
        files.update({"--teacher": teacher_ckpt, "--out": tmp_path / "sweep"})
    files[flag] = path
    argv = [command] + [str(v) for kv in files.items() for v in kv]
    if command == "distill":
        argv += ["--variant", "ft"]
    return argv


@pytest.mark.parametrize("flag, path, code, error", [
    ("--config", "nowhere.cfg", 6, "ConfigError"),
    ("--data", "nowhere.tsv", 2, "DataError"),
    ("--dev", "nowhere.tsv", 2, "DataError"),
    ("--model", "nowhere.ckpt", 3, "CheckpointError"),
    ("--teacher", "nowhere.ckpt", 3, "CheckpointError"),
    ("--grid", "nowhere.cfg", 6, "ConfigError"),
    ("--augmented", "nowhere.tsv", 2, "DataError"),
])
def test_exit_code_missing_file(flag, path, code, error, teacher_ckpt,
                                workspace, tmp_path, capsys):
    missing = tmp_path / path
    assert main(_argv_reading(flag, missing, teacher_ckpt, workspace,
                              tmp_path)) == code
    err = capsys.readouterr().err
    assert f"{error}): {missing}: cannot read: No such file" in err
    assert not (tmp_path / "out.ckpt").exists()


@pytest.mark.parametrize("flag, code, error", [
    ("--config", 6, "ConfigError"),
    ("--data", 2, "DataError"),
    ("--dev", 2, "DataError"),
    ("--grid", 6, "ConfigError"),
    ("--augmented", 2, "DataError"),
])
def test_exit_code_file_not_utf8(flag, code, error, teacher_ckpt, workspace,
                                 tmp_path, capsys):
    """A file that starts with the byte 0xff exits with the file's error
    code and names it, not exit 1 with the codec's message."""
    bad = tmp_path / "latin.txt"
    bad.write_bytes(b"\xff" + (workspace / "dev.tsv").read_bytes())
    assert main(_argv_reading(flag, bad, teacher_ckpt, workspace,
                              tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.err == (f"error ({error}): {bad}: not UTF-8 text: cannot "
                            "decode byte 0xff (invalid start byte)\n")
    assert not (tmp_path / "out.ckpt").exists()


@pytest.mark.parametrize("command", ["train-teacher", "eval"])
def test_exit_code_tsv_empty_label(command, teacher_ckpt, workspace, tmp_path,
                                   capsys):
    """train-teacher rejects a blank label cell as eval does, rather than
    training with '' as a class."""
    data = tmp_path / "blank.tsv"
    lines = (workspace / "train.tsv").read_text().splitlines()
    text = lines[-1].split("\t")[0]
    data.write_text("\n".join(lines[:-1] + [text + "\t"]) + "\n")
    argv = (["train-teacher", "--config", str(workspace / "teacher.cfg"),
             "--dev", str(workspace / "dev.tsv"),
             "--out", str(tmp_path / "t.ckpt")]
            if command == "train-teacher"
            else ["eval", "--model", str(teacher_ckpt)])
    assert main(argv + ["--data", str(data)]) == 2
    assert capsys.readouterr().err == (f"error (DataError): {data}: line "
                                       f"{len(lines)}: empty label\n")
    assert not (tmp_path / "t.ckpt").exists()


@pytest.mark.parametrize("command, drop, add, needle", [
    ("train-teacher", "model.hidden_dim=16", "",
     "must set model.hidden_dim\n"),
    ("train-teacher", "model.max_seq_len", "",
     "must set model.max_seq_len\n"),
    ("train-teacher", "model.", "",
     "must set model.num_layers, model.hidden_dim, model.num_heads, "
     "model.ffn_dim, model.max_seq_len\n"),
    ("train-teacher", "", "model.num_heads=3",
     "hidden_dim 16 not divisible by num_heads 3"),
    ("train-teacher", "", "model.max_seq_len=2",
     "model.max_seq_len must be an int >= 3, got 2\n"),
    ("distill", "", "model.dropout_rate=1.5",
     "model.dropout_rate must be in [0, 1), got 1.5"),
    ("distill", "model.num_layers", "", "must set model.num_layers"),
    ("distill", "", "model.num_layers=5", "student depth 5 exceeds teacher 2"),
    ("distill", "", "model.hidden_dim=32", "teacher/student hidden_dim differ"),
], ids=["no_hidden_dim", "no_max_seq_len", "no_model_keys",
        "indivisible_heads", "short_max_seq_len", "student_dropout",
        "student_no_depth", "student_deeper_than_teacher",
        "student_other_width"])
def test_exit_code_model_keys(command, drop, add, needle, teacher_ckpt,
                              workspace, tmp_path, capsys):
    source = workspace / ("teacher.cfg" if command == "train-teacher"
                          else "student.cfg")
    lines = [line for line in source.read_text().splitlines()
             if not drop or not line.startswith(drop)]
    if add:
        lines = [line for line in lines
                 if not line.startswith(add.split("=")[0] + "=")] + [add]
    cfg = tmp_path / "model.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    argv = [command, "--config", str(cfg),
            "--data", str(workspace / "train.tsv"),
            "--dev", str(workspace / "dev.tsv"),
            "--out", str(tmp_path / "x.ckpt")]
    if command == "distill":
        argv += ["--teacher", str(teacher_ckpt), "--variant", "ft"]
    assert main(argv) == 6
    err = capsys.readouterr().err
    assert err.startswith(f"error (ConfigError): {cfg}: ")
    assert needle in err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("line, needle", [
    ("mystery_key=1", "unknown config key"),
    # removed options must fail loudly, not be ignored
    ("mixup.pairing_mode=independent_extra", "unknown config key"),
    ("shared_teacher_embeddings=1", "unknown config key"),
    ("optimizer=adam", "unknown config key"),
    ("adam_eps=1e-8", "unknown config key"),
    ("mixup.seed=0", "unknown config key"),
    # the vocabulary and the labels fix these
    ("model.vocab_size=10", "unknown config key"),
    ("model.num_classes=3", "unknown config key"),
    ("seed=-1", "seed must be an int >= 0, got -1"),
    ("eval_every=-1", "eval_every must be an int >= 0, got -1"),
    # NaN fails every comparison, so each check states the accepted range
    ("loss.alpha_sm=nan", "loss.alpha_sm must be finite and nonnegative"),
    ("loss.alpha_sm=inf", "loss.alpha_sm must be finite and nonnegative"),
    ("loss.alpha_tmkd=nan", "loss.alpha_tmkd must be finite and nonnegative"),
    ("learning_rate=nan", "learning_rate must be finite and positive"),
    ("learning_rate=inf", "learning_rate must be finite and positive"),
    ("mixup.beta_alpha=nan", "beta_alpha must be finite and positive"),
    ("mixup.beta_alpha=inf", "beta_alpha must be finite and positive"),
    ("loss.temperature=nan", "temperature must be finite and positive"),
    ("loss.temperature=inf", "temperature must be finite and positive"),
], ids=["mystery_key", "removed_mixup_key", "removed_train_key",
        "removed_optimizer", "removed_adam_eps", "removed_mixup_seed",
        "derived_vocab_size", "derived_num_classes", "negative_seed",
        "negative_eval_every", "nan_alpha_sm", "inf_alpha_sm",
        "nan_alpha_tmkd", "nan_learning_rate", "inf_learning_rate",
        "nan_beta_alpha", "inf_beta_alpha", "nan_temperature",
        "inf_temperature"])
def test_exit_code_config_error(line, needle, workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = main(["train-teacher", "--config", str(cfg),
                 "--data", str(workspace / "train.tsv"),
                 "--out", str(tmp_path / "x.ckpt")])
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith(f"error (ConfigError): {cfg}: ")
    assert needle in err


@pytest.mark.parametrize("error, code, printed", [
    (RuntimeError, 1, "error: planted\n"),
    (ValueError, 6, "error (ConfigError): {cfg}: planted\n"),
    (MixupError, 6, "error (ConfigError): {cfg}: planted\n"),
])
def test_config_constructor_errors(error, code, printed, workspace, tmp_path,
                                   monkeypatch, capsys):
    """Only the errors a config constructor raises on bad values become a
    ConfigError (exit 6); any other exception there is a bug (exit 1)."""
    def planted(self):
        raise error("planted")
    monkeypatch.setattr(LossWeights, "__post_init__", planted)
    cfg = workspace / "teacher.cfg"
    assert main(["train-teacher", "--config", str(cfg),
                 "--data", str(workspace / "train.tsv"),
                 "--out", str(tmp_path / "x.ckpt")]) == code
    assert capsys.readouterr().err == printed.format(cfg=cfg)
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("argv, name", [
    (["sweep", "alpha_sm_values=abc"], "alpha_sm_values"),
    (["sweep", "alpha_sm_values="], "alpha_sm_values"),
    # each cell's config is checked before the teacher loads
    (["sweep", "alpha_sm_values=-1"],
     "grid.cfg: alpha_sm_values: alpha_sm must be finite and nonnegative"),
    (["sweep", "alpha_tmkd_values=1.0,nan"],
     "grid.cfg: alpha_tmkd_values: alpha_tmkd must be finite and "
     "nonnegative"),
    (["sweep", "mixup_ratio_values=-1"],
     "grid.cfg: mixup_ratio_values: mixup_ratio must be an int >= 0"),
    (["seeds", "--seeds", "a,b"], "--seeds"),
    (["seeds", "--seeds", "0"], "--seeds"),
    (["seeds", "--seeds=-1,2"], "--seeds"),
    (["seeds", "--seeds", "0,1,0"], "--seeds: seed 0 is repeated"),
    (["distill", "--fraction", "0"], "--fraction"),
    (["distill", "--fraction", "nan"], "--fraction"),
    (["distill", "--fraction", "1.5"], "--fraction"),
    (["export-embeddings", "--mixup-ratio", "-1"], "--mixup-ratio"),
    (["bench", "--measured-batches", "0"], "--measured-batches"),
    (["eval", "--batch-size", "0"], "--batch-size"),
    (["eval", "--batch-size", "-4"], "--batch-size"),
    (["export-embeddings", "--n", "0"], "--n"),
    (["export-embeddings", "--n", "-3"], "--n"),
    (["bench", "--batch-size", "0"], "--batch-size"),
    (["bench", "--batch-size", "-2"], "--batch-size"),
    (["bench", "--warmup", "-1"], "--warmup"),
    (["export-embeddings", "--seed", "-1"], "--seed"),
    (["bound", "verify", "--seed", "-1"], "--seed"),
    # text that is not a number: argparse's int and float, and a Range
    (["bound", "verify", "--a", "abc"], "--a: invalid int value: 'abc'"),
    (["bound", "verify", "--delta", "x"], "--delta: invalid float value"),
    (["eval", "--batch-size", "abc"],
     "--batch-size: must be an int >= 1, got 'abc'"),
    (["export-embeddings", "--n", "1.5"],
     "--n: must be an int >= 1, got '1.5'"),
    (["bench", "--warmup", ""], "--warmup: must be an int >= 0, got ''"),
], ids=["sweep_not_a_number", "sweep_empty_list", "sweep_negative_alpha_sm",
        "sweep_nan_alpha_tmkd", "sweep_negative_ratio", "seeds_not_a_number",
        "seeds_single", "seeds_negative", "seeds_repeated",
        "distill_zero_fraction", "distill_nan_fraction",
        "distill_fraction_above_1", "export_negative_ratio",
        "bench_zero_batches", "eval_zero_batch", "eval_negative_batch",
        "export_zero_n", "export_negative_n", "bench_zero_batch",
        "bench_negative_batch", "bench_negative_warmup",
        "export_negative_seed", "verify_negative_seed", "verify_a_not_int",
        "verify_delta_not_float", "eval_batch_not_int", "export_n_not_int",
        "bench_warmup_empty"])
def test_exit_code_bad_numbers(argv, name, teacher_ckpt, workspace, tmp_path,
                               capsys):
    command = argv[0]
    data = ["--data", str(workspace / "train.tsv")]
    if command == "sweep":
        values = {"alpha_sm_values": "1.0", "alpha_tmkd_values": "1.0",
                  "mixup_ratio_values": "1"}
        key, value = argv[1].split("=", 1)
        values[key] = value
        grid = tmp_path / "grid.cfg"
        grid.write_text(STUDENT_CFG + "".join(f"{k}={v}\n"
                                              for k, v in values.items()))
        argv = ["sweep", "--grid", str(grid)]
    required = {
        "sweep": ["--teacher", str(teacher_ckpt),
                  "--out", str(tmp_path / "sweep")] + data,
        "seeds": ["--config", str(workspace / "student.cfg"),
                  "--teacher", str(teacher_ckpt), "--variant", "ft"] + data,
        "distill": ["--config", str(workspace / "student.cfg"),
                    "--teacher", str(teacher_ckpt), "--variant", "ft",
                    "--out", str(tmp_path / "s.ckpt")] + data,
        "export-embeddings": ["--model", str(teacher_ckpt),
                              "--out", str(tmp_path / "feats.csv")] + data,
        "bench": ["--model", str(teacher_ckpt)],
        "eval": ["--model", str(teacher_ckpt)] + data,
        "bound": ["--trials", "1"],
    }
    code = main(argv + required[command])
    assert code == 6
    assert name in capsys.readouterr().err
    assert not (tmp_path / "feats.csv").exists()
    assert not (tmp_path / "s.ckpt").exists()


@pytest.mark.parametrize("argv, message", [
    (["eval", "--model", "m.ckpt", "--data", "d.tsv", "--bogus", "1"],
     "mixkd eval: unrecognized arguments: --bogus 1"),
    (["eval", "--data", "d.tsv"],
     "mixkd eval: the following arguments are required: --model"),
    (["distill", "--config", "s.cfg", "--teacher", "t.ckpt", "--variant",
      "sm_tmkd", "--data", "d.tsv", "--out", "s.ckpt"],
     "mixkd distill: argument --variant: invalid choice: 'sm_tmkd'"),
    (["bound", "thm4"], "mixkd bound: argument which: invalid choice: 'thm4'"),
    (["bound"], "mixkd bound: the following arguments are required: which"),
    ([], "mixkd: the following arguments are required: command"),
], ids=["unknown_flag", "missing_flag", "bad_choice", "bad_calculator",
        "no_calculator", "no_command"])
def test_exit_code_usage_error(argv, message, capsys):
    """A usage error is a ConfigError (exit 6) naming the flag, not
    argparse's exit 2, which the data errors use."""
    assert main(argv) == 6
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error (ConfigError): {message}")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [[], ["bound"], ["bound", "verify"]],
                         ids=["mixkd", "bound", "verify"])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ["-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(
        " ".join(["usage: mixkd"] + argv))


@pytest.mark.parametrize("argv, flags", [
    (["verify", "--g-cardinality", "16", "--a", "20", "--trials", "5",
      "--n-bits", "4"], "--g-cardinality 16"),
    (["thm2", "--g-cardinality", "5", "--n-bits", "3"],
     "--g-cardinality 5 --n-bits 3"),
    (["hoeffding", "--a", "10"], "--a 10"),
    (["thm1", "--lipschitz", "2"], "--lipschitz 2"),
    (["thm3", "--a", "10", "--m", "2"], "--m 2"),
    # not an abbreviation of --n-bits
    (["verify", "--a", "10", "--n", "5"], "--n 5"),
], ids=["verify", "thm2", "hoeffding", "thm1", "thm3", "verify_prefix"])
def test_bound_rejects_flags_its_calculator_does_not_read(argv, flags,
                                                          capsys):
    """Each calculator parses only the flags it reads, so a flag meant
    for another one fails instead of being ignored, and the message names
    the calculator."""
    assert main(["bound"] + argv) == 6
    captured = capsys.readouterr()
    assert captured.err == (f"error (ConfigError): mixkd bound {argv[0]}: "
                            f"unrecognized arguments: {flags}\n")
    assert captured.out == ""

