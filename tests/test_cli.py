"""End-to-end command-line flows on a miniature task."""

import csv
import json
import struct
import warnings

import pytest

from mixkd import synthetic
from mixkd.cli import main

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


def test_exit_code_checkpoint_error(workspace, tmp_path, capsys):
    bogus = tmp_path / "bogus.ckpt"
    bogus.write_bytes(b"not a checkpoint at all")
    code = main(["eval", "--model", str(bogus),
                 "--data", str(workspace / "dev.tsv")])
    assert code == 3


def _manifest(raw):
    """(manifest dict, offset of the array data) of checkpoint bytes."""
    (mlen,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + mlen]), 12 + mlen


def test_exit_code_non_finite_checkpoint(teacher_ckpt, workspace, tmp_path,
                                         capsys):
    raw = bytearray(teacher_ckpt.read_bytes())
    manifest, base = _manifest(raw)
    entry = next(e for e in manifest["arrays"]
                 if e["name"] == "layers.0.ffn.w1")
    start = base + entry["offset"] + 4 * 7
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
    offsets.update({e["name"]: base + e["offset"] for e in manifest["arrays"]})
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


def _drop_config_field(manifest):
    del manifest["config"]["num_heads"]


def _drop_arrays(manifest):
    del manifest["arrays"]


def _duplicate_tok_emb(manifest):
    manifest["arrays"].append(dict(manifest["arrays"][0]))


def _odd_byte_count(manifest):
    manifest["arrays"][0]["nbytes"] -= 1


def _drop_digest(manifest):
    del manifest["sha256"]


@pytest.mark.parametrize("edit, needle", [
    (_drop_config_field, "num_heads"),
    (_drop_arrays, "arrays"),
    (_duplicate_tok_emb, "tok_emb"),
    (_odd_byte_count, "tok_emb"),
    (_drop_digest, "has no sha256 digest"),
], ids=["missing_config_field", "missing_arrays", "duplicate_array",
        "odd_byte_count", "missing_digest"])
def test_exit_code_bad_manifest(edit, needle, teacher_ckpt, workspace,
                                tmp_path, capsys):
    raw = teacher_ckpt.read_bytes()
    manifest, base = _manifest(raw)
    assert manifest["arrays"][0]["name"] == "tok_emb"
    edit(manifest)
    mbytes = json.dumps(manifest).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(mbytes)) + mbytes
                    + raw[base:])
    code = main(["eval", "--model", str(bad),
                 "--data", str(workspace / "dev.tsv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "CheckpointError" in err and needle in err


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
            (["thm1", "--g-cardinality", "0"], "|G|"),
            (["thm1", "--m", "-1"], "M must"),
            (["thm1", "--delta", "2"], "delta"),
            (["verify", "--a", "10", "--b-mix", "-3", "--trials", "1"],
             "b_mix"),
            (["thm2", "--lipschitz", "-1", "--rademacher", "0.1"],
             "lipschitz"),
            (["thm2", "--rademacher", "-0.1"], "rademacher_r"),
            (["thm3", "--log-capacity", "-5", "--a", "1000", "--epsilon",
              "0.9"], "log_capacity")]:
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
    assert main(["bound"] + argv + ["--trials", "1"]) == 4
    captured = capsys.readouterr()
    assert f"BoundError): {name} must be >= 1" in captured.err
    assert captured.out == ""


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
    missing = tmp_path / path
    files[flag] = missing
    argv = [command] + [str(v) for kv in files.items() for v in kv]
    if command == "distill":
        argv += ["--variant", "ft"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert f"{error}): {missing}: cannot read: No such file" in err
    assert not (tmp_path / "out.ckpt").exists()


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
    ("distill", "", "model.dropout_rate=1.5",
     "dropout_rate must lie in [0, 1)"),
    ("distill", "model.num_layers", "", "must set model.num_layers"),
    ("distill", "", "model.num_layers=5", "student depth 5 exceeds teacher 2"),
    ("distill", "", "model.hidden_dim=32", "teacher/student hidden_dim differ"),
], ids=["no_hidden_dim", "no_max_seq_len", "no_model_keys",
        "indivisible_heads", "student_dropout", "student_no_depth",
        "student_deeper_than_teacher", "student_other_width"])
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


@pytest.mark.parametrize("line", [
    "mystery_key=1",
    # removed options must fail loudly, not be ignored
    "mixup.pairing_mode=independent_extra",
    "shared_teacher_embeddings=1",
], ids=["mystery_key", "removed_mixup_key", "removed_train_key"])
def test_exit_code_config_error(line, workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = main(["train-teacher", "--config", str(cfg),
                 "--data", str(workspace / "train.tsv"),
                 "--out", str(tmp_path / "x.ckpt")])
    assert code == 6
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["sweep", "alpha_sm_values=abc"], "alpha_sm_values"),
    (["sweep", "alpha_sm_values="], "alpha_sm_values"),
    (["seeds", "--seeds", "a,b"], "--seeds"),
    (["seeds", "--seeds", "0"], "--seeds"),
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
], ids=["sweep_not_a_number", "sweep_empty_list", "seeds_not_a_number",
        "seeds_single", "export_negative_ratio", "bench_zero_batches",
        "eval_zero_batch", "eval_negative_batch", "export_zero_n",
        "export_negative_n", "bench_zero_batch", "bench_negative_batch",
        "bench_negative_warmup", "export_negative_seed",
        "verify_negative_seed"])
def test_exit_code_bad_numbers(argv, name, teacher_ckpt, workspace, tmp_path,
                               capsys):
    command = argv[0]
    data = ["--data", str(workspace / "train.tsv")]
    if command == "sweep":
        grid = tmp_path / "grid.cfg"
        grid.write_text(STUDENT_CFG + argv[1] + "\n"
                        "alpha_tmkd_values=1.0\nmixup_ratio_values=1\n")
        argv = ["sweep", "--grid", str(grid)]
    required = {
        "sweep": ["--teacher", str(teacher_ckpt),
                  "--out", str(tmp_path / "sweep")] + data,
        "seeds": ["--config", str(workspace / "student.cfg"),
                  "--teacher", str(teacher_ckpt), "--variant", "ft"] + data,
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
