"""Metrics, export format, throughput reporting, sweeps, config files."""

import csv
import dataclasses
import json
import threading

import numpy as np
import pytest

from mixkd import autodiff as ad
from mixkd import evaluation, model, synthetic
from mixkd.config import ConfigError, load_config, parse_kv_file
from mixkd.data import DataError, make_batch
from mixkd.distill import LossWeights, TrainConfig
from mixkd.evaluation import (SweepGrid, compute_metrics, evaluate,
                              export_cls_features, sweep_grid,
                              throughput_bench)
from mixkd.mixup import MixupConfig, MixupPairs
from mixkd.model import ModelConfig, forward_tokens, init_random


def test_compute_metrics_accuracy():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.5]])
    labels = np.eye(2)[[0, 1, 1]]
    m = compute_metrics(logits, labels)
    assert m.accuracy == pytest.approx(2 / 3)
    assert m.n_eval == 3
    assert m.f1 is None


def test_compute_metrics_f1():
    logits = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    labels = np.eye(2)[[1, 0, 1, 0]]
    m = compute_metrics(logits, labels, positive_class=1)
    # tp=1 fp=1 fn=1 -> f1 = 2/4
    assert m.f1 == pytest.approx(0.5)
    assert not m.f1_degenerate


def test_compute_metrics_f1_degenerate():
    logits = np.array([[1.0, 0.0]])
    labels = np.eye(2)[[0]]
    m = compute_metrics(logits, labels, positive_class=1)
    assert m.f1 == 0.0 and m.f1_degenerate


def test_compute_metrics_shape_mismatch():
    with pytest.raises(ValueError):
        compute_metrics(np.zeros((2, 2)), np.zeros((3, 2)))


@pytest.fixture(scope="module")
def task_params(small_model_config):
    return init_random(small_model_config, seed=0)


def test_evaluate_matches_manual(task_params, small_task):
    examples = small_task.train[:10]
    m = evaluate(task_params, examples, small_task.vocab, small_task.max_len,
                 2, batch_size=4)
    batch = make_batch(examples, small_task.vocab, small_task.max_len, 2)
    logits = forward_tokens(task_params, batch).data
    manual = compute_metrics(logits, batch.labels_onehot)
    assert m.accuracy == pytest.approx(manual.accuracy)
    assert m.n_eval == 10


def test_evaluate_rejects_empty_split(task_params, small_task):
    with pytest.raises(DataError, match="no examples to evaluate"):
        evaluate(task_params, [], small_task.vocab, small_task.max_len, 2)


def test_evaluate_logits_bitwise_equal_graph_forward(monkeypatch, task_params,
                                                     small_task):
    seen = []

    def spy(params, batch, **kwargs):
        out = forward_tokens(params, batch, **kwargs)
        seen.append((batch, out))
        return out
    monkeypatch.setattr(evaluation, "forward_tokens", spy)
    evaluate(task_params, small_task.dev[:10], small_task.vocab,
             small_task.max_len, 2, batch_size=4)
    assert len(seen) == 3
    for batch, out in seen:
        assert out._inputs == () and out._vjp is None  # no graph kept
        graph = forward_tokens(task_params, batch)
        assert graph._inputs
        assert np.array_equal(out.data, graph.data)


def test_export_cls_features_format(task_params, small_task, tmp_path):
    out = tmp_path / "feats.csv"
    examples = small_task.train[:4]
    pairs = MixupPairs([0, 2], [1, 3], [0.3, 0.8])
    n = export_cls_features(task_params, examples, small_task.vocab,
                            small_task.max_len, 2, pairs, out)
    assert n == 6
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:5] == ["id", "parent_i", "parent_j", "lambda", "soft_label"]
    assert header[5:] == [f"f{i}" for i in range(16)]
    # originals carry lambda 1 and a one-hot soft label
    for row in rows[1:5]:
        assert float(row[3]) == 1.0
        assert sorted(float(v) for v in row[4].split(";")) == [0.0, 1.0]
    assert float(rows[5][3]) == pytest.approx(0.3)
    assert (rows[5][1], rows[5][2]) == ("0", "1")


def test_export_lambda_one_feature_identity(task_params, small_task,
                                            tmp_path):
    # with an equal-length parent pair, lambda = 1 reproduces the parent
    examples = [ex for ex in small_task.train
                if len(ex.text_a.split()) == len(
                    small_task.train[0].text_a.split())][:2]
    assert len(examples) == 2
    out = tmp_path / "f.csv"
    export_cls_features(task_params, examples, small_task.vocab,
                        small_task.max_len, 2, MixupPairs([0], [1], [1.0]), out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    original = np.array([float(v) for v in rows[1][5:]])
    mixed = np.array([float(v) for v in rows[3][5:]])
    np.testing.assert_allclose(mixed, original, atol=1e-9)


def test_export_cls_features_split_is_byte_identical(tmp_path, monkeypatch):
    """20 originals and 40 mixed rows at T=64 both take the two-thread
    split, in blocks; a one-CPU run of the same export runs the blocks in
    order, and one block of every row is the serial forward."""
    task = synthetic.make_task(n_train=20, n_dev=2, seq_min=32, seq_max=62,
                               seed=5)
    config = ModelConfig(num_layers=4, hidden_dim=64, num_heads=4, ffn_dim=128,
                         vocab_size=task.vocab.size, max_seq_len=task.max_len,
                         num_classes=2)
    params = init_random(config, seed=5)
    pairs = MixupPairs(np.arange(40) % 20, (np.arange(40) * 7 + 3) % 20,
                       np.linspace(0.05, 0.95, 40))
    threads, real = [], ad.gelu

    def spy(x):
        threads.append(threading.current_thread().name)
        return real(x)
    monkeypatch.setattr(ad, "gelu", spy)
    out = {}
    for cpus, block_rows in ((2, 512), (1, 512), (1, 10 ** 9)):
        monkeypatch.setattr(model, "_cpus", lambda cpus=cpus: cpus)
        monkeypatch.setattr(model, "_BLOCK_ROWS", block_rows)
        threads.clear()
        path = tmp_path / f"feats{cpus}_{block_rows}.csv"
        assert export_cls_features(params, task.train, task.vocab,
                                   task.max_len, 2, pairs, path) == 60
        out[cpus, block_rows] = path.read_bytes()
        assert any(t.startswith("mixkd-forward") for t in threads) == (
            cpus == 2)
        # gelu runs once per layer and block: the 20 originals (1280 rows)
        # and the 40 mixed rows (2560) run 2 + 2 and 3 + 3 blocks in two
        # threads, 3 and 5 in one, or one block each
        blocks = {(2, 512): 10, (1, 512): 8, (1, 10 ** 9): 2}
        assert len(threads) == 4 * blocks[cpus, block_rows]
    assert out[2, 512] == out[1, 512] == out[1, 10 ** 9]


def test_throughput_bench_reports(tiny_params, tiny_config):
    report = throughput_bench(tiny_params, tiny_config.vocab_size,
                              tiny_config.max_seq_len, batch_size=4,
                              warmup=1, measured_batches=2)
    assert report["samples_per_second"] > 0
    assert report["param_count"] == tiny_params.param_count()
    with pytest.raises(ValueError):
        throughput_bench(tiny_params, 20, 6, measured_batches=0)


def test_sweep_grid_runs_and_writes(small_task, small_model_config, tmp_path):
    teacher = init_random(small_model_config, seed=0)
    student_config = dataclasses.replace(small_model_config, num_layers=1)
    base = TrainConfig(epochs=1, batch_size=64, seed=0)
    grid = SweepGrid(alpha_sm_values=[0.5, 1.0], alpha_tmkd_values=[1.0],
                     mixup_ratio_values=[1], base=base)
    results = sweep_grid(grid, student_config, small_task, teacher,
                         out_dir=tmp_path)
    assert len(results) == 2
    assert all(c["error"] is None for c in results)
    assert all(0.0 <= c["dev_accuracy"] <= 1.0 for c in results)
    table = (tmp_path / "grid.tsv").read_text().splitlines()
    assert table[0].startswith("alpha_sm\t")
    assert len(table) == 3
    cells = json.loads((tmp_path / "grid.json").read_text())
    assert cells[0]["alpha_sm"] == 0.5


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid([], [1.0], [1], TrainConfig())


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_parse_kv_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nepochs = 3\n\nseed=7\n")
    assert parse_kv_file(path) == {"epochs": "3", "seed": "7"}


def test_parse_kv_file_errors(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("epochs 3\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_kv_file(path)
    path.write_text("seed=1\nseed=2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_file(path)


def test_load_config_full(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "epochs=2\nbatch_size=16\nlearning_rate=0.01\noptimizer=sgd\n"
        "mixup.beta_alpha=0.2\nmixup.mixup_ratio=2\n"
        "loss.alpha_sm=0.5\nloss.temperature=3.0\n"
        "model.num_layers=1\nvocab.min_freq=2\n")
    config, model_kwargs, vocab_kwargs = load_config(path)
    assert config.epochs == 2 and config.optimizer == "sgd"
    assert config.mixup.beta_alpha == 0.2
    assert config.mixup.mixup_ratio == 2
    assert config.loss.alpha_sm == 0.5
    assert config.loss.temperature == 3.0
    assert model_kwargs == {"num_layers": 1}
    assert vocab_kwargs == {"min_freq": 2}


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    for key in ("nonsense", "mixup.nope", "model.nope"):
        path.write_text(f"{key}=1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)


# a non-default value for every scalar field of the config dataclasses
CONFIG_VALUES = {
    TrainConfig: ("", {"epochs": 5, "batch_size": 7, "learning_rate": 0.25,
                       "optimizer": "sgd", "adam_beta1": 0.5,
                       "adam_beta2": 0.75, "adam_eps": 1e-6, "seed": 11,
                       "eval_every": 3}),
    MixupConfig: ("mixup.", {"beta_alpha": 0.3, "mixup_ratio": 3, "seed": 9}),
    LossWeights: ("loss.", {"alpha_sm": 0.5, "alpha_tmkd": 2.5,
                            "distance_metric": "temperature_ce",
                            "temperature": 4.0}),
    ModelConfig: ("model.", {"num_layers": 2, "hidden_dim": 12,
                             "num_heads": 3, "ffn_dim": 20, "vocab_size": 30,
                             "max_seq_len": 9, "num_classes": 4,
                             "dropout_rate": 0.2}),
}


def test_load_config_every_dataclass_field(tmp_path):
    lines = []
    for cls, (prefix, values) in CONFIG_VALUES.items():
        scalar = {f.name for f in dataclasses.fields(cls)} - {"mixup", "loss"}
        assert set(values) == scalar, cls.__name__
        lines += [f"{prefix}{name}={value}" for name, value in values.items()]
    path = tmp_path / "c.cfg"
    path.write_text("\n".join(lines + ["vocab.min_freq=2",
                                       "vocab.max_size=50"]) + "\n")
    config, model_kwargs, vocab_kwargs = load_config(path)
    built = {TrainConfig: config, MixupConfig: config.mixup,
             LossWeights: config.loss, ModelConfig: ModelConfig(**model_kwargs)}
    for cls, (_, values) in CONFIG_VALUES.items():
        for name, value in values.items():
            got = getattr(built[cls], name)
            assert type(got) is type(value) and got == value, (cls, name)
    assert vocab_kwargs == {"min_freq": 2, "max_size": 50}


def test_load_config_bad_value(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("epochs=three\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_load_config_invalid_combination(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("optimizer=rmsprop\n")
    with pytest.raises(ConfigError):
        load_config(path)
