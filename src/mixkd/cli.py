"""Command-line surface: training, distillation, evaluation, export,
benchmarking, sweeps, and bound calculators."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from . import bounds as bounds_mod
from .config import ConfigError, config_from_pairs, load_config, parse_kv_file
from .data import (DataError, Schema, Vocab, build_vocab, load_tsv,
                   merge_augmented, subsample)
from .distill import (TaskData, TrainingDiverged, distill_student, run_seeds,
                      train_teacher)
from .evaluation import (SweepGrid, evaluate, export_cls_features, sweep_grid,
                         throughput_bench)
from .mixup import MixupConfig, make_pairs
from .model import (CheckpointError, ModelConfig, check_student_config,
                    load_checkpoint, save_checkpoint)

EXIT_CODES = {
    DataError: 2,
    CheckpointError: 3,
    bounds_mod.BoundError: 4,
    TrainingDiverged: 5,
    ConfigError: 6,
}

VARIANT_MAP = {"ft": "ft", "tmkd": "tmkd", "sm-tmkd": "sm_tmkd"}
GRID_KEYS = {"alpha_sm_values": float, "alpha_tmkd_values": float,
             "mixup_ratio_values": int}


def _vocab_extra(vocab: Vocab, label_names, max_len: int) -> dict:
    return {"vocab": vocab.id_to_token, "labels": list(label_names),
            "max_len": max_len}


def _task_from_extra(extra: dict) -> tuple[Vocab, list, int]:
    try:
        vocab = Vocab({tok: i for i, tok in enumerate(extra["vocab"])})
        return vocab, list(extra["labels"]), int(extra["max_len"])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint lacks dataset metadata: {exc}") from exc


def _parse_list(raw: str, convert, name: str) -> list:
    """A comma-separated list of ``convert`` values; ``name`` is the flag or
    key it came from."""
    try:
        return [convert(v) for v in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{name}: bad comma-separated list {raw!r}") from exc


def _check_at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise ConfigError(f"{flag} must be >= {low}, got {value}")


def _model_config(source, teacher=None, **model_kwargs) -> ModelConfig:
    """The model that config file ``source``'s model.* keys describe: a
    new one, or a student, the ``teacher``'s config with those keys
    replaced.  A missing key, an invalid value or a student that cannot
    copy the teacher's layers is a ConfigError naming the file."""
    if teacher is None:
        missing = [f"model.{f.name}" for f in fields(ModelConfig)
                   if f.default is MISSING and f.name not in model_kwargs]
        if missing:
            raise ConfigError(f"{source}: must set {', '.join(missing)}")
    try:
        if teacher is None:
            return ModelConfig(**model_kwargs)
        student = replace(teacher, **model_kwargs)
        check_student_config(teacher, student)
        return student
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _dev_split(args, schema, train, labels) -> list:
    """The --dev examples; without --dev the best checkpoint is picked on
    the training set, and a warning on stderr says so."""
    if args.dev:
        dev, _ = load_tsv(args.dev, schema, label_names=labels)
        return dev
    print(f"warning: {args.command} without --dev selects the best "
          "checkpoint on the training set", file=sys.stderr)
    return train


def _student_task(args, config, model_kwargs: dict, source):
    """Teacher checkpoint, student ModelConfig and TaskData for the
    distillation commands; ``source`` names the config file."""
    if "num_layers" not in model_kwargs:
        raise ConfigError(f"{source}: must set model.num_layers")
    teacher, teacher_config, extra = load_checkpoint(args.teacher)
    vocab, labels, max_len = _task_from_extra(extra)
    schema = Schema.parse(args.schema)
    train, _ = load_tsv(args.data, schema, label_names=labels)
    # only distill has --fraction / --augmented
    if getattr(args, "fraction", None) is not None:
        train = subsample(train, args.fraction, seed=config.seed)
    if getattr(args, "augmented", None):
        train = merge_augmented(train, args.augmented, schema, labels)
    dev = _dev_split(args, schema, train, labels)
    dataset = TaskData(train=train, dev=dev, vocab=vocab, label_names=labels,
                       max_len=max_len)
    student_config = _model_config(source, teacher_config, **model_kwargs)
    return teacher, student_config, dataset


def _print_metrics(metrics) -> None:
    payload = {"accuracy": metrics.accuracy, "f1": metrics.f1,
               "n_eval": metrics.n_eval}
    print(json.dumps(payload))
    rows = [("metric", "value"), ("accuracy", f"{metrics.accuracy:.4f}"),
            ("n_eval", str(metrics.n_eval))]
    if metrics.f1 is not None:
        rows.append(("f1", f"{metrics.f1:.4f}"))
    width = max(len(r[0]) for r in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")


def cmd_train_teacher(args) -> int:
    config, model_kwargs, vocab_kwargs = load_config(args.config)
    schema = Schema.parse(args.schema)
    train, labels = load_tsv(args.data, schema)
    dev = _dev_split(args, schema, train, labels)
    vocab = build_vocab(train, **vocab_kwargs)
    model_kwargs.setdefault("vocab_size", vocab.size)
    model_kwargs.setdefault("num_classes", len(labels))
    model_config = _model_config(args.config, **model_kwargs)
    dataset = TaskData(train=train, dev=dev, vocab=vocab, label_names=labels,
                       max_len=model_config.max_seq_len)
    params, record = train_teacher(config, model_config, dataset)
    save_checkpoint(params, model_config, args.out,
                    extra=_vocab_extra(vocab, labels, model_config.max_seq_len))
    record.to_jsonl(str(args.out) + ".runlog.jsonl")
    print(json.dumps({"dev_accuracy": record.final_metrics["dev_accuracy"],
                      "best_step": record.best_step,
                      "out": str(args.out)}))
    return 0


def cmd_distill(args) -> int:
    config, model_kwargs, _ = load_config(args.config)
    teacher, student_config, dataset = _student_task(args, config,
                                                     model_kwargs, args.config)
    variant = VARIANT_MAP[args.variant]
    student, record = distill_student(config, student_config, dataset,
                                      teacher, variant=variant)
    save_checkpoint(student, student_config, args.out,
                    extra=_vocab_extra(dataset.vocab, dataset.label_names,
                                       dataset.max_len))
    record.to_jsonl(str(args.out) + ".runlog.jsonl")
    print(json.dumps({"variant": args.variant,
                      "dev_accuracy": record.final_metrics["dev_accuracy"],
                      "out": str(args.out)}))
    return 0


def cmd_eval(args) -> int:
    _check_at_least(args.batch_size, 1, "--batch-size")
    params, config, extra = load_checkpoint(args.model)
    vocab, labels, max_len = _task_from_extra(extra)
    schema = Schema.parse(args.schema)
    examples, _ = load_tsv(args.data, schema, label_names=labels)
    positive = None
    if args.positive_class is not None:
        if args.positive_class not in labels:
            raise DataError(f"unknown positive class {args.positive_class!r}")
        positive = labels.index(args.positive_class)
    metrics = evaluate(params, examples, vocab, max_len, len(labels),
                       batch_size=args.batch_size, positive_class=positive)
    _print_metrics(metrics)
    return 0


def cmd_export_embeddings(args) -> int:
    _check_at_least(args.n, 1, "--n")
    _check_at_least(args.mixup_ratio, 0, "--mixup-ratio")
    _check_at_least(args.seed, 0, "--seed")
    params, config, extra = load_checkpoint(args.model)
    vocab, labels, max_len = _task_from_extra(extra)
    schema = Schema.parse(args.schema)
    examples, _ = load_tsv(args.data, schema, label_names=labels)
    rng = np.random.default_rng(args.seed)

    # balanced sample across the two classes when possible
    if len(labels) == 2 and args.n >= 2:
        per = args.n // 2
        chosen = []
        for cls in (0, 1):
            pool = [i for i, ex in enumerate(examples) if ex.label_id == cls]
            take = min(per, len(pool))
            chosen += list(rng.choice(pool, size=take, replace=False))
        selected = [examples[i] for i in chosen]
    else:
        idx = rng.choice(len(examples), size=min(args.n, len(examples)),
                         replace=False)
        selected = [examples[i] for i in idx]

    cfg = MixupConfig(mixup_ratio=args.mixup_ratio)
    n_rows = export_cls_features(params, selected, vocab, max_len, len(labels),
                                 make_pairs(len(selected), cfg, rng), args.out)
    print(json.dumps({"rows": n_rows, "out": str(args.out)}))
    return 0


def cmd_bench(args) -> int:
    _check_at_least(args.batch_size, 1, "--batch-size")
    _check_at_least(args.warmup, 0, "--warmup")
    _check_at_least(args.measured_batches, 1, "--measured-batches")
    params, config, _ = load_checkpoint(args.model)
    report = throughput_bench(params, config.vocab_size, config.max_seq_len,
                              batch_size=args.batch_size,
                              warmup=args.warmup,
                              measured_batches=args.measured_batches)
    print(json.dumps(report))
    return 0


def cmd_sweep(args) -> int:
    # the grid file is a config file plus three comma-separated *_values lists
    pairs = parse_kv_file(args.grid)
    values = {}
    for key, convert in GRID_KEYS.items():
        if key not in pairs:
            raise ConfigError(f"{args.grid}: missing {key}")
        values[key] = _parse_list(pairs.pop(key), convert,
                                  f"{args.grid}: {key}")
    config, model_kwargs, _ = config_from_pairs(pairs, args.grid)
    grid = SweepGrid(base=config, **values)
    teacher, student_config, dataset = _student_task(args, config,
                                                     model_kwargs, args.grid)
    results = sweep_grid(grid, student_config, dataset, teacher,
                         out_dir=args.out)
    print(json.dumps({"cells": len(results), "out": str(args.out)}))
    return 0


def cmd_bound(args) -> int:
    which = args.which
    out: dict
    if which == "hoeffding":
        out = {"bound": bounds_mod.hoeffding_gap_bound(
            args.m, args.g_cardinality, args.delta, args.n)}
    elif which == "thm1":
        out = {"required_b": bounds_mod.thm1_required_b(
            args.m, args.g_cardinality, args.delta, args.a, args.epsilon,
            args.triangle)}
    elif which == "thm2":
        out = {"required_b": bounds_mod.thm2_required_b(
            args.m, args.delta, args.a, args.epsilon, args.triangle,
            args.lipschitz, args.rademacher)}
    elif which == "thm3":
        required_b, required_a_min = bounds_mod.thm3_required_b(
            args.delta, args.a, args.epsilon, args.triangle,
            args.log_capacity)
        out = {"required_b": required_b, "required_a_min": required_a_min}
    else:  # verify
        _check_at_least(args.seed, 0, "--seed")
        rng = np.random.default_rng(args.seed)
        testbed = bounds_mod.make_testbed(n_bits=args.n_bits, seed=args.seed)
        g_class = bounds_mod.make_scorer_class(testbed, args.g_size,
                                               seed=args.seed)
        report = bounds_mod.empirical_gap_experiment(
            testbed, g_class, a=args.a, b_mix=args.b_mix, trials=args.trials,
            delta=args.delta, rng=rng, M=args.m)
        out = report.to_dict()
    print(json.dumps(out))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2)
    return 0


def cmd_seeds(args) -> int:
    seeds = _parse_list(args.seeds, int, "--seeds")
    if len(seeds) < 2:
        raise ConfigError(f"--seeds needs at least 2 seeds, got {args.seeds!r}")
    config, model_kwargs, _ = load_config(args.config)
    teacher, student_config, dataset = _student_task(args, config,
                                                     model_kwargs, args.config)
    summary = run_seeds(config, student_config, dataset, teacher,
                        VARIANT_MAP[args.variant], seeds)
    payload = {k: v for k, v in summary.items() if k != "records"}
    print(json.dumps(payload))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixkd")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p, dev=True):
        p.add_argument("--data", required=True)
        p.add_argument("--schema", default="sentence,label")
        if dev:
            p.add_argument("--dev", default=None)

    p = sub.add_parser("train-teacher")
    p.add_argument("--config", required=True)
    add_data_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("distill")
    p.add_argument("--config", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--variant", choices=sorted(VARIANT_MAP), required=True)
    p.add_argument("--augmented", default=None)
    p.add_argument("--fraction", type=float, default=None)
    add_data_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval")
    p.add_argument("--model", required=True)
    add_data_args(p, dev=False)
    p.add_argument("--positive-class", default=None)
    p.add_argument("--batch-size", type=int, default=32)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-embeddings")
    p.add_argument("--model", required=True)
    add_data_args(p, dev=False)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--mixup-ratio", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("bench")
    p.add_argument("--model", required=True)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--measured-batches", type=int, default=10)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep")
    p.add_argument("--grid", required=True)
    p.add_argument("--teacher", required=True)
    add_data_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bound")
    p.add_argument("which", choices=["hoeffding", "thm1", "thm2", "thm3",
                                     "verify"])
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--g-cardinality", type=int, default=1)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--triangle", type=float, default=0.0)
    p.add_argument("--lipschitz", type=float, default=1.0)
    p.add_argument("--rademacher", type=float, default=0.0)
    p.add_argument("--log-capacity", type=float, default=0.0)
    p.add_argument("--b-mix", type=int, default=0)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--g-size", type=int, default=64)
    p.add_argument("--n-bits", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--variant", choices=sorted(VARIANT_MAP), required=True)
    p.add_argument("--seeds", required=True)
    add_data_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_seeds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__
                    if cls in EXIT_CODES)
    except Exception as exc:  # unexpected failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
