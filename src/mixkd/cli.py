"""Command-line surface: training, distillation, evaluation, export,
benchmarking, sweeps, and bound calculators."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from . import bounds as bounds_mod
from .config import ConfigError, config_from_pairs, load_config, parse_kv_file
from .data import (RESERVED, DataError, Schema, Vocab, build_vocab, load_tsv,
                   merge_augmented, subsample)
from .distill import (SweepGrid, TaskData, TrainingDiverged, check_seeds,
                      distill_student, grid_files, run_seeds, sweep_grid,
                      train_teacher)
from .evaluation import evaluate, export_cls_features, throughput_bench
from .mixup import MixupConfig, make_pairs
from .model import (CheckpointError, ModelConfig, OutputError,
                    check_student_config, checkpoint_bytes, load_checkpoint,
                    write_files)
from .ranges import COUNT, FRACTION, INDEX

EXIT_CODES = {
    DataError: 2,
    CheckpointError: 3,
    bounds_mod.BoundError: 4,
    TrainingDiverged: 5,
    ConfigError: 6,
    OutputError: 6,
}

VARIANT_MAP = {"ft": "ft", "tmkd": "tmkd", "sm-tmkd": "sm_tmkd"}
# each bound flag's type and default; the calculators check all but --seed
BOUND_FLAGS = {"--m": (float, 1.0), "--delta": (float, 0.05),
               "--g-cardinality": (int, 1), "--n": (int, 100),
               "--a": (int, 0), "--epsilon": (float, 0.1),
               "--triangle": (float, 0.0), "--lipschitz": (float, 1.0),
               "--rademacher": (float, 0.0), "--log-capacity": (float, 0.0),
               "--b-mix": (int, 0), "--trials": (int, 2000),
               "--g-size": (int, 64), "--n-bits": (int, 10),
               "--seed": (INDEX, 0)}


def _bound_verify(m, delta, a, b_mix, trials, g_size, n_bits, seed) -> dict:
    """``bound verify``: the gap experiment's report on the testbed and
    scorer class of ``seed``."""
    rng = np.random.default_rng(seed)
    testbed = bounds_mod.make_testbed(n_bits=n_bits, seed=seed)
    g_class = bounds_mod.make_scorer_class(testbed, g_size, seed=seed)
    return bounds_mod.empirical_gap_experiment(
        testbed, g_class, a=a, b_mix=b_mix, trials=trials, delta=delta,
        rng=rng, M=m).to_dict()


# each calculator: its function, the keys of its result (None: the
# function returns the dict), and the flags it reads, in the order of the
# function's arguments; it rejects every other flag
BOUND_CALCULATORS = {
    "hoeffding": (bounds_mod.hoeffding_gap_bound, ("bound",),
                  ("--m", "--g-cardinality", "--delta", "--n")),
    "thm1": (bounds_mod.thm1_required_b, ("required_b",),
             ("--m", "--g-cardinality", "--delta", "--a", "--epsilon",
              "--triangle")),
    "thm2": (bounds_mod.thm2_required_b, ("required_b",),
             ("--m", "--delta", "--a", "--epsilon", "--triangle",
              "--lipschitz", "--rademacher")),
    "thm3": (bounds_mod.thm3_required_b, ("required_b", "required_a_min"),
             ("--delta", "--a", "--epsilon", "--triangle", "--log-capacity")),
    "verify": (_bound_verify, None,
               ("--m", "--delta", "--a", "--b-mix", "--trials", "--g-size",
                "--n-bits", "--seed")),
}
# the calculators that need a >= 1, and so take --a with no default
BOUND_NEED_A = ("thm3", "verify")
GRID_KEYS = {"alpha_sm_values": float, "alpha_tmkd_values": float,
             "mixup_ratio_values": int}


def _vocab_extra(vocab: Vocab, label_names) -> dict:
    return {"vocab": list(vocab.id_to_token), "labels": list(label_names)}


def _load_model_and_data(path, args):
    """(params, config, vocab, labels, examples): the checkpoint at
    ``path`` with the vocabulary and label names it stores, and the
    --data examples read with those labels.  The vocabulary must start
    with the reserved tokens, at the ids that encoding uses."""
    params, config, extra = load_checkpoint(path)
    try:
        tokens, labels = extra["vocab"], extra["labels"]
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint lacks dataset metadata: "
                              f"{exc}") from exc
    for key, value, starts in (("vocab", tokens, list(RESERVED)),
                               ("labels", labels, [])):
        if not (isinstance(value, list)
                and all(isinstance(v, str) for v in value)
                and len(set(value)) == len(value)
                and value[:len(starts)] == starts):
            start = f" that starts with {starts}" if starts else ""
            raise CheckpointError(f"{path}: checkpoint {key!r} is not a list "
                                  f"of distinct strings{start}")
    vocab = Vocab({tok: i for i, tok in enumerate(tokens)})
    for what, stored, key, fixed in (
            ("vocabulary tokens", vocab.size, "vocab_size", config.vocab_size),
            ("labels", len(labels), "num_classes", config.num_classes)):
        if stored != fixed:
            raise CheckpointError(f"{path}: {stored} {what} stored, but the "
                                  f"model config has {key}={fixed}")
    examples, _ = load_tsv(args.data, Schema.parse(args.schema),
                           label_names=labels)
    return params, config, vocab, labels, examples


def _parse_list(raw: str, convert, name: str) -> list:
    """A comma-separated list of ``convert`` values; ``name`` is the flag or
    key it came from."""
    try:
        return [convert(v) for v in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{name}: bad comma-separated list {raw!r}") from exc


def _runlog(out) -> str:
    return str(out) + ".runlog.jsonl"


def _check_out(args) -> None:
    """ConfigError unless every file the command writes can be put in
    place: --out names a file in an existing directory, or for sweep a
    directory that exists or can be made in an existing one, and neither
    --out nor the runlog or grid files beside it is a directory.  Checked
    before the run, which would fail only at its end."""
    path = getattr(args, "out", None)
    if not path:
        return
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"--out {path}: directory {folder} does not exist")
    if args.command == "sweep":
        if os.path.exists(path) and not os.path.isdir(path):
            raise ConfigError(f"--out {path} exists and is not a directory")
        files = list(grid_files(path))
    elif args.command in ("train-teacher", "distill"):
        files = [path, _runlog(path)]
    else:
        files = [path]
    for file in files:
        if os.path.isdir(file):
            where = "" if file == path else f": {file}"
            raise ConfigError(f"--out {path}{where} is a directory, not a file")


def _emit(payload: dict, out) -> None:
    """Given ``out``, write ``payload`` indented to that file; then print
    it as one JSON line, so a failed write prints no result."""
    if out:
        write_files({out: json.dumps(payload, indent=2)})
    print(json.dumps(payload))


def _save_run(params, config: ModelConfig, dataset: TaskData, record, out):
    """Writes the checkpoint at ``out`` and its runlog, both or neither."""
    extra = _vocab_extra(dataset.vocab, dataset.label_names)
    write_files({out: checkpoint_bytes(params, config, extra),
                 _runlog(out): record.jsonl()})


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


def _student_task(args, config, model_kwargs: dict, vocab_kwargs: dict,
                  source):
    """Teacher checkpoint, student ModelConfig and TaskData for the
    distillation commands; ``source`` names the config file."""
    if "num_layers" not in model_kwargs:
        raise ConfigError(f"{source}: must set model.num_layers")
    if vocab_kwargs:
        keys = ", ".join(f"vocab.{name}" for name in vocab_kwargs)
        raise ConfigError(f"{source}: {keys} cannot be set for a student: "
                          "its vocabulary comes from the teacher checkpoint")
    teacher, teacher_config, vocab, labels, train = _load_model_and_data(
        args.teacher, args)
    schema = Schema.parse(args.schema)
    # only distill has --fraction / --augmented
    if getattr(args, "fraction", None) is not None:
        train = subsample(train, args.fraction, seed=config.seed)
    if getattr(args, "augmented", None):
        train = merge_augmented(train, args.augmented, schema, labels)
    dev = _dev_split(args, schema, train, labels)
    dataset = TaskData(train=train, dev=dev, vocab=vocab, label_names=labels,
                       max_len=teacher_config.max_seq_len)
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
    model_config = _model_config(args.config, vocab_size=vocab.size,
                                 num_classes=len(labels), **model_kwargs)
    dataset = TaskData(train=train, dev=dev, vocab=vocab, label_names=labels,
                       max_len=model_config.max_seq_len)
    params, record = train_teacher(config, model_config, dataset)
    _save_run(params, model_config, dataset, record, args.out)
    print(json.dumps({"dev_accuracy": record.final_metrics["dev_accuracy"],
                      "best_step": record.best_step,
                      "out": str(args.out)}))
    return 0


def cmd_distill(args) -> int:
    config, model_kwargs, vocab_kwargs = load_config(args.config)
    teacher, student_config, dataset = _student_task(
        args, config, model_kwargs, vocab_kwargs, args.config)
    variant = VARIANT_MAP[args.variant]
    student, record = distill_student(config, student_config, dataset,
                                      teacher, variant=variant)
    _save_run(student, student_config, dataset, record, args.out)
    print(json.dumps({"variant": args.variant,
                      "dev_accuracy": record.final_metrics["dev_accuracy"],
                      "out": str(args.out)}))
    return 0


def cmd_eval(args) -> int:
    params, config, vocab, labels, examples = _load_model_and_data(
        args.model, args)
    positive = None
    if args.positive_class is not None:
        if len(labels) != 2:  # F1 is computed for two classes only
            raise ConfigError(f"--positive-class needs a 2-class model; "
                              f"{args.model} has {len(labels)} classes")
        if args.positive_class not in labels:
            raise DataError(f"--positive-class {args.positive_class!r} is "
                            f"not a label of {args.model}: {labels}")
        positive = labels.index(args.positive_class)
    metrics = evaluate(params, examples, vocab, config.max_seq_len,
                       len(labels), batch_size=args.batch_size,
                       positive_class=positive)
    _print_metrics(metrics)
    return 0


def cmd_export_embeddings(args) -> int:
    params, _, vocab, labels, examples = _load_model_and_data(
        args.model, args)
    rng = np.random.default_rng(args.seed)
    n = min(args.n, len(examples))
    chosen = []
    # with two classes, up to --n // 2 of each; then the shortfall is drawn
    # from the rest, so that exactly n originals are exported
    if len(labels) == 2 and args.n >= 2:
        for cls in (0, 1):
            pool = [i for i, ex in enumerate(examples) if ex.label_id == cls]
            take = min(args.n // 2, len(pool))
            chosen += list(rng.choice(pool, size=take, replace=False))
    if len(chosen) < n:
        rest = np.setdiff1d(np.arange(len(examples)), chosen)
        chosen += list(rng.choice(rest, size=n - len(chosen), replace=False))
    selected = [examples[i] for i in chosen]

    cfg = MixupConfig(mixup_ratio=args.mixup_ratio)
    n_rows = export_cls_features(params, selected, vocab,
                                 make_pairs(len(selected), cfg, rng), args.out)
    print(json.dumps({"rows": n_rows, "out": str(args.out)}))
    return 0


def cmd_bench(args) -> int:
    params, _, _ = load_checkpoint(args.model)
    report = throughput_bench(params, batch_size=args.batch_size,
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
    config, model_kwargs, vocab_kwargs = config_from_pairs(pairs, args.grid)
    try:
        grid = SweepGrid(base=config, **values)
    except ValueError as exc:
        raise ConfigError(f"{args.grid}: {exc}") from exc
    teacher, student_config, dataset = _student_task(
        args, config, model_kwargs, vocab_kwargs, args.grid)
    results = sweep_grid(grid, student_config, dataset, teacher, args.out)
    if all(cell["error"] for cell in results):
        grid_json = grid_files(args.out)[0]
        raise TrainingDiverged(f"every cell of {args.grid} failed (see "
                               f"{grid_json}); the first: "
                               f"{results[0]['error']}")
    print(json.dumps({"cells": len(results), "out": str(args.out)}))
    return 0


def cmd_bound(args) -> int:
    calculator, keys, flags = BOUND_CALCULATORS[args.which]
    out = calculator(*(getattr(args, flag[2:].replace("-", "_"))
                       for flag in flags))
    if keys is not None:
        out = dict(zip(keys, out if len(keys) > 1 else (out,)))
    _emit(out, args.out)
    return 0


def cmd_seeds(args) -> int:
    seeds = _parse_list(args.seeds, int, "--seeds")
    try:
        check_seeds(seeds, "--seeds", args.seeds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config, model_kwargs, vocab_kwargs = load_config(args.config)
    teacher, student_config, dataset = _student_task(
        args, config, model_kwargs, vocab_kwargs, args.config)
    summary = run_seeds(config, student_config, dataset, teacher,
                        VARIANT_MAP[args.variant], seeds)
    _emit(summary, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError (exit 6) on a usage error instead of exiting 2,
    the code for data errors; argparse's message names the flag.  Flags
    are never abbreviated: ``bound verify --n 5`` would set --n-bits."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        """Rejects leftover arguments here, so that a subcommand's parser,
        not the top-level one, names itself in the message."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixkd")
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
    p.add_argument("--fraction", type=FRACTION, default=None)
    add_data_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval")
    p.add_argument("--model", required=True)
    add_data_args(p, dev=False)
    p.add_argument("--positive-class", default=None)
    p.add_argument("--batch-size", type=COUNT, default=32)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-embeddings")
    p.add_argument("--model", required=True)
    add_data_args(p, dev=False)
    p.add_argument("--n", type=COUNT, default=100)
    p.add_argument("--mixup-ratio", type=INDEX, default=1)
    p.add_argument("--seed", type=INDEX, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("bench")
    p.add_argument("--model", required=True)
    p.add_argument("--batch-size", type=COUNT, default=16)
    p.add_argument("--warmup", type=INDEX, default=2)
    p.add_argument("--measured-batches", type=COUNT, default=10)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep")
    p.add_argument("--grid", required=True)
    p.add_argument("--teacher", required=True)
    add_data_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    calculators = sub.add_parser("bound").add_subparsers(dest="which",
                                                         required=True)
    for which, (_, _, flags) in BOUND_CALCULATORS.items():
        p = calculators.add_parser(which)
        for flag in flags:
            convert, default = BOUND_FLAGS[flag]
            p.add_argument(flag, type=convert, default=default,
                           required=flag == "--a" and which in BOUND_NEED_A)
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
    try:
        args = build_parser().parse_args(argv)
        _check_out(args)
        return args.func(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except tuple(EXIT_CODES) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__
                    if cls in EXIT_CODES)
    except Exception as exc:  # unexpected failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
