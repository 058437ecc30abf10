"""Flat key=value run-configuration files.

Every int/float/str field of TrainConfig, MixupConfig, LossWeights and
ModelConfig is addressable with a key: TrainConfig fields by name,
the others as mixup.*, loss.* and model.*; model.* keys describe the
model being trained (for distillation: the student's depth).  The
vocabulary and the labels fix ModelConfig's vocab_size and num_classes,
so those two are not keys.  vocab.* keys are build_vocab's options; a
student's config may not set them, for its vocabulary is its teacher's.
Unknown keys, and values outside their field's Range, are errors naming
the key.  Lines starting with '#' and blank lines are ignored.
"""

from __future__ import annotations

import argparse
from dataclasses import fields

from .data import not_utf8
from .distill import LossWeights, TrainConfig
from .mixup import MixupConfig, MixupError
from .model import ModelConfig
from .ranges import INDEX, Range


class ConfigError(Exception):
    pass


_DERIVED_KEYS = ("model.vocab_size", "model.num_classes")


def _scalar_keys() -> dict[str, tuple[str, str, Range | type]]:
    """Dotted key -> (section, field name, converter: its Range, or str)."""
    keys = {f"vocab.{name}": ("vocab", name, INDEX)
            for name in ("min_freq", "max_size")}
    for section, prefix, cls in (("train", "", TrainConfig),
                                 ("mixup", "mixup.", MixupConfig),
                                 ("loss", "loss.", LossWeights),
                                 ("model", "model.", ModelConfig)):
        for f in fields(cls):
            key = prefix + f.name
            if ((f.type in (str, "str") or "range" in f.metadata)
                    and key not in _DERIVED_KEYS):
                keys[key] = (section, f.name, f.metadata.get("range", str))
    return keys


_KEYS = _scalar_keys()


def parse_kv_file(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from exc
    try:
        with fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {not_utf8(exc)}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def load_config(path) -> tuple[TrainConfig, dict, dict]:
    """Returns (train_config, model_overrides, vocab_options)."""
    return config_from_pairs(parse_kv_file(path), path)


def config_from_pairs(pairs: dict[str, str],
                      path) -> tuple[TrainConfig, dict, dict]:
    """Like :func:`load_config` for pairs already read from ``path``."""
    kwargs: dict[str, dict] = {s: {} for s in
                               ("train", "mixup", "loss", "model", "vocab")}
    for key, raw in pairs.items():
        if key not in _KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        section, name, convert = _KEYS[key]
        try:
            kwargs[section][name] = convert(raw)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{path}: {key} {exc}") from exc
    try:
        config = TrainConfig(mixup=MixupConfig(**kwargs["mixup"]),
                             loss=LossWeights(**kwargs["loss"]),
                             **kwargs["train"])
    except (ValueError, MixupError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config, kwargs["model"], kwargs["vocab"]
