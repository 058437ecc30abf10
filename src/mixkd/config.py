"""Flat key=value run-configuration files.

Every TrainConfig / MixupConfig / LossWeights field is addressable with a
dotted key (mixup.*, loss.*); model.* keys describe the model being
trained (for distillation: the student's depth).  Unknown keys are
errors.  Lines starting with '#' and blank lines are ignored.
"""

from __future__ import annotations

from .distill import LossWeights, TrainConfig
from .mixup import MixupConfig


class ConfigError(Exception):
    pass


_TRAIN_KEYS = {
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "optimizer": str,
    "adam_beta1": float,
    "adam_beta2": float,
    "adam_eps": float,
    "seed": int,
    "eval_every": int,
}
_MIXUP_KEYS = {
    "beta_alpha": float,
    "mixup_ratio": int,
    "seed": int,
}
_LOSS_KEYS = {
    "alpha_sm": float,
    "alpha_tmkd": float,
    "distance_metric": str,
    "temperature": float,
}
_MODEL_KEYS = {
    "num_layers": int,
    "hidden_dim": int,
    "num_heads": int,
    "ffn_dim": int,
    "vocab_size": int,
    "max_seq_len": int,
    "num_classes": int,
    "dropout_rate": float,
}
_VOCAB_KEYS = {"min_freq": int, "max_size": int}


def parse_kv_file(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    train_kwargs: dict = {}
    mixup_kwargs: dict = {}
    loss_kwargs: dict = {}
    model_kwargs: dict = {}
    vocab_kwargs: dict = {}
    for key, raw in pairs.items():
        try:
            if key in _TRAIN_KEYS:
                train_kwargs[key] = _TRAIN_KEYS[key](raw)
            elif key.startswith("mixup.") and key[6:] in _MIXUP_KEYS:
                mixup_kwargs[key[6:]] = _MIXUP_KEYS[key[6:]](raw)
            elif key.startswith("loss.") and key[5:] in _LOSS_KEYS:
                loss_kwargs[key[5:]] = _LOSS_KEYS[key[5:]](raw)
            elif key.startswith("model.") and key[6:] in _MODEL_KEYS:
                model_kwargs[key[6:]] = _MODEL_KEYS[key[6:]](raw)
            elif key.startswith("vocab.") and key[6:] in _VOCAB_KEYS:
                vocab_kwargs[key[6:]] = _VOCAB_KEYS[key[6:]](raw)
            else:
                raise ConfigError(f"{path}: unknown config key {key!r}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from exc
    try:
        config = TrainConfig(mixup=MixupConfig(**mixup_kwargs),
                             loss=LossWeights(**loss_kwargs), **train_kwargs)
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config, model_kwargs, vocab_kwargs
