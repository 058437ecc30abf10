"""Synthetic two-class token task for desk-scale experiments.

Each class owns a small set of key words; a sentence is a mix of key
words from its class and shared noise words, so the class signal is the
presence pattern of key tokens diluted by noise.
"""

from __future__ import annotations

import numpy as np

from .data import Example, build_vocab
from .distill import TaskData
from .model import write_files

LABEL_NAMES = ["neg", "pos"]


# tok000 .. tok199: 10 key words per class, the other 180 shared noise
_WORDS = [f"tok{i:03d}" for i in range(200)]
_KEYS, _NOISE = (_WORDS[:10], _WORDS[10:20]), _WORDS[20:]


def make_examples(n: int, rng: np.random.Generator, seq_min: int,
                  seq_max: int, signal_rate: float) -> list[Example]:
    examples = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        length = int(rng.integers(seq_min, seq_max + 1))
        toks = [
            _KEYS[label][rng.integers(len(_KEYS[label]))]
            if rng.random() < signal_rate
            else _NOISE[rng.integers(len(_NOISE))]
            for _ in range(length)
        ]
        examples.append(Example(text_a=" ".join(toks), label_id=label))
    return examples


def make_task(n_train: int = 2000, n_dev: int = 500, seq_min: int = 5,
              seq_max: int = 12, signal_rate: float = 0.3,
              seed: int = 0) -> TaskData:
    rng = np.random.default_rng(seed)
    train = make_examples(n_train, rng, seq_min, seq_max, signal_rate)
    dev = make_examples(n_dev, rng, seq_min, seq_max, signal_rate)
    vocab = build_vocab(train, min_freq=1)
    return TaskData(train=train, dev=dev, vocab=vocab,
                    label_names=list(LABEL_NAMES), max_len=seq_max + 2)


def write_tsv(examples, label_names, path) -> None:
    """A ``sentence<TAB>label`` TSV, the CLI's default --schema."""
    write_files({path: "sentence\tlabel\n" + "".join(
        f"{ex.text_a}\t{label_names[ex.label_id]}\n" for ex in examples)})
