"""Corpus ingestion, vocabulary, encoding, batching, and subsampling.

Tokenization is deliberately simple: lowercase, split on whitespace, keep
punctuation runs as their own tokens.  This diverges from WordPiece; the
training mechanics are tokenizer-agnostic.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
RESERVED = {"[PAD]": PAD_ID, "[UNK]": UNK_ID, "[CLS]": CLS_ID, "[SEP]": SEP_ID}

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class DataError(Exception):
    """Malformed dataset file or schema violation."""


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Schema:
    """Column layout of a TSV task file."""
    text_a: str
    label: str
    text_b: Optional[str] = None

    @classmethod
    def parse(cls, spec: str) -> "Schema":
        """"sentence,label" or "sentence1,sentence2,label"."""
        cols = [c.strip() for c in spec.split(",") if c.strip()]
        if len(cols) == 2:
            return cls(text_a=cols[0], label=cols[1])
        if len(cols) == 3:
            return cls(text_a=cols[0], text_b=cols[1], label=cols[2])
        raise DataError(f"schema must name 2 or 3 columns, got {spec!r}")


@dataclass(frozen=True)
class Example:
    text_a: str
    label_id: int
    text_b: Optional[str] = None
    augmented: bool = False

    def __post_init__(self):
        if not self.text_a:
            raise DataError("Example.text_a must be nonempty")
        if self.label_id < 0:
            raise DataError("Example.label_id must be nonnegative")


@dataclass
class Vocab:
    token_to_id: dict[str, int]
    id_to_token: list[str] = field(init=False)

    def __post_init__(self):
        self.id_to_token = [""] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            self.id_to_token[i] = tok

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def load_tsv(path, schema: Schema,
             label_names: Optional[Sequence[str]] = None,
             augmented: bool = False) -> tuple[list[Example], list[str]]:
    """Read a UTF-8 TSV with a header row.

    When ``label_names`` is given, any other label string is an error; when
    omitted, the label set is the sorted unique labels in the file.  A file
    without data rows, or a row with more or fewer fields than the header,
    is an error, and so is a file that cannot be opened.  Blank lines are
    skipped.
    """
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        for col in (schema.text_a, schema.label) + (
                (schema.text_b,) if schema.text_b else ()):
            if col not in header:
                raise DataError(f"{path}: missing column {col!r}")
        rows = []
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(header):
                raise DataError(
                    f"{path}: line {reader.line_num}: expected "
                    f"{len(header)} fields like the header, got {len(fields)}")
            rows.append((reader.line_num, dict(zip(header, fields))))
    if not rows:
        raise DataError(f"{path}: no data rows after the header")

    if label_names is None:
        label_names = sorted({row[schema.label] for _, row in rows})
    label_map = {name: i for i, name in enumerate(label_names)}

    examples = []
    for lineno, row in rows:
        label = row[schema.label]
        if label not in label_map:
            raise DataError(f"{path}: line {lineno}: unknown label {label!r}")
        text_a = row[schema.text_a].strip()
        if not text_a:
            raise DataError(f"{path}: line {lineno}: empty text")
        text_b = row[schema.text_b].strip() if schema.text_b else None
        examples.append(Example(text_a=text_a, text_b=text_b,
                                label_id=label_map[label], augmented=augmented))
    return examples, list(label_names)


def build_vocab(examples: Sequence[Example], min_freq: int = 1,
                max_size: Optional[int] = None) -> Vocab:
    """Frequency-descending then lexicographic id assignment after 4 reserved ids."""
    if not examples:
        raise DataError("cannot build vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for ex in examples:
        counts.update(tokenize(ex.text_a))
        if ex.text_b:
            counts.update(tokenize(ex.text_b))
    candidates = sorted((tok for tok, c in counts.items() if c >= min_freq),
                        key=lambda tok: (-counts[tok], tok))
    if max_size is not None:
        candidates = candidates[:max(0, max_size - len(RESERVED))]
    mapping = dict(RESERVED)
    for tok in candidates:
        mapping[tok] = len(mapping)
    return Vocab(mapping)


def encode(vocab: Vocab, example: Example,
           max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """[CLS] a [SEP] (b [SEP]) truncated to max_len, PAD-filled; mask true = real."""
    if max_len < 3:
        raise DataError("max_len must be at least 3")
    ids = [CLS_ID]
    ids += [vocab.lookup(t) for t in tokenize(example.text_a)]
    ids.append(SEP_ID)
    if example.text_b:
        ids += [vocab.lookup(t) for t in tokenize(example.text_b)]
        ids.append(SEP_ID)
    ids = ids[:max_len]
    mask = np.zeros(max_len, dtype=bool)
    mask[:len(ids)] = True
    out = np.full(max_len, PAD_ID, dtype=np.int64)
    out[:len(ids)] = ids
    return out, mask


def decode(vocab: Vocab, token_ids: np.ndarray, pad_mask: np.ndarray) -> list[str]:
    return [vocab.id_to_token[int(i)]
            for i, real in zip(token_ids, pad_mask) if real]


def subsample(examples: Sequence[Example], fraction: float,
              seed: int) -> list[Example]:
    """floor(fraction*N) examples, uniform without replacement, order-preserving."""
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must lie in (0, 1], got {fraction}")
    n = int(np.floor(fraction * len(examples)))
    if n == 0:
        raise DataError("subsample result is empty")
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(len(examples), size=n, replace=False))
    return [examples[i] for i in keep]


def merge_augmented(original: Sequence[Example], augmented_path,
                    schema: Schema, label_names: Sequence[str]) -> list[Example]:
    """original ++ augmented; augmented examples carry a provenance flag."""
    extra, _ = load_tsv(augmented_path, schema, label_names=label_names,
                        augmented=True)
    return list(original) + extra


@dataclass
class Batch:
    token_ids: np.ndarray       # [n, T] int64
    pad_mask: np.ndarray        # [n, T] bool, true = real token
    labels_onehot: np.ndarray   # [n, C] float64

    def __post_init__(self):
        n, T = self.token_ids.shape
        if self.pad_mask.shape != (n, T):
            raise DataError("pad_mask shape mismatch")
        if self.labels_onehot.shape[0] != n:
            raise DataError("labels row count mismatch")
        if not (self.token_ids[:, 0] == CLS_ID).all():
            raise DataError("every row must begin with [CLS]")
        # the mask must be a true-prefix: no real token after the first pad
        padded_then_real = (~self.pad_mask[:, :-1]) & self.pad_mask[:, 1:]
        if padded_then_real.any():
            raise DataError("pad_mask is not a prefix mask")
        sums = self.labels_onehot.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-9 or (self.labels_onehot < -1e-12).any():
            raise DataError("label rows must lie on the probability simplex")

    def __len__(self) -> int:
        return self.token_ids.shape[0]


def make_batch(examples: Sequence[Example], vocab: Vocab, max_len: int,
               num_classes: int) -> Batch:
    ids = np.empty((len(examples), max_len), dtype=np.int64)
    mask = np.empty((len(examples), max_len), dtype=bool)
    labels = np.zeros((len(examples), num_classes))
    for row, ex in enumerate(examples):
        ids[row], mask[row] = encode(vocab, ex, max_len)
        if ex.label_id >= num_classes:
            raise DataError(f"label_id {ex.label_id} >= num_classes {num_classes}")
        labels[row, ex.label_id] = 1.0
    return Batch(ids, mask, labels)


def collate(examples: Sequence[Example], vocab: Vocab, max_len: int,
            batch_size: int, num_classes: int,
            shuffle_seed: Optional[int] = None) -> Iterator[Batch]:
    """Seeded shuffled minibatches covering the epoch; last partial batch kept."""
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    order = np.arange(len(examples))
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(order)
    for start in range(0, len(examples), batch_size):
        chunk = [examples[i] for i in order[start:start + batch_size]]
        yield make_batch(chunk, vocab, max_len, num_classes)
