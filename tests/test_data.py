"""Corpus loading, vocabulary, encoding, batching, subsampling."""

import dataclasses
import re

import numpy as np
import pytest

from mixkd.data import (CLS_ID, PAD_ID, SEP_ID, UNK_ID, Batch, DataError,
                        Example, Schema, Vocab, build_vocab, collate, decode,
                        encode, load_tsv, make_batch, merge_augmented,
                        subsample, tokenize)


def test_tokenize_lowercases_and_splits_punct():
    assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]
    assert tokenize("a  b\tc") == ["a", "b", "c"]
    assert tokenize("") == []


def test_schema_parse():
    s = Schema.parse("sentence,label")
    assert (s.text_a, s.label, s.text_b) == ("sentence", "label", None)
    s = Schema.parse("sentence1, sentence2, label")
    assert (s.text_a, s.text_b, s.label) == ("sentence1", "sentence2", "label")
    with pytest.raises(DataError):
        Schema.parse("only_one")


@pytest.mark.parametrize("spec", ["label,label", "sentence,sentence,label",
                                  "a, b ,a"])
def test_schema_rejects_a_repeated_column(spec):
    with pytest.raises(DataError,
                       match=f"^schema {spec!r} names a column twice$"):
        Schema.parse(spec)


def test_example_validation():
    with pytest.raises(DataError):
        Example(text_a="", label_id=0)
    with pytest.raises(DataError):
        Example(text_a="x", label_id=-1)


def _write_tsv(path, rows, header="sentence\tlabel"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def test_load_tsv_infers_sorted_labels(tmp_path):
    path = tmp_path / "d.tsv"
    _write_tsv(path, ["good movie\tpos", "bad one\tneg", "fine\tpos"])
    examples, labels = load_tsv(path, Schema.parse("sentence,label"))
    assert labels == ["neg", "pos"]
    assert [e.label_id for e in examples] == [1, 0, 1]


def test_load_tsv_enforces_given_labels(tmp_path):
    path = tmp_path / "d.tsv"
    _write_tsv(path, ["ok\tmaybe"])
    with pytest.raises(DataError, match="line 2"):
        load_tsv(path, Schema.parse("sentence,label"),
                 label_names=["neg", "pos"])


def test_load_tsv_missing_column(tmp_path):
    path = tmp_path / "d.tsv"
    _write_tsv(path, ["x\tpos"], header="text\tlabel")
    with pytest.raises(DataError, match="missing column"):
        load_tsv(path, Schema.parse("sentence,label"))


def test_load_tsv_empty_text(tmp_path):
    path = tmp_path / "d.tsv"
    _write_tsv(path, ["\tpos"])
    with pytest.raises(DataError, match="empty text"):
        load_tsv(path, Schema.parse("sentence,label"))


@pytest.mark.parametrize("label", ["", " "])
@pytest.mark.parametrize("label_names", [None, ["neg", "pos"]])
def test_load_tsv_rejects_an_empty_label(tmp_path, label, label_names):
    """A blank label cell is an error whether the labels come from the
    file or are given, not a class of its own."""
    path = tmp_path / "d.tsv"
    _write_tsv(path, ["good movie\tpos", f"no label\t{label}", "bad\tneg"])
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 3: "
                                        "empty label$"):
        load_tsv(path, Schema.parse("sentence,label"), label_names)


def test_load_tsv_strips_the_label_when_it_infers_the_labels(tmp_path):
    """A stray space around a label is not a class of its own."""
    path = tmp_path / "d.tsv"
    _write_tsv(path, ["good movie\tpos ", "fine\tpos", "bad one\t neg"])
    examples, labels = load_tsv(path, Schema.parse("sentence,label"))
    assert labels == ["neg", "pos"]
    assert [e.label_id for e in examples] == [1, 1, 0]


def test_load_tsv_strips_the_label_before_matching_given_names(tmp_path):
    path = tmp_path / "d.tsv"
    _write_tsv(path, ["good movie\tpos ", "bad one\tneg"])
    examples, labels = load_tsv(path, Schema.parse("sentence,label"),
                                label_names=["neg", "pos"])
    assert labels == ["neg", "pos"]
    assert [e.label_id for e in examples] == [1, 0]


@pytest.mark.parametrize("row", ["hello world\t\tpos", "hello\tworld\tpos"],
                         ids=["first_filled", "both_filled"])
def test_load_tsv_rejects_a_column_named_twice(tmp_path, row):
    """Whether the first or both cells of the column are filled, a
    repeated header column is an error, not a misleading empty text or a
    silent choice of the last cell."""
    path = tmp_path / "d.tsv"
    _write_tsv(path, [row], header="sentence\tsentence\tlabel")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: column "
                                        "'sentence' appears twice in the "
                                        "header$"):
        load_tsv(path, Schema.parse("sentence,label"))


def test_load_tsv_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_bytes("sentence\tlabel\ncafé\tpos\n".encode("latin-1"))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 "
                                        "text: cannot decode byte 0xe9"):
        load_tsv(path, Schema.parse("sentence,label"))


def test_load_tsv_pair_schema(tmp_path):
    path = tmp_path / "p.tsv"
    _write_tsv(path, ["a question\tan answer\tpos"],
               header="sentence1\tsentence2\tlabel")
    examples, _ = load_tsv(path, Schema.parse("sentence1,sentence2,label"))
    assert examples[0].text_b == "an answer"


@pytest.mark.parametrize("header,rows,schema,line,got,want", [
    # the last row lacks its label
    ("sentence\tlabel", ["good movie\tpos", "bad one"], "sentence,label",
     3, 1, 2),
    # a pair-schema row without its second sentence
    ("sentence1\tsentence2\tlabel", ["hello world\tpos"],
     "sentence1,sentence2,label", 2, 2, 3),
    # an extra field
    ("sentence\tlabel", ["good movie\tpos\tneg"], "sentence,label",
     2, 3, 2),
])
def test_load_tsv_rejects_wrong_field_count(tmp_path, header, rows, schema,
                                            line, got, want):
    path = tmp_path / "d.tsv"
    _write_tsv(path, rows, header=header)
    with pytest.raises(DataError) as info:
        load_tsv(path, Schema.parse(schema))
    assert str(info.value) == (f"{path}: line {line}: expected {want} "
                               f"fields like the header, got {got}")


def test_load_tsv_skips_blank_lines(tmp_path):
    path = tmp_path / "d.tsv"
    _write_tsv(path, ["good movie\tpos", "", "bad one\tneg"])
    examples, labels = load_tsv(path, Schema.parse("sentence,label"))
    assert [e.text_a for e in examples] == ["good movie", "bad one"]
    assert labels == ["neg", "pos"]


def test_build_vocab_ordering():
    examples = [Example("b b b a a c", 0), Example("a c", 1)]
    vocab = build_vocab(examples)
    # a and b tie at 3, lexicographic breaks the tie; reserved ids first
    assert vocab.token_to_id["a"] == 4
    assert vocab.token_to_id["b"] == 5
    assert vocab.token_to_id["c"] == 6
    assert vocab.lookup("zzz") == UNK_ID


def test_build_vocab_min_freq_and_max_size():
    examples = [Example("a a b", 0)]
    vocab = build_vocab(examples, min_freq=2)
    assert "b" not in vocab.token_to_id
    vocab = build_vocab([Example("a b c d", 0)], max_size=6)
    assert vocab.size == 6  # 4 reserved + 2 kept


def test_encode_layout_and_mask():
    vocab = build_vocab([Example("a b", 0)])
    ids, mask = encode(vocab, Example("a b", 0), max_len=8)
    assert ids[0] == CLS_ID
    assert ids[3] == SEP_ID
    assert list(ids[4:]) == [PAD_ID] * 4
    assert list(mask) == [True] * 4 + [False] * 4
    assert decode(vocab, ids, mask) == ["[CLS]", "a", "b", "[SEP]"]


def test_encode_truncation():
    vocab = build_vocab([Example("a b c d e", 0)])
    ids, mask = encode(vocab, Example("a b c d e", 0), max_len=4)
    assert len(ids) == 4 and mask.all()
    assert ids[0] == CLS_ID


def test_encode_pair():
    vocab = build_vocab([Example("a", 0, text_b="b")])
    ids, _ = encode(vocab, Example("a", 0, text_b="b"), max_len=8)
    assert list(ids[:5]) == [CLS_ID, vocab.lookup("a"), SEP_ID,
                             vocab.lookup("b"), SEP_ID]


def test_subsample_floor_order_deterministic():
    examples = [Example(f"tok{i}", i % 2) for i in range(10)]
    out = subsample(examples, 0.35, seed=9)
    assert len(out) == 3
    positions = [examples.index(e) for e in out]
    assert positions == sorted(positions)
    assert out == subsample(examples, 0.35, seed=9)
    with pytest.raises(DataError):
        subsample(examples, 0.0, seed=0)


def test_merge_augmented_flags_extra(tmp_path):
    path = tmp_path / "aug.tsv"
    _write_tsv(path, ["extra sample\tpos"])
    original = [Example("base", 0)]
    merged = merge_augmented(original, path, Schema.parse("sentence,label"),
                             ["neg", "pos"])
    assert merged == [Example("base", 0), Example("extra sample", 1)]


def test_batch_validation():
    ids = np.array([[CLS_ID, 5, PAD_ID]])
    mask = np.array([[True, True, False]])
    labels = np.array([[1.0, 0.0]])
    Batch(ids, mask, labels)  # valid

    with pytest.raises(DataError, match=r"\[CLS\]"):
        Batch(np.array([[5, 5, PAD_ID]]), mask, labels)
    with pytest.raises(DataError, match="prefix"):
        Batch(ids, np.array([[True, False, True]]), labels)
    with pytest.raises(DataError, match="simplex"):
        Batch(ids, mask, np.array([[0.6, 0.6]]))


def test_make_batch_one_hot(small_task):
    batch = make_batch(small_task.train[:5], small_task.vocab,
                       small_task.max_len, 2)
    assert batch.labels_onehot.sum() == 5
    assert len(batch) == 5


def test_collate_covers_epoch(small_task):
    batches = list(collate(small_task.train[:10], small_task.vocab,
                           small_task.max_len, batch_size=4, num_classes=2,
                           shuffle_seed=1))
    assert [len(b) for b in batches] == [4, 4, 2]
    again = list(collate(small_task.train[:10], small_task.vocab,
                         small_task.max_len, batch_size=4, num_classes=2,
                         shuffle_seed=1))
    np.testing.assert_array_equal(batches[0].token_ids, again[0].token_ids)
    other = list(collate(small_task.train[:10], small_task.vocab,
                         small_task.max_len, batch_size=4, num_classes=2,
                         shuffle_seed=2))
    assert not np.array_equal(batches[0].token_ids, other[0].token_ids)


# ---------------------------------------------------------------------------
# the vocabulary's memo of encodings
# ---------------------------------------------------------------------------

def test_vocab_is_immutable():
    mapping = dict(build_vocab([Example("a b", 0)]).token_to_id)
    vocab = Vocab(mapping)
    with pytest.raises(dataclasses.FrozenInstanceError):
        vocab.token_to_id = {}
    with pytest.raises(TypeError):
        vocab.token_to_id["c"] = 7
    with pytest.raises(TypeError):
        del vocab.token_to_id["a"]
    mapping["c"] = 7  # the mapping it was built from is copied
    assert "c" not in vocab.token_to_id and vocab.size == 6
    assert vocab.id_to_token[4:] == ("a", "b")


def test_encode_returns_read_only_rows():
    vocab = build_vocab([Example("a b", 0)])
    ids, mask = encode(vocab, Example("a b", 0), max_len=6)
    with pytest.raises(ValueError):
        ids[1] = 0
    with pytest.raises(ValueError):
        mask[4] = True


def _fresh_vocab(task):
    """A copy of ``task``'s vocabulary with an empty memo."""
    return Vocab(task.vocab.token_to_id)


def test_repeated_batches_are_identical(small_task):
    vocab = _fresh_vocab(small_task)
    args = (vocab, small_task.max_len, 2)
    first = make_batch(small_task.train[:12], *args)
    again = make_batch(small_task.train[:12], *args)
    epochs = [list(collate(small_task.train[:12], *args[:2], batch_size=5,
                           num_classes=2, shuffle_seed=4)) for _ in range(2)]
    for a, b in [(first, again)] + list(zip(*epochs)):
        assert a.token_ids.tobytes() == b.token_ids.tobytes()
        assert a.pad_mask.tobytes() == b.pad_mask.tobytes()
        assert a.labels_onehot.tobytes() == b.labels_onehot.tobytes()
    assert first.token_ids.tobytes() == make_batch(
        small_task.train[:12], small_task.vocab, small_task.max_len,
        2).token_ids.tobytes()


def test_writing_into_a_batch_changes_no_later_batch(small_task):
    vocab = _fresh_vocab(small_task)
    args = (small_task.train[:6], vocab, small_task.max_len, 2)
    batch = make_batch(*args)
    ids, mask = batch.token_ids.copy(), batch.pad_mask.copy()
    # the batch arrays are fresh and writable, not the cached rows
    batch.token_ids[:] = 9
    batch.pad_mask[:] = False
    batch.labels_onehot[:] = 0.0
    later = make_batch(*args)
    assert np.array_equal(later.token_ids, ids)
    assert np.array_equal(later.pad_mask, mask)
    assert later.labels_onehot.sum() == 6


def test_each_text_is_tokenized_once_per_max_len(small_task, monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr("mixkd.data.tokenize", counting)
    vocab = _fresh_vocab(small_task)
    examples = small_task.train[:20]
    texts = sorted({ex.text_a for ex in examples})
    for _ in range(3):
        make_batch(examples, vocab, small_task.max_len, 2)
        list(collate(examples, vocab, small_task.max_len, 7, 2,
                     shuffle_seed=1))
    assert sorted(calls) == texts
    for _ in range(2):  # another max_len is another encoding
        make_batch(examples, vocab, small_task.max_len - 2, 2)
    assert sorted(calls) == sorted(texts * 2)


# two rows of 3 tokens, the first padded
_IDS = np.array([[CLS_ID, 5, PAD_ID], [CLS_ID, 6, 7]])


@pytest.mark.parametrize("call, message", [
    (lambda: build_vocab([]), "cannot build vocabulary from an empty corpus"),
    (lambda: encode(build_vocab([Example("a b", 0)]), Example("a b", 0), 2),
     "max_len must be at least 3"),
    (lambda: Batch(_IDS, (_IDS != PAD_ID)[:, :2], np.eye(2)),
     "pad_mask shape mismatch"),
    (lambda: Batch(_IDS, _IDS != PAD_ID, np.eye(2)[:1]),
     "labels row count mismatch"),
    (lambda: Batch(_IDS, np.array([[True, True, False], [False] * 3]),
                   np.eye(2)),
     "row 1: pad_mask marks the [CLS] position as padding"),
    (lambda: make_batch([Example("a", 2)], build_vocab([Example("a", 0)]),
                        4, 2),
     "label_id 2 >= num_classes 2"),
], ids=["empty_corpus", "short_max_len", "mask_shape", "label_rows",
        "cls_padded", "label_id_past_classes"])
def test_direct_callers_get_a_data_error(call, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()
