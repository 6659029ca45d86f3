import numpy as np
import pytest

import re

from groupshare.corpus import (
    PAD_TOKEN,
    UNK_TOKEN,
    Vocabulary,
    build_vocabulary,
    encode,
    load_dataset,
    load_pretrained,
    load_vocabulary,
    parse_line,
    random_pretrained,
    save_vocabulary,
)
from helpers import random_words, vocab_of, write_embeddings


def test_vocabulary_ids_follow_first_occurrence():
    vocab = build_vocabulary([["a", "b"], ["b", "c"]])
    assert vocab.words == ("a", "b", "c")
    assert vocab.num_tokens == 3
    assert vocab.index == {"a": 0, "b": 1, "c": 2}
    assert vocab.unk_id == 3
    assert vocab.pad_id == 4
    assert vocab.num_rows == 5


def test_vocabulary_rejects_reserved_and_empty():
    with pytest.raises(ValueError):
        build_vocabulary([[UNK_TOKEN]])
    with pytest.raises(ValueError):
        build_vocabulary([[PAD_TOKEN, "x"]])
    with pytest.raises(ValueError):
        build_vocabulary([])
    with pytest.raises(ValueError):
        build_vocabulary([[], []])


def test_vocabulary_lookup():
    vocab = vocab_of(["red", "green"])
    assert vocab.lookup("red") == 0
    assert vocab.lookup("missing") is None
    assert vocab.lookup(UNK_TOKEN) == vocab.unk_id
    assert vocab.lookup(PAD_TOKEN) == vocab.pad_id


def test_vocabulary_random_bijection():
    rng = np.random.default_rng(101)
    for trial in range(20):
        words = random_words(rng, int(rng.integers(1, 40)))
        docs = []
        pool = list(words)
        for _ in range(int(rng.integers(1, 8))):
            docs.append([pool[int(rng.integers(0, len(pool)))]
                         for _ in range(int(rng.integers(1, 12)))])
        docs.append(list(words))  # make sure every word occurs
        vocab = build_vocabulary(docs)
        assert sorted(vocab.words) == sorted(set(words))
        assert all(vocab.words[vocab.index[w]] == w for w in vocab.words)
        again = build_vocabulary(docs)
        assert again.words == vocab.words


def test_content_hash_tracks_words():
    a = vocab_of(["x", "y"])
    b = vocab_of(["x", "y"])
    c = vocab_of(["y", "x"])
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_parse_line_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_line("no tab here", 3)
    with pytest.raises(ValueError, match="line 9"):
        parse_line("\ttokens only", 9)
    with pytest.raises(ValueError, match="line 2"):
        parse_line("1\t", 2)


def test_encode_basic_and_unknowns():
    vocab = vocab_of(["good", "bad"])
    ds = encode(["1\tgood good", "0\tbad mystery"], vocab)
    assert len(ds) == 2
    assert ds.num_classes == 2
    assert list(ds.labels) == [1, 0]
    assert list(ds.documents[0]) == [0, 0]
    assert list(ds.documents[1]) == [1, vocab.unk_id]


def test_encode_integer_labels_used_verbatim():
    vocab = vocab_of(["w"])
    ds = encode(["3\tw", "0\tw"], vocab)
    assert ds.num_classes == 4
    assert list(ds.labels) == [3, 0]


def test_encode_string_labels_sorted_dense():
    vocab = vocab_of(["w"])
    ds = encode(["pos\tw", "neg\tw", "pos\tw"], vocab)
    assert ds.num_classes == 2
    assert list(ds.labels) == [1, 0, 1]  # neg=0, pos=1 after sorting
    mixed = encode(["2\tw", "-1\tw"], vocab)  # negative int falls back
    assert list(mixed.labels) == [1, 0]


def test_encode_skips_blank_lines_and_reports_bad_ones():
    vocab = vocab_of(["w"])
    ds = encode(["", "1\tw", ""], vocab)
    assert len(ds) == 1
    with pytest.raises(ValueError, match="line 2"):
        encode(["1\tw", "bad line"], vocab)
    with pytest.raises(ValueError):
        encode([], vocab)


def test_load_dataset_round_trip(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("1\tup up\n0\tdown\n", encoding="utf-8")
    ds, vocab = load_dataset(path)
    assert vocab.words == ("up", "down")
    assert list(ds.labels) == [1, 0]
    assert list(ds.documents[0]) == [0, 0]


def test_pretrained_text_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    for trial in range(10):
        words = random_words(rng, int(rng.integers(1, 30)))
        vocab = vocab_of(words)
        dim = int(rng.integers(1, 12))
        matrix = rng.normal(0, 2.0, size=(vocab.num_tokens, dim))
        path = tmp_path / f"emb{trial}.txt"
        write_embeddings(path, words, matrix)
        loaded = load_pretrained(path, vocab)
        assert loaded.shape == (vocab.num_rows, dim)
        np.testing.assert_array_equal(
            loaded[: vocab.num_tokens], matrix.astype(np.float32).astype(np.float64)
        )
        np.testing.assert_array_equal(loaded[vocab.pad_id], np.zeros(dim))


def test_pretrained_binary_round_trip(tmp_path):
    rng = np.random.default_rng(78)
    for trial in range(10):
        words = random_words(rng, int(rng.integers(1, 30)))
        vocab = vocab_of(words)
        dim = int(rng.integers(1, 12))
        matrix = rng.normal(0, 2.0, size=(vocab.num_rows, dim))
        matrix[vocab.pad_id] = 0.0
        path = tmp_path / f"emb{trial}.bin"
        write_embeddings(path, words, matrix, format="binary")
        loaded = load_pretrained(path, vocab, format="binary")
        np.testing.assert_array_equal(
            loaded[: vocab.num_tokens],
            matrix[: vocab.num_tokens].astype(np.float32).astype(np.float64),
        )


def test_pretrained_oov_rows_are_seeded(tmp_path):
    vocab = vocab_of(["known", "novel", "fresh"])
    path = tmp_path / "emb.txt"
    write_embeddings(path, ["known"], [[1.0, 2.0]])
    a = load_pretrained(path, vocab, oov_seed=5)
    b = load_pretrained(path, vocab, oov_seed=5)
    c = load_pretrained(path, vocab, oov_seed=6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(a[0], [1.0, 2.0])
    for row in (1, 2, vocab.unk_id):
        assert (np.abs(a[row]) <= 0.25).all()
        assert np.abs(a[row]).max() > 0
    np.testing.assert_array_equal(a[vocab.pad_id], [0.0, 0.0])


def test_pretrained_header_and_shape_errors(tmp_path):
    vocab = vocab_of(["w"])
    bad_count = tmp_path / "bad_count.txt"
    bad_count.write_text("2 2\nw 1 2\n")
    with pytest.raises(ValueError, match="announces 2"):
        load_pretrained(bad_count, vocab)
    bad_width = tmp_path / "bad_width.txt"
    bad_width.write_text("1 3\nw 1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        load_pretrained(bad_width, vocab)
    bad_header = tmp_path / "bad_header.txt"
    bad_header.write_text("just one\nw 1\n")
    with pytest.raises(ValueError):
        load_pretrained(bad_header, vocab)
    with pytest.raises(ValueError):
        load_pretrained(bad_count, vocab, format="pickle")
    bad_value = tmp_path / "bad_value.txt"
    bad_value.write_text("1 2\nw 1 oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_pretrained(bad_value, vocab)


def test_pretrained_binary_truncation(tmp_path):
    vocab = vocab_of(["w"])
    path = tmp_path / "emb.bin"
    write_embeddings(path, ["w"], [[1.0, 2.0]], format="binary")
    blob = path.read_bytes()
    clipped = tmp_path / "clip.bin"
    clipped.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_pretrained(clipped, vocab, format="binary")
    padded = tmp_path / "padded.bin"
    padded.write_bytes(blob + b"xx")
    with pytest.raises(ValueError, match="trailing"):
        load_pretrained(padded, vocab, format="binary")


def test_random_pretrained_properties():
    vocab = vocab_of(["a", "b", "c"])
    m = random_pretrained(vocab, 6, seed=9)
    assert m.shape == (vocab.num_rows, 6)
    np.testing.assert_array_equal(m[vocab.pad_id], np.zeros(6))
    assert (np.abs(m[: vocab.pad_id]) <= 0.25).all()
    np.testing.assert_array_equal(m, random_pretrained(vocab, 6, seed=9))
    assert not np.array_equal(m, random_pretrained(vocab, 6, seed=10))
    with pytest.raises(ValueError):
        random_pretrained(vocab, 0)


def test_vocabulary_file_round_trip(tmp_path):
    vocab = vocab_of(["alpha", "beta", "gamma"])
    path = tmp_path / "vocab.txt"
    with open(path, "w", encoding="utf-8") as f:
        save_vocabulary(vocab, f)
    assert path.read_text() == "alpha\nbeta\ngamma\n"
    again = load_vocabulary(path)
    assert again.words == vocab.words
    dup = tmp_path / "dup.txt"
    dup.write_text("a\nb\na\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_vocabulary(dup)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_vocabulary(empty)


def test_vocabulary_derives_its_index_and_refuses_bad_words(tmp_path):
    vocab = Vocabulary(["a", "b"])
    assert vocab.words == ("a", "b") and vocab.index == {"a": 0, "b": 1}
    assert vocab == vocab_of(["a", "b"]) != Vocabulary(["b", "a"])
    ids = vocab.ids(["b", "zzz", "a", UNK_TOKEN])
    assert ids.dtype == np.int64
    assert ids.tolist() == [1, vocab.unk_id, 0, vocab.unk_id]
    for words, message in [((), "empty"), (("a", "b", "a"), "duplicate"),
                           (("a", UNK_TOKEN), "reserved"),
                           ((PAD_TOKEN,), "reserved")]:
        with pytest.raises(ValueError, match=message):
            Vocabulary(words)
    path = tmp_path / "vocab.txt"
    path.write_text(f"a\n{UNK_TOKEN}\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*reserved"):
        load_vocabulary(path)
