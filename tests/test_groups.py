import numpy as np
import pytest

from groupshare.groups import (
    GroupTable,
    groups_from_brown,
    groups_from_mesh,
    groups_from_sentiment_lexicon,
    groups_from_tsv,
    init_group_embeddings,
    load_groups,
    mesh_prefix,
    write_groups_tsv,
)
from helpers import random_group_tsv, random_words, vocab_of


def test_tsv_groups_basic():
    vocab = vocab_of(["cat", "dog", "fish", "bird"])
    table = groups_from_tsv(
        ["pets\tdog", "pets\tcat", "water\tfish", "pets\tdog"], vocab
    )
    assert table.group_count == 2
    assert table.group_keys == ["pets", "water"]
    assert table.members == [[0, 1], [2]]  # ascending word ids, dedup applied
    assert table.groups_of(0) == [0]
    assert table.groups_of(3) == []
    assert sorted(table.membership) == [0, 1, 2]


def test_tsv_groups_skips_oov_and_counts_them():
    vocab = vocab_of(["cat"])
    table = groups_from_tsv(
        ["a\tcat", "a\tunicorn", "b\tunicorn", "b\tgriffin"], vocab
    )
    assert table.group_count == 1
    assert table.oov_skipped == 2  # unique unknown words
    assert table.groups_of(0) == [0]


def test_tsv_groups_malformed_lines():
    vocab = vocab_of(["cat"])
    with pytest.raises(ValueError, match="line 1"):
        groups_from_tsv(["no-tab-here"], vocab)
    with pytest.raises(ValueError, match="line 2"):
        groups_from_tsv(["a\tcat", "\tcat"], vocab)
    with pytest.raises(ValueError, match="line 1"):
        groups_from_tsv(["a\tcat\textra"], vocab)


def test_multi_membership_is_preserved_in_order():
    vocab = vocab_of(["w"])
    table = groups_from_tsv(["g2\tw", "g1\tw", "g3\tw"], vocab)
    # group ids follow first appearance; membership list is ascending
    assert table.group_keys == ["g2", "g1", "g3"]
    assert table.groups_of(0) == [0, 1, 2]


def test_brown_groups():
    vocab = vocab_of(["the", "cat", "sat"])
    lines = [
        "0010\tthe\t51",
        "0010\tcat\t12",
        "0111\tsat\t7",
    ]
    table = groups_from_brown(lines, vocab)
    assert table.group_count == 2
    assert table.group_keys == ["0010", "0111"]
    assert table.members == [[0, 1], [2]]
    with pytest.raises(ValueError, match="not binary"):
        groups_from_brown(["01a1\tthe\t3"], vocab)
    with pytest.raises(ValueError, match="not an integer"):
        groups_from_brown(["0101\tthe\tmany"], vocab)
    with pytest.raises(ValueError, match="line 1"):
        groups_from_brown(["0101\tthe"], vocab)


def test_brown_one_group_per_distinct_bitstring():
    rng = np.random.default_rng(321)
    words = random_words(rng, 200)
    vocab = vocab_of(words)
    lines = []
    bitstrings = []
    for i in range(64):
        bits = format(i, "06b")
        bitstrings.append(bits)
    for j, w in enumerate(words):
        lines.append(f"{bitstrings[j % 64]}\t{w}\t{j + 1}")
    table = groups_from_brown(lines, vocab)
    assert table.group_count == 64
    assert sum(len(m) for m in table.members) == 200


def test_mesh_prefix_truncation():
    assert mesh_prefix("C06.552.150.125", 3) == "C06.552.150"
    assert mesh_prefix("C06.552", 3) == "C06.552"
    assert mesh_prefix("C06", 3) == "C06"
    assert mesh_prefix("C06.552.150.125", 1) == "C06"
    with pytest.raises(ValueError):
        mesh_prefix("552.150", 3)
    with pytest.raises(ValueError):
        mesh_prefix("C06.x52", 3)
    with pytest.raises(ValueError):
        mesh_prefix("", 3)


def test_mesh_groups_share_prefix():
    vocab = vocab_of(["colitis", "ileitis", "asthma"])
    lines = [
        "C06.552.150.125\tcolitis",
        "C06.552.150.300\tileitis",
        "C08.127.108\tasthma",
    ]
    table = groups_from_mesh(lines, vocab)
    assert table.group_keys == ["C06.552.150", "C08.127.108"]
    assert table.members == [[0, 1], [2]]
    deeper = groups_from_mesh(lines, vocab, prefix_depth=4)
    assert deeper.group_count == 3
    with pytest.raises(ValueError):
        groups_from_mesh(lines, vocab, prefix_depth=0)
    with pytest.raises(ValueError, match="line 1"):
        groups_from_mesh(["552\tcolitis"], vocab)


def test_sentiment_lexicon_groups():
    vocab = vocab_of(["good", "fine", "table", "bad"])
    lines = [
        "# comment line",
        "a\t001\t0.75\t0\tgood#1 fine#2",
        "n\t002\t0\t0\ttable#1",          # objective: dropped
        "a\t003\t0\t0.5\tbad#1 not_good#1",
        "a\t001\t0.25\t0.25\tgood#3",     # same synset key merges
    ]
    table = groups_from_sentiment_lexicon(lines, vocab)
    assert table.group_keys == ["a#001", "a#003"]
    assert table.members == [[0, 1], [3]]
    assert table.multiword_skipped == 1
    with pytest.raises(ValueError, match="non-numeric"):
        groups_from_sentiment_lexicon(["a\t1\thigh\t0\tgood#1"], vocab)
    with pytest.raises(ValueError, match="line 1"):
        groups_from_sentiment_lexicon(["a\t1\t0.5"], vocab)


def test_empty_groups_never_materialize():
    vocab = vocab_of(["known"])
    table = groups_from_tsv(["ghost\tmissing", "real\tknown"], vocab)
    assert table.group_keys == ["real"]
    assert table.group_count == 1


def test_constructor_rejects_bad_members():
    size = vocab_of(["a", "b", "c"]).num_rows
    for keys, members, message in [
        (["g"], [[]], "group 0 is empty"),
        (["g", "h"], [[0], [2, 1]], "group 1 members not strictly ascending"),
        (["g"], [[1, 1]], "not strictly ascending"),
        (["g"], [[0, size]], f"member {size} outside vocabulary"),
        (["g"], [[-1]], "member -1 outside vocabulary"),
        (["g", "h"], [[0]], "disagree on group count"),
    ]:
        with pytest.raises(ValueError, match=message):
            GroupTable(size, keys, members)


def test_constructor_derives_membership():
    vocab = vocab_of(["a", "b", "c"])
    built = groups_from_tsv(["g\ta", "g\tc", "h\tc"], vocab)
    table = GroupTable(vocab.num_rows, ["g", "h"], [[0, 2], [2]])
    assert table.membership == built.membership == {0: [0], 2: [0, 1]}
    assert table.members == built.members
    assert sorted(table.membership) == [0, 2]
    assert GroupTable(vocab.num_rows, [], []).membership == {}
    # the members as one array, group g's at flat[offsets[g]:offsets[g + 1]]
    for t, flat, offsets in [(table, [0, 2, 2], [0, 2, 3]),
                             (GroupTable(vocab.num_rows, [], []), [], [0])]:
        assert t.flat.dtype == t.offsets.dtype == np.int64
        np.testing.assert_array_equal(t.flat, flat)
        np.testing.assert_array_equal(t.offsets, offsets)
    assert table == built == GroupTable(vocab.num_rows, ["g", "h"], [[0, 2], [2]])


def test_group_tsv_dump_round_trips(tmp_path):
    rng = np.random.default_rng(55)
    for trial in range(10):
        words = random_words(rng, int(rng.integers(4, 40)))
        vocab = vocab_of(words)
        lines = random_group_tsv(rng, words, int(rng.integers(1, 8)),
                                 int(rng.integers(1, 60)))
        table = groups_from_tsv(lines, vocab)
        path = tmp_path / f"g{trial}.tsv"
        write_groups_tsv(table, vocab, path)
        with open(path) as f:
            reloaded = groups_from_tsv(f, vocab)
        assert reloaded.group_keys == table.group_keys
        assert reloaded.members == table.members
        first = path.read_bytes()
        write_groups_tsv(reloaded, vocab, path)
        assert path.read_bytes() == first


def test_load_groups_dispatch(tmp_path):
    vocab = vocab_of(["cat"])
    path = tmp_path / "g.tsv"
    path.write_text("k\tcat\n")
    table = load_groups(path, "tsv", vocab)
    assert table.group_count == 1
    with pytest.raises(ValueError, match="unknown groups kind"):
        load_groups(path, "xml", vocab)


def test_group_init_small_exact():
    vocab = vocab_of(["a", "b", "c"])
    table = groups_from_tsv(["g\ta", "g\tc", "h\tb"], vocab)
    pretrained = np.array([
        [1.0, 2.0],
        [3.0, 4.0],
        [5.0, 6.0],
        [0.1, 0.1],   # unk
        [0.0, 0.0],   # pad
    ])
    emb = init_group_embeddings(table, pretrained)
    np.testing.assert_array_equal(emb.vectors[0], [3.0, 4.0])  # mean of a, c
    np.testing.assert_array_equal(emb.vectors[1], [3.0, 4.0])  # just b
    assert emb.dim == 2


def test_group_init_matches_scalar_oracle_exactly():
    rng = np.random.default_rng(808)
    for trial in range(30):
        words = random_words(rng, int(rng.integers(3, 25)))
        vocab = vocab_of(words)
        lines = random_group_tsv(rng, words, int(rng.integers(1, 6)),
                                 int(rng.integers(2, 50)))
        table = groups_from_tsv(lines, vocab)
        dim = int(rng.integers(1, 9))
        pretrained = rng.normal(0, 1.5, size=(vocab.num_rows, dim))
        emb = init_group_embeddings(table, pretrained)
        for gid, members in enumerate(table.members):
            for j in range(dim):
                acc = 0.0
                for w in members:  # ascending id order, sum then divide
                    acc += pretrained[w, j]
                assert emb.vectors[gid, j] == acc / len(members)


def test_group_init_rejects_short_matrix():
    vocab = vocab_of(["a", "b"])
    table = groups_from_tsv(["g\ta"], vocab)
    with pytest.raises(ValueError, match="rows"):
        init_group_embeddings(table, np.zeros((2, 4)))
