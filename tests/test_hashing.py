import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare.groups import GroupTable, groups_from_tsv, init_group_embeddings
from groupshare.hashing import (
    HashSpec,
    MIXER_VERSION,
    SharedEmbedding,
    aggregate_gradients,
    build_routing,
    hash_dim,
    init_shared,
    routes,
    sign,
    sync_forward,
    unshared,
)
from helpers import random_group_tsv, random_words, vocab_of

# Frozen outputs of the versioned mixer. If any of these move, stored
# checkpoints stop reproducing their models; bump MIXER_VERSION instead
# of editing the constants.
GOLDEN_HASH = [
    # (seed, word, dim, num_groups) -> value
    ((0, 0, 0, 4), 0),
    ((0, 1, 0, 4), 1),
    ((0, 0, 1, 4), 1),
    ((7, 12, 345, 16), 10),
    ((7, 99999, 9999, 16), 12),
    ((123456789, 5, 7, 3), 2),
]
GOLDEN_SIGN = [
    ((0, 0, 0), 1),
    ((0, 1, 0), 1),
    ((0, 0, 1), 1),
    ((7, 12, 345), 1),
    ((7, 99999, 9999), -1),
    ((123456789, 5, 7), 1),
]


def test_hash_dim_golden_values_are_stable():
    for (seed, word, dim, k), expected in GOLDEN_HASH:
        assert hash_dim(word, dim, k, HashSpec(seed=seed)) == expected


def test_sign_golden_values_are_stable():
    for (seed, word, dim), expected in GOLDEN_SIGN:
        assert sign(word, dim, HashSpec(seed=seed)) == expected


def test_hash_dim_range_and_determinism():
    rng = np.random.default_rng(31)
    spec = HashSpec(seed=99)
    for _ in range(300):
        w = int(rng.integers(0, 1 << 40))
        d = int(rng.integers(0, 1 << 20))
        k = int(rng.integers(1, 50))
        v = hash_dim(w, d, k, spec)
        assert 0 <= v < k
        assert v == hash_dim(w, d, k, spec)
    assert hash_dim(12, 9, 1, spec) == 0
    with pytest.raises(ValueError):
        hash_dim(1, 2, 0, spec)


def test_vectorized_hash_matches_scalar():
    spec = HashSpec(seed=5)
    rng = np.random.default_rng(17)
    words = rng.integers(0, 10000, size=200)
    dims = rng.integers(0, 500, size=200)
    ks = rng.integers(1, 9, size=200)
    vec = hash_dim(words, dims, ks, spec)
    for i in range(200):
        assert vec[i] == hash_dim(int(words[i]), int(dims[i]), int(ks[i]), spec)
    svec = sign(words, dims, spec)
    for i in range(200):
        assert svec[i] == sign(int(words[i]), int(dims[i]), spec)


def test_sign_values_and_disabled_mode():
    spec = HashSpec(seed=3)
    vals = sign(np.arange(500), np.zeros(500, dtype=int), spec)
    assert set(np.unique(vals)) <= {-1, 1}
    off = HashSpec(seed=3, signing_enabled=False)
    assert sign(7, 7, off) == 1
    assert (sign(np.arange(100), np.arange(100), off) == 1).all()


def test_seed_changes_routing():
    a = [hash_dim(w, d, 8, HashSpec(seed=1)) for w in range(20) for d in range(20)]
    b = [hash_dim(w, d, 8, HashSpec(seed=2)) for w in range(20) for d in range(20)]
    assert a != b


def test_mixer_version_is_checked():
    assert HashSpec(seed=0).mixer_version == MIXER_VERSION
    with pytest.raises(ValueError, match="mixer version"):
        HashSpec(seed=0, mixer_version=MIXER_VERSION + 1)


def test_hash_seed_must_be_a_64_bit_integer():
    assert HashSpec(seed=(1 << 64) - 1).seed == (1 << 64) - 1
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError, match="hash seed"):
            HashSpec(seed=bad)
    for bad in (None, 1.5, "3"):
        with pytest.raises(TypeError):
            HashSpec(seed=bad)


def test_bit_flips_avalanche():
    # flipping one input bit should flip roughly half the output bits
    from groupshare.hashing import _mix
    rng = np.random.default_rng(8)
    flips = []
    for _ in range(200):
        w = int(rng.integers(0, 1 << 62))
        d = int(rng.integers(0, 1 << 62))
        base = int(_mix(np.uint64(42), w, d))
        bit = 1 << int(rng.integers(0, 62))
        other = int(_mix(np.uint64(42), w ^ bit, d))
        flips.append(bin(base ^ other).count("1"))
    mean = np.mean(flips)
    assert 24 < mean < 40  # 32 expected for a 64-bit avalanche


def _random_table(rng, n_words_lo=5, n_words_hi=30):
    words = random_words(rng, int(rng.integers(n_words_lo, n_words_hi)))
    vocab = vocab_of(words)
    lines = random_group_tsv(rng, words, int(rng.integers(1, 7)),
                             int(rng.integers(3, 60)))
    return vocab, groups_from_tsv(lines, vocab)


def test_routing_matches_scalar_hashes():
    # routes over every grouped row against scalar loops, and over a random
    # subset of rows against those rows of the whole
    rng = np.random.default_rng(222)
    for trial in range(15):
        vocab, table = _random_table(rng)
        dim = int(rng.integers(1, 10))
        spec = HashSpec(seed=int(rng.integers(0, 1 << 32)))
        pretrained = rng.normal(0, 1, size=(vocab.num_rows, dim))
        shared = init_shared(table, init_group_embeddings(table, pretrained),
                             pretrained, spec)
        grouped = shared.routing.grouped_ids
        assert list(grouped) == sorted(table.membership)
        flat, signs = routes(shared, np.arange(grouped.size))
        assert flat.shape == signs.shape == (grouped.size, dim)
        for row, w in enumerate(grouped):
            gids = table.groups_of(int(w))
            for j in range(dim):
                pick = hash_dim(int(w), j, len(gids), spec)
                assert flat[row, j] == gids[pick] * dim + j
                assert signs[row, j] == sign(int(w), j, spec)
        some = rng.permutation(grouped.size)[: int(rng.integers(0, grouped.size + 1))]
        some_flat, some_signs = routes(shared, some)
        assert some_flat.tobytes() == flat[some].tobytes()
        assert some_signs.tobytes() == signs[some].tobytes()


def test_routing_keeps_each_words_groups_and_no_coordinates():
    rng = np.random.default_rng(223)
    tables = [_random_table(rng)[1] for _ in range(10)]
    tables.append(GroupTable(7, [], []))
    for table in tables:
        r = build_routing(table)
        assert {f.name for f in dataclasses.fields(r)} == {
            "grouped_ids", "private_ids", "groups", "counts"}
        grouped = sorted(table.membership)
        width = max([len(table.groups_of(w)) for w in grouped], default=0)
        assert r.grouped_ids.tolist() == grouped
        assert r.private_ids.tolist() == sorted(
            set(range(table.vocab_size)) - set(grouped))
        assert r.counts.tolist() == [len(table.groups_of(w)) for w in grouped]
        for row, w in enumerate(grouped):
            gids = table.groups_of(w)
            assert r.groups[row, : len(gids)].tolist() == gids
        for arr in (r.grouped_ids, r.groups, r.counts):
            assert arr.size <= len(grouped) * max(width, 1)


def test_shared_embedding_values_follow_routing():
    rng = np.random.default_rng(91)
    for trial in range(10):
        vocab, table = _random_table(rng)
        dim = int(rng.integers(1, 8))
        pretrained = rng.normal(0, 1, size=(vocab.num_rows, dim))
        spec = HashSpec(seed=trial)
        groups_emb = init_group_embeddings(table, pretrained)
        shared = init_shared(table, groups_emb, pretrained, spec)
        grouped = set(table.membership)
        for w in range(vocab.num_rows):
            if w in grouped:
                gids = table.groups_of(w)
                for j in range(dim):
                    pick = gids[hash_dim(w, j, len(gids), spec)]
                    expected = groups_emb.vectors[pick, j] * sign(w, j, spec)
                    assert shared.values[w, j] == expected
            else:
                np.testing.assert_array_equal(shared.values[w], pretrained[w])


def test_sync_refreshes_grouped_rows_only():
    rng = np.random.default_rng(13)
    vocab, table = _random_table(rng)
    dim = 4
    pretrained = rng.normal(0, 1, size=(vocab.num_rows, dim))
    shared = init_shared(table, init_group_embeddings(table, pretrained),
                         pretrained, HashSpec(seed=2))
    before_private = shared.values[shared.private_ids].copy()
    shared.groups.vectors += 1.5
    values = sync_forward(shared)
    np.testing.assert_array_equal(values[shared.private_ids], before_private)
    grouped = shared.routing.grouped_ids
    flat, signs = routes(shared, np.arange(grouped.size))
    for row, w in enumerate(grouped):
        for j in range(dim):
            g = flat[row, j] // dim
            assert values[w, j] == shared.groups.vectors[g, j] * signs[row, j]


def test_degenerate_singletons_without_signing_reproduce_pretrained():
    rng = np.random.default_rng(44)
    words = random_words(rng, 12)
    vocab = vocab_of(words)
    lines = [f"s{i}\t{w}" for i, w in enumerate(words)]
    table = groups_from_tsv(lines, vocab)
    pretrained = rng.normal(0, 1, size=(vocab.num_rows, 6))
    spec = HashSpec(seed=123, signing_enabled=False)
    shared = init_shared(table, init_group_embeddings(table, pretrained),
                         pretrained, spec)
    np.testing.assert_array_equal(shared.values, pretrained)


def test_aggregate_gradients_matches_loop_oracle():
    rng = np.random.default_rng(333)
    for trial in range(12):
        vocab, table = _random_table(rng)
        dim = int(rng.integers(1, 8))
        pretrained = rng.normal(0, 1, size=(vocab.num_rows, dim))
        spec = HashSpec(seed=trial * 7)
        shared = init_shared(table, init_group_embeddings(table, pretrained),
                             pretrained, spec)
        grad = rng.normal(0, 1, size=shared.values.shape)
        got = _aggregate_all(grad, shared)
        np.testing.assert_array_equal(got, _loop_aggregate(grad, shared))


def _aggregate_all(grad, shared):
    """aggregate_gradients over every word, as a (group_count, d) matrix."""
    words = np.arange(grad.shape[0])
    groups, rows = aggregate_gradients(grad, words, shared)
    out = np.zeros_like(shared.groups.vectors)
    out[groups] = rows
    return out


def _loop_aggregate(grad, shared):
    """Scalar loops over words and coordinates: the oracle."""
    table, spec = shared.table, shared.spec
    expected = np.zeros_like(shared.groups.vectors)
    for w in sorted(table.membership):  # ascending word ids
        gids = table.groups_of(w)
        for j in range(shared.dim):
            pick = gids[hash_dim(w, j, len(gids), spec)]
            expected[pick, j] += grad[w, j] * sign(w, j, spec)
    return expected


def _dense_aggregate(grad, shared):
    """One bincount over every grouped word, zero rows included."""
    grouped = shared.routing.grouped_ids
    flat, signs = routes(shared, np.arange(grouped.size))
    n, dim = shared.groups.vectors.shape
    signed = grad[grouped] * signs
    out = np.bincount(flat.ravel(), weights=signed.ravel(), minlength=n * dim)
    return out.reshape(n, dim)


def _random_shared(seed, dim, signing=True):
    rng = np.random.default_rng(seed)
    vocab, table = _random_table(rng)
    pretrained = rng.normal(0, 1, size=(vocab.num_rows, dim))
    spec = HashSpec(seed=seed % 1000, signing_enabled=signing)
    shared = init_shared(table, init_group_embeddings(table, pretrained),
                         pretrained, spec)
    return rng, shared


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 9),
       word_share=st.floats(0.0, 1.0), zero_share=st.floats(0.0, 1.0),
       signing=st.booleans())
def test_aggregate_skipping_zero_rows_matches_dense_bytes(seed, dim, word_share,
                                                          zero_share, signing):
    # the rows of some words, zero and -0.0 rows among them, against the
    # dense fold of a matrix holding +0.0 for every other word
    rng, shared = _random_shared(seed, dim, signing)
    n = shared.values.shape[0]
    words = np.flatnonzero(rng.random(n) < word_share)
    rows = rng.normal(0, 1, size=(words.size, dim))
    rows[rng.random(words.size) < zero_share] = 0.0
    rows[rng.random(words.size) < 0.1] = -0.0
    rows[rng.random(rows.shape) < 0.1] = 0.0     # zero entries in other rows
    grad = np.zeros((n, dim))
    grad[words] = rows
    groups, got_rows = aggregate_gradients(rows, words, shared)
    flat, _ = routes(shared, np.flatnonzero(np.isin(shared.routing.grouped_ids, words)))
    fed = flat // dim
    np.testing.assert_array_equal(groups, np.unique(fed))
    got = np.zeros_like(shared.groups.vectors)
    got[groups] = got_rows
    assert got.tobytes() == _dense_aggregate(grad, shared).tobytes()
    np.testing.assert_array_equal(got, _loop_aggregate(grad, shared))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 9),
       word_share=st.floats(0.0, 1.0), signing=st.booleans())
def test_sync_of_some_words_matches_full_sync_on_their_rows(seed, dim, word_share,
                                                           signing):
    rng, shared = _random_shared(seed, dim, signing)
    shared.groups.vectors[...] = rng.normal(0, 1, size=shared.groups.vectors.shape)
    full = sync_forward(shared)
    assert full.shape == (shared.table.vocab_size, dim)
    words = np.flatnonzero(rng.random(full.shape[0]) < word_share)
    assert sync_forward(shared, words).tobytes() == full[words].tobytes()


def _loop_rows(shared, words):
    """Scalar loops over words and coordinates: the oracle of the gather."""
    table, spec = shared.table, shared.spec
    private = {int(w): row for row, w in enumerate(shared.private_ids)}
    out = np.zeros((len(words), shared.dim))
    for i, w in enumerate(words):
        gids = table.groups_of(int(w))
        if not gids:
            out[i] = shared.private[private[int(w)]]
        for j in range(shared.dim if gids else 0):
            pick = gids[hash_dim(int(w), j, len(gids), spec)]
            out[i, j] = shared.groups.vectors[pick, j] * sign(int(w), j, spec)
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 9),
       word_share=st.floats(0.0, 1.0), signing=st.booleans(),
       empty=st.booleans(), with_unk=st.booleans())
def test_gather_matches_loop_oracle_and_whole_matrix(seed, dim, word_share,
                                                     signing, empty, with_unk):
    # ascending words that mix grouped, private and UNK ids, over a table
    # with groups or over an empty one
    rng = np.random.default_rng(seed)
    vocab, table = _random_table(rng)
    if empty:
        table = GroupTable(vocab.num_rows, [], [])
    pretrained = rng.normal(0, 1, size=(vocab.num_rows, dim))
    spec = HashSpec(seed=seed % 1000, signing_enabled=signing)
    groups = init_group_embeddings(table, pretrained)
    groups.vectors[...] = rng.normal(0, 1, size=groups.vectors.shape)
    shared = init_shared(table, groups, pretrained, spec)
    pick = rng.random(vocab.num_rows) < word_share
    pick[vocab.unk_id] = with_unk
    words = np.flatnonzero(pick)
    got = sync_forward(shared, words)
    assert got.tobytes() == _loop_rows(shared, words).tobytes()
    assert got.tobytes() == shared.values[words].tobytes()


def test_private_rows_must_match_the_routing():
    rng = np.random.default_rng(6)
    vocab, table = _random_table(rng)
    pretrained = rng.normal(0, 1, size=(vocab.num_rows, 3))
    shared = init_shared(table, init_group_embeddings(table, pretrained),
                         pretrained, HashSpec(seed=0))
    assert shared.private.shape == (shared.private_ids.size, 3)
    for bad in (shared.private[:-1], shared.private[:, :2]):
        with pytest.raises(ValueError, match="private rows"):
            SharedEmbedding(private=bad, table=table, groups=shared.groups,
                            spec=shared.spec, routing=shared.routing)
    free = unshared(pretrained, HashSpec(seed=0))
    assert free.private is pretrained
    np.testing.assert_array_equal(free.private_ids, np.arange(vocab.num_rows))
    assert free.groups.vectors.shape == (0, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 9),
       signing=st.booleans())
def test_aggregate_is_the_adjoint_of_sync(seed, dim, signing):
    # <gather(g), E> over the grouped rows equals <g, aggregate(E)>
    rng, shared = _random_shared(seed, dim, signing)
    g = rng.normal(0, 1, size=shared.groups.vectors.shape)
    e = rng.normal(0, 1, size=(shared.table.vocab_size, dim))
    shared.groups.vectors[...] = g
    rows = shared.routing.grouped_ids
    terms = sync_forward(shared, rows) * e[rows]
    lhs = terms.sum()
    rhs = (g * _aggregate_all(e, shared)).sum()
    assert abs(lhs - rhs) <= 1e-12 * np.abs(terms).sum()


def test_aggregate_gradients_shape_check():
    rng = np.random.default_rng(3)
    vocab, table = _random_table(rng)
    pretrained = rng.normal(0, 1, size=(vocab.num_rows, 3))
    shared = init_shared(table, init_group_embeddings(table, pretrained),
                         pretrained, HashSpec(seed=0))
    with pytest.raises(ValueError, match="shape"):
        aggregate_gradients(np.zeros((2, 2)), np.array([0, 1]), shared)


def test_init_shared_validates_shapes():
    rng = np.random.default_rng(5)
    vocab, table = _random_table(rng)
    pretrained = rng.normal(0, 1, size=(vocab.num_rows, 3))
    groups_emb = init_group_embeddings(table, pretrained)
    with pytest.raises(ValueError, match="rows"):
        init_shared(table, groups_emb, pretrained[:-1], HashSpec(seed=0))
    wide = rng.normal(0, 1, size=(vocab.num_rows, 4))
    with pytest.raises(ValueError, match="width"):
        init_shared(table, groups_emb, wide, HashSpec(seed=0))
