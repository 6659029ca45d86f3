"""The block forward and backward pass against the per-document loop.

``perdoc_reference`` pads and runs one document at a time through its
own im2col convolution; ``model`` runs blocks of documents through one
projection of their distinct words per channel and height, sums each
window from the projections, and forms the backward pass at the argmax
windows only. Both compute the same sums in another order, so
gradients, losses and probabilities must agree to 1e-12 relative to
each tensor's largest entry. Predictions must also be slice-stable: a
document's probabilities are the same bytes whatever documents share its
call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perdoc_reference as reference
from groupshare import model, nnet
from groupshare.corpus import random_pretrained
from groupshare.groups import groups_from_tsv
from groupshare.nnet import (
    conv_backward,
    conv_forward,
    dropout,
    maxpool1,
    maxpool1_backward,
    padded_rows,
    softmax_xent,
    softmax_xent_backward,
)
from helpers import (
    dense_gradients,
    in_blas_threads,
    random_group_tsv,
    random_words,
    vocab_of,
)

MODES = ("none", "random", "group_init_no_share", "group_init_share")
RTOL = 1e-12


def build(mode, heights, dropout_rate, seed, dim=5, filters=4):
    """A small model whose softmax layer is nonzero, so every layer gets
    gradient."""
    rng = np.random.default_rng(seed)
    words = random_words(rng, 24)
    vocab = vocab_of(words)
    table = None
    if mode.startswith("group"):
        table = groups_from_tsv(random_group_tsv(rng, words, 6, 40), vocab)
    config = model.ModelConfig(
        num_classes=3, embedding_dim=dim, filter_heights=heights,
        filters_per_height=filters, dropout_rate=dropout_rate, channel2_mode=mode,
        seed=seed,
    )
    params = model.init_params(config, vocab,
                               random_pretrained(vocab, dim, seed=seed),
                               group_table=table)
    params.softmax_w += rng.normal(0.0, 0.5, params.softmax_w.shape)
    return params


@st.composite
def corpora(draw, max_docs=14):
    """Documents shorter than, equal to and far longer than the filter
    heights (long ones give several tiles of window responses), over a
    full or a three-token alphabet (repeated windows, hence tied max-pool
    scores), with UNK."""
    alphabet = draw(st.sampled_from([25, 3]))      # ids 0..23 are words, 24 is UNK
    lengths = draw(st.lists(
        st.one_of(st.integers(1, 6), st.integers(60, 200)),
        min_size=1, max_size=max_docs))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    docs = [rng.integers(0, alphabet, size=n) for n in lengths]
    labels = rng.integers(0, 3, size=len(docs))
    return docs, labels


def assert_close(got, want):
    """Equal to RTOL relative to the largest entry of ``want``: a sum taken
    in another order moves each entry by a few ulps of the terms summed,
    which for an entry that cancels to near zero is many of its own ulps."""
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=RTOL,
                               atol=RTOL * np.abs(want).max(initial=0.0))


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(MODES),
       heights=st.sampled_from([(2, 3), (1, 4), (3,), (2, 5)]),
       dropout_rate=st.sampled_from([0.0, 0.5]),
       seed=st.integers(0, 1000),
       corpus=corpora())
def test_chunked_pass_matches_per_document_reference(mode, heights, dropout_rate,
                                                     seed, corpus):
    docs, labels = corpus
    params = build(mode, heights, dropout_rate, seed)

    loss, grads, words = model.batch_gradients(
        params, docs, labels, dropout_rng=np.random.default_rng(seed))
    grads = dense_gradients(params, grads, words)
    ref_loss, ref_grads = reference.batch_gradients(
        params, docs, labels, dropout_rng=np.random.default_rng(seed))
    assert_close(loss, ref_loss)
    assert set(grads) == set(ref_grads)
    for key in grads:
        assert_close(grads[key], ref_grads[key])

    got_labels, probs = model.predict(params, docs)
    ref_labels, ref_probs = reference.predict(params, docs)
    assert_close(probs, ref_probs)
    np.testing.assert_array_equal(got_labels, probs.argmax(axis=1))
    assert_close(model.loss_on(params, docs, labels),
                 reference.loss_on(params, docs, labels))


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 1000),
       corpus=corpora(max_docs=24),
       cut=st.tuples(st.floats(0, 1, exclude_max=True),
                     st.floats(0, 1, exclude_max=True)))
def test_predict_is_slice_stable(mode, seed, corpus, cut):
    docs, _ = corpus
    params = build(mode, (2, 3), 0.0, seed)
    a, b = sorted(int(c * len(docs)) for c in cut)
    _, whole = model.predict(params, docs)
    _, part = model.predict(params, docs[a : b + 1])
    assert part.tobytes() == whole[a : b + 1].tobytes()
    _, single = model.predict(params, [docs[a]])
    assert single.tobytes() == whole[a : a + 1].tobytes()


def check_predict_is_slice_stable_at_the_paper_sizes():
    """Products as large as the paper's model runs (d=50, 100 filters of
    heights 3-5, 600 features) and larger (300 filters, projections of
    900 to 1,500 columns), where threaded BLAS splits a product."""
    for filters in (100, 300):
        params = build("group_init_share", (3, 4, 5), 0.0, 3, dim=50,
                       filters=filters)
        rng = np.random.default_rng(4)
        docs = [rng.integers(0, 25, size=rng.integers(1, 14)) for _ in range(90)]
        _, whole = model.predict(params, docs)
        for _ in range(12):
            a, b = sorted(rng.integers(0, len(docs), size=2))
            assert model.predict(params, docs[a : b + 1])[1].tobytes() == \
                whole[a : b + 1].tobytes(), (filters, a, b)


def test_predict_is_slice_stable_at_the_paper_sizes():
    """With OpenBLAS's own thread count, and with one thread, as the
    benchmark runs."""
    check_predict_is_slice_stable_at_the_paper_sizes()
    in_blas_threads(1, "test_batched_reference",
                    "check_predict_is_slice_stable_at_the_paper_sizes")


@settings(max_examples=25, deadline=None)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 1000),
       corpus=corpora(max_docs=24), words=st.integers(1, 6),
       positions=st.integers(1, 64))
def test_a_call_split_into_blocks_matches_one_block(mode, seed, corpus, words,
                                                    positions):
    """Blocks of at most ``words`` distinct words and ``positions`` padded
    token positions, against one block per call."""
    docs, labels = corpus
    params = build(mode, (2, 3), 0.5, seed)
    whole_probs = model.predict(params, docs)[1]
    whole_loss = model.loss_on(params, docs, labels)
    whole = model.batch_gradients(params, docs, labels,
                                  dropout_rng=np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "BLOCK_WORDS", words)
        patch.setattr(model, "BLOCK_POSITIONS", positions)
        split_probs = model.predict(params, docs)[1]
        split_loss = model.loss_on(params, docs, labels)
        split = model.batch_gradients(params, docs, labels,
                                      dropout_rng=np.random.default_rng(seed))
    assert split_probs.tobytes() == whole_probs.tobytes()
    assert_close(split_loss, whole_loss)
    assert_close(split[0], whole[0])
    np.testing.assert_array_equal(split[2], whole[2])
    for key in whole[1]:
        assert_close(split[1][key], whole[1][key])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6),
       height=st.integers(1, 4), extra=st.integers(0, 40),
       dim=st.integers(1, 5), filters=st.integers(1, 5),
       tile=st.sampled_from([1, 50, nnet.TILE_VALUES]))
def test_batched_kernels_match_their_per_item_forms(seed, batch, height, extra,
                                                    dim, filters, tile):
    rng = np.random.default_rng(seed)
    length = height + extra
    n = int(rng.integers(1, 12))
    rows = np.zeros((padded_rows(n + 1), dim))   # row n reads for PAD
    rows[:n] = rng.normal(0, 1, size=(n, dim))
    slots = rng.integers(0, n + 1, size=(batch, length))
    w = rng.normal(0, 1, size=(filters, height, dim))
    b = rng.normal(0, 1, size=filters)
    counts = rng.integers(1, length - height + 2, size=batch)
    d_pool = rng.normal(0, 1, size=(batch, filters))
    d_pool[rng.random(d_pool.shape) < 0.3] = 0.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nnet, "TILE_VALUES", tile)
        pre_pooled, idx, cache = conv_forward(rows, slots, counts, w, b, maxpool1)
    pooled = np.maximum(pre_pooled, 0.0)
    d_pre = d_pool * (pooled > 0.0)
    d_proj = maxpool1_backward(d_pre, idx, slots, height, len(rows))
    d_rows, d_w, d_b = conv_backward(d_proj, cache)

    sum_rows, sum_w, sum_b = np.zeros_like(rows), np.zeros_like(w), np.zeros_like(b)
    for i in range(batch):
        out_i, cache_i = reference.conv_forward(rows[slots[i]], w, b)
        idx_i = np.argmax(out_i[: counts[i]], axis=0)
        assert_close(pooled[i], out_i[idx_i, np.arange(filters)])
        # the argmax windows agree wherever a gradient passes the ReLU
        live = pooled[i] > 0.0
        np.testing.assert_array_equal(idx[i][live], idx_i[live])
        d_conv_i = np.zeros_like(out_i)
        d_conv_i[idx_i, np.arange(filters)] = d_pool[i]
        dx_i, d_w_i, d_b_i = reference.conv_backward(d_conv_i, cache_i)
        np.add.at(sum_rows, slots[i], dx_i)
        sum_w += d_w_i
        sum_b += d_b_i
    assert_close(d_rows, sum_rows)
    assert_close(d_w, sum_w)
    assert_close(d_b, sum_b)

    logits = rng.normal(0, 3, size=(batch, filters + 1))
    labels = rng.integers(0, filters + 1, size=batch)
    losses, probs = softmax_xent(logits, labels)
    d_logits = softmax_xent_backward(probs, labels)
    for i in range(batch):
        loss_i, probs_i = reference.softmax_xent(logits[i], labels[i])
        assert_close(losses[i], loss_i)
        assert_close(probs[i], probs_i)
        assert_close(d_logits[i], probs_i - (np.arange(filters + 1) == labels[i]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), docs=st.integers(1, 8),
       features=st.integers(1, 9), rate=st.sampled_from([0.1, 0.5, 0.9]))
def test_chunk_dropout_mask_is_the_per_document_masks_stacked(seed, docs, features,
                                                              rate):
    feat = np.random.default_rng(seed + 1).normal(0, 1, size=(docs, features))
    out, mask = dropout(feat, rate, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    rows = [dropout(row, rate, rng) for row in feat]
    np.testing.assert_array_equal(mask, np.stack([m for _, m in rows]))
    np.testing.assert_array_equal(out, np.stack([o for o, _ in rows]))
