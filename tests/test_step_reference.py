"""The training step against a dense reference step written out here.

``model.train_step`` pays for the embedding rows a batch touches: it
reads only the batch's rows through the group routing, its embedding
gradients hold only those rows, ``aggregate_gradients`` folds only those
words onto the groups they route to, and Adadelta runs its formulas on
those rows alone. The reference below builds the whole second-channel
matrix, takes its gradients from ``model.batch_gradients``, scatters
them into vocabulary-sized matrices and does the dense work on every
row; both must agree to the last bit.
The forward and backward pass behind the gradients is held to the
per-document reference in ``test_batched_reference.py``.
"""

import numpy as np
import pytest

from groupshare import model
from groupshare.corpus import random_pretrained
from groupshare.groups import groups_from_tsv
from groupshare.hashing import routes
from groupshare.seeding import make_rng
from helpers import dense_gradients, random_group_tsv, random_words, vocab_of

MODES = ("none", "random", "group_init_no_share", "group_init_share")


def dense_adadelta(param, grad, state, rho, eps):
    state.sq_grad *= rho
    state.sq_grad += (1.0 - rho) * grad * grad
    delta = -np.sqrt(state.sq_delta + eps) / np.sqrt(state.sq_grad + eps) * grad
    state.sq_delta *= rho
    state.sq_delta += (1.0 - rho) * delta * delta
    param += delta


def dense_matrix(shared):
    """The whole second-channel matrix: the private rows, and every
    grouped coordinate read from its group row."""
    grouped = shared.routing.grouped_ids
    flat, signs = routes(shared, np.arange(grouped.size))
    out = np.zeros((shared.table.vocab_size, shared.dim))
    out[shared.private_ids] = shared.private
    dims = np.arange(shared.dim)[None, :]
    out[grouped] = shared.groups.vectors[flat // shared.dim, dims] * signs
    return out


def dense_aggregate(grad, shared):
    grouped = shared.routing.grouped_ids
    flat, signs = routes(shared, np.arange(grouped.size))
    n, dim = shared.groups.vectors.shape
    signed = grad[grouped] * signs
    out = np.bincount(flat.ravel(), weights=signed.ravel(), minlength=n * dim)
    return out.reshape(n, dim)


def dense_train_step(params, opt, docs, labels):
    shared = params.ch2
    config = params.config
    rng = make_rng(config.seed, "dropout", params.step_count)
    loss, grads, words = model.batch_gradients(params, docs, labels, dropout_rng=rng)
    # the carried rows are the batch's words; every other row's gradient
    # is +0.0 in the dense matrices
    np.testing.assert_array_equal(words, np.unique(np.concatenate(docs)))
    grads = dense_gradients(params, grads, words)
    if shared is not None:
        # the step read the dense matrix's rows of its words
        assert model.sync_forward(shared, words).tobytes() == \
            dense_matrix(shared)[words].tobytes()

    def step(name, param, grad):
        dense_adadelta(param, grad, opt.state(name, param.shape), opt.rho, opt.eps)

    step("emb_p", params.emb_pretrained, grads["emb_p"])
    if shared is not None:
        step("group_emb", shared.groups.vectors, dense_aggregate(grads["ch2"], shared))
        step("ch2_private", shared.private, grads["ch2"][shared.private_ids])
    for bank_key, bank in (("bank_p", params.bank_p), ("bank_s", params.bank_s)):
        if bank is not None:
            for h in config.filter_heights:
                step(f"{bank_key}/W/{h}", bank.weights[h], grads[f"{bank_key}/W/{h}"])
                step(f"{bank_key}/b/{h}", bank.biases[h], grads[f"{bank_key}/b/{h}"])
    step("softmax/W", params.softmax_w, grads["softmax/W"])
    step("softmax/b", params.softmax_b, grads["softmax/b"])
    params.step_count += 1
    return loss


def setup(mode):
    """40 words in groups; the documents use only the first 25 of them."""
    rng = np.random.default_rng(7)
    words = random_words(rng, 40)
    vocab = vocab_of(words)
    pretrained = random_pretrained(vocab, 6, seed=8)
    table = None
    if mode.startswith("group"):
        table = groups_from_tsv(random_group_tsv(rng, words, 9, 70), vocab)
    config = model.ModelConfig(
        num_classes=3, embedding_dim=6, filter_heights=(2, 3),
        filters_per_height=4, dropout_rate=0.5, channel2_mode=mode, seed=9,
    )
    params = model.init_params(config, vocab, pretrained, group_table=table)
    first = vocab.index[words[0]]
    batches = []
    for _ in range(3):
        docs = [rng.integers(first, first + 25, size=rng.integers(1, 9))
                for _ in range(8)]
        batches.append((docs, rng.integers(0, 3, size=8)))
    return params, batches


def state_bytes(params, opt):
    out = {name: arr.tobytes() for name, arr in model._collect_tensors(params, opt)}
    if params.ch2 is not None:
        out["ch2/values"] = dense_matrix(params.ch2).tobytes()
    out["step_count"] = params.step_count
    return out


@pytest.mark.parametrize("mode", MODES)
def test_train_step_matches_dense_reference_bit_for_bit(mode):
    params, batches = setup(mode)
    reference, _ = setup(mode)
    opt, ref_opt = model.Optimizer(eps=1e-8), model.Optimizer(eps=1e-8)
    untouched = params.emb_pretrained[-10:].copy()
    for step in range(7):
        docs, labels = batches[step % len(batches)]
        assert model.train_step(params, opt, docs, labels) == \
            dense_train_step(reference, ref_opt, docs, labels)
    np.testing.assert_array_equal(params.emb_pretrained[-10:], untouched)
    assert state_bytes(params, opt) == state_bytes(reference, ref_opt)
    docs = [d for batch, _ in batches for d in batch]
    assert model.predict(params, docs)[1].tobytes() == \
        model.predict(reference, docs)[1].tobytes()
