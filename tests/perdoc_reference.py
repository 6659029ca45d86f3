"""The per-document forward and backward pass, kept as the slow reference.

``model`` runs blocks of documents through one projection of their
distinct words per channel and height, and sums each window from those
projections. This module is the loop it replaced: every document is
padded alone and goes through its own small im2col convolution (each
window's tokens copied side by side and multiplied by the flattened
filters), max-pool and backward products, written out here without a
batch axis. The property tests in ``test_batched_reference.py`` hold
``batch_gradients``, ``predict``, ``loss_on`` and the kernels to these
functions.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from groupshare import model
from groupshare.nnet import dropout


def conv_forward(x, weights, bias):
    length, dim = x.shape
    f, height, _ = weights.shape
    windows = sliding_window_view(x, height, axis=0)      # (n_t, dim, height)
    flat = windows.transpose(0, 2, 1).reshape(length - height + 1, height * dim)
    pre = flat @ weights.reshape(f, height * dim).T + bias
    return np.maximum(pre, 0.0), (flat, weights, pre, x.shape)


def conv_backward(d_out, cache):
    flat, weights, pre, x_shape = cache
    f, height, dim = weights.shape
    d_pre = d_out * (pre > 0.0)
    d_w = (d_pre.T @ flat).reshape(f, height, dim)
    d_b = d_pre.sum(axis=0)
    d_windows = (d_pre @ weights.reshape(f, height * dim)).reshape(-1, height, dim)
    dx = np.zeros(x_shape)
    for off in range(height):
        dx[off : off + d_windows.shape[0]] += d_windows[:, off, :]
    return dx, d_w, d_b


def softmax_xent(logits, label):
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    total = exp.sum()
    return np.log(total) - shifted[label], exp / total


def pad_document(ids, min_len, pad_id):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape[0] >= min_len:
        return ids
    return np.concatenate([ids, np.full(min_len - ids.shape[0], pad_id)])


def forward(ids, params, dropout_rng=None):
    """Logits of one padded document, and what its backward pass needs."""
    config = params.config
    mask = (ids != params.vocab.pad_id).astype(np.float64)
    real_len = int(mask.sum())
    matrices = [("emb_p", "bank_p", params.emb_pretrained, params.bank_p)]
    if params.channel2 is not None:
        matrices.append(("ch2", "bank_s", params.channel2_values(), params.bank_s))
    channels, pieces = [], []
    for grad_key, bank_key, matrix, bank in matrices:
        x = matrix[ids] * mask[:, None]
        per_height = []
        for h in config.filter_heights:
            out, cache = conv_forward(x, bank.weights[h], bank.biases[h])
            n_valid = max(real_len - h + 1, 1)
            idx = np.argmax(out[:n_valid], axis=0)
            pieces.append(out[idx, np.arange(out.shape[1])])
            per_height.append((h, cache, idx, out.shape[0]))
        channels.append((grad_key, bank_key, per_height))
    dropped, drop_mask = dropout(np.concatenate(pieces), config.dropout_rate,
                                 dropout_rng)
    logits = dropped @ params.softmax_w + params.softmax_b
    return logits, (ids, mask, channels, dropped, drop_mask)


def backward(d_logits, cache, params, grads):
    """Accumulate one document's gradients into ``grads``."""
    ids, mask, channels, dropped, drop_mask = cache
    f = params.config.filters_per_height
    grads["softmax/W"] += np.outer(dropped, d_logits)
    grads["softmax/b"] += d_logits
    d_feat = params.softmax_w @ d_logits
    if drop_mask is not None:
        d_feat = d_feat * drop_mask
    pos = 0
    for grad_key, bank_key, per_height in channels:
        dx_total = 0.0
        for h, conv_cache, idx, n_windows in per_height:
            d_conv = np.zeros((n_windows, f))
            d_conv[idx, np.arange(f)] = d_feat[pos : pos + f]
            pos += f
            dx, d_w, d_b = conv_backward(d_conv, conv_cache)
            grads[f"{bank_key}/W/{h}"] += d_w
            grads[f"{bank_key}/b/{h}"] += d_b
            dx_total = dx_total + dx
        np.add.at(grads[grad_key], ids, dx_total * mask[:, None])


def batch_gradients(params, docs, labels, dropout_rng=None):
    """Mean loss and mean gradients, one document at a time."""
    pad_to = params.config.max_height
    grads = model.zero_gradients(params, params.vocab.num_rows)
    total = 0.0
    for doc, label in zip(docs, labels):
        ids = pad_document(doc, pad_to, params.vocab.pad_id)
        logits, cache = forward(ids, params, dropout_rng)
        loss, probs = softmax_xent(logits, int(label))
        total += loss
        d_logits = probs.copy()
        d_logits[int(label)] -= 1.0
        backward(d_logits, cache, params, grads)
    scale = 1.0 / len(docs)
    for g in grads.values():
        g *= scale
    return total * scale, grads


def _logits(params, docs):
    pad_to = params.config.max_height
    for doc in docs:
        yield forward(pad_document(doc, pad_to, params.vocab.pad_id), params)[0]


def predict(params, docs):
    probs = np.array([softmax_xent(logits, 0)[1] for logits in _logits(params, docs)])
    return probs.argmax(axis=1), probs


def loss_on(params, docs, labels):
    losses = [softmax_xent(logits, int(label))[0]
              for logits, label in zip(_logits(params, docs), labels)]
    return float(sum(losses) / len(docs))
