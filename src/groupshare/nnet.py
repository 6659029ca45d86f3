"""Numpy kernels for the convolutional text classifier.

All kernels are pure numpy in float64, written as forward/backward pairs
so gradients can be finite-difference checked. Each takes the form that
``model`` passes: a block of documents padded to one length, documents
first. Filters span the full width, so a filter of height h is h slices,
one per token of its window. The convolution projects each distinct
embedding row onto every slice once and forms a window's response as a
sum of h projections, shifted by one token each, and pools the
responses of a run of documents as it forms them. The pool finds each
filter's winning window only for a caller that runs the backward pass.
The kernels trust their callers' checks: ``model.forward`` checks the
block length, ``ModelConfig`` the dropout rate,
``model.apply_gradients`` each gradient.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse


# Forward products run in blocks of this many rows; see rows_product.
ROW_BLOCK = 24


def padded_rows(n: int) -> int:
    """``n`` rounded up to a positive multiple of ROW_BLOCK."""
    return max(1, -(-n // ROW_BLOCK)) * ROW_BLOCK


def rows_product(a: np.ndarray, b: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """``a @ b`` for a 2-D ``a``, as one product per block of ROW_BLOCK rows.

    OpenBLAS picks its kernels, and how it splits a product between
    threads, by the product's size, and the rows of a small product or of
    a partial tile come out with other last bits than the same rows inside
    a larger product. A stack of equal-sized blocks, the last one padded
    with zero rows, gives each row one product shape wherever it sits. On
    OpenBLAS 0.3.31 running its SkylakeX kernels (the set it picks at run
    time on an AVX-512 CPU; "Haswell" in numpy's build information is only
    the build's base target), with one thread or two, 24-row blocks keep
    every row's bytes independent of its position and of its neighbours
    for inner sizes 4 to 1,500 and 2 to 3,600 columns; 32-row blocks did
    not, at 300, 500 and 700 columns with one thread.

    An ``a`` whose row count is a multiple of ROW_BLOCK is used as it is,
    and then ``out``, a C-ordered array of the product's shape, may take
    the product.
    """
    n = a.shape[0]
    rows = padded_rows(n)
    if rows != n:
        padded = np.zeros((rows, a.shape[1]))
        padded[:n] = a
        a = padded
    blocks = a.reshape(rows // ROW_BLOCK, ROW_BLOCK, a.shape[1])
    if out is not None:
        out = out.reshape(blocks.shape[:2] + (b.shape[1],))
    return np.matmul(blocks, b, out=out).reshape(rows, b.shape[1])[:n]


def _window_sums(slots: np.ndarray, counts: np.ndarray, height: int, n_rows: int):
    """The 0/1 matrix through which conv_forward sums each window.

    Row ``d * windows + t`` selects column ``slots[d, t + k] * height + k``
    for k = 0..height-1 and then the bias column ``n_rows * height``, in
    that order; a window past its document's count selects the -inf
    column ``n_rows * height + 1`` as often instead.
    """
    docs, length = slots.shape
    n_t = length - height + 1
    bias_col = n_rows * height
    cols = np.empty((docs, n_t, height + 1), dtype=np.int64)
    for k in range(height):
        cols[:, :, k] = slots[:, k : k + n_t] * height + k
    cols[:, :, height] = bias_col
    cols[np.arange(n_t) >= counts[:, None]] = bias_col + 1
    return scipy.sparse.csr_array(
        (np.ones(cols.size), cols.reshape(-1), np.arange(0, cols.size + 1, height + 1)),
        shape=(docs * n_t, bias_col + 2))


# conv_forward forms and pools the window responses of a run of documents
# at a time: the fewest whole documents that hold at least this many
# (window, filter) values (4 MiB), or the rest of the block, so a block's
# responses never exist whole. Each run's product is a fresh array, and
# 4 MiB is numpy's floor for asking the kernel for huge pages. In a
# training step on 200-token documents, runs of at most 2 MiB took fresh
# pages for each product and for the backward pass's gradients, about
# 7,700 minor faults a step; runs of at least 4 MiB mostly reuse the
# memory that the run before them freed, about 2,100 faults a step, and
# 3,100 with numpy's huge-page advice turned off.
TILE_VALUES = 1 << 19


def conv_forward(rows: np.ndarray, slots: np.ndarray, counts: np.ndarray,
                 weights: np.ndarray, bias: np.ndarray, pool):
    """Full-width 1-D convolution over the token axis, max-pooled.

    rows: (n, dim) embedding rows, n a multiple of ROW_BLOCK; slots:
    (docs, length) the row of ``rows`` at each token position, with
    length at least the filter height; counts: (docs,) the windows of
    each document that the pool covers, ``1 <= counts[d] <= length -
    height + 1``; weights: (filters, height, dim); bias: (filters,);
    pool: ``maxpool1``, or ``maxpool1`` without the index, called on the
    (docs, windows, filters) pre-activations of each run of documents as
    it is formed. Returns ((docs, filters) pooled pre-activations,
    (docs, filters) their windows or None from a pool without the index,
    and a cache for the backward pass).

    Every row is projected onto every slice at once, ``P = rows_product(
    rows, w)`` with ``w`` the slices ``weights[:, k, :].T`` side by side,
    so a row's projection does not depend on the other rows. Window t's
    pre-activation is ``sum_k P[slots[t + k], block k] + bias``, added in
    the order k = 0..height-1 and the bias last, as one sparse product; a
    window past its document's count reads -inf, so that the pool skips
    it. The responses are formed and pooled a run of documents at a time,
    each run the fewest documents that hold TILE_VALUES values, the last
    run of a block perhaps fewer; a run boundary changes no document's
    arithmetic. The caller passes the pool so that it runs, and is timed,
    as the caller's ``maxpool1``.
    """
    f, height, dim = weights.shape
    n = rows.shape[0]
    w = weights.transpose(2, 1, 0).reshape(dim, height * f)   # block k: slice k
    # row r * height + k: slice k's response to row r; then the bias row
    # and the -inf row
    proj = np.empty((n * height + 2, f))
    rows_product(rows, w, out=proj[:-2])
    proj[-2] = bias
    proj[-1] = -np.inf
    n_t = slots.shape[1] - height + 1
    step = -(-TILE_VALUES // (n_t * f))
    runs = [pool((_window_sums(slots[lo : lo + step], counts[lo : lo + step],
                               height, n) @ proj).reshape(-1, n_t, f))
            for lo in range(0, len(slots), step)]
    top, idx = zip(*runs)
    return (np.concatenate(top), None if idx[0] is None else np.concatenate(idx),
            (rows, w, f))


def conv_backward(d_proj: np.ndarray, cache):
    """Gradients of conv_forward from the gradient of its projections.

    d_proj: (n, height * filters), as maxpool1_backward gives it. Returns
    (d_rows, d_weights, d_bias): the gradients of ``rows``, of the
    weights and of the bias. Each window adds one projection of block 0,
    so the bias gradient is the column sum of that block.
    """
    rows, w, f = cache
    dim, width = w.shape
    d_rows = d_proj @ w.T
    d_w = (rows.T @ d_proj).reshape(dim, width // f, f).transpose(2, 1, 0)
    return d_rows, d_w, d_proj[:, :f].sum(axis=0)


def maxpool1(values: np.ndarray, index: bool = True):
    """Max over the window axis of a batch, first index winning ties.

    values: (batch, windows, filters). Returns ((batch, filters) max
    values, (batch, filters) argmax indices), or (max values, None)
    without ``index``: only the backward pass reads the indices, and a
    pool that finds them takes five to nine times as long as the max
    alone. The argmax is the first window equal to the max: ``argmax``
    over a middle axis would copy ``values`` whole, a mask of bools costs
    an eighth of that.
    """
    top = values.max(axis=1)
    if not index:
        return top, None
    return top, (values == top[:, None, :]).argmax(axis=1)


def maxpool1_backward(d_out: np.ndarray, idx: np.ndarray, slots: np.ndarray,
                      height: int, n_rows: int) -> np.ndarray:
    """Scatter pooled gradients onto the projections of the argmax windows.

    d_out and idx: (batch, filters), the gradient of each pooled
    pre-activation and its window; slots: as conv_forward took them;
    n_rows: the rows of conv_forward's ``rows``. Returns the (n_rows, height * filters) gradient of
    conv_forward's projections: filter j of window t of document b adds
    ``d_out[b, j]`` to column ``k * filters + j`` of row ``slots[b, t + k]``
    for each k, in one ``bincount``.
    """
    batch, f = d_out.shape
    k = np.arange(height)
    first = np.arange(batch)[:, None] * slots.shape[1] + idx   # (batch, filters)
    at = np.take(slots, first[:, :, None] + k)                   # (batch, filters, height)
    cell = (at * height + k) * f + np.arange(f)[:, None]
    d_proj = np.bincount(cell.reshape(-1), weights=np.repeat(d_out.reshape(-1), height),
                         minlength=n_rows * height * f)
    return d_proj.reshape(n_rows, height * f)


def softmax(logits: np.ndarray):
    """Softmax over each row of ``logits``, each row's max subtracted first
    so that large scores do not overflow. Returns (probabilities, shifted
    logits, (batch, 1) sums of their exponentials)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    return exp / total, shifted, total


def softmax_xent(logits: np.ndarray, labels):
    """Cross-entropy of a softmax over each row of ``logits`` against its
    true label.

    logits: (batch, classes); labels: one class index per row. Returns
    ((batch,) losses, (batch, classes) probabilities of ``softmax``).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != logits.shape[:1]:
        raise ValueError("need one label per row of logits")
    classes = logits.shape[1]
    if ((labels < 0) | (labels >= classes)).any():
        raise ValueError(f"label outside [0, {classes})")
    probs, shifted, total = softmax(logits)
    picked = np.take_along_axis(shifted, labels[:, None], axis=1)
    loss = (np.log(total) - picked)[:, 0]
    return loss, probs


def softmax_xent_backward(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d loss / d logits = probabilities minus the one-hot label, per row;
    ``labels`` as softmax_xent checked them."""
    return probs - (np.arange(probs.shape[1]) == labels[:, None])


def dropout(vec: np.ndarray, rate: float, rng: np.random.Generator = None):
    """Inverted dropout on a vector, or on a batch of them, one per row.

    With a generator (training) each coordinate is zeroed with
    probability ``rate`` and survivors are scaled by 1/(1-rate), so the
    expectation matches the evaluation pass, which passes no generator
    and gets the input unchanged. The mask comes from one ``rng.random``
    call, which draws the rows in order, so a batch's mask is the masks
    of its rows drawn one after another. Returns (output, mask); mask is
    None when nothing was dropped.
    """
    if rng is None or rate == 0.0:
        return vec, None
    mask = (rng.random(vec.shape) >= rate) / (1.0 - rate)
    return vec * mask, mask


RHO, EPS = 0.95, 1e-6     # Adadelta's defaults, as in Zeiler (2012)


@dataclass
class AdadeltaState:
    """Running squared-gradient and squared-update accumulators."""

    sq_grad: np.ndarray
    sq_delta: np.ndarray

    @classmethod
    def zeros(cls, shape) -> "AdadeltaState":
        return cls(
            sq_grad=np.zeros(shape, dtype=np.float64),
            sq_delta=np.zeros(shape, dtype=np.float64),
        )


def adadelta_update(param: np.ndarray, grad: np.ndarray, state: AdadeltaState,
                    rho: float = RHO, eps: float = EPS, rows=slice(None)) -> None:
    """One in-place update step.

    Accumulate E[g^2], take the step scaled by the ratio of the two RMS
    terms, then accumulate E[dx^2]:

        E[g2]  = rho E[g2] + (1-rho) g^2
        dx     = - sqrt(E[dx2] + eps) / sqrt(E[g2] + eps) * g
        E[dx2] = rho E[dx2] + (1-rho) dx^2

    ``grad`` holds the leading-axis ``rows`` of the gradient (distinct
    indices, or the default slice for the whole tensor), and every other
    row's gradient is +0.0. Such a row's step is -0.0, which moves no
    parameter, so the formulas run on the given rows only and both
    accumulators decay whole, which gives the dense step bit for bit.
    """
    state.sq_grad *= rho
    state.sq_grad[rows] += (1.0 - rho) * grad * grad
    delta = -np.sqrt(state.sq_delta[rows] + eps) / np.sqrt(state.sq_grad[rows] + eps) * grad
    state.sq_delta *= rho
    state.sq_delta[rows] += (1.0 - rho) * delta * delta
    param[rows] += delta


@dataclass
class FilterBank:
    """Conv filters of several heights plus their biases."""

    weights: dict = field(default_factory=dict)  # height -> (filters, height, dim)
    biases: dict = field(default_factory=dict)   # height -> (filters,)
