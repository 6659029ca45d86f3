"""Numpy kernels for the convolutional text classifier.

All kernels are pure numpy in float64, written as forward/backward pairs
so gradients can be finite-difference checked. Each takes the form that
``model`` passes: a chunk of documents padded to one length, documents
first; the convolution also takes one (length, dim) document. Filters
span the full width, so each is a dot product per window. The kernels
trust their callers' checks: ``model.forward`` checks the chunk length,
``ModelConfig`` the dropout rate, ``model.apply_gradients`` each gradient.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# Forward products run in blocks of this many rows; see rows_product.
ROW_BLOCK = 32


def padded_rows(n: int) -> int:
    """``n`` rounded up to a positive multiple of ROW_BLOCK."""
    return max(1, -(-n // ROW_BLOCK)) * ROW_BLOCK


def rows_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-D ``a``, as one product per block of ROW_BLOCK rows.

    OpenBLAS picks its kernels, and how it splits a product between
    threads, by the product's size, and the rows of a small product or of
    a partial tile come out with other last bits than the same rows inside
    a larger product. A stack of equal-sized blocks, the last one padded
    with zero rows, makes every row's result depend on that row alone, so
    a document scores the same bytes whichever documents share its chunk.
    """
    n = a.shape[0]
    rows = padded_rows(n)
    if rows != n:
        padded = np.zeros((rows, a.shape[1]))
        padded[:n] = a
        a = padded
    blocks = a.reshape(rows // ROW_BLOCK, ROW_BLOCK, a.shape[1])
    return np.matmul(blocks, b).reshape(rows, b.shape[1])[:n]


def conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """Full-width 1-D convolution over the token axis, with a ReLU.

    x: (length, dim), or (batch, length, dim) for inputs padded to one
    length, with length at least the filter height; weights: (filters,
    height, dim); bias: (filters,). Returns ((windows, filters)
    activations, with the batch axis in front for a batch, and a cache for
    the backward pass).

    A single input's windows are a strided view of it and go through one
    plain product. A batch's windows are copied into a buffer of
    ``padded_rows`` rows and go through rows_product, so that each row's
    result does not depend on the rest of the batch.
    """
    length, dim = x.shape[-2:]
    f, height, _ = weights.shape
    n_t = length - height + 1
    w = weights.reshape(f, height * dim).T
    if x.ndim == 2:
        windows = sliding_window_view(x, height, axis=0)      # (n_t, dim, height)
        flat = windows.transpose(0, 2, 1).reshape(n_t, height * dim)
        pre = flat @ w + bias
    else:
        n = x.shape[0] * n_t
        windows = sliding_window_view(x, height, axis=1)      # (batch, n_t, dim, height)
        padded = np.zeros((padded_rows(n), height * dim))
        flat = padded[:n]
        flat.reshape(x.shape[0], n_t, height, dim)[...] = np.swapaxes(windows, -1, -2)
        pre = rows_product(padded, w)[:n] + bias
    out = np.maximum(pre, 0.0)
    cache = (flat, weights, pre, x.shape)
    return out.reshape(x.shape[:-2] + (n_t, f)), cache


def conv_backward(d_out: np.ndarray, cache):
    """Gradients of conv_forward: returns (dx, d_weights, d_bias).

    Only the windows whose gradient is nonzero enter the products. Behind
    a max-pool, which passes gradient to one window per filter, the work
    follows the argmax windows rather than the input length.
    """
    flat, weights, pre, x_shape = cache
    f, height, dim = weights.shape
    length = x_shape[-2]
    n_t = length - height + 1
    d_pre = np.asarray(d_out, dtype=np.float64).reshape(-1, f) * (pre > 0.0)
    rows = np.flatnonzero(d_pre.any(axis=1))
    d_pre = d_pre[rows]
    d_w = (d_pre.T @ flat[rows]).reshape(f, height, dim)
    d_b = d_pre.sum(axis=0)
    d_windows = (d_pre @ weights.reshape(f, height * dim)).reshape(-1, height, dim)
    dx = np.zeros((math.prod(x_shape[:-1]), dim))
    first = rows // n_t * length + rows % n_t     # first token of each window
    for off in range(height):
        dx[first + off] += d_windows[:, off, :]
    return dx.reshape(x_shape), d_w, d_b


def maxpool1(values: np.ndarray, counts: np.ndarray):
    """Max over the window axis of a batch, first index winning ties.

    values: (batch, windows, filters); item ``b`` pools its first
    ``counts[b]`` windows only, with ``1 <= counts[b] <= windows``.
    Returns ((batch, filters) max values, (batch, filters) argmax indices).
    """
    if counts.min() < values.shape[1]:
        valid = np.arange(values.shape[1]) < counts[:, None]
        values = np.where(valid[:, :, None], values, -np.inf)
    return values.max(axis=1), values.argmax(axis=1)


def maxpool1_backward(d_out: np.ndarray, idx: np.ndarray, length: int) -> np.ndarray:
    """Scatter pooled gradients back to the argmax positions.

    d_out and idx: (batch, filters); returns (batch, length, filters),
    zero outside the argmax windows.
    """
    grad = np.zeros((d_out.shape[0], length, d_out.shape[1]), dtype=np.float64)
    np.put_along_axis(grad, idx[:, None, :], d_out[:, None, :], axis=1)
    return grad


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
