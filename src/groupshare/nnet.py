"""Numpy kernels for the convolutional text classifier.

All kernels are pure numpy in float64, written as forward/backward pairs
so gradients can be finite-difference checked. Convolutions slide over
the token axis of a (length, dim) input, or of a batch of inputs padded
to one length, with full-width filters, which reduces each filter to a
dot product per window.
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
    length; weights: (filters, height, dim); bias: (filters,). Returns
    ((windows, filters) activations, with the batch axis in front for a
    batch, and a cache for the backward pass).

    A single input's windows are a strided view of it and go through one
    plain product. A batch's windows are copied into a buffer of
    ``padded_rows`` rows and go through rows_product, so that each row's
    result does not depend on the rest of the batch.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError("input must be (length, dim) or (batch, length, dim)")
    length, dim = x.shape[-2:]
    f, height, wdim = weights.shape
    if wdim != dim:
        raise ValueError(f"filter width {wdim} does not match input width {dim}")
    if length < height:
        raise ValueError(f"input length {length} shorter than filter height {height}")
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


def maxpool1(values: np.ndarray, counts: np.ndarray = None):
    """Max over the window axis, first index winning ties.

    values: (n,) or (n, filters), or (batch, n, filters) for a batch, in
    which item ``b`` pools its first ``counts[b]`` windows only (all of
    them when ``counts`` is None). Returns (max values, argmax indices).
    """
    values = np.asarray(values)
    axis = 1 if values.ndim == 3 else 0
    if values.shape[axis] == 0:
        raise ValueError("cannot pool over an empty axis")
    if counts is not None:
        counts = np.asarray(counts)
        if values.ndim != 3 or counts.shape != values.shape[:1] or counts.min() < 1:
            raise ValueError("need a batch and a positive window count per item")
        if counts.min() < values.shape[1]:
            valid = np.arange(values.shape[1]) < counts[:, None]
            values = np.where(valid[:, :, None], values, -np.inf)
    return values.max(axis=axis), values.argmax(axis=axis)


def maxpool1_backward(d_out: np.ndarray, idx: np.ndarray, length: int) -> np.ndarray:
    """Scatter pooled gradients back to the argmax positions.

    d_out: () or (filters,), or (batch, filters) for a batch; the window
    axis of length ``length`` is inserted where maxpool1 removed it.
    """
    d_out = np.asarray(d_out, dtype=np.float64)
    axis = 1 if d_out.ndim == 2 else 0
    shape = d_out.shape[:axis] + (length,) + d_out.shape[axis:]
    grad = np.zeros(shape, dtype=np.float64)
    np.put_along_axis(grad, np.expand_dims(idx, axis),
                      np.expand_dims(d_out, axis), axis=axis)
    return grad


def softmax_xent(logits: np.ndarray, label):
    """Cross-entropy of a softmax over ``logits`` against the true label.

    logits: (classes,) with one label, or (batch, classes) with one label
    per row. Returns (loss, probabilities), a loss per row for a batch.
    Stabilized by subtracting the max logit, so large scores do not
    overflow.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(label, dtype=np.int64)
    if logits.ndim not in (1, 2) or labels.shape != logits.shape[:-1]:
        raise ValueError("logits must be 1-D with one label, or 2-D with a "
                         "label per row")
    classes = logits.shape[-1]
    if ((labels < 0) | (labels >= classes)).any():
        raise ValueError(f"label outside [0, {classes})")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    probs = exp / total
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)
    loss = (np.log(total) - picked)[..., 0]
    return loss, probs


def softmax_xent_backward(probs: np.ndarray, label) -> np.ndarray:
    """d loss / d logits = probabilities minus the one-hot label, per row."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(label, dtype=np.int64)
    return probs - (np.arange(probs.shape[-1]) == labels[..., None])


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
    vec = np.asarray(vec, dtype=np.float64)
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if rng is None or rate == 0.0:
        return vec, None
    mask = (rng.random(vec.shape) >= rate) / (1.0 - rate)
    return vec * mask, mask


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
                    rho: float = 0.95, eps: float = 1e-6, rows=None,
                    state_rows=None) -> None:
    """One in-place update step.

    Accumulate E[g^2], take the step scaled by the ratio of the two RMS
    terms, then accumulate E[dx^2]:

        E[g2]  = rho E[g2] + (1-rho) g^2
        dx     = - sqrt(E[dx2] + eps) / sqrt(E[g2] + eps) * g
        E[dx2] = rho E[dx2] + (1-rho) dx^2

    With ``rows`` (distinct leading-axis rows of ``param``), ``grad``
    holds those rows only and every other row's gradient is +0.0. Such a
    row only decays its two accumulators by rho: its step is -0.0, which
    moves no parameter. So the formulas run on a gathered copy of the
    given rows, both accumulators decay in one in-place pass, and the
    rows are written back, which gives the dense step bit for bit.
    ``state_rows`` numbers the same rows in ``state`` when its rows are
    not those of ``param`` (default: ``rows``).
    """
    grad = np.asarray(grad, dtype=np.float64)
    if rows is None:
        if grad.shape != param.shape:
            raise ValueError("gradient shape does not match parameter shape")
        _adadelta_step(param, grad, state, rho, eps)
        return
    if grad.shape != (len(rows),) + param.shape[1:]:
        raise ValueError("gradient shape does not match the parameter rows")
    at = rows if state_rows is None else state_rows
    acc = AdadeltaState(sq_grad=state.sq_grad[at], sq_delta=state.sq_delta[at])
    moved = param[rows]
    _adadelta_step(moved, grad, acc, rho, eps)
    state.sq_grad *= rho
    state.sq_delta *= rho
    state.sq_grad[at] = acc.sq_grad
    state.sq_delta[at] = acc.sq_delta
    param[rows] = moved


def _adadelta_step(param, grad, state, rho, eps) -> None:
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    state.sq_grad *= rho
    state.sq_grad += (1.0 - rho) * grad * grad
    delta = -np.sqrt(state.sq_delta + eps) / np.sqrt(state.sq_grad + eps) * grad
    state.sq_delta *= rho
    state.sq_delta += (1.0 - rho) * delta * delta
    param += delta


@dataclass
class FilterBank:
    """Conv filters of several heights plus their biases."""

    weights: dict = field(default_factory=dict)  # height -> (filters, height, dim)
    biases: dict = field(default_factory=dict)   # height -> (filters,)


def init_filter_bank(heights, filters_per_height: int, dim: int,
                     rng: np.random.Generator) -> FilterBank:
    """Weights ~ N(0, 0.1), biases 0.1, heights kept in given order."""
    bank = FilterBank()
    for h in heights:
        if h < 1:
            raise ValueError(f"filter height {h} must be positive")
        bank.weights[h] = rng.normal(0.0, 0.1, size=(filters_per_height, h, dim))
        bank.biases[h] = np.full(filters_per_height, 0.1, dtype=np.float64)
    return bank
