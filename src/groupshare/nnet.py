"""Numpy kernels for the convolutional text classifier.

All kernels are pure numpy in float64, written as forward/backward pairs
so gradients can be finite-difference checked. Convolutions slide over
the token axis of an (length, dim) input with full-width filters, which
reduces each filter to a dot product per window.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                 activation: str = "relu"):
    """Full-width 1-D convolution over the token axis.

    x: (length, dim); weights: (filters, height, dim); bias: (filters,).
    Returns ((windows, filters) activations, cache for the backward pass).
    """
    x = np.asarray(x, dtype=np.float64)
    length, dim = x.shape
    f, height, wdim = weights.shape
    if wdim != dim:
        raise ValueError(f"filter width {wdim} does not match input width {dim}")
    if length < height:
        raise ValueError(f"input length {length} shorter than filter height {height}")
    if activation not in ("relu", "linear"):
        raise ValueError(f"unknown activation {activation!r}")
    windows = sliding_window_view(x, height, axis=0)      # (n_t, dim, height)
    flat = windows.transpose(0, 2, 1).reshape(length - height + 1, height * dim)
    pre = flat @ weights.reshape(f, height * dim).T + bias
    out = np.maximum(pre, 0.0) if activation == "relu" else pre
    cache = (flat, weights, pre, activation, x.shape)
    return out, cache


def conv_backward(d_out: np.ndarray, cache):
    """Gradients of conv_forward: returns (dx, d_weights, d_bias)."""
    flat, weights, pre, activation, x_shape = cache
    f, height, dim = weights.shape
    d_pre = np.asarray(d_out, dtype=np.float64)
    if activation == "relu":
        d_pre = d_pre * (pre > 0.0)
    d_w = (d_pre.T @ flat).reshape(f, height, dim)
    d_b = d_pre.sum(axis=0)
    d_flat = d_pre @ weights.reshape(f, height * dim)
    d_windows = d_flat.reshape(-1, height, dim)
    dx = np.zeros(x_shape, dtype=np.float64)
    for off in range(height):
        dx[off : off + d_windows.shape[0]] += d_windows[:, off, :]
    return dx, d_w, d_b


def maxpool1(values: np.ndarray):
    """Max over axis 0, first index winning ties.

    values: (n,) or (n, filters). Returns (max values, argmax indices).
    """
    values = np.asarray(values)
    if values.shape[0] == 0:
        raise ValueError("cannot pool over an empty axis")
    idx = np.argmax(values, axis=0)
    out = np.take_along_axis(values, np.expand_dims(idx, 0), axis=0)[0]
    return out, idx


def maxpool1_backward(d_out: np.ndarray, idx: np.ndarray, length: int) -> np.ndarray:
    """Scatter pooled gradients back to the argmax positions."""
    d_out = np.asarray(d_out, dtype=np.float64)
    shape = (length,) + d_out.shape
    grad = np.zeros(shape, dtype=np.float64)
    np.put_along_axis(grad, np.expand_dims(idx, 0), np.expand_dims(d_out, 0), axis=0)
    return grad


def softmax_xent(logits: np.ndarray, label: int):
    """Cross-entropy of a softmax over ``logits`` against one true label.

    Returns (loss, probabilities). Stabilized by subtracting the max
    logit, so large scores do not overflow.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError("logits must be 1-D")
    label = int(label)
    if not (0 <= label < logits.shape[0]):
        raise ValueError(f"label {label} outside [0, {logits.shape[0]})")
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    total = exp.sum()
    probs = exp / total
    loss = np.log(total) - shifted[label]
    return loss, probs


def softmax_xent_backward(probs: np.ndarray, label: int) -> np.ndarray:
    """d loss / d logits = probabilities minus the one-hot label."""
    grad = np.asarray(probs, dtype=np.float64).copy()
    grad[int(label)] -= 1.0
    return grad


def dropout(vec: np.ndarray, rate: float, train: bool, rng: np.random.Generator = None):
    """Inverted dropout on a vector.

    In training each coordinate is zeroed with probability ``rate`` and
    survivors are scaled by 1/(1-rate), so the expectation matches the
    evaluation pass, which returns the input unchanged. Returns
    (output, mask); mask is None when nothing was dropped.
    """
    vec = np.asarray(vec, dtype=np.float64)
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not train or rate == 0.0:
        return vec, None
    if rng is None:
        raise ValueError("training-mode dropout needs a random generator")
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
                    rho: float = 0.95, eps: float = 1e-6) -> None:
    """One in-place update step.

    Accumulate E[g^2], take the step scaled by the ratio of the two RMS
    terms, then accumulate E[dx^2]:

        E[g2]  = rho E[g2] + (1-rho) g^2
        dx     = - sqrt(E[dx2] + eps) / sqrt(E[g2] + eps) * g
        E[dx2] = rho E[dx2] + (1-rho) dx^2

    A leading-axis row whose gradient is +0.0 throughout only decays its
    two accumulators by rho: its step is -0.0, which moves no parameter.
    When some rows are such, both accumulators decay in one in-place
    pass and the formulas above run on the other ("live") rows alone,
    which gives the dense step bit for bit at the cost of the live rows.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != param.shape:
        raise ValueError("gradient shape does not match parameter shape")
    live = _live_rows(grad)
    if live is None:
        _adadelta_step(param, grad, state, rho, eps)
        return
    rows = AdadeltaState(sq_grad=state.sq_grad[live], sq_delta=state.sq_delta[live])
    moved = param[live]
    _adadelta_step(moved, grad[live], rows, rho, eps)
    state.sq_grad *= rho
    state.sq_delta *= rho
    state.sq_grad[live] = rows.sq_grad
    state.sq_delta[live] = rows.sq_delta
    param[live] = moved


def _adadelta_step(param, grad, state, rho, eps) -> None:
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    state.sq_grad *= rho
    state.sq_grad += (1.0 - rho) * grad * grad
    delta = -np.sqrt(state.sq_delta + eps) / np.sqrt(state.sq_grad + eps) * grad
    state.sq_delta *= rho
    state.sq_delta += (1.0 - rho) * delta * delta
    param += delta


def _live_rows(grad: np.ndarray):
    """Ids of the leading-axis rows holding any entry other than +0.0.

    NaN, inf and -0.0 count as live. Returns None when every row is live,
    or when the array has no leading axis.
    """
    if grad.ndim == 0:
        return None
    bits = grad.view(np.int64)
    live = np.flatnonzero(bits.any(axis=tuple(range(1, grad.ndim))))
    return None if live.size == grad.shape[0] else live


@dataclass
class FilterBank:
    """Conv filters of several heights plus their biases."""

    weights: dict = field(default_factory=dict)  # height -> (filters, height, dim)
    biases: dict = field(default_factory=dict)   # height -> (filters,)

    @property
    def heights(self) -> tuple:
        return tuple(self.weights)

    def num_features(self) -> int:
        return sum(w.shape[0] for w in self.weights.values())


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
