import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare.hashing import locate
from groupshare.model import ModelConfig, init_params
from groupshare.nnet import (
    AdadeltaState,
    adadelta_update,
    conv_backward,
    conv_forward,
    dropout,
    maxpool1,
    maxpool1_backward,
    softmax_xent,
    softmax_xent_backward,
)
from groupshare.seeding import make_rng
from helpers import vocab_of


def conv_loops(x, weights, bias):
    """Triple-loop convolution with a ReLU, used as the oracle."""
    length, dim = x.shape
    f, height, _ = weights.shape
    out = np.zeros((length - height + 1, f))
    for t in range(length - height + 1):
        for k in range(f):
            acc = 0.0
            for o in range(height):
                for j in range(dim):
                    acc += x[t + o, j] * weights[k, o, j]
            out[t, k] = acc + bias[k]
    return np.maximum(out, 0.0)


def test_conv_forward_matches_loop_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        length = int(rng.integers(2, 12))
        height = int(rng.integers(1, length + 1))
        dim = int(rng.integers(1, 7))
        f = int(rng.integers(1, 6))
        x = rng.normal(0, 1, size=(length, dim))
        w = rng.normal(0, 1, size=(f, height, dim))
        b = rng.normal(0, 1, size=f)
        out, _ = conv_forward(x, w, b)
        np.testing.assert_allclose(out, conv_loops(x, w, b), rtol=1e-12, atol=1e-12)


def test_conv_backward_finite_differences():
    rng = np.random.default_rng(23)
    eps = 1e-6
    for trial in range(8):
        length = int(rng.integers(3, 9))
        height = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        f = int(rng.integers(1, 4))
        x = rng.normal(0, 1, size=(length, dim))
        w = rng.normal(0, 1, size=(f, height, dim))
        b = rng.normal(0, 1, size=f)
        proj = rng.normal(0, 1, size=(length - height + 1, f))

        def loss(xv, wv, bv):
            out, _ = conv_forward(xv, wv, bv)
            return float((out * proj).sum())

        out, cache = conv_forward(x, w, b)
        dx, dw, db = conv_backward(proj, cache)
        for arr, grad, which in ((x, dx, "x"), (w, dw, "w"), (b, db, "b")):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                old = flat[idx]
                flat[idx] = old + eps
                up = loss(x, w, b)
                flat[idx] = old - eps
                down = loss(x, w, b)
                flat[idx] = old
                fd = (up - down) / (2 * eps)
                assert abs(fd - gflat[idx]) < 1e-5, (which, trial)


def test_maxpool_first_index_wins_ties():
    vals = np.array([[[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]]])
    out, idx = maxpool1(vals, np.array([3]))
    np.testing.assert_array_equal(out, [[3.0, 5.0]])
    np.testing.assert_array_equal(idx, [[1, 0]])
    # windows past the document's count do not take part
    out, idx = maxpool1(np.array([[[2.0], [7.0], [7.0], [9.0]]]), np.array([3]))
    assert out[0, 0] == 7.0 and idx[0, 0] == 1


def test_maxpool_backward_scatters_to_argmax():
    rng = np.random.default_rng(9)
    for _ in range(15):
        n = int(rng.integers(1, 9))
        f = int(rng.integers(1, 6))
        vals = rng.normal(0, 1, size=(1, n, f))
        out, idx = maxpool1(vals, np.array([n]))
        d_out = rng.normal(0, 1, size=(1, f))
        grad = maxpool1_backward(d_out, idx, n)
        assert grad.shape == vals.shape
        for k in range(f):
            for t in range(n):
                expected = d_out[0, k] if t == idx[0, k] else 0.0
                assert grad[0, t, k] == expected


def test_softmax_xent_values_and_stability():
    logits = np.array([[1.0, 2.0, 3.0]])
    loss, probs = softmax_xent(logits, [2])
    assert abs(probs.sum() - 1.0) < 1e-12
    assert abs(loss[0] + np.log(probs[0, 2])) < 1e-12
    big_loss, big_probs = softmax_xent(np.array([[1e4, 0.0]]), [0])
    assert np.isfinite(big_loss).all() and big_loss[0] < 1e-12
    assert np.isfinite(big_probs).all()
    zero_loss, zero_probs = softmax_xent(np.zeros((1, 4)), [1])
    assert zero_loss[0] == pytest.approx(np.log(4.0), abs=1e-15)
    with pytest.raises(ValueError):
        softmax_xent(logits, [3])
    with pytest.raises(ValueError):
        softmax_xent(logits, [-1])
    with pytest.raises(ValueError):
        softmax_xent(np.zeros((2, 2)), [0])


def test_softmax_backward_finite_differences():
    rng = np.random.default_rng(77)
    eps = 1e-7
    for _ in range(10):
        c = int(rng.integers(2, 7))
        logits = rng.normal(0, 2, size=(1, c))
        label = rng.integers(0, c, size=1)
        _, probs = softmax_xent(logits, label)
        grad = softmax_xent_backward(probs, label)
        for j in range(c):
            bumped = logits.copy()
            bumped[0, j] += eps
            up, _ = softmax_xent(bumped, label)
            bumped[0, j] -= 2 * eps
            down, _ = softmax_xent(bumped, label)
            fd = (up[0] - down[0]) / (2 * eps)
            assert abs(fd - grad[0, j]) < 1e-6


def test_dropout_modes():
    rng = np.random.default_rng(4)
    vec = rng.normal(0, 1, size=2000)
    # no generator (evaluation): the input comes back, nothing is drawn
    out, mask = dropout(vec, 0.5)
    np.testing.assert_array_equal(out, vec)
    assert mask is None
    out, mask = dropout(vec, 0.0, rng=rng)
    np.testing.assert_array_equal(out, vec)
    assert mask is None
    out, mask = dropout(vec, 0.5, rng=np.random.default_rng(1))
    dropped = np.count_nonzero(mask == 0.0)
    assert 0.4 < dropped / vec.size < 0.6
    surviving = mask[mask > 0]
    np.testing.assert_allclose(surviving, 2.0)
    np.testing.assert_array_equal(out, vec * mask)


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(6)
    vec = np.ones(5000)
    total = np.zeros_like(vec)
    reps = 200
    for _ in range(reps):
        out, _ = dropout(vec, 0.3, rng=rng)
        total += out
    # global mean over 10^6 draws: std ~ 0.00065, so 0.01 is generous
    assert abs((total / reps).mean() - 1.0) < 0.01


def test_adadelta_first_step_closed_form():
    param = np.array([1.0])
    state = AdadeltaState.zeros(1)
    rho = 0.95
    adadelta_update(param, np.array([1.0]), state, rho=rho, eps=1e-6)
    acc = (1.0 - rho) * 1.0 * 1.0
    expected_delta = -np.sqrt(1e-6) / np.sqrt(acc + 1e-6)
    assert param[0] == 1.0 + expected_delta
    assert state.sq_grad[0] == acc
    assert state.sq_delta[0] == (1.0 - rho) * expected_delta**2


def test_adadelta_matches_scalar_recurrence():
    rng = np.random.default_rng(42)
    rho, eps = 0.9, 1e-5
    param = rng.normal(0, 1, size=6)
    state = AdadeltaState.zeros(6)
    # scalar replay of the same recurrence
    p2 = param.copy()
    eg = np.zeros(6)
    ed = np.zeros(6)
    for step in range(50):
        grad = rng.normal(0, 1, size=6)
        adadelta_update(param, grad, state, rho=rho, eps=eps)
        for i in range(6):
            eg[i] = rho * eg[i] + (1 - rho) * grad[i] * grad[i]
            delta = -np.sqrt(ed[i] + eps) / np.sqrt(eg[i] + eps) * grad[i]
            ed[i] = rho * ed[i] + (1 - rho) * delta * delta
            p2[i] = p2[i] + delta
        np.testing.assert_array_equal(param, p2)
        np.testing.assert_array_equal(state.sq_grad, eg)
        np.testing.assert_array_equal(state.sq_delta, ed)


def dense_adadelta(param, grad, state, rho, eps):
    """The dense step over every entry, the reference for the row path."""
    state.sq_grad *= rho
    state.sq_grad += (1.0 - rho) * grad * grad
    delta = -np.sqrt(state.sq_delta + eps) / np.sqrt(state.sq_grad + eps) * grad
    state.sq_delta *= rho
    state.sq_delta += (1.0 - rho) * delta * delta
    param += delta


def step_rows(rng, n, live):
    """Ascending distinct rows to step: all, none or a random subset."""
    if live == "all":
        return np.arange(n)
    if live == "none":
        return np.arange(0)
    return np.flatnonzero(rng.random(n) < 0.5)


def row_gradient(rng, rows, shape):
    """Gradient rows for ``rows`` (some +0.0, some -0.0) and the dense
    gradient they stand for, +0.0 on every other row."""
    grad_rows = rng.normal(0, 1, size=(rows.size,) + shape[1:]) * 10.0 ** rng.integers(-6, 3)
    kind = rng.random(rows.size)
    grad_rows[kind < 0.2] = 0.0
    grad_rows[kind > 0.9] = -0.0
    grad = np.zeros(shape)
    grad[rows] = grad_rows
    return grad_rows, grad


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(st.integers(0, 7), min_size=1, max_size=3),
    live=st.sampled_from(["some", "all", "none"]),
    steps=st.integers(1, 4),
    rho=st.floats(0.5, 0.99),
    eps=st.sampled_from([1e-8, 1e-6, 1e-3]),
)
def test_row_sparse_adadelta_matches_dense_bytes(seed, shape, live, steps, rho, eps):
    rng = np.random.default_rng(seed)
    shape = tuple(shape)
    param = rng.normal(0, 1, size=shape)
    param[rng.random(shape) < 0.1] = -0.0
    state = AdadeltaState.zeros(shape)
    ref_param, ref_state = param.copy(), AdadeltaState.zeros(shape)
    for _ in range(steps):
        rows = step_rows(rng, shape[0], live)
        grad_rows, grad = row_gradient(rng, rows, shape)
        adadelta_update(param, grad_rows, state, rho=rho, eps=eps, rows=rows)
        dense_adadelta(ref_param, grad, ref_state, rho, eps)
        assert param.tobytes() == ref_param.tobytes()
        assert state.sq_grad.tobytes() == ref_state.sq_grad.tobytes()
        assert state.sq_delta.tobytes() == ref_state.sq_delta.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 9),
    dim=st.integers(1, 4),
    live=st.sampled_from(["some", "all", "none"]),
    steps=st.integers(1, 3),
)
def test_adadelta_on_located_private_rows_matches_gathered_dense_step(
        seed, n, dim, live, steps):
    # the private rows ``ids`` of an (n + 3)-row vocabulary live in a
    # matrix of their own; a step's gradient rows are those of ascending
    # ``words``, and the update steps the private matrix at the rows that
    # ``locate`` gives for them. The dense reference gathers the private
    # rows of the vocabulary-sized gradient and steps every private row.
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(n + 3, size=n, replace=False))
    private = rng.normal(0, 1, size=(n, dim))
    state = AdadeltaState.zeros((n, dim))
    ref_private, ref_state = private.copy(), AdadeltaState.zeros((n, dim))
    for _ in range(steps):
        words = step_rows(rng, n + 3, live)
        grad_rows, grad = row_gradient(rng, words, (n + 3, dim))
        which, at = locate(ids, words)
        adadelta_update(private, grad_rows[which], state, rows=at)
        dense_adadelta(ref_private, grad[ids], ref_state, 0.95, 1e-6)
        assert private.tobytes() == ref_private.tobytes()
        assert state.sq_grad.tobytes() == ref_state.sq_grad.tobytes()
        assert state.sq_delta.tobytes() == ref_state.sq_delta.tobytes()


def test_adadelta_step_size_adapts():
    # constant gradient: steps grow as the update accumulator fills
    param = np.array([0.0])
    state = AdadeltaState.zeros(1)
    deltas = []
    for _ in range(20):
        before = param[0]
        adadelta_update(param, np.array([1.0]), state)
        deltas.append(before - param[0])
    assert deltas[5] > deltas[0] > 0


def test_filter_bank_init():
    config = ModelConfig(num_classes=2, embedding_dim=7, filter_heights=(5, 3, 4),
                         filters_per_height=200, channel2_mode="random", seed=3)
    vocab = vocab_of(["a", "b"])
    params = init_params(config, vocab, np.zeros((vocab.num_rows, 7)))
    for label, bank in (("bank_p", params.bank_p), ("bank_s", params.bank_s)):
        assert tuple(bank.weights) == tuple(bank.biases) == (5, 3, 4)
        for h in (5, 3, 4):
            assert bank.weights[h].shape == (200, h, 7)
            np.testing.assert_array_equal(bank.biases[h], np.full(200, 0.1))
            assert abs(bank.weights[h].std() - 0.1) < 0.01
            # one generator per (label, height)
            np.testing.assert_array_equal(
                bank.weights[h],
                make_rng(3, label, h).normal(0.0, 0.1, size=(200, h, 7)))
