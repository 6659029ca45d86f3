import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare import nnet
from groupshare.hashing import locate
from groupshare.model import ModelConfig, init_params
from groupshare.nnet import (
    ROW_BLOCK,
    AdadeltaState,
    adadelta_update,
    conv_backward,
    conv_forward,
    dropout,
    maxpool1,
    maxpool1_backward,
    padded_rows,
    rows_product,
    softmax_xent,
    softmax_xent_backward,
)
from groupshare.seeding import make_rng
from helpers import in_blas_threads, vocab_of


def conv_loops(x, weights, bias):
    """Triple-loop convolution, before the ReLU, used as the oracle."""
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
    return out


def conv_case(rng, docs, length, height, dim, f):
    """Rows (the last ROW_BLOCK-padded ones zero), the slot of each token
    position, the windows each document pools, and a filter bank."""
    n = int(rng.integers(1, 8))
    rows = np.zeros((padded_rows(n + 1), dim))
    rows[:n] = rng.normal(0, 1, size=(n, dim))
    slots = rng.integers(0, n + 1, size=(docs, length))    # n: a PAD position
    counts = rng.integers(1, length - height + 2, size=docs)
    w = rng.normal(0, 1, size=(f, height, dim))
    b = rng.normal(0, 1, size=f)
    return rows, slots, counts, w, b


def test_conv_forward_matches_loop_oracle(monkeypatch):
    # small tiles, so that most calls pool several runs of documents
    monkeypatch.setattr(nnet, "TILE_VALUES", 40)
    rng = np.random.default_rng(12)
    for _ in range(20):
        length = int(rng.integers(2, 12))
        height = int(rng.integers(1, length + 1))
        docs = int(rng.integers(1, 6))
        rows, slots, counts, w, b = conv_case(rng, docs, length, height,
                                              int(rng.integers(1, 7)),
                                              int(rng.integers(1, 6)))
        seen = []

        def keep(values):
            seen.append(values)
            return maxpool1(values)

        pooled, idx, _ = conv_forward(rows, slots, counts, w, b, keep)
        pre = np.concatenate(seen)
        for d in range(docs):
            want = conv_loops(rows[slots[d]], w, b)
            np.testing.assert_allclose(pre[d, : counts[d]], want[: counts[d]],
                                       rtol=1e-12, atol=1e-12)
            # windows past the document's count do not take part
            assert (pre[d, counts[d] :] == -np.inf).all()
            np.testing.assert_array_equal(pooled[d], pre[d].max(axis=0))
            np.testing.assert_array_equal(idx[d], pre[d].argmax(axis=0))


def test_runs_of_a_long_block_hold_at_least_tile_values():
    # each run's responses reach numpy's huge-page threshold, 4 MiB
    assert nnet.TILE_VALUES * 8 >= 1 << 22
    rng = np.random.default_rng(31)
    docs, length, height, f = 60, 200, 3, 100
    rows, slots, counts, w, b = conv_case(rng, docs, length, height, 4, f)
    n_t = length - height + 1
    runs = []

    def keep(values):
        runs.append(values.size)
        return maxpool1(values)

    pooled, idx, _ = conv_forward(rows, slots, counts, w, b, keep)
    assert len(runs) > 2 and sum(runs) == docs * n_t * f
    for size in runs[:-1]:
        assert nnet.TILE_VALUES <= size < nnet.TILE_VALUES + n_t * f
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nnet, "TILE_VALUES", docs * n_t * f)
        whole, whole_idx, _ = conv_forward(rows, slots, counts, w, b, maxpool1)
    assert pooled.tobytes() == whole.tobytes()
    assert idx.tobytes() == whole_idx.tobytes()


def test_conv_backward_finite_differences():
    rng = np.random.default_rng(23)
    eps = 1e-6
    for trial in range(8):
        length = int(rng.integers(3, 9))
        height = int(rng.integers(1, 4))
        rows, slots, counts, w, b = conv_case(rng, 3, length, height,
                                              int(rng.integers(1, 5)),
                                              int(rng.integers(1, 4)))
        proj = rng.normal(0, 1, size=(3, w.shape[0]))

        def loss(rv, wv, bv):
            pooled, _, _ = conv_forward(rv, slots, counts, wv, bv, maxpool1)
            return float((pooled * proj).sum())

        _, idx, cache = conv_forward(rows, slots, counts, w, b, maxpool1)
        d_proj = maxpool1_backward(proj, idx, slots, height, len(rows))
        d_rows, dw, db = conv_backward(d_proj, cache)
        for arr, grad, which in ((rows, d_rows, "rows"), (w, dw, "w"), (b, db, "b")):
            flat = arr.reshape(-1)
            gflat = np.ascontiguousarray(grad).reshape(-1)
            for idx_ in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                old = flat[idx_]
                flat[idx_] = old + eps
                up = loss(rows, w, b)
                flat[idx_] = old - eps
                down = loss(rows, w, b)
                flat[idx_] = old
                fd = (up - down) / (2 * eps)
                assert abs(fd - gflat[idx_]) < 1e-5, (which, trial)


def test_maxpool_first_index_wins_ties():
    vals = np.array([[[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]]])
    out, idx = maxpool1(vals)
    np.testing.assert_array_equal(out, [[3.0, 5.0]])
    np.testing.assert_array_equal(idx, [[1, 0]])
    # a window that reads -inf, as one past its document's count does,
    # never wins
    out, idx = maxpool1(np.array([[[2.0], [7.0], [7.0], [-np.inf]]]))
    assert out[0, 0] == 7.0 and idx[0, 0] == 1


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 5),
       windows=st.integers(1, 9), filters=st.integers(1, 6))
def test_max_only_pool_gives_the_indexed_pools_max(seed, batch, windows, filters):
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 1, size=(batch, windows, filters))
    # entries from a few values, so that ±0.0 meet and windows tie
    few = rng.random(values.shape) < 0.5
    values[few] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=few.sum())
    # repeated windows tie exactly
    values = values[:, rng.integers(0, windows, size=windows)]
    # windows past a document's count read -inf
    counts = rng.integers(1, windows + 1, size=batch)
    values[np.arange(windows) >= counts[:, None]] = -np.inf
    top, idx = maxpool1(values)
    alone, none = maxpool1(values, index=False)
    assert none is None and idx is not None
    assert alone.tobytes() == top.tobytes()


def test_maxpool_backward_scatters_to_argmax():
    rng = np.random.default_rng(9)
    for _ in range(15):
        docs = int(rng.integers(1, 4))
        length = int(rng.integers(1, 9))
        height = int(rng.integers(1, length + 1))
        f = int(rng.integers(1, 6))
        n_rows = int(rng.integers(1, 6))
        slots = rng.integers(0, n_rows, size=(docs, length))
        idx = rng.integers(0, length - height + 1, size=(docs, f))
        d_out = rng.normal(0, 1, size=(docs, f))
        grad = maxpool1_backward(d_out, idx, slots, height, n_rows)
        want = np.zeros((n_rows, height, f))
        for d in range(docs):
            for j in range(f):
                for k in range(height):
                    want[slots[d, idx[d, j] + k], k, j] += d_out[d, j]
        assert grad.shape == (n_rows, height * f)
        np.testing.assert_allclose(grad, want.reshape(n_rows, -1), rtol=1e-12,
                                   atol=1e-12)


INNER = (4, 50, 100, 150, 250, 300, 600, 1500)
COLUMNS = (2, 3, 100, 200, 300, 400, 500, 700, 1200, 3600)


def check_rows_product_rows_stand_alone():
    """Over the grid of inner sizes and column counts, a row of
    rows_product has the same bytes at any position of its block, beside
    any neighbours, and alone."""
    rng = np.random.default_rng(5)
    for inner in INNER:
        for cols in COLUMNS:
            a = rng.normal(0, 1, size=(2 * ROW_BLOCK + 5, inner))
            b = rng.normal(0, 1, size=(inner, cols))
            whole = rows_product(a, b)
            perm = rng.permutation(len(a))
            assert rows_product(a[perm], b).tobytes() == whole[perm].tobytes(), \
                (inner, cols, "moved")
            mine = rng.random(len(a)) < 0.5
            mixed = np.where(mine[:, None], a, rng.normal(0, 1, size=a.shape))
            assert rows_product(mixed, b)[mine].tobytes() == whole[mine].tobytes(), \
                (inner, cols, "neighbours")
            for i in (0, ROW_BLOCK - 1, len(a) - 1):
                assert rows_product(a[i : i + 1], b).tobytes() == \
                    whole[i : i + 1].tobytes(), (inner, cols, "alone")


def test_rows_product_rows_do_not_depend_on_their_position():
    check_rows_product_rows_stand_alone()
    in_blas_threads(1, "test_nnet", "check_rows_product_rows_stand_alone")


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
