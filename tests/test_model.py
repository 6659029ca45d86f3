import functools
import hashlib
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare import model as model_module
from groupshare.corpus import random_pretrained
from groupshare.groups import groups_from_tsv
from groupshare.model import (
    CheckpointError,
    ModelConfig,
    Optimizer,
    apply_gradients,
    batch_gradients,
    forward,
    init_params,
    load_checkpoint,
    loss_on,
    pad_block,
    predict,
    save_checkpoint,
    train_step,
    zero_gradients,
)
from groupshare.nnet import AdadeltaState
from helpers import dense_gradients, random_group_tsv, random_words, vocab_of


def tiny_setup(seed=0, n_words=14, dim=5, mode="group_init_share",
               heights=(2, 3), filters=3, dropout=0.0, signing=True):
    rng = np.random.default_rng(seed)
    words = random_words(rng, n_words)
    vocab = vocab_of(words)
    pretrained = random_pretrained(vocab, dim, seed=seed + 1)
    table = None
    if mode in ("group_init_no_share", "group_init_share"):
        lines = random_group_tsv(rng, words, 4, 3 * n_words)
        table = groups_from_tsv(lines, vocab)
    config = ModelConfig(
        num_classes=2, embedding_dim=dim, filter_heights=heights,
        filters_per_height=filters, dropout_rate=dropout,
        channel2_mode=mode, signing_enabled=signing, seed=seed + 2,
    )
    params = init_params(config, vocab, pretrained, group_table=table)
    docs = [
        np.array(rng.integers(0, vocab.num_tokens, size=rng.integers(1, 9)),
                 dtype=np.int64)
        for _ in range(12)
    ]
    labels = np.array(rng.integers(0, 2, size=12), dtype=np.int64)
    return params, docs, labels, vocab, pretrained, table


def forward_alone(ids, params):
    """``forward`` on one block, given the rows of every id in it, PAD's
    rows among them."""
    words = np.unique(ids)
    return forward(ids, params, words, model_module.channel_rows(params, words))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_classes=1, embedding_dim=4)
    with pytest.raises(ValueError):
        ModelConfig(num_classes=2, embedding_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(num_classes=2, embedding_dim=4, filter_heights=())
    with pytest.raises(ValueError):
        ModelConfig(num_classes=2, embedding_dim=4, filter_heights=(3, 0))
    with pytest.raises(ValueError):
        ModelConfig(num_classes=2, embedding_dim=4, dropout_rate=1.0)
    with pytest.raises(ValueError):
        ModelConfig(num_classes=2, embedding_dim=4, channel2_mode="tied")
    cfg = ModelConfig(num_classes=3, embedding_dim=4, filter_heights=[2, 5])
    assert cfg.filter_heights == (2, 5)
    assert cfg.max_height == 5


def test_init_params_shapes_and_modes():
    params, *_ = tiny_setup(mode="group_init_share")
    assert params.is_shared
    assert params.softmax_w.shape == (2 * 2 * 3, 2)
    np.testing.assert_array_equal(params.softmax_w, 0.0)
    np.testing.assert_array_equal(params.softmax_b, 0.0)

    solo, *_ = tiny_setup(mode="none")
    assert solo.channel2 is None and solo.bank_s is None
    assert solo.softmax_w.shape == (2 * 3, 2)

    rnd, _, _, vocab, _, _ = tiny_setup(mode="random")
    assert isinstance(rnd.channel2, np.ndarray)
    assert (np.abs(rnd.channel2) <= 0.25).all()
    np.testing.assert_array_equal(rnd.channel2[vocab.pad_id], 0.0)


def test_group_modes_require_table():
    rng = np.random.default_rng(1)
    vocab = vocab_of(random_words(rng, 5))
    pre = random_pretrained(vocab, 4, seed=2)
    cfg = ModelConfig(num_classes=2, embedding_dim=4, filter_heights=(2,),
                      filters_per_height=2, channel2_mode="group_init_share")
    with pytest.raises(ValueError, match="group table"):
        init_params(cfg, vocab, pre)
    with pytest.raises(ValueError, match="shape"):
        init_params(cfg, vocab, pre[:, :3], group_table=None)


def test_no_share_starts_identical_to_share():
    shared, *_ = tiny_setup(seed=5, mode="group_init_share")
    plain, *_ = tiny_setup(seed=5, mode="group_init_no_share")
    np.testing.assert_array_equal(plain.channel2, shared.channel2.values)
    assert not plain.is_shared


def test_init_is_deterministic_per_seed():
    a, *_ = tiny_setup(seed=9)
    b, *_ = tiny_setup(seed=9)
    c, *_ = tiny_setup(seed=10)
    np.testing.assert_array_equal(a.bank_p.weights[2], b.bank_p.weights[2])
    np.testing.assert_array_equal(a.bank_s.weights[3], b.bank_s.weights[3])
    np.testing.assert_array_equal(a.channel2.values, b.channel2.values)
    assert not np.array_equal(a.bank_p.weights[2], c.bank_p.weights[2])
    assert not np.array_equal(a.bank_p.weights[2], a.bank_s.weights[2])


def test_forward_requires_padded_input():
    params, *_ = tiny_setup()
    with pytest.raises(ValueError, match="pad"):
        forward_alone(np.array([[0, 1]]), params)  # max height is 3
    logits, _ = forward_alone(np.array([[0, 1, 2]]), params)
    assert logits.shape == (1, 2)


def test_forward_invariant_to_extra_padding():
    params, docs, _, vocab, _, _ = tiny_setup(seed=3)
    pad = vocab.pad_id
    for doc in docs:
        a = pad_block([doc], params.config.max_height, pad)
        b = pad_block([doc], params.config.max_height + 4, pad)
        la, _ = forward_alone(a, params)
        lb, _ = forward_alone(b, params)
        np.testing.assert_array_equal(la, lb)


def test_forward_ignores_pad_row_contents():
    params, docs, _, vocab, _, _ = tiny_setup(seed=8)
    doc = pad_block([docs[0][:2]], params.config.max_height, vocab.pad_id)
    before, _ = forward_alone(doc, params)
    params.emb_pretrained[vocab.pad_id] = 1e6
    params.ch2.private[np.searchsorted(params.ch2.private_ids, vocab.pad_id)] = -1e6
    after, _ = forward_alone(doc, params)
    np.testing.assert_array_equal(before, after)


def test_initial_loss_is_log_num_classes():
    params, docs, labels, *_ = tiny_setup(seed=2)
    # softmax layer starts at zero, so every class is equally likely
    assert loss_on(params, docs, labels) == pytest.approx(np.log(2.0), abs=1e-12)


def test_batch_gradient_is_mean_of_per_document_gradients():
    params, docs, labels, *_ = tiny_setup(seed=6)
    params.softmax_w += np.random.default_rng(0).normal(0, 0.3, params.softmax_w.shape)
    loss, grads, words = batch_gradients(params, docs[:5], labels[:5])
    grads = dense_gradients(params, grads, words)
    summed = {k: np.zeros_like(v) for k, v in grads.items()}
    total = 0.0
    for doc, label in zip(docs[:5], labels[:5]):
        l1, g1, w1 = batch_gradients(params, [doc], [label])
        g1 = dense_gradients(params, g1, w1)
        total += l1
        for k in summed:
            summed[k] += g1[k]
    assert loss == pytest.approx(total / 5, rel=1e-12)
    for k in grads:
        np.testing.assert_allclose(grads[k], summed[k] / 5, rtol=1e-12, atol=1e-15)


def test_gradients_pass_finite_difference_spot_checks():
    params, docs, labels, *_ = tiny_setup(seed=11, mode="random")
    rng = np.random.default_rng(5)
    params.softmax_w += rng.normal(0, 0.3, params.softmax_w.shape)
    _, grads, words = batch_gradients(params, docs[:4], labels[:4])
    grads = dense_gradients(params, grads, words)
    eps = 1e-6
    targets = [
        ("emb_p", params.emb_pretrained),
        ("ch2", params.ch2.private),     # every row of a free channel is private
        ("bank_p/W/2", params.bank_p.weights[2]),
        ("bank_s/b/3", params.bank_s.biases[3]),
        ("softmax/W", params.softmax_w),
        ("softmax/b", params.softmax_b),
    ]
    for key, arr in targets:
        flat = arr.reshape(-1)
        gflat = grads[key].reshape(-1)
        for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            old = flat[idx]
            flat[idx] = old + eps
            up = loss_on(params, docs[:4], labels[:4])
            flat[idx] = old - eps
            down = loss_on(params, docs[:4], labels[:4])
            flat[idx] = old
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(gflat[idx]), 1e-6)
            assert abs(fd - gflat[idx]) / denom < 1e-4, key


def test_train_step_reduces_loss_and_counts_steps():
    params, docs, labels, *_ = tiny_setup(seed=7)
    opt = Optimizer()
    first = loss_on(params, docs, labels)
    losses = [train_step(params, opt, docs, labels) for _ in range(30)]
    assert params.step_count == 30
    assert loss_on(params, docs, labels) < first
    assert all(np.isfinite(l) for l in losses)


def test_training_is_deterministic_with_dropout():
    runs = []
    for _ in range(2):
        params, docs, labels, *_ = tiny_setup(seed=21, dropout=0.5)
        opt = Optimizer()
        runs.append([train_step(params, opt, docs, labels) for _ in range(6)])
    assert runs[0] == runs[1]


def test_singleton_groups_without_signing_train_like_plain_matrix():
    # one group per word and signing off: tying changes nothing
    rng = np.random.default_rng(33)
    words = random_words(rng, 10)
    vocab = vocab_of(words)
    pretrained = random_pretrained(vocab, 4, seed=1)
    table = groups_from_tsv([f"s{i}\t{w}" for i, w in enumerate(words)], vocab)
    docs = [np.array(rng.integers(0, 10, size=5)) for _ in range(8)]
    labels = np.array(rng.integers(0, 2, size=8))
    results = {}
    for mode in ("group_init_share", "group_init_no_share"):
        cfg = ModelConfig(num_classes=2, embedding_dim=4, filter_heights=(2,),
                          filters_per_height=3, dropout_rate=0.0,
                          channel2_mode=mode, signing_enabled=False, seed=3)
        params = init_params(cfg, vocab, pretrained, group_table=table)
        opt = Optimizer()
        losses = [train_step(params, opt, docs, labels) for _ in range(5)]
        results[mode] = (losses, params)
    share_losses, share_params = results["group_init_share"]
    plain_losses, plain_params = results["group_init_no_share"]
    np.testing.assert_allclose(share_losses, plain_losses, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        share_params.channel2.values, plain_params.channel2, rtol=0, atol=1e-12
    )


def test_predict_shapes_and_probabilities():
    params, docs, labels, *_ = tiny_setup(seed=14)
    got, probs = predict(params, docs)
    assert got.shape == (len(docs),)
    assert probs.shape == (len(docs), 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(got, probs.argmax(axis=1))
    short_doc = [np.array([0])]  # shorter than every filter: padded inside
    one, p = predict(params, short_doc)
    assert one.shape == (1,)


def test_zero_gradients_cover_every_parameter():
    params, *_ = tiny_setup()
    grads = zero_gradients(params, 3)
    assert grads["emb_p"].shape == grads["ch2"].shape == (3, 5)
    expected = {
        "emb_p", "ch2", "softmax/W", "softmax/b",
        "bank_p/W/2", "bank_p/b/2", "bank_p/W/3", "bank_p/b/3",
        "bank_s/W/2", "bank_s/b/2", "bank_s/W/3", "bank_s/b/3",
    }
    assert set(grads) == expected
    solo, *_ = tiny_setup(mode="none")
    assert "ch2" not in zero_gradients(solo, 3)


def checkpoint_roundtrip(mode, tmp_path, dropout=0.5):
    params, docs, labels, *_ = tiny_setup(seed=17, mode=mode, dropout=dropout)
    opt = Optimizer()
    for _ in range(4):
        train_step(params, opt, docs, labels)
    path = tmp_path / f"{mode}.ckpt"
    save_checkpoint(path, params, opt)
    loaded, opt2 = load_checkpoint(path)
    return params, opt, loaded, opt2, docs, labels, path


@pytest.mark.parametrize("mode", ["none", "random", "group_init_no_share",
                                  "group_init_share"])
def test_checkpoint_round_trip_all_modes(mode, tmp_path):
    params, opt, loaded, opt2, docs, labels, _ = checkpoint_roundtrip(mode, tmp_path)
    assert loaded.step_count == params.step_count
    assert loaded.config == params.config
    assert loaded.vocab.words == params.vocab.words
    np.testing.assert_array_equal(loaded.emb_pretrained, params.emb_pretrained)
    np.testing.assert_array_equal(loaded.softmax_w, params.softmax_w)
    for h in params.config.filter_heights:
        np.testing.assert_array_equal(
            loaded.bank_p.weights[h], params.bank_p.weights[h]
        )
    if mode == "none":
        assert loaded.channel2 is None
    elif mode == "group_init_share":
        np.testing.assert_array_equal(
            loaded.channel2.groups.vectors, params.channel2.groups.vectors
        )
        assert loaded.channel2.table.members == params.channel2.table.members
        assert loaded.channel2.table.group_keys == params.channel2.table.group_keys
        assert loaded.channel2.spec == params.channel2.spec
        np.testing.assert_array_equal(loaded.channel2.values, params.channel2.values)
    else:
        np.testing.assert_array_equal(loaded.channel2, params.channel2)
    assert set(opt2.states) == set(opt.states)
    for name, st in opt.states.items():
        np.testing.assert_array_equal(opt2.states[name].sq_grad, st.sq_grad)
        np.testing.assert_array_equal(opt2.states[name].sq_delta, st.sq_delta)
    # every stored tensor, and the whole second-channel matrix, to the bit
    saved, restored = _state_bytes(params, opt), _state_bytes(loaded, opt2)
    assert list(saved) == list(restored)
    for name in saved:
        assert saved[name] == restored[name], name


def test_checkpoint_resume_replays_exactly(tmp_path):
    params, opt, loaded, opt2, docs, labels, _ = checkpoint_roundtrip(
        "group_init_share", tmp_path
    )
    for _ in range(5):
        a = train_step(params, opt, docs, labels)
        b = train_step(loaded, opt2, docs, labels)
        assert a == b
    pa, qa = predict(params, docs)
    pb, qb = predict(loaded, docs)
    np.testing.assert_array_equal(qa, qb)


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)
    empty = tmp_path / "empty.ckpt"
    empty.write_bytes(b"")
    with pytest.raises(CheckpointError, match="short"):
        load_checkpoint(empty)
    params, opt, loaded, opt2, docs, labels, path = checkpoint_roundtrip(
        "none", tmp_path
    )
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(blob[:-9])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(clipped)
    grown = tmp_path / "grown.ckpt"
    grown.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(grown)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:20])
    with pytest.raises(CheckpointError, match="truncated header"):
        load_checkpoint(cut)
    for version in (9, 1):      # a later format, and the retired first one
        other = tmp_path / f"v{version}.ckpt"
        other.write_bytes(blob.replace(b'"format_version": 2',
                                       b'"format_version": %d' % version))
        with pytest.raises(CheckpointError, match=f"version {version}"):
            load_checkpoint(other)


def test_failed_save_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    params, opt, _, _, docs, labels, path = checkpoint_roundtrip(
        "group_init_share", tmp_path
    )
    before = path.read_bytes()
    listing = sorted(os.listdir(tmp_path))

    class Unwritable:
        dtype = np.dtype(np.float64)
        shape = (3,)

        def __array__(self, *args, **kwargs):
            raise OSError("disk full")

    collect = model_module._collect_tensors
    monkeypatch.setattr(model_module, "_collect_tensors",
                        lambda p, o: collect(p, o) + [("late", Unwritable())])
    train_step(params, opt, docs, labels)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, params, opt)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == listing


def _state_bytes(params, opt):
    """Every stored parameter and accumulator, the whole second-channel
    matrix, and the step count."""
    out = {name: arr.tobytes() for name, arr in model_module._collect_tensors(params, opt)}
    if params.ch2 is not None:
        out["ch2/values"] = params.ch2.values.tobytes()
    out["step_count"] = params.step_count
    return out


@pytest.mark.parametrize("mode", ["none", "random", "group_init_no_share",
                                  "group_init_share"])
def test_bad_gradient_leaves_no_half_applied_step(mode, monkeypatch):
    params, docs, labels, *_ = tiny_setup(seed=5, mode=mode, dropout=0.5)
    opt = Optimizer()
    train_step(params, opt, docs, labels)
    before = _state_bytes(params, opt)

    real = model_module.batch_gradients

    def poisoned(*args, **kwargs):
        loss, grads, words = real(*args, **kwargs)
        grads["softmax/b"][-1] = np.nan     # the last tensor updated
        return loss, grads, words

    monkeypatch.setattr(model_module, "batch_gradients", poisoned)
    with pytest.raises(ValueError, match="non-finite"):
        train_step(params, opt, docs, labels)
    assert _state_bytes(params, opt) == before

    _, grads, words = real(params, docs, labels)
    grads["softmax/W"] = grads["softmax/W"][:-1]
    with pytest.raises(ValueError, match="shape"):
        apply_gradients(params, opt, grads, words)
    assert _state_bytes(params, opt) == before

    # the embedding gradient carries one row per batch word
    _, grads, words = real(params, docs, labels)
    grads["emb_p"] = grads["emb_p"][:-1]
    with pytest.raises(ValueError, match="shape"):
        apply_gradients(params, opt, grads, words)
    _, grads, words = real(params, docs, labels)
    grads["emb_p"][0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        apply_gradients(params, opt, grads, words)
    assert _state_bytes(params, opt) == before


def test_single_channel_checkpoint_has_no_second_channel_tensors(tmp_path):
    _, _, _, _, _, _, path = checkpoint_roundtrip("none", tmp_path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + hlen])
    names = [t[0] for t in header["tensors"]]
    assert not any(n.startswith(("ch2", "bank_s", "group")) for n in names)
    assert "emb_p" in names


@functools.lru_cache(maxsize=None)
def _checkpoint_bytes(mode):
    """A small trained checkpoint of the given mode, built once."""
    params, docs, labels, *_ = tiny_setup(seed=19, mode=mode, dropout=0.5)
    opt = Optimizer()
    train_step(params, opt, docs, labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        save_checkpoint(path, params, opt)
        with open(path, "rb") as f:
            return f.read()


def _split(blob):
    (hlen,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16 : 16 + hlen]), blob[16 + hlen :]


def _join(header_bytes, payload):
    return b"GWSCKP01" + struct.pack("<Q", len(header_bytes)) + header_bytes + payload


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_checkpoints(draw):
    blob = _checkpoint_bytes(draw(st.sampled_from(["none", "group_init_share"])))
    header, payload = _split(blob)
    kind = draw(st.sampled_from(["replace", "delete", "entry", "whole", "raw",
                                 "flip", "truncate"]))
    if kind in ("replace", "delete"):
        scope = draw(st.sampled_from(
            [header] + [v for v in header.values() if isinstance(v, dict)]))
        key = draw(st.sampled_from(sorted(scope)))
        if kind == "delete":
            del scope[key]
        else:
            scope[key] = draw(JSON)
    elif kind == "entry":
        entry = draw(st.sampled_from(header["tensors"]))
        entry[draw(st.integers(0, 2))] = draw(
            JSON | st.sampled_from(["O", "float32", "int8", [-1], [3, -2]]))
    elif kind == "whole":
        header = draw(JSON)
    if kind in ("replace", "delete", "entry", "whole"):
        return _join(json.dumps(header).encode("utf-8"), payload)
    if kind == "raw":
        return _join(draw(st.binary(max_size=40)), payload)
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(blob=mutated_checkpoints())
def test_loader_loads_or_raises_checkpoint_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    path.write_bytes(blob)
    try:
        params, _ = load_checkpoint(path)
    except CheckpointError:
        return
    predict(params, [np.array([0, 1])])


def test_optimizer_state_of_the_wrong_shape_is_rejected_at_load(tmp_path):
    params, docs, labels, *_ = tiny_setup(seed=3, mode="none")
    opt = Optimizer()
    train_step(params, opt, docs, labels)
    opt.states["softmax/b"] = AdadeltaState.zeros(3)    # the parameter has 2
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, opt)
    with pytest.raises(CheckpointError, match="opt/softmax/b/sq_grad"):
        load_checkpoint(path)


@pytest.mark.parametrize("header, message", [
    ([1, 2], "not a JSON object"),
    ({"format_version": 2}, "no tensor list"),
    ({"format_version": 2, "tensors": [["emb_p", "O", [2]]]}, "malformed"),
    ({"format_version": 2, "tensors": [["emb_p", "float64", [-1]]]}, "malformed"),
])
def test_malformed_headers_raise_checkpoint_error(tmp_path, header, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_join(json.dumps(header).encode("utf-8"), b""))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
    path.write_bytes(_join(b"\xff\xfe{}", b""))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)


def _tensor_spans(header):
    """{name: (start, end)} of each tensor's bytes in the payload."""
    spans, pos = {}, 0
    for name, dtype, shape in header["tensors"]:
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        spans[name] = (pos, pos + size)
        pos += size
    return spans


def test_checkpoint_with_an_extra_tensor_is_rejected(tmp_path):
    header, payload = _split(_checkpoint_bytes("group_init_share"))
    header["tensors"].append(["junk/extra", "float64", [2]])
    path = tmp_path / "m.ckpt"
    path.write_bytes(_join(json.dumps(header).encode("utf-8"),
                           payload + np.zeros(2).tobytes()))
    with pytest.raises(CheckpointError, match="junk/extra"):
        load_checkpoint(path)


@pytest.mark.parametrize("state", ["emb_p", "group_emb", "ch2_private", "softmax/b"])
def test_checkpoint_after_a_step_without_some_optimizer_state_is_rejected(
        state, tmp_path):
    # resuming would restart that state from zero and break replay
    header, payload = _split(_checkpoint_bytes("group_init_share"))
    assert header["step_count"] >= 1
    spans = _tensor_spans(header)
    dropped = {f"opt/{state}/sq_grad", f"opt/{state}/sq_delta"}
    assert dropped <= set(spans)
    header["tensors"] = [t for t in header["tensors"] if t[0] not in dropped]
    kept = b"".join(payload[a:b] for name, (a, b) in spans.items()
                    if name not in dropped)
    path = tmp_path / "m.ckpt"
    path.write_bytes(_join(json.dumps(header).encode("utf-8"), kept))
    with pytest.raises(CheckpointError, match=f"opt/{state}/sq_grad"):
        load_checkpoint(path)


def test_every_second_channel_mode_stores_one_layout():
    names = {mode: [entry[0] for entry in _split(_checkpoint_bytes(mode))[0]["tensors"]]
             for mode in ("random", "group_init_no_share", "group_init_share")}
    assert names["random"] == names["group_init_no_share"] == names["group_init_share"]
    assert {"group/members_flat", "group/offsets", "group/vectors",
            "ch2/private_values"} <= set(names["random"])
    assert not {"ch2/matrix", "ch2/private_ids"} & set(names["random"])


@pytest.mark.parametrize("mode", ["random", "group_init_no_share",
                                  "group_init_share"])
def test_private_rows_are_the_ungrouped_words(mode, tmp_path):
    params, _, _, vocab, _, table = tiny_setup(seed=4, mode=mode)
    grouped = set(table.membership) if mode == "group_init_share" else set()
    expected = [w for w in range(vocab.num_rows) if w not in grouped]
    assert {vocab.unk_id, vocab.pad_id} <= set(expected)
    np.testing.assert_array_equal(params.ch2.private_ids, expected)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, Optimizer())
    np.testing.assert_array_equal(load_checkpoint(path)[0].ch2.private_ids, expected)


def test_free_channel_checkpoint_with_groups_is_rejected(tmp_path):
    blob = _checkpoint_bytes("group_init_share")
    header, payload = _split(blob)
    header["config"]["channel2_mode"] = "group_init_no_share"
    path = tmp_path / "m.ckpt"
    path.write_bytes(_join(json.dumps(header).encode("utf-8"), payload))
    with pytest.raises(CheckpointError, match="has groups"):
        load_checkpoint(path)


@pytest.mark.parametrize("where", ["after", "before"])
def test_group_members_outside_the_offsets_are_rejected(where, tmp_path):
    # one stray member after the last offset, or before the first with
    # every offset moved past it: each group still slices out whole
    header, payload = _split(_checkpoint_bytes("group_init_share"))
    spans = _tensor_spans(header)
    start, mid = spans["group/members_flat"]
    assert spans["group/offsets"][0] == mid        # the two are adjacent
    end = spans["group/offsets"][1]
    flat = np.frombuffer(payload[start:mid], dtype=np.int64)
    offsets = np.frombuffer(payload[mid:end], dtype=np.int64)
    stray = np.zeros(1, dtype=np.int64)
    if where == "after":
        flat = np.concatenate([flat, stray])
    else:
        flat, offsets = np.concatenate([stray, flat]), offsets + 1
    for entry in header["tensors"]:
        if entry[0] == "group/members_flat":
            entry[2] = [flat.size]
    path = tmp_path / "m.ckpt"
    path.write_bytes(_join(json.dumps(header).encode("utf-8"),
                           payload[:start] + flat.tobytes() + offsets.tobytes()
                           + payload[end:]))
    with pytest.raises(CheckpointError, match="group/offsets"):
        load_checkpoint(path)


@pytest.mark.parametrize("rho, eps", [(1.0, 1e-6), (0.0, 1e-6), (5.0, -1.0),
                                      (0.95, 0.0), (float("nan"), 1e-6),
                                      (0.95, float("nan")), (0.95, float("inf"))])
def test_optimizer_rejects_bad_settings(rho, eps):
    with pytest.raises(ValueError):
        Optimizer(rho=rho, eps=eps)


@pytest.mark.parametrize("settings", [{"rho": 5.0, "eps": -1.0},
                                      {"rho": float("nan"), "eps": 1e-6},
                                      {"rho": 0.95, "eps": float("nan")}])
def test_checkpoint_with_bad_optimizer_settings_is_rejected(settings, tmp_path):
    header, payload = _split(_checkpoint_bytes("none"))
    header["opt"] = settings
    path = tmp_path / "m.ckpt"
    # json.dumps writes NaN, which json.loads reads back
    path.write_bytes(_join(json.dumps(header).encode("utf-8"), payload))
    with pytest.raises(CheckpointError, match="rho|eps"):
        load_checkpoint(path)


@pytest.mark.parametrize("change", ["seed", "signing_enabled"])
def test_checkpoint_whose_hash_spec_disagrees_with_its_config_is_rejected(
        change, tmp_path):
    header, payload = _split(_checkpoint_bytes("group_init_share"))
    spec = header["hash_spec"]
    if change == "seed":
        spec["seed"] += 1
    else:
        spec["signing_enabled"] = not spec["signing_enabled"]
    path = tmp_path / "m.ckpt"
    path.write_bytes(_join(json.dumps(header).encode("utf-8"), payload))
    with pytest.raises(CheckpointError, match="hash_spec"):
        load_checkpoint(path)


@pytest.mark.parametrize("change, message", [("repeat", "duplicate"),
                                             ("pad", "reserved")])
def test_checkpoint_with_a_repeated_or_reserved_word_is_rejected(
        change, message, tmp_path):
    # with a matching vocab_hash, so that only the words themselves are wrong
    header, payload = _split(_checkpoint_bytes("group_init_share"))
    words = header["vocab_words"]
    words[0] = words[1] if change == "repeat" else "<pad>"
    header["vocab_hash"] = hashlib.sha256(
        "\n".join(words + [""]).encode("utf-8")).hexdigest()
    path = tmp_path / "m.ckpt"
    path.write_bytes(_join(json.dumps(header).encode("utf-8"), payload))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
