"""End-to-end checks of the package's headline guarantees.

Each test pins one behavioural promise at a fixed tolerance: parameter
sharing is exactly equivalent to training an explicitly tied model,
analytic group gradients match finite differences, singleton groups
degenerate to a plain two-channel network, the hash is uniform and
byte-stable, the metrics and group initialisation agree with brute-force
oracles, the resource adapters build the expected tables, sharing pays
off on a synonym-structured corpus, the evaluation protocol is
reproducible byte for byte, and checkpoint replay is exact.
"""

import time

import numpy as np
import scipy.stats
from numpy.testing import assert_allclose, assert_array_equal

from groupshare import corpus, evaluation, groups, hashing, model
from helpers import random_group_tsv, random_words, vocab_of
from synthdata import make_synth_corpus, make_synth_pretrained

RHO = 0.95
EPS = 1e-6


# ---------------------------------------------------------------------------
# 1. hashed sharing == explicitly tied model


class TiedTrainer:
    """Reference trainer that materializes every tied coordinate by hand.

    It keeps private copies of all tensors and rebuilds the second
    channel row by row with scalar hash lookups, accumulates gradients
    with plain python loops, and folds them back onto the group rows one
    coordinate at a time. Nothing is shared with the vectorized training
    path except the hash definition itself.
    """

    def __init__(self, params):
        shared = params.channel2
        self.config = params.config
        self.vocab = params.vocab
        self.spec = shared.spec
        self.membership = {int(w): list(g) for w, g in shared.table.membership.items()}
        self.grouped = sorted(self.membership)
        self.private_ids = np.asarray(shared.private_ids, dtype=np.int64)
        self.emb_p = params.emb_pretrained.copy()
        self.g = shared.groups.vectors.copy()
        self.private = shared.values[self.private_ids].copy()
        self.banks = {}
        for key, bank in (("bank_p", params.bank_p), ("bank_s", params.bank_s)):
            for h in self.config.filter_heights:
                self.banks[(key, h)] = [bank.weights[h].copy(), bank.biases[h].copy()]
        self.softmax_w = params.softmax_w.copy()
        self.softmax_b = params.softmax_b.copy()
        self.states = {}

    def _route(self, w, j):
        gids = self.membership[w]
        return gids[hashing.hash_dim(w, j, len(gids), self.spec)]

    def materialize(self):
        d = self.config.embedding_dim
        mat = np.zeros((self.vocab.num_rows, d), dtype=np.float64)
        mat[self.private_ids] = self.private
        for w in self.grouped:
            for j in range(d):
                mat[w, j] = self.g[self._route(w, j), j] * hashing.sign(
                    w, j, self.spec
                )
        return mat

    def _ada(self, name, param, grad):
        if name not in self.states:
            self.states[name] = [np.zeros_like(param), np.zeros_like(param)]
        sq_grad, sq_delta = self.states[name]
        sq_grad *= RHO
        sq_grad += (1.0 - RHO) * grad * grad
        delta = -np.sqrt(sq_delta + EPS) / np.sqrt(sq_grad + EPS) * grad
        sq_delta *= RHO
        sq_delta += (1.0 - RHO) * delta * delta
        param += delta

    def step(self, docs, labels):
        config = self.config
        e_s = self.materialize()
        d_emb = np.zeros_like(self.emb_p)
        d_es = np.zeros_like(e_s)
        d_bank = {k: [np.zeros_like(w), np.zeros_like(b)]
                  for k, (w, b) in self.banks.items()}
        d_sw = np.zeros_like(self.softmax_w)
        d_sb = np.zeros_like(self.softmax_b)
        total = 0.0
        for doc, label in zip(docs, labels):
            ids = np.asarray(doc, dtype=np.int64)
            mask = (ids != self.vocab.pad_id).astype(np.float64)
            real = int(mask.sum())
            feats = []
            caches = []
            for chan_key, matrix in (("bank_p", self.emb_p), ("bank_s", e_s)):
                x = matrix[ids] * mask[:, None]
                for h in config.filter_heights:
                    w, b = self.banks[(chan_key, h)]
                    n_win = len(ids) - h + 1
                    pre = np.zeros((n_win, w.shape[0]), dtype=np.float64)
                    for t in range(n_win):
                        for f in range(w.shape[0]):
                            pre[t, f] = float((w[f] * x[t : t + h]).sum()) + b[f]
                    act = np.maximum(pre, 0.0)
                    n_valid = max(real - h + 1, 1)
                    idx = np.argmax(act[:n_valid], axis=0)
                    feats.append(act[:n_valid].max(axis=0))
                    caches.append((chan_key, h, x, pre, idx, n_valid))
            feat = np.concatenate(feats)
            logits = feat @ self.softmax_w + self.softmax_b
            shifted = logits - logits.max()
            exp = np.exp(shifted)
            total += np.log(exp.sum()) - shifted[int(label)]
            d_logits = exp / exp.sum()
            d_logits[int(label)] -= 1.0
            d_sw += np.outer(feat, d_logits)
            d_sb += d_logits
            d_feat = self.softmax_w @ d_logits
            pos = 0
            dx_by_chan = {"bank_p": np.zeros_like(self.emb_p[ids]),
                          "bank_s": np.zeros_like(e_s[ids])}
            for chan_key, h, x, pre, idx, n_valid in caches:
                w, b = self.banks[(chan_key, h)]
                n_f = w.shape[0]
                d_pool = d_feat[pos : pos + n_f]
                pos += n_f
                d_pre = np.zeros_like(pre)
                for f in range(n_f):
                    t = int(idx[f])
                    if pre[t, f] > 0.0:
                        d_pre[t, f] = d_pool[f]
                for t in range(pre.shape[0]):
                    for f in range(n_f):
                        if d_pre[t, f] != 0.0:
                            d_bank[(chan_key, h)][0][f] += d_pre[t, f] * x[t : t + h]
                            d_bank[(chan_key, h)][1][f] += d_pre[t, f]
                            dx_by_chan[chan_key][t : t + h] += d_pre[t, f] * w[f]
            for t, wid in enumerate(ids):
                d_emb[wid] += dx_by_chan["bank_p"][t] * mask[t]
                d_es[wid] += dx_by_chan["bank_s"][t] * mask[t]
        scale = 1.0 / len(docs)
        d_emb *= scale
        d_es *= scale
        d_sw *= scale
        d_sb *= scale
        for pair in d_bank.values():
            pair[0] *= scale
            pair[1] *= scale

        d_g = np.zeros_like(self.g)
        for w in self.grouped:
            for j in range(self.config.embedding_dim):
                d_g[self._route(w, j), j] += (
                    hashing.sign(w, j, self.spec) * d_es[w, j]
                )
        self._ada("emb_p", self.emb_p, d_emb)
        self._ada("g", self.g, d_g)
        self._ada("private", self.private, d_es[self.private_ids])
        for key, (w, b) in self.banks.items():
            self._ada(f"{key}/W", w, d_bank[key][0])
            self._ada(f"{key}/b", b, d_bank[key][1])
        self._ada("softmax/W", self.softmax_w, d_sw)
        self._ada("softmax/b", self.softmax_b, d_sb)
        return float(total * scale)


def _share_fixture(rng, n_words, dim, lines_of):
    words = random_words(rng, n_words)
    vocab = vocab_of(words)
    table = groups.groups_from_tsv(lines_of(words), vocab)
    pretrained = corpus.random_pretrained(vocab, dim, seed=3)
    return vocab, table, pretrained


def _random_batches(rng, n_batches, batch, n_words, lo, hi):
    out = []
    for _ in range(n_batches):
        docs = [
            rng.integers(0, n_words, size=int(rng.integers(lo, hi + 1))).astype(
                np.int64
            )
            for _ in range(batch)
        ]
        labels = rng.integers(0, 2, size=batch).astype(np.int64)
        out.append((docs, labels))
    return out


def test_shared_training_matches_explicitly_tied_model():
    rng = np.random.default_rng(2024)

    def lines_of(words):
        lines = [f"g0\t{w}" for w in words[0:5]]
        lines += [f"g1\t{w}" for w in words[4:9]]
        lines += [f"g2\t{w}" for w in words[9:14]]
        lines += [f"g3\t{w}" for w in words[13:16]]
        lines.append(f"g3\t{words[0]}")
        return lines

    vocab, table, pretrained = _share_fixture(rng, 20, 8, lines_of)
    assert table.group_count == 4
    config = model.ModelConfig(
        num_classes=2, embedding_dim=8, filter_heights=(2,),
        filters_per_height=5, dropout_rate=0.0,
        channel2_mode="group_init_share", signing_enabled=True, seed=11,
    )
    params = model.init_params(config, vocab, pretrained, group_table=table)
    opt = model.Optimizer()
    oracle = TiedTrainer(params)

    start = time.monotonic()
    for docs, labels in _random_batches(rng, 10, 3, 20, 2, 7):
        loss_fast = model.train_step(params, opt, docs, labels)
        loss_slow = oracle.step(docs, labels)
        assert abs(loss_fast - loss_slow) <= 1e-10
    assert time.monotonic() - start < 10.0

    assert_allclose(params.channel2.groups.vectors, oracle.g, rtol=0, atol=1e-10)
    assert_allclose(params.channel2.values, oracle.materialize(), rtol=0, atol=1e-10)
    assert_allclose(params.emb_pretrained, oracle.emb_p, rtol=0, atol=1e-10)
    assert_allclose(params.softmax_w, oracle.softmax_w, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# 2. analytic group gradients == finite differences


def test_group_gradients_match_finite_differences():
    start = time.monotonic()
    for seed in range(3):
        rng = np.random.default_rng(seed)

        def lines_of(words):
            lines = [f"g0\t{w}" for w in words[0:4]]
            lines += [f"g1\t{w}" for w in words[3:7]]
            lines += [f"g2\t{w}" for w in words[7:11]]
            return lines

        words = random_words(rng, 12)
        vocab = vocab_of(words)
        table = groups.groups_from_tsv(lines_of(words), vocab)
        pretrained = corpus.random_pretrained(vocab, 5, seed=seed)
        config = model.ModelConfig(
            num_classes=2, embedding_dim=5, filter_heights=(2, 3),
            filters_per_height=4, dropout_rate=0.0,
            channel2_mode="group_init_share", signing_enabled=True,
            seed=100 + seed,
        )
        params = model.init_params(config, vocab, pretrained, group_table=table)
        docs = [
            rng.integers(0, 12, size=int(rng.integers(3, 7))).astype(np.int64)
            for _ in range(4)
        ]
        labels = np.array([0, 1, 0, 1], dtype=np.int64)

        hashing.sync_forward(params.channel2)
        _, grads, words = model.batch_gradients(params, docs, labels)
        groups_hit, rows = hashing.aggregate_gradients(grads["ch2"], words,
                                                       params.channel2)
        analytic = np.zeros_like(params.channel2.groups.vectors)
        analytic[groups_hit] = rows

        g = params.channel2.groups.vectors
        e = 1e-5
        for k in range(g.shape[0]):
            for j in range(g.shape[1]):
                g[k, j] += e
                up = model.loss_on(params, docs, labels)
                g[k, j] -= 2 * e
                down = model.loss_on(params, docs, labels)
                g[k, j] += e
                fd = (up - down) / (2 * e)
                denom = max(abs(analytic[k, j]), abs(fd), 1e-6)
                assert abs(analytic[k, j] - fd) / denom <= 1e-4, (
                    f"seed {seed} coordinate ({k},{j}): "
                    f"analytic {analytic[k, j]:.3e} vs fd {fd:.3e}"
                )
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 3. singleton groups + signing off == plain two-channel model


def test_singleton_groups_degenerate_to_plain_model():
    rng = np.random.default_rng(33)
    words = random_words(rng, 10)
    vocab = vocab_of(words)
    table = groups.groups_from_tsv(
        [f"g{i}\t{w}" for i, w in enumerate(words)], vocab
    )
    pretrained = corpus.random_pretrained(vocab, 6, seed=7)
    shared_cfg = model.ModelConfig(
        num_classes=2, embedding_dim=6, filter_heights=(2, 3),
        filters_per_height=4, dropout_rate=0.5,
        channel2_mode="group_init_share", signing_enabled=False, seed=21,
    )
    plain_cfg = model.ModelConfig(
        num_classes=2, embedding_dim=6, filter_heights=(2, 3),
        filters_per_height=4, dropout_rate=0.5,
        channel2_mode="group_init_no_share", signing_enabled=False, seed=21,
    )
    p_shared = model.init_params(shared_cfg, vocab, pretrained, group_table=table)
    p_plain = model.init_params(plain_cfg, vocab, pretrained, group_table=table)

    assert_array_equal(p_shared.channel2.values, pretrained)
    assert_array_equal(p_plain.channel2, pretrained)

    opt_shared = model.Optimizer()
    opt_plain = model.Optimizer()
    for docs, labels in _random_batches(rng, 5, 4, 10, 3, 7):
        loss_s = model.train_step(p_shared, opt_shared, docs, labels)
        loss_p = model.train_step(p_plain, opt_plain, docs, labels)
        assert abs(loss_s - loss_p) <= 1e-10
    assert_allclose(p_shared.channel2.values, p_plain.channel2, rtol=0, atol=1e-10)
    assert_allclose(p_shared.emb_pretrained, p_plain.emb_pretrained,
                    rtol=0, atol=1e-10)
    assert_allclose(p_shared.softmax_w, p_plain.softmax_w, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# 4. hash uniformity, sign balance, byte stability


GOLDEN_HASH = [
    # (seed, word, dim, num_groups) -> bucket
    ((0, 0, 0, 4), 0),
    ((0, 1, 0, 4), 1),
    ((0, 0, 1, 4), 1),
    ((7, 12, 345, 16), 10),
    ((7, 99999, 9999, 16), 12),
    ((123456789, 5, 7, 3), 2),
]
GOLDEN_SIGN = [
    ((0, 0, 0), 1),
    ((0, 1, 0), 1),
    ((0, 0, 1), 1),
    ((7, 12, 345), 1),
    ((7, 99999, 9999), -1),
    ((123456789, 5, 7), 1),
]


def test_hash_uniformity_sign_balance_and_stability():
    spec = hashing.HashSpec(seed=0)
    dims = np.arange(10000, dtype=np.int64)
    for word in (0, 17, 4242):
        buckets = hashing.hash_dim(word, dims, 16, spec)
        hist = np.bincount(buckets, minlength=16)
        p = scipy.stats.chisquare(hist).pvalue
        assert p > 0.001, f"word {word}: chi-square p={p:.5f}, hist={hist}"

    words = np.arange(1000, dtype=np.int64)[:, None]
    signs = hashing.sign(words, np.arange(100, dtype=np.int64)[None, :], spec)
    frac = float((signs == 1).mean())
    assert 0.48 <= frac <= 0.52, f"positive sign fraction {frac:.4f}"

    again = hashing.hash_dim(4242, dims, 16, spec)
    assert_array_equal(hashing.hash_dim(4242, dims, 16, spec), again)
    for (seed, word, dim, k), expected in GOLDEN_HASH:
        assert hashing.hash_dim(word, dim, k, hashing.HashSpec(seed=seed)) == expected
    for (seed, word, dim), expected in GOLDEN_SIGN:
        assert hashing.sign(word, dim, hashing.HashSpec(seed=seed)) == expected


# ---------------------------------------------------------------------------
# 5. metrics == brute-force oracles


def test_metrics_match_bruteforce_oracles():
    rng = np.random.default_rng(515)
    for trial in range(100):
        n = int(rng.integers(2, 501))
        y = rng.integers(0, 2, size=n).astype(np.int64)
        if y.min() == y.max():
            y[0] = 1 - y[0]

        pred = rng.integers(0, 2, size=n).astype(np.int64)
        matches = sum(int(a == b) for a, b in zip(y, pred))
        assert evaluation.accuracy(y, pred) == matches / n

        if trial % 2 == 0:
            scores = rng.integers(0, 8, size=n).astype(np.float64) / 4.0
        else:
            scores = rng.normal(size=n)
        pos = scores[y == 1]
        neg = scores[y == 0]
        wins = np.sum(pos[:, None] > neg[None, :])
        ties = np.sum(pos[:, None] == neg[None, :])
        oracle = (wins + 0.5 * ties) / (pos.size * neg.size)
        assert evaluation.auc(y, scores) == oracle

    y = np.array([0] * 5 + [1] * 5)
    scores = np.array([0.1, 0.2, 0.3, 0.35, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0])
    assert evaluation.auc(y, scores) == 1.0
    assert evaluation.auc(y, np.full(10, 0.5)) == 0.5


# ---------------------------------------------------------------------------
# 6. group initialisation == exact member means


def test_group_init_equals_member_means_exactly():
    rng = np.random.default_rng(606)
    for _ in range(100):
        words = random_words(rng, int(rng.integers(5, 26)))
        vocab = vocab_of(words)
        lines = random_group_tsv(
            rng, words, int(rng.integers(1, 7)), int(rng.integers(3, 41))
        )
        table = groups.groups_from_tsv(lines, vocab)
        dim = int(rng.integers(1, 8))
        pretrained = rng.normal(size=(vocab.num_rows, dim))
        emb = groups.init_group_embeddings(table, pretrained)
        for gid, members in enumerate(table.members):
            acc = np.zeros(dim, dtype=np.float64)
            for wid in members:
                acc += pretrained[wid]
            assert_array_equal(emb.vectors[gid], acc / len(members))


# ---------------------------------------------------------------------------
# 7. resource adapters


def test_resource_adapters_build_expected_tables():
    vocab = vocab_of(["alpha", "bravo", "charlie", "delta", "echo"])
    mesh = [
        "C06.552.150.125\talpha",
        "C06.552.150.300\tbravo",
        "C06.552.150\tcharlie",
        "C06.405.205.265\tdelta",
        "C06.405.205\techo",
    ]
    table = groups.groups_from_mesh(mesh, vocab, prefix_depth=3)
    assert table.group_count == 2
    by_key = dict(zip(table.group_keys, table.members))
    assert by_key["C06.552.150"] == [0, 1, 2]
    assert by_key["C06.405.205"] == [3, 4]

    vocab = vocab_of(["able", "capable", "unable", "sorrow", "grief", "upbeat"])
    lexicon = [
        "# fixture lexicon",
        "a\t00001740\t0.125\t0\table#1 capable#3",
        "a\t00002098\t0\t0\tunable#1",
        "n\t00023100\t0\t0.75\tsorrow#2 grief#1",
        "n\t00031234\t0.5\t0.25\twell_being#1 upbeat#1",
    ]
    table = groups.groups_from_sentiment_lexicon(lexicon, vocab)
    assert table.group_count == 3
    assert set(table.group_keys) == {"a#00001740", "n#00023100", "n#00031234"}
    assert vocab.lookup("unable") not in table.membership
    assert table.multiword_skipped == 1
    by_key = dict(zip(table.group_keys, table.members))
    assert by_key["a#00001740"] == [vocab.lookup("able"), vocab.lookup("capable")]

    words = [f"tok{i:04d}" for i in range(1000)]
    vocab = vocab_of(words)
    brown = [f"{i:010b}\t{words[i]}\t{i + 1}" for i in range(1000)]
    table = groups.groups_from_brown(brown, vocab)
    assert table.group_count == 1000


# ---------------------------------------------------------------------------
# 8. sharing pays off on a synonym-structured corpus


def test_sharing_beats_random_second_channel_on_synonym_corpus():
    start = time.monotonic()
    dataset, vocab, lines = make_synth_corpus(
        20240901, n_docs=2000, n_sets=40, words_per_set=8, n_fillers=100,
        signal_tokens=2, filler_tokens=5, noise=0.3, zipf_power=1.0,
    )
    pretrained = make_synth_pretrained(
        vocab, lines, dim=12, seed=5, proto_scale=0.15, noise_scale=0.1,
        rare_rank=3, rare_noise_scale=0.45,
    )
    table = groups.groups_from_tsv(lines, vocab)
    means = {}
    for mode in ("random", "group_init_no_share", "group_init_share"):
        cfg = model.ModelConfig(
            num_classes=2, embedding_dim=12, filter_heights=(1,),
            filters_per_height=16, dropout_rate=0.0, channel2_mode=mode,
            signing_enabled=False, seed=0,
        )
        exp = evaluation.ExperimentConfig(
            model=cfg, epochs=6, batch_size=15, folds=5, replications=5,
            seed=313,
        )
        report = evaluation.run_experiment(
            exp, dataset, vocab, pretrained,
            group_table=table if mode.startswith("group") else None,
        )
        means[mode] = report.mean
    r = means["random"]
    n = means["group_init_no_share"]
    s = means["group_init_share"]
    assert s - r >= 0.01, f"share {s:.4f} vs random {r:.4f}"
    assert (r <= n <= s) or abs(n - s) <= 0.005, (
        f"random {r:.4f}, no-share {n:.4f}, share {s:.4f}"
    )
    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# 9. evaluation protocol shape and determinism


def test_protocol_yields_fifty_records_and_identical_reports():
    rng = np.random.default_rng(404)
    words = random_words(rng, 30)
    lines = []
    for i in range(120):
        n = int(rng.integers(3, 7))
        toks = [words[int(rng.integers(0, len(words)))] for _ in range(n)]
        lines.append(f"{i % 2}\t" + " ".join(toks))
    docs = [corpus.parse_line(ln, i + 1)[1] for i, ln in enumerate(lines)]
    vocab = corpus.build_vocabulary(docs)
    dataset = corpus.encode(lines, vocab)
    pretrained = corpus.random_pretrained(vocab, 8, seed=1)
    cfg = model.ModelConfig(
        num_classes=2, embedding_dim=8, filter_heights=(2,),
        filters_per_height=4, dropout_rate=0.0, channel2_mode="none", seed=0,
    )
    exp = evaluation.ExperimentConfig(
        model=cfg, epochs=1, batch_size=20, folds=10, replications=5, seed=77,
    )
    first = evaluation.run_experiment(exp, dataset, vocab, pretrained)
    second = evaluation.run_experiment(exp, dataset, vocab, pretrained)

    assert len(first.records) == 50
    seen = {(rec.replication, rec.fold) for rec in first.records}
    assert seen == {(r, f) for r in range(5) for f in range(10)}
    for rec in first.records:
        assert rec.train_size == 108
        assert rec.test_size == 12
    text = first.render()
    assert "overall mean=" in text and " min=" in text and " max=" in text
    assert text == second.render()
    assert first.records == second.records


# ---------------------------------------------------------------------------
# 10. checkpoint replay


def test_checkpoint_replay_matches_uninterrupted_training(tmp_path):
    rng = np.random.default_rng(1010)

    def lines_of(words):
        lines = [f"g0\t{w}" for w in words[0:5]]
        lines += [f"g1\t{w}" for w in words[4:10]]
        lines += [f"g2\t{w}" for w in words[10:13]]
        return lines

    vocab, table, pretrained = _share_fixture(rng, 14, 6, lines_of)
    config = model.ModelConfig(
        num_classes=2, embedding_dim=6, filter_heights=(2, 3),
        filters_per_height=3, dropout_rate=0.5,
        channel2_mode="group_init_share", signing_enabled=True, seed=5,
    )
    params = model.init_params(config, vocab, pretrained, group_table=table)
    opt = model.Optimizer()
    batches = _random_batches(rng, 5, 4, 14, 3, 7)

    for docs, labels in batches[:3]:
        model.train_step(params, opt, docs, labels)
    path = tmp_path / "ckpt.bin"
    model.save_checkpoint(path, params, opt)

    straight = [model.train_step(params, opt, docs, labels)
                for docs, labels in batches[3:]]
    resumed_params, resumed_opt = model.load_checkpoint(path)
    assert resumed_params.step_count == 3
    resumed = [model.train_step(resumed_params, resumed_opt, docs, labels)
               for docs, labels in batches[3:]]

    for a, b in zip(straight, resumed):
        assert abs(a - b) <= 1e-12
    assert_allclose(resumed_params.channel2.groups.vectors,
                    params.channel2.groups.vectors, rtol=0, atol=1e-12)
    assert_allclose(resumed_params.channel2.values, params.channel2.values,
                    rtol=0, atol=1e-12)
    assert_allclose(resumed_params.emb_pretrained, params.emb_pretrained,
                    rtol=0, atol=1e-12)
    assert_allclose(resumed_params.softmax_w, params.softmax_w,
                    rtol=0, atol=1e-12)
    for h in config.filter_heights:
        assert_allclose(resumed_params.bank_s.weights[h],
                        params.bank_s.weights[h], rtol=0, atol=1e-12)
