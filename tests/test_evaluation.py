import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare.corpus import Dataset, random_pretrained
from groupshare.evaluation import (
    ExperimentConfig,
    ExperimentReport,
    FoldRecord,
    accuracy,
    auc,
    average_ranks,
    downsample,
    kfold_split,
    run_experiment,
)
from groupshare.model import ModelConfig
from helpers import random_words, vocab_of


def pair_count_auc(y, s):
    """Quadratic oracle: wins + half ties over all positive/negative pairs."""
    pos = [sv for yv, sv in zip(y, s) if yv == 1]
    neg = [sv for yv, sv in zip(y, s) if yv == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_kfold_unstratified_partition_and_sizes():
    rng = np.random.default_rng(50)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(2, min(n, 9) + 1))
        labels = rng.integers(0, 3, size=n)
        folds = kfold_split(labels, k, seed=trial, stratified=False)
        assert len(folds) == k
        sizes = [f.size for f in folds]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # big folds first
        all_idx = np.concatenate(folds)
        assert sorted(all_idx) == list(range(n))
        for f in folds:
            assert list(f) == sorted(f)
        again = kfold_split(labels, k, seed=trial, stratified=False)
        for a, b in zip(folds, again):
            np.testing.assert_array_equal(a, b)


def test_kfold_stratified_balances_classes():
    rng = np.random.default_rng(51)
    for trial in range(20):
        k = int(rng.integers(2, 7))
        counts = rng.integers(k, 4 * k, size=2)
        labels = np.array([0] * counts[0] + [1] * counts[1])
        labels = rng.permutation(labels)
        folds = kfold_split(labels, k, seed=trial)
        assert sorted(np.concatenate(folds)) == list(range(labels.size))
        for cls in (0, 1):
            per_fold = [int(np.sum(labels[f] == cls)) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1


def round_robin_kfold(labels, k, seed, stratified):
    """The fold loop kfold_split replaced: deal each class's permutation
    round-robin, or cut the one permutation into contiguous chunks."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    if stratified:
        for cls in np.unique(labels):
            idx = rng.permutation(np.flatnonzero(labels == cls))
            for pos, i in enumerate(idx):
                folds[pos % k].append(int(i))
    else:
        perm = rng.permutation(labels.shape[0])
        sizes = np.full(k, labels.shape[0] // k, dtype=np.int64)
        sizes[: labels.shape[0] % k] += 1
        start = 0
        for f in range(k):
            folds[f] = [int(i) for i in perm[start : start + sizes[f]]]
            start += sizes[f]
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 7),
       n_classes=st.integers(1, 4), extra=st.integers(0, 30),
       stratified=st.booleans())
def test_kfold_matches_round_robin_loop(seed, k, n_classes, extra, stratified):
    rng = np.random.default_rng(seed)
    # every class keeps at least k instances
    labels = rng.permutation(np.concatenate([
        np.arange(n_classes).repeat(k),
        rng.integers(0, n_classes, size=extra)]))
    folds = kfold_split(labels, k, seed=seed, stratified=stratified)
    want = round_robin_kfold(labels, k, seed, stratified)
    assert len(folds) == k
    for got, ref in zip(folds, want):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


def test_kfold_argument_errors():
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError):
        kfold_split(labels, 1, seed=0)
    with pytest.raises(ValueError):
        kfold_split(labels, 5, seed=0, stratified=False)
    with pytest.raises(ValueError, match="class"):
        kfold_split(np.array([0, 0, 0, 1]), 2, seed=0)


def test_downsample_balances_two_classes():
    rng = np.random.default_rng(52)
    for trial in range(25):
        n0 = int(rng.integers(1, 30))
        n1 = int(rng.integers(1, 30))
        labels = np.array([0] * n0 + [1] * n1)
        labels = rng.permutation(labels)
        indices = np.arange(labels.size)
        got = downsample(indices, labels, seed=trial)
        assert list(got) == sorted(got)
        assert set(got) <= set(indices)
        kept = labels[got]
        assert np.sum(kept == 0) == np.sum(kept == 1) == min(n0, n1)
        minority_cls = 0 if n0 <= n1 else 1
        minority_idx = set(indices[labels == minority_cls])
        if n0 != n1:
            assert minority_idx <= set(got)
        again = downsample(indices, labels, seed=trial)
        np.testing.assert_array_equal(got, again)


def test_downsample_requires_two_classes():
    labels = np.array([0, 0, 1, 2])
    with pytest.raises(ValueError, match="2 classes"):
        downsample(np.arange(4), labels, seed=0)
    with pytest.raises(ValueError, match="2 classes"):
        downsample(np.array([0, 1]), labels, seed=0)


def test_accuracy_matches_loop():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 3, size=n)
        expected = sum(int(x == y) for x, y in zip(a, b)) / n
        assert accuracy(a, b) == expected
    with pytest.raises(ValueError):
        accuracy(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        accuracy(np.array([0]), np.array([0, 1]))


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(54)
    for trial in range(40):
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        if trial % 2:
            scores = rng.choice([0.1, 0.25, 0.5, 0.75], size=n)  # forced ties
        else:
            scores = rng.normal(0, 1, size=n)
        assert auc(y, scores) == pair_count_auc(y, scores)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, 0.5, 1.0]),
                       min_size=1, max_size=60))
def test_average_ranks_match_scipy_rankdata(values):
    # drawing from three fixed values as well forces ties
    values = np.array(values)
    assert average_ranks(values).tobytes() == scipy.stats.rankdata(values).tobytes()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    code = ("import sys, groupshare.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True"]


def test_auc_edge_cases():
    y = np.array([0, 0, 1, 1])
    assert auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0
    assert auc(y, np.array([0.5, 0.5, 0.5, 0.5])) == 0.5
    with pytest.raises(ValueError, match="single class"):
        auc(np.array([1, 1]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="0 or 1"):
        auc(np.array([1, 2]), np.array([0.1, 0.2]))


def make_dataset(seed, n_docs=40, n_words=12):
    rng = np.random.default_rng(seed)
    words = random_words(rng, n_words)
    vocab = vocab_of(words)
    docs = []
    labels = []
    half = n_words // 2
    for i in range(n_docs):
        label = i % 2
        lo, hi = (0, half) if label == 0 else (half, n_words)
        ids = rng.integers(lo, hi, size=int(rng.integers(2, 7)))
        docs.append(np.array(ids, dtype=np.int64))
        labels.append(label)
    ds = Dataset(documents=docs,
                 labels=np.array(labels, dtype=np.int64), num_classes=2)
    return ds, vocab


def small_experiment(metric="accuracy", replications=2, folds=4, epochs=1):
    ds, vocab = make_dataset(seed=60)
    pretrained = random_pretrained(vocab, 4, seed=61)
    model = ModelConfig(num_classes=2, embedding_dim=4, filter_heights=(2,),
                        filters_per_height=2, dropout_rate=0.0,
                        channel2_mode="none", seed=0)
    exp = ExperimentConfig(model=model, epochs=epochs, batch_size=10,
                           folds=folds, replications=replications,
                           metric=metric, seed=99)
    return exp, ds, vocab, pretrained


def test_run_experiment_produces_full_record_grid():
    exp, ds, vocab, pretrained = small_experiment()
    report = run_experiment(exp, ds, vocab, pretrained)
    assert len(report.records) == exp.replications * exp.folds
    for rec in report.records:
        assert rec.train_size + rec.test_size == len(ds)
        assert 0.0 <= rec.value <= 1.0
    grid = {(r.replication, r.fold) for r in report.records}
    assert grid == {(r, f) for r in range(exp.replications)
                    for f in range(exp.folds)}


def test_run_experiment_reports_are_byte_identical():
    exp, ds, vocab, pretrained = small_experiment(metric="auc")
    a = run_experiment(exp, ds, vocab, pretrained).render()
    b = run_experiment(exp, ds, vocab, pretrained).render()
    assert a == b


def test_report_statistics():
    report = ExperimentReport(metric="accuracy", replications=2, folds=2)
    report.records = [
        FoldRecord(0, 0, 0.8, 30, 10),
        FoldRecord(0, 1, 0.6, 30, 10),
        FoldRecord(1, 0, 1.0, 30, 10),
        FoldRecord(1, 1, 0.9, 30, 10),
    ]
    assert report.replication_means() == [0.7, 0.95]
    assert report.mean == pytest.approx(0.825)
    assert report.min == 0.7
    assert report.max == 0.95
    text = report.render()
    assert "rep=0 mean=0.700000" in text
    assert "overall mean=0.825000 min=0.700000 max=0.950000" in text
    assert text.count("\n") == 1 + 2 + 4 + 1


def test_experiment_config_validation():
    model = ModelConfig(num_classes=2, embedding_dim=4)
    with pytest.raises(ValueError):
        ExperimentConfig(model=model, epochs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model=model, folds=1)
    with pytest.raises(ValueError):
        ExperimentConfig(model=model, metric="f1")


def test_auc_on_more_than_two_classes_fails_before_any_training(monkeypatch):
    from groupshare import evaluation

    exp, ds, vocab, pretrained = small_experiment(metric="auc")
    ds.labels[::3] = 2
    ds = Dataset(documents=ds.documents, labels=ds.labels,
                 num_classes=3)
    exp = ExperimentConfig(model=ModelConfig(num_classes=3, embedding_dim=4),
                           metric="auc")

    def never(*args, **kwargs):
        raise AssertionError("a fold was trained")

    monkeypatch.setattr(evaluation, "train_model", never)
    with pytest.raises(ValueError, match="auc needs two classes"):
        run_experiment(exp, ds, vocab, pretrained)


def test_downsampling_is_checked_before_any_training(monkeypatch):
    from groupshare import evaluation

    def never(*args, **kwargs):
        raise AssertionError("a fold was trained")

    monkeypatch.setattr(evaluation, "train_model", never)
    exp, ds, vocab, pretrained = small_experiment()
    exp = dataclasses.replace(exp, downsampling=True, stratified=False)
    # one document of class 1: the training part of its fold lacks class 1
    labels = np.zeros(len(ds), dtype=np.int64)
    labels[-1] = 1
    skewed = Dataset(documents=ds.documents, labels=labels,
                     num_classes=2)
    with pytest.raises(ValueError, match="both classes in every training split"):
        run_experiment(exp, skewed, vocab, pretrained)

    three = Dataset(documents=ds.documents,
                    labels=np.arange(len(ds)) % 3, num_classes=3)
    exp = dataclasses.replace(exp, model=dataclasses.replace(exp.model, num_classes=3))
    with pytest.raises(ValueError, match="downsampling needs two classes"):
        run_experiment(exp, three, vocab, pretrained)


def test_auc_with_a_single_class_test_fold_fails_before_any_training(monkeypatch):
    from groupshare import evaluation

    def never(*args, **kwargs):
        raise AssertionError("a fold was trained")

    monkeypatch.setattr(evaluation, "train_model", never)
    exp, ds, vocab, pretrained = small_experiment(metric="auc")
    exp = dataclasses.replace(exp, stratified=False)
    # one document of class 1: every test fold but one lacks class 1
    labels = np.zeros(len(ds), dtype=np.int64)
    labels[-1] = 1
    skewed = Dataset(documents=ds.documents, labels=labels, num_classes=2)
    with pytest.raises(ValueError, match=r"both classes in every test fold; "
                                         r"replication 0 fold \d+ has 1"):
        run_experiment(exp, skewed, vocab, pretrained)


def test_run_experiment_with_downsampling():
    ds, vocab = make_dataset(seed=70, n_docs=36)
    # skew labels 2:1
    ds.labels[: len(ds.labels) // 3] = 0
    pretrained = random_pretrained(vocab, 4, seed=71)
    model = ModelConfig(num_classes=2, embedding_dim=4, filter_heights=(2,),
                        filters_per_height=2, dropout_rate=0.0,
                        channel2_mode="none", seed=0)
    exp = ExperimentConfig(model=model, epochs=1, batch_size=8, folds=3,
                           replications=1, metric="auc", downsampling=True,
                           seed=5)
    report = run_experiment(exp, ds, vocab, pretrained)
    assert len(report.records) == 3
