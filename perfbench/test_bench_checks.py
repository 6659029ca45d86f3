"""Each output check of the benchmark accepts a correct output and
rejects one broken output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from groupshare import corpus, evaluation, groups, model  # noqa: E402

TINY = dataclasses.replace(
    inputs.WORKLOADS["cv-short"], dim=8, n_test=60, n_train=20, n_sets=8,
    n_fillers=400, eval_docs=60,
)


@pytest.fixture(scope="module")
def trained():
    c = inputs.make_corpus(TINY, seed=5)
    docs = [corpus.parse_line(line, i)[1] for i, line in enumerate(c.lines)]
    vocab = corpus.build_vocabulary(docs)
    dataset = corpus.encode(c.lines, vocab)
    table = groups.groups_from_tsv(c.group_lines, vocab)
    pretrained = corpus.random_pretrained(vocab, TINY.dim, seed=3)
    cfg = model.ModelConfig(num_classes=2, embedding_dim=TINY.dim,
                            filter_heights=(2, 3), filters_per_height=4)
    exp = evaluation.ExperimentConfig(model=cfg, epochs=2, batch_size=10,
                                      folds=3, replications=2)
    train_idx = np.arange(TINY.n_test, TINY.n_test + TINY.n_train)
    params, opt = evaluation.train_model(cfg, dataset, vocab, pretrained,
                                         train_idx, exp, group_table=table)
    test_docs = dataset.documents[: TINY.n_test]
    labels, probs = model.predict(params, test_docs)
    return dict(dataset=dataset, vocab=vocab, table=table, exp=exp,
                pretrained=pretrained, params=params, opt=opt,
                test_docs=test_docs, labels=labels, probs=probs,
                train_docs=[dataset.documents[i] for i in train_idx])


def test_reference_pass_rejects_a_perturbed_probability(trained):
    t = trained
    sample = range(10)
    checks.check_predictions(t["params"], t["test_docs"], t["labels"],
                             t["probs"], sample)
    probs = t["probs"].copy()
    probs[4] += [1e-6, -1e-6]
    with pytest.raises(checks.CheckFailed, match="document 4"):
        checks.check_predictions(t["params"], t["test_docs"], t["labels"],
                                 probs, sample)


def test_quality_rejects_labels_leaked_from_the_held_out_set():
    rng = np.random.default_rng(0)
    clean = np.arange(1000) % 2
    noisy = np.where(rng.random(1000) < 0.2, 1 - clean, clean)
    # a Bayes-optimal model recovers the clean class, with ranked scores
    scores = np.clip(clean + rng.normal(0.0, 0.3, 1000), 0.0, 1.0)
    probs = np.stack([1.0 - scores, scores], axis=1)
    acc, auc = checks.check_quality(noisy, clean, probs, noise=0.2)
    assert 0.75 < acc < 0.85 and auc > 0.7
    # a model that saw the held-out labels reproduces them
    leaked = np.stack([1.0 - noisy, noisy], axis=1).astype(float)
    with pytest.raises(checks.CheckFailed, match="Bayes ceiling"):
        checks.check_quality(noisy, noisy, leaked, noise=0.2)
    # a model that sends every document to one class is at chance,
    # however well it ranks them
    with pytest.raises(checks.CheckFailed, match="below chance"):
        checks.check_quality(noisy, np.ones(1000, int), probs, noise=0.2)
    # scores that rank nothing fail even beside accurate labels
    flat = np.full((1000, 2), 0.5)
    with pytest.raises(checks.CheckFailed, match="AUC"):
        checks.check_quality(noisy, clean, flat, noise=0.2)


def test_tied_rows_reject_a_coordinate_moved_off_its_group(trained):
    shared = trained["params"].channel2
    values = shared.values.copy()
    checks.check_tied_rows(values, shared.table, shared.groups.vectors)
    word = int(shared.routing.grouped_ids[3])
    values[word, 5] += 0.25
    with pytest.raises(checks.CheckFailed, match=f"word {word} coordinate 5"):
        checks.check_tied_rows(values, shared.table, shared.groups.vectors)


def test_groups_moved_rejects_an_untouched_group_that_moved(trained):
    t = trained
    shared = t["params"].channel2
    vectors = shared.groups.vectors.copy()
    share = checks.check_groups_moved(shared.table, t["pretrained"], vectors,
                                      t["train_docs"])
    assert share > 0.5
    seen = set(np.concatenate(t["train_docs"]).tolist())
    untouched = [g for g, ws in enumerate(shared.table.members)
                 if not seen & set(ws)]
    assert untouched, "twenty training documents leave some group unseen"
    vectors[untouched[0], 0] += 1e-9
    with pytest.raises(checks.CheckFailed, match="without any member"):
        checks.check_groups_moved(shared.table, t["pretrained"], vectors,
                                  t["train_docs"])


def test_checkpoint_check_rejects_one_flipped_tensor(trained, tmp_path):
    t = trained
    path = tmp_path / "tiny.ckpt"
    model.save_checkpoint(path, t["params"], t["opt"])
    loaded = model.load_checkpoint(path)
    _, reprobs = model.predict(loaded[0], t["test_docs"])
    checks.check_checkpoint((t["params"], t["opt"]), loaded, t["probs"],
                            reprobs)
    flipped = model.load_checkpoint(path)
    flipped[0].bank_s.weights[3] *= -1.0
    with pytest.raises(checks.CheckFailed, match="bank_s/W/3"):
        checks.check_checkpoint((t["params"], t["opt"]), flipped,
                                t["probs"], reprobs)


def test_report_check_rejects_folds_that_do_not_partition(trained):
    t = trained
    exp = dataclasses.replace(t["exp"], epochs=1)
    report = evaluation.run_experiment(exp, t["dataset"], t["vocab"],
                                       t["pretrained"], t["table"]).render()
    n = len(t["dataset"])
    checks.check_report(report, n, exp.replications, exp.folds)
    lines = report.splitlines()
    i = next(k for k, line in enumerate(lines) if " fold=1 " in line)
    lines[i] = lines[i].replace(" test=", " test=1")
    with pytest.raises(checks.CheckFailed, match="train \\+ test"):
        checks.check_report("\n".join(lines), n, exp.replications, exp.folds)
    lines = report.splitlines()
    lines[-1] = lines[-1].replace("overall mean=", "overall mean=1")
    with pytest.raises(checks.CheckFailed):
        checks.check_report("\n".join(lines), n, exp.replications, exp.folds)
