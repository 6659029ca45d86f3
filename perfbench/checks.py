"""Checks of the program's outputs, computed apart from the program.

Every check raises ``CheckFailed`` with a reason when an output is
wrong, and returns quietly otherwise. None of them calls back into the
code path it checks: the forward pass, the group means and the report
arithmetic are recomputed here from the raw parameters and inputs.
"""

import math
import re

import numpy as np


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def reference_probs(params, doc) -> np.ndarray:
    """Class probabilities of one document by an explicit window loop.

    Follows the model's definition: each channel looks up its rows (PAD
    positions read zeros), every filter of height h scores each window
    of h consecutive tokens with a ReLU, the score is max-pooled over the
    windows that fit inside the real tokens (at least one), and the
    pooled features of both channels feed the softmax layer.
    """
    cfg = params.config
    pad = params.vocab.pad_id
    ids = [int(i) for i in doc]
    real = sum(1 for i in ids if i != pad)
    ids += [pad] * max(0, cfg.max_height - len(ids))
    channels = [(params.emb_pretrained, params.bank_p)]
    if params.channel2 is not None:
        channels.append((params.channel2_values(), params.bank_s))
    feats = []
    for matrix, bank in channels:
        x = np.stack([np.zeros(matrix.shape[1]) if i == pad else matrix[i]
                      for i in ids])
        for h in cfg.filter_heights:
            w, b = bank.weights[h], bank.biases[h]
            scores = [
                np.maximum(np.einsum("fhd,hd->f", w, x[t : t + h]) + b, 0.0)
                for t in range(max(real - h + 1, 1))
            ]
            feats.append(np.max(scores, axis=0))
    logits = np.concatenate(feats) @ params.softmax_w + params.softmax_b
    e = np.exp(logits - logits.max())
    return e / e.sum()


def check_predictions(params, docs, labels, probs, sample) -> None:
    """``predict`` output against the reference pass on sampled documents."""
    _require(probs.shape == (len(docs), params.config.num_classes),
             f"probabilities have shape {probs.shape}")
    _require(np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12),
             "probability rows do not sum to one")
    _require(np.array_equal(labels, probs.argmax(axis=1)),
             "labels are not the most probable classes")
    for i in sample:
        ref = reference_probs(params, docs[i])
        _require(np.allclose(probs[i], ref, rtol=1e-9, atol=1e-12),
                 f"document {i}: probabilities {probs[i]} differ from "
                 f"reference {ref}")
        _require(int(labels[i]) == int(np.argmax(ref)),
                 f"document {i}: label differs from the reference")


def bayes_ceiling(y_true, noise, z=3.0) -> float:
    """Highest plausible held-out accuracy.

    The generator's Bayes rate ``1 - noise`` plus ``z`` binomial standard
    errors at the held-out size: a model that scores above it has seen
    the held-out labels.
    """
    n = np.asarray(y_true).size
    bayes = 1.0 - noise
    return bayes + z * math.sqrt(bayes * (1.0 - bayes) / n)


def pairwise_auc(y_true, scores) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties half."""
    y_true = np.asarray(y_true)
    pos = scores[y_true == 1][:, None]
    neg = scores[y_true == 0][None, :]
    return float(((pos > neg).sum() + 0.5 * (pos == neg).sum())
                 / (pos.size * neg.size))


def check_quality(y_true, labels, probs, noise, margin=0.1):
    """Held-out accuracy above chance plus ``margin`` and below the Bayes
    ceiling; the ranking of the class-1 probability above chance too.

    Chance is the accuracy of always predicting the most common held-out
    label. Returns (accuracy, auc).
    """
    y_true = np.asarray(y_true)
    acc = float(np.mean(y_true == np.asarray(labels)))
    chance = float(np.bincount(y_true).max() / y_true.size)
    auc = pairwise_auc(y_true, probs[:, 1])
    ceiling = bayes_ceiling(y_true, noise)
    _require(acc <= ceiling,
             f"held-out accuracy {acc:.4f} above the Bayes ceiling "
             f"{ceiling:.4f}; held-out labels leaked into training?")
    _require(acc >= chance + margin,
             f"held-out accuracy {acc:.4f} below chance {chance:.4f} plus "
             f"{margin}")
    _require(auc >= 0.5 + margin,
             f"held-out AUC {auc:.4f} below chance plus {margin}")
    return acc, auc


def check_tied_rows(values, table, group_vectors, chunk=2048) -> None:
    """Every coordinate of a grouped row is +-the same coordinate of one
    of that word's groups."""
    words = np.array(sorted(table.membership), dtype=np.int64)
    if words.size == 0:
        return
    kmax = max(len(g) for g in table.membership.values())
    gids = np.full((words.size, kmax), -1, dtype=np.int64)
    for r, w in enumerate(words):
        g = table.membership[int(w)]
        gids[r, : len(g)] = g
    for start in range(0, words.size, chunk):
        ids = gids[start : start + chunk]
        rows = values[words[start : start + chunk]][:, None, :]
        cand = group_vectors[np.maximum(ids, 0)]
        hit = ((cand == rows) | (cand == -rows)) & (ids >= 0)[:, :, None]
        ok = hit.any(axis=1)
        if not ok.all():
            r, j = np.argwhere(~ok)[0]
            w = int(words[start + r])
            raise CheckFailed(
                f"word {w} coordinate {j} = {values[w, j]!r} matches none of "
                f"its groups {table.membership[w]}"
            )


def initial_group_vectors(table, pretrained) -> np.ndarray:
    """Group means of the pretrained rows, summed in ascending word order."""
    out = np.zeros((table.group_count, pretrained.shape[1]))
    for g, ws in enumerate(table.members):
        acc = np.zeros(pretrained.shape[1])
        for w in ws:
            acc += pretrained[w]
        out[g] = acc / len(ws)
    return out


def check_groups_moved(table, pretrained, trained, train_docs) -> float:
    """Training moved the group rows its documents touch, and no other.

    Adadelta leaves a row with a zero gradient exactly where it is, so a
    group none of whose members occurs in a training document must keep
    its initial mean bit for bit. Returns the share of touched groups
    that moved.
    """
    initial = initial_group_vectors(table, pretrained)
    moved = (trained != initial).any(axis=1)
    seen = np.unique(np.concatenate(train_docs))
    touched = np.zeros(table.group_count, dtype=bool)
    for w in seen:
        touched[table.groups_of(int(w))] = True
    _require(not moved[~touched].any(),
             f"{int(moved[~touched].sum())} group rows moved without any "
             f"member in the training documents")
    share = float(moved[touched].mean()) if touched.any() else 0.0
    _require(share >= 0.5, f"only {share:.3f} of the touched group rows moved")
    return share


def param_tensors(params, opt) -> dict:
    """Every tensor a checkpoint must restore, by name."""
    out = {"emb_p": params.emb_pretrained, "softmax/W": params.softmax_w,
           "softmax/b": params.softmax_b}
    if params.is_shared:
        out["group/vectors"] = params.channel2.groups.vectors
        out["ch2/values"] = params.channel2.values
    elif params.channel2 is not None:
        out["ch2/matrix"] = params.channel2
    for key, bank in (("bank_p", params.bank_p), ("bank_s", params.bank_s)):
        if bank is not None:
            for h in bank.weights:
                out[f"{key}/W/{h}"] = bank.weights[h]
                out[f"{key}/b/{h}"] = bank.biases[h]
    for name, st in opt.states.items():
        out[f"opt/{name}/sq_grad"] = st.sq_grad
        out[f"opt/{name}/sq_delta"] = st.sq_delta
    return out


def check_checkpoint(saved, loaded, probs, reloaded_probs) -> None:
    """A reloaded checkpoint holds the same bytes and predicts the same
    probabilities, byte for byte. ``saved`` and ``loaded`` are
    (params, optimizer) pairs."""
    a, b = param_tensors(*saved), param_tensors(*loaded)
    _require(sorted(a) == sorted(b),
             f"tensor names differ: {sorted(set(a) ^ set(b))}")
    _require(saved[0].step_count == loaded[0].step_count, "step count differs")
    for name in sorted(a):
        _require(a[name].dtype == b[name].dtype and a[name].shape == b[name].shape
                 and a[name].tobytes() == b[name].tobytes(),
                 f"tensor {name} differs after reload")
    _require(probs.tobytes() == reloaded_probs.tobytes(),
             "reloaded model predicts different probabilities")


_FOLD = re.compile(r"rep=(\d+) fold=(\d+) value=(\S+) train=(\d+) test=(\d+)$")
_REP = re.compile(r"rep=(\d+) mean=(\S+)$")
_ALL = re.compile(r"overall mean=(\S+) min=(\S+) max=(\S+)$")


def check_report(text, n_docs, replications, folds) -> float:
    """An ``evaluate`` report: R x k folds partitioning the dataset, and
    means that agree with the fold values at the printed precision.
    Returns the overall mean."""
    lines = text.splitlines()
    _require(lines and lines[0].endswith(
        f"replications={replications} folds={folds}"),
        f"unexpected report header {lines[:1]}")
    fold_rows, rep_means, overall = {}, {}, None
    for line in lines[1:]:
        if m := _FOLD.match(line):
            r, f = int(m[1]), int(m[2])
            _require((r, f) not in fold_rows, f"fold {r}/{f} reported twice")
            fold_rows[r, f] = (float(m[3]), int(m[4]), int(m[5]))
        elif m := _REP.match(line):
            rep_means[int(m[1])] = float(m[2])
        elif m := _ALL.match(line):
            overall = tuple(float(v) for v in m.groups())
        else:
            raise CheckFailed(f"unexpected report line {line!r}")
    _require(sorted(fold_rows) == [(r, f) for r in range(replications)
                                   for f in range(folds)],
             f"report has folds {sorted(fold_rows)}")
    _require(sorted(rep_means) == list(range(replications)),
             "replication means missing")
    _require(overall is not None, "overall line missing")
    tol = 1.5e-6  # values are printed with six decimals
    for r in range(replications):
        rows = [fold_rows[r, f] for f in range(folds)]
        _require(all(tr + te == n_docs for _, tr, te in rows),
                 f"replication {r}: train + test differs from {n_docs}")
        _require(sum(te for _, _, te in rows) == n_docs,
                 f"replication {r}: test folds do not cover the dataset")
        _require(all(0.0 <= v <= 1.0 for v, _, _ in rows),
                 f"replication {r}: fold value outside [0, 1]")
        _require(abs(np.mean([v for v, _, _ in rows]) - rep_means[r]) <= tol,
                 f"replication {r}: mean disagrees with its folds")
    means = [rep_means[r] for r in range(replications)]
    _require(abs(np.mean(means) - overall[0]) <= tol,
             "overall mean differs from the mean of replication means")
    _require(abs(min(means) - overall[1]) <= tol
             and abs(max(means) - overall[2]) <= tol,
             "overall min/max differ from the replication means")
    return overall[0]
