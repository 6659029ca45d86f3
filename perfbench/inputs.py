"""Seeded synthetic inputs for the benchmark workloads.

A corpus mixes class-bearing signal words with neutral fillers, in the
style of ``tests/synthdata.py``. Signal words come from synonym sets
that each lean toward one class, with a steep Zipf curve inside every
set. Each document draws its signal words from the sets of its true
class only, so the true class is certain given the words; labels are
then flipped with probability ``NOISE``. No classifier can beat
``1 - NOISE`` in expectation, which is the generator's Bayes rate.

Groups imitate a lexical resource layered over the vocabulary: every
synonym set is a group, fillers fall into small fine clusters, and a
share of the grouped words also sits in one or two coarse groups, so
some words belong to two or three groups. Fillers are dealt from
shuffled passes over the filler list, and a workload has at least as
many filler tokens as fillers, so every filler occurs: the vocabulary
size varies with the seed only by the few rare signal words that a
seed never draws.

Everything is written as the files a user would hand to the command
line: a dataset, a text embedding file, a group TSV and an INI config.
"""

import os
from dataclasses import dataclass

import numpy as np

WORDS_PER_SET = 8
NOISE = 0.2             # label flip probability; the Bayes rate is 1 - NOISE
GROUPED_SHARE = 0.85    # share of fillers placed in fine clusters of eight
SECOND_SHARE = 0.35     # share of grouped words also in a coarse group
THIRD_SHARE = 0.08      # share of grouped words in two coarse groups
EPOCHS = 1              # of training and of every evaluate fold; batch 50
# Adadelta epsilon (the program's default is 1e-6). For its first steps
# the network sends every held-out document to one class, flipping from
# step to step. With 1e-6 that lasted past step 20 on 2 of 5 share-wide
# seeds and past step 30 on a long-docs seed; with 1e-8 held-out accuracy
# settled by step 20, the 1,000 training documents of every workload, on
# every share-wide and cv-short seed tried. long-docs also needs a strong
# class direction (``polarity``) to settle by then. Epsilon does not
# change the work of a step.
ADADELTA_EPS = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    channel2_mode: str
    dim: int
    n_test: int              # held-out documents, first in the dataset
    n_train: int             # training documents, after the held-out ones
    n_sets: int
    n_fillers: int
    signal_tokens: int
    filler_tokens: tuple     # (low, high) inclusive
    filler_scale: float      # spread of filler vectors around zero
    polarity: float          # spread of the class direction of set words
    eval_docs: int           # size of the corpus the CLI evaluate run uses
    eval_folds: int
    eval_replications: int
    seed_salt: int


WORKLOADS = {
    "share-wide": Workload(
        name="share-wide", channel2_mode="group_init_share", dim=300,
        n_test=1100, n_train=1000, n_sets=40, n_fillers=12300,
        signal_tokens=3, filler_tokens=(6, 8), filler_scale=0.18,
        polarity=0.3, eval_docs=100, eval_folds=2, eval_replications=1,
        seed_salt=101,
    ),
    "long-docs": Workload(
        name="long-docs", channel2_mode="random", dim=50,
        n_test=300, n_train=1000, n_sets=20, n_fillers=300,
        signal_tokens=12, filler_tokens=(174, 204), filler_scale=0.05,
        polarity=1.0, eval_docs=120, eval_folds=2, eval_replications=1,
        seed_salt=202,
    ),
    "cv-short": Workload(
        name="cv-short", channel2_mode="group_init_share", dim=50,
        n_test=400, n_train=1000, n_sets=40, n_fillers=5000,
        signal_tokens=3, filler_tokens=(6, 8), filler_scale=0.18,
        polarity=0.3, eval_docs=200, eval_folds=3, eval_replications=2,
        seed_salt=303,
    ),
}


@dataclass
class Corpus:
    lines: list              # "label<TAB>tokens", held-out documents first
    set_words: list          # set index -> its words
    fillers: list
    group_lines: list        # "key<TAB>word"


def make_corpus(wl: Workload, seed: int) -> Corpus:
    rng = np.random.default_rng([seed, wl.seed_salt])
    set_words = [
        [f"s{k:02d}w{r}" for r in range(WORDS_PER_SET)]
        for k in range(wl.n_sets)
    ]
    fillers = [f"f{i:05d}" for i in range(wl.n_fillers)]
    zipf = 1.0 / np.arange(1, WORDS_PER_SET + 1)
    zipf /= zipf.sum()
    half = wl.n_sets // 2

    n_docs = wl.n_test + wl.n_train
    lo, hi = wl.filler_tokens
    if lo * n_docs < wl.n_fillers:
        raise ValueError(f"{wl.name}: {n_docs} documents of at least {lo} "
                         f"filler tokens cannot use all {wl.n_fillers} fillers")
    n_filler = rng.integers(lo, hi + 1, size=n_docs)
    passes = -(-int(n_filler.sum()) // wl.n_fillers)
    stream = np.concatenate([rng.permutation(wl.n_fillers) for _ in range(passes)])

    lines = []
    pos = 0
    for i in range(n_docs):
        y = i % 2
        sets = rng.integers(0, half, size=wl.signal_tokens) + (half if y else 0)
        ranks = rng.choice(WORDS_PER_SET, size=wl.signal_tokens, p=zipf)
        tokens = [set_words[k][r] for k, r in zip(sets, ranks)]
        tokens += [fillers[j] for j in stream[pos : pos + n_filler[i]]]
        pos += n_filler[i]
        tokens = [tokens[j] for j in rng.permutation(len(tokens))]
        label = y if rng.random() >= NOISE else 1 - y
        lines.append(f"{label}\t" + " ".join(tokens))

    group_lines = []
    if wl.channel2_mode.startswith("group_init"):
        group_lines = _make_groups(rng, set_words, fillers)
    return Corpus(lines=lines, set_words=set_words, fillers=fillers,
                  group_lines=group_lines)


def _make_groups(rng, set_words, fillers):
    lines = [f"set{k:02d}\t{w}" for k, ws in enumerate(set_words) for w in ws]
    n_grouped = int(round(GROUPED_SHARE * len(fillers)))
    grouped = [fillers[j] for j in np.sort(rng.permutation(len(fillers))[:n_grouped])]
    for c in range(0, len(grouped), 8):
        lines += [f"fine{c // 8:05d}\t{w}" for w in grouped[c : c + 8]]

    words = [w for ws in set_words for w in ws] + grouped
    n_coarse = max(len(words) // 40, 2)
    u = rng.random(len(words))
    for w, ui in zip(words, u):
        extra = 2 if ui < THIRD_SHARE else (1 if ui < SECOND_SHARE else 0)
        for g in rng.choice(n_coarse, size=extra, replace=False):
            lines.append(f"coarse{int(g):04d}\t{w}")
    return lines


def make_vectors(corpus: Corpus, wl: Workload, seed: int) -> dict:
    """Pretrained rows: set words scatter around a per-set prototype.

    Prototypes of one class share a polarity component, as sentiment
    words do in real embeddings, so a few epochs lift accuracy well
    clear of chance.
    """
    rng = np.random.default_rng([seed, wl.seed_salt, 1])
    polarity = rng.normal(0.0, wl.polarity, size=wl.dim)
    half = len(corpus.set_words) // 2
    vectors = {}
    for k, ws in enumerate(corpus.set_words):
        side = 1.0 if k < half else -1.0
        proto = side * polarity + rng.normal(0.0, 0.1, size=wl.dim)
        for w in ws:
            vectors[w] = proto + rng.normal(0.0, 0.1, size=wl.dim)
    lone = rng.normal(0.0, wl.filler_scale, size=(len(corpus.fillers), wl.dim))
    # one filler in twenty is missing from the file and gets an OOV row
    missing = rng.random(len(corpus.fillers)) < 0.05
    for w, row, miss in zip(corpus.fillers, lone, missing):
        if not miss:
            vectors[w] = row
    return vectors


def write_inputs(wl: Workload, seed: int, out_dir: str) -> dict:
    """Write dataset, embeddings, groups and two INI configs; return paths."""
    os.makedirs(out_dir, exist_ok=True)
    corpus = make_corpus(wl, seed)
    paths = {
        "dataset": os.path.join(out_dir, "dataset.txt"),
        "eval_dataset": os.path.join(out_dir, "eval_dataset.txt"),
        "pretrained": os.path.join(out_dir, "vectors.txt"),
        "groups": os.path.join(out_dir, "groups.tsv"),
        "config": os.path.join(out_dir, "run.ini"),
        "eval_config": os.path.join(out_dir, "evaluate.ini"),
    }
    with open(paths["dataset"], "w", encoding="utf-8") as f:
        f.write("\n".join(corpus.lines) + "\n")
    with open(paths["eval_dataset"], "w", encoding="utf-8") as f:
        f.write("\n".join(corpus.lines[: wl.eval_docs]) + "\n")

    vectors = make_vectors(corpus, wl, seed)
    with open(paths["pretrained"], "w", encoding="utf-8") as f:
        f.write(f"{len(vectors)} {wl.dim}\n")
        fmt = " ".join(["%.5f"] * wl.dim)
        for w, v in vectors.items():
            f.write(w + " " + fmt % tuple(v.astype(np.float32).tolist()) + "\n")

    has_groups = bool(corpus.group_lines)
    if has_groups:
        with open(paths["groups"], "w", encoding="utf-8") as f:
            f.write("\n".join(corpus.group_lines) + "\n")

    def ini(dataset):
        groups = f"groups = {paths['groups']}\n" if has_groups else ""
        return (
            "[data]\n"
            f"dataset = {dataset}\n"
            f"pretrained = {paths['pretrained']}\n"
            f"{groups}"
            "[model]\n"
            f"channel2_mode = {wl.channel2_mode}\n"
            "[train]\n"
            f"epochs = {EPOCHS}\n"
            f"eps = {ADADELTA_EPS}\n"
            "[eval]\n"
            f"folds = {wl.eval_folds}\n"
            f"replications = {wl.eval_replications}\n"
            "[run]\n"
            f"seed = {seed}\n"
        )

    with open(paths["config"], "w", encoding="utf-8") as f:
        f.write(ini(paths["dataset"]))
    with open(paths["eval_config"], "w", encoding="utf-8") as f:
        f.write(ini(paths["eval_dataset"]))
    return paths
