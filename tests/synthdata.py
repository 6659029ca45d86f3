"""Synthetic two-class corpus with synonym-set structure.

Documents mix class-bearing "signal" tokens with neutral filler tokens.
Signal tokens come from synonym sets: every set leans toward one class,
and within a set the word frequencies follow a steep Zipf curve, so most
synonyms are rare. A model that pools statistics across a set should
therefore beat one that must learn every rare synonym on its own.
Labels are flipped with a fixed noise probability to cap the attainable
accuracy.
"""

import numpy as np

from groupshare.corpus import build_vocabulary, encode, parse_line


def make_synth_corpus(seed, n_docs=2000, n_sets=40, words_per_set=8,
                      n_fillers=200, signal_tokens=3, filler_tokens=7,
                      noise=0.3, zipf_power=1.0):
    """Returns (dataset, vocab, group_lines).

    group_lines are canonical "key<TAB>word" rows, one synonym set per
    key. Set words that never occur in any document are skipped later by
    the group loader.
    """
    rng = np.random.default_rng(seed)
    set_words = [
        [f"s{k:02d}w{r}" for r in range(words_per_set)] for k in range(n_sets)
    ]
    fillers = [f"f{i:03d}" for i in range(n_fillers)]
    zipf = 1.0 / np.arange(1, words_per_set + 1) ** zipf_power
    zipf /= zipf.sum()
    half = n_sets // 2

    lines = []
    for i in range(n_docs):
        y = i % 2
        class_sets = range(0, half) if y == 0 else range(half, n_sets)
        class_sets = list(class_sets)
        tokens = []
        for _ in range(signal_tokens):
            k = class_sets[int(rng.integers(0, len(class_sets)))]
            r = int(rng.choice(words_per_set, p=zipf))
            tokens.append(set_words[k][r])
        for _ in range(filler_tokens):
            tokens.append(fillers[int(rng.integers(0, n_fillers))])
        tokens = [tokens[j] for j in rng.permutation(len(tokens))]
        label = y if rng.random() >= noise else 1 - y
        lines.append(f"{label}\t" + " ".join(tokens))

    docs = [parse_line(ln, i + 1)[1] for i, ln in enumerate(lines)]
    vocab = build_vocabulary(docs)
    dataset = encode(lines, vocab)
    group_lines = [
        f"set{k:02d}\t{w}" for k in range(n_sets) for w in set_words[k]
    ]
    return dataset, vocab, group_lines


def make_synth_pretrained(vocab, group_lines, dim, seed, proto_scale=0.15,
                          noise_scale=0.1, rare_rank=None,
                          rare_noise_scale=0.45):
    """Pretrained vectors with noisy synonym structure.

    Words of one synonym set scatter around a shared prototype. With
    ``rare_rank`` set, set words whose within-set rank is at least that
    value get much larger noise, imitating embeddings trained on too few
    occurrences: single rare vectors are near useless, but the set
    average still recovers the prototype. Words outside any set get
    unstructured noise of comparable norm; the padding row stays zero.
    """
    rng = np.random.default_rng(seed)
    set_of = {}
    for line in group_lines:
        key, word = line.split("\t")
        set_of[word] = key
    keys = sorted(set(set_of.values()))
    protos = {k: rng.normal(0.0, proto_scale, size=dim) for k in keys}
    lone_scale = float(np.hypot(proto_scale, noise_scale))
    matrix = np.zeros((vocab.num_rows, dim), dtype=np.float64)
    for wid, word in enumerate(vocab.words):
        if word in set_of:
            scale = noise_scale
            if rare_rank is not None:
                rank = int(word.rpartition("w")[2])
                if rank >= rare_rank:
                    scale = rare_noise_scale
            matrix[wid] = protos[set_of[word]] + rng.normal(0.0, scale, size=dim)
        else:
            matrix[wid] = rng.normal(0.0, lone_scale, size=dim)
    matrix[vocab.unk_id] = rng.normal(0.0, lone_scale, size=dim)
    return matrix
