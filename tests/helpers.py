"""Small builders shared across test modules."""

import os
import subprocess
import sys

import numpy as np

from groupshare.corpus import Vocabulary, build_vocabulary


def vocab_of(words) -> Vocabulary:
    """Vocabulary whose token ids follow the given word order."""
    return build_vocabulary([list(words)])


def random_words(rng: np.random.Generator, count: int) -> list:
    """Distinct lowercase pseudo-words."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    seen = set()
    out = []
    while len(out) < count:
        length = int(rng.integers(3, 9))
        w = "".join(alphabet[i] for i in rng.integers(0, 26, size=length))
        if w in seen:
            continue
        seen.add(w)
        out.append(w)
    return out


def random_group_tsv(rng: np.random.Generator, words, n_groups: int,
                     n_pairs: int) -> list:
    """Random "key<TAB>word" lines over the given words."""
    lines = []
    for _ in range(n_pairs):
        g = int(rng.integers(0, n_groups))
        w = words[int(rng.integers(0, len(words)))]
        lines.append(f"g{g}\t{w}")
    return lines


def write_embeddings(path, words, matrix, format="text") -> None:
    """An embedding file of ``words`` and the first ``len(words)`` rows of
    ``matrix`` at float32 resolution, in a format load_pretrained reads."""
    rows = np.asarray(matrix, dtype=np.float32)[: len(words)]
    with open(path, "wb") as f:
        f.write(f"{len(words)} {rows.shape[1]}\n".encode())
        for word, row in zip(words, rows):
            if format == "binary":
                f.write(word.encode() + b" " + row.astype("<f4").tobytes() + b"\n")
            else:
                values = " ".join(repr(float(v)) for v in row)
                f.write(f"{word} {values}\n".encode())


def dense_gradients(params, grads, words) -> dict:
    """``batch_gradients``' gradients with the embedding rows of ``words``
    scattered into vocabulary-sized matrices, +0.0 everywhere else."""
    out = dict(grads)
    for key in ("emb_p", "ch2"):
        if key in grads:
            out[key] = np.zeros((params.vocab.num_rows, grads[key].shape[1]))
            out[key][words] = grads[key]
    return out


TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def in_blas_threads(threads: int, module: str, function: str) -> None:
    """Call ``function()`` of the test module ``module`` in a fresh
    interpreter whose OpenBLAS runs ``threads`` threads, and fail with its
    error output if it fails. OpenBLAS reads the count when numpy loads,
    so a process cannot change it for itself."""
    path = [SRC, TESTS] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", f"import {module}; {module}.{function}()"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-3000:]
