"""Datasets, vocabularies, and pretrained embedding files.

Input conventions:
  * dataset file: UTF-8, one document per line, "label<TAB>token token ...",
    tokens already whitespace-separated by upstream preprocessing;
  * embedding text format: header line "V d", then "word v1 ... vd" per line;
  * embedding binary format: ASCII header "V d\\n", then per word the word's
    UTF-8 bytes, a single space, d little-endian float32 values, and an
    optional newline.

Every vocabulary reserves two extra row ids beyond its tokens: an UNK row
for tokens unseen at build time and a PAD row whose vector stays zero and
is masked out of convolutions. Matrices produced here therefore have
``vocab.num_rows == vocab.num_tokens + 2`` rows.
"""

from dataclasses import dataclass, field

import hashlib

import numpy as np


UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"
_RESERVED = (UNK_TOKEN, PAD_TOKEN)


@dataclass(frozen=True)
class Vocabulary:
    """Bijection between corpus tokens and dense integer ids.

    Token ids occupy [0, num_tokens); the UNK and PAD rows sit at
    num_tokens and num_tokens + 1. ``words`` must be non-empty, distinct
    and free of the reserved tokens; ``index`` is derived from it.
    """

    words: tuple
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "index", {w: i for i, w in enumerate(self.words)})
        if not self.words:
            raise ValueError("vocabulary is empty")
        if len(self.index) != len(self.words):
            raise ValueError("vocabulary contains duplicate tokens")
        for w in _RESERVED:
            if w in self.index:
                raise ValueError(f"vocabulary contains reserved token {w!r}")

    @property
    def num_tokens(self) -> int:
        return len(self.words)

    @property
    def unk_id(self) -> int:
        return len(self.words)

    @property
    def pad_id(self) -> int:
        return len(self.words) + 1

    @property
    def num_rows(self) -> int:
        """Row count of embedding matrices over this vocabulary."""
        return len(self.words) + 2

    def lookup(self, word: str):
        """Id for a word, the reserved rows included; None if absent."""
        if word == UNK_TOKEN:
            return self.unk_id
        if word == PAD_TOKEN:
            return self.pad_id
        return self.index.get(word)

    def ids(self, tokens) -> np.ndarray:
        """int64 ids of ``tokens``; a token outside the vocabulary reads UNK."""
        unk = self.unk_id
        return np.array([self.index.get(t, unk) for t in tokens], dtype=np.int64)

    def content_hash(self) -> str:
        """SHA-256 of the words in id order, each followed by a newline."""
        text = "\n".join(self.words + ("",))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Dataset:
    """Encoded documents with dense integer labels."""

    documents: list
    labels: np.ndarray
    num_classes: int

    def __len__(self) -> int:
        return len(self.documents)


def build_vocabulary(docs) -> Vocabulary:
    """Collect the distinct tokens of ``docs`` into a Vocabulary, with ids
    in order of first occurrence."""
    if not docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    return Vocabulary(tuple(dict.fromkeys(tok for doc in docs for tok in doc)))


def parse_line(line: str, lineno: int):
    """Split one dataset line into (raw label, token list)."""
    if "\t" not in line:
        raise ValueError(f"line {lineno}: expected 'label<TAB>tokens', got no tab")
    label, _, rest = line.partition("\t")
    label = label.strip()
    if not label:
        raise ValueError(f"line {lineno}: empty label")
    tokens = rest.split()
    if not tokens:
        raise ValueError(f"line {lineno}: document has no tokens")
    return label, tokens


def encode(lines, vocab: Vocabulary) -> Dataset:
    """Encode raw dataset lines against a vocabulary.

    Unknown tokens map to the UNK id. Labels that all parse as non-negative
    integers are used verbatim (num_classes = max + 1); otherwise the
    distinct label strings are sorted and densely renumbered.
    """
    raw_labels = []
    documents = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        label, tokens = parse_line(line, lineno)
        raw_labels.append(label)
        documents.append(vocab.ids(tokens))
    if not documents:
        raise ValueError("dataset is empty")

    def _as_int(s):
        try:
            v = int(s)
        except ValueError:
            return None
        return v if v >= 0 else None

    ints = [_as_int(s) for s in raw_labels]
    if all(v is not None for v in ints):
        labels = np.array(ints, dtype=np.int64)
        num_classes = int(labels.max()) + 1
    else:
        mapping = {s: i for i, s in enumerate(sorted(set(raw_labels)))}
        labels = np.array([mapping[s] for s in raw_labels], dtype=np.int64)
        num_classes = len(mapping)
    return Dataset(documents=documents, labels=labels, num_classes=num_classes)


def load_dataset(path):
    """Read a dataset file, build its vocabulary, and encode it."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    docs = [parse_line(ln, i)[1] for i, ln in enumerate(lines, start=1) if ln]
    vocab = build_vocabulary(docs)
    return encode(lines, vocab), vocab


# Random rows (out-of-vocabulary words, random embeddings) are drawn
# uniformly from [-OOV_BOUND, OOV_BOUND].
OOV_BOUND = 0.25


def load_pretrained(path, vocab: Vocabulary, format: str = "text",
                    oov_seed: int = 0) -> np.ndarray:
    """Load pretrained vectors into a (num_rows, d) float64 matrix.

    File entries not in the vocabulary are ignored. Vocabulary tokens (and
    the UNK row) missing from the file are drawn uniformly in ascending
    row order from one generator seeded with ``oov_seed``, so the result
    is reproducible. The PAD row is zero.
    """
    if format == "text":
        entries, dim = _read_text_embeddings(path)
    elif format == "binary":
        entries, dim = _read_binary_embeddings(path)
    else:
        raise ValueError(f"unknown embedding format {format!r}")

    matrix = np.zeros((vocab.num_rows, dim), dtype=np.float64)
    present = np.zeros(vocab.num_rows, dtype=bool)
    present[vocab.pad_id] = True  # stays zero
    for word, vec in entries:
        idx = vocab.lookup(word)
        if idx is None or idx == vocab.pad_id:
            continue
        matrix[idx] = vec
        present[idx] = True
    rng = np.random.default_rng(oov_seed)
    missing = ~present
    matrix[missing] = rng.uniform(-OOV_BOUND, OOV_BOUND,
                                  size=(np.count_nonzero(missing), dim))
    return matrix


def random_pretrained(vocab: Vocabulary, dim: int, seed: int = 0) -> np.ndarray:
    """Fully random embedding matrix using the OOV distribution; PAD zero."""
    if dim <= 0:
        raise ValueError("embedding dimension must be positive")
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-OOV_BOUND, OOV_BOUND, size=(vocab.num_rows, dim))
    matrix[vocab.pad_id] = 0.0
    return matrix


def _parse_header(line, format: str):
    """(V, d) from the "V d" header line, str or bytes, of a ``format`` file."""
    fields = line.split()
    if len(fields) != 2:
        raise ValueError(f"embedding {format} header must be 'V d'")
    try:
        count, dim = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(f"embedding {format} header must be two integers") from None
    if dim <= 0:
        raise ValueError("embedding dimension must be positive")
    return count, dim


def _read_text_embeddings(path):
    with open(path, "r", encoding="utf-8") as f:
        count, dim = _parse_header(f.readline(), "text")
        entries = []
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise ValueError(
                    f"line {lineno}: expected 1 word + {dim} values, got {len(parts)} fields"
                )
            try:
                # payload resolution is float32 in both file formats
                vec = np.array(parts[1:], dtype=np.float32).astype(np.float64)
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric embedding value") from None
            if not np.isfinite(vec).all():
                raise ValueError(f"line {lineno}: non-finite embedding value")
            entries.append((parts[0], vec))
    if len(entries) != count:
        raise ValueError(
            f"header announces {count} entries but file holds {len(entries)}"
        )
    return entries, dim


def _read_binary_embeddings(path):
    with open(path, "rb") as f:
        blob = f.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise ValueError("binary embedding file has no header line")
    count, dim = _parse_header(blob[:nl], "binary")
    pos = nl + 1
    entries = []
    for _ in range(count):
        sp = blob.find(b" ", pos)
        if sp < 0:
            raise ValueError("binary embedding payload truncated (no word terminator)")
        word = blob[pos:sp].decode("utf-8")
        pos = sp + 1
        end = pos + 4 * dim
        if end > len(blob):
            raise ValueError("binary embedding payload truncated (vector bytes)")
        vec = np.frombuffer(blob[pos:end], dtype="<f4").astype(np.float64)
        if not np.isfinite(vec).all():
            raise ValueError(f"non-finite embedding value for word {word!r}")
        pos = end
        if pos < len(blob) and blob[pos:pos + 1] == b"\n":
            pos += 1
        entries.append((word, vec))
    if pos != len(blob):
        raise ValueError("binary embedding file has trailing bytes after payload")
    return entries, dim


def save_vocabulary(vocab: Vocabulary, f) -> None:
    """One token per line, in id order, into the text file ``f``. Reserved
    rows are implicit."""
    for w in vocab.words:
        f.write(w)
        f.write("\n")


def load_vocabulary(path) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as f:
        words = [ln.rstrip("\n") for ln in f if ln.rstrip("\n")]
    try:
        return Vocabulary(tuple(words))
    except ValueError as e:
        raise ValueError(f"vocabulary file {path}: {e}") from None
